//! Regenerate Table 4 (domain switching latency). Accepts `--json` /
//! `--csv` / `--no-jit` / `--profile <path>`.
use isa_grid_bench::{profile, report::Cli};
fn main() {
    let args = Cli::new("table4", "regenerate Table 4 (domain switching latency)")
        .with_no_jit()
        .with_profile()
        .from_env();
    profile::begin(&args, "table4");
    let t = isa_grid_bench::table4::run(512);
    print!("{}", args.emit(&isa_grid_bench::table4::render(&t)));
    profile::finish(&args, vec![]);
}
