//! Regenerate Table 5 (multi-service protection latency). Accepts
//! `--json` / `--csv` / `--no-jit` / `--profile <path>`.
use isa_grid_bench::{profile, report::Cli, table5};
fn main() {
    let args = Cli::new(
        "table5",
        "regenerate Table 5 (multi-service protection latency)",
    )
    .with_no_jit()
    .with_profile()
    .from_env();
    profile::begin(&args, "table5");
    let rows = table5::run(512);
    print!("{}", args.emit(&table5::render(&rows)));
    profile::finish(&args, vec![]);
}
