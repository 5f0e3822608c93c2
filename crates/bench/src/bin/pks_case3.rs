//! Regenerate the §7.2 case-3 PKS estimate. Accepts `--json` / `--csv`.
use isa_grid_bench::{pks, report::Cli};
fn main() {
    let args = Cli::new("pks_case3", "regenerate the case-3 PKS estimate").from_env();
    let c = pks::run(512);
    print!("{}", args.emit(&pks::render(&c)));
}
