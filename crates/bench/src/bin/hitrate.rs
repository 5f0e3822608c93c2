//! Regenerate the §7.1 privilege-cache hit-rate measurement.
//! Accepts `--json` / `--csv` / `--no-jit` / `--profile <path>`; the
//! JSON report carries the raw hit/miss counters behind the percentage
//! cells.
use isa_grid_bench::{hitrate, profile, report::Cli};
fn main() {
    let args = Cli::new(
        "hitrate",
        "regenerate the privilege-cache hit-rate measurement",
    )
    .with_no_jit()
    .with_profile()
    .from_env();
    profile::begin(&args, "hitrate");
    let rows = hitrate::run(1);
    print!("{}", args.emit(&hitrate::render(&rows)));
    profile::finish(&args, vec![]);
}
