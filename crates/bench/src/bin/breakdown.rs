//! Print the stall-cycle breakdown and the monitor mediation micro-cost.
//! Accepts `--json` / `--csv`.
use isa_grid_bench::{breakdown, report::Cli};
fn main() {
    let args = Cli::new(
        "breakdown",
        "stall-cycle breakdown and monitor mediation micro-cost",
    )
    .from_env();
    let rows = breakdown::run(1);
    print!("{}", args.emit(&breakdown::render(&rows)));
    let micro = breakdown::monitor_micro(256);
    print!("{}", args.emit(&breakdown::render_monitor(&micro)));
}
