//! Sweep the PCU design choices (cache sizes, bypass register, unified
//! HPT cache, Draco legal cache). Accepts `--json` / `--csv`.
use isa_grid_bench::{ablation, report::Cli};
fn main() {
    let args = Cli::new(
        "ablation",
        "sweep the PCU design choices (cache sizes, bypass, legal cache)",
    )
    .from_env();
    let pts = ablation::run(1);
    print!("{}", args.emit(&ablation::render(&pts)));
}
