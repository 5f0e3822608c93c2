//! Regenerate Figure 5 (LMbench, Linux decomposition, RISC-V).
//! Accepts `--json` / `--csv` / `--no-bbcache` / `--no-jit` /
//! `--profile <path>`.
use isa_grid_bench::{figs, profile, report::Cli};
use isa_obs::Json;
fn main() {
    let args = Cli::new(
        "fig5",
        "regenerate Figure 5 (LMbench, Linux decomposition, RISC-V)",
    )
    .with_no_bbcache()
    .with_no_jit()
    .with_profile()
    .from_env();
    profile::begin(&args, "fig5");
    let bars = figs::fig5(2000, args.bbcache);
    let mut t = figs::render(
        "Figure 5: normalized LMbench time (decomposed vs native, rocket)",
        &bars,
    );
    t.extra("geomean normalized", Json::F64(figs::geomean(&bars, 0)));
    figs::throughput_extras(&mut t, &bars);
    print!("{}", args.emit(&t));
    profile::finish(&args, vec![]);
}
