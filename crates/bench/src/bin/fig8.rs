//! Regenerate Figure 8 (applications on the nested-monitor kernel).
//! Accepts `--json` / `--csv` / `--no-bbcache` / `--no-jit` /
//! `--profile <path>`.
use isa_grid_bench::{figs, profile, report::Cli};
use isa_obs::Json;
fn main() {
    let args = Cli::new(
        "fig8",
        "regenerate Figure 8 (applications on the nested-monitor kernel)",
    )
    .with_no_bbcache()
    .with_no_jit()
    .with_profile()
    .from_env();
    profile::begin(&args, "fig8");
    let bars = figs::fig8(1, args.bbcache);
    let mut t = figs::render(
        "Figure 8: normalized app time (nested kernel vs native, x86-like O3)",
        &bars,
    );
    t.extra(
        "geomean normalized Nest.Mon",
        Json::F64(figs::geomean(&bars, 0)),
    );
    t.extra(
        "geomean normalized Nest.Mon.Log",
        Json::F64(figs::geomean(&bars, 1)),
    );
    figs::throughput_extras(&mut t, &bars);
    print!("{}", args.emit(&t));
    profile::finish(&args, vec![]);
}
