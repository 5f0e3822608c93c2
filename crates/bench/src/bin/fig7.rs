//! Regenerate Figure 7 (applications, Linux decomposition, x86-like O3).
//! Accepts `--json` / `--csv` / `--no-bbcache` / `--no-jit` /
//! `--profile <path>`.
use isa_grid_bench::{figs, profile, report::Cli};
use isa_obs::Json;
use simkernel::Platform;
fn main() {
    let args = Cli::new(
        "fig7",
        "regenerate Figure 7 (applications, Linux decomposition, x86-like O3)",
    )
    .with_no_bbcache()
    .with_no_jit()
    .with_profile()
    .from_env();
    profile::begin(&args, "fig7");
    let bars = figs::fig67(Platform::O3, 1, args.bbcache);
    let mut t = figs::render(
        "Figure 7: normalized app time (decomposed vs native, x86-like O3)",
        &bars,
    );
    t.extra("geomean normalized", Json::F64(figs::geomean(&bars, 0)));
    figs::throughput_extras(&mut t, &bars);
    print!("{}", args.emit(&t));
    profile::finish(&args, vec![]);
}
