//! Regenerate Figure 6 (applications, Linux decomposition, RISC-V).
//! Accepts `--json` / `--csv` / `--no-bbcache` / `--no-jit` /
//! `--profile <path>`.
//! Always writes the report (with `host_mips` throughput extras) to
//! `BENCH_mips.json`; `--out` adds a second copy.
use isa_grid_bench::{figs, profile, report::Cli};
use isa_obs::Json;
use simkernel::Platform;
fn main() {
    let args = Cli::new(
        "fig6",
        "regenerate Figure 6 (applications, Linux decomposition, RISC-V)",
    )
    .with_no_bbcache()
    .with_no_jit()
    .with_profile()
    .flag_str(
        "--out",
        "extra report path (BENCH_mips.json always written)",
    )
    .from_env();
    profile::begin(&args, "fig6");
    let bars = figs::fig67(Platform::Rocket, 1, args.bbcache);
    let mut t = figs::render(
        "Figure 6: normalized app time (decomposed vs native, rocket)",
        &bars,
    );
    t.extra("geomean normalized", Json::F64(figs::geomean(&bars, 0)));
    figs::throughput_extras(&mut t, &bars);
    print!("{}", args.emit(&t));
    let json = format!("{}\n", t.to_json().pretty());
    let mut paths = vec!["BENCH_mips.json"];
    if let Some(out) = args.str_opt("--out") {
        if out != "BENCH_mips.json" {
            paths.push(out);
        }
    }
    for path in paths {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("fig6: cannot write {path}: {e}");
            std::process::exit(3);
        }
    }
    profile::finish(&args, vec![]);
}
