//! SMP scaling + shootdown-traffic harness. Accepts `--harts N`,
//! `--iters N`, `--json` / `--csv` / `--profile <path>`.
use isa_grid_bench::{profile, report::Cli, smpbench};

fn main() {
    let args = Cli::new("smp", "SMP scaling + shootdown-traffic harness")
        .with_profile()
        .flag_u64("--harts", 4, "harts to simulate")
        .flag_u64("--iters", 4_000_000, "iterations per hart")
        .from_env();
    let harts = (args.u64("--harts") as usize).max(1);
    let iters = args.u64("--iters");
    let (s, runs) = smpbench::scaling_profiled(harts, iters, args.profile.is_some());
    let shoot = smpbench::shootdown_traffic(harts.max(2), 32);
    print!("{}", args.emit(&smpbench::render(&s, &shoot)));
    profile::finish(&args, runs);
}
