//! Snapshot/restore driver for the open-loop serving harness.
//!
//! Three modes:
//!
//! - **snapshot**: run the serving workload, capture a whole-run
//!   snapshot (machine + host scheduler state) once `--snapshot-at`
//!   requests have finished, and write it to `--snapshot <path>`.
//! - **restore**: `--restore <path>` resumes a snapshot image and
//!   drives the run to completion — bit-identical to never having
//!   stopped (same completion digest, same figure rows).
//! - **selftest**: `--selftest` does both in one process and asserts
//!   the split run's digest equals an unbroken run's, at the same
//!   config. CI's replay-smoke job runs this for 1 and 4 harts.
//!
//! `--record <path>` additionally logs host-owned nondeterminism
//! (round masks, mailbox writes, rotations) so a diverging run can be
//! audited decision by decision; `--oracle-every N` cross-checks the
//! fast machine against the differential interpreter oracle.
use isa_grid_bench::report::Cli;
use isa_grid_bench::serve;
use isa_obs::Json;

/// The replay driver's flags: the shared serving flags with a short
/// single-hart run as the default, plus the snapshot controls.
fn cli() -> Cli {
    let mut defaults = serve::ServeConfig::new(16, 2000, 1, 1);
    defaults.rotate_every = 256;
    serve::flags(
        Cli::new("replay", "snapshot/restore driver for the serving harness"),
        &defaults,
    )
    .flag_u64(
        "--snapshot-at",
        1000,
        "capture the snapshot after N finished requests",
    )
    .flag_str(
        "--snapshot",
        "write the snapshot image here, then keep running",
    )
    .flag_str(
        "--restore",
        "resume from this snapshot image instead of booting",
    )
    .flag_str("--record", "write the host-event log here")
    .flag_bool(
        "--selftest",
        "snapshot, restore, and assert digest equality",
    )
}

fn finish(args: &isa_grid_bench::report::Args, run: serve::ServeRun, label: &str) -> ! {
    let mut table = serve::render(&run.outcome);
    table.extra("mode", Json::Str(label.to_string()));
    table.extra("oracle_checks", Json::U64(run.oracle_checks));
    if let Some(path) = args.str_opt("--record") {
        if let Err(e) = std::fs::write(path, run.log.encode()) {
            eprintln!("replay: cannot write {path}: {e}");
            std::process::exit(3);
        }
        table.extra("recorded_events", Json::U64(run.log.len() as u64));
    }
    print!("{}", args.emit(&table));
    if let Some(d) = run.divergence {
        eprintln!("replay: ORACLE DIVERGENCE: {d}");
        std::process::exit(4);
    }
    std::process::exit(0);
}

fn main() {
    let args = cli().from_env();

    let hooks = serve::ServeHooks {
        snapshot_at: args.u64("--snapshot-at"),
        oracle_every: args.u64("--oracle-every"),
        record: args.str_opt("--record").is_some(),
    };

    if let Some(path) = args.str_opt("--restore") {
        let frame = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("replay: cannot read {path}: {e}");
                std::process::exit(3);
            }
        };
        // Report what we are about to resume before committing to it.
        if let Ok(cfg) = serve::frame_config(&frame) {
            eprintln!(
                "replay: resuming {}-hart run of {} requests",
                cfg.harts, cfg.requests
            );
        }
        let hooks = serve::ServeHooks {
            snapshot_at: 0,
            ..hooks
        };
        let run = match serve::resume_run_jit(&frame, &hooks, args.jit) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay: {e}");
                std::process::exit(2);
            }
        };
        finish(&args, run, "restore");
    }

    if args.flag("--selftest") {
        let cfg = serve::config(&args);
        assert!(
            hooks.snapshot_at > 0 && hooks.snapshot_at < cfg.requests,
            "replay: --selftest needs 0 < --snapshot-at < --requests"
        );
        let unbroken = serve::run(&cfg);
        let first = serve::run_hooked(&cfg, &hooks);
        let frame = first
            .snapshot
            .as_deref()
            .expect("selftest run produced no snapshot");
        let resumed = serve::resume_run_jit(frame, &serve::ServeHooks::default(), cfg.jit)
            .expect("selftest snapshot failed to resume");
        assert_eq!(
            resumed.outcome.digest, unbroken.digest,
            "resumed digest {:#018x} != unbroken digest {:#018x}",
            resumed.outcome.digest, unbroken.digest
        );
        assert_eq!(resumed.outcome.completed, unbroken.completed);
        assert_eq!(resumed.outcome.denied, unbroken.denied);
        assert_eq!(resumed.outcome.vcycles, unbroken.vcycles);
        assert_eq!(first.outcome.digest, unbroken.digest);
        let mut table = serve::render(&resumed.outcome);
        table.extra("mode", Json::Str("selftest".to_string()));
        table.extra("snapshot_bytes", Json::U64(frame.len() as u64));
        table.extra(
            "digest_match",
            Json::Str(format!("{:#018x}", unbroken.digest)),
        );
        print!("{}", args.emit(&table));
        eprintln!(
            "replay: selftest ok — {} harts, snapshot at {} of {} requests, digest {:#018x}",
            cfg.harts, hooks.snapshot_at, cfg.requests, unbroken.digest
        );
        return;
    }

    let cfg = serve::config(&args);
    let run = serve::run_hooked(&cfg, &hooks);
    if let Some(path) = args.str_opt("--snapshot") {
        match &run.snapshot {
            Some(frame) => {
                if let Err(e) = std::fs::write(path, frame) {
                    eprintln!("replay: cannot write {path}: {e}");
                    std::process::exit(3);
                }
                eprintln!("replay: snapshot ({} bytes) -> {path}", frame.len());
            }
            None => {
                eprintln!(
                    "replay: run finished before --snapshot-at {} fired",
                    hooks.snapshot_at
                );
                std::process::exit(2);
            }
        }
    }
    finish(&args, run, "run");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_jit_holds_for_fresh_and_resumed_runs() {
        let argv = [
            "--no-jit",
            "--tenants",
            "4",
            "--requests",
            "60",
            "--snapshot-at",
            "30",
        ];
        let args = cli()
            .try_parse(argv.iter().map(|s| s.to_string()).collect())
            .expect("replay accepts --no-jit");
        let cfg = serve::config(&args);
        let hooks = serve::ServeHooks {
            snapshot_at: args.u64("--snapshot-at"),
            ..Default::default()
        };
        let first = serve::run_hooked(&cfg, &hooks);
        assert_eq!(
            first.outcome.counters.jit.entered, 0,
            "fresh run used the JIT"
        );
        let frame = first.snapshot.expect("snapshot taken");
        let resumed = serve::resume_run_jit(&frame, &serve::ServeHooks::default(), args.jit)
            .expect("snapshot resumes");
        assert_eq!(
            resumed.outcome.counters.jit.entered, 0,
            "resumed run used the JIT"
        );
        assert_eq!(resumed.outcome.digest, first.outcome.digest);
    }
}
