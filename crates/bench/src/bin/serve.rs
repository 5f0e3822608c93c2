//! Open-loop multi-tenant serving harness. Drives millions of
//! requests through per-tenant ISA domains on an SMP guest and writes
//! a schema-versioned `BENCH_serve.json` (throughput, p50/p99 tail
//! latency, shootdown traffic, per-tenant cycle attribution).
//!
//! ```text
//! serve --tenants 32 --requests 1000000 --harts 4 --seed 1 --json
//! ```
use isa_grid_bench::report::Cli;
use isa_grid_bench::{profile, serve};

fn main() {
    let cli = Cli::new("serve", "open-loop multi-tenant serving harness").with_profile();
    let args = serve::flags(cli, &serve::ServeConfig::new(32, 100_000, 4, 1))
        .flag_bool(
            "--self-heal",
            "classify failures, quarantine faulted tenants, retry from checkpoints",
        )
        .flag_u64(
            "--checkpoint-every",
            0,
            "checkpoint into the recovery ring every N resolved requests (0 = never)",
        )
        .flag_u64(
            "--request-fault-ppm",
            0,
            "seeded request-targeted chaos rate in faults/million (needs --self-heal)",
        )
        .flag_u64(
            "--machine-fault-ppm",
            0,
            "seeded machine-level fault rate on PCU commit indices (0 = none)",
        )
        .flag_u64(
            "--shed-deadline",
            0,
            "shed arrivals whose projected sojourn exceeds N virtual cycles (0 = off)",
        )
        .flag_u64(
            "--watchdog-rounds",
            0,
            "per-request watchdog budget in rounds (0 = default 2048)",
        )
        .flag_u64(
            "--shootdown-deadline",
            0,
            "override PCU shootdown deadline in polls (0 = profile default)",
        )
        .flag_str("--out", "report path (default BENCH_serve.json)")
        .flag_str(
            "--trace",
            "write a Perfetto request trace here (enables tracing)",
        )
        .flag_str(
            "--trace-mode",
            "tracing mode: off | sampled | full (default sampled when --trace is set)",
        )
        .flag_u64(
            "--trace-sample",
            0,
            "tail-sample a seeded 1-in-N survey of request trees (0 = none)",
        )
        .flag_u64(
            "--trace-slow-us",
            0,
            "keep every request tree at least this many virtual microseconds slow (0 = off)",
        )
        .from_env();

    let mut cfg = serve::config(&args);
    cfg.profile = args.profile.is_some();
    cfg.self_heal = args.flag("--self-heal");
    cfg.checkpoint_every = args.u64("--checkpoint-every");
    cfg.request_fault_ppm = args.u64("--request-fault-ppm");
    cfg.machine_fault_ppm = args.u64("--machine-fault-ppm");
    cfg.shed_deadline = args.u64("--shed-deadline");
    cfg.watchdog_rounds = args.u64("--watchdog-rounds");
    cfg.shootdown_deadline = args.u64("--shootdown-deadline");
    if cfg.request_fault_ppm > 0 && !cfg.self_heal {
        eprintln!("serve: --request-fault-ppm needs --self-heal (a raw injection just wedges)");
        std::process::exit(2);
    }

    // Tracing: `--trace <path>` turns it on (sampled unless
    // `--trace-mode full`); `--trace-mode` alone collects without
    // exporting. One virtual cycle renders as one Perfetto
    // microsecond, so `--trace-slow-us` is a virtual-cycle threshold.
    let trace_path = args.str_opt("--trace").map(str::to_string);
    let mode = match args.str_opt("--trace-mode") {
        Some(m) => match serve::TraceMode::parse(m) {
            Some(m) => m,
            None => {
                eprintln!("serve: --trace-mode must be off | sampled | full, got {m:?}");
                std::process::exit(2);
            }
        },
        None if trace_path.is_some() => serve::TraceMode::Sampled,
        None => serve::TraceMode::Off,
    };
    cfg.trace = mode;
    cfg.trace_survey = args.u64("--trace-sample");
    cfg.trace_slow = args.u64("--trace-slow-us");

    let oracle_every = args.u64("--oracle-every");
    let outcome = if oracle_every > 0 {
        let hooks = serve::ServeHooks {
            oracle_every,
            ..Default::default()
        };
        let run = serve::run_hooked(&cfg, &hooks);
        eprintln!("serve: oracle verified {} rounds", run.oracle_checks);
        if let Some(d) = run.divergence {
            eprintln!("serve: ORACLE DIVERGENCE: {d}");
            std::process::exit(4);
        }
        run.outcome
    } else {
        serve::run(&cfg)
    };
    let table = serve::render(&outcome);
    print!("{}", args.emit(&table));

    // Always refresh the canonical report; `--out` adds a second copy.
    let json = format!("{}\n", table.to_json().pretty());
    let mut paths = vec!["BENCH_serve.json"];
    if let Some(out) = args.str_opt("--out") {
        if out != "BENCH_serve.json" {
            paths.push(out);
        }
    }
    for path in paths {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("serve: cannot write {path}: {e}");
            std::process::exit(3);
        }
    }
    if let Some(path) = trace_path {
        let report = serve::TraceReport {
            name: "serve",
            harts: outcome.cfg.harts,
            collector: &outcome.trace,
        };
        let doc = format!("{}\n", report.to_json().pretty());
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("serve: cannot write {path}: {e}");
            std::process::exit(3);
        }
        eprintln!(
            "serve: wrote {} kept request trees to {path}",
            outcome.trace.kept().len()
        );
    }
    profile::finish(&args, outcome.profiles);
}
