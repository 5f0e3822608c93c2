//! The serving binaries' shared surface: the workload flags `serve`
//! and `replay` both declare, their mapping onto a [`ServeConfig`],
//! and the report table.

use isa_obs::{Json, ToJson};

use super::{ServeConfig, ServeOutcome};
use crate::report::{self, Args, Cli, Table};

/// Declare the flags every serving binary shares — the workload shape,
/// the differential-oracle cadence and `--no-jit` — with defaults taken
/// from `defaults`. [`config`] maps a parse back onto a config.
pub fn flags(cli: Cli, defaults: &ServeConfig) -> Cli {
    let d = defaults;
    cli.with_no_jit()
        .flag_u64(
            "--tenants",
            d.tenants as u64,
            "tenant sessions, one ISA domain each (1..=56)",
        )
        .flag_u64("--requests", d.requests, "requests to generate and serve")
        .flag_u64("--harts", d.harts as u64, "harts serving requests (1..=32)")
        .flag_u64(
            "--seed",
            d.seed,
            "workload seed (same seed => identical digest)",
        )
        .flag_u64(
            "--quantum",
            d.quantum,
            "steps per hart per scheduling round",
        )
        .flag_u64(
            "--mean-gap",
            d.mean_gap,
            "mean inter-arrival gap in virtual cycles",
        )
        .flag_u64(
            "--flush-every",
            d.flush_every,
            "guest pflh after every N completions (0 = never)",
        )
        .flag_u64(
            "--rotate-every",
            d.rotate_every,
            "tenant-table rewrite (shootdown) every N completions (0 = never)",
        )
        .flag_u64(
            "--probe-every",
            d.probe_every,
            "every Nth request probes a privileged CSR (0 = never)",
        )
        .flag_u64(
            "--oracle-every",
            0,
            "differential-oracle check every N completions (0 = never)",
        )
}

/// The [`ServeConfig`] a command line declared with [`flags`] asks
/// for; fields without a shared flag keep [`ServeConfig::new`]'s
/// defaults.
pub fn config(args: &Args) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        args.u64("--tenants") as usize,
        args.u64("--requests"),
        args.u64("--harts") as usize,
        args.u64("--seed"),
    );
    cfg.quantum = args.u64("--quantum").max(1);
    cfg.mean_gap = args.u64("--mean-gap").max(1);
    cfg.flush_every = args.u64("--flush-every");
    cfg.rotate_every = args.u64("--rotate-every");
    cfg.probe_every = args.u64("--probe-every");
    cfg.jit = args.jit;
    cfg
}

/// Render the outcome as a schema-versioned report table (the `serve`
/// binary writes its JSON to `BENCH_serve.json`).
pub fn render(o: &ServeOutcome) -> Table {
    let total_guest: u64 = o.per_tenant.iter().map(|t| t.guest_cycles).sum();
    let mut t = Table::new(
        "Multi-tenant serving: open-loop load over per-tenant ISA domains",
        &[
            "tenant",
            "domain",
            "requests",
            "denied",
            "guest cycles",
            "share",
        ],
    );
    for (i, ts) in o.per_tenant.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            (3 + i).to_string(), // runtime=1, service=2, tenants follow
            ts.requests.to_string(),
            ts.denied.to_string(),
            ts.guest_cycles.to_string(),
            format!(
                "{:.2}%",
                ts.guest_cycles as f64 / total_guest.max(1) as f64 * 100.0
            ),
        ]);
    }
    t.seed(o.cfg.seed);
    t.config("tenants", Json::U64(o.cfg.tenants as u64));
    t.config("requests", Json::U64(o.cfg.requests));
    t.config("harts", Json::U64(o.cfg.harts as u64));
    t.config("quantum", Json::U64(o.cfg.quantum));
    t.config("mean_gap", Json::U64(o.cfg.mean_gap));
    t.config("flush_every", Json::U64(o.cfg.flush_every));
    t.config("rotate_every", Json::U64(o.cfg.rotate_every));
    t.config("probe_every", Json::U64(o.cfg.probe_every));
    t.config("trace", Json::Str(o.cfg.trace.name().into()));
    t.config("trace_survey", Json::U64(o.cfg.trace_survey));
    t.config("trace_slow", Json::U64(o.cfg.trace_slow));
    t.config("self_heal", Json::Bool(o.cfg.self_heal));
    t.config("request_fault_ppm", Json::U64(o.cfg.request_fault_ppm));
    t.config("machine_fault_ppm", Json::U64(o.cfg.machine_fault_ppm));
    t.config("checkpoint_every", Json::U64(o.cfg.checkpoint_every));
    t.config("shed_deadline", Json::U64(o.cfg.shed_deadline));
    t.config("watchdog_rounds", Json::U64(o.cfg.watchdog_rounds));
    t.config("shootdown_deadline", Json::U64(o.cfg.shootdown_deadline));
    t.extra("completed", Json::U64(o.completed));
    t.extra("denied", Json::U64(o.denied));
    t.extra("shed", Json::U64(o.shed));
    t.extra("digest", Json::Str(format!("{:#018x}", o.digest)));
    t.extra("vcycles", Json::U64(o.vcycles));
    t.extra("rounds", Json::U64(o.rounds));
    t.extra(
        "throughput_rpmc",
        Json::F64(report::round4(
            (o.completed + o.denied) as f64 / o.vcycles.max(1) as f64 * 1e6,
        )),
    );
    let exemplar_ids = |ids: &[u64]| Json::Arr(ids.iter().map(|id| Json::U64(*id)).collect());
    t.extra(
        "latency",
        Json::obj([
            ("count", Json::U64(o.latency.count())),
            ("mean", Json::F64(report::round4(o.latency.mean()))),
            ("p50", Json::U64(o.latency.p50())),
            ("p90", Json::U64(o.latency.p90())),
            ("p99", Json::U64(o.latency.p99())),
            ("max", Json::U64(o.latency.max())),
            // The trace IDs answering "which requests does the
            // reported p99 describe" — each resolves to a kept span
            // tree in the exported trace.
            (
                "p99_exemplars",
                exemplar_ids(o.trace.latency_exemplars.for_value(o.latency.p99())),
            ),
            ("exemplars", o.trace.latency_exemplars.to_json()),
        ]),
    );
    t.extra(
        "service",
        Json::obj([
            ("count", Json::U64(o.service.count())),
            ("mean", Json::F64(report::round4(o.service.mean()))),
            ("p50", Json::U64(o.service.p50())),
            ("p90", Json::U64(o.service.p90())),
            ("p99", Json::U64(o.service.p99())),
            ("max", Json::U64(o.service.max())),
            (
                "p99_exemplars",
                exemplar_ids(o.trace.service_exemplars.for_value(o.service.p99())),
            ),
            ("exemplars", o.trace.service_exemplars.to_json()),
        ]),
    );
    t.extra(
        "telemetry",
        Json::obj([
            ("mode", Json::Str(o.cfg.trace.name().into())),
            ("stats", o.trace.stats.to_json()),
            ("kept_trees", Json::U64(o.trace.kept().len() as u64)),
            ("publishes", Json::U64(o.trace.publishes().len() as u64)),
            ("acks", Json::U64(o.trace.acks().len() as u64)),
        ]),
    );
    t.extra("smp", o.counters.smp.to_json());
    t.extra("gate_calls", Json::U64(o.counters.gates.calls));
    t.extra("oracle_checks", Json::U64(o.counters.run.oracle_checks));
    t.extra("jit", o.counters.jit.to_json());
    t.extra("audit_denials", Json::U64(o.audit.len() as u64));
    let r = &o.recovery;
    t.extra(
        "recovery",
        Json::obj([
            (
                "quarantined",
                Json::Arr(r.quarantined.iter().map(|t| Json::U64(*t)).collect()),
            ),
            ("quarantines", Json::U64(r.quarantines)),
            ("retries", Json::U64(r.retries)),
            ("recoveries", Json::U64(r.recoveries)),
            ("sheds", Json::U64(r.sheds)),
            ("shed_digest", Json::Str(format!("{:#018x}", r.shed_digest))),
            (
                "decision_digest",
                Json::Str(format!("{:#018x}", r.decision_digest)),
            ),
            ("failures", Json::U64(r.failures.len() as u64)),
            (
                "failure_classes",
                Json::Arr(
                    r.failures
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("class", Json::Str(f.class.name().into())),
                                ("request", Json::U64(f.request)),
                                ("tenant", Json::U64(f.tenant)),
                                ("hart", Json::U64(f.hart)),
                                ("vclock", Json::U64(f.vclock)),
                                ("detail", Json::U64(f.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rejections", Json::U64(r.rejections.len() as u64)),
            ("checkpoints", Json::U64(r.checkpoints)),
            ("max_ckpt_gap", Json::U64(r.max_ckpt_gap)),
            (
                "spans",
                Json::Arr(
                    r.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("failed_progress", Json::U64(s.failed_progress)),
                                ("restored_progress", Json::U64(s.restored_progress)),
                                ("failed_vclock", Json::U64(s.failed_vclock)),
                                ("restored_vclock", Json::U64(s.restored_vclock)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("aborted", Json::U64(r.aborted)),
            ("stalls", Json::U64(r.stalls)),
        ]),
    );
    t.extra("timeline", o.timeline.to_json());
    t.extra("total_steps", Json::U64(o.total_steps));
    t.extra("host_secs", Json::F64(report::round4(o.host_secs)));
    t.extra(
        "host_mips",
        Json::F64(report::round4(
            o.total_steps as f64 / o.host_secs.max(1e-9) / 1e6,
        )),
    );
    t
}
