//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload lmbench --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` is the timed run: passes of the workload for `--seconds`,
//! reporting every end-to-end metric. `--trace 1` is the traced run:
//! spans around every layer call, toggle passes, and every per-layer
//! metric. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the full report
//! (spans, sample counts, problems) goes to `perfbench/out/`. See
//! `perfbench/README.md`.

mod expect;
mod guest;
mod rec;
mod serving;

use std::collections::BTreeMap;
use std::time::Instant;

use isa_obs::{Counters, Json};
use simkernel::Platform;

use guest::{Knobs, Suite};
use rec::{median, Recorder};

/// Timed passes a run makes even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
/// Snapshot round trips timed by the serve workload's traced run.
const REPLAY_ROUNDS: usize = 15;
/// Largest tolerated unattributed share of traced wall time.
const H2_TOLERANCE: f64 = 0.10;
/// Largest tolerated ratio of the checkpoint-capture estimate to the
/// time it must fit in. The two are timed minutes apart, and host speed
/// on a shared machine can halve in between, so only a larger excess
/// shows an inconsistency.
const CKPT_RATIO_LIMIT: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LmBench,
    Apps,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "lmbench" => Workload::LmBench,
            "apps" => Workload::Apps,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LmBench => "lmbench",
            Workload::Apps => "apps",
            Workload::Serve => "serve",
        }
    }

    /// Toggle passes: the existing public switches whose marginal host
    /// cost per guest instruction the traced run reports.
    fn toggles(self) -> Vec<(&'static str, Knobs)> {
        let jit_off = Knobs {
            jit: false,
            ..Knobs::BASE
        };
        if self == Workload::Serve {
            // The serving machine always runs with the bbcache and has
            // no timing model, so only the JIT can be switched.
            return vec![("jit", jit_off)];
        }
        vec![
            ("jit", jit_off),
            (
                "bbcache",
                Knobs {
                    bbcache: false,
                    ..jit_off
                },
            ),
            (
                "timing",
                Knobs {
                    platform: Platform::Functional,
                    ..Knobs::BASE
                },
            ),
        ]
    }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Host seconds for the whole pass, set-up included.
    pub wall_s: f64,
    /// Host seconds in set-up calls (program assembly, boot or serve set-up).
    pub setup_s: f64,
    /// Host seconds stepping guests.
    pub step_s: f64,
    /// serve only: `serve::run` wall time minus its stepping time.
    pub serve_host_s: f64,
    pub steps: u64,
    pub sim_cycles: u64,
    pub boots: u64,
    pub p50_vcycles: u64,
    pub p99_vcycles: u64,
    pub latency_samples: u64,
    pub grid_overhead_pct: f64,
    pub digest: u64,
    pub counters: Counters,
    /// Host seconds per layer call name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Every layer call of the pass in order: (name, host seconds).
    pub calls: Vec<(&'static str, f64)>,
}

impl PassOut {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    fn ns_per_inst(&self) -> f64 {
        self.step_s / self.steps.max(1) as f64 * 1e9
    }

    fn host_mips(&self) -> f64 {
        self.steps as f64 / self.wall_s / 1e6
    }

    /// The modeled results, which must repeat exactly on every pass.
    fn model(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.steps,
            self.sim_cycles,
            self.p50_vcycles,
            self.p99_vcycles,
            self.digest,
            self.grid_overhead_pct.to_bits(),
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or(format!("unknown workload {value:?} (lmbench|apps|serve)"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run one pass of `wl` as one span tree.
fn run_pass(
    wl: Workload,
    knobs: Knobs,
    seed: u64,
    reference: Option<u64>,
    rec: &mut Recorder,
) -> PassOut {
    rec.begin_pass(wl.name());
    let t0 = Instant::now();
    let mut out = match wl {
        Workload::LmBench => guest::pass(Suite::LmBench, knobs, rec),
        Workload::Apps => guest::pass(Suite::Apps, knobs, rec),
        Workload::Serve => {
            let mut cfg = serving::serve_cfg(seed);
            cfg.jit = knobs.jit;
            serving::pass(&cfg, reference, rec)
        }
    };
    out.wall_s = t0.elapsed().as_secs_f64();
    rec.end_pass();
    out.calls = rec.take_calls();
    out
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra detail for the report file.
    detail: Vec<(&'static str, Json)>,
}

impl Report {
    fn absorb(&mut self, p: &PassOut) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.problems.extend(p.problems.iter().cloned());
    }

    fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|&(name, v, unit)| {
                    let v = if v.is_finite() { v } else { 0.0 };
                    (
                        name.to_string(),
                        Json::obj([("value", Json::F64(v)), ("unit", Json::Str(unit.into()))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

/// A warm-up pass: lets caches fill and lazy set-up finish, and fixes
/// the digest every later pass of this seed must reproduce.
fn warm_up(args: &Args, rec: &mut Recorder, report: &mut Report) -> u64 {
    let warm = run_pass(args.workload, Knobs::BASE, args.seed, None, rec);
    report.absorb(&warm);
    rec.take_totals();
    warm.digest
}

/// Check that the modeled results of every pass equal the first's.
fn check_repeats(passes: &[PassOut], report: &mut Report) {
    if let Some(first) = passes.first() {
        for (i, p) in passes.iter().enumerate().skip(1) {
            if p.model() != first.model() {
                report.problem(format!(
                    "pass {i}: modeled results {:?} differ from pass 0 {:?}",
                    p.model(),
                    first.model()
                ));
            }
        }
    }
}

/// Host seconds of one pass with the host's interference taken out: the
/// sum over the pass's layer calls of each call's fastest time across
/// the passes, plus the fastest time a pass spent between calls.
/// Interference from other tenants of a shared host only ever adds time,
/// so the fastest repeat of a call is the steadiest estimate of its cost.
/// Every pass makes the same calls in the same order.
fn fastest_pass(passes: &[PassOut], report: &mut Report) -> f64 {
    let names = |p: &PassOut| p.calls.iter().map(|c| c.0).collect::<Vec<_>>();
    let first = &passes[0];
    let mut best: Vec<f64> = first.calls.iter().map(|c| c.1).collect();
    let mut between = f64::INFINITY;
    for (i, p) in passes.iter().enumerate() {
        if names(p) != names(first) {
            report.problem(format!("pass {i}: layer calls differ from pass 0"));
            continue;
        }
        for (b, c) in best.iter_mut().zip(&p.calls) {
            *b = b.min(c.1);
        }
        between = between.min(p.wall_s - p.calls.iter().map(|c| c.1).sum::<f64>());
    }
    best.iter().sum::<f64>() + between.max(0.0)
}

fn timed(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new(false);
    let reference = Some(warm_up(args, &mut rec, &mut report));
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(
            args.workload,
            Knobs::BASE,
            args.seed,
            reference,
            &mut rec,
        ));
    }
    for p in &passes {
        report.absorb(p);
    }
    check_repeats(&passes, &mut report);
    let col = |f: fn(&PassOut) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0];
    let wall_s = fastest_pass(&passes, &mut report);
    let host_mips = first.steps as f64 / wall_s / 1e6;
    let ceiling = rec::mips_ceiling();
    if host_mips >= ceiling {
        report.problem(format!(
            "host_mips {host_mips} above the physical ceiling {ceiling}"
        ));
    }
    report.metric("wall_s", wall_s, "s");
    report.metric("setup_s", col(|p| p.setup_s), "s");
    report.metric("host_mips", host_mips, "MIPS");
    report.metric("peak_rss_mb", rec::peak_rss_mb(), "MiB");
    report.metric("sim_cycles", first.sim_cycles as f64, "cycles");
    report.metric("grid_overhead_pct", first.grid_overhead_pct, "%");
    report.metric("p50_vcycles", first.p50_vcycles as f64, "cycles");
    report.metric("p99_vcycles", first.p99_vcycles as f64, "cycles");
    report.detail = vec![
        ("passes", Json::U64(passes.len() as u64)),
        ("latency_samples", Json::U64(first.latency_samples)),
        ("median_wall_s", Json::F64(col(|p| p.wall_s))),
        ("layer_calls_per_pass", Json::U64(first.calls.len() as u64)),
        ("steps_per_pass", Json::U64(first.steps)),
        (
            "wall_s_per_pass",
            Json::arr(passes.iter().map(|p| Json::F64(p.wall_s))),
        ),
        ("mips_ceiling", Json::F64(ceiling)),
    ];
    report
}

fn traced(args: &Args) -> Report {
    let wl = args.workload;
    let mut report = Report::default();
    let mut plain = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let reference = Some(warm_up(args, &mut plain, &mut report));
    let t0 = Instant::now();
    let budget = args.seconds;

    // Untraced and traced passes alternate, so host drift hits both.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < budget / 2.0 {
        untraced.push(run_pass(wl, Knobs::BASE, args.seed, reference, &mut plain));
        traced.push(run_pass(wl, Knobs::BASE, args.seed, reference, &mut rec));
    }

    // Toggle rounds: a base pass, then one pass per switch.
    let toggles = wl.toggles();
    let mut base_ns = Vec::new();
    let mut toggle_ns = vec![Vec::new(); toggles.len()];
    while base_ns.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let base = run_pass(wl, Knobs::BASE, args.seed, reference, &mut plain);
        base_ns.push(base.ns_per_inst());
        report.absorb(&base);
        for (i, &(_, knobs)) in toggles.iter().enumerate() {
            let p = run_pass(wl, knobs, args.seed, reference, &mut plain);
            toggle_ns[i].push(p.ns_per_inst());
            report.absorb(&p);
        }
    }
    plain.take_totals();

    for p in untraced.iter().chain(&traced) {
        report.absorb(p);
    }
    check_repeats(&traced, &mut report);
    let col =
        |ps: &[PassOut], f: fn(&PassOut) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    let first = &traced[0];
    let c = &first.counters;
    let steps = first.steps.max(1) as f64;
    // Marginal host ns per guest instruction of one switch: the median
    // of its toggle passes against another set (0 where a workload
    // cannot flip the switch).
    let base_ns = Some(median(&base_ns));
    let toggled = |name: &str| {
        let i = toggles.iter().position(|(n, _)| *n == name)?;
        Some(median(&toggle_ns[i]))
    };
    let marginal = |on: Option<f64>, off: Option<f64>| on.zip(off).map_or(0.0, |(a, b)| a - b);

    // serve: the self-healing layer. The snapshot layer is timed from
    // outside and the recovery policy runs under a low request-fault
    // rate; both are counts and times of their own, outside the shares.
    let (replay, recovery) = if wl == Workload::Serve {
        let replay = serving::replay_timing(args.seed, REPLAY_ROUNDS);
        let recovery = serving::recovery_pass(args.seed);
        for p in replay.problems.iter().chain(&recovery.problems) {
            report.problem(p.clone());
        }
        (replay, recovery)
    } else {
        Default::default()
    };
    // Cross-check: checkpoint capture times the checkpoints taken must
    // fit inside the self-healing run's non-stepping host time.
    let ckpt_ratio = if replay.host_s > 0.0 {
        replay.capture_ms / 1e3 * replay.checkpoints as f64 / replay.host_s
    } else {
        0.0
    };
    if ckpt_ratio > CKPT_RATIO_LIMIT {
        report.problem(format!(
            "checkpoint capture estimate is {ckpt_ratio:.2} of the self-healing run's non-stepping host time"
        ));
    }

    // Layer shares of traced wall time, from span self times. serve
    // splits `serve::run` into guest stepping (its own stepping clock,
    // valid because these passes never restore) and the host-side
    // serving work around it.
    let wall = rec.root_secs(wl.name());
    let selfs = rec.self_times();
    let self_of = |n: &str| selfs.get(n).copied().unwrap_or(0.0);
    let (boot_self, step_self, serve_host_self) = if wl == Workload::Serve {
        let step: f64 = traced.iter().map(|p| p.step_s).sum();
        (self_of("serve.setup"), step, self_of("serve.run") - step)
    } else {
        (self_of("kernel.boot"), self_of("session.drain"), 0.0)
    };
    let shares = [
        ("share.asm", self_of("asm.build")),
        ("share.kernel_boot", boot_self),
        ("share.session_step", step_self),
        ("share.serve_host", serve_host_self),
        ("share.harness", self_of(wl.name())),
    ];
    let attributed: f64 = shares[..4].iter().map(|s| s.1).sum::<f64>() / wall;
    if (attributed - 1.0).abs() > H2_TOLERANCE {
        report.problem(format!(
            "layer self times cover {:.1}% of traced wall, outside {:.0}% of it",
            attributed * 100.0,
            H2_TOLERANCE * 100.0
        ));
    }
    let serve_host = col(&traced, |p| p.serve_host_s);
    let host_mips = col(&traced, PassOut::host_mips);
    let ceiling = rec::mips_ceiling();
    if host_mips >= ceiling {
        report.problem(format!(
            "host_mips {host_mips} above the physical ceiling {ceiling}"
        ));
    }

    let bank = c.caches.total();
    let deopts: u64 = c.jit.deopt_by.iter().sum();
    let timing_cycles = c.timing.cycles.max(1) as f64;
    let m = &mut report;
    m.metric("asm.build_s", col(&traced, |p| p.layer("asm.build")), "s");
    m.metric(
        "kernel.boot_s",
        col(&traced, |p| p.setup_s - p.layer("asm.build")),
        "s",
    );
    m.metric("kernel.boots", first.boots as f64, "count");
    m.metric("session.step_s", col(&traced, |p| p.step_s), "s");
    m.metric(
        "session.ns_per_inst",
        col(&traced, PassOut::ns_per_inst),
        "ns/inst",
    );
    m.metric("jit.op_share", c.jit.ops as f64 / steps, "ratio");
    m.metric("jit.compiled", c.jit.compiled as f64, "count");
    m.metric("jit.flushes", c.jit.flushes as f64, "count");
    m.metric("jit.exits", deopts as f64, "count");
    let jit_marginal = marginal(toggled("jit"), base_ns);
    m.metric("jit.marginal_ns_per_inst", jit_marginal, "ns/inst");
    m.metric(
        "bbcache.decode_hit_rate",
        c.bbcache.decode.hit_rate(),
        "ratio",
    );
    m.metric("bbcache.dtlb_hit_rate", c.bbcache.dtlb.hit_rate(), "ratio");
    let conflicts = c.bbcache.decode.conflicts + c.bbcache.tlb.conflicts + c.bbcache.dtlb.conflicts;
    m.metric("bbcache.conflicts", conflicts as f64, "count");
    let bb_marginal = marginal(toggled("bbcache"), toggled("jit"));
    m.metric("bbcache.marginal_ns_per_inst", bb_marginal, "ns/inst");
    m.metric(
        "pcu.csr_checks_per_kinst",
        c.checks.csr as f64 / steps * 1e3,
        "1/kinst",
    );
    m.metric("pcu.cache_hit_rate", bank.hit_rate(), "ratio");
    m.metric(
        "gates.calls_per_kinst",
        c.gates.calls as f64 / steps * 1e3,
        "1/kinst",
    );
    m.metric("timing.cpi", c.timing.cycles as f64 / steps, "cycles/inst");
    m.metric(
        "timing.pcu_stall_share",
        c.timing.pcu_stall as f64 / timing_cycles,
        "ratio",
    );
    m.metric(
        "timing.gate_cycle_share",
        c.timing.gate_cycles as f64 / timing_cycles,
        "ratio",
    );
    let timing_marginal = marginal(base_ns, toggled("timing"));
    m.metric("timing.marginal_ns_per_inst", timing_marginal, "ns/inst");
    m.metric("smp.shootdowns", c.smp.shootdowns as f64, "count");
    m.metric("smp.flush_cycles", c.smp.flush_cycles as f64, "cycles");
    m.metric(
        "timing.shootdown_stall",
        c.timing.shootdown_stall as f64,
        "cycles",
    );
    m.metric("serve.host_s", serve_host, "s");
    m.metric("replay.checkpoints", replay.checkpoints as f64, "count");
    m.metric("replay.capture_ms", replay.capture_ms, "ms");
    m.metric("replay.frame_kib", replay.frame_kib, "KiB");
    m.metric("replay.restores", recovery.restores as f64, "count");
    m.metric("replay.restore_ms", replay.restore_ms, "ms");
    m.metric("replay.ckpt_host_ratio", ckpt_ratio, "ratio");
    m.metric("recovery.quarantines", recovery.quarantines as f64, "count");
    m.metric("recovery.retries", recovery.retries as f64, "count");
    let refused = recovery.failed_requests as f64 / serving::REQUESTS as f64;
    m.metric("recovery.fail_ratio", refused, "ratio");
    let untraced_wall = col(&untraced, |p| p.wall_s);
    let traced_wall = col(&traced, |p| p.wall_s);
    m.metric(
        "obs.trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
        "%",
    );
    for (name, secs) in shares {
        m.metric(name, secs / wall, "ratio");
    }
    m.metric("h2.attributed_share", attributed, "ratio");
    let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    m.metric("fail_ratio", fail_ratio, "ratio");
    report.detail = vec![
        ("traced_passes", Json::U64(traced.len() as u64)),
        ("untraced_passes", Json::U64(untraced.len() as u64)),
        (
            "toggle_rounds",
            Json::U64(toggle_ns.first().map_or(0, |v| v.len()) as u64),
        ),
        ("replay_rounds", Json::U64(replay.rounds as u64)),
        ("recovery_wall_s", Json::F64(recovery.wall_s)),
        (
            "recovery_reported_host_s",
            Json::F64(recovery.reported_host_s),
        ),
        ("traced_wall_s", Json::F64(wall)),
        ("spans", rec.spans_json()),
    ];
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload lmbench|apps|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    for p in &report.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    for (name, v, unit) in &report.metrics {
        eprintln!("{name:>28} {v:>16.6} {unit}");
    }
    write_report(&args, &report);
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Write the full report next to the benchmark, for the reader who
/// wants the spans, sample counts and problems behind the result line.
fn write_report(args: &Args, report: &Report) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    let mut fields = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        (
            "problems",
            Json::arr(report.problems.iter().map(|p| Json::Str(p.clone()))),
        ),
    ];
    fields.extend(report.detail.iter().cloned());
    let body = Json::obj(fields).to_string();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
