//! The `serve` workload: open-loop multi-tenant serving through
//! `isa_grid_bench::serve`, plus what the traced run adds for the
//! self-healing layer: outside timing of the snapshot layer
//! (`isa_replay`) on a machine shaped like a self-healing run's, and a
//! recovery pass under a low request-fault rate.
//!
//! An operation is one request. It fails if it is denied, shed,
//! aborted, or if the run's accounting or digest checks fail.

use std::collections::BTreeSet;
use std::time::Instant;

use isa_grid::{GridLayout, Pcu, PcuConfig};
use isa_grid_bench::serve::{self, ServeConfig, ServeHooks, ServeOutcome};
use isa_replay::wire::KIND_SERVE;
use isa_replay::{
    capture_session, decode_snapshot, decode_snapshot_payload, encode_snapshot, restore_session,
    state_digest, Dec, MachineSnapshot,
};
use isa_sim::{Bus, Machine, DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use isa_smp::Smp;
use simkernel::SmpSession;

use crate::rec::{median, Recorder};
use crate::PassOut;

/// Requests per serving pass (the `serve` binary's default).
pub const REQUESTS: u64 = 100_000;
/// Checkpoint cadence of the self-healing runs, in resolved requests.
pub const CHECKPOINT_EVERY: u64 = 5_000;
/// Request-fault rate of the recovery pass, in faults per million.
pub const FAULT_PPM: u64 = 50;

/// The `serve` binary's defaults: 32 tenants on 4 harts.
pub fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig::new(32, REQUESTS, 4, seed)
}

/// `serve` with self-healing on and periodic checkpoints, no faults
/// (the `serve` binary's `--self-heal --checkpoint-every 5000`).
fn heal_cfg(seed: u64) -> ServeConfig {
    let mut cfg = serve_cfg(seed);
    cfg.self_heal = true;
    cfg.checkpoint_every = CHECKPOINT_EVERY;
    cfg
}

/// One timed serving pass: program assembly, set-up, then the run.
///
/// The set-up time is that of a zero-request `serve::run`, which
/// assembles the guest, builds and boots the same machine, and serves
/// nothing. `reference` is the digest every pass of this seed must
/// reproduce.
pub fn pass(cfg: &ServeConfig, reference: Option<u64>, rec: &mut Recorder) -> PassOut {
    let mut out = PassOut::default();
    rec.call("asm.build", serve::guest_program);
    let mut empty = cfg.clone();
    empty.requests = 0;
    rec.call("serve.setup", || serve::run(&empty));
    let t0 = Instant::now();
    let o = rec.call("serve.run", || serve::run(cfg));
    let run_s = t0.elapsed().as_secs_f64();
    // The set-up probe and the run each build and boot the machine.
    out.boots = 2;
    check_outcome(cfg, &o, reference, &mut out);
    out.steps = o.total_steps;
    out.sim_cycles = o.vcycles;
    out.p50_vcycles = o.latency.p50();
    out.p99_vcycles = o.latency.p99();
    out.latency_samples = o.latency.count();
    let gate_insts = o.counters.gates.calls + o.counters.gates.returns;
    out.grid_overhead_pct =
        gate_insts as f64 / o.total_steps.saturating_sub(gate_insts).max(1) as f64 * 100.0;
    out.digest = o.digest;
    // `ServeOutcome::host_secs` restarts on every restore, so it is only
    // read when the run never restored.
    if o.counters.run.restores == 0 {
        out.step_s = o.host_secs;
        out.serve_host_s = run_s - o.host_secs;
    } else {
        out.fail("a fault-free serving run restored from a checkpoint".into());
    }
    out.counters = o.counters;
    out.layers = rec.take_totals();
    out.setup_s = out.layer("asm.build") + out.layer("serve.setup");
    out
}

/// The checks every serving pass must pass; each failure counts
/// against the pass's operations.
fn check_outcome(cfg: &ServeConfig, o: &ServeOutcome, reference: Option<u64>, out: &mut PassOut) {
    let r = &o.recovery;
    out.attempted += cfg.requests;
    // Requests the run refused are failed operations of their own.
    out.failed += o.denied + o.shed + r.aborted;
    if o.completed + o.denied + o.shed + r.aborted != cfg.requests {
        out.fail(format!(
            "lost requests: {} completed + {} denied + {} shed + {} aborted != {}",
            o.completed, o.denied, o.shed, r.aborted, cfg.requests
        ));
    }
    if let Some(d) = reference {
        if o.digest != d {
            out.fail(format!("digest {:#x} != reference {d:#x}", o.digest));
        }
    }
    // Per-tenant accounting against the host-side replay of the
    // generator.
    let mut planned = vec![0u64; cfg.tenants];
    for t in serve::tenant_plan(cfg) {
        planned[t as usize] += 1;
    }
    let served: Vec<u64> = o.per_tenant.iter().map(|t| t.requests).collect();
    if served != planned {
        out.fail("per-tenant request counts differ from the generator plan".into());
    }
    // Per-hart steps add up to the machine-wide fetch count, an
    // independent per-hart tally (each hart's bbcache counts one lookup
    // per fetched instruction; boot and halt differ by at most two).
    let fetches = o.counters.bbcache.decode.hits + o.counters.bbcache.decode.misses;
    if o.total_steps.abs_diff(fetches) > 2 * cfg.harts as u64 {
        out.fail(format!(
            "per-hart steps {} disagree with {fetches} fetches",
            o.total_steps
        ));
    }
    if !o.audit.is_empty() {
        out.fail(format!("{} PCU denials in a fault-free run", o.audit.len()));
    }
}

/// What the recovery pass found.
#[derive(Debug, Default)]
pub struct Recovery {
    pub restores: u64,
    pub quarantines: u64,
    pub retries: u64,
    pub failed_requests: u64,
    /// Wall time of the faulted run, and the stepping time it reports
    /// itself (wrong once it has restored; kept to show the defect).
    pub wall_s: f64,
    pub reported_host_s: f64,
    pub problems: Vec<String>,
}

/// Self-healing serve with faults, shaped like the chaos soak's (no
/// tenant-table rotation, so every planned fault stays observable), at
/// a low seeded request-fault rate. The quarantine set must equal the
/// host-side prediction from `tenant_plan` and the fault plan, and
/// healthy tenants must reproduce the fault-free digests.
pub fn recovery_pass(seed: u64) -> Recovery {
    let mut base = heal_cfg(seed);
    base.rotate_every = 0;
    base.flush_every = 16;
    let mut faulty = base.clone();
    faulty.request_fault_ppm = FAULT_PPM;
    let clean = serve::run(&base);
    let t0 = Instant::now();
    let o = serve::run(&faulty);
    let wall_s = t0.elapsed().as_secs_f64();
    let r = &o.recovery;
    let mut rec = Recovery {
        restores: o.counters.run.restores,
        quarantines: r.quarantines,
        retries: r.retries,
        failed_requests: o.denied + o.shed + r.aborted,
        wall_s,
        reported_host_s: o.host_secs,
        problems: Vec::new(),
    };
    let shed: BTreeSet<u64> = serve::shed_plan(&faulty).into_iter().collect();
    let tenants = serve::tenant_plan(&faulty);
    let predicted: Vec<u64> = isa_fault::ServeFaultPlan::new(seed, FAULT_PPM)
        .faulted_below(faulty.requests)
        .into_iter()
        .map(|(idx, _)| idx)
        .filter(|idx| !shed.contains(idx))
        .map(|idx| tenants[idx as usize])
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .collect();
    if r.quarantined != predicted {
        rec.problems.push(format!(
            "quarantine set {:?} != predicted {predicted:?}",
            r.quarantined
        ));
    }
    if o.completed + o.denied + o.shed + r.aborted != faulty.requests {
        rec.problems.push("recovery pass lost requests".into());
    }
    if r.stalls != 0 || r.aborted != 0 {
        rec.problems
            .push(format!("{} stalls, {} aborts", r.stalls, r.aborted));
    }
    for (t, (a, b)) in o.per_tenant.iter().zip(&clean.per_tenant).enumerate() {
        if !r.quarantined.contains(&(t as u64)) && a.digest != b.digest {
            rec.problems.push(format!(
                "healthy tenant {t} digest differs from the fault-free run"
            ));
        }
    }
    rec
}

/// Outside timing of the snapshot layer.
#[derive(Debug, Default)]
pub struct ReplayTiming {
    pub capture_ms: f64,
    pub restore_ms: f64,
    pub frame_kib: f64,
    pub rounds: usize,
    /// Checkpoints the self-healing run took (plus its one-shot
    /// snapshot).
    pub checkpoints: u64,
    /// The self-healing run's host seconds outside guest stepping
    /// (valid: it never restores).
    pub host_s: f64,
    pub problems: Vec<String>,
}

/// Time `capture_session` + `encode_snapshot` and `decode_snapshot` +
/// `restore_session` on a session holding a self-healing run's state.
///
/// A fault-free self-healing run with a checkpoint every 5,000 requests
/// is snapshotted halfway through (4 harts, 32 tenants, the serving
/// guest image). Its machine image is restored into a session rebuilt
/// from public parts with the same geometry, then captured and restored
/// `rounds` times; the last restore must reproduce the captured state
/// digest. Times are medians.
pub fn replay_timing(seed: u64, rounds: usize) -> ReplayTiming {
    let mut t = ReplayTiming {
        rounds,
        ..ReplayTiming::default()
    };
    let cfg = heal_cfg(seed);
    let hooks = ServeHooks {
        snapshot_at: cfg.requests / 2,
        ..ServeHooks::default()
    };
    let t0 = Instant::now();
    let run = serve::run_hooked(&cfg, &hooks);
    let wall = t0.elapsed().as_secs_f64();
    let o = &run.outcome;
    if o.counters.run.restores != 0 {
        t.problems
            .push("the fault-free self-healing run restored".into());
        return t;
    }
    t.checkpoints = o.recovery.checkpoints + 1;
    t.host_s = wall - o.host_secs;
    let snap = match run
        .snapshot
        .ok_or_else(|| "no snapshot taken".to_string())
        .and_then(|f| machine_of_serve_frame(&f))
    {
        Ok(s) => s,
        Err(e) => {
            t.problems.push(format!("self-healing snapshot: {e}"));
            return t;
        }
    };
    let want = state_digest(&snap);
    let mut sess = session_like(&cfg);
    if let Err(e) = restore_session(&mut sess, &snap) {
        t.problems
            .push(format!("restore into rebuilt session: {e}"));
        return t;
    }
    let mut capture = Vec::with_capacity(rounds);
    let mut restore = Vec::with_capacity(rounds);
    let mut frame = Vec::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        frame = encode_snapshot(&capture_session(&sess));
        capture.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let ok = decode_snapshot(&frame)
            .map_err(|e| e.to_string())
            .and_then(|s| restore_session(&mut sess, &s).map_err(|e| e.to_string()));
        restore.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = ok {
            t.problems.push(format!("decode+restore: {e}"));
            return t;
        }
    }
    let got = state_digest(&capture_session(&sess));
    if got != want {
        t.problems.push(format!(
            "state digest after {rounds} round trips {got:#x} != captured {want:#x}"
        ));
    }
    t.capture_ms = median(&capture);
    t.restore_ms = median(&restore);
    t.frame_kib = frame.len() as f64 / 1024.0;
    t
}

/// Pull the machine image out of a serve snapshot frame: a config
/// header (18 words and 2 flags) precedes it.
fn machine_of_serve_frame(frame: &[u8]) -> Result<MachineSnapshot, String> {
    let mut d = Dec::open(frame, KIND_SERVE).map_err(|e| e.to_string())?;
    let err = |e: isa_replay::WireError| e.to_string();
    for _ in 0..9 {
        d.u64().map_err(err)?;
    }
    d.bool().map_err(err)?;
    for _ in 0..3 {
        d.u64().map_err(err)?;
    }
    d.bool().map_err(err)?;
    for _ in 0..6 {
        d.u64().map_err(err)?;
    }
    decode_snapshot_payload(&mut d).map_err(err)
}

/// A session with the serving machine's geometry: the same RAM, hart
/// count, grid layout and trusted stacks as `serve`'s, before any
/// domain is installed (a restore overwrites all of it).
fn session_like(cfg: &ServeConfig) -> SmpSession {
    // Trusted memory of the serving harness (tables for 64 domains and
    // 256 gates plus per-hart trusted stacks).
    const TMEM: u64 = 0x8380_0000;
    const TMEM_SIZE: u64 = 1 << 21;
    const TSTACK_STRIDE: u64 = 0x8000;
    let bus = Bus::with_harts(DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE, cfg.harts);
    let mut m0 = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), bus.for_hart(0));
    let layout = GridLayout::new(TMEM, TMEM_SIZE).with_capacity(64, 256);
    m0.ext.install(&mut m0.bus, layout);
    let tsb = m0.ext.layout().tstack_base();
    m0.ext.set_trusted_stack(tsb, tsb + TSTACK_STRIDE);
    m0.set_bbcache(true);
    let mut machines = vec![m0];
    for h in 1..cfg.harts {
        let mut m = Machine::on_bus(machines[0].ext.mirror(), bus.for_hart(h));
        let base = tsb + h as u64 * TSTACK_STRIDE;
        m.ext.set_trusted_stack(base, base + TSTACK_STRIDE);
        m.set_bbcache(true);
        machines.push(m);
    }
    SmpSession::new(Smp::from_machines(machines), cfg.quantum)
}
