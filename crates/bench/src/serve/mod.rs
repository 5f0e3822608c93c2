//! Open-loop multi-tenant serving harness built on the session-driver
//! API ([`simkernel::SmpSession`]).
//!
//! The harness models a request-serving appliance: every *tenant* gets
//! its own ISA domain, and thousands of client sessions issue requests
//! drawn from three app models (sqlite-ish, mbedtls-ish, gzip-ish —
//! register-only compute loops with distinct op mixes). A
//! seed-deterministic xorshift generator produces Poisson-ish arrivals
//! on the session's virtual clock; the host injects each request into
//! an idle hart's mailbox, the guest dispatcher gate-crosses into the
//! tenant's domain (`hccall`), runs the app body, optionally performs
//! a syscall microflow into a shared service domain
//! (`hccalls`/`hcrets` over the per-hart trusted stack), and
//! gate-returns with a digest and a `rdcycle` delta.
//!
//! ## Determinism contract
//!
//! With a fixed ([`ServeConfig::seed`], config) the interleaving is a
//! pure function of the virtual clock: harts are stepped in ascending
//! order one quantum per round, and the host only touches guest
//! memory at round boundaries. Two runs with the same seed therefore
//! produce bit-identical completion digests. The digest folds each
//! request's `(index, tenant, kind, status, guest digest)` with
//! FNV-1a and XOR-combines across requests — cycle counts are
//! deliberately excluded, so the digest is *also* stable across hart
//! counts (completion order changes; the set of completions does
//! not).
//!
//! ## Isolation
//!
//! A request may be flagged as a *probe*: its body touches a
//! privileged CSR (`satp`) the tenant's domain does not grant. The
//! PCU denies it, the M-mode trap handler marks the mailbox denied,
//! and the denial lands in the PCU audit log — the request never
//! completes. `tests/serve.rs` pins this down.
//!
//! ## Self-healing ([`ServeConfig::self_heal`])
//!
//! The harness can run crash-only: periodic checkpoints go into a
//! bounded [`isa_replay::CheckpointRing`], per-request failures are
//! classified into a [`ServeError`] (per-request watchdog, cause-28
//! integrity fault, shootdown-deadline expiry, oracle divergence), and
//! the policy reacts deterministically — quarantine the offending
//! tenant's ISA domain to deny-all, restore the machine from the last
//! good checkpoint and retry the rewound in-flight requests with
//! bounded backoff, and (independently) shed admission with a
//! deterministic deadline-budget rule so the tail latency of admitted
//! requests stays bounded while sheds are counted, not hidden. The
//! chaos bench (`crates/bench/src/chaos.rs`) drives this layer under
//! seeded fault plans and asserts the recovery contract; see
//! DESIGN.md, "Degradation and recovery contract". The policy's rules
//! are a pure state machine (`policy.rs`); the drive loop here carries
//! out the actions it returns.

use std::collections::VecDeque;
use std::fmt;

use isa_fault::ServeFaultKind;
use isa_grid::DomainId;
use isa_obs::{AuditRecord, Counters, Histogram, Obs, RunProfile, TimeSeries, TraceEvent};
pub use isa_obs::{TraceCollector, TraceMode, TracePolicy, TraceReport};
use isa_replay::wire::KIND_SERVE;
use isa_replay::{
    capture_session, decode_snapshot_payload, encode_snapshot_payload, restore_session,
    state_digest, Dec, Divergence, Enc, EventLog, HostEvent, MachineSnapshot, RestoreError,
    SpecSmp, WireError,
};
use isa_sim::{Bus, Extension};
use simkernel::SmpSession;

mod generator;
mod guest;
mod policy;
mod report;

use generator::{decode_opt, encode_opt, record_digest, Generator, Request};
pub use generator::{shed_plan, tenant_plan, AppKind};
pub use guest::guest_program;
use guest::{base_spec, boot, build_smp, deny_all, entry_gate, mb};
use guest::{MB_CYCLES, MB_DIGEST, MB_DOORBELL, MB_GATE, MB_ITERS, MB_MCAUSE, WEDGE_ITERS};
use policy::{Action, Policy, Shedder, STATUS_ABORTED, STATUS_REJECTED, STATUS_SHED};
pub use policy::{FailureClass, RecoveryReport, RecoverySpan, ServeError};
pub use report::{config, flags, render};

/// Serving-harness configuration. `Default`-like constructor:
/// [`ServeConfig::new`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tenant count; each tenant is one ISA domain (1..=56).
    pub tenants: usize,
    /// Total requests the generator produces.
    pub requests: u64,
    /// Harts serving requests (1..=32).
    pub harts: usize,
    /// Workload seed: same seed, same config → bit-identical digest.
    pub seed: u64,
    /// Steps per hart per scheduling round (the session quantum).
    pub quantum: u64,
    /// Mean inter-arrival gap in virtual cycles (open-loop arrivals:
    /// uniform in `[1, 2*mean_gap]`, so the mean is `mean_gap + 0.5`).
    pub mean_gap: u64,
    /// Guest dispatcher runs `pflh` after every N completions on a
    /// hart (0 = never) — keeps the privilege caches honest under
    /// load.
    pub flush_every: u64,
    /// Host (domain-0 software) rewrites a tenant's privilege tables
    /// after every N completions (0 = never), publishing a cross-hart
    /// shootdown each time — the source of steady-state shootdown
    /// traffic in the report.
    pub rotate_every: u64,
    /// Every Nth request is a [`AppKind::Probe`] (0 = never).
    pub probe_every: u64,
    /// Capture per-hart cycle-attribution profiles.
    pub profile: bool,
    /// Run the superblock JIT on every hart (default true; the `serve`
    /// binary's `--no-jit` clears it). Digests and virtual-time results
    /// are bit-identical either way.
    pub jit: bool,
    /// Request-scoped tracing mode. Tracing is observe-only: digests,
    /// figure rows, and machine counters are bit-identical off,
    /// sampled, or full.
    pub trace: TraceMode,
    /// Tail-sampling: keep a seeded 1-in-N survey of all request trees
    /// (0 = none). The survey set depends only on `(seed, id)`, so it
    /// is identical across hart counts.
    pub trace_survey: u64,
    /// Tail-sampling: keep every tree whose end-to-end latency is at
    /// least this many virtual cycles (0 = no slow gate).
    pub trace_slow: u64,
    /// Self-healing: classify per-request failures into a
    /// [`ServeError`], quarantine the offending tenant's domain to
    /// deny-all, and restore/retry from the checkpoint ring. Off by
    /// default; a fault-free run is bit-identical either way.
    pub self_heal: bool,
    /// Request-targeted chaos rate in faults per million requests
    /// (0 = none), assigned purely by `(seed, request index)` via
    /// [`isa_fault::ServeFaultPlan`]. Only honored when
    /// [`ServeConfig::self_heal`] is on — injecting without the healing
    /// layer would just wedge the run.
    pub request_fault_ppm: u64,
    /// Machine-level fault rate: per-hart [`isa_fault::FaultPlan`]s
    /// attached after boot, firing on PCU commit indices (0 = none).
    /// Plans ride in snapshots, so restores replay them faithfully.
    pub machine_fault_ppm: u64,
    /// Capture a checkpoint into the bounded recovery ring every N
    /// resolved requests (0 = never).
    pub checkpoint_every: u64,
    /// Deterministic admission shedding: drop an arrival whose
    /// estimated queue-plus-service time exceeds this many virtual
    /// cycles (0 = off). The decision is a pure function of the
    /// request stream — independent of faults and hart count.
    pub shed_deadline: u64,
    /// Per-request watchdog budget in scheduling rounds before an
    /// unfinished request is classified as wedged (0 = default 2048).
    /// Only read when [`ServeConfig::self_heal`] is on.
    pub watchdog_rounds: u64,
    /// Override for [`isa_grid::PcuConfig::shootdown_deadline_polls`]
    /// on every hart (0 = keep the profile default).
    pub shootdown_deadline: u64,
}

impl ServeConfig {
    /// The defaults the `serve` binary exposes.
    pub fn new(tenants: usize, requests: u64, harts: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            tenants: tenants.clamp(1, 56),
            requests,
            harts: harts.clamp(1, 32),
            seed,
            quantum: 256,
            mean_gap: 128,
            flush_every: 64,
            rotate_every: 1024,
            probe_every: 0,
            profile: false,
            jit: true,
            trace: TraceMode::Off,
            trace_survey: 0,
            trace_slow: 0,
            self_heal: false,
            request_fault_ppm: 0,
            machine_fault_ppm: 0,
            checkpoint_every: 0,
            shed_deadline: 0,
            watchdog_rounds: 0,
            shootdown_deadline: 0,
        }
    }

    /// The tail-sampling policy this config implies. The survey seed
    /// reuses the workload seed (decorrelated inside the policy by a
    /// splitmix round), so one `--seed` pins both the workload and the
    /// sampled set.
    pub fn trace_policy(&self) -> TracePolicy {
        TracePolicy {
            mode: self.trace,
            slow: self.trace_slow,
            survey: self.trace_survey,
            seed: self.seed,
            ..TracePolicy::default()
        }
    }

    /// Write the config header of a serve frame. `jit` is a host-side
    /// accelerator, not part of the deterministic recipe (digests are
    /// identical either way), so it is not written.
    fn encode(&self, e: &mut Enc) {
        for v in [
            self.tenants as u64,
            self.requests,
            self.harts as u64,
            self.seed,
            self.quantum,
            self.mean_gap,
            self.flush_every,
            self.rotate_every,
            self.probe_every,
        ] {
            e.u64(v);
        }
        e.bool(self.profile);
        for v in [self.trace.index(), self.trace_survey, self.trace_slow] {
            e.u64(v);
        }
        e.bool(self.self_heal);
        for v in [
            self.request_fault_ppm,
            self.machine_fault_ppm,
            self.checkpoint_every,
            self.shed_deadline,
            self.watchdog_rounds,
            self.shootdown_deadline,
        ] {
            e.u64(v);
        }
    }

    /// Read the header [`ServeConfig::encode`] wrote, with the JIT
    /// set to `jit`.
    fn decode(d: &mut Dec<'_>, jit: bool) -> Result<ServeConfig, WireError> {
        // Fields are read in the order written.
        let cfg = ServeConfig {
            tenants: d.u64()? as usize,
            requests: d.u64()?,
            harts: d.u64()? as usize,
            seed: d.u64()?,
            quantum: d.u64()?,
            mean_gap: d.u64()?,
            flush_every: d.u64()?,
            rotate_every: d.u64()?,
            probe_every: d.u64()?,
            profile: d.bool()?,
            trace: TraceMode::from_index(d.u64()?).ok_or(WireError::Malformed("trace mode"))?,
            trace_survey: d.u64()?,
            trace_slow: d.u64()?,
            self_heal: d.bool()?,
            request_fault_ppm: d.u64()?,
            machine_fault_ppm: d.u64()?,
            checkpoint_every: d.u64()?,
            shed_deadline: d.u64()?,
            watchdog_rounds: d.u64()?,
            shootdown_deadline: d.u64()?,
            jit,
        };
        if !(1..=56).contains(&cfg.tenants) || !(1..=32).contains(&cfg.harts) || cfg.quantum == 0 {
            return Err(WireError::Malformed("serve config"));
        }
        Ok(cfg)
    }
}

/// Per-tenant serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    /// Requests finished (completed or denied).
    pub requests: u64,
    /// Requests denied by the PCU (probes).
    pub denied: u64,
    /// Guest cycles attributed to the tenant's completed requests
    /// (dispatcher `rdcycle` brackets around the gate round-trip).
    pub guest_cycles: u64,
    /// Per-tenant completion digest: the same XOR/FNV-1a records the
    /// run digest folds, restricted to this tenant. The chaos oracle's
    /// blast-radius check — a tenant untouched by faults must produce
    /// a digest bit-identical to the fault-free run's.
    pub digest: u64,
}

/// Everything one serving run produces.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The configuration that was run.
    pub cfg: ServeConfig,
    /// Requests that completed normally.
    pub completed: u64,
    /// Requests denied — by the PCU (probes, quarantined domains) or
    /// host-rejected at admission because their tenant was
    /// quarantined.
    pub denied: u64,
    /// Arrivals dropped by the deterministic admission shedder.
    pub shed: u64,
    /// XOR/FNV-1a completion digest (seed-deterministic, hart-count
    /// independent).
    pub digest: u64,
    /// Final virtual clock (rounds × quantum).
    pub vcycles: u64,
    /// Scheduling rounds driven.
    pub rounds: u64,
    /// Request latency (arrival → harvest) in virtual cycles.
    pub latency: Histogram,
    /// Guest-measured service cycles (`rdcycle` bracket around the
    /// gate round-trip) of completed requests. Excludes queueing, so —
    /// unlike `latency` — it is hart-count independent.
    pub service: Histogram,
    /// Kept request span trees, exemplars, and telemetry
    /// self-accounting ([`ServeConfig::trace`]; empty when off).
    pub trace: TraceCollector,
    /// Completions over virtual time.
    pub timeline: TimeSeries,
    /// Per-tenant attribution, indexed by tenant.
    pub per_tenant: Vec<TenantStats>,
    /// Merged machine counters (every hart + the `smp.*` block).
    pub counters: Counters,
    /// The PCU audit log, drained from every hart.
    pub audit: Vec<AuditRecord>,
    /// Total guest instructions executed across harts.
    pub total_steps: u64,
    /// Host wall-clock seconds spent stepping harts.
    pub host_secs: f64,
    /// Per-hart profiles when [`ServeConfig::profile`] was on.
    pub profiles: Vec<RunProfile>,
    /// The self-healing layer's ledger (empty unless
    /// [`ServeConfig::self_heal`] or the shedder ran).
    pub recovery: RecoveryReport,
}

/// Host-side hooks into the serving loop: snapshotting, the
/// differential oracle, and host-event recording. All default to off —
/// [`run`] with default hooks is bit-identical to a hookless run.
#[derive(Debug, Clone, Default)]
pub struct ServeHooks {
    /// Capture one whole-run snapshot once this many requests have
    /// finished (0 = never). Taken at a round boundary, so a resumed
    /// run continues bit-identically.
    pub snapshot_at: u64,
    /// Fork the differential oracle and verify one full scheduling
    /// round every N finished requests (0 = never). The run stops at
    /// the first divergence.
    pub oracle_every: u64,
    /// Record host-owned nondeterminism (round masks, mailbox writes,
    /// rotations) into an [`EventLog`].
    pub record: bool,
}

/// What a hooked run returns on top of its [`ServeOutcome`].
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The run's outcome (partial if a divergence stopped it).
    pub outcome: ServeOutcome,
    /// Encoded serve snapshot, when [`ServeHooks::snapshot_at`] fired.
    pub snapshot: Option<Vec<u8>>,
    /// Recorded host events, when [`ServeHooks::record`] was on.
    pub log: EventLog,
    /// Oracle rounds verified.
    pub oracle_checks: u64,
    /// First divergence the oracle found, if any (the run stopped
    /// there).
    pub divergence: Option<Divergence>,
}

/// Why a serve snapshot could not be resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The frame failed to parse (magic, version, digest, layout).
    Wire(WireError),
    /// The decoded machine image did not fit the rebuilt machine.
    Restore(RestoreError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Wire(e) => write!(f, "serve snapshot: {e}"),
            ResumeError::Restore(e) => write!(f, "serve snapshot: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<WireError> for ResumeError {
    fn from(e: WireError) -> ResumeError {
        ResumeError::Wire(e)
    }
}

impl From<RestoreError> for ResumeError {
    fn from(e: RestoreError) -> ResumeError {
        ResumeError::Restore(e)
    }
}

/// Host-tooling tallies folded into `counters.run` at finish. They
/// keep counting across internal restores.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    snapshots: u64,
    restores: u64,
    oracle_checks: u64,
    divergences: u64,
}

/// The whole serving run as a value: machine session plus every word
/// of host state the continuation depends on. [`ServeState::snapshot_bytes`]
/// serializes all of it but the policy and the tallies; resuming from
/// those bytes and driving to completion is bit-identical to the
/// unbroken run.
struct ServeState {
    cfg: ServeConfig,
    tenant_doms: Vec<DomainId>,
    sess: SmpSession,
    bus: Bus,
    gen: Generator,
    next_arrival: Option<Request>,
    pending: VecDeque<Request>,
    inflight: Vec<Option<Request>>,
    per_tenant: Vec<TenantStats>,
    latency: Histogram,
    service: Histogram,
    timeline: TimeSeries,
    completed: u64,
    denied: u64,
    digest: u64,
    rotate_cursor: usize,
    next_rotate: u64,
    last_progress: u64,
    shed: Shedder,
    /// The recovery policy; host-side, it survives internal restores
    /// whole.
    policy: Policy,
    tally: Tally,
    /// Per-hart observability handles with the request buffer on
    /// (empty when tracing is off). The driver tags each with the
    /// in-flight request and drains it after every round.
    tracers: Vec<Obs>,
    /// Assembles drained events into span trees and tail-samples them.
    collector: TraceCollector,
}

impl ServeState {
    fn new(cfg: &ServeConfig) -> ServeState {
        ServeState::build(cfg.clone(), None).expect("a fresh build restores nothing")
    }

    /// The one constructor: build the machine for `cfg` and boot it to
    /// the first round boundary of the main loop,
    /// or restore `snap` into it (the restored RAM already has every
    /// dispatcher mid-spin, so boot is skipped). Host state starts
    /// empty; [`ServeState::resume`] overwrites it from the frame.
    fn build(cfg: ServeConfig, snap: Option<&MachineSnapshot>) -> Result<ServeState, RestoreError> {
        assert!(
            (1..=56).contains(&cfg.tenants) && (1..=32).contains(&cfg.harts),
            "serve: tenants 1..=56, harts 1..=32"
        );
        let prog = guest_program();
        let (smp, tenant_doms) = build_smp(&cfg, &prog);
        let bus = smp.bus().clone();
        let mut sess = SmpSession::new(smp, cfg.quantum);
        match snap {
            Some(snap) => restore_session(&mut sess, snap)?,
            None => boot(&mut sess, &cfg),
        }
        // Tracers go in after boot: boot has no requests to attribute
        // (and no rotations, so no acks are lost either).
        let tracers = if cfg.trace != TraceMode::Off {
            sess.install_req_tracers()
        } else {
            Vec::new()
        };
        let mut gen = Generator::new(&cfg);
        let next_arrival = gen.next();
        Ok(ServeState {
            tenant_doms,
            sess,
            bus,
            gen,
            next_arrival,
            pending: VecDeque::new(),
            inflight: vec![None; cfg.harts],
            per_tenant: vec![TenantStats::default(); cfg.tenants],
            latency: Histogram::new(),
            service: Histogram::new(),
            timeline: TimeSeries::new(cfg.quantum.max(1) * 64, 256),
            completed: 0,
            denied: 0,
            digest: 0,
            rotate_cursor: 0,
            next_rotate: if cfg.rotate_every > 0 {
                cfg.rotate_every
            } else {
                u64::MAX
            },
            last_progress: 0,
            shed: Shedder::default(),
            policy: Policy::new(&cfg),
            tally: Tally {
                restores: snap.is_some() as u64,
                ..Tally::default()
            },
            tracers,
            collector: TraceCollector::new(cfg.trace_policy()),
            cfg,
        })
    }

    /// Serialize the whole run (config, machine, host state) as a
    /// framed, digested byte image.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.cfg.encode(&mut e);
        encode_snapshot_payload(&capture_session(&self.sess), &mut e);
        e.u64(self.gen.rng.0);
        e.u64(self.gen.next_idx);
        e.u64(self.gen.clock);
        encode_opt(&mut e, self.next_arrival);
        e.u64(self.pending.len() as u64);
        for r in &self.pending {
            r.encode(&mut e);
        }
        for slot in &self.inflight {
            encode_opt(&mut e, *slot);
        }
        for t in &self.per_tenant {
            for v in [t.requests, t.denied, t.guest_cycles, t.digest] {
                e.u64(v);
            }
        }
        e.words(&self.latency.export_words());
        let (interval, slices) = self.timeline.export_state();
        e.u64(interval);
        e.words(&slices);
        for v in [
            self.completed,
            self.denied,
            self.digest,
            self.rotate_cursor as u64,
            self.next_rotate,
            self.last_progress,
            self.shed.free,
            self.shed.count,
            self.shed.digest,
        ] {
            e.u64(v);
        }
        // Trace state rides at the tail. Snapshots fire at round
        // boundaries, right after the per-round drain, so the hart
        // tracers' buffers are empty — only the collector (open trees,
        // kept trees, exemplars, flow endpoints) needs to travel.
        e.words(&self.service.export_words());
        e.words(&self.collector.export_words());
        e.seal(KIND_SERVE)
    }

    /// Rebuild a run from a snapshot image with the JIT set to `jit`
    /// (not part of the frame): re-run the deterministic machine
    /// recipe, then overwrite all mutable state.
    fn resume(frame: &[u8], jit: bool) -> Result<ServeState, ResumeError> {
        let mut d = Dec::open(frame, KIND_SERVE)?;
        let cfg = ServeConfig::decode(&mut d, jit)?;
        let snap = decode_snapshot_payload(&mut d)?;
        let mut st = ServeState::build(cfg, Some(&snap))?;
        st.gen.rng.0 = d.u64()?;
        st.gen.next_idx = d.u64()?;
        st.gen.clock = d.u64()?;
        st.next_arrival = decode_opt(&mut d)?;
        let n = d.u64()?;
        if n > st.cfg.requests {
            return Err(WireError::Malformed("pending queue length").into());
        }
        for _ in 0..n {
            st.pending.push_back(Request::decode(&mut d)?);
        }
        for slot in &mut st.inflight {
            *slot = decode_opt(&mut d)?;
        }
        for t in &mut st.per_tenant {
            *t = TenantStats {
                requests: d.u64()?,
                denied: d.u64()?,
                guest_cycles: d.u64()?,
                digest: d.u64()?,
            };
        }
        st.latency.import_words(&d.words()?);
        let interval = d.u64()?;
        st.timeline.import_state(interval, &d.words()?);
        st.completed = d.u64()?;
        st.denied = d.u64()?;
        st.digest = d.u64()?;
        st.rotate_cursor = d.u64()? as usize;
        st.next_rotate = d.u64()?;
        st.last_progress = d.u64()?;
        st.shed = Shedder {
            free: d.u64()?,
            count: d.u64()?,
            digest: d.u64()?,
        };
        st.service.import_words(&d.words()?);
        st.collector.import_words(&d.words()?);
        d.finish()?;

        // Re-tag each hart tracer with the request its hart was
        // serving at the snapshot (tag state is host-side, not in the
        // machine image).
        for (tr, slot) in st.tracers.iter().zip(&st.inflight) {
            if let Some(req) = slot {
                tr.set_current(req.trace_id());
            }
        }
        let at = st.sess.vclock();
        st.sess.smp().machine(0).obs.emit(|| TraceEvent::Restore {
            at,
            digest: state_digest(&snap),
        });
        // Watchdog windows and the checkpoint cadence restart at the
        // restored round boundary; the policy is host-side and starts
        // fresh (internal restores swap the live one back in).
        let (progress, rounds) = (st.progress(), st.sess.rounds());
        st.policy.rearm(progress, &st.inflight, rounds);
        Ok(st)
    }

    /// Drive the serving loop until every request finished or the
    /// oracle found a divergence, then assemble the hooked result.
    ///
    /// The host loop is: admit generator arrivals whose virtual
    /// arrival time has passed, harvest finished mailboxes (doorbell
    /// 2/3), inject queued requests into idle harts, then advance one
    /// scheduling round stepping only harts with a raised doorbell
    /// (idle harts' spin loops are pure, so skipping them preserves
    /// architectural state — see the session-driver contract in
    /// DESIGN.md). The recovery [`Policy`] sees every event and
    /// decides; this loop carries out its actions.
    fn drive(mut self, hooks: &ServeHooks) -> ServeRun {
        let (mut snapshot, mut divergence) = (None, None);
        let mut events = EventLog::default();
        let mut log = hooks.record.then_some(&mut events);
        let mut next_oracle = if hooks.oracle_every > 0 {
            hooks.oracle_every
        } else {
            u64::MAX
        };
        'serve: while self.progress() < self.cfg.requests {
            if hooks.snapshot_at > 0
                && snapshot.is_none()
                && self.completed + self.denied >= hooks.snapshot_at
            {
                snapshot = Some(self.snapshot_bytes());
                self.tally.snapshots += 1;
                let at = self.sess.vclock();
                let snap = capture_session(&self.sess);
                self.sess
                    .smp()
                    .machine(0)
                    .obs
                    .emit(|| TraceEvent::Snapshot {
                        at,
                        digest: state_digest(&snap),
                    });
            }
            // Periodic checkpoint into the bounded recovery ring (round
            // boundary, tracers drained — same point the one-shot
            // snapshot hook uses).
            if self.policy.checkpoint_due(self.progress()) {
                self.take_checkpoint();
            }
            let now = self.sess.vclock();
            // Admit everything that has arrived by virtual-now.
            while let Some(r) = self.next_arrival.filter(|r| r.arrival <= now) {
                self.next_arrival = self.gen.next();
                match self.policy.admit(&mut self.shed, &r) {
                    Some(status) => self.resolve_host(&r, status),
                    None => self.pending.push_back(r),
                }
            }
            // Harvest, then refill idle harts.
            for h in 0..self.cfg.harts {
                let db = self.bus.read_u64(mb(h, MB_DOORBELL));
                if db == 2 || db == 3 {
                    let Some(req) = self.inflight[h].take() else {
                        // Only the stall fallback orphans a completion
                        // (it resolves in-flight slots without parking
                        // the guest); recycle the hart.
                        assert!(
                            self.policy.ledger.stalls > 0,
                            "completion without a request"
                        );
                        self.bus.write_u64(mb(h, MB_DOORBELL), 0);
                        continue;
                    };
                    self.harvest(h, req, db, now, log.as_deref_mut());
                }
                if self.bus.read_u64(mb(h, MB_DOORBELL)) == 0 {
                    self.dispatch(h, now, log.as_deref_mut());
                }
            }
            // Cause-28 denials are classified after the sweep.
            while let Some(Action::Quarantine { tenant, .. }) = self.policy.next_deferred() {
                self.quarantine(tenant);
            }
            // Domain-0 software rotates a tenant's tables now and then —
            // every rewrite publishes a shootdown all harts must honor.
            if self.completed + self.denied >= self.next_rotate {
                self.next_rotate += self.cfg.rotate_every;
                let dom = self.tenant_doms[self.rotate_cursor % self.tenant_doms.len()];
                self.rotate_cursor += 1;
                let m0 = self.sess.smp_mut().machine_mut(0);
                m0.ext.update_domain(&mut m0.bus, dom, &base_spec());
                let epoch = m0.ext.coherence_epoch();
                self.collector.note_publish(epoch, now);
                if let Some(log) = log.as_deref_mut() {
                    log.push(HostEvent::Rotate { domain: dom.0 });
                }
            }
            // The runnable mask is computed once and drives the fast
            // round, the oracle replay and the record log identically.
            // (Only hart h's guest and the host — both quiescent here —
            // write mailbox h, so reading it per-hart mid-round would
            // see the same values.)
            let mut mask = 0u64;
            for h in 0..self.cfg.harts {
                if self.bus.read_u64(mb(h, MB_DOORBELL)) == 1 {
                    mask |= 1 << h;
                }
            }
            if let Some(log) = log.as_deref_mut() {
                log.push(HostEvent::Round { mask });
            }
            let oracle = if self.completed + self.denied >= next_oracle {
                next_oracle += hooks.oracle_every;
                Some(SpecSmp::fork(self.sess.smp()))
            } else {
                None
            };
            // Hart-cycle bases at the round boundary: a hart-local
            // event timestamp translates to global virtual time as
            // `round-start vclock + (event cycle - base)` — the offset
            // is the modeled time the hart spent inside the round.
            let cycle_base: Vec<u64> = if self.tracers.is_empty() {
                Vec::new()
            } else {
                (0..self.cfg.harts)
                    .map(|h| self.sess.hart_cycles(h))
                    .collect()
            };
            self.sess.round(|h| mask >> h & 1 == 1);
            self.drain_tracers(now, &cycle_base);
            if let Some(mut spec) = oracle {
                spec.replay_round(mask, self.cfg.quantum);
                self.tally.oracle_checks += 1;
                if let Some(d) = spec
                    .compare(self.sess.smp())
                    .or_else(|| spec.compare_memory(self.sess.smp()))
                {
                    self.tally.divergences += 1;
                    self.sess
                        .smp()
                        .machine(0)
                        .obs
                        .emit(|| TraceEvent::Divergence {
                            pc: d.pc,
                            step: d.step,
                            what: "oracle",
                        });
                    if self.policy.on_divergence(d.step, self.sess.vclock()) == Action::Restore {
                        self.restore_latest();
                        continue;
                    }
                    divergence = Some(d);
                    break 'serve;
                }
            }
            let bus = &self.bus;
            let action = self.policy.on_round_end(
                self.sess.rounds(),
                &self.inflight,
                |h| bus.read_u64(mb(h, MB_DOORBELL)) == 1,
                self.last_progress,
                self.sess.vclock(),
            );
            match action {
                Some(Action::Quarantine { tenant, restore }) => {
                    self.quarantine(tenant);
                    if restore {
                        self.restore_latest();
                    }
                }
                Some(Action::AbortAll) => self.abort_stalled(),
                _ => {}
            }
        }
        ServeRun {
            oracle_checks: self.tally.oracle_checks,
            outcome: self.finish(),
            snapshot,
            log: events,
            divergence,
        }
    }

    /// Requests resolved so far, by any road: completed, denied
    /// (PCU or host-rejection), shed, or stall-aborted.
    fn progress(&self) -> u64 {
        self.completed + self.denied + self.shed.count + self.policy.ledger.aborted
    }

    /// Write word `word` of hart `h`'s mailbox, and log the write when
    /// the run records host events.
    fn post(&self, log: Option<&mut EventLog>, h: usize, word: i32, value: u64) {
        let addr = mb(h, word);
        self.bus.write_u64(addr, value);
        if let Some(log) = log {
            log.push(HostEvent::MailboxWrite { addr, value });
        }
    }

    /// Resolve hart `h`'s finished request `req` from its mailbox
    /// (doorbell `db`: 2 done, 3 denied by the PCU) and idle the hart.
    fn harvest(&mut self, h: usize, req: Request, db: u64, now: u64, log: Option<&mut EventLog>) {
        let done = db == 2;
        let latency = now - req.arrival;
        self.latency.record(latency);
        self.timeline.add(now, 1);
        let guest = if done {
            self.bus.read_u64(mb(h, MB_DIGEST))
        } else {
            0
        };
        let rec = record_digest(req.idx, req.tenant as u64, req.kind.index(), db, guest);
        self.digest ^= rec;
        let ts = &mut self.per_tenant[req.tenant];
        ts.requests += 1;
        ts.digest ^= rec;
        let mut service = 0;
        if done {
            self.completed += 1;
            service = self.bus.read_u64(mb(h, MB_CYCLES));
            ts.guest_cycles += service;
            self.service.record(service);
        } else {
            self.denied += 1;
            ts.denied += 1;
        }
        let cause = (!done).then(|| self.bus.read_u64(mb(h, MB_MCAUSE)));
        self.policy.on_harvest(h, &req, cause, now);
        if let Some(tr) = self.tracers.get(h) {
            tr.set_current(0);
        }
        self.collector
            .finish(req.trace_id(), now, latency, service, !done);
        self.post(log, h, MB_DOORBELL, 0);
        self.last_progress = self.sess.rounds();
    }

    /// Hand idle hart `h` the next queued request whose tenant may
    /// still run, firing the request-fault plan's injection first.
    fn dispatch(&mut self, h: usize, now: u64, mut log: Option<&mut EventLog>) {
        while let Some(req) = self.pending.pop_front() {
            if self.policy.rejects(req.tenant) {
                self.resolve_host(&req, STATUS_REJECTED);
                continue;
            }
            let mut iters = req.iters;
            match self.policy.on_dispatch(h, &req, self.sess.rounds()) {
                Some(ServeFaultKind::Wedge) => iters = WEDGE_ITERS,
                Some(ServeFaultKind::TableFlip { bit }) => self.inject_flip(h, req.tenant, bit),
                Some(ServeFaultKind::ShootdownJam) => {
                    // Pin the request in its body so the missed
                    // deadline lands on the faulted request, never on
                    // a later innocent one — blast radius stays
                    // confined to the faulted tenant.
                    iters = WEDGE_ITERS;
                    self.inject_jam(h, req.tenant);
                }
                None => {}
            }
            self.post(
                log.as_deref_mut(),
                h,
                MB_GATE,
                entry_gate(req.tenant, req.kind),
            );
            self.post(log.as_deref_mut(), h, MB_ITERS, iters);
            self.post(log, h, MB_DOORBELL, 1);
            if let Some(tr) = self.tracers.get(h) {
                tr.set_current(req.trace_id());
            }
            self.collector.begin(
                req.trace_id(),
                req.tenant as u16,
                req.kind.index() as u16,
                h,
                req.arrival,
                now,
            );
            self.inflight[h] = Some(req);
            return;
        }
    }

    /// Capture a checkpoint into the policy's recovery ring (round
    /// boundary, tracers drained).
    fn take_checkpoint(&mut self) {
        let progress = self.progress();
        let frame = self.snapshot_bytes();
        let at = self.sess.vclock();
        let digest = self.policy.on_checkpoint(at, progress, frame);
        self.tally.snapshots += 1;
        self.sess
            .smp()
            .machine(0)
            .obs
            .emit(|| TraceEvent::Snapshot { at, digest });
    }

    /// Resolve a request host-side — quarantine rejection (status 4),
    /// shed (5), or stall abort (6) — folding it into the run and
    /// per-tenant digests. Host-resolved requests never ran, so they
    /// stay out of the latency/service histograms; the digests and
    /// counters account for them instead of hiding them.
    fn resolve_host(&mut self, r: &Request, status: u64) {
        let rec = record_digest(r.idx, r.tenant as u64, r.kind.index(), status, 0);
        self.digest ^= rec;
        let ts = &mut self.per_tenant[r.tenant];
        ts.digest ^= rec;
        match status {
            STATUS_SHED => {
                self.shed.count += 1;
                self.shed.digest ^= rec;
            }
            STATUS_REJECTED => {
                self.denied += 1;
                ts.requests += 1;
                ts.denied += 1;
                self.policy.ledger.rejections.push(r.idx);
            }
            _ => {
                debug_assert_eq!(status, STATUS_ABORTED);
                self.policy.ledger.aborted += 1;
                ts.requests += 1;
            }
        }
        self.last_progress = self.sess.rounds();
    }

    /// Carry out the quarantine of `tenant` the policy decided: tear
    /// its ISA domain down to deny-all (publishing the shootdown every
    /// hart must honor), emit the audit trace event, and host-reject
    /// everything the tenant still has queued.
    fn quarantine(&mut self, tenant: usize) {
        let now = self.sess.vclock();
        let dom = self.tenant_doms[tenant];
        deny_all(&mut self.sess, dom);
        let m0 = self.sess.smp().machine(0);
        m0.obs.emit(|| TraceEvent::Quarantine {
            tenant: tenant as u64,
            domain: dom.0,
        });
        self.collector.note_publish(m0.ext.coherence_epoch(), now);
        for r in std::mem::take(&mut self.pending) {
            if r.tenant == tenant {
                self.resolve_host(&r, STATUS_REJECTED);
            } else {
                self.pending.push_back(r);
            }
        }
    }

    /// Crash-only restore: rebuild the run from the newest retained
    /// checkpoint, move the live policy and cumulative host tallies
    /// onto it, and re-impose every quarantine — a restore must never
    /// reopen a revoked window. A frame that will not restore (cannot
    /// happen for frames this run captured) is dropped and an older one
    /// tried; with no usable frame the quarantine already applied is
    /// the whole response.
    fn restore_latest(&mut self) {
        let failed_progress = self.progress();
        let failed_vclock = self.sess.vclock();
        while let Some(ckpt) = self.policy.ring.latest() {
            let (at, progress) = (ckpt.at, ckpt.progress);
            let Ok(mut fresh) = ServeState::resume(&ckpt.frame, self.cfg.jit) else {
                self.policy.ring.pop_latest();
                continue;
            };
            std::mem::swap(&mut fresh.policy, &mut self.policy);
            fresh.tally = Tally {
                restores: self.tally.restores + 1,
                ..self.tally
            };
            // The step total keeps counting from the start of the run,
            // so the stepping time must too.
            fresh.sess.add_host_secs(self.sess.host_secs());
            let span = RecoverySpan {
                failed_progress,
                restored_progress: progress,
                failed_vclock,
                restored_vclock: at,
            };
            let rounds = fresh.sess.rounds();
            fresh.policy.on_restored(span, &fresh.inflight, rounds);
            for &t in &fresh.policy.quarantined {
                deny_all(&mut fresh.sess, fresh.tenant_doms[t]);
            }
            *self = fresh;
            return;
        }
    }

    /// Last-resort termination: quarantine every in-flight tenant
    /// (the deny-all publish un-parks wedged guests) and drain every
    /// outstanding request as aborted (status 6). The run then falls
    /// out of the drive loop with the stall recorded in the ledger.
    fn abort_stalled(&mut self) {
        for h in 0..self.cfg.harts {
            if let Some(req) = self.inflight[h].take() {
                if self.policy.quarantined.insert(req.tenant) {
                    self.quarantine(req.tenant);
                }
                if let Some(tr) = self.tracers.get(h) {
                    tr.set_current(0);
                }
                self.resolve_host(&req, STATUS_ABORTED);
            }
        }
        for r in std::mem::take(&mut self.pending) {
            self.resolve_host(&r, STATUS_ABORTED);
        }
        if let Some(r) = self.next_arrival.take() {
            self.resolve_host(&r, STATUS_ABORTED);
        }
        while let Some(r) = self.gen.next() {
            self.resolve_host(&r, STATUS_ABORTED);
        }
    }

    /// Drain every hart tracer's round-local events into the
    /// collector, translating hart-local cycle timestamps into the
    /// global virtual clock (the round started at `vclock` with hart
    /// `h`'s cycle counter at `base[h]`).
    fn drain_tracers(&mut self, vclock: u64, base: &[u64]) {
        for (h, (tr, b)) in self.tracers.iter().zip(base).enumerate() {
            for ev in tr.drain_requests() {
                let t = vclock + ev.t.saturating_sub(*b);
                self.collector.ingest(h, ev.id, t, ev.ev);
            }
        }
    }

    /// Harvest every hart and assemble the outcome.
    fn finish(mut self) -> ServeOutcome {
        let mut audit = Vec::new();
        let mut profiles = Vec::new();
        let mut total_steps = 0u64;
        for h in 0..self.cfg.harts {
            let c = self.sess.harvest(h);
            total_steps += c.steps;
            audit.extend(c.audit);
            if let Some(p) = c.profile {
                profiles.push(p);
            }
        }
        let profiles = if profiles.is_empty() {
            Vec::new()
        } else {
            vec![RunProfile {
                name: format!("serve/{}-harts", self.cfg.harts),
                profiles,
                audit: audit.clone(),
            }]
        };
        for tr in &self.tracers {
            let (emitted, dropped) = tr.request_counts();
            self.collector.absorb_tracer_counts(emitted, dropped);
        }
        let recovery = self.policy.into_report(&self.shed);
        let mut counters = self.sess.counters();
        let run = &mut counters.run;
        run.snapshots += self.tally.snapshots;
        run.restores += self.tally.restores;
        run.oracle_checks += self.tally.oracle_checks;
        run.divergences += self.tally.divergences;
        run.quarantines += recovery.quarantines;
        run.retries += recovery.retries;
        run.sheds += recovery.sheds;
        run.recoveries += recovery.recoveries;
        ServeOutcome {
            completed: self.completed,
            denied: self.denied,
            shed: self.shed.count,
            digest: self.digest,
            vcycles: self.sess.vclock(),
            rounds: self.sess.rounds(),
            latency: self.latency,
            service: self.service,
            trace: self.collector,
            timeline: self.timeline,
            per_tenant: self.per_tenant,
            counters,
            audit,
            total_steps,
            host_secs: self.sess.host_secs(),
            profiles,
            recovery,
            cfg: self.cfg,
        }
    }
}

/// Drive the serving run to completion (no hooks — bit-identical to
/// the pre-hook harness).
pub fn run(cfg: &ServeConfig) -> ServeOutcome {
    ServeState::new(cfg).drive(&ServeHooks::default()).outcome
}

/// Drive a serving run with host-side hooks (snapshot, oracle,
/// record).
pub fn run_hooked(cfg: &ServeConfig, hooks: &ServeHooks) -> ServeRun {
    ServeState::new(cfg).drive(hooks)
}

/// Resume a serving run from a snapshot image and drive it to
/// completion with `hooks`. The continuation is bit-identical to the
/// unbroken run: same completion digest, same figure rows.
pub fn resume_run(frame: &[u8], hooks: &ServeHooks) -> Result<ServeRun, ResumeError> {
    resume_run_jit(frame, hooks, true)
}

/// [`resume_run`] with the superblock JIT on or off. The JIT is a
/// host-side accelerator that the frame does not carry; results are
/// bit-identical either way.
pub fn resume_run_jit(
    frame: &[u8],
    hooks: &ServeHooks,
    jit: bool,
) -> Result<ServeRun, ResumeError> {
    Ok(ServeState::resume(frame, jit)?.drive(hooks))
}

/// The run configuration a snapshot image carries in its header, with
/// the JIT on (a host-side setting the frame does not record).
pub fn frame_config(frame: &[u8]) -> Result<ServeConfig, WireError> {
    ServeConfig::decode(&mut Dec::open(frame, KIND_SERVE)?, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(requests: u64, harts: usize, seed: u64) -> ServeOutcome {
        let mut cfg = ServeConfig::new(4, requests, harts, seed);
        cfg.rotate_every = 32;
        cfg.flush_every = 8;
        run(&cfg)
    }

    #[test]
    fn restores_keep_the_stepping_time_from_before_them() {
        let mut cfg = ServeConfig::new(2, 16, 1, 3);
        cfg.self_heal = true;
        cfg.checkpoint_every = 8;
        let mut st = ServeState::new(&cfg);
        st.take_checkpoint();
        st.sess.round_all();
        let before = st.sess.host_secs();
        assert!(before > 0.0, "booting stepped the harts");
        st.restore_latest();
        assert_eq!(st.tally.restores, 1, "the checkpoint restored");
        assert!(st.sess.host_secs() >= before, "restore dropped host time");

        // End to end: a run that restores reports a host rate the host
        // could reach (timing only the post-restore stepping gave the
        // committed BENCH_serve.json 1232 MIPS).
        let mut cfg = ServeConfig::new(3, 48, 2, 0);
        cfg.rotate_every = 0;
        cfg.flush_every = 8;
        cfg.self_heal = true;
        cfg.request_fault_ppm = 90_000;
        cfg.checkpoint_every = 8;
        cfg.watchdog_rounds = 128;
        let o = run(&cfg);
        assert!(o.counters.run.restores > 0, "the run restored");
        let mips = o.total_steps as f64 / o.host_secs / 1e6;
        assert!(mips < 1000.0, "host_mips {mips} is not physical");
    }

    #[test]
    fn frame_header_layout_is_pinned() {
        // perfbench reads the machine image out of a serve frame by
        // skipping the config header by position: 9 words, a bool, 3
        // words, a bool, 6 words.
        let mut cfg = ServeConfig::new(3, 20, 2, 5);
        cfg.self_heal = true;
        cfg.checkpoint_every = 7;
        let st = ServeState::new(&cfg);
        let frame = st.snapshot_bytes();
        let mut d = Dec::open(&frame, KIND_SERVE).unwrap();
        for _ in 0..9 {
            d.u64().unwrap();
        }
        d.bool().unwrap();
        for _ in 0..3 {
            d.u64().unwrap();
        }
        d.bool().unwrap();
        for _ in 0..6 {
            d.u64().unwrap();
        }
        let snap = decode_snapshot_payload(&mut d).unwrap();
        assert_eq!(
            state_digest(&snap),
            state_digest(&capture_session(&st.sess))
        );
        let mut d = Dec::open(&frame, KIND_SERVE).unwrap();
        let back = ServeConfig::decode(&mut d, false).unwrap();
        assert_eq!(
            format!("{back:?}"),
            format!("{:?}", ServeConfig { jit: false, ..cfg })
        );
    }

    #[test]
    fn frame_config_round_trips_the_encoded_header() {
        let mut cfg = ServeConfig::new(7, 300, 4, 9);
        cfg.self_heal = true;
        cfg.trace = TraceMode::Full;
        cfg.watchdog_rounds = 99;
        let mut e = Enc::new();
        cfg.encode(&mut e);
        let back = frame_config(&e.seal(KIND_SERVE)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        assert!(frame_config(&[0; 8]).is_err(), "not a serve frame");
    }

    #[test]
    fn per_hart_profiles_add_up_to_the_step_count() {
        let mut cfg = ServeConfig::new(4, 40, 4, 11);
        cfg.rotate_every = 16;
        cfg.profile = true;
        let o = run(&cfg);
        let profiles = &o.profiles[0].profiles;
        assert_eq!(profiles.len(), 4);
        let steps: u64 = profiles.iter().map(isa_obs::Profile::steps).sum();
        assert!(profiles.iter().all(|p| p.steps() > 0), "every hart stepped");
        assert_eq!(steps, o.counters.run.steps);
        assert_eq!(steps, o.total_steps);
    }

    #[test]
    fn serves_every_request() {
        let o = quick(200, 2, 7);
        assert_eq!(o.completed, 200);
        assert_eq!(o.denied, 0);
        assert!(o.audit.is_empty(), "no denials expected: {:?}", o.audit);
        assert_eq!(o.latency.count(), 200);
        assert_eq!(
            o.per_tenant.iter().map(|t| t.requests).sum::<u64>(),
            200,
            "every request attributed to a tenant"
        );
        assert!(o.counters.smp.shootdowns > 0, "rotations publish");
    }

    #[test]
    fn digest_is_hart_count_independent() {
        let a = quick(150, 1, 42);
        let b = quick(150, 4, 42);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, quick(150, 1, 43).digest, "seed matters");
    }

    #[test]
    fn probes_are_denied_and_audited() {
        let mut cfg = ServeConfig::new(3, 60, 2, 11);
        cfg.probe_every = 10;
        let o = run(&cfg);
        assert_eq!(o.completed + o.denied, 60);
        assert_eq!(o.denied, 6);
        assert!(
            o.audit
                .iter()
                .any(|r| matches!(r.kind, isa_obs::AuditKind::Csr)),
            "denied CSR probe must be audited: {:?}",
            o.audit
        );
    }
}
