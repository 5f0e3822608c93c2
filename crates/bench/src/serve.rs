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
//! bounded [`CheckpointRing`], per-request failures are classified
//! into a [`ServeError`] (per-request watchdog, cause-28 integrity
//! fault, shootdown-deadline expiry, oracle divergence), and the
//! policy reacts deterministically — quarantine the offending
//! tenant's ISA domain to deny-all, restore the machine from the last
//! good checkpoint and retry the rewound in-flight requests with
//! bounded backoff, and (independently) shed admission with a
//! deterministic deadline-budget rule so the tail latency of admitted
//! requests stays bounded while sheds are counted, not hidden. The
//! chaos bench (`crates/bench/src/chaos.rs`) drives this layer under
//! seeded fault plans and asserts the recovery contract; see
//! DESIGN.md, "Degradation and recovery contract".

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use isa_asm::{Asm, Program, Reg::*};
use isa_fault::{FaultEvent, FaultPlan, ServeFaultKind, ServeFaultPlan};
use isa_grid::{
    DomainId, DomainSpec, GateSpec, GridLayout, Pcu, PcuConfig, SHOOTDOWN_DEADLINE_POLLS,
};
use isa_obs::{
    AuditRecord, Counters, Histogram, Json, Obs, RunProfile, Spine, TimeSeries, ToJson, TraceEvent,
};
pub use isa_obs::{TraceCollector, TraceMode, TracePolicy, TraceReport};
use isa_replay::wire::KIND_SERVE;
use isa_replay::{
    capture_session, decode_snapshot_payload, encode_snapshot_payload, restore_session,
    state_digest, CheckpointRing, Dec, Divergence, Enc, EventLog, HostEvent, RestoreError, SpecSmp,
    WireError,
};
use isa_sim::csr::addr;
use isa_sim::{
    Bus, Exception, Extension, Kind, Machine, DEFAULT_RAM_BASE as RAM, DEFAULT_RAM_SIZE,
};
use isa_smp::Smp;
use simkernel::SmpSession;

use crate::report::{self, Table};

/// Trusted-memory base (same region every bare-metal bench uses).
const TMEM: u64 = 0x8380_0000;
/// Trusted-memory size: tables for 64 domains / 256 gates plus
/// per-hart trusted stacks.
const TMEM_SIZE: u64 = 1 << 21;
/// Per-hart trusted-stack stride inside trusted memory.
const TSTACK_STRIDE: u64 = 0x8000;
/// Per-hart request mailboxes (host <-> dispatcher), one page each.
const MAILBOX_BASE: u64 = RAM + 0x0200_0000;
/// Mailbox stride (one page per hart).
const MB_STRIDE: u64 = 0x1000;
/// The value the host plants in `cpuinfo0` — what the service domain's
/// syscall microflow reads and folds into the digest. Identical on
/// every hart so digests stay hart-count independent.
const CPUINFO_VALUE: u64 = 0x5345_5256_4530_3031; // "SERVE001"

// Request resolution status codes folded into the digest. 2 and 3 are
// the guest-written doorbell values; 4..=6 are host-side resolutions.
const STATUS_REJECTED: u64 = 4; // host-rejected: tenant quarantined
const STATUS_SHED: u64 = 5; // admission shed by the deadline budget
const STATUS_ABORTED: u64 = 6; // stall fallback drained the request

/// Iteration count planted by a `Wedge` fault — never finishes inside
/// any watchdog budget.
const WEDGE_ITERS: u64 = 1 << 40;
/// Per-request watchdog budget in rounds when
/// [`ServeConfig::watchdog_rounds`] is 0.
const DEFAULT_WATCHDOG_ROUNDS: u64 = 2048;
/// A request's watchdog may fire at most this many times before the
/// policy stops restoring and relies on quarantine alone.
const MAX_REQUEST_RETRIES: u32 = 3;
/// Exponential-backoff cap: budget is `watchdog_rounds << min(n, 3)`.
const MAX_BACKOFF_SHIFT: u32 = 3;
/// Checkpoints retained by the recovery ring.
const CHECKPOINT_RING_CAP: usize = 4;

// Mailbox word offsets.
const MB_DOORBELL: i32 = 0x00; // 0 idle | 1 request | 2 done | 3 denied
const MB_GATE: i32 = 0x08;
const MB_ITERS: i32 = 0x10;
const MB_DIGEST: i32 = 0x18;
const MB_CYCLES: i32 = 0x20;
const MB_MCAUSE: i32 = 0x28;
const MB_READY: i32 = 0x30;

/// Fixed gate ids (the per-tenant entry gates follow them).
const GATE_BOOT: u64 = 0;
const GATE_RET: u64 = 1;
const GATE_SVC_SQLITE: u64 = 2;
const GATE_SVC_MBEDTLS: u64 = 3;
/// First per-tenant entry gate; tenant `t`, kind `k` is
/// `GATE_ENTRY0 + t * KINDS + k`.
const GATE_ENTRY0: u64 = 4;
/// App kinds with entry gates per tenant (sqlite, mbedtls, gzip,
/// probe).
const KINDS: u64 = 4;

/// The app model a request runs inside its tenant's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Hash-mix loop plus a syscall microflow into the service domain.
    Sqlite,
    /// Xorshift loop plus a syscall microflow into the service domain.
    Mbedtls,
    /// Pure shift/mask compute loop, no service call.
    Gzip,
    /// Touches a privileged CSR the tenant is not granted — must be
    /// denied by the PCU, never complete.
    Probe,
}

impl AppKind {
    /// Kind index used in gate numbering and the digest.
    fn index(self) -> u64 {
        match self {
            AppKind::Sqlite => 0,
            AppKind::Mbedtls => 1,
            AppKind::Gzip => 2,
            AppKind::Probe => 3,
        }
    }

    /// Inverse of [`AppKind::index`] (wire decode).
    fn from_index(i: u64) -> Option<AppKind> {
        match i {
            0 => Some(AppKind::Sqlite),
            1 => Some(AppKind::Mbedtls),
            2 => Some(AppKind::Gzip),
            3 => Some(AppKind::Probe),
            _ => None,
        }
    }

    /// The body label in the guest program.
    fn body(self) -> &'static str {
        match self {
            AppKind::Sqlite => "body_sqlite",
            AppKind::Mbedtls => "body_mbedtls",
            AppKind::Gzip => "body_gzip",
            AppKind::Probe => "body_probe",
        }
    }
}

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
    /// [`ServeFaultPlan`]. Only honored when [`ServeConfig::self_heal`]
    /// is on — injecting without the healing layer would just wedge
    /// the run.
    pub request_fault_ppm: u64,
    /// Machine-level fault rate: per-hart [`FaultPlan`]s attached
    /// after boot, firing on PCU commit indices (0 = none). Plans ride
    /// in snapshots, so restores replay them faithfully.
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
    /// Override for [`PcuConfig::shootdown_deadline_polls`] on every
    /// hart (0 = keep the profile default).
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

/// What kind of failure the self-healing layer classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The per-request watchdog expired: the request never finished
    /// within its (backed-off) round budget.
    Watchdog,
    /// The guest trapped with cause 28 (`GridIntegrityFault`) — the
    /// fail-closed integrity layer denied a corrupted table walk.
    Integrity,
    /// Cause 28 raised by the cross-hart shootdown deadline expiring
    /// (a hart sat on an unacknowledged publish too long).
    ShootdownExpiry,
    /// The differential oracle found the fast path diverging.
    Divergence,
}

impl FailureClass {
    /// Stable lower-case name (report JSON).
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Watchdog => "watchdog",
            FailureClass::Integrity => "integrity",
            FailureClass::ShootdownExpiry => "shootdown_expiry",
            FailureClass::Divergence => "divergence",
        }
    }
}

/// One classified serving failure — the structured value the
/// self-healing policy dispatches on (and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeError {
    /// Failure taxonomy bucket.
    pub class: FailureClass,
    /// Request index the failure is attributed to (`u64::MAX` when the
    /// failure is not request-scoped, e.g. a divergence).
    pub request: u64,
    /// Tenant whose domain was quarantined in response (`u64::MAX`
    /// when not tenant-scoped).
    pub tenant: u64,
    /// Hart the failure surfaced on.
    pub hart: u64,
    /// Virtual clock at classification.
    pub vclock: u64,
    /// Class-specific detail word (watchdog: rounds waited; integrity
    /// and shootdown expiry: trap cause).
    pub detail: u64,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve failure: {} (request {}, tenant {}, hart {}, vclock {}, detail {:#x})",
            self.class.name(),
            self.request,
            self.tenant,
            self.hart,
            self.vclock,
            self.detail
        )
    }
}

impl std::error::Error for ServeError {}

/// One restore episode: how far the run was rolled back.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySpan {
    /// Resolved-request progress when the failure was classified.
    pub failed_progress: u64,
    /// Progress recorded in the checkpoint the run restored to. The
    /// rollback `failed_progress - restored_progress` is bounded by
    /// the checkpoint interval plus the in-flight window.
    pub restored_progress: u64,
    /// Virtual clock at classification.
    pub failed_vclock: u64,
    /// Virtual clock of the restored checkpoint.
    pub restored_vclock: u64,
}

/// The self-healing layer's ledger for one run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Quarantined tenants, ascending. Monotone: a restore never
    /// reopens a revoked window.
    pub quarantined: Vec<u64>,
    /// Every classified failure, in occurrence order.
    pub failures: Vec<ServeError>,
    /// Request indices host-rejected at admission/dispatch because
    /// their tenant was already quarantined.
    pub rejections: Vec<u64>,
    /// Order-independent digest of the recovery decisions: XOR of a
    /// tagged FNV-1a record per quarantined tenant, XORed with
    /// [`RecoveryReport::shed_digest`]. Identical across hart counts
    /// for the same `(seed, config)`.
    pub decision_digest: u64,
    /// Arrivals dropped by the shedder (mirrors [`ServeOutcome::shed`]).
    pub sheds: u64,
    /// XOR of the shed requests' digest records.
    pub shed_digest: u64,
    /// In-flight requests rewound by restores and re-served.
    pub retries: u64,
    /// Restore episodes performed by the policy.
    pub recoveries: u64,
    /// Quarantine actions taken (= `quarantined.len()`).
    pub quarantines: u64,
    /// One span per restore episode.
    pub spans: Vec<RecoverySpan>,
    /// Checkpoints captured into the ring.
    pub checkpoints: u64,
    /// Largest progress gap between consecutive checkpoints.
    pub max_ckpt_gap: u64,
    /// Requests drained by the stall fallback (status 6) — expected 0.
    pub aborted: u64,
    /// Stall-fallback activations — expected 0.
    pub stalls: u64,
}

/// Host-side recovery state. Deliberately *not* serialized into
/// snapshots: it survives restores verbatim (the quarantine registry
/// is monotone across rollbacks), and an externally resumed run starts
/// a fresh ledger.
#[derive(Debug)]
struct RecoveryState {
    ring: CheckpointRing,
    quarantined: BTreeSet<usize>,
    failures: Vec<ServeError>,
    rejections: Vec<u64>,
    retries: BTreeMap<u64, u32>,
    retry_count: u64,
    recoveries: u64,
    quarantines: u64,
    spans: Vec<RecoverySpan>,
    last_ckpt_progress: u64,
    max_ckpt_gap: u64,
    next_checkpoint: u64,
    divergence_retries: u64,
    stalls: u64,
    aborted: u64,
}

impl RecoveryState {
    fn new(checkpoint_every: u64) -> RecoveryState {
        RecoveryState {
            ring: CheckpointRing::new(CHECKPOINT_RING_CAP),
            quarantined: BTreeSet::new(),
            failures: Vec::new(),
            rejections: Vec::new(),
            retries: BTreeMap::new(),
            retry_count: 0,
            recoveries: 0,
            quarantines: 0,
            spans: Vec::new(),
            last_ckpt_progress: 0,
            max_ckpt_gap: 0,
            next_checkpoint: if checkpoint_every > 0 {
                checkpoint_every
            } else {
                u64::MAX
            },
            divergence_retries: 0,
            stalls: 0,
            aborted: 0,
        }
    }
}

/// xorshift64* — the workload generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Never zero; decorrelate small seeds with one splitmix round.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
struct Request {
    idx: u64,
    arrival: u64,
    tenant: usize,
    kind: AppKind,
    iters: u64,
}

/// The open-loop generator: arrivals advance a virtual-clock cursor
/// independently of service progress.
struct Generator {
    rng: Rng,
    cfg: ServeConfig,
    next_idx: u64,
    clock: u64,
}

impl Generator {
    fn new(cfg: &ServeConfig) -> Generator {
        Generator {
            rng: Rng::new(cfg.seed),
            cfg: cfg.clone(),
            next_idx: 0,
            clock: 0,
        }
    }

    fn next(&mut self) -> Option<Request> {
        if self.next_idx >= self.cfg.requests {
            return None;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        let gap = 1 + self.rng.next() % (2 * self.cfg.mean_gap.max(1));
        self.clock += gap;
        let tenant = (self.rng.next() % self.cfg.tenants as u64) as usize;
        let mix = self.rng.next() % 3;
        let kind = if self.cfg.probe_every > 0 && (idx + 1).is_multiple_of(self.cfg.probe_every) {
            AppKind::Probe
        } else {
            match mix {
                0 => AppKind::Sqlite,
                1 => AppKind::Mbedtls,
                _ => AppKind::Gzip,
            }
        };
        let iters = 16 + self.rng.next() % 48;
        Some(Request {
            idx,
            arrival: self.clock,
            tenant,
            kind,
            iters,
        })
    }
}

/// Entry-gate id for (tenant, kind).
fn entry_gate(tenant: usize, kind: AppKind) -> u64 {
    GATE_ENTRY0 + tenant as u64 * KINDS + kind.index()
}

/// The guest image: per-hart M-mode prologue, the S-mode dispatcher in
/// the runtime domain, the three app bodies plus the probe (tenant
/// domains), the service-domain syscall handler, and the M-mode trap
/// handler that converts PCU denials into mailbox rejections.
///
/// The program is tenant-independent — the entry-gate id arrives via
/// the mailbox, and all tenants share the body code; only the SGT
/// entries (one per tenant × kind, all anchored at `entry_site`)
/// differ.
pub fn guest_program() -> Program {
    let mut a = Asm::new(RAM);

    // --- M-mode prologue (every hart) -------------------------------
    a.la(T0, "mtrap");
    a.csrw(addr::MTVEC as u32, T0);
    // S1 = this hart's mailbox, kept live across the whole run.
    a.csrr(T0, addr::MHARTID as u32);
    a.slli(T1, T0, 12);
    a.li(S1, MAILBOX_BASE);
    a.add(S1, S1, T1);
    // Drop to S-mode at `boot`.
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "boot");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();

    // --- S-mode, domain 0: leave through the boot gate --------------
    a.label("boot");
    a.li(T4, GATE_BOOT);
    a.label("boot_site");
    a.hccall(T4);

    // --- Runtime domain: the dispatcher -----------------------------
    a.label("init");
    a.li(S4, 0); // completions since last pflh
    a.li(T0, 1);
    a.sd(T0, S1, MB_READY);
    a.label("spin");
    a.ld(T0, S1, MB_DOORBELL);
    a.li(T1, 1);
    a.bne(T0, T1, "spin");
    a.ld(T4, S1, MB_GATE);
    a.ld(A0, S1, MB_ITERS);
    a.li(A3, 0);
    a.rdcycle(S2);
    a.label("entry_site"); // every per-tenant entry gate anchors here
    a.hccall(T4);
    a.label("ret_site"); // bodies land here with T4 = GATE_RET
    a.hccall(T4);
    a.label("after_ret"); // back in the runtime domain
    a.rdcycle(S3);
    a.sub(T1, S3, S2);
    a.sd(T1, S1, MB_CYCLES);
    a.sd(A3, S1, MB_DIGEST);
    a.li(T0, 2);
    a.sd(T0, S1, MB_DOORBELL);
    // pflh cadence (parameter word patched by the host; 0 = never).
    a.la(T0, "flush_every");
    a.ld(T0, T0, 0);
    a.beqz(T0, "spin");
    a.addi(S4, S4, 1);
    a.bne(S4, T0, "spin");
    a.li(S4, 0);
    a.pflh(Zero);
    a.j("spin");

    // --- Tenant-domain app bodies -----------------------------------
    a.label("body_sqlite");
    a.label("sq_loop");
    a.slli(T1, A3, 7);
    a.xor(A3, A3, T1);
    a.add(A3, A3, A0);
    a.srli(T1, A3, 11);
    a.xor(A3, A3, T1);
    a.addi(A0, A0, -1);
    a.bnez(A0, "sq_loop");
    a.li(T4, GATE_SVC_SQLITE);
    a.label("svc_sqlite_site");
    a.hccalls(T4); // syscall microflow: service domain, trusted stack
    a.li(T4, GATE_RET);
    a.j("ret_site");

    a.label("body_mbedtls");
    a.label("mb_loop");
    a.slli(T1, A3, 13);
    a.xor(A3, A3, T1);
    a.srli(T1, A3, 7);
    a.xor(A3, A3, T1);
    a.add(A3, A3, A0);
    a.addi(A0, A0, -1);
    a.bnez(A0, "mb_loop");
    a.li(T4, GATE_SVC_MBEDTLS);
    a.label("svc_mbedtls_site");
    a.hccalls(T4);
    a.li(T4, GATE_RET);
    a.j("ret_site");

    a.label("body_gzip");
    a.label("gz_loop");
    a.add(A3, A3, A0);
    a.slli(T1, A3, 3);
    a.add(A3, A3, T1);
    a.andi(T1, A3, 0xFF);
    a.xor(A3, A3, T1);
    a.addi(A0, A0, -1);
    a.bnez(A0, "gz_loop");
    a.li(T4, GATE_RET);
    a.j("ret_site");

    // The isolation probe: `satp` is not granted to any tenant, so
    // the csrr must be denied — control never reaches the return
    // gate, the M-mode handler rejects the request instead.
    a.label("body_probe");
    a.csrr(T2, addr::SATP as u32);
    a.li(T4, GATE_RET);
    a.j("ret_site");

    // --- Service domain: the syscall target -------------------------
    a.label("svc_entry");
    a.csrr(T2, addr::CPUINFO0 as u32);
    a.add(A3, A3, T2);
    a.hcrets();

    // --- M-mode trap handler: PCU denial → mailbox rejection --------
    a.label("mtrap");
    a.csrr(T0, addr::MHARTID as u32);
    a.slli(T1, T0, 12);
    a.li(S1, MAILBOX_BASE);
    a.add(S1, S1, T1);
    a.csrr(T0, addr::MCAUSE as u32);
    a.sd(T0, S1, MB_MCAUSE);
    a.li(T0, 3);
    a.sd(T0, S1, MB_DOORBELL);
    // Resume in S-mode at the *boot gate*, not the spin loop: the PCU
    // domain is still the offending tenant's, and under quarantine
    // that domain is deny-all — the dispatcher's loads would fault
    // forever. Gate instructions are executable from every domain
    // (validated against the SGT, not the domain bitmap), so the boot
    // gate is the one guaranteed exit back into the runtime domain.
    a.li(T4, GATE_BOOT);
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "boot_site");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();

    a.align(8);
    a.label("flush_every");
    a.d64(0);

    a.assemble().expect("serve guest assembles")
}

/// What every domain needs: the compute groups plus the CSR-class
/// instructions (`rdcycle` is a csrrs) and the cycle counter itself.
fn base_spec() -> DomainSpec {
    let mut d = DomainSpec::compute_only();
    d.allow_insts([Kind::Csrrw, Kind::Csrrs, Kind::Csrrc]);
    d.allow_csr_read(addr::CYCLE);
    d
}

/// The service domain additionally reads `cpuinfo0`.
fn service_spec() -> DomainSpec {
    let mut d = base_spec();
    d.allow_csr_read(addr::CPUINFO0);
    d
}

/// FNV-1a over one completion record; records XOR-combine into the
/// run digest so completion order (which varies with hart count) does
/// not matter.
fn record_digest(idx: u64, tenant: u64, kind: u64, status: u64, guest: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in [idx, tenant, kind, status, guest] {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The shedder's deterministic service-time estimate for one request
/// (virtual cycles): an affine model of the app-body loop. Only the
/// *relative* budget arithmetic matters — the rule is a pure function
/// of the request stream either way.
fn est_service(r: &Request) -> u64 {
    220 + r.iters * 9
}

/// Replay the admission shedder host-side: the request indices a
/// config's deadline budget drops. Pure in the config — independent
/// of faults, hart count, and machine state — so the chaos oracle can
/// use it as ground truth.
pub fn shed_plan(cfg: &ServeConfig) -> Vec<u64> {
    let mut shed = Vec::new();
    if cfg.shed_deadline == 0 {
        return shed;
    }
    let mut gen = Generator::new(cfg);
    let mut free = 0u64;
    while let Some(r) = gen.next() {
        let start = free.max(r.arrival);
        if start + est_service(&r) - r.arrival > cfg.shed_deadline {
            shed.push(r.idx);
        } else {
            free = start + est_service(&r);
        }
    }
    shed
}

/// Replay the workload generator host-side: the tenant each request
/// index lands on. Ground truth for the chaos oracle's quarantine-set
/// prediction.
pub fn tenant_plan(cfg: &ServeConfig) -> Vec<u64> {
    let mut gen = Generator::new(cfg);
    let mut tenants = Vec::with_capacity(cfg.requests as usize);
    while let Some(r) = gen.next() {
        tenants.push(r.tenant as u64);
    }
    tenants
}

/// Assemble the multi-tenant machine: shared bus, hart 0's PCU owns
/// the tables (install + domains + gates), harts 1.. get mirrors;
/// every hart gets its own trusted-stack window and `cpuinfo0`.
/// Returns the [`Smp`] and the per-tenant domain ids.
fn build_smp(cfg: &ServeConfig, prog: &Program) -> (Smp, Vec<DomainId>) {
    let bus = Bus::with_harts(RAM, DEFAULT_RAM_SIZE, cfg.harts);
    bus.write_bytes(prog.base, &prog.bytes);
    bus.write_u64(prog.symbol("flush_every"), cfg.flush_every);

    let pcfg = if cfg.shootdown_deadline > 0 {
        PcuConfig::builder()
            .eight_e()
            .shootdown_deadline_polls(cfg.shootdown_deadline as u32)
            .build()
    } else {
        PcuConfig::eight_e()
    };
    let mut m0 = Machine::on_bus(Pcu::new(pcfg), bus.for_hart(0));
    m0.cpu.pc = prog.base;
    let layout = GridLayout::new(TMEM, TMEM_SIZE).with_capacity(64, 256);
    m0.ext.install(&mut m0.bus, layout);
    let tsb = m0.ext.layout().tstack_base();

    let runtime = m0.ext.add_domain(&mut m0.bus, &base_spec());
    let service = m0.ext.add_domain(&mut m0.bus, &service_spec());
    let tenant_doms: Vec<DomainId> = (0..cfg.tenants)
        .map(|_| m0.ext.add_domain(&mut m0.bus, &base_spec()))
        .collect();

    let fixed = [
        ("boot_site", "init", runtime, GATE_BOOT),
        ("ret_site", "after_ret", runtime, GATE_RET),
        ("svc_sqlite_site", "svc_entry", service, GATE_SVC_SQLITE),
        ("svc_mbedtls_site", "svc_entry", service, GATE_SVC_MBEDTLS),
    ];
    for (site, dest, dom, want) in fixed {
        let id = m0.ext.add_gate(
            &mut m0.bus,
            GateSpec {
                gate_addr: prog.symbol(site),
                dest_addr: prog.symbol(dest),
                dest_domain: dom,
            },
        );
        assert_eq!(id.0, want, "fixed gate numbering drifted");
    }
    let entry = prog.symbol("entry_site");
    for (t, dom) in tenant_doms.iter().enumerate() {
        for kind in [
            AppKind::Sqlite,
            AppKind::Mbedtls,
            AppKind::Gzip,
            AppKind::Probe,
        ] {
            let id = m0.ext.add_gate(
                &mut m0.bus,
                GateSpec {
                    gate_addr: entry,
                    dest_addr: prog.symbol(kind.body()),
                    dest_domain: *dom,
                },
            );
            assert_eq!(id.0, entry_gate(t, kind), "entry-gate numbering drifted");
        }
    }

    let mut machines = Vec::with_capacity(cfg.harts);
    m0.ext.set_trusted_stack(tsb, tsb + TSTACK_STRIDE);
    m0.cpu.csrs.write_raw(addr::CPUINFO0, CPUINFO_VALUE);
    m0.set_bbcache(true);
    m0.set_jit(cfg.jit);
    if cfg.profile {
        m0.set_obs(Obs::new(Spine::new().with_profile(0)));
    }
    machines.push(m0);
    for h in 1..cfg.harts {
        let pcu = machines[0].ext.mirror();
        let mut m = Machine::on_bus(pcu, bus.for_hart(h));
        m.cpu.pc = prog.base;
        let base = tsb + h as u64 * TSTACK_STRIDE;
        m.ext.set_trusted_stack(base, base + TSTACK_STRIDE);
        m.cpu.csrs.write_raw(addr::CPUINFO0, CPUINFO_VALUE);
        m.set_bbcache(true);
        m.set_jit(cfg.jit);
        if cfg.profile {
            m.set_obs(Obs::new(Spine::new().with_profile(h)));
        }
        machines.push(m);
    }
    (Smp::from_machines(machines), tenant_doms)
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

/// What [`ServeState::drive`] hands back to the `run*` wrappers.
#[derive(Debug, Default)]
struct DriveOut {
    snapshot: Option<Vec<u8>>,
    log: EventLog,
    oracle_checks: u64,
    divergence: Option<Divergence>,
}

/// The whole serving run as a value: machine session plus every word
/// of host state the continuation depends on. [`ServeState::snapshot_bytes`]
/// serializes all of it; resuming from those bytes and driving to
/// completion is bit-identical to the unbroken run.
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
    /// Shedder state (serialized: the continuation replays the same
    /// admission decisions).
    shed_free: u64,
    shed: u64,
    shed_digest: u64,
    /// The pure request-fault assignment (derived from the config,
    /// not serialized).
    faults: ServeFaultPlan,
    /// Round each hart's in-flight request was dispatched at — the
    /// watchdog's reference point. Host-side only: a resumed run
    /// restarts every in-flight watchdog window.
    dispatched_round: Vec<Option<u64>>,
    /// The self-healing ledger; survives internal restores verbatim.
    recovery: RecoveryState,
    /// Host-tooling tallies folded into `counters.run` at finish.
    snapshots: u64,
    restores: u64,
    oracle_checks: u64,
    divergences: u64,
    /// Per-hart observability handles with the request buffer on
    /// (empty when tracing is off). The driver tags each with the
    /// in-flight request and drains it after every round.
    tracers: Vec<Obs>,
    /// Assembles drained events into span trees and tail-samples them.
    collector: TraceCollector,
}

/// Trace ID for a generated request: index + 1 (0 means "no request").
fn trace_id(r: &Request) -> u64 {
    r.idx + 1
}

fn mb(h: usize) -> u64 {
    MAILBOX_BASE + h as u64 * MB_STRIDE
}

impl ServeState {
    /// Build the machine, boot every hart to its dispatcher, and stand
    /// at the first round boundary of the main loop.
    fn new(cfg: &ServeConfig) -> ServeState {
        assert!(
            (1..=56).contains(&cfg.tenants) && (1..=32).contains(&cfg.harts),
            "serve: tenants 1..=56, harts 1..=32"
        );
        let prog = guest_program();
        let (smp, tenant_doms) = build_smp(cfg, &prog);
        let bus = smp.bus().clone();
        let mut sess = SmpSession::new(smp, cfg.quantum);

        // Boot every hart to its dispatcher (ready flag raised).
        let mut boot_rounds = 0u64;
        while (0..cfg.harts).any(|h| bus.read_u64(mb(h) + MB_READY as u64) == 0) {
            sess.round_all();
            boot_rounds += 1;
            assert!(boot_rounds < 100_000, "serve: harts failed to boot");
        }

        // Machine-level fault plans go in after boot, rebased onto each
        // hart's post-boot commit count so the boot path stays clean.
        if cfg.machine_fault_ppm > 0 {
            let horizon = 1_000_000 + cfg.requests.saturating_mul(20_000).min(40_000_000);
            for h in 0..cfg.harts {
                let m = sess.smp_mut().machine_mut(h);
                let boot = m.ext.commits();
                let events: Vec<FaultEvent> =
                    FaultPlan::for_hart(cfg.seed, cfg.machine_fault_ppm, horizon, h)
                        .events()
                        .iter()
                        .map(|ev| FaultEvent {
                            at_commit: ev.at_commit + boot,
                            kind: ev.kind,
                        })
                        .collect();
                m.ext.attach_faults(FaultPlan::from_events(events));
            }
        }

        // Tracers go in after boot: boot has no requests to attribute
        // (and no rotations, so no acks are lost either).
        let tracers = if cfg.trace != TraceMode::Off {
            sess.install_req_tracers()
        } else {
            Vec::new()
        };

        let mut gen = Generator::new(cfg);
        let next_arrival = gen.next();
        ServeState {
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
            shed_free: 0,
            shed: 0,
            shed_digest: 0,
            faults: ServeFaultPlan::new(cfg.seed, cfg.request_fault_ppm),
            dispatched_round: vec![None; cfg.harts],
            recovery: RecoveryState::new(cfg.checkpoint_every),
            snapshots: 0,
            restores: 0,
            oracle_checks: 0,
            divergences: 0,
            tracers,
            collector: TraceCollector::new(cfg.trace_policy()),
            cfg: cfg.clone(),
        }
    }

    /// Serialize the whole run (config, machine, host state) as a
    /// framed, digested byte image.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let c = &self.cfg;
        let mut e = Enc::new();
        for v in [
            c.tenants as u64,
            c.requests,
            c.harts as u64,
            c.seed,
            c.quantum,
            c.mean_gap,
            c.flush_every,
            c.rotate_every,
            c.probe_every,
        ] {
            e.u64(v);
        }
        e.bool(c.profile);
        e.u64(c.trace.index());
        e.u64(c.trace_survey);
        e.u64(c.trace_slow);
        e.bool(c.self_heal);
        for v in [
            c.request_fault_ppm,
            c.machine_fault_ppm,
            c.checkpoint_every,
            c.shed_deadline,
            c.watchdog_rounds,
            c.shootdown_deadline,
        ] {
            e.u64(v);
        }
        encode_snapshot_payload(&capture_session(&self.sess), &mut e);
        e.u64(self.gen.rng.0);
        e.u64(self.gen.next_idx);
        e.u64(self.gen.clock);
        enc_req_opt(&mut e, self.next_arrival);
        e.u64(self.pending.len() as u64);
        for r in &self.pending {
            enc_req(&mut e, *r);
        }
        for slot in &self.inflight {
            enc_req_opt(&mut e, *slot);
        }
        for t in &self.per_tenant {
            e.u64(t.requests);
            e.u64(t.denied);
            e.u64(t.guest_cycles);
            e.u64(t.digest);
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
            self.shed_free,
            self.shed,
            self.shed_digest,
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

    /// Rebuild a run from a snapshot image: re-run the deterministic
    /// machine recipe, overwrite all mutable state, skip boot (the
    /// restored RAM already has every dispatcher mid-spin).
    fn resume(frame: &[u8]) -> Result<ServeState, ResumeError> {
        let mut d = Dec::open(frame, KIND_SERVE)?;
        let tenants = d.u64()? as usize;
        let requests = d.u64()?;
        let harts = d.u64()? as usize;
        let seed = d.u64()?;
        let quantum = d.u64()?;
        let mean_gap = d.u64()?;
        let flush_every = d.u64()?;
        let rotate_every = d.u64()?;
        let probe_every = d.u64()?;
        let profile = d.bool()?;
        let trace = TraceMode::from_index(d.u64()?).ok_or(WireError::Malformed("trace mode"))?;
        let trace_survey = d.u64()?;
        let trace_slow = d.u64()?;
        let self_heal = d.bool()?;
        let request_fault_ppm = d.u64()?;
        let machine_fault_ppm = d.u64()?;
        let checkpoint_every = d.u64()?;
        let shed_deadline = d.u64()?;
        let watchdog_rounds = d.u64()?;
        let shootdown_deadline = d.u64()?;
        if !(1..=56).contains(&tenants) || !(1..=32).contains(&harts) || quantum == 0 {
            return Err(WireError::Malformed("serve config").into());
        }
        let cfg = ServeConfig {
            tenants,
            requests,
            harts,
            seed,
            quantum,
            mean_gap,
            flush_every,
            rotate_every,
            probe_every,
            profile,
            // Host-side accelerator, not part of the deterministic
            // recipe (digests are identical either way), so it is not
            // serialized: resumed runs come up with the default.
            jit: true,
            trace,
            trace_survey,
            trace_slow,
            self_heal,
            request_fault_ppm,
            machine_fault_ppm,
            checkpoint_every,
            shed_deadline,
            watchdog_rounds,
            shootdown_deadline,
        };
        let snap = decode_snapshot_payload(&mut d)?;

        let prog = guest_program();
        let (smp, tenant_doms) = build_smp(&cfg, &prog);
        let bus = smp.bus().clone();
        let mut sess = SmpSession::new(smp, cfg.quantum);
        restore_session(&mut sess, &snap)?;

        let mut gen = Generator::new(&cfg);
        gen.rng.0 = d.u64()?;
        gen.next_idx = d.u64()?;
        gen.clock = d.u64()?;
        let next_arrival = dec_req_opt(&mut d)?;
        let n = d.u64()? as usize;
        if n > requests as usize {
            return Err(WireError::Malformed("pending queue length").into());
        }
        let mut pending = VecDeque::with_capacity(n);
        for _ in 0..n {
            pending.push_back(dec_req(&mut d)?);
        }
        let mut inflight = Vec::with_capacity(harts);
        for _ in 0..harts {
            inflight.push(dec_req_opt(&mut d)?);
        }
        let mut per_tenant = Vec::with_capacity(tenants);
        for _ in 0..tenants {
            per_tenant.push(TenantStats {
                requests: d.u64()?,
                denied: d.u64()?,
                guest_cycles: d.u64()?,
                digest: d.u64()?,
            });
        }
        let mut latency = Histogram::new();
        latency.import_words(&d.words()?);
        let interval = d.u64()?;
        let slices = d.words()?;
        let mut timeline = TimeSeries::new(cfg.quantum.max(1) * 64, 256);
        timeline.import_state(interval, &slices);
        let completed = d.u64()?;
        let denied = d.u64()?;
        let digest = d.u64()?;
        let rotate_cursor = d.u64()? as usize;
        let next_rotate = d.u64()?;
        let last_progress = d.u64()?;
        let shed_free = d.u64()?;
        let shed = d.u64()?;
        let shed_digest = d.u64()?;
        let mut service = Histogram::new();
        service.import_words(&d.words()?);
        let mut collector = TraceCollector::new(cfg.trace_policy());
        collector.import_words(&d.words()?);
        d.finish()?;

        // Rebuild the per-hart tracers and re-tag each with the request
        // its hart was serving at the snapshot (tag state is host-side,
        // not in the machine image).
        let tracers = if cfg.trace != TraceMode::Off {
            let tracers = sess.install_req_tracers();
            for (h, slot) in inflight.iter().enumerate() {
                if let Some(req) = slot {
                    tracers[h].set_current(trace_id(req));
                }
            }
            tracers
        } else {
            Vec::new()
        };

        let m0 = sess.smp().machine(0);
        let at = sess.vclock();
        m0.obs.emit(|| TraceEvent::Restore {
            at,
            digest: state_digest(&snap),
        });
        // Watchdog windows restart at the restored round boundary; the
        // recovery ledger is host-side and starts fresh (internal
        // restores graft the live ledger back in afterwards).
        let rounds_now = sess.rounds();
        let dispatched_round = inflight
            .iter()
            .map(|slot| slot.map(|_| rounds_now))
            .collect();
        let mut recovery = RecoveryState::new(checkpoint_every);
        if checkpoint_every > 0 {
            recovery.next_checkpoint = completed + denied + shed + checkpoint_every;
            recovery.last_ckpt_progress = completed + denied + shed;
        }
        Ok(ServeState {
            cfg,
            tenant_doms,
            sess,
            bus,
            gen,
            next_arrival,
            pending,
            inflight,
            per_tenant,
            latency,
            service,
            timeline,
            completed,
            denied,
            digest,
            rotate_cursor,
            next_rotate,
            last_progress,
            shed_free,
            shed,
            shed_digest,
            faults: ServeFaultPlan::new(seed, request_fault_ppm),
            dispatched_round,
            recovery,
            snapshots: 0,
            restores: 1,
            oracle_checks: 0,
            divergences: 0,
            tracers,
            collector,
        })
    }

    /// Drive the serving loop until every request finished, the
    /// snapshot hook fired and the caller only wanted the image, or
    /// the oracle found a divergence.
    ///
    /// The host loop is: admit generator arrivals whose virtual
    /// arrival time has passed, harvest finished mailboxes (doorbell
    /// 2/3), inject queued requests into idle harts, then advance one
    /// scheduling round stepping only harts with a raised doorbell
    /// (idle harts' spin loops are pure, so skipping them preserves
    /// architectural state — see the session-driver contract in
    /// DESIGN.md).
    fn drive(&mut self, hooks: &ServeHooks) -> DriveOut {
        let mut out = DriveOut::default();
        let mut next_oracle = if hooks.oracle_every > 0 {
            hooks.oracle_every
        } else {
            u64::MAX
        };
        while self.progress() < self.cfg.requests {
            if hooks.snapshot_at > 0
                && out.snapshot.is_none()
                && self.completed + self.denied >= hooks.snapshot_at
            {
                out.snapshot = Some(self.snapshot_bytes());
                self.snapshots += 1;
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
            if self.cfg.checkpoint_every > 0 && self.progress() >= self.recovery.next_checkpoint {
                self.take_checkpoint();
            }
            let now = self.sess.vclock();
            // Admit everything that has arrived by virtual-now. The
            // shedder sees every arrival first: its decision is a pure
            // function of the request stream, so the shed set is
            // identical across hart counts and fault plans. Arrivals
            // from quarantined tenants are host-rejected here.
            while let Some(r) = self.next_arrival {
                if r.arrival > now {
                    break;
                }
                self.next_arrival = self.gen.next();
                if self.cfg.shed_deadline > 0 {
                    let start = self.shed_free.max(r.arrival);
                    if start + est_service(&r) - r.arrival > self.cfg.shed_deadline {
                        self.resolve_host(&r, STATUS_SHED);
                        continue;
                    }
                    self.shed_free = start + est_service(&r);
                }
                if self.cfg.self_heal && self.recovery.quarantined.contains(&r.tenant) {
                    self.resolve_host(&r, STATUS_REJECTED);
                    continue;
                }
                self.pending.push_back(r);
            }
            // Harvest, then refill idle harts. Integrity-class denials
            // are collected here and quarantined after the sweep (the
            // quarantine rewrites domain tables, which must not race
            // the per-hart mailbox pass).
            let mut integrity: Vec<(usize, Request, u64)> = Vec::new();
            for h in 0..self.cfg.harts {
                let base = mb(h);
                let db = self.bus.read_u64(base + MB_DOORBELL as u64);
                if db == 2 || db == 3 {
                    let req = match self.inflight[h].take() {
                        Some(r) => r,
                        None => {
                            // Only the stall fallback orphans a
                            // completion (it resolves in-flight slots
                            // without parking the guest); recycle the
                            // hart.
                            assert!(self.cfg.self_heal, "completion without a request");
                            self.bus.write_u64(base + MB_DOORBELL as u64, 0);
                            continue;
                        }
                    };
                    self.dispatched_round[h] = None;
                    let latency = now - req.arrival;
                    self.latency.record(latency);
                    self.timeline.add(now, 1);
                    let guest = if db == 2 {
                        self.bus.read_u64(base + MB_DIGEST as u64)
                    } else {
                        0
                    };
                    let rec =
                        record_digest(req.idx, req.tenant as u64, req.kind.index(), db, guest);
                    self.digest ^= rec;
                    let ts = &mut self.per_tenant[req.tenant];
                    ts.requests += 1;
                    ts.digest ^= rec;
                    let mut service = 0;
                    if db == 2 {
                        self.completed += 1;
                        service = self.bus.read_u64(base + MB_CYCLES as u64);
                        ts.guest_cycles += service;
                        self.service.record(service);
                    } else {
                        self.denied += 1;
                        ts.denied += 1;
                        if self.cfg.self_heal {
                            let mcause = self.bus.read_u64(base + MB_MCAUSE as u64);
                            if self.recovery.quarantined.contains(&req.tenant) {
                                // A denial on an already-quarantined
                                // tenant is the quarantine working — a
                                // rewound or un-wedged in-flight request
                                // hitting the deny-all wall. Ledger it
                                // as a rejection so no planned fault
                                // can resolve silently.
                                self.recovery.rejections.push(req.idx);
                            } else if mcause == Exception::CAUSE_GRID_INTEGRITY {
                                integrity.push((h, req, mcause));
                            }
                        }
                    }
                    if let Some(tr) = self.tracers.get(h) {
                        tr.set_current(0);
                    }
                    self.collector
                        .finish(trace_id(&req), now, latency, service, db == 3);
                    self.bus.write_u64(base + MB_DOORBELL as u64, 0);
                    if hooks.record {
                        out.log.push(HostEvent::MailboxWrite {
                            addr: base + MB_DOORBELL as u64,
                            value: 0,
                        });
                    }
                    self.last_progress = self.sess.rounds();
                }
                if self.bus.read_u64(base + MB_DOORBELL as u64) == 0 {
                    while let Some(req) = self.pending.pop_front() {
                        if self.cfg.self_heal && self.recovery.quarantined.contains(&req.tenant) {
                            self.resolve_host(&req, STATUS_REJECTED);
                            continue;
                        }
                        let gate = entry_gate(req.tenant, req.kind);
                        // The request-fault plan fires at dispatch:
                        // wedge the iteration count, corrupt the
                        // tenant's tables, or jam this hart's
                        // shootdown acks (single-hart runs remap the
                        // jam to a table flip — there is no cross-hart
                        // deadline to miss).
                        let mut iters = req.iters;
                        if self.cfg.self_heal {
                            match self.faults.fault_for(req.idx) {
                                Some(ServeFaultKind::Wedge) => iters = WEDGE_ITERS,
                                Some(ServeFaultKind::TableFlip { bit }) => {
                                    self.inject_flip(h, req.tenant, bit)
                                }
                                Some(ServeFaultKind::ShootdownJam) => {
                                    if self.cfg.harts > 1 {
                                        // Pin the request in its body so
                                        // the missed deadline lands on the
                                        // faulted request, never on a later
                                        // innocent one — blast radius stays
                                        // confined to the faulted tenant.
                                        iters = WEDGE_ITERS;
                                        self.inject_jam(h, req.tenant);
                                    } else {
                                        self.inject_flip(h, req.tenant, 0);
                                    }
                                }
                                None => {}
                            }
                        }
                        self.bus.write_u64(base + MB_GATE as u64, gate);
                        self.bus.write_u64(base + MB_ITERS as u64, iters);
                        self.bus.write_u64(base + MB_DOORBELL as u64, 1);
                        if hooks.record {
                            out.log.push(HostEvent::MailboxWrite {
                                addr: base + MB_GATE as u64,
                                value: gate,
                            });
                            out.log.push(HostEvent::MailboxWrite {
                                addr: base + MB_ITERS as u64,
                                value: iters,
                            });
                            out.log.push(HostEvent::MailboxWrite {
                                addr: base + MB_DOORBELL as u64,
                                value: 1,
                            });
                        }
                        if let Some(tr) = self.tracers.get(h) {
                            tr.set_current(trace_id(&req));
                        }
                        self.collector.begin(
                            trace_id(&req),
                            req.tenant as u16,
                            req.kind.index() as u16,
                            h,
                            req.arrival,
                            now,
                        );
                        self.dispatched_round[h] = Some(self.sess.rounds());
                        self.inflight[h] = Some(req);
                        break;
                    }
                }
            }
            // Classified integrity failures: quarantine the offending
            // tenant. No restore — fail-closed denial already contained
            // the fault, and the quarantine's table rewrite reseals the
            // corrupted words.
            for (h, req, mcause) in integrity {
                let class = match self.faults.fault_for(req.idx) {
                    Some(ServeFaultKind::ShootdownJam) if self.cfg.harts > 1 => {
                        FailureClass::ShootdownExpiry
                    }
                    _ => FailureClass::Integrity,
                };
                self.classify_and_quarantine(class, &req, h as u64, mcause);
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
                if hooks.record {
                    out.log.push(HostEvent::Rotate { domain: dom.0 });
                }
            }
            // The runnable mask is computed once and drives the fast
            // round, the oracle replay and the record log identically.
            // (Only hart h's guest and the host — both quiescent here —
            // write mailbox h, so reading it per-hart mid-round would
            // see the same values.)
            let mut mask = 0u64;
            for h in 0..self.cfg.harts {
                if self.bus.read_u64(mb(h) + MB_DOORBELL as u64) == 1 {
                    mask |= 1 << h;
                }
            }
            if hooks.record {
                out.log.push(HostEvent::Round { mask });
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
                out.oracle_checks += 1;
                self.oracle_checks += 1;
                if let Some(d) = spec
                    .compare(self.sess.smp())
                    .or_else(|| spec.compare_memory(self.sess.smp()))
                {
                    self.divergences += 1;
                    self.sess
                        .smp()
                        .machine(0)
                        .obs
                        .emit(|| TraceEvent::Divergence {
                            pc: d.pc,
                            step: d.step,
                            what: "oracle",
                        });
                    // Crash-only divergence policy: roll back to the
                    // last good checkpoint once; a second divergence
                    // surfaces structurally.
                    if self.cfg.self_heal
                        && self.recovery.divergence_retries == 0
                        && !self.recovery.ring.is_empty()
                    {
                        self.recovery.divergence_retries += 1;
                        self.recovery.failures.push(ServeError {
                            class: FailureClass::Divergence,
                            request: u64::MAX,
                            tenant: u64::MAX,
                            hart: 0,
                            vclock: self.sess.vclock(),
                            detail: d.step,
                        });
                        self.restore_latest();
                        continue;
                    }
                    out.divergence = Some(d);
                    return out;
                }
            }
            // Per-request watchdog: a dispatched request that has not
            // finished within its (backed-off) round budget is wedged.
            // Quarantine its tenant, then restore from the last good
            // checkpoint and retry the rewound in-flight work; with no
            // checkpoint (or the retry budget spent) the quarantine's
            // deny-all publish alone un-wedges the hart.
            if self.cfg.self_heal {
                if let Some((h, req)) = self.watchdog_expired() {
                    let waited = self
                        .sess
                        .rounds()
                        .saturating_sub(self.dispatched_round[h].unwrap_or(0));
                    self.classify_and_quarantine(FailureClass::Watchdog, &req, h as u64, waited);
                    let n = self.recovery.retries.get(&req.idx).copied().unwrap_or(0);
                    self.recovery.retries.insert(req.idx, n + 1);
                    if !self.recovery.ring.is_empty() && n < MAX_REQUEST_RETRIES {
                        self.restore_latest();
                    }
                    continue;
                }
            }
            if self.cfg.self_heal {
                // Stall fallback: with the watchdog resolving wedges,
                // this only fires on pathology — drain everything
                // outstanding as aborted (status 6) so the run always
                // terminates, and say so in the ledger.
                let stall = 64 * self.watchdog_budget_base() + 500_000;
                if self.sess.rounds() - self.last_progress >= stall {
                    self.abort_stalled();
                }
            } else {
                assert!(
                    self.sess.rounds() - self.last_progress < 2_000_000,
                    "serve: no completion in 2M rounds (vclock {}, {} in flight, {} queued)",
                    self.sess.vclock(),
                    self.inflight.iter().flatten().count(),
                    self.pending.len()
                );
            }
        }
        out
    }

    /// Requests resolved so far, by any road: completed, denied
    /// (PCU or host-rejection), shed, or stall-aborted.
    fn progress(&self) -> u64 {
        self.completed + self.denied + self.shed + self.recovery.aborted
    }

    /// Capture a checkpoint into the recovery ring (round boundary,
    /// tracers drained) and advance the cadence bookkeeping.
    fn take_checkpoint(&mut self) {
        let progress = self.progress();
        let frame = self.snapshot_bytes();
        let at = self.sess.vclock();
        let digest = self.recovery.ring.push(at, progress, frame);
        self.snapshots += 1;
        let gap = progress.saturating_sub(self.recovery.last_ckpt_progress);
        self.recovery.max_ckpt_gap = self.recovery.max_ckpt_gap.max(gap);
        self.recovery.last_ckpt_progress = progress;
        self.recovery.next_checkpoint = progress + self.cfg.checkpoint_every;
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
                self.shed += 1;
                self.shed_digest ^= rec;
            }
            STATUS_REJECTED => {
                self.denied += 1;
                ts.requests += 1;
                ts.denied += 1;
                self.recovery.rejections.push(r.idx);
            }
            _ => {
                debug_assert_eq!(status, STATUS_ABORTED);
                self.recovery.aborted += 1;
                ts.requests += 1;
            }
        }
        self.last_progress = self.sess.rounds();
    }

    /// Record a classified failure and quarantine its tenant.
    fn classify_and_quarantine(
        &mut self,
        class: FailureClass,
        req: &Request,
        hart: u64,
        detail: u64,
    ) {
        self.recovery.failures.push(ServeError {
            class,
            request: req.idx,
            tenant: req.tenant as u64,
            hart,
            vclock: self.sess.vclock(),
            detail,
        });
        self.quarantine(req.tenant);
    }

    /// Tear the tenant's ISA domain down to deny-all (publishing the
    /// shootdown every hart must honor), emit the audit trace event,
    /// and host-reject everything the tenant still has queued.
    /// Idempotent, and monotone across restores.
    fn quarantine(&mut self, tenant: usize) {
        if !self.recovery.quarantined.insert(tenant) {
            return;
        }
        self.recovery.quarantines += 1;
        let now = self.sess.vclock();
        let dom = self.tenant_doms[tenant];
        let m0 = self.sess.smp_mut().machine_mut(0);
        m0.ext
            .update_domain(&mut m0.bus, dom, &DomainSpec::deny_all());
        let t = tenant as u64;
        m0.obs.emit(|| TraceEvent::Quarantine {
            tenant: t,
            domain: dom.0,
        });
        let epoch = m0.ext.coherence_epoch();
        self.collector.note_publish(epoch, now);
        let mut kept = VecDeque::with_capacity(self.pending.len());
        while let Some(r) = self.pending.pop_front() {
            if r.tenant == tenant {
                self.resolve_host(&r, STATUS_REJECTED);
            } else {
                kept.push_back(r);
            }
        }
        self.pending = kept;
    }

    /// The un-backed-off watchdog budget in rounds.
    fn watchdog_budget_base(&self) -> u64 {
        if self.cfg.watchdog_rounds > 0 {
            self.cfg.watchdog_rounds
        } else {
            DEFAULT_WATCHDOG_ROUNDS
        }
    }

    /// Watchdog budget for one request: base shifted left once per
    /// prior expiry (bounded deterministic backoff).
    fn watchdog_budget(&self, idx: u64) -> u64 {
        let n = self
            .recovery
            .retries
            .get(&idx)
            .copied()
            .unwrap_or(0)
            .min(MAX_BACKOFF_SHIFT);
        self.watchdog_budget_base() << n
    }

    /// The lowest-numbered hart whose in-flight request has exceeded
    /// its watchdog budget, if any.
    fn watchdog_expired(&self) -> Option<(usize, Request)> {
        let rounds = self.sess.rounds();
        for h in 0..self.cfg.harts {
            if let (Some(req), Some(at)) = (self.inflight[h], self.dispatched_round[h]) {
                // A quarantined tenant's wedge is already dying: the
                // deny-all publish denies it within a few polls, so
                // re-classifying here would only duplicate the ledger.
                if self.recovery.quarantined.contains(&req.tenant) {
                    continue;
                }
                if self.bus.read_u64(mb(h) + MB_DOORBELL as u64) == 1
                    && rounds.saturating_sub(at) > self.watchdog_budget(req.idx)
                {
                    return Some((h, req));
                }
            }
        }
        None
    }

    /// Chaos: flip a bit of the tenant's instruction-bitmap word the
    /// app bodies' compute class lives in — the broken seal is
    /// observed (and denied fail-closed, cause 28) on the request's
    /// next table walk.
    fn inject_flip(&mut self, h: usize, tenant: usize, bit: u32) {
        let word = (Kind::Add.class_index() / 64) as u32;
        let bit = word * 64 + bit % 64;
        let dom = self.tenant_doms[tenant];
        let m = self.sess.smp_mut().machine_mut(h);
        let _ = m.ext.chaos_flip_domain_inst_bit(&mut m.bus, dom, bit);
    }

    /// Chaos: give hart `h` enough shootdown-defer credits to blow the
    /// deadline, then publish a benign table rewrite from another hart
    /// so a pending epoch exists for `h` to sit on. The expiry raises
    /// cause 28 inside the faulted request's body.
    fn inject_jam(&mut self, h: usize, tenant: usize) {
        let deadline = if self.cfg.shootdown_deadline > 0 {
            self.cfg.shootdown_deadline as u32
        } else {
            SHOOTDOWN_DEADLINE_POLLS
        };
        let m = self.sess.smp_mut().machine_mut(h);
        m.ext.chaos_defer_shootdowns(deadline + 4);
        let p = (h + 1) % self.cfg.harts;
        let dom = self.tenant_doms[tenant];
        let mp = self.sess.smp_mut().machine_mut(p);
        mp.ext.update_domain(&mut mp.bus, dom, &base_spec());
    }

    /// Crash-only restore: rebuild the run from the newest retained
    /// checkpoint, graft the live recovery ledger and cumulative host
    /// tallies onto it, and re-impose every quarantine — a restore
    /// must never reopen a revoked window. Rewound in-flight requests
    /// count as retries. A frame that will not restore (cannot happen
    /// for frames this run captured) is dropped and an older one
    /// tried; with no usable frame the quarantine already applied is
    /// the whole response.
    fn restore_latest(&mut self) {
        let failed_vclock = self.sess.vclock();
        let failed_progress = self.progress();
        loop {
            let Some(ckpt) = self.recovery.ring.latest() else {
                return;
            };
            let (at, progress, frame) = (ckpt.at, ckpt.progress, ckpt.frame.clone());
            match ServeState::resume(&frame) {
                Ok(mut fresh) => {
                    if !self.cfg.jit {
                        for h in 0..fresh.cfg.harts {
                            fresh.sess.smp_mut().machine_mut(h).set_jit(false);
                        }
                        fresh.cfg.jit = false;
                    }
                    fresh.recovery = std::mem::replace(&mut self.recovery, RecoveryState::new(0));
                    fresh.snapshots += self.snapshots;
                    fresh.restores += self.restores;
                    fresh.oracle_checks += self.oracle_checks;
                    fresh.divergences += self.divergences;
                    // The step total keeps counting from the start of
                    // the run, so the stepping time must too.
                    fresh.sess.add_host_secs(self.sess.host_secs());
                    fresh.recovery.recoveries += 1;
                    fresh.recovery.retry_count += fresh.inflight.iter().flatten().count() as u64;
                    fresh.recovery.spans.push(RecoverySpan {
                        failed_progress,
                        restored_progress: progress,
                        failed_vclock,
                        restored_vclock: at,
                    });
                    if self.cfg.checkpoint_every > 0 {
                        fresh.recovery.next_checkpoint = progress + self.cfg.checkpoint_every;
                        fresh.recovery.last_ckpt_progress = progress;
                    }
                    let quarantined: Vec<usize> =
                        fresh.recovery.quarantined.iter().copied().collect();
                    for t in quarantined {
                        let dom = fresh.tenant_doms[t];
                        let m0 = fresh.sess.smp_mut().machine_mut(0);
                        m0.ext
                            .update_domain(&mut m0.bus, dom, &DomainSpec::deny_all());
                    }
                    *self = fresh;
                    return;
                }
                Err(_) => {
                    self.recovery.ring.pop_latest();
                }
            }
        }
    }

    /// Last-resort termination: quarantine every in-flight tenant
    /// (the deny-all publish un-parks wedged guests) and drain every
    /// outstanding request as aborted (status 6). The run then falls
    /// out of the drive loop with the stall recorded in the ledger.
    fn abort_stalled(&mut self) {
        self.recovery.stalls += 1;
        for h in 0..self.cfg.harts {
            if let Some(req) = self.inflight[h].take() {
                self.dispatched_round[h] = None;
                self.quarantine(req.tenant);
                if let Some(tr) = self.tracers.get(h) {
                    tr.set_current(0);
                }
                self.resolve_host(&req, STATUS_ABORTED);
            }
        }
        let queued: Vec<Request> = self.pending.drain(..).collect();
        for r in queued {
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
        let mut counters = self.sess.counters();
        counters.run.snapshots += self.snapshots;
        counters.run.restores += self.restores;
        counters.run.oracle_checks += self.oracle_checks;
        counters.run.divergences += self.divergences;
        counters.run.quarantines += self.recovery.quarantines;
        counters.run.retries += self.recovery.retry_count;
        counters.run.sheds += self.shed;
        counters.run.recoveries += self.recovery.recoveries;
        for tr in &self.tracers {
            let (emitted, dropped) = tr.request_counts();
            self.collector.absorb_tracer_counts(emitted, dropped);
        }
        let quarantined: Vec<u64> = self
            .recovery
            .quarantined
            .iter()
            .map(|t| *t as u64)
            .collect();
        // Tenant-granular on purpose: which request first trips a fault
        // races across hart counts, but the quarantined tenant *set*
        // and the shed set are schedule-independent.
        let mut decision_digest = self.shed_digest;
        for &t in &quarantined {
            decision_digest ^= record_digest(u64::MAX, t, 0, STATUS_REJECTED, 0);
        }
        let recovery = RecoveryReport {
            quarantined,
            failures: self.recovery.failures.clone(),
            rejections: self.recovery.rejections.clone(),
            decision_digest,
            sheds: self.shed,
            shed_digest: self.shed_digest,
            retries: self.recovery.retry_count,
            recoveries: self.recovery.recoveries,
            quarantines: self.recovery.quarantines,
            spans: self.recovery.spans.clone(),
            checkpoints: self.recovery.ring.pushed(),
            max_ckpt_gap: self.recovery.max_ckpt_gap,
            aborted: self.recovery.aborted,
            stalls: self.recovery.stalls,
        };
        ServeOutcome {
            cfg: self.cfg.clone(),
            completed: self.completed,
            denied: self.denied,
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
            shed: self.shed,
            recovery,
        }
    }
}

fn enc_req(e: &mut Enc, r: Request) {
    e.u64(r.idx);
    e.u64(r.arrival);
    e.u64(r.tenant as u64);
    e.u8(r.kind.index() as u8);
    e.u64(r.iters);
}

fn dec_req(d: &mut Dec<'_>) -> Result<Request, WireError> {
    let idx = d.u64()?;
    let arrival = d.u64()?;
    let tenant = d.u64()? as usize;
    let kind = AppKind::from_index(d.u8()? as u64).ok_or(WireError::Malformed("app kind"))?;
    let iters = d.u64()?;
    Ok(Request {
        idx,
        arrival,
        tenant,
        kind,
        iters,
    })
}

fn enc_req_opt(e: &mut Enc, r: Option<Request>) {
    match r {
        Some(r) => {
            e.bool(true);
            enc_req(e, r);
        }
        None => e.bool(false),
    }
}

fn dec_req_opt(d: &mut Dec<'_>) -> Result<Option<Request>, WireError> {
    Ok(if d.bool()? { Some(dec_req(d)?) } else { None })
}

/// Drive the serving run to completion (no hooks — bit-identical to
/// the pre-hook harness).
pub fn run(cfg: &ServeConfig) -> ServeOutcome {
    let mut st = ServeState::new(cfg);
    st.drive(&ServeHooks::default());
    st.finish()
}

/// Drive a serving run with host-side hooks (snapshot, oracle,
/// record).
pub fn run_hooked(cfg: &ServeConfig, hooks: &ServeHooks) -> ServeRun {
    let mut st = ServeState::new(cfg);
    let d = st.drive(hooks);
    ServeRun {
        outcome: st.finish(),
        snapshot: d.snapshot,
        log: d.log,
        oracle_checks: d.oracle_checks,
        divergence: d.divergence,
    }
}

/// Resume a serving run from a snapshot image and drive it to
/// completion with `hooks`. The continuation is bit-identical to the
/// unbroken run: same completion digest, same figure rows.
pub fn resume_run(frame: &[u8], hooks: &ServeHooks) -> Result<ServeRun, ResumeError> {
    let mut st = ServeState::resume(frame)?;
    let d = st.drive(hooks);
    Ok(ServeRun {
        outcome: st.finish(),
        snapshot: d.snapshot,
        log: d.log,
        oracle_checks: d.oracle_checks,
        divergence: d.divergence,
    })
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
        assert_eq!(st.restores, 1, "the checkpoint restored");
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
