//! The self-healing layer's recovery policy as a pure state machine.
//!
//! [`Policy`] takes failure and progress events — an arrival, a
//! dispatch, a harvested completion or denial, a divergence, the end
//! of a scheduling round, a checkpoint, a restore — and answers with
//! the [`Action`] the driver must carry out: quarantine a tenant,
//! restore from the newest checkpoint, abort everything outstanding,
//! or stop. It never touches a machine; `ServeState::drive` performs
//! the effects. Every rule of DESIGN.md's "Degradation and recovery
//! contract" lives here and is pinned by a machine-free unit test
//! below.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use isa_fault::{ServeFaultKind, ServeFaultPlan};
use isa_replay::CheckpointRing;
use isa_sim::Exception;

use super::generator::{record_digest, Request};
use super::ServeConfig;

// Request resolution status codes folded into the digest. 2 and 3 are
// the guest-written doorbell values; 4..=6 are host-side resolutions.
pub(super) const STATUS_REJECTED: u64 = 4; // host-rejected: tenant quarantined
pub(super) const STATUS_SHED: u64 = 5; // admission shed by the deadline budget
pub(super) const STATUS_ABORTED: u64 = 6; // stall fallback drained the request

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
/// Rounds without progress a run without self-healing may take before
/// the harness declares itself broken.
const UNHEALED_STALL_ROUNDS: u64 = 2_000_000;

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
    /// Arrivals dropped by the shedder (mirrors `ServeOutcome::shed`).
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

/// The deterministic admission shedder's state. Serialized with the
/// run: a continuation replays the same admission decisions.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Shedder {
    /// Virtual time the serving pool frees up.
    pub(super) free: u64,
    /// Arrivals shed so far.
    pub(super) count: u64,
    /// XOR of the shed requests' digest records.
    pub(super) digest: u64,
}

impl Shedder {
    /// Whether a `deadline` (0 = off) sheds `r`: its projected sojourn
    /// (queueing behind earlier admissions plus its estimated service)
    /// exceeds the deadline. An admitted arrival books its service.
    pub(super) fn sheds(&mut self, r: &Request, deadline: u64) -> bool {
        if deadline == 0 {
            return false;
        }
        let start = self.free.max(r.arrival);
        if start + r.est_service() - r.arrival > deadline {
            return true;
        }
        self.free = start + r.est_service();
        false
    }
}

/// What the driver must carry out in response to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Action {
    /// The tenant was just quarantined: write deny-all over its
    /// domain and host-reject its queued requests; then, when
    /// `restore`, roll back to the newest checkpoint.
    Quarantine { tenant: usize, restore: bool },
    /// Roll back to the newest checkpoint.
    Restore,
    /// Stall fallback: quarantine every in-flight tenant and drain
    /// everything outstanding as aborted.
    AbortAll,
    /// Stop the run and surface the divergence to the caller.
    Stop,
}

/// The recovery policy. Host-side state: it survives restores whole
/// (the quarantine set is monotone across rollbacks), and an
/// externally resumed run starts a fresh one.
#[derive(Debug)]
pub(super) struct Policy {
    self_heal: bool,
    harts: usize,
    shed_deadline: u64,
    checkpoint_every: u64,
    watchdog_base: u64,
    /// The pure request-fault assignment.
    faults: ServeFaultPlan,
    /// Checkpoints to restore from, newest last.
    pub(super) ring: CheckpointRing,
    /// Quarantined tenants. Monotone: insert-only, and it survives
    /// restores with the policy.
    pub(super) quarantined: BTreeSet<usize>,
    /// Failures, rejections, retries, recoveries, spans, checkpoint
    /// gaps, aborts and stalls; the rest is filled in at the end.
    pub(super) ledger: RecoveryReport,
    /// Watchdog expiries per request index.
    expiries: BTreeMap<u64, u32>,
    /// Round each hart's in-flight request was dispatched at.
    dispatched: Vec<Option<u64>>,
    /// Cause-28 denials seen during a harvest sweep, classified after
    /// it (a quarantine rewrites tables, which must not race the
    /// per-hart mailbox pass).
    deferred: VecDeque<ServeError>,
    next_checkpoint: u64,
    last_ckpt_progress: u64,
    diverged: bool,
}

impl Policy {
    pub(super) fn new(cfg: &ServeConfig) -> Policy {
        Policy {
            self_heal: cfg.self_heal,
            harts: cfg.harts,
            shed_deadline: cfg.shed_deadline,
            checkpoint_every: cfg.checkpoint_every,
            watchdog_base: if cfg.watchdog_rounds > 0 {
                cfg.watchdog_rounds
            } else {
                DEFAULT_WATCHDOG_ROUNDS
            },
            faults: ServeFaultPlan::new(cfg.seed, cfg.request_fault_ppm),
            ring: CheckpointRing::new(CHECKPOINT_RING_CAP),
            quarantined: BTreeSet::new(),
            ledger: RecoveryReport::default(),
            expiries: BTreeMap::new(),
            dispatched: vec![None; cfg.harts],
            deferred: VecDeque::new(),
            next_checkpoint: if cfg.checkpoint_every > 0 {
                cfg.checkpoint_every
            } else {
                u64::MAX
            },
            last_ckpt_progress: 0,
            diverged: false,
        }
    }

    /// Admission of an arrival: the shedder sees it first (its
    /// decision is a pure function of the request stream, so the shed
    /// set is identical across hart counts and fault plans), then a
    /// quarantined tenant's arrival is rejected. Returns the host-side
    /// resolution status, or `None` to queue the request.
    pub(super) fn admit(&self, shedder: &mut Shedder, r: &Request) -> Option<u64> {
        if shedder.sheds(r, self.shed_deadline) {
            Some(STATUS_SHED)
        } else if self.rejects(r.tenant) {
            Some(STATUS_REJECTED)
        } else {
            None
        }
    }

    /// Whether a request of `tenant` is host-rejected (at admission or
    /// when popped for dispatch).
    pub(super) fn rejects(&self, tenant: usize) -> bool {
        self.self_heal && self.quarantined.contains(&tenant)
    }

    /// The request-fault plan's fault for request `idx`, fired only
    /// with self-healing on. A single-hart run has no cross-hart
    /// deadline to miss, so its shootdown jams become table flips.
    fn planned_fault(&self, idx: u64) -> Option<ServeFaultKind> {
        if !self.self_heal {
            return None;
        }
        match self.faults.fault_for(idx) {
            Some(ServeFaultKind::ShootdownJam) if self.harts == 1 => {
                Some(ServeFaultKind::TableFlip { bit: 0 })
            }
            f => f,
        }
    }

    /// `r` was dispatched to hart `h` at `round`: open its watchdog
    /// window and return the fault to inject, if any.
    pub(super) fn on_dispatch(
        &mut self,
        h: usize,
        r: &Request,
        round: u64,
    ) -> Option<ServeFaultKind> {
        self.dispatched[h] = Some(round);
        self.planned_fault(r.idx)
    }

    /// Hart `h` finished `r`: completed, or denied with trap cause
    /// `denied`. A denial of a quarantined tenant is the quarantine
    /// working, ledgered as a rejection so no planned fault resolves
    /// silently; a cause-28 denial is deferred for classification.
    pub(super) fn on_harvest(&mut self, h: usize, r: &Request, denied: Option<u64>, vclock: u64) {
        self.dispatched[h] = None;
        let Some(cause) = denied.filter(|_| self.self_heal) else {
            return;
        };
        if self.quarantined.contains(&r.tenant) {
            self.ledger.rejections.push(r.idx);
        } else if cause == Exception::CAUSE_GRID_INTEGRITY {
            // Cause 28 is split by the fault plan: a jammed request
            // missed the shootdown deadline, anything else failed an
            // integrity check.
            let class = match self.planned_fault(r.idx) {
                Some(ServeFaultKind::ShootdownJam) => FailureClass::ShootdownExpiry,
                _ => FailureClass::Integrity,
            };
            self.deferred.push_back(ServeError {
                class,
                request: r.idx,
                tenant: r.tenant as u64,
                hart: h as u64,
                vclock,
                detail: cause,
            });
        }
    }

    /// After a harvest sweep: classify the next deferred cause-28
    /// failure. Its tenant is quarantined — no restore, the
    /// fail-closed denial already contained the fault.
    pub(super) fn next_deferred(&mut self) -> Option<Action> {
        while let Some(e) = self.deferred.pop_front() {
            self.ledger.failures.push(e);
            let tenant = e.tenant as usize;
            if self.quarantined.insert(tenant) {
                return Some(Action::Quarantine {
                    tenant,
                    restore: false,
                });
            }
        }
        None
    }

    /// The oracle found a divergence at guest step `step`. The first
    /// one restores from the newest checkpoint; a second one, or one
    /// with nothing to restore, stops the run.
    pub(super) fn on_divergence(&mut self, step: u64, vclock: u64) -> Action {
        if !self.self_heal || self.diverged || self.ring.is_empty() {
            return Action::Stop;
        }
        self.diverged = true;
        self.ledger.failures.push(ServeError {
            class: FailureClass::Divergence,
            request: u64::MAX,
            tenant: u64::MAX,
            hart: 0,
            vclock,
            detail: step,
        });
        Action::Restore
    }

    /// Watchdog budget for request `idx`: the base shifted left once
    /// per prior expiry, at most [`MAX_BACKOFF_SHIFT`] times.
    fn watchdog_budget(&self, idx: u64) -> u64 {
        let n = self.expiries.get(&idx).copied().unwrap_or(0);
        self.watchdog_base << n.min(MAX_BACKOFF_SHIFT)
    }

    /// Rounds without progress before the stall fallback fires.
    fn stall_rounds(&self) -> u64 {
        64 * self.watchdog_base + 500_000
    }

    /// The end of scheduling round `rounds`. `inflight` holds each
    /// hart's request, `running(h)` whether hart `h` still has its
    /// doorbell raised, and `last_progress` the round of the last
    /// resolution.
    ///
    /// Watchdog: the lowest hart whose request outlived its budget is
    /// wedged. A quarantined tenant's wedge is already dying (the
    /// deny-all publish denies it within a few polls) and is skipped.
    /// The tenant is quarantined, and the run restores from the newest
    /// checkpoint while the request has fewer than
    /// [`MAX_REQUEST_RETRIES`] expiries; otherwise the deny-all alone
    /// un-wedges the hart.
    ///
    /// Stall: with the watchdog resolving wedges, a run without
    /// progress for [`Policy::stall_rounds`] is pathological, and
    /// everything outstanding is aborted so the run terminates.
    ///
    /// # Panics
    ///
    /// Without self-healing, when nothing resolved for 2M rounds.
    pub(super) fn on_round_end(
        &mut self,
        rounds: u64,
        inflight: &[Option<Request>],
        running: impl Fn(usize) -> bool,
        last_progress: u64,
        vclock: u64,
    ) -> Option<Action> {
        let idle = rounds.saturating_sub(last_progress);
        if !self.self_heal {
            assert!(
                idle < UNHEALED_STALL_ROUNDS,
                "serve: no completion in 2M rounds (vclock {vclock}, {} in flight)",
                inflight.iter().flatten().count()
            );
            return None;
        }
        let expired = (0..self.harts).find_map(|h| {
            let (req, at) = (inflight[h]?, self.dispatched[h]?);
            let over = !self.quarantined.contains(&req.tenant)
                && running(h)
                && rounds.saturating_sub(at) > self.watchdog_budget(req.idx);
            over.then_some((h, req, at))
        });
        if let Some((h, req, at)) = expired {
            self.ledger.failures.push(ServeError {
                class: FailureClass::Watchdog,
                request: req.idx,
                tenant: req.tenant as u64,
                hart: h as u64,
                vclock,
                detail: rounds.saturating_sub(at),
            });
            self.quarantined.insert(req.tenant);
            let n = self.expiries.entry(req.idx).or_insert(0);
            let restore = !self.ring.is_empty() && *n < MAX_REQUEST_RETRIES;
            *n += 1;
            return Some(Action::Quarantine {
                tenant: req.tenant,
                restore,
            });
        }
        if idle >= self.stall_rounds() {
            self.ledger.stalls += 1;
            return Some(Action::AbortAll);
        }
        None
    }

    /// Whether a checkpoint is due at `progress` resolved requests.
    pub(super) fn checkpoint_due(&self, progress: u64) -> bool {
        progress >= self.next_checkpoint
    }

    /// A checkpoint `frame` was captured at virtual time `at` and
    /// `progress`: keep it and advance the cadence. Returns the
    /// frame's digest.
    pub(super) fn on_checkpoint(&mut self, at: u64, progress: u64, frame: Vec<u8>) -> u64 {
        let digest = self.ring.push(at, progress, frame);
        let gap = progress.saturating_sub(self.last_ckpt_progress);
        self.ledger.max_ckpt_gap = self.ledger.max_ckpt_gap.max(gap);
        self.last_ckpt_progress = progress;
        self.next_checkpoint = progress + self.checkpoint_every;
        digest
    }

    /// Restart the checkpoint cadence at `progress` and every
    /// in-flight request's watchdog window at `rounds` (the run stands
    /// at a restored round boundary).
    pub(super) fn rearm(&mut self, progress: u64, inflight: &[Option<Request>], rounds: u64) {
        if self.checkpoint_every > 0 {
            self.next_checkpoint = progress + self.checkpoint_every;
            self.last_ckpt_progress = progress;
        }
        for (d, slot) in self.dispatched.iter_mut().zip(inflight) {
            *d = slot.map(|_| rounds);
        }
    }

    /// The run was restored to a checkpoint: ledger the episode, count
    /// the rewound in-flight requests as retries, and re-arm.
    pub(super) fn on_restored(
        &mut self,
        span: RecoverySpan,
        inflight: &[Option<Request>],
        rounds: u64,
    ) {
        self.ledger.recoveries += 1;
        self.ledger.retries += inflight.iter().flatten().count() as u64;
        self.ledger.spans.push(span);
        self.rearm(span.restored_progress, inflight, rounds);
    }

    /// The finished ledger. The decision digest is tenant-granular on
    /// purpose: which request first trips a fault races across hart
    /// counts, but the quarantined tenant *set* and the shed set are
    /// schedule-independent.
    pub(super) fn into_report(self, shed: &Shedder) -> RecoveryReport {
        let quarantined: Vec<u64> = self.quarantined.iter().map(|&t| t as u64).collect();
        let mut decision_digest = shed.digest;
        for &t in &quarantined {
            decision_digest ^= record_digest(u64::MAX, t, 0, STATUS_REJECTED, 0);
        }
        RecoveryReport {
            quarantines: quarantined.len() as u64,
            quarantined,
            decision_digest,
            sheds: shed.count,
            shed_digest: shed.digest,
            checkpoints: self.ring.pushed(),
            ..self.ledger
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::generator::{shed_plan, AppKind, Generator};
    use super::*;

    const CAUSE_28: u64 = Exception::CAUSE_GRID_INTEGRITY;

    fn healing(harts: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(4, 64, harts, 9);
        cfg.self_heal = true;
        cfg
    }

    fn req(idx: u64, tenant: usize) -> Request {
        Request {
            idx,
            arrival: 0,
            tenant,
            kind: AppKind::Gzip,
            iters: 16,
        }
    }

    #[test]
    fn admission_sheds_past_the_deadline_then_rejects_quarantined_tenants() {
        let mut cfg = healing(1);
        cfg.mean_gap = 16;
        cfg.shed_deadline = 2_000;
        let mut p = Policy::new(&cfg);
        let mut shedder = Shedder::default();
        let shed: Vec<u64> = Generator::new(&cfg)
            .filter(|r| p.admit(&mut shedder, r) == Some(STATUS_SHED))
            .map(|r| r.idx)
            .collect();
        assert!(!shed.is_empty(), "a tight deadline sheds");
        assert_eq!(shed, shed_plan(&cfg), "the host-side replay agrees");

        // A lone arrival fits; one whose service alone exceeds the
        // deadline is shed and books nothing.
        let mut s = Shedder::default();
        let mut slow = req(0, 0);
        slow.iters = 1_000;
        assert!(s.sheds(&slow, 2_000));
        assert_eq!(s.free, 0);
        assert!(!s.sheds(&req(1, 0), 2_000));
        assert_eq!(s.free, req(1, 0).est_service());
        assert!(!s.sheds(&slow, 0), "deadline 0 turns shedding off");

        assert_eq!(p.admit(&mut Shedder::default(), &req(0, 2)), None);
        assert!(p.quarantined.insert(2));
        assert_eq!(
            p.admit(&mut Shedder::default(), &req(0, 2)),
            Some(STATUS_REJECTED)
        );
        assert!(p.rejects(2) && !p.rejects(1));
        cfg.self_heal = false;
        let mut off = Policy::new(&cfg);
        off.quarantined.insert(2);
        assert!(!off.rejects(2), "only the healing layer rejects");
    }

    #[test]
    fn cause_28_splits_into_integrity_and_shootdown_expiry() {
        let mut cfg = healing(4);
        cfg.request_fault_ppm = 500_000;
        let plan = ServeFaultPlan::new(cfg.seed, cfg.request_fault_ppm);
        let jam = (0..)
            .find(|&i| plan.fault_for(i) == Some(ServeFaultKind::ShootdownJam))
            .unwrap();
        let clean = (0..).find(|&i| plan.fault_for(i).is_none()).unwrap();

        let mut p = Policy::new(&cfg);
        assert_eq!(
            p.on_dispatch(1, &req(jam, 1), 5),
            Some(ServeFaultKind::ShootdownJam)
        );
        p.on_harvest(1, &req(jam, 1), Some(CAUSE_28), 77);
        p.on_harvest(2, &req(clean, 2), Some(CAUSE_28), 77);
        p.on_harvest(3, &req(clean + 1, 3), Some(2), 77);
        assert!(p.ledger.failures.is_empty(), "classified after the sweep");
        let q = |tenant| Action::Quarantine {
            tenant,
            restore: false,
        };
        assert_eq!(p.next_deferred(), Some(q(1)));
        assert_eq!(p.next_deferred(), Some(q(2)));
        assert_eq!(p.next_deferred(), None, "other causes are no failure");
        let classes: Vec<_> = p.ledger.failures.iter().map(|e| e.class).collect();
        assert_eq!(
            classes,
            [FailureClass::ShootdownExpiry, FailureClass::Integrity]
        );
        assert_eq!(p.ledger.failures[0].detail, CAUSE_28);
        assert_eq!(p.ledger.failures[0].vclock, 77);

        // One hart has no cross-hart deadline: the jam is injected as
        // a table flip, and its denial is an integrity failure.
        cfg.harts = 1;
        let mut one = Policy::new(&cfg);
        assert_eq!(
            one.on_dispatch(0, &req(jam, 1), 5),
            Some(ServeFaultKind::TableFlip { bit: 0 })
        );
        one.on_harvest(0, &req(jam, 1), Some(CAUSE_28), 0);
        one.next_deferred();
        assert_eq!(one.ledger.failures[0].class, FailureClass::Integrity);
    }

    #[test]
    fn denials_of_quarantined_tenants_are_rejections() {
        let mut p = Policy::new(&healing(2));
        p.quarantined.insert(3);
        p.on_harvest(0, &req(40, 3), Some(CAUSE_28), 0);
        p.on_harvest(1, &req(41, 3), Some(CAUSE_28), 0);
        // Two cause-28 denials of one tenant in one sweep: both are
        // failures, the tenant is quarantined once.
        p.on_harvest(0, &req(42, 1), Some(CAUSE_28), 0);
        p.on_harvest(1, &req(43, 1), Some(CAUSE_28), 0);
        assert!(p.next_deferred().is_some());
        assert_eq!(p.next_deferred(), None);
        assert_eq!(p.ledger.rejections, [40, 41]);
        assert_eq!(p.ledger.failures.len(), 2);
    }

    #[test]
    fn watchdog_budget_backs_off_with_shift_cap_3() {
        let mut cfg = healing(1);
        cfg.watchdog_rounds = 100;
        let mut p = Policy::new(&cfg);
        let inflight = [Some(req(7, 0))];
        let mut budgets = Vec::new();
        for _ in 0..5 {
            budgets.push(p.watchdog_budget(7));
            p.on_dispatch(0, &req(7, 0), 0);
            let budget = p.watchdog_budget(7);
            assert_eq!(p.on_round_end(budget, &inflight, |_| true, budget, 0), None);
            let fired = p.on_round_end(budget + 1, &inflight, |_| true, budget, 0);
            assert!(matches!(fired, Some(Action::Quarantine { tenant: 0, .. })));
            p.quarantined.clear(); // let the same tenant expire again
        }
        assert_eq!(budgets, [100, 200, 400, 800, 800]);
        assert_eq!(p.watchdog_budget(8), 100, "per request");
        assert_eq!(Policy::new(&healing(1)).watchdog_budget(0), 2048);

        // Idle harts, finished requests and quarantined tenants never
        // expire.
        let mut q = Policy::new(&cfg);
        q.on_dispatch(0, &req(7, 0), 0);
        assert_eq!(q.on_round_end(500, &inflight, |_| false, 500, 0), None);
        q.quarantined.insert(0);
        assert_eq!(q.on_round_end(500, &inflight, |_| true, 500, 0), None);
        assert_eq!(q.on_round_end(500, &[None], |_| true, 500, 0), None);
    }

    #[test]
    fn watchdog_restores_at_most_3_times_per_request() {
        let mut cfg = healing(2);
        cfg.watchdog_rounds = 10;
        let mut p = Policy::new(&cfg);
        let inflight = [None, Some(req(5, 1))];
        let mut restores = Vec::new();
        for _ in 0..5 {
            p.on_dispatch(1, &req(5, 1), 0);
            let r = p.on_round_end(1_000, &inflight, |_| true, 1_000, 9);
            let Some(Action::Quarantine { tenant: 1, restore }) = r else {
                panic!("watchdog did not fire: {r:?}");
            };
            restores.push(restore);
            p.quarantined.clear();
            if restores.len() == 1 {
                assert!(!restore, "nothing to restore before a checkpoint");
                p.on_checkpoint(0, 0, Vec::new());
                p.expiries.clear();
            }
        }
        assert_eq!(restores, [false, true, true, true, false]);
        let e = p.ledger.failures[0];
        assert_eq!((e.class, e.request, e.hart), (FailureClass::Watchdog, 5, 1));
        assert_eq!(e.detail, 1_000, "rounds waited");
    }

    #[test]
    fn divergence_restores_once_then_stops() {
        let mut p = Policy::new(&healing(1));
        assert_eq!(p.on_divergence(3, 0), Action::Stop, "no checkpoint yet");
        p.on_checkpoint(0, 0, Vec::new());
        assert_eq!(p.on_divergence(3, 50), Action::Restore);
        assert_eq!(p.on_divergence(4, 60), Action::Stop);
        assert_eq!(p.ledger.failures.len(), 1);
        assert_eq!(p.ledger.failures[0].class, FailureClass::Divergence);
        assert_eq!(p.ledger.failures[0].detail, 3);

        let mut cfg = healing(1);
        cfg.self_heal = false;
        let mut off = Policy::new(&cfg);
        off.on_checkpoint(0, 0, Vec::new());
        assert_eq!(off.on_divergence(3, 0), Action::Stop);
    }

    #[test]
    fn stall_fallback_fires_at_64x_budget_plus_500k_rounds() {
        let mut cfg = healing(1);
        cfg.watchdog_rounds = 100;
        let mut p = Policy::new(&cfg);
        let stall = 64 * 100 + 500_000;
        assert_eq!(p.on_round_end(stall - 1 + 7, &[None], |_| true, 7, 0), None);
        assert!(p.ledger.stalls == 0);
        assert_eq!(
            p.on_round_end(stall + 7, &[None], |_| true, 7, 0),
            Some(Action::AbortAll)
        );
        assert!(p.ledger.stalls == 1);

        cfg.self_heal = false;
        let mut off = Policy::new(&cfg);
        assert_eq!(off.on_round_end(stall, &[None], |_| true, 0, 0), None);
        let hang = std::panic::catch_unwind(move || {
            off.on_round_end(UNHEALED_STALL_ROUNDS, &[None], |_| true, 0, 0)
        });
        assert!(hang.is_err(), "an unhealed stall is a harness bug");
    }

    #[test]
    fn checkpoint_cadence_follows_progress() {
        let mut cfg = healing(1);
        cfg.checkpoint_every = 10;
        let mut p = Policy::new(&cfg);
        assert!(!p.checkpoint_due(9) && p.checkpoint_due(10));
        p.on_checkpoint(1, 12, vec![1]);
        assert!(!p.checkpoint_due(21) && p.checkpoint_due(22));
        p.on_checkpoint(2, 30, vec![2]);
        assert_eq!(p.ledger.max_ckpt_gap, 18);
        assert_eq!(p.ring.latest().unwrap().progress, 30);

        // A restore to the checkpoint at 12 restarts the cadence there
        // and the watchdog windows at the restored round.
        let span = RecoverySpan {
            failed_progress: 35,
            restored_progress: 12,
            failed_vclock: 900,
            restored_vclock: 1,
        };
        p.on_restored(span, &[Some(req(3, 0))], 40);
        assert!(!p.checkpoint_due(21) && p.checkpoint_due(22));
        assert_eq!(p.dispatched, [Some(40)]);
        assert_eq!((p.ledger.recoveries, p.ledger.retries), (1, 1));
        p.ring.pop_latest();
        assert_eq!(p.ring.latest().unwrap().progress, 12);
        assert_eq!(p.into_report(&Shedder::default()).checkpoints, 2);

        cfg.checkpoint_every = 0;
        let never = Policy::new(&cfg);
        assert!(!never.checkpoint_due(u64::MAX - 1));
    }

    #[test]
    fn quarantine_set_is_monotone_and_reported_ascending() {
        let mut p = Policy::new(&healing(1));
        assert!(p.quarantined.insert(3));
        assert!(p.quarantined.insert(1));
        assert!(!p.quarantined.insert(3), "a tenant is quarantined once");
        p.on_checkpoint(0, 0, Vec::new());
        let span = RecoverySpan {
            failed_progress: 5,
            restored_progress: 0,
            failed_vclock: 5,
            restored_vclock: 0,
        };
        p.on_restored(span, &[None], 0);
        assert!(p.quarantined.iter().eq(&[1, 3]));
        let shed = Shedder {
            free: 0,
            count: 2,
            digest: 0xABC,
        };
        let r = p.into_report(&shed);
        assert_eq!(r.quarantined, [1, 3]);
        assert_eq!(r.quarantines, 2);
        assert_eq!((r.sheds, r.shed_digest), (2, 0xABC));
        let tag = |t| record_digest(u64::MAX, t, 0, STATUS_REJECTED, 0);
        assert_eq!(r.decision_digest, 0xABC ^ tag(1) ^ tag(3));
    }
}
