//! Request-scoped tracing: trace IDs, per-hart span buffers, tail-based
//! sampling, and latency exemplars.
//!
//! The serve harness assigns each request a [`TraceId`] at arrival and
//! threads it through dispatch, gate entry/exit, PCU denials, shootdown
//! publish→ack windows, and JIT deopts. Each hart records into the
//! request buffer of its own [`Obs`](crate::Obs) spine (no sharing
//! between harts), and the driver drains the buffers at round
//! boundaries into a [`TraceCollector`] that assembles per-request
//! span trees.
//!
//! Tracing is observe-only by construction: request buffers never feed
//! the timing model, the interleaver, or the completion digest, so
//! results are bit-identical with tracing off, sampled, or full.
//!
//! **Tail-based sampling** ([`TracePolicy`]): a finished tree is kept
//! when the mode is [`TraceMode::Full`], when the request's end-to-end
//! latency crosses the slow threshold, when the request was denied,
//! when a seeded 1-in-N survey picks its ID (hart-count independent:
//! the pick hashes only `seed ^ id`), or when the tree was retained as
//! a latency exemplar. **Exemplars** ([`Exemplars`]) keep up to K trace
//! IDs per log₂ histogram bucket — the same bucketing as
//! [`Histogram`](crate::Histogram) — so a reported "p99 = X cycles"
//! resolves to exportable traces from the bucket that answered it.

use std::collections::BTreeMap;

use crate::json::{Json, ToJson};
use crate::prof::{bucket_index, bucket_upper};

/// Identifier tying spans to one serve request. `0` means "no request
/// in flight" and is never assigned to a request.
pub type TraceId = u64;

/// Why a compiled superblock bailed back to the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeoptReason {
    /// Per-block PCU guard mismatch (context changed since compile).
    Guard,
    /// An op inside the block trapped.
    Trap,
    /// A store left RAM (MMIO must go through the slow path).
    Mmio,
    /// The coherence epoch moved (shootdown pending or absorbed).
    Epoch,
    /// A pending interrupt must be taken between instructions.
    Interrupt,
    /// The timer tick landed inside the block's window.
    Timer,
    /// The block did not fit in the remaining step budget.
    Budget,
}

impl DeoptReason {
    /// Number of deopt reasons.
    pub const COUNT: usize = 7;

    /// All reasons, in index order.
    pub const ALL: [DeoptReason; DeoptReason::COUNT] = [
        DeoptReason::Guard,
        DeoptReason::Trap,
        DeoptReason::Mmio,
        DeoptReason::Epoch,
        DeoptReason::Interrupt,
        DeoptReason::Timer,
        DeoptReason::Budget,
    ];

    /// Stable index of this reason in per-reason counter arrays.
    pub fn index(self) -> usize {
        match self {
            DeoptReason::Guard => 0,
            DeoptReason::Trap => 1,
            DeoptReason::Mmio => 2,
            DeoptReason::Epoch => 3,
            DeoptReason::Interrupt => 4,
            DeoptReason::Timer => 5,
            DeoptReason::Budget => 6,
        }
    }

    /// Inverse of [`DeoptReason::index`].
    pub fn from_index(i: usize) -> Option<DeoptReason> {
        DeoptReason::ALL.get(i).copied()
    }

    /// Stable lowercase name (registry suffix, Perfetto label).
    pub fn name(self) -> &'static str {
        match self {
            DeoptReason::Guard => "guard",
            DeoptReason::Trap => "trap",
            DeoptReason::Mmio => "mmio",
            DeoptReason::Epoch => "epoch",
            DeoptReason::Interrupt => "interrupt",
            DeoptReason::Timer => "timer",
            DeoptReason::Budget => "budget",
        }
    }
}

/// One request-scoped event, recorded by a hart at a cycle timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqEvent {
    /// A gate call switched the hart into `domain` (`hccall`/`hccalls`).
    GateEnter {
        /// Destination ISA domain.
        domain: u16,
    },
    /// A gate return switched the hart back into `domain` (`hcrets`).
    GateExit {
        /// Destination ISA domain.
        domain: u16,
    },
    /// The PCU denied a privilege check.
    Deny {
        /// Architectural trap cause raised (24–28 for Grid faults).
        cause: u64,
        /// Kind-specific detail (CSR address, class index, …).
        detail: u64,
    },
    /// The hart acknowledged a cross-hart shootdown.
    ShootdownAck {
        /// Privilege-cache flushes absorbed.
        flushes: u16,
        /// Coherence epoch acknowledged.
        epoch: u64,
    },
    /// The JIT deoptimized back to the interpreter.
    Deopt {
        /// Why the block bailed.
        reason: DeoptReason,
    },
}

impl ReqEvent {
    /// `(tag, a, b)` wire encoding for the snapshot seam.
    fn to_words(self) -> (u64, u64, u64) {
        match self {
            ReqEvent::GateEnter { domain } => (0, domain as u64, 0),
            ReqEvent::GateExit { domain } => (1, domain as u64, 0),
            ReqEvent::Deny { cause, detail } => (2, cause, detail),
            ReqEvent::ShootdownAck { flushes, epoch } => (3, flushes as u64, epoch),
            ReqEvent::Deopt { reason } => (4, reason.index() as u64, 0),
        }
    }

    /// Inverse of [`ReqEvent::to_words`].
    fn from_words(tag: u64, a: u64, b: u64) -> Option<ReqEvent> {
        Some(match tag {
            0 => ReqEvent::GateEnter { domain: a as u16 },
            1 => ReqEvent::GateExit { domain: a as u16 },
            2 => ReqEvent::Deny {
                cause: a,
                detail: b,
            },
            3 => ReqEvent::ShootdownAck {
                flushes: a as u16,
                epoch: b,
            },
            4 => ReqEvent::Deopt {
                reason: DeoptReason::from_index(a as usize)?,
            },
            _ => return None,
        })
    }

    /// Stable lowercase name (Perfetto category).
    pub fn name(&self) -> &'static str {
        match self {
            ReqEvent::GateEnter { .. } => "gate_enter",
            ReqEvent::GateExit { .. } => "gate_exit",
            ReqEvent::Deny { .. } => "deny",
            ReqEvent::ShootdownAck { .. } => "shootdown_ack",
            ReqEvent::Deopt { .. } => "deopt",
        }
    }
}

/// One buffered event: the request it belongs to (`0` when the hart was
/// idle — only shootdown acks are recorded idle) and the hart-local
/// cycle it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HartEvent {
    /// Request the event belongs to (0 = none).
    pub id: TraceId,
    /// Hart-local cycle timestamp (CSR `cycle` at the event).
    pub t: u64,
    /// The event.
    pub ev: ReqEvent,
}

/// Bound on buffered events per hart between round-boundary drains.
/// A round is ≤ a few hundred steps and request events are sparse, so
/// the bound only bites on pathological event storms; overflow is
/// counted, never reallocated past.
const HART_BUF_CAP: usize = 4096;

/// One hart's request-event buffer, a consumer of its
/// [`Spine`](crate::Spine). Harts never share one, so no locks; the
/// driver drains them at round boundaries.
#[derive(Debug, Default)]
pub(crate) struct HartBuf {
    pub(crate) cur: TraceId,
    pub(crate) buf: Vec<HartEvent>,
    pub(crate) emitted: u64,
    pub(crate) dropped: u64,
}

impl HartBuf {
    /// Record `ev` at hart-local cycle `t`, tagged with the current
    /// request. Events other than shootdown acks are skipped while idle
    /// (`cur == 0`): there is no request to attribute them to.
    pub(crate) fn emit(&mut self, t: u64, ev: ReqEvent) {
        if self.cur == 0 && !matches!(ev, ReqEvent::ShootdownAck { .. }) {
            return;
        }
        self.emitted += 1;
        if self.buf.len() < HART_BUF_CAP {
            self.buf.push(HartEvent {
                id: self.cur,
                t,
                ev,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// How much of the request stream keeps full span trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracers installed, no trees collected.
    #[default]
    Off,
    /// Tracers on; keep only tail-sampled trees (slow / denied /
    /// survey / exemplar).
    Sampled,
    /// Tracers on; keep every tree.
    Full,
}

impl TraceMode {
    /// Parse a CLI spelling (`off` / `sampled` / `full`).
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s {
            "off" => Some(TraceMode::Off),
            "sampled" => Some(TraceMode::Sampled),
            "full" => Some(TraceMode::Full),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Sampled => "sampled",
            TraceMode::Full => "full",
        }
    }

    /// Stable wire index.
    pub fn index(self) -> u64 {
        match self {
            TraceMode::Off => 0,
            TraceMode::Sampled => 1,
            TraceMode::Full => 2,
        }
    }

    /// Inverse of [`TraceMode::index`].
    pub fn from_index(i: u64) -> Option<TraceMode> {
        match i {
            0 => Some(TraceMode::Off),
            1 => Some(TraceMode::Sampled),
            2 => Some(TraceMode::Full),
            _ => None,
        }
    }
}

/// Tail-sampling policy for finished trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePolicy {
    /// Overall mode.
    pub mode: TraceMode,
    /// Keep every tree whose end-to-end latency (cycles) is ≥ this
    /// threshold (0 disables the slow gate).
    pub slow: u64,
    /// Keep a seeded 1-in-N survey of all trees (0 disables).
    pub survey: u64,
    /// Seed decorrelating the survey pick from the workload seed.
    pub seed: u64,
    /// Trace IDs retained per histogram bucket as latency exemplars.
    pub exemplar_k: usize,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy {
            mode: TraceMode::Off,
            slow: 0,
            survey: 0,
            seed: 0,
            exemplar_k: 4,
        }
    }
}

/// `splitmix64` finalizer: decorrelates the survey pick from raw IDs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TracePolicy {
    /// Whether the seeded 1-in-N survey keeps `id`. Depends only on
    /// `(seed, survey, id)`, never on scheduling — so the survey set is
    /// identical across hart counts.
    pub fn survey_hit(&self, id: TraceId) -> bool {
        self.survey != 0 && splitmix64(self.seed ^ id).is_multiple_of(self.survey)
    }
}

/// Up to K trace IDs per log₂ latency bucket, sharing the exact
/// bucketing of [`Histogram`](crate::Histogram). Kept beside the
/// histogram (not inside it) so the histogram's wire format and
/// equality are untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exemplars {
    k: usize,
    buckets: BTreeMap<usize, Vec<TraceId>>,
}

impl Exemplars {
    /// An empty exemplar store retaining up to `k` IDs per bucket.
    pub fn new(k: usize) -> Self {
        Exemplars {
            k,
            buckets: BTreeMap::new(),
        }
    }

    /// Offer `(value, id)`; returns `true` when the ID was retained.
    /// Retention keeps the K *smallest* IDs per bucket, which makes the
    /// final exemplar set a pure function of the offered `(value, id)`
    /// multiset — independent of offer order. Values that don't depend
    /// on scheduling (e.g. guest-measured service cycles) therefore
    /// yield identical exemplar IDs across hart counts.
    pub fn offer(&mut self, v: u64, id: TraceId) -> bool {
        if self.k == 0 {
            return false;
        }
        let slot = self.buckets.entry(bucket_index(v)).or_default();
        let full = slot.len() >= self.k;
        if full && slot.last().is_some_and(|max| id >= *max) {
            return false;
        }
        let pos = slot.binary_search(&id).unwrap_or_else(|p| p);
        slot.insert(pos, id);
        if full {
            slot.pop();
        }
        true
    }

    /// The exemplar IDs for the bucket containing `v` (empty when the
    /// bucket holds none). A histogram quantile interpolates inside its
    /// winning bucket, so `for_value(p99)` answers "which requests does
    /// the reported p99 describe".
    pub fn for_value(&self, v: u64) -> &[TraceId] {
        self.buckets
            .get(&bucket_index(v))
            .map_or(&[], |ids| ids.as_slice())
    }

    /// All retained IDs, bucket-ascending.
    pub fn ids(&self) -> Vec<TraceId> {
        self.buckets.values().flatten().copied().collect()
    }

    /// Flat word export (snapshot seam).
    pub fn export_words(&self) -> Vec<u64> {
        let mut w = vec![self.k as u64, self.buckets.len() as u64];
        for (b, ids) in &self.buckets {
            w.push(*b as u64);
            w.push(ids.len() as u64);
            w.extend_from_slice(ids);
        }
        w
    }

    /// Restore from [`Exemplars::export_words`]; returns words consumed.
    pub fn import_words(&mut self, w: &[u64]) -> usize {
        let mut c = Cursor::new(w);
        self.k = c.get() as usize;
        self.buckets.clear();
        let n = c.get();
        for _ in 0..n {
            let b = c.get() as usize;
            let len = c.get();
            let ids: Vec<u64> = (0..len).map(|_| c.get()).collect();
            self.buckets.insert(b, ids);
        }
        c.pos
    }
}

impl ToJson for Exemplars {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.buckets
                .iter()
                .map(|(b, ids)| {
                    Json::obj([
                        ("le", Json::U64(bucket_upper(*b))),
                        (
                            "trace_ids",
                            Json::Arr(ids.iter().map(|id| Json::U64(*id)).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Pipeline self-accounting: what the tracing layer emitted, dropped,
/// and kept. Reported in the serve `telemetry` extras block and gated
/// by CI's overhead budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Requests whose trees were opened.
    pub requests: u64,
    /// Span events emitted by hart tracers.
    pub events_emitted: u64,
    /// Span events dropped at the hart buffer bound.
    pub events_dropped: u64,
    /// Span events harvested into trees at round boundaries.
    pub events_harvested: u64,
    /// Finished trees kept (any reason).
    pub kept: u64,
    /// Finished trees discarded by tail sampling.
    pub discarded: u64,
    /// Kept because the mode was `full`.
    pub kept_full: u64,
    /// Kept because latency crossed the slow threshold.
    pub kept_slow: u64,
    /// Kept because the request was denied.
    pub kept_denied: u64,
    /// Kept because the seeded survey picked the ID.
    pub kept_survey: u64,
    /// Kept because an exemplar slot retained the ID.
    pub kept_exemplar: u64,
    /// Kept trees dropped at the retention bound.
    pub trees_dropped: u64,
}

impl TelemetryStats {
    /// Fixed-order word export (snapshot seam).
    fn export_words(&self) -> [u64; 12] {
        [
            self.requests,
            self.events_emitted,
            self.events_dropped,
            self.events_harvested,
            self.kept,
            self.discarded,
            self.kept_full,
            self.kept_slow,
            self.kept_denied,
            self.kept_survey,
            self.kept_exemplar,
            self.trees_dropped,
        ]
    }

    fn import_words(&mut self, c: &mut Cursor) {
        self.requests = c.get();
        self.events_emitted = c.get();
        self.events_dropped = c.get();
        self.events_harvested = c.get();
        self.kept = c.get();
        self.discarded = c.get();
        self.kept_full = c.get();
        self.kept_slow = c.get();
        self.kept_denied = c.get();
        self.kept_survey = c.get();
        self.kept_exemplar = c.get();
        self.trees_dropped = c.get();
    }
}

impl ToJson for TelemetryStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::U64(self.requests)),
            ("events_emitted", Json::U64(self.events_emitted)),
            ("events_dropped", Json::U64(self.events_dropped)),
            ("events_harvested", Json::U64(self.events_harvested)),
            ("kept", Json::U64(self.kept)),
            ("discarded", Json::U64(self.discarded)),
            ("kept_full", Json::U64(self.kept_full)),
            ("kept_slow", Json::U64(self.kept_slow)),
            ("kept_denied", Json::U64(self.kept_denied)),
            ("kept_survey", Json::U64(self.kept_survey)),
            ("kept_exemplar", Json::U64(self.kept_exemplar)),
            ("trees_dropped", Json::U64(self.trees_dropped)),
        ])
    }
}

/// A contiguous domain-residency child span of one request, derived
/// from its gate events. Segments are non-overlapping and lie inside
/// `[start, end)` of the root span, so their durations sum to at most
/// the request's measured latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// ISA domain resident during the segment.
    pub domain: u16,
    /// First cycle (global virtual time).
    pub start: u64,
    /// One past the last cycle (global virtual time).
    pub end: u64,
}

impl Segment {
    /// Length of the segment in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Bound on retained events per tree: a request is a handful of gate
/// crossings plus rare denials/deopts, so the bound only bites on
/// event storms; overflow is counted on the tree.
const TREE_EVENT_CAP: usize = 512;

/// One request's span tree: the root span plus its timestamped events,
/// all in global virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqTrace {
    /// Trace ID (request index + 1).
    pub id: TraceId,
    /// Tenant the request belongs to.
    pub tenant: u16,
    /// Workload kind index.
    pub kind: u16,
    /// Hart the request was dispatched to.
    pub hart: usize,
    /// Global virtual time the request arrived (generator schedule).
    pub arrival: u64,
    /// Global virtual time the request was dispatched to its hart.
    pub start: u64,
    /// Global virtual time the completion was harvested.
    pub end: u64,
    /// End-to-end latency recorded in the latency histogram
    /// (`end - arrival`, including queueing).
    pub latency: u64,
    /// The request completed denied (doorbell 3).
    pub denied: bool,
    /// Timestamped child events, oldest first (global virtual time).
    pub events: Vec<(u64, ReqEvent)>,
    /// Events discarded at the per-tree bound.
    pub events_dropped: u64,
}

impl ReqTrace {
    /// Derive the non-overlapping domain-residency child spans between
    /// consecutive gate events. The first segment opens at the first
    /// gate entry (dispatch spin-wait before it is not attributed);
    /// the last closes at `end`. Denials/deopts/acks are markers, not
    /// segments.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut cur: Option<(u16, u64)> = None;
        for (t, ev) in &self.events {
            let dest = match ev {
                ReqEvent::GateEnter { domain } | ReqEvent::GateExit { domain } => *domain,
                _ => continue,
            };
            let t = (*t).clamp(self.start, self.end);
            if let Some((d, since)) = cur {
                if t > since {
                    out.push(Segment {
                        domain: d,
                        start: since,
                        end: t,
                    });
                }
            }
            cur = Some((dest, t));
        }
        if let Some((d, since)) = cur {
            if self.end > since {
                out.push(Segment {
                    domain: d,
                    start: since,
                    end: self.end,
                });
            }
        }
        out
    }

    fn push_event(&mut self, t: u64, ev: ReqEvent) {
        if self.events.len() < TREE_EVENT_CAP {
            self.events.push((t, ev));
        } else {
            self.events_dropped += 1;
        }
    }

    fn export_words(&self, w: &mut Vec<u64>) {
        w.push(self.id);
        w.push(self.tenant as u64);
        w.push(self.kind as u64);
        w.push(self.hart as u64);
        w.push(self.arrival);
        w.push(self.start);
        w.push(self.end);
        w.push(self.latency);
        w.push(self.denied as u64);
        w.push(self.events_dropped);
        w.push(self.events.len() as u64);
        for (t, ev) in &self.events {
            let (tag, a, b) = ev.to_words();
            w.push(*t);
            w.push(tag);
            w.push(a);
            w.push(b);
        }
    }

    fn import_words(c: &mut Cursor) -> ReqTrace {
        let mut tr = ReqTrace {
            id: c.get(),
            tenant: c.get() as u16,
            kind: c.get() as u16,
            hart: c.get() as usize,
            arrival: c.get(),
            start: c.get(),
            end: c.get(),
            latency: c.get(),
            denied: c.get() != 0,
            events_dropped: c.get(),
            events: Vec::new(),
        };
        let n = c.get().min(TREE_EVENT_CAP as u64);
        for _ in 0..n {
            let (t, tag, a, b) = (c.get(), c.get(), c.get(), c.get());
            if let Some(ev) = ReqEvent::from_words(tag, a, b) {
                tr.events.push((t, ev));
            }
        }
        tr
    }
}

impl ToJson for ReqTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::U64(self.id)),
            ("tenant", Json::U64(self.tenant as u64)),
            ("kind", Json::U64(self.kind as u64)),
            ("hart", Json::U64(self.hart as u64)),
            ("arrival", Json::U64(self.arrival)),
            ("start", Json::U64(self.start)),
            ("end", Json::U64(self.end)),
            ("latency", Json::U64(self.latency)),
            ("denied", Json::Bool(self.denied)),
            ("events", Json::U64(self.events.len() as u64)),
        ])
    }
}

/// Bound on retained kept trees (overflow counted, not stored).
const KEPT_CAP: usize = 4096;

/// Bound on retained shootdown publish/ack flow endpoints.
const SHOOTDOWN_CAP: usize = 4096;

/// Assembles drained hart events into per-request span trees, applies
/// the tail-sampling policy at request completion, and retains latency
/// exemplars plus shootdown publish→ack flow endpoints for export.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    policy: TracePolicy,
    inflight: BTreeMap<TraceId, ReqTrace>,
    kept: Vec<ReqTrace>,
    /// Pipeline self-accounting.
    pub stats: TelemetryStats,
    /// End-to-end latency exemplars (the histogram serve reports p99
    /// from).
    pub latency_exemplars: Exemplars,
    /// Guest-measured service-cycle exemplars. Service cycles are
    /// hart-count independent (they exclude queueing), so these IDs
    /// are identical across hart counts.
    pub service_exemplars: Exemplars,
    publishes: Vec<(u64, u64)>,
    acks: Vec<(u64, usize, u64)>,
}

impl TraceCollector {
    /// A collector enforcing `policy`.
    pub fn new(policy: TracePolicy) -> Self {
        TraceCollector {
            policy,
            latency_exemplars: Exemplars::new(policy.exemplar_k),
            service_exemplars: Exemplars::new(policy.exemplar_k),
            ..TraceCollector::default()
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &TracePolicy {
        &self.policy
    }

    /// Whether any trees are collected.
    pub fn is_enabled(&self) -> bool {
        self.policy.mode != TraceMode::Off
    }

    /// Open a tree: request `id` from `tenant` (workload `kind`,
    /// generator arrival time `arrival`) was dispatched to `hart` at
    /// global virtual time `start`.
    pub fn begin(
        &mut self,
        id: TraceId,
        tenant: u16,
        kind: u16,
        hart: usize,
        arrival: u64,
        start: u64,
    ) {
        if !self.is_enabled() || id == 0 {
            return;
        }
        self.stats.requests += 1;
        self.inflight.insert(
            id,
            ReqTrace {
                id,
                tenant,
                kind,
                hart,
                arrival,
                start,
                end: 0,
                latency: 0,
                denied: false,
                events: Vec::new(),
                events_dropped: 0,
            },
        );
    }

    /// Ingest one drained hart event, timestamped in global virtual
    /// time. Events for unknown IDs are dropped; idle shootdown acks
    /// (id 0) still feed the publish→ack flow endpoints.
    pub fn ingest(&mut self, hart: usize, id: TraceId, t: u64, ev: ReqEvent) {
        if !self.is_enabled() {
            return;
        }
        self.stats.events_harvested += 1;
        if let ReqEvent::ShootdownAck { epoch, .. } = ev {
            if self.acks.len() < SHOOTDOWN_CAP {
                self.acks.push((epoch, hart, t));
            }
        }
        if id == 0 {
            return;
        }
        if let Some(tr) = self.inflight.get_mut(&id) {
            tr.push_event(t, ev);
        }
    }

    /// Note a shootdown publish (host-side privilege rotation) at
    /// global virtual time `t` for `epoch` — the start endpoint of the
    /// publish→ack flow.
    pub fn note_publish(&mut self, epoch: u64, t: u64) {
        if self.is_enabled() && self.publishes.len() < SHOOTDOWN_CAP {
            self.publishes.push((epoch, t));
        }
    }

    /// Fold hart-tracer lifetime tallies into the stats (call once per
    /// tracer at the end of the run).
    pub fn absorb_tracer_counts(&mut self, emitted: u64, dropped: u64) {
        self.stats.events_emitted += emitted;
        self.stats.events_dropped += dropped;
    }

    /// Close the tree for `id`: the completion was harvested at global
    /// virtual time `end` with the given end-to-end `latency` and
    /// guest-measured `service` cycles. Applies the tail-sampling
    /// policy; returns whether the tree was kept.
    pub fn finish(
        &mut self,
        id: TraceId,
        end: u64,
        latency: u64,
        service: u64,
        denied: bool,
    ) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let Some(mut tr) = self.inflight.remove(&id) else {
            return false;
        };
        tr.end = end;
        tr.latency = latency;
        tr.denied = denied;
        let ex_lat = self.latency_exemplars.offer(latency, id);
        let ex_svc = self.service_exemplars.offer(service, id);
        let full = self.policy.mode == TraceMode::Full;
        let slow = self.policy.slow != 0 && latency >= self.policy.slow;
        let survey = self.policy.survey_hit(id);
        let exemplar = ex_lat || ex_svc;
        let keep = full || slow || denied || survey || exemplar;
        if full {
            self.stats.kept_full += 1;
        }
        if slow {
            self.stats.kept_slow += 1;
        }
        if denied {
            self.stats.kept_denied += 1;
        }
        if survey {
            self.stats.kept_survey += 1;
        }
        if exemplar {
            self.stats.kept_exemplar += 1;
        }
        if keep {
            self.stats.kept += 1;
            if self.kept.len() < KEPT_CAP {
                self.kept.push(tr);
            } else if exemplar {
                // At the cap an exemplar-retained tree must still
                // resolve, so it replaces the oldest tree nothing
                // references instead of being stranded.
                self.stats.trees_dropped += 1;
                if let Some(slot) = self.evictable_slot() {
                    self.kept.remove(slot);
                    self.kept.push(tr);
                }
            } else {
                self.stats.trees_dropped += 1;
            }
        } else {
            self.stats.discarded += 1;
        }
        keep
    }

    /// The oldest kept tree safe to evict at [`KEPT_CAP`]: one kept
    /// only because the mode was `Full` — not denied, not slow, not a
    /// survey pick, and not referenced by either exemplar set.
    fn evictable_slot(&self) -> Option<usize> {
        let lat = self.latency_exemplars.ids();
        let svc = self.service_exemplars.ids();
        self.kept.iter().position(|t| {
            !t.denied
                && (self.policy.slow == 0 || t.latency < self.policy.slow)
                && !self.policy.survey_hit(t.id)
                && !lat.contains(&t.id)
                && !svc.contains(&t.id)
        })
    }

    /// The kept trees, completion order.
    pub fn kept(&self) -> &[ReqTrace] {
        &self.kept
    }

    /// Look up a kept tree by trace ID (how an exemplar resolves).
    pub fn resolve(&self, id: TraceId) -> Option<&ReqTrace> {
        self.kept.iter().find(|t| t.id == id)
    }

    /// Trees still open (dispatched, not yet harvested).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Shootdown publish flow endpoints `(epoch, t)`.
    pub fn publishes(&self) -> &[(u64, u64)] {
        &self.publishes
    }

    /// Shootdown ack flow endpoints `(epoch, hart, t)`.
    pub fn acks(&self) -> &[(u64, usize, u64)] {
        &self.acks
    }

    /// Flat word export of all dynamic state (snapshot seam). The
    /// policy itself travels with the harness config, not here.
    pub fn export_words(&self) -> Vec<u64> {
        let mut w = Vec::new();
        w.extend_from_slice(&self.stats.export_words());
        let lat = self.latency_exemplars.export_words();
        w.push(lat.len() as u64);
        w.extend_from_slice(&lat);
        let svc = self.service_exemplars.export_words();
        w.push(svc.len() as u64);
        w.extend_from_slice(&svc);
        w.push(self.inflight.len() as u64);
        for tr in self.inflight.values() {
            tr.export_words(&mut w);
        }
        w.push(self.kept.len() as u64);
        for tr in &self.kept {
            tr.export_words(&mut w);
        }
        w.push(self.publishes.len() as u64);
        for (e, t) in &self.publishes {
            w.push(*e);
            w.push(*t);
        }
        w.push(self.acks.len() as u64);
        for (e, h, t) in &self.acks {
            w.push(*e);
            w.push(*h as u64);
            w.push(*t);
        }
        w
    }

    /// Restore dynamic state exported by
    /// [`TraceCollector::export_words`]. Missing trailing words read as
    /// zero (a short vector restores an empty collector, never panics).
    pub fn import_words(&mut self, w: &[u64]) {
        let mut c = Cursor::new(w);
        self.stats.import_words(&mut c);
        let n = c.get() as usize;
        self.latency_exemplars.import_words(c.take(n));
        let n = c.get() as usize;
        self.service_exemplars.import_words(c.take(n));
        self.inflight.clear();
        let n = c.get().min(u32::MAX as u64);
        for _ in 0..n {
            let tr = ReqTrace::import_words(&mut c);
            if c.exhausted() && tr.id == 0 {
                break;
            }
            self.inflight.insert(tr.id, tr);
        }
        self.kept.clear();
        let n = c.get().min(KEPT_CAP as u64);
        for _ in 0..n {
            self.kept.push(ReqTrace::import_words(&mut c));
        }
        self.publishes.clear();
        let n = c.get().min(SHOOTDOWN_CAP as u64);
        for _ in 0..n {
            let (e, t) = (c.get(), c.get());
            self.publishes.push((e, t));
        }
        self.acks.clear();
        let n = c.get().min(SHOOTDOWN_CAP as u64);
        for _ in 0..n {
            let (e, h, t) = (c.get(), c.get() as usize, c.get());
            self.acks.push((e, h, t));
        }
    }
}

/// A forgiving word-stream reader: reads past the end yield zero, so a
/// truncated snapshot degrades to empty state instead of panicking.
pub(crate) struct Cursor<'a> {
    w: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(w: &'a [u64]) -> Self {
        Cursor { w, pos: 0 }
    }

    pub(crate) fn get(&mut self) -> u64 {
        let v = self.w.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v
    }

    fn take(&mut self, n: usize) -> &'a [u64] {
        let start = self.pos.min(self.w.len());
        let end = (self.pos + n).min(self.w.len());
        self.pos += n;
        &self.w[start..end]
    }

    fn exhausted(&self) -> bool {
        self.pos > self.w.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::{Obs, Spine};

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Obs::off();
        let mut built = false;
        t.request(1, || {
            built = true;
            ReqEvent::GateEnter { domain: 1 }
        });
        assert!(!built);
        assert!(t.drain_requests().is_empty());
        assert_eq!(t.request_counts(), (0, 0));
    }

    #[test]
    fn tracer_tags_events_with_current_request() {
        let t = Obs::new(Spine::new().with_requests());
        t.request(5, || ReqEvent::GateEnter { domain: 1 });
        t.set_current(7);
        t.request(9, || ReqEvent::GateEnter { domain: 2 });
        t.request(11, || ReqEvent::ShootdownAck {
            flushes: 3,
            epoch: 4,
        });
        let evs = t.drain_requests();
        // The idle gate event is skipped; the ack is kept even idle.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].id, 7);
        assert_eq!(evs[0].t, 9);
        assert_eq!(t.request_counts(), (2, 0));
        assert!(t.drain_requests().is_empty());
        // Draining keeps the current-request tag.
        t.request(13, || ReqEvent::GateEnter { domain: 3 });
        let evs = t.drain_requests();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, 7);
    }

    #[test]
    fn survey_is_id_keyed_and_seeded() {
        let p = TracePolicy {
            mode: TraceMode::Sampled,
            survey: 8,
            seed: 42,
            ..TracePolicy::default()
        };
        let hits: Vec<u64> = (1..=1000).filter(|id| p.survey_hit(*id)).collect();
        // Roughly 1 in 8, and stable across runs.
        assert!((60..=190).contains(&hits.len()), "{}", hits.len());
        let p2 = TracePolicy { seed: 43, ..p };
        let hits2: Vec<u64> = (1..=1000).filter(|id| p2.survey_hit(*id)).collect();
        assert_ne!(hits, hits2);
    }

    #[test]
    fn exemplars_keep_k_per_bucket_and_resolve_values() {
        let mut e = Exemplars::new(2);
        assert!(e.offer(100, 1)); // bucket [64,127]
        assert!(e.offer(70, 2));
        assert!(!e.offer(101, 3)); // bucket full
        assert!(e.offer(1000, 4)); // different bucket
        assert_eq!(e.for_value(90), &[1, 2]);
        assert_eq!(e.for_value(600), &[4]);
        assert_eq!(e.ids(), vec![1, 2, 4]);
        let mut e2 = Exemplars::new(0);
        e2.import_words(&e.export_words());
        assert_eq!(e, e2);
    }

    #[test]
    fn exemplar_retention_is_offer_order_independent() {
        // The K smallest IDs per bucket win no matter the offer order,
        // so exemplar sets over schedule-independent values are
        // identical across hart counts.
        let offers = [(100u64, 5u64), (70, 2), (101, 9), (90, 1), (1000, 4)];
        let mut fwd = Exemplars::new(2);
        let mut rev = Exemplars::new(2);
        for (v, id) in offers {
            fwd.offer(v, id);
        }
        for (v, id) in offers.iter().rev() {
            rev.offer(*v, *id);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.for_value(80), &[1, 2]);
    }

    #[test]
    fn exemplar_trees_survive_the_kept_cap() {
        let mut c = TraceCollector::new(TracePolicy {
            mode: TraceMode::Full,
            slow: 0,
            survey: 0,
            seed: 1,
            exemplar_k: 2,
        });
        // Overfill the store with same-bucket completions, then finish
        // one slow enough to open a fresh latency bucket: its ID is
        // exemplar-retained after the cap was reached, so it must evict
        // an unreferenced tree rather than be stranded unresolvable.
        for i in 0..(KEPT_CAP as u64 + 8) {
            let id = i + 1;
            c.begin(id, 0, 0, 0, i, i);
            c.finish(id, i + 100, 100, 50, false);
        }
        let slow_id = KEPT_CAP as u64 + 100;
        c.begin(slow_id, 0, 0, 0, 0, 0);
        c.finish(slow_id, 1 << 20, 1 << 20, 50, false);
        assert!(c.latency_exemplars.for_value(1 << 20).contains(&slow_id));
        assert!(
            c.resolve(slow_id).is_some(),
            "every exemplar ID resolves to a kept tree, even at the cap"
        );
        assert_eq!(c.kept().len(), KEPT_CAP);
        // The survivors it displaced were plain full-mode trees; the
        // exemplar-referenced early IDs are untouched.
        assert!(c.resolve(1).is_some() && c.resolve(2).is_some());
    }

    fn collector(mode: TraceMode) -> TraceCollector {
        TraceCollector::new(TracePolicy {
            mode,
            slow: 100,
            survey: 0,
            seed: 1,
            exemplar_k: 0,
        })
    }

    #[test]
    fn tail_sampling_keeps_slow_and_denied() {
        let mut c = collector(TraceMode::Sampled);
        c.begin(1, 0, 0, 0, 10, 12);
        c.begin(2, 1, 0, 1, 11, 12);
        c.begin(3, 1, 1, 0, 20, 30);
        assert!(c.finish(1, 200, 190, 50, false)); // slow
        assert!(!c.finish(2, 60, 49, 20, false)); // fast, clean
        assert!(c.finish(3, 80, 60, 20, true)); // denied
        assert_eq!(c.stats.kept, 2);
        assert_eq!(c.stats.discarded, 1);
        assert_eq!(c.stats.kept_slow, 1);
        assert_eq!(c.stats.kept_denied, 1);
        assert!(c.resolve(1).is_some());
        assert!(c.resolve(2).is_none());
    }

    #[test]
    fn full_mode_keeps_everything() {
        let mut c = collector(TraceMode::Full);
        c.begin(1, 0, 0, 0, 0, 1);
        assert!(c.finish(1, 10, 10, 5, false));
        assert_eq!(c.stats.kept_full, 1);
    }

    #[test]
    fn exemplar_retention_forces_keep() {
        let mut c = TraceCollector::new(TracePolicy {
            mode: TraceMode::Sampled,
            slow: 0,
            survey: 0,
            seed: 0,
            exemplar_k: 1,
        });
        c.begin(1, 0, 0, 0, 0, 1);
        c.begin(2, 0, 0, 0, 0, 1);
        assert!(c.finish(1, 10, 9, 9, false)); // first in bucket → exemplar
        assert!(!c.finish(2, 10, 9, 9, false)); // bucket full → discarded
        assert_eq!(c.latency_exemplars.for_value(9), &[1]);
        assert_eq!(c.resolve(1).unwrap().latency, 9);
    }

    #[test]
    fn segments_partition_the_root_span() {
        let mut tr = ReqTrace {
            id: 1,
            tenant: 0,
            kind: 0,
            hart: 0,
            arrival: 90,
            start: 100,
            end: 200,
            latency: 110,
            denied: false,
            events: vec![
                (110, ReqEvent::GateEnter { domain: 4 }),
                (130, ReqEvent::GateEnter { domain: 2 }),
                (
                    150,
                    ReqEvent::Deny {
                        cause: 25,
                        detail: 0x180,
                    },
                ),
                (160, ReqEvent::GateExit { domain: 4 }),
            ],
            events_dropped: 0,
        };
        let segs = tr.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].domain, segs[0].start, segs[0].end), (4, 110, 130));
        assert_eq!((segs[1].domain, segs[1].start, segs[1].end), (2, 130, 160));
        assert_eq!((segs[2].domain, segs[2].start, segs[2].end), (4, 160, 200));
        let total: u64 = segs.iter().map(Segment::cycles).sum();
        assert!(total <= tr.end - tr.start);
        assert!(tr.end - tr.start <= tr.latency);
        // Out-of-window timestamps clamp rather than corrupt.
        tr.events.push((500, ReqEvent::GateEnter { domain: 9 }));
        let segs = tr.segments();
        assert!(segs.iter().all(|s| s.start >= tr.start && s.end <= tr.end));
    }

    #[test]
    fn collector_state_round_trips_through_words() {
        let mut c = TraceCollector::new(TracePolicy {
            mode: TraceMode::Sampled,
            slow: 50,
            survey: 4,
            seed: 9,
            exemplar_k: 2,
        });
        c.begin(1, 0, 1, 0, 5, 8);
        c.ingest(0, 1, 12, ReqEvent::GateEnter { domain: 4 });
        c.ingest(
            0,
            0,
            13,
            ReqEvent::ShootdownAck {
                flushes: 2,
                epoch: 7,
            },
        );
        c.note_publish(7, 11);
        c.begin(2, 1, 0, 1, 6, 8);
        c.ingest(
            1,
            2,
            14,
            ReqEvent::Deopt {
                reason: DeoptReason::Epoch,
            },
        );
        c.finish(2, 90, 84, 30, true);
        let words = c.export_words();
        let mut c2 = TraceCollector::new(*c.policy());
        c2.import_words(&words);
        assert_eq!(c.stats, c2.stats);
        assert_eq!(c.latency_exemplars, c2.latency_exemplars);
        assert_eq!(c.kept(), c2.kept());
        assert_eq!(c.inflight(), c2.inflight());
        assert_eq!(c.publishes(), c2.publishes());
        assert_eq!(c.acks(), c2.acks());
        // The restored collector continues identically.
        c.finish(1, 100, 95, 40, false);
        c2.finish(1, 100, 95, 40, false);
        assert_eq!(c.kept(), c2.kept());
        assert_eq!(c.stats, c2.stats);
    }

    #[test]
    fn truncated_words_restore_without_panic() {
        let mut c = collector(TraceMode::Full);
        c.begin(1, 0, 0, 0, 0, 1);
        c.finish(1, 10, 10, 5, false);
        let words = c.export_words();
        for cut in 0..words.len() {
            let mut c2 = collector(TraceMode::Full);
            c2.import_words(&words[..cut]);
        }
    }

    #[test]
    fn deopt_reason_names_and_indices_are_stable() {
        for (i, r) in DeoptReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(DeoptReason::from_index(i), Some(*r));
        }
        assert_eq!(DeoptReason::Guard.name(), "guard");
        assert_eq!(DeoptReason::Budget.name(), "budget");
        assert!(DeoptReason::from_index(7).is_none());
    }
}
