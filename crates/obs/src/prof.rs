//! Profiling primitives: log-bucketed latency histograms, cycle spans,
//! interval-sliced time series, per-hart profiles, and the structured
//! audit record the PCU emits on every denied check.
//!
//! A [`Profile`] is one consumer of a hart's [`Obs`](crate::Obs)
//! spine: it sees every step's [`Commit`] record, so profiling adds
//! zero modeled cycles and, when off, costs nothing beyond the spine's
//! one branch.

use std::collections::BTreeMap;

use crate::json::{Json, ToJson};
use crate::spine::Commit;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, and bucket 64 holds values
/// with the top bit set.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Recording is O(1) (a `leading_zeros` and two adds); percentiles
/// interpolate linearly inside the winning log₂ bucket (and clamp to
/// the recorded maximum), so a reported quantile is off by at most the
/// distance between the interpolated rank and the true sample within
/// one bucket — not the full 2× bucket width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Index of the bucket holding `v`.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Largest value bucket `i` can hold.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Smallest value bucket `i` can hold.
fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in 0..=100), interpolated linearly
    /// within the winning log₂ bucket and clamped to the recorded
    /// maximum. Answering from bucket *upper* bounds alone would
    /// overstate a quantile by up to 2× near bucket edges; assuming the
    /// bucket's samples spread evenly across its range keeps the error
    /// within the bucket. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut acc = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            if acc + n >= rank {
                let lower = bucket_lower(i);
                let upper = bucket_upper(i).min(self.max);
                if upper <= lower || *n == 0 {
                    return upper;
                }
                // The rank-th sample is the k-th of n in this bucket;
                // place it k/n of the way through the bucket's range.
                let k = rank - acc;
                let span = (upper - lower) as f64;
                let off = (span * k as f64 / *n as f64).round() as u64;
                return lower.saturating_add(off).min(upper);
            }
            acc += n;
        }
        self.max
    }

    /// Export all state as a flat word vector (snapshot seam): the 65
    /// bucket counts, then `count`, `sum`, `max`.
    pub fn export_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(BUCKETS + 3);
        w.extend_from_slice(&self.buckets);
        w.push(self.count);
        w.push(self.sum);
        w.push(self.max);
        w
    }

    /// Restore state exported by [`Histogram::export_words`]. Missing
    /// trailing words read as zero (a short vector restores an empty
    /// histogram, never panics).
    pub fn import_words(&mut self, words: &[u64]) {
        let get = |i: usize| words.get(i).copied().unwrap_or(0);
        for (i, b) in self.buckets.iter_mut().enumerate() {
            *b = get(i);
        }
        self.count = get(BUCKETS);
        self.sum = get(BUCKETS + 1);
        self.max = get(BUCKETS + 2);
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| Json::obj([("le", Json::U64(bucket_upper(i))), ("n", Json::U64(*n))]))
            .collect();
        Json::obj([
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::U64(self.p50())),
            ("p90", Json::U64(self.p90())),
            ("p99", Json::U64(self.p99())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// What a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Residency in one ISA domain (id = domain id).
    Domain,
    /// A gate-switch instruction (id = destination domain).
    Gate,
    /// A step that flushed privilege caches for a cross-hart
    /// shootdown (id = number of flushes absorbed).
    Shootdown,
    /// A step on which the chaos harness injected a fault or the
    /// integrity layer detected one (id = number of fault events).
    Fault,
}

impl SpanKind {
    /// Stable lowercase name (used as the Perfetto category).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Domain => "domain",
            SpanKind::Gate => "gate",
            SpanKind::Shootdown => "shootdown",
            SpanKind::Fault => "fault",
        }
    }
}

/// A half-open interval `[start, end)` of modeled cycles on one hart's
/// timeline, tagged with what the hart was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Kind-specific identifier (domain id, destination domain, …).
    pub id: u64,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
}

impl Span {
    /// Length of the interval in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.name().to_string())),
            ("id", Json::U64(self.id)),
            ("start", Json::U64(self.start)),
            ("end", Json::U64(self.end)),
        ])
    }
}

/// An interval-sliced accumulator: `add(t, v)` adds `v` to the slice
/// containing time `t`. The slice count is bounded; when a sample lands
/// past the last slice the interval doubles and adjacent slices fold
/// together, so memory stays O(`max_slices`) for arbitrarily long runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval: u64,
    max_slices: usize,
    slices: Vec<u64>,
}

impl TimeSeries {
    /// A series starting with `interval` time units per slice and at
    /// most `max_slices` slices (both clamped to ≥ 1).
    pub fn new(interval: u64, max_slices: usize) -> Self {
        TimeSeries {
            interval: interval.max(1),
            max_slices: max_slices.max(1),
            slices: Vec::new(),
        }
    }

    /// Add `v` to the slice containing time `t`, rescaling as needed.
    pub fn add(&mut self, t: u64, v: u64) {
        let mut idx = (t / self.interval) as usize;
        while idx >= self.max_slices {
            self.rescale();
            idx = (t / self.interval) as usize;
        }
        if idx >= self.slices.len() {
            self.slices.resize(idx + 1, 0);
        }
        self.slices[idx] += v;
    }

    /// Double the interval, folding adjacent slices together.
    fn rescale(&mut self) {
        self.interval *= 2;
        let n = self.slices.len().div_ceil(2);
        for i in 0..n {
            let a = self.slices[2 * i];
            let b = self.slices.get(2 * i + 1).copied().unwrap_or(0);
            self.slices[i] = a + b;
        }
        self.slices.truncate(n);
    }

    /// Export `(interval, slices)` (snapshot seam). The slice bound is
    /// a construction parameter, not state.
    pub fn export_state(&self) -> (u64, Vec<u64>) {
        (self.interval, self.slices.clone())
    }

    /// Restore state exported by [`TimeSeries::export_state`] into a
    /// series built with the same bound. The interval is clamped to
    /// ≥ 1 and the slices to this series' bound.
    pub fn import_state(&mut self, interval: u64, slices: &[u64]) {
        self.interval = interval.max(1);
        self.slices = slices[..slices.len().min(self.max_slices)].to_vec();
    }

    /// Current time units per slice.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The slice values, oldest first.
    pub fn slices(&self) -> &[u64] {
        &self.slices
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        // 4096 slices of 4096 cycles covers a 16M-cycle run before the
        // first rescale — plenty for the bench workloads.
        TimeSeries::new(4096, 4096)
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("interval", Json::U64(self.interval)),
            (
                "slices",
                Json::Arr(self.slices.iter().map(|v| Json::U64(*v)).collect()),
            ),
        ])
    }
}

/// Coarse opcode class of one retired instruction, used for cycle
/// attribution independent of the (domain, privilege) key. The classes
/// mirror where the interpreter's `execute()` dispatch spends its time,
/// giving the ROADMAP's JIT-specialization rung a measured baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer ALU / shift / compare / mul-div work (the default).
    #[default]
    Alu,
    /// Memory loads (including LR).
    Load,
    /// Memory stores (including SC and AMOs).
    Store,
    /// Branches, jumps, and calls.
    Branch,
    /// Explicit CSR accesses.
    Csr,
    /// ISA-Grid gate and grid-cache instructions.
    Gate,
    /// Everything else: fences, ecall/ebreak, xRET, WFI.
    System,
}

impl OpClass {
    /// Number of opcode classes.
    pub const COUNT: usize = 7;

    /// All classes, in index order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Alu,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Csr,
        OpClass::Gate,
        OpClass::System,
    ];

    /// Stable index of this class in attribution arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::Load => 1,
            OpClass::Store => 2,
            OpClass::Branch => 3,
            OpClass::Csr => 4,
            OpClass::Gate => 5,
            OpClass::System => 6,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Csr => "csr",
            OpClass::Gate => "gate",
            OpClass::System => "system",
        }
    }
}

/// Classification of one retired instruction, used to attribute its
/// cycles to the latency histograms. Built by the simulator from the
/// PCU's drained per-step events; the timing model never reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepClass {
    /// Coarse opcode class of the instruction.
    pub op: OpClass,
    /// The step performed a gate switch (`hccall`/`hccalls`/`hcrets`).
    pub gate_switch: bool,
    /// Privilege checks the PCU performed for this step.
    pub checks: u16,
    /// HPT/SGT grid-cache misses taken by this step.
    pub grid_misses: u16,
    /// Cross-hart shootdown flushes absorbed before this step.
    pub shootdown_flushed: u16,
    /// Fault-injection events applied or detected on this step.
    pub fault_events: u16,
    /// The step trapped (any cause).
    pub trapped: bool,
}

/// Cycle/step tallies for one (domain, privilege) attribution key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCycles {
    /// Modeled cycles attributed to the key.
    pub cycles: u64,
    /// Retired instructions attributed to the key.
    pub steps: u64,
}

/// Default bound on retained spans per profile.
const DEFAULT_SPAN_CAP: usize = 1 << 16;

/// One hart's profile: cycle attribution by (domain, privilege level),
/// latency histograms, a span timeline for Perfetto export, and a
/// cycles-over-time series.
///
/// The profile owns a cumulative cycle clock (`cycles()`): each
/// recorded step advances it by the step's modeled cycles, and domain
/// residency spans are derived inline whenever the domain changes.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Hart the profile belongs to.
    pub hart: usize,
    cycles: u64,
    steps: u64,
    cur_domain: Option<u16>,
    cur_since: u64,
    /// Cycle/step attribution keyed by (domain id, privilege level).
    pub domains: BTreeMap<(u16, u8), DomainCycles>,
    /// Cycle/step attribution keyed by opcode class (see [`OpClass`]).
    pub op_classes: [DomainCycles; OpClass::COUNT],
    /// Cycles of steps that performed a gate switch.
    pub gate_switch: Histogram,
    /// Cycles of steps that performed ≥ 1 privilege check.
    pub check: Histogram,
    /// Cycles of steps that took ≥ 1 grid-cache miss.
    pub grid_miss: Histogram,
    /// Cycles of steps stalled flushing a cross-hart shootdown.
    pub shootdown: Histogram,
    /// Cycles of steps carrying fault-injection or integrity events.
    pub fault: Histogram,
    spans: Vec<Span>,
    span_cap: usize,
    spans_dropped: u64,
    /// Committed cycles per time slice.
    pub series: TimeSeries,
    /// Steps that trapped (any cause), including privilege faults.
    pub faults: u64,
}

impl Profile {
    /// An empty profile for `hart` with the default span bound.
    pub fn new(hart: usize) -> Self {
        Profile {
            hart,
            span_cap: DEFAULT_SPAN_CAP,
            series: TimeSeries::default(),
            ..Profile::default()
        }
    }

    /// Override the retained-span bound (clamped to ≥ 1).
    pub fn with_span_cap(mut self, cap: usize) -> Self {
        self.span_cap = cap.max(1);
        self
    }

    /// Total modeled cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total retired instructions recorded.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Spans recorded so far, oldest first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans discarded because the bound was hit.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    fn push_span(&mut self, s: Span) {
        if self.spans.len() < self.span_cap {
            self.spans.push(s);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Record one committed step.
    pub fn record_step(&mut self, s: &Commit) {
        let t0 = self.cycles;
        match self.cur_domain {
            None => {
                self.cur_domain = Some(s.domain);
                self.cur_since = t0;
            }
            Some(d) if d != s.domain => {
                self.push_span(Span {
                    kind: SpanKind::Domain,
                    id: d as u64,
                    start: self.cur_since,
                    end: t0,
                });
                self.cur_domain = Some(s.domain);
                self.cur_since = t0;
            }
            _ => {}
        }
        self.cycles += s.cycles;
        self.steps += 1;
        let e = self.domains.entry((s.domain, s.priv_level)).or_default();
        e.cycles += s.cycles;
        e.steps += 1;
        let oc = &mut self.op_classes[s.class.op.index()];
        oc.cycles += s.cycles;
        oc.steps += 1;
        self.series.add(t0, s.cycles);
        if s.class.gate_switch {
            self.gate_switch.record(s.cycles);
            self.push_span(Span {
                kind: SpanKind::Gate,
                id: s.domain as u64,
                start: t0,
                end: self.cycles,
            });
        }
        if s.class.checks > 0 {
            self.check.record(s.cycles);
        }
        if s.class.grid_misses > 0 {
            self.grid_miss.record(s.cycles);
        }
        if s.class.shootdown_flushed > 0 {
            self.shootdown.record(s.cycles);
            self.push_span(Span {
                kind: SpanKind::Shootdown,
                id: s.class.shootdown_flushed as u64,
                start: t0,
                end: self.cycles,
            });
        }
        if s.class.fault_events > 0 {
            self.fault.record(s.cycles);
            self.push_span(Span {
                kind: SpanKind::Fault,
                id: s.class.fault_events as u64,
                start: t0,
                end: self.cycles,
            });
        }
        if s.class.trapped {
            self.faults += 1;
        }
    }

    /// Close the open domain-residency span at the current cycle.
    /// Idempotent; call when the run ends.
    pub fn finish(&mut self) {
        if let Some(d) = self.cur_domain.take() {
            if self.cycles > self.cur_since {
                self.push_span(Span {
                    kind: SpanKind::Domain,
                    id: d as u64,
                    start: self.cur_since,
                    end: self.cycles,
                });
            }
        }
    }

    /// Fold another profile's attribution (domains, histograms, fault
    /// count — not spans or series) into this one.
    pub fn merge_attribution(&mut self, other: &Profile) {
        self.cycles += other.cycles;
        self.steps += other.steps;
        for (k, v) in &other.domains {
            let e = self.domains.entry(*k).or_default();
            e.cycles += v.cycles;
            e.steps += v.steps;
        }
        for (a, b) in self.op_classes.iter_mut().zip(other.op_classes.iter()) {
            a.cycles += b.cycles;
            a.steps += b.steps;
        }
        self.gate_switch.merge(&other.gate_switch);
        self.check.merge(&other.check);
        self.grid_miss.merge(&other.grid_miss);
        self.shootdown.merge(&other.shootdown);
        self.fault.merge(&other.fault);
        self.faults += other.faults;
        self.spans_dropped += other.spans_dropped;
    }
}

/// Serialize the opcode-class attribution as an array of objects
/// (zero classes omitted).
pub(crate) fn op_classes_json(op_classes: &[DomainCycles; OpClass::COUNT]) -> Json {
    Json::Arr(
        OpClass::ALL
            .iter()
            .filter(|c| op_classes[c.index()].steps > 0)
            .map(|c| {
                let v = op_classes[c.index()];
                Json::obj([
                    ("class", Json::Str(c.name().to_string())),
                    ("cycles", Json::U64(v.cycles)),
                    ("steps", Json::U64(v.steps)),
                ])
            })
            .collect(),
    )
}

/// Serialize the attribution keys as an array of objects.
pub(crate) fn domains_json(domains: &BTreeMap<(u16, u8), DomainCycles>) -> Json {
    Json::Arr(
        domains
            .iter()
            .map(|((d, p), v)| {
                Json::obj([
                    ("domain", Json::U64(*d as u64)),
                    ("priv", Json::U64(*p as u64)),
                    ("cycles", Json::U64(v.cycles)),
                    ("steps", Json::U64(v.steps)),
                ])
            })
            .collect(),
    )
}

/// The latency histograms as one JSON object.
fn histograms_json(p: &Profile) -> Json {
    Json::obj([
        ("gate_switch", p.gate_switch.to_json()),
        ("check", p.check.to_json()),
        ("grid_miss", p.grid_miss.to_json()),
        ("shootdown", p.shootdown.to_json()),
        ("fault", p.fault.to_json()),
    ])
}

impl ToJson for Profile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hart", Json::U64(self.hart as u64)),
            ("cycles", Json::U64(self.cycles)),
            ("steps", Json::U64(self.steps)),
            ("faults", Json::U64(self.faults)),
            ("domains", domains_json(&self.domains)),
            ("op_classes", op_classes_json(&self.op_classes)),
            ("histograms", histograms_json(self)),
            ("series", self.series.to_json()),
            ("spans_dropped", Json::U64(self.spans_dropped)),
        ])
    }
}

/// What a denied check was checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Instruction-privilege check (detail = instruction class index).
    Inst,
    /// CSR-privilege check (detail = CSR address).
    Csr,
    /// Gate legality check (detail = destination domain, or the gate
    /// table index that failed validation).
    Gate,
    /// Trusted-memory access check (detail = physical address).
    Tmem,
    /// Integrity verification of privilege state (detail = trusted-memory
    /// address of the corrupted word, or 0 for poisoned snapshot state).
    Integrity,
    /// Shootdown delivery blew the bounded-backoff deadline (detail =
    /// the coherence epoch that expired).
    Shootdown,
}

impl AuditKind {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AuditKind::Inst => "inst",
            AuditKind::Csr => "csr",
            AuditKind::Gate => "gate",
            AuditKind::Tmem => "tmem",
            AuditKind::Integrity => "integrity",
            AuditKind::Shootdown => "shootdown",
        }
    }
}

/// One denied privilege check, as recorded by the PCU at the moment it
/// raised (or would raise) a Grid fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// PC of the faulting instruction.
    pub pc: u64,
    /// Raw instruction bits (0 when the deny site has no decode, e.g.
    /// a CSR check reached through the CSR file).
    pub raw: u32,
    /// Privilege level at the time of the check (0=U, 1=S, 3=M).
    pub priv_level: u8,
    /// ISA domain the hart was executing in.
    pub domain: u16,
    /// Which checker denied.
    pub kind: AuditKind,
    /// Architectural trap cause raised (24–28 for Grid faults).
    pub cause: u64,
    /// Kind-specific detail: instruction class index, CSR address,
    /// destination domain / gate index, or physical address.
    pub detail: u64,
}

impl ToJson for AuditRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pc", Json::Str(format!("{:#x}", self.pc))),
            ("raw", Json::Str(format!("{:#010x}", self.raw))),
            ("priv", Json::U64(self.priv_level as u64)),
            ("domain", Json::U64(self.domain as u64)),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("cause", Json::U64(self.cause)),
            ("detail", Json::Str(format!("{:#x}", self.detail))),
        ])
    }
}

/// Default bound on retained audit records.
pub const AUDIT_CAP: usize = 4096;

/// A bounded audit log: appends past the cap are counted, not stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    dropped: u64,
}

impl AuditLog {
    /// An empty log with the default bound.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Append a record, counting it as dropped past the bound.
    pub fn push(&mut self, r: AuditRecord) {
        if self.records.len() < AUDIT_CAP {
            self.records.push(r);
        } else {
            self.dropped += 1;
        }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Records discarded because the bound was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever appended.
    pub fn total(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.dropped == 0
    }

    /// Move the retained records out, leaving the log empty.
    pub fn take(&mut self) -> Vec<AuditRecord> {
        self.dropped = 0;
        std::mem::take(&mut self.records)
    }

    /// Reassemble a log from its parts (snapshot seam). Records past
    /// the bound are folded into the dropped count.
    pub fn from_parts(mut records: Vec<AuditRecord>, dropped: u64) -> AuditLog {
        let extra = records.len().saturating_sub(AUDIT_CAP) as u64;
        records.truncate(AUDIT_CAP);
        AuditLog {
            records,
            dropped: dropped + extra,
        }
    }
}

impl ToJson for AuditLog {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total", Json::U64(self.total())),
            ("dropped", Json::U64(self.dropped)),
            (
                "records",
                Json::Arr(self.records.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::{Obs, Spine};

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        // 2^k and 2^k - 1 land in different buckets.
        assert_ne!(bucket_index(8), bucket_index(7));
        assert_eq!(bucket_index(4), bucket_index(7));
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6);
        assert_eq!(h.max(), 3);
        // rank(50%) = 2 → the second sample (value 1, bucket upper 1).
        assert_eq!(h.p50(), 1);
        // rank(99%) = 4 → bucket of {2,3}, upper bound 3.
        assert_eq!(h.p99(), 3);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 3);
    }

    #[test]
    fn histogram_percentile_clamps_to_max() {
        let mut h = Histogram::new();
        h.record(1000); // bucket upper bound is 1023
        assert_eq!(h.p50(), 1000);
        assert_eq!(h.p99(), 1000);
        h.record(1);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 1000);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    fn histogram_percentile_interpolates_within_bucket() {
        // Uniform 1..=1000: the true p50 is 500, which sits mid-bucket
        // in [256, 511] ∪ [512, 1023] territory. The old upper-bound
        // answer reported a bucket edge (≈2× off near the low edge);
        // interpolation must land near the true quantile.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!(
            (450..=550).contains(&p50),
            "p50 of uniform 1..=1000 should be ≈500, got {p50}"
        );
        let p90 = h.p90();
        assert!(
            (820..=980).contains(&p90),
            "p90 of uniform 1..=1000 should be ≈900, got {p90}"
        );
        // Quantiles stay monotone and inside the recorded range.
        assert!(p50 <= p90 && p90 <= h.p99() && h.p99() <= h.max());
        // A hot spike far below the max must not be reported at the
        // bucket's upper edge.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(600); // bucket [512, 1023]
        }
        h.record(4000); // max outside the winning bucket
        let p50 = h.p50();
        assert!(
            (512..800).contains(&p50),
            "p50 must interpolate inside [512, 1023], got {p50}"
        );
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        b.record(100);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 109);
    }

    #[test]
    fn time_series_rescales_in_place() {
        let mut s = TimeSeries::new(10, 4);
        s.add(0, 1);
        s.add(35, 2); // slice 3
        assert_eq!(s.slices(), &[1, 0, 0, 2]);
        s.add(45, 4); // slice 4 ≥ cap → interval doubles to 20
        assert_eq!(s.interval(), 20);
        assert_eq!(s.slices(), &[1, 2, 4]);
        // Totals are conserved across rescales.
        assert_eq!(s.slices().iter().sum::<u64>(), 7);
    }

    fn sample(domain: u16, cycles: u64, class: StepClass) -> Commit {
        Commit {
            domain,
            priv_level: 1,
            cycles,
            class,
            ..Commit::default()
        }
    }

    #[test]
    fn profile_attributes_cycles_and_derives_spans() {
        let mut p = Profile::new(0);
        p.record_step(&sample(0, 10, StepClass::default()));
        p.record_step(&sample(
            3,
            12,
            StepClass {
                gate_switch: true,
                checks: 1,
                ..StepClass::default()
            },
        ));
        p.record_step(&sample(3, 5, StepClass::default()));
        p.finish();
        assert_eq!(p.cycles(), 27);
        assert_eq!(p.steps(), 3);
        assert_eq!(p.domains[&(0, 1)].cycles, 10);
        assert_eq!(p.domains[&(3, 1)].cycles, 17);
        assert_eq!(p.gate_switch.count(), 1);
        assert_eq!(p.check.count(), 1);
        // Spans: domain 0 [0,10), gate [10,22), domain 3 [10,27).
        let domains: Vec<&Span> = p
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Domain)
            .collect();
        assert_eq!(domains.len(), 2);
        assert_eq!(
            (domains[0].id, domains[0].start, domains[0].end),
            (0, 0, 10)
        );
        assert_eq!(
            (domains[1].id, domains[1].start, domains[1].end),
            (3, 10, 27)
        );
        let gate = p.spans().iter().find(|s| s.kind == SpanKind::Gate).unwrap();
        assert_eq!((gate.id, gate.start, gate.end), (3, 10, 22));
    }

    #[test]
    fn profile_finish_is_idempotent() {
        let mut p = Profile::new(0);
        p.record_step(&sample(2, 4, StepClass::default()));
        p.finish();
        p.finish();
        assert_eq!(p.spans().len(), 1);
    }

    #[test]
    fn profile_span_cap_counts_drops() {
        let mut p = Profile::new(0).with_span_cap(1);
        for d in 0..4u16 {
            p.record_step(&sample(d, 1, StepClass::default()));
        }
        p.finish();
        assert_eq!(p.spans().len(), 1);
        assert_eq!(p.spans_dropped(), 3);
    }

    #[test]
    fn disabled_sink_never_builds_samples() {
        let obs = Obs::new(Spine::new());
        let mut built = false;
        obs.commit(false, || {
            built = true;
            sample(0, 1, StepClass::default())
        });
        assert!(!built);
        assert!(obs.take_profile().is_none());
    }

    #[test]
    fn sink_take_resets_and_closes_span() {
        let obs = Obs::new(Spine::new().with_profile(2));
        obs.commit(false, || sample(1, 8, StepClass::default()));
        let p = obs.take_profile().unwrap();
        assert_eq!(p.hart, 2);
        assert_eq!(p.cycles(), 8);
        assert_eq!(p.spans().len(), 1);
        let p2 = obs.take_profile().unwrap();
        assert_eq!(p2.cycles(), 0);
        assert!(obs.is_enabled());
    }

    #[test]
    fn audit_log_bounds_and_serializes() {
        let mut log = AuditLog::new();
        let r = AuditRecord {
            pc: 0x8000_0004,
            raw: 0x1234_5678,
            priv_level: 0,
            domain: 3,
            kind: AuditKind::Csr,
            cause: 25,
            detail: 0x305,
        };
        for _ in 0..AUDIT_CAP + 5 {
            log.push(r);
        }
        assert_eq!(log.records().len(), AUDIT_CAP);
        assert_eq!(log.dropped(), 5);
        assert_eq!(log.total(), AUDIT_CAP as u64 + 5);
        let j = r.to_json().to_string();
        assert!(j.contains("\"kind\":\"csr\""));
        assert!(j.contains("\"cause\":25"));
        assert!(j.contains("\"pc\":\"0x80000004\""));
    }
}
