//! # isa-obs — the observability spine of the ISA-Grid reproduction
//!
//! Every evaluation artifact of the paper (§7, Fig. 5–8, Tables 4–6) is
//! built on counting things: privilege-check verdicts, HPT/SGT cache
//! hits, gate switches, cycle attribution. This crate is the single
//! substrate those counts flow through:
//!
//! * [`Obs`] — the one observability handle. The machine and its PCU
//!   extension hold clones of it; it points at a [`Spine`] whose
//!   consumers (an event ring, a [`Profile`], a request buffer) are
//!   switched on when the spine is built. The machine passes one
//!   [`Commit`] record per step, the PCU and the host emit events, and
//!   every consumer sees them in commit order. The default handle is
//!   off and costs one branch per step.
//! * [`TraceEvent`] — a structured event taxonomy (retire, check
//!   verdict, cache hit/miss/flush, gate call/return, domain switch,
//!   trap, trusted-memory fence) recorded into a bounded [`EventRing`].
//! * [`Counters`] — one snapshot struct subsuming the cache / check /
//!   gate / timing / run tallies that previously lived in four ad-hoc
//!   types; [`Counters::entries`] flattens it into a registry of
//!   dotted-name counters.
//! * [`Json`] / [`ToJson`] — a tiny dependency-free JSON encoder (and
//!   parser, for reading saved profiles back) so run reports and bench
//!   tables can be emitted machine-readable (the environment cannot
//!   fetch serde, so this is hand-rolled).
//! * [`Profile`] — the profiling layer: log-bucketed [`Histogram`]s,
//!   [`Span`] timelines, a [`TimeSeries`] recorder, and per-hart cycle
//!   attribution by (domain, privilege level), plus the [`AuditLog`] of
//!   denied checks the PCU keeps (always on, outside the spine: it is a
//!   snapshotted security record, not telemetry).
//! * [`TraceCollector`] — request span trees assembled from the harts'
//!   request buffers, with tail sampling and latency exemplars.
//! * [`ProfileReport`] / [`TraceReport`] — Perfetto `trace_event`
//!   export of profiles and request trees through one set of event
//!   builders.

#![warn(missing_docs)]

mod counters;
mod event;
mod json;
mod perfetto;
mod prof;
mod ring;
mod spine;
mod trace;

pub use counters::{
    BbCounters, CacheBank, CacheCounters, CheckCounters, Counters, GateCounters, JitCounters,
    RunCounters, SmpCounters, TimingCounters,
};
pub use event::{CacheKind, CheckKind, TimedEvent, TraceEvent};
pub use json::{Json, ToJson};
pub use perfetto::{ProfileReport, RunProfile, TraceReport};
pub use prof::{
    AuditKind, AuditLog, AuditRecord, DomainCycles, Histogram, OpClass, Profile, Span, SpanKind,
    StepClass, TimeSeries, AUDIT_CAP,
};
pub use ring::EventRing;
pub use spine::{Commit, Obs, Spine};
pub use trace::{
    DeoptReason, Exemplars, HartEvent, ReqEvent, ReqTrace, Segment, TelemetryStats, TraceCollector,
    TraceId, TraceMode, TracePolicy,
};
