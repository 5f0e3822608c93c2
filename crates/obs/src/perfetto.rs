//! Perfetto / Chrome `trace_event` JSON export.
//!
//! A [`ProfileReport`] gathers the per-hart [`Profile`]s and audit logs
//! of one or more runs and renders them as a single JSON document that
//! the Perfetto UI (<https://ui.perfetto.dev>) loads directly:
//!
//! * `traceEvents` — the standard trace-event array. Each run is a
//!   Perfetto *process* (named by the run), each hart a *thread*
//!   ("hart N"), and every profile span becomes a complete (`"ph":"X"`)
//!   event. One modeled cycle is rendered as one microsecond, so the
//!   Perfetto timeline reads directly in cycles.
//! * `isaGrid` — a sidecar object with the aggregate attribution
//!   (per-domain cycles, latency histograms with precomputed
//!   percentiles, audit log). Perfetto ignores unknown top-level keys;
//!   `grid-prof` reads this section so it never has to re-derive
//!   percentiles from raw events.

use crate::json::{Json, ToJson};
use crate::prof::{domains_json, op_classes_json, AuditRecord, Profile, Span, SpanKind};
use crate::trace::{ReqEvent, TraceCollector};

/// One profiled run: a name, the per-hart profiles, and the audit log.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Display name ("stat/native", "smp-scaling", …).
    pub name: String,
    /// One profile per hart that executed.
    pub profiles: Vec<Profile>,
    /// Denied checks recorded by the run's PCU(s).
    pub audit: Vec<AuditRecord>,
}

/// A collection of profiled runs, exportable as one Perfetto trace.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// The runs, in execution order.
    pub runs: Vec<RunProfile>,
}

/// Display name of a span for the Perfetto track.
fn span_name(s: &Span) -> String {
    match s.kind {
        SpanKind::Domain => format!("domain {}", s.id),
        SpanKind::Gate => format!("gate→{}", s.id),
        SpanKind::Shootdown => format!("shootdown×{}", s.id),
        SpanKind::Fault => format!("fault×{}", s.id),
    }
}

/// One trace event: `ph`, `pid`, the `tid` of a thread-scoped event,
/// then `fields` in order. Both exporters build every event here.
fn event(ph: &str, pid: u64, tid: Option<u64>, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("ph".to_string(), Json::Str(ph.into())),
        ("pid".to_string(), Json::U64(pid)),
    ];
    if let Some(t) = tid {
        pairs.push(("tid".to_string(), Json::U64(t)));
    }
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// A `"ph":"M"` metadata event naming a process or thread.
fn metadata(pid: u64, tid: Option<u64>, what: &str, name: &str) -> Json {
    event(
        "M",
        pid,
        tid,
        vec![
            ("name", Json::Str(what.into())),
            ("args", Json::obj([("name", Json::Str(name.into()))])),
        ],
    )
}

impl ProfileReport {
    /// A report over the given runs.
    pub fn new(runs: Vec<RunProfile>) -> Self {
        ProfileReport { runs }
    }

    /// The `traceEvents` array.
    fn trace_events(&self) -> Json {
        let mut events = Vec::new();
        for (i, run) in self.runs.iter().enumerate() {
            let pid = i as u64 + 1;
            events.push(metadata(pid, None, "process_name", &run.name));
            for p in &run.profiles {
                let tid = p.hart as u64;
                events.push(metadata(
                    pid,
                    Some(tid),
                    "thread_name",
                    &format!("hart {}", p.hart),
                ));
                for s in p.spans() {
                    events.push(event(
                        "X",
                        pid,
                        Some(tid),
                        vec![
                            ("ts", Json::U64(s.start)),
                            ("dur", Json::U64(s.cycles().max(1))),
                            ("name", Json::Str(span_name(s))),
                            ("cat", Json::Str(s.kind.name().into())),
                        ],
                    ));
                }
            }
        }
        Json::Arr(events)
    }

    /// Aggregate attribution across every run and hart.
    fn totals(&self) -> Json {
        let mut agg = Profile::new(0);
        let mut audit_total = 0u64;
        for run in &self.runs {
            for p in &run.profiles {
                agg.merge_attribution(p);
            }
            audit_total += run.audit.len() as u64;
        }
        Json::obj([
            ("cycles", Json::U64(agg.cycles())),
            ("steps", Json::U64(agg.steps())),
            ("faults", Json::U64(agg.faults)),
            ("audit_total", Json::U64(audit_total)),
            ("domains", domains_json(&agg.domains)),
            ("op_classes", op_classes_json(&agg.op_classes)),
            (
                "histograms",
                Json::obj([
                    ("gate_switch", agg.gate_switch.to_json()),
                    ("check", agg.check.to_json()),
                    ("grid_miss", agg.grid_miss.to_json()),
                    ("shootdown", agg.shootdown.to_json()),
                ]),
            ),
        ])
    }

    /// The full document: `traceEvents` plus the `isaGrid` sidecar.
    pub fn to_json(&self) -> Json {
        let runs: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.clone())),
                    (
                        "harts",
                        Json::Arr(r.profiles.iter().map(ToJson::to_json).collect()),
                    ),
                    (
                        "audit",
                        Json::Arr(r.audit.iter().map(ToJson::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", self.trace_events()),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "isaGrid",
                Json::obj([("runs", Json::Arr(runs)), ("totals", self.totals())]),
            ),
        ])
    }
}

/// A `"ph":"X"` slice on track `tid` of the request trace.
fn slice(tid: u64, ts: u64, dur: u64, name: String, cat: &str, args: Json) -> Json {
    event(
        "X",
        1,
        Some(tid),
        vec![
            ("ts", Json::U64(ts)),
            ("name", Json::Str(name)),
            ("cat", Json::Str(cat.into())),
            ("dur", Json::U64(dur.max(1))),
            ("args", args),
        ],
    )
}

/// A flow endpoint on track `tid`: `"s"` starts a flow, `"f"` finishes
/// it, binding to the enclosing slice. Perfetto matches endpoints on
/// `(cat, id, name)`, so both ends must agree on all three.
fn flow(ph: &str, tid: u64, ts: u64, name: &str, cat: &str, id: u64) -> Json {
    let mut fields = vec![
        ("ts", Json::U64(ts)),
        ("name", Json::Str(name.into())),
        ("cat", Json::Str(cat.into())),
    ];
    if ph == "f" {
        fields.push(("bp", Json::Str("e".into())));
    }
    fields.push(("id", Json::U64(id)));
    event(ph, 1, Some(tid), fields)
}

/// Renders a [`TraceCollector`]'s kept request trees as one Perfetto
/// document with causally-linked spans across hart tracks:
///
/// * track 0 is the **host** (the serve driver): request arrivals and
///   shootdown publishes start flow arrows there;
/// * track `h + 1` is **hart h**: each kept request is a root
///   complete event `[dispatch, harvest)` with its domain-residency
///   segments as child slices and its denials / deopts / shootdown
///   acks as unit-duration markers;
/// * flow events (`"ph":"s"` / `"ph":"f"`) link the host arrival to
///   the hart dispatch (category `req`, id = trace ID) and each
///   shootdown publish to its per-hart acks (category `shootdown`,
///   id = coherence epoch) — the cross-track causality arrows.
///
/// One virtual cycle renders as one microsecond. The `isaGridTrace`
/// sidecar carries the telemetry stats, exemplars, and kept-tree
/// summaries for tools that don't want to re-derive them.
#[derive(Debug, Clone, Copy)]
pub struct TraceReport<'a> {
    /// Display name of the run.
    pub name: &'a str,
    /// Harts in the session (fixes the track count).
    pub harts: usize,
    /// The collector holding kept trees and flow endpoints.
    pub collector: &'a TraceCollector,
}

impl TraceReport<'_> {
    /// The `traceEvents` array.
    fn trace_events(&self) -> Json {
        let c = self.collector;
        let mut events = Vec::new();
        events.push(metadata(1, None, "process_name", self.name));
        events.push(metadata(1, Some(0), "thread_name", "host"));
        for h in 0..self.harts {
            events.push(metadata(
                1,
                Some(h as u64 + 1),
                "thread_name",
                &format!("hart {h}"),
            ));
        }
        for tr in c.kept() {
            let tid = tr.hart as u64 + 1;
            events.push(flow("s", 0, tr.arrival, "dispatch", "req", tr.id));
            events.push(flow("f", tid, tr.start, "dispatch", "req", tr.id));
            events.push(slice(
                tid,
                tr.start,
                tr.end.saturating_sub(tr.start),
                format!("req {}", tr.id),
                "req",
                Json::obj([
                    ("tenant", Json::U64(tr.tenant as u64)),
                    ("kind", Json::U64(tr.kind as u64)),
                    ("arrival", Json::U64(tr.arrival)),
                    ("latency", Json::U64(tr.latency)),
                    ("denied", Json::Bool(tr.denied)),
                ]),
            ));
            for seg in tr.segments() {
                events.push(slice(
                    tid,
                    seg.start,
                    seg.cycles(),
                    format!("domain {}", seg.domain),
                    "req_domain",
                    Json::obj([("trace_id", Json::U64(tr.id))]),
                ));
            }
            for (t, ev) in &tr.events {
                let (name, a, b) = match ev {
                    ReqEvent::GateEnter { .. } | ReqEvent::GateExit { .. } => continue,
                    ReqEvent::Deny { cause, detail } => ("deny", *cause, *detail),
                    ReqEvent::ShootdownAck { flushes, epoch } => {
                        ("shootdown_ack", *flushes as u64, *epoch)
                    }
                    ReqEvent::Deopt { reason } => ("deopt", reason.index() as u64, 0),
                };
                events.push(slice(
                    tid,
                    *t,
                    1,
                    name.to_string(),
                    ev.name(),
                    Json::obj([
                        ("trace_id", Json::U64(tr.id)),
                        ("a", Json::U64(a)),
                        ("b", Json::U64(b)),
                    ]),
                ));
            }
        }
        for (epoch, t) in c.publishes() {
            events.push(flow("s", 0, *t, "publish", "shootdown", *epoch));
        }
        for (epoch, hart, t) in c.acks() {
            // An ack needs a published start to bind to; rotations
            // always publish before harts ack, so unmatched acks only
            // appear when the publish list overflowed its bound.
            events.push(flow(
                "f",
                *hart as u64 + 1,
                *t,
                "publish",
                "shootdown",
                *epoch,
            ));
            events.push(slice(
                *hart as u64 + 1,
                *t,
                1,
                format!("ack e{epoch}"),
                "shootdown",
                Json::obj([("epoch", Json::U64(*epoch))]),
            ));
        }
        Json::Arr(events)
    }

    /// The full document: `traceEvents` plus the `isaGridTrace`
    /// sidecar.
    pub fn to_json(&self) -> Json {
        let c = self.collector;
        Json::obj([
            ("traceEvents", self.trace_events()),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "isaGridTrace",
                Json::obj([
                    ("name", Json::Str(self.name.to_string())),
                    ("harts", Json::U64(self.harts as u64)),
                    ("mode", Json::Str(c.policy().mode.name().to_string())),
                    ("telemetry", c.stats.to_json()),
                    ("latency_exemplars", c.latency_exemplars.to_json()),
                    ("service_exemplars", c.service_exemplars.to_json()),
                    (
                        "kept",
                        Json::Arr(c.kept().iter().map(ToJson::to_json).collect()),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::StepClass;
    use crate::spine::Commit;

    fn profiled_run() -> RunProfile {
        let mut p = Profile::new(0);
        p.record_step(&Commit {
            domain: 0,
            priv_level: 1,
            cycles: 7,
            ..Commit::default()
        });
        p.record_step(&Commit {
            domain: 2,
            priv_level: 0,
            cycles: 12,
            class: StepClass {
                gate_switch: true,
                checks: 1,
                ..StepClass::default()
            },
            ..Commit::default()
        });
        p.finish();
        RunProfile {
            name: "unit/run".into(),
            profiles: vec![p],
            audit: vec![],
        }
    }

    #[test]
    fn report_has_process_thread_and_span_events() {
        let doc = ProfileReport::new(vec![profiled_run()]).to_json();
        let s = doc.to_string();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("\"hart 0\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"cat\":\"domain\""));
        assert!(s.contains("\"cat\":\"gate\""));
        assert!(s.contains("\"isaGrid\""));
    }

    fn traced_collector() -> TraceCollector {
        use crate::trace::{TraceMode, TracePolicy};
        let mut c = TraceCollector::new(TracePolicy {
            mode: TraceMode::Full,
            ..TracePolicy::default()
        });
        c.begin(9, 2, 1, 3, 100, 120);
        c.ingest(3, 9, 130, ReqEvent::GateEnter { domain: 4 });
        c.ingest(3, 9, 150, ReqEvent::GateExit { domain: 0 });
        c.note_publish(5, 140);
        c.ingest(
            3,
            0,
            145,
            ReqEvent::ShootdownAck {
                flushes: 2,
                epoch: 5,
            },
        );
        c.finish(9, 200, 100, 60, false);
        c
    }

    fn trace_doc(c: &TraceCollector) -> Json {
        TraceReport {
            name: "unit/trace",
            harts: 4,
            collector: c,
        }
        .to_json()
    }

    #[test]
    fn trace_report_emits_cross_track_flow_events() {
        let doc = trace_doc(&traced_collector());
        let s = doc.to_string();
        // Request flow: start on the host track, finish on hart 3.
        assert!(s.contains("\"ph\":\"s\""));
        assert!(s.contains("\"ph\":\"f\""));
        assert!(s.contains("\"cat\":\"req\""));
        assert!(s.contains("\"cat\":\"shootdown\""));
        assert!(s.contains("\"req 9\""));
        assert!(s.contains("\"domain 4\""));
        assert!(s.contains("\"isaGridTrace\""));
        // Round-trips through the hand-rolled parser.
        let parsed = Json::parse(&s).expect("trace JSON parses");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn totals_aggregate_across_runs() {
        let doc = ProfileReport::new(vec![profiled_run(), profiled_run()]);
        let j = doc.to_json();
        let s = j.to_string();
        // 2 runs × 19 cycles each.
        assert!(s.contains("\"totals\":{\"cycles\":38"));
    }

    /// Both fixtures' documents, byte for byte, as the exporters wrote
    /// them before they shared one set of event builders.
    const PROFILE_GOLDEN: &str = r#"{"traceEvents":[{"ph":"M","pid":1,"name":"process_name","args":{"name":"unit/run"}},{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"hart 0"}},{"ph":"X","pid":1,"tid":0,"ts":0,"dur":7,"name":"domain 0","cat":"domain"},{"ph":"X","pid":1,"tid":0,"ts":7,"dur":12,"name":"gate→2","cat":"gate"},{"ph":"X","pid":1,"tid":0,"ts":7,"dur":12,"name":"domain 2","cat":"domain"}],"displayTimeUnit":"ms","isaGrid":{"runs":[{"name":"unit/run","harts":[{"hart":0,"cycles":19,"steps":2,"faults":0,"domains":[{"domain":0,"priv":1,"cycles":7,"steps":1},{"domain":2,"priv":0,"cycles":12,"steps":1}],"op_classes":[{"class":"alu","cycles":19,"steps":2}],"histograms":{"gate_switch":{"count":1,"sum":12,"max":12,"mean":12,"p50":12,"p90":12,"p99":12,"buckets":[{"le":15,"n":1}]},"check":{"count":1,"sum":12,"max":12,"mean":12,"p50":12,"p90":12,"p99":12,"buckets":[{"le":15,"n":1}]},"grid_miss":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]},"shootdown":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]},"fault":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]}},"series":{"interval":4096,"slices":[19]},"spans_dropped":0}],"audit":[]}],"totals":{"cycles":19,"steps":2,"faults":0,"audit_total":0,"domains":[{"domain":0,"priv":1,"cycles":7,"steps":1},{"domain":2,"priv":0,"cycles":12,"steps":1}],"op_classes":[{"class":"alu","cycles":19,"steps":2}],"histograms":{"gate_switch":{"count":1,"sum":12,"max":12,"mean":12,"p50":12,"p90":12,"p99":12,"buckets":[{"le":15,"n":1}]},"check":{"count":1,"sum":12,"max":12,"mean":12,"p50":12,"p90":12,"p99":12,"buckets":[{"le":15,"n":1}]},"grid_miss":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]},"shootdown":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]}}}}}"#;
    const TRACE_GOLDEN: &str = r#"{"traceEvents":[{"ph":"M","pid":1,"name":"process_name","args":{"name":"unit/trace"}},{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"host"}},{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"hart 0"}},{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"hart 1"}},{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"hart 2"}},{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"hart 3"}},{"ph":"s","pid":1,"tid":0,"ts":100,"name":"dispatch","cat":"req","id":9},{"ph":"f","pid":1,"tid":4,"ts":120,"name":"dispatch","cat":"req","bp":"e","id":9},{"ph":"X","pid":1,"tid":4,"ts":120,"name":"req 9","cat":"req","dur":80,"args":{"tenant":2,"kind":1,"arrival":100,"latency":100,"denied":false}},{"ph":"X","pid":1,"tid":4,"ts":130,"name":"domain 4","cat":"req_domain","dur":20,"args":{"trace_id":9}},{"ph":"X","pid":1,"tid":4,"ts":150,"name":"domain 0","cat":"req_domain","dur":50,"args":{"trace_id":9}},{"ph":"s","pid":1,"tid":0,"ts":140,"name":"publish","cat":"shootdown","id":5},{"ph":"f","pid":1,"tid":4,"ts":145,"name":"publish","cat":"shootdown","bp":"e","id":5},{"ph":"X","pid":1,"tid":4,"ts":145,"name":"ack e5","cat":"shootdown","dur":1,"args":{"epoch":5}}],"displayTimeUnit":"ms","isaGridTrace":{"name":"unit/trace","harts":4,"mode":"full","telemetry":{"requests":1,"events_emitted":0,"events_dropped":0,"events_harvested":3,"kept":1,"discarded":0,"kept_full":1,"kept_slow":0,"kept_denied":0,"kept_survey":0,"kept_exemplar":1,"trees_dropped":0},"latency_exemplars":[{"le":127,"trace_ids":[9]}],"service_exemplars":[{"le":63,"trace_ids":[9]}],"kept":[{"id":9,"tenant":2,"kind":1,"hart":3,"arrival":100,"start":120,"end":200,"latency":100,"denied":false,"events":2}]}}"#;

    #[test]
    fn exports_match_the_golden_documents() {
        let profile = ProfileReport::new(vec![profiled_run()]).to_json();
        assert_eq!(profile.to_string(), PROFILE_GOLDEN);
        assert_eq!(trace_doc(&traced_collector()).to_string(), TRACE_GOLDEN);
    }
}
