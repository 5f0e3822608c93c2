//! Integration checks of the observability layer: the trace-event
//! stream recorded by a full kernel run must agree, event by event and
//! counter by counter, with what the machine actually committed.

use isa_obs::{ToJson, TraceEvent};
use simkernel::layout::sys;
use simkernel::{usr, KernelConfig, SimBuilder};

const STEPS: u64 = 50_000_000;
const RING: usize = 1 << 21;

/// The `tests/gates.rs` trusted-stack scenario: mapctl (hccalls/hcrets)
/// interleaved with ioctls (hccall pairs) on the decomposed kernel.
fn gate_scenario() -> isa_asm::Program {
    let mut a = usr::program();
    usr::repeat(&mut a, 6, "l", |a| {
        a.li(isa_asm::Reg::A0, 0);
        a.li(isa_asm::Reg::A1, 0);
        usr::syscall(a, sys::MAPCTL);
        a.li(isa_asm::Reg::A0, 1);
        a.li(isa_asm::Reg::A1, 0);
        usr::syscall(a, sys::IOCTL);
    });
    usr::exit_code(&mut a, 0);
    a.assemble().unwrap()
}

#[test]
fn gate_switch_events_match_committed_instruction_order() {
    let prog = gate_scenario();
    let mut sim = SimBuilder::new(KernelConfig::decomposed())
        .trace_events(RING)
        .boot(&prog, None);
    assert_eq!(sim.run_to_halt(STEPS).unwrap(), 0);
    let events = sim.trace_events();
    assert!(!events.is_empty());
    assert_eq!(sim.machine.obs.dropped(), 0, "grow RING: ring overflowed");

    // The committed gate instructions, in retire order.
    let gate_retires: Vec<&isa_obs::TimedEvent> = events
        .iter()
        .filter(|e| match e.event {
            TraceEvent::Retire { raw, trapped, .. } => {
                !trapped
                    && isa_sim::decode(raw)
                        .map(|d| d.kind.is_gate())
                        .unwrap_or(false)
            }
            _ => false,
        })
        .collect();
    // The gate events the PCU emitted, in stream order.
    let gate_events: Vec<&isa_obs::TimedEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                TraceEvent::GateCall { .. } | TraceEvent::GateReturn { .. }
            )
        })
        .collect();

    assert!(
        gate_retires.len() >= 12,
        "boot + 6 mapctl + 6 ioctl round trips"
    );
    assert_eq!(
        gate_events.len(),
        gate_retires.len(),
        "one gate event per committed gate instruction"
    );
    for (ev, retire) in gate_events.iter().zip(&gate_retires) {
        // Same instruction: the gate event belongs to the step whose
        // retire follows it in the stream.
        assert_eq!(ev.step, retire.step, "gate event paired with wrong retire");
        assert!(ev.seq < retire.seq, "gate event must precede its retire");
        // The retire is stamped with the post-switch domain.
        let to = match ev.event {
            TraceEvent::GateCall { to_domain, .. } => to_domain,
            TraceEvent::GateReturn { to_domain, .. } => to_domain,
            _ => unreachable!(),
        };
        match retire.event {
            TraceEvent::Retire { domain, .. } => assert_eq!(domain, to),
            _ => unreachable!(),
        }
    }

    // Domain switches chain: each switch starts where the last ended.
    let mut dom = 0u16;
    for e in &events {
        if let TraceEvent::DomainSwitch { from, to } = e.event {
            assert_eq!(from, dom, "switch out of a domain we were not in");
            dom = to;
        }
    }
}

#[test]
fn counters_agree_with_the_event_stream() {
    let prog = gate_scenario();
    let mut sim = SimBuilder::new(KernelConfig::decomposed())
        .trace_events(RING)
        .boot(&prog, None);
    assert_eq!(sim.run_to_halt(STEPS).unwrap(), 0);
    let events = sim.trace_events();
    assert_eq!(sim.machine.obs.dropped(), 0, "grow RING: ring overflowed");
    let c = sim.counters();

    let count =
        |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(&e.event)).count() as u64;
    assert_eq!(
        c.gates.calls,
        count(&|e| matches!(e, TraceEvent::GateCall { .. }))
    );
    assert_eq!(
        c.gates.returns,
        count(&|e| matches!(e, TraceEvent::GateReturn { .. }))
    );
    assert_eq!(
        c.run.steps,
        count(&|e| matches!(e, TraceEvent::Retire { .. }))
    );
    assert_eq!(c.run.steps, sim.machine.steps);
    assert_eq!(
        c.run.traps,
        count(&|e| matches!(e, TraceEvent::Trap { .. }))
    );
    // Every cache probe left both an event and a counter increment.
    let bank = c.caches;
    let probes: u64 = bank.named().iter().map(|(_, s)| s.hits + s.misses).sum();
    assert_eq!(probes, count(&|e| matches!(e, TraceEvent::Cache { .. })));
    let hits: u64 = bank.named().iter().map(|(_, s)| s.hits).sum();
    assert_eq!(
        hits,
        count(&|e| matches!(e, TraceEvent::Cache { hit: true, .. }))
    );

    // The same run without tracing produces identical counters: the
    // sink must observe, never perturb.
    let mut quiet = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
    assert_eq!(quiet.run_to_halt(STEPS).unwrap(), 0);
    let qc = quiet.counters();
    assert_eq!(qc.caches, c.caches);
    assert_eq!(qc.checks, c.checks);
    assert_eq!(qc.gates, c.gates);
    assert_eq!(qc.run.steps, c.run.steps);

    // Counter names round-trip through the flat registry view.
    for (name, v) in c.entries() {
        assert_eq!(c.get(&name), Some(v), "{name}");
    }
    assert_eq!(c.get("gates.calls"), Some(c.gates.calls));
}

#[test]
fn conflict_evictions_and_jit_tallies_surface_in_the_registry() {
    let prog = gate_scenario();
    let mut sim = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
    assert_eq!(sim.run_to_halt(STEPS).unwrap(), 0);
    let c = sim.counters();
    // Conflict evictions (two live fetch contexts fighting over one
    // direct-mapped entry) are first-class observable counters for each
    // of the three structures — distinct from cold misses, so hit-rate
    // regressions caused by key churn are attributable.
    for name in [
        "bbcache.decode.conflicts",
        "bbcache.tlb.conflicts",
        "bbcache.dtlb.conflicts",
    ] {
        assert!(c.get(name).is_some(), "{name} missing from the registry");
    }
    // The superblock JIT's diagnostics ride the same registry, and an
    // untraced kernel run actually exercises the fast path.
    let entered = c.get("jit.entered").expect("jit.entered is registered");
    assert!(entered > 0, "kernel run should enter compiled blocks");
    assert!(c.get("jit.compiled").unwrap_or(0) > 0);
    assert!(c.get("jit.ops").unwrap_or(0) >= entered);
    // Deopts are split by reason in the registry. Guard misses retire
    // before block dispatch, so the per-reason total covers at least
    // the in-block `jit.deopts` tally, and the guard slot mirrors
    // `jit.guard_misses` exactly.
    let reasons = [
        "guard",
        "trap",
        "mmio",
        "epoch",
        "interrupt",
        "timer",
        "budget",
    ];
    let mut by_reason = 0;
    for r in reasons {
        let name = format!("jit.deopt.{r}");
        by_reason += c
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing from the registry"));
    }
    assert!(by_reason >= c.get("jit.deopts").unwrap_or(0));
    assert_eq!(c.get("jit.deopt.guard"), c.get("jit.guard_misses"));
    // The JSON report carries both blocks for the CI smoke checks.
    let json = c.to_json().to_string();
    assert!(json.contains("\"conflicts\""));
    assert!(json.contains("\"jit\""));
}

#[test]
fn json_report_totals_equal_the_struct_fields() {
    let prog = gate_scenario();
    let r = workloads::measure::run(
        KernelConfig::decomposed(),
        simkernel::Platform::Rocket,
        isa_grid::PcuConfig::eight_e(),
        &prog,
        None,
        STEPS,
    );
    let json = r.to_json().to_string();
    assert!(json.contains(&format!("\"calls\":{}", r.gate_calls)));
    assert!(json.contains(&format!("\"total_cycles\":{}", r.total_cycles)));
    assert!(json.contains(&format!("\"hits\":{}", r.cache.sgt.hits)));
}
