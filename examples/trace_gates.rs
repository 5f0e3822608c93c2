//! Watch ISA-Grid work instruction by instruction: run a guest through
//! an unforgeable gate crossing with the observability layer enabled
//! and print the structured trace-event stream as JSON lines — every
//! privilege-check verdict, cache probe, gate call, domain switch and
//! the final CSR-fault trap, in commit order — followed by the unified
//! counter snapshot.
//!
//! Run with: `cargo run --example trace_gates`

use isa_asm::{Asm, Reg::*};
use isa_grid::{DomainSpec, GateSpec, GridLayout, Pcu, PcuConfig};
use isa_obs::{Obs, Spine, ToJson};
use isa_sim::csr::addr;
use isa_sim::{mmio, Kind, Machine, DEFAULT_RAM_BASE as RAM};

fn main() {
    let mut a = Asm::new(RAM);
    a.la(T0, "mtrap");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "kernel");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0); // -> helper domain
    a.label("helper");
    a.add(T0, T1, T2);
    a.csrr(T3, addr::CYCLE as u32);
    a.li(A0, 1);
    a.label("gate_back");
    a.hccall(A0); // -> back
    a.label("back");
    a.csrw(addr::SATP as u32, Zero); // denied: watch the fault fire
    a.label("mtrap");
    a.csrr(A0, addr::MCAUSE as u32);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    let prog = a.assemble().expect("assembles");

    let mut m = Machine::new(Pcu::new(PcuConfig::eight_e()));
    m.load_program(&prog);
    m.ext
        .install(&mut m.bus, GridLayout::new(0x8380_0000, 1 << 20));
    let mut spec = DomainSpec::compute_only();
    spec.allow_insts([Kind::Csrrw, Kind::Csrrs]);
    spec.allow_csr_read(addr::CYCLE);
    let d1 = m.ext.add_domain(&mut m.bus, &spec);
    let d2 = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("helper"),
            dest_domain: d2,
        },
    );
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate_back"),
            dest_addr: prog.symbol("back"),
            dest_domain: d1,
        },
    );

    // One handle: the machine stamps retires and traps, and `set_obs`
    // hands the PCU a clone for checks, cache probes and gate activity.
    // Sharing one spine is what keeps the stream in commit order.
    let obs = Obs::new(Spine::new().with_ring(4096));
    m.set_obs(obs.clone());

    for _ in 0..200 {
        m.step();
        if m.bus.halted().is_some() {
            break;
        }
    }

    // One JSON object per line, in commit order.
    for ev in obs.events() {
        println!("{}", ev.to_json());
    }
    println!("counters = {}", m.ext.counters().to_json().pretty());
    println!("halted with mcause = {:?}", m.bus.halted());
}
