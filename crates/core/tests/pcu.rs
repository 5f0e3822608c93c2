//! End-to-end PCU tests: guest programs running under ISA-Grid.
//!
//! These exercise the paper's §4 mechanisms one by one: the hybrid
//! privilege check, the four unforgeable-gate properties, the trusted
//! stack, domain-0 semantics, and trusted-memory fencing.

use isa_asm::{Asm, Program, Reg::*};
use isa_grid::{DomainId, DomainSpec, GateSpec, GridLayout, Pcu, PcuConfig};
use isa_sim::csr::addr;
use isa_sim::{mmio, Exception, Exit, Kind, Machine, DEFAULT_RAM_BASE as RAM};

const TMEM: u64 = 0x8380_0000;

fn machine(cfg: PcuConfig) -> Machine<Pcu> {
    let mut m = Machine::new(Pcu::new(cfg));
    m.ext.install(&mut m.bus, GridLayout::new(TMEM, 1 << 20));
    m
}

/// M-mode prologue: set `mtvec` to the `mtrap` label, drop to S-mode at
/// the `kernel` label.
fn boot_to_s(a: &mut Asm) {
    a.la(T0, "mtrap");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "kernel");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
}

/// M-mode trap handler that halts with `mcause` as the exit code.
fn mtrap_halts_with_cause(a: &mut Asm) {
    a.label("mtrap");
    a.csrr(A0, addr::MCAUSE as u32);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
}

fn run(m: &mut Machine<Pcu>, prog: &Program) -> u64 {
    m.load_program(prog);
    match m.run(1_000_000) {
        Exit::Halted(v) => v,
        Exit::StepLimit => panic!(
            "no halt; pc={:#x} domain={}",
            m.cpu.pc,
            m.ext.current_domain()
        ),
    }
}

fn halt_ok(a: &mut Asm) {
    a.li(T6, mmio::HALT);
    a.li(T5, 0xAA);
    a.sd(T5, T6, 0);
    a.nop();
}

/// A kernel-ish domain: compute + CSR instruction classes (per-CSR rights
/// still come from the register bitmap).
fn kernelish() -> DomainSpec {
    let mut d = DomainSpec::compute_only();
    d.allow_insts([
        Kind::Csrrw,
        Kind::Csrrs,
        Kind::Csrrc,
        Kind::Csrrwi,
        Kind::Csrrsi,
        Kind::Csrrci,
    ]);
    d
}

#[test]
fn gate_switches_domain_and_redirects() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("never"); // gate must NOT fall through
    a.li(T5, 1);
    a.li(T6, mmio::HALT);
    a.sd(T5, T6, 0);
    a.label("target");
    // Verify the domain CSR changed and pdomain holds the source.
    a.csrr(A1, addr::GRID_DOMAIN as u32);
    a.csrr(A2, addr::GRID_PDOMAIN as u32);
    a.slli(A1, A1, 8);
    a.or(A0, A1, A2);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();

    let mut spec = kernelish();
    spec.allow_csr_read(addr::GRID_DOMAIN)
        .allow_csr_read(addr::GRID_PDOMAIN);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    assert_eq!(d, DomainId(1));
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("target"),
            dest_domain: d,
        },
    );
    // domain=1 in bits 15:8, pdomain=0 in bits 7:0.
    assert_eq!(run(&mut m, &prog), 1 << 8);
    assert_eq!(m.ext.current_domain(), DomainId(1));
    assert_eq!(m.ext.stats.gate_calls, 1);
}

#[test]
fn property_i_gate_only_callable_at_registered_address() {
    // An identical hccall instruction at a *different* address must fault:
    // injected/ROP gates cannot switch domains.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("rogue_gate"); // not the registered address!
    a.hccall(A0);
    halt_ok(&mut a);
    a.label("registered_gate");
    a.hccall(A0);
    a.label("target");
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();

    let d = m.ext.add_domain(&mut m.bus, &kernelish());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("registered_gate"),
            dest_addr: prog.symbol("target"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_GATE);
    assert!(m.ext.stats.faults > 0);
}

#[test]
fn property_iv_unregistered_gate_id_faults() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 7); // no such gate
    a.hccall(A0);
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    m.ext.add_domain(&mut m.bus, &kernelish());
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_GATE);
}

#[test]
fn properties_ii_iii_destination_is_pinned() {
    // The gate jumps to the registered destination/domain no matter what
    // the caller hoped for: we verify by observing where control lands.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    // Attacker-chosen code right after the gate: never reached.
    a.li(A0, 0xbad);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.label("pinned_dest");
    a.csrr(A0, addr::GRID_DOMAIN as u32);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();

    let mut spec = kernelish();
    spec.allow_csr_read(addr::GRID_DOMAIN);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("pinned_dest"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), d.0);
}

#[test]
fn extended_gate_call_and_return() {
    // hccalls pushes (ret, src domain) on the trusted stack; hcrets pops
    // and returns — the cross-domain call-and-return convention (§4.2).
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(S0, 0x11);
    a.li(A0, 1); // gate 1: kernel -> helper domain
    a.label("gate_in");
    a.hccalls(A0);
    // hcrets lands here (pc+4 of the hccalls).
    a.csrr(A1, addr::GRID_DOMAIN as u32);
    a.slli(A1, A1, 8);
    a.or(A0, A1, S1);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    a.label("helper");
    a.li(S1, 0x22); // proof the helper ran
    a.hcrets();
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();

    let mut kspec = kernelish();
    kspec.allow_csr_read(addr::GRID_DOMAIN);
    let helper = m.ext.add_domain(&mut m.bus, &DomainSpec::compute_only());
    let kernel = m.ext.add_domain(&mut m.bus, &kspec);
    // Gate 0: initial entry M/domain-0 -> kernel domain.
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: 0, // unused entry so ids line up with the program
            dest_addr: 0,
            dest_domain: DomainId::INIT,
        },
    );
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate_in"),
            dest_addr: prog.symbol("helper"),
            dest_domain: helper,
        },
    );
    let l = m.ext.layout();
    m.ext
        .set_trusted_stack(l.tstack_base(), l.tstack_base() + 4096);
    // Enter the kernel domain directly (boot path tested elsewhere).
    m.ext.force_domain(kernel);
    // After the round trip the domain must be back to `kernel` (hcrets
    // pops the source domain) and S1 must carry the helper's mark.
    assert_eq!(run(&mut m, &prog), (kernel.0 << 8) | 0x22);
    assert_eq!(m.ext.stats.gate_calls, 1);
    assert_eq!(m.ext.stats.gate_returns, 1);
}

#[test]
fn hcrets_on_empty_trusted_stack_faults() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.hcrets();
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let l = m.ext.layout();
    m.ext
        .set_trusted_stack(l.tstack_base(), l.tstack_base() + 4096);
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_GATE);
}

#[test]
fn hcrets_cannot_return_to_domain_0() {
    // A frame whose saved domain is 0 must be rejected (§4.4): the
    // extended return can never be abused to reach the all-privileged
    // domain.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate"); // called while still in domain-0: pushes src=0
    a.hccalls(A0);
    a.label("target");
    a.hcrets(); // would return to domain-0 -> fault
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &kernelish());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("target"),
            dest_domain: d,
        },
    );
    let l = m.ext.layout();
    m.ext
        .set_trusted_stack(l.tstack_base(), l.tstack_base() + 4096);
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_GATE);
}

#[test]
fn trusted_stack_overflow_faults() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccalls(A0); // frame is 16 bytes; stack is only 16 bytes...
    a.label("target");
    a.li(A0, 1);
    a.label("gate2");
    a.hccalls(A0); // ...so the second push overflows
    a.label("target2");
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &kernelish());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("target"),
            dest_domain: d,
        },
    );
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate2"),
            dest_addr: prog.symbol("target2"),
            dest_domain: d,
        },
    );
    let l = m.ext.layout();
    m.ext
        .set_trusted_stack(l.tstack_base(), l.tstack_base() + 16);
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_GATE);
}

#[test]
fn instruction_bitmap_blocks_denied_class() {
    // The restricted domain may not execute sfence.vma — the TLB
    // maintenance instruction class.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.add(T0, T1, T2); // allowed: plain compute
    a.sfence_vma(Zero, Zero); // denied class -> grid fault
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &DomainSpec::compute_only());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_INST);
}

#[test]
fn csr_read_and_write_bits_enforced_independently() {
    // Domain may read satp but not write it.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.csrr(T0, addr::SATP as u32); // allowed
    a.csrw(addr::SATP as u32, Zero); // denied -> fault 25
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let mut spec = kernelish();
    spec.allow_csr_read(addr::SATP);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_CSR);
}

#[test]
fn bit_mask_allows_only_masked_bits() {
    // sstatus with mask = SIE only: toggling SIE is fine, touching SPIE
    // faults. This is the bit-level control of §4.1.
    let sie = 1u64 << 1;
    let spie = 1u64 << 5;
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.li(T0, sie);
    a.csrrs(Zero, addr::SSTATUS as u32, T0); // set SIE: within mask
    a.csrrc(Zero, addr::SSTATUS as u32, T0); // clear SIE: within mask
    a.li(T0, spie);
    a.csrrs(Zero, addr::SSTATUS as u32, T0); // SPIE: outside mask -> fault
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let mut spec = kernelish();
    spec.allow_csr_read(addr::SSTATUS);
    spec.allow_csr_write_masked(addr::SSTATUS, sie);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_CSR);
}

#[test]
fn identical_value_write_passes_any_mask() {
    // (V_csr ^ V_write) & !M == 0 holds trivially when nothing changes —
    // writing the current value back is always legal.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.csrr(T0, addr::SSTATUS as u32);
    a.csrw(addr::SSTATUS as u32, T0); // no-op write: allowed even with mask 0
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let mut spec = kernelish();
    spec.allow_csr_read(addr::SSTATUS);
    spec.allow_csr_write_masked(addr::SSTATUS, 0);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), 0xAA);
}

#[test]
fn trusted_memory_is_fenced_outside_domain_0() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.li(T0, TMEM);
    a.ld(A1, T0, 0); // read of the HPT itself -> trusted memory fault
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &DomainSpec::compute_only());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_TMEM);
}

#[test]
fn domain_register_is_never_writable() {
    // Even domain-0 (M-mode) cannot write `domain` with a CSR instruction.
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    a.la(T0, "mtrap");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T0, 5);
    a.csrw(addr::GRID_DOMAIN as u32, T0);
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_CSR);
}

#[test]
fn grid_base_registers_hidden_from_restricted_domains() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.csrr(T0, addr::GRID_TMEMB as u32); // -> fault
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &kernelish());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_CSR);
}

#[test]
fn pflh_flushes_and_pfch_prewarms() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    // Touch sstatus twice: first access misses, second hits.
    a.csrr(T0, addr::SSTATUS as u32);
    a.csrr(T0, addr::SSTATUS as u32);
    // Flush everything, then prefetch, then access: the access must hit.
    a.li(T1, 0);
    a.pflh(T1);
    a.li(T1, addr::SSTATUS as u64);
    a.pfch(T1);
    a.csrr(T0, addr::SSTATUS as u32);
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let mut spec = kernelish();
    spec.allow_csr_read(addr::SSTATUS);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    assert_eq!(run(&mut m, &prog), 0xAA);
    let stats = m.ext.cache_stats();
    // Accesses: miss, hit, (flush), hit-after-prefetch.
    assert_eq!(stats.reg.misses, 1, "{stats:?}");
    assert_eq!(stats.reg.hits, 2, "{stats:?}");
    assert!(m.ext.stats.flushes == 1 && m.ext.stats.prefetches == 1);
}

#[test]
fn sgt_cache_configs_affect_miss_counts() {
    // With an SGT cache, a hot gate misses once; with 8E.N (no SGT
    // cache) every call misses.
    for (cfg, expect_all_miss) in [
        (PcuConfig::eight_e(), false),
        (PcuConfig::eight_e_n(), true),
    ] {
        let mut m = machine(cfg);
        let mut a = Asm::new(RAM);
        boot_to_s(&mut a);
        a.label("kernel");
        a.li(S0, 10); // call the gate 10 times
        a.label("loop");
        a.li(A0, 0);
        a.label("gate");
        a.hccall(A0);
        a.label("target");
        a.li(A0, 1);
        a.label("gate_back");
        a.hccall(A0);
        a.label("back");
        a.addi(S0, S0, -1);
        a.bnez(S0, "loop");
        halt_ok(&mut a);
        mtrap_halts_with_cause(&mut a);
        let prog = a.assemble().unwrap();
        let d = m.ext.add_domain(&mut m.bus, &kernelish());
        m.ext.add_gate(
            &mut m.bus,
            GateSpec {
                gate_addr: prog.symbol("gate"),
                dest_addr: prog.symbol("target"),
                dest_domain: d,
            },
        );
        m.ext.add_gate(
            &mut m.bus,
            GateSpec {
                gate_addr: prog.symbol("gate_back"),
                dest_addr: prog.symbol("back"),
                dest_domain: d,
            },
        );
        assert_eq!(run(&mut m, &prog), 0xAA);
        let sgt = m.ext.cache_stats().sgt;
        assert_eq!(sgt.hits + sgt.misses, 20);
        if expect_all_miss {
            assert_eq!(sgt.misses, 20, "8E.N must always miss");
        } else {
            assert_eq!(sgt.misses, 2, "one cold miss per gate");
        }
    }
}

#[test]
fn update_domain_changes_privileges_at_runtime() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccall(A0);
    a.label("restricted");
    a.csrr(T0, addr::SATP as u32);
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let mut spec = kernelish();
    spec.allow_csr_read(addr::SATP);
    let d = m.ext.add_domain(&mut m.bus, &spec);
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("restricted"),
            dest_domain: d,
        },
    );
    // Revoke the read before running: the same program must now fault.
    spec.deny_csr(addr::SATP);
    m.ext.update_domain(&mut m.bus, d, &spec);
    assert_eq!(run(&mut m, &prog), Exception::CAUSE_GRID_CSR);
}

#[test]
fn ext_events_report_gate_and_stack_activity() {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(A0, 0);
    a.label("gate");
    a.hccalls(A0);
    a.label("target");
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    let d = m.ext.add_domain(&mut m.bus, &kernelish());
    m.ext.add_gate(
        &mut m.bus,
        GateSpec {
            gate_addr: prog.symbol("gate"),
            dest_addr: prog.symbol("target"),
            dest_domain: d,
        },
    );
    let l = m.ext.layout();
    m.ext
        .set_trusted_stack(l.tstack_base(), l.tstack_base() + 4096);
    m.load_program(&prog);
    // Step until we observe the gate event.
    let mut saw_gate = false;
    for _ in 0..10_000 {
        if let Some(ev) = m.step() {
            if ev.ext.gate_switch {
                assert_eq!(ev.ext.tstack_ops, 2, "push = 2 trusted-stack words");
                assert_eq!(ev.ext.sgt_miss, 1, "cold SGT lookup");
                saw_gate = true;
                break;
            }
        }
        if m.bus.halted().is_some() {
            break;
        }
    }
    assert!(saw_gate, "gate event never surfaced");
}

/// Run one hot loop once in each of `specs`' domains, in order, each
/// entered through the same gate instruction, and return the JIT's
/// `(compiled, guard_misses, entered)` tallies.
fn shared_loop_jit_tallies(specs: &[DomainSpec]) -> (u64, u64, u64) {
    let mut m = machine(PcuConfig::eight_e());
    let mut a = Asm::new(RAM);
    boot_to_s(&mut a);
    a.label("kernel");
    a.li(S0, 0); // gate id = next domain's index
    a.label("gate");
    a.hccall(S0);
    a.label("work");
    a.li(T0, 200);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");
    a.addi(S0, S0, 1);
    a.li(T1, specs.len() as u64);
    a.bne(S0, T1, "gate");
    halt_ok(&mut a);
    mtrap_halts_with_cause(&mut a);
    let prog = a.assemble().unwrap();
    for spec in specs {
        let d = m.ext.add_domain(&mut m.bus, spec);
        m.ext.add_gate(
            &mut m.bus,
            GateSpec {
                gate_addr: prog.symbol("gate"),
                dest_addr: prog.symbol("work"),
                dest_domain: d,
            },
        );
    }
    assert_eq!(run(&mut m, &prog), 0xAA);
    let s = m.jit.as_ref().expect("JIT on by default").stats;
    (s.compiled, s.guard_misses, s.entered)
}

#[test]
fn jit_blocks_are_shared_by_domains_with_equal_bitmaps() {
    // A block guards the check regime and the instruction bitmap, not
    // the domain: the loop compiled in one domain is entered as is from
    // another domain granting the same classes.
    let mut spec = DomainSpec::compute_only();
    spec.allow_inst(Kind::Hccall);
    let (compiled, misses, one) = shared_loop_jit_tallies(std::slice::from_ref(&spec));
    assert_eq!((compiled, misses), (1, 0));
    let (compiled, misses, two) = shared_loop_jit_tallies(&[spec.clone(), spec.clone()]);
    assert_eq!((compiled, misses), (1, 0), "equal bitmaps share the block");
    assert!(
        two > one,
        "the second domain runs the block: {two} vs {one}"
    );
    // A different bitmap still fails the guard and recompiles once.
    let mut other = spec.clone();
    other.deny_inst(Kind::Mul);
    let (compiled, misses, _) = shared_loop_jit_tallies(&[spec.clone(), spec, other]);
    assert_eq!((compiled, misses), (2, 1), "a new bitmap recompiles");
}
