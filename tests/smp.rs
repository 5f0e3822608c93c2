//! SMP stress: harts contending on an AMO counter and an LR/SC
//! spinlock under deterministic interleavings.
//!
//! The property under test is the bus's atomicity contract: however the
//! scheduler interleaves the harts (round-robin with any quantum, or a
//! seeded random stream), the spinlock must never lose an update to the
//! plain (non-atomic) shared word it guards, and the AMO counter must
//! reach exactly the total increment count — the same final state a
//! single hart doing all the work sequentially produces. A proptest
//! sweep drives the seed/quantum space; any failing seed replays
//! bit-identically.
//!
//! A last test pins what a privilege shootdown costs a hart running
//! compiled code: nothing, when its own instruction bitmap is unchanged.

use isa_asm::{Asm, Program, Reg::*};
use isa_grid::{DomainSpec, GridLayout, Pcu, PcuConfig};
use isa_sim::csr::addr;
use isa_sim::{mmio, Bus, Exit, Kind, Machine, DEFAULT_RAM_BASE as RAM};
use isa_smp::{merge_results, Schedule, Smp};
use proptest::prelude::*;

const MHARTID: u32 = 0xF14;

/// Each hart loops `iters` times: take an LR/SC spinlock, increment a
/// *plain* shared word inside the critical section, release, then
/// AMO-add 1 to an independent counter. Halts with its hart id.
fn spinlock_program(iters: u64) -> Program {
    let mut a = Asm::new(RAM);
    a.la(T0, "lock");
    a.la(T1, "shared");
    a.la(T3, "amo");
    a.li(T2, iters);
    a.li(A5, 1);
    a.label("outer");
    a.label("acquire");
    a.lr_d(A0, T0);
    a.bnez(A0, "acquire"); // lock held -> spin
    a.sc_d(A2, T0, A5);
    a.bnez(A2, "acquire"); // reservation broken -> retry
                           // Critical section: a non-atomic read-modify-write that the lock
                           // must make safe. A lost update here means mutual exclusion broke.
    a.ld(A3, T1, 0);
    a.addi(A3, A3, 1);
    a.sd(A3, T1, 0);
    a.sd(Zero, T0, 0); // release (also breaks spinners' reservations)
    a.amoadd_d(A4, T3, A5);
    a.addi(T2, T2, -1);
    a.bnez(T2, "outer");
    a.csrr(A0, MHARTID);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.align(8);
    a.label("lock");
    a.d64(0);
    a.label("shared");
    a.d64(0);
    a.label("amo");
    a.d64(0);
    a.assemble().expect("spinlock program assembles")
}

fn smp_on(prog: &Program, harts: usize) -> Smp {
    let bus = Bus::with_harts(RAM, 4 << 20, harts);
    bus.write_bytes(prog.base, &prog.bytes);
    Smp::new(&bus, |_h, hb| {
        let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
        m.cpu.pc = prog.base;
        m
    })
}

/// Run `harts` harts under `sched`; return (shared, amo) after all halt.
fn contend(prog: &Program, harts: usize, sched: Schedule, budget: u64) -> (u64, u64) {
    let mut smp = smp_on(prog, harts).with_schedule(sched);
    let exits = smp.run(budget).unwrap();
    for (h, e) in exits.iter().enumerate() {
        assert_eq!(*e, Exit::Halted(h as u64), "hart {h} under {sched:?}");
    }
    (
        smp.bus().read_u64(prog.symbol("shared")),
        smp.bus().read_u64(prog.symbol("amo")),
    )
}

#[test]
fn contended_state_matches_sequential() {
    const ITERS: u64 = 100;
    const HARTS: usize = 3;
    // Sequential reference: one hart does all HARTS*ITERS increments.
    let seq_prog = spinlock_program(ITERS * HARTS as u64);
    let (seq_shared, seq_amo) = contend(&seq_prog, 1, Schedule::default(), 1_000_000);
    assert_eq!(seq_shared, ITERS * HARTS as u64);
    assert_eq!(seq_amo, seq_shared);

    // Contended run: same total work split across harts.
    let prog = spinlock_program(ITERS);
    for quantum in [1, 3, 7] {
        let (shared, amo) = contend(&prog, HARTS, Schedule::RoundRobin { quantum }, 1_000_000);
        assert_eq!((shared, amo), (seq_shared, seq_amo), "quantum {quantum}");
    }
}

#[test]
fn quantum_one_breaks_reservations() {
    // With strict alternation both harts pass the LR before either SC:
    // the winner's SC must break the loser's reservation, and the bus
    // counts that. (The exact count is schedule-dependent; at least one
    // break is guaranteed by the first contended acquire.)
    let prog = spinlock_program(50);
    let mut smp = smp_on(&prog, 2).with_schedule(Schedule::RoundRobin { quantum: 1 });
    let exits = smp.run(1_000_000).unwrap();
    assert!(exits.iter().all(|e| matches!(e, Exit::Halted(_))));
    let c = smp.counters();
    assert_eq!(smp.bus().read_u64(prog.symbol("shared")), 100);
    assert!(
        c.smp.reservation_breaks >= 1,
        "contended LR/SC must break at least one reservation, got {}",
        c.smp.reservation_breaks
    );
}

#[test]
fn same_seed_replays_bit_identically_under_contention() {
    let prog = spinlock_program(60);
    let run = |seed: u64| {
        let mut smp = smp_on(&prog, 3).with_schedule(Schedule::Random { seed });
        smp.run(1_000_000).unwrap();
        let regs: Vec<Vec<u64>> = (0..3)
            .map(|h| (0..32).map(|r| smp.machine(h).cpu.reg(r)).collect())
            .collect();
        let steps: Vec<u64> = (0..3).map(|h| smp.machine(h).steps).collect();
        (
            smp.bus().read_u64(prog.symbol("shared")),
            smp.bus().read_u64(prog.symbol("amo")),
            regs,
            steps,
        )
    };
    let a = run(0xDEAD_BEEF);
    let b = run(0xDEAD_BEEF);
    assert_eq!(a, b, "same seed must replay the whole machine state");
    assert_eq!(a.0, 180);
    assert_eq!(a.1, 180);
}

#[test]
fn concurrent_threads_agree_with_interleaver() {
    // Real OS threads on the shared bus: the host's atomics back the
    // guest's, so the final state must match the deterministic runs.
    const ITERS: u64 = 200;
    let prog = spinlock_program(ITERS);
    let bus = Bus::with_harts(RAM, 4 << 20, 2);
    bus.write_bytes(prog.base, &prog.bytes);
    let base = prog.base;
    // Generous budget: a hart preempted by the OS while holding the
    // lock leaves the other spinning (burning steps) until it resumes.
    let results = Smp::run_concurrent(&bus, 50_000_000, |_h, hb| {
        let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
        m.cpu.pc = base;
        m
    });
    for r in &results {
        assert_eq!(r.exit, Exit::Halted(r.hart as u64), "hart {}", r.hart);
    }
    assert_eq!(bus.read_u64(prog.symbol("shared")), 2 * ITERS);
    assert_eq!(bus.read_u64(prog.symbol("amo")), 2 * ITERS);
    let merged = merge_results(&results, &bus);
    assert_eq!(merged.smp.harts, 2);
    let steps: u64 = results.iter().map(|r| r.steps).sum();
    assert_eq!(merged.run.steps, steps, "per-hart counters carry run.steps");
}

/// Hart 0 halts at once; hart 1 drops to S-mode and spins an ALU loop
/// (under whatever ISA domain the test forces), so the loop runs from a
/// superblock compiled under an active guard.
fn domain_loop_program() -> Program {
    let mut a = Asm::new(RAM);
    a.label("h0");
    a.li(T6, mmio::HALT);
    a.sd(Zero, T6, 0);
    a.nop();
    a.label("h1");
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "loop");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("loop");
    a.addi(A0, A0, 1);
    a.xor(A1, A1, A0);
    a.j("loop");
    a.assemble().expect("domain loop program assembles")
}

#[test]
fn shootdown_that_keeps_the_bitmap_keeps_compiled_blocks() {
    let prog = domain_loop_program();
    let bus = Bus::with_harts(RAM, 4 << 20, 2);
    bus.write_bytes(prog.base, &prog.bytes);
    let mut pcu0 = Pcu::new(PcuConfig::eight_e());
    let mut b0 = bus.for_hart(0);
    pcu0.install(&mut b0, GridLayout::new(0x8030_0000, 1 << 20));
    let tenant = pcu0.add_domain(&mut b0, &DomainSpec::compute_only());
    let other = pcu0.add_domain(&mut b0, &DomainSpec::compute_only());
    let snap = pcu0.snapshot();
    let mut smp = Smp::new(&bus, |h, hb| {
        let mut m = Machine::on_bus(snap.build(), hb);
        m.cpu.pc = prog.symbol(if h == 0 { "h0" } else { "h1" });
        m
    });
    smp.machine_mut(1).ext.force_domain(tenant);
    smp.machine_mut(0).run_steps(16);
    assert_eq!(smp.machine(0).bus.halted(), Some(0));
    for _ in 0..4 {
        smp.machine_mut(1).run_steps(1_000);
    }
    let jit = |smp: &Smp| smp.machine(1).jit.as_ref().expect("jit on").stats;
    let warm = jit(&smp);
    assert!(warm.compiled > 0 && warm.ops > 3_000, "{warm:?}");

    // Hart 0 revokes a class from the *other* domain: a real shootdown
    // that leaves hart 1's own bitmap as it was.
    {
        let m0 = smp.machine_mut(0);
        let mut narrowed = DomainSpec::compute_only();
        narrowed.deny_inst(Kind::Mul);
        m0.ext.update_domain(&mut m0.bus, other, &narrowed);
    }
    assert!(!smp.quiesced());
    smp.machine_mut(1).run_steps(1_000);
    assert!(smp.quiesced(), "hart 1 acknowledged the epoch");
    assert_eq!(smp.machine(1).ext.stats.shootdowns_taken, 1);
    let after = jit(&smp);
    assert_eq!(
        (after.compiled, after.guard_misses, after.flushes),
        (warm.compiled, 0, 0),
        "the shootdown must keep hart 1's blocks: {after:?}"
    );
    assert!(
        after.entered > warm.entered && after.ops - warm.ops > 900,
        "the loop head is re-entered from its old block: {after:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seed sweep: any random interleaving of 2 contending harts must
    /// converge to the sequential result — no lost update, ever.
    #[test]
    fn any_seed_agrees_with_sequential(seed in any::<u64>()) {
        let prog = spinlock_program(40);
        let (shared, amo) = contend(&prog, 2, Schedule::Random { seed }, 1_000_000);
        prop_assert_eq!(shared, 80, "lost update under seed {:#x}", seed);
        prop_assert_eq!(amo, 80);
    }

    /// Quantum sweep: every round-robin granularity preserves the lock.
    #[test]
    fn any_quantum_agrees_with_sequential(quantum in 1u64..16) {
        let prog = spinlock_program(40);
        let (shared, amo) =
            contend(&prog, 2, Schedule::RoundRobin { quantum }, 1_000_000);
        prop_assert_eq!(shared, 80, "lost update at quantum {}", quantum);
        prop_assert_eq!(amo, 80);
    }
}
