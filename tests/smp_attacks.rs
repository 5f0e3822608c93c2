//! SMP attack: exploiting the revocation window between a privilege-
//! table update on one hart and the cache flush on another.
//!
//! Per-core privilege caches front tables in *shared* trusted memory
//! (§3.3). When domain-0 software on hart 0 revokes a right, hart 1's
//! caches still hold the old *allow* verdict — a classic TOCTTOU
//! window. The shootdown contract closes it: the table write publishes
//! an epoch that every other hart must acknowledge (flushing its
//! caches) before its next instruction commits.
//!
//! Two scenarios on the same program:
//! * **control** — machines share the bus but no shootdown cell is
//!   attached: hart 1 keeps executing the revoked CSR write from its
//!   stale cache. This is the vulnerability, demonstrated.
//! * **shootdown** — under [`Smp`] the same revocation faults hart 1's
//!   *very next* privileged write: not one stale-allowed CSR write
//!   commits after the table update.
//!
//! A third scenario revokes an instruction class that hart 1 runs from
//! a compiled superblock: the shootdown flushes no code cache, so the
//! block guard alone must stop the stale allow.

use isa_asm::{Asm, Program, Reg::*};
use isa_grid::{DomainSpec, GridLayout, Pcu, PcuConfig};
use isa_obs::JitCounters;
use isa_replay::{capture_smp, state_digest};
use isa_sim::csr::addr;
use isa_sim::{mmio, Bus, Exception, Exit, Kind, Machine, DEFAULT_RAM_BASE as RAM};
use isa_smp::Smp;

const TMEM: u64 = 0x8380_0000;
const LOOP_ITERS: u64 = 4_000;

/// A domain that may write `stvec` (the revocable right) on top of the
/// compute + CSR-class baseline.
fn with_stvec() -> DomainSpec {
    let mut d = DomainSpec::compute_only();
    d.allow_insts([
        Kind::Csrrw,
        Kind::Csrrs,
        Kind::Csrrc,
        Kind::Csrrwi,
        Kind::Csrrsi,
        Kind::Csrrci,
    ]);
    d.allow_csr_rw(addr::STVEC);
    d
}

/// The same domain after revocation: CSR class intact, `stvec` gone
/// from the register bitmap.
fn without_stvec() -> DomainSpec {
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

/// Hart 0 ("the monitor's core") halts immediately — revocation is
/// driven host-side through its PCU. Hart 1 ("the compromised domain")
/// routes traps to `mtrap`, drops to S-mode and runs `kernel`; a kernel
/// that runs to its end halts with 0xAA, while a grid fault lands in
/// `mtrap` and halts with the cause.
fn two_hart_program(kernel: impl FnOnce(&mut Asm)) -> Program {
    let mut a = Asm::new(RAM);
    a.label("h0");
    a.li(T6, mmio::HALT);
    a.sd(Zero, T6, 0);
    a.nop();

    a.label("h1");
    // M-mode prologue: route traps to mtrap, drop to S-mode at kernel.
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
    kernel(&mut a);
    a.li(A0, 0xAA);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();

    a.label("mtrap");
    a.csrr(A0, addr::MCAUSE as u32);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    a.assemble().expect("two-hart program assembles")
}

/// Hart 1 hammers `stvec`; running the loop to completion means every
/// write was allowed.
fn attack_program() -> Program {
    two_hart_program(|a| {
        a.li(T2, LOOP_ITERS);
        a.label("loop");
        a.csrw(addr::STVEC as u32, T2); // the privileged write under test
        a.addi(T2, T2, -1);
        a.bnez(T2, "loop");
    })
}

/// Shared setup: a 2-hart bus with the program image, plus a PCU that
/// installed the grid tables and registered the victim domain. Its
/// snapshot seeds every hart's PCU with identical table pointers.
fn arena() -> (Bus, Program, Pcu, isa_grid::DomainId) {
    arena_with(attack_program(), &with_stvec())
}

/// [`arena`] for any program and victim domain.
fn arena_with(prog: Program, victim: &DomainSpec) -> (Bus, Program, Pcu, isa_grid::DomainId) {
    let bus = Bus::with_harts(RAM, isa_sim::DEFAULT_RAM_SIZE, 2);
    bus.write_bytes(prog.base, &prog.bytes);
    let mut pcu0 = Pcu::new(PcuConfig::eight_e());
    let mut b0 = bus.for_hart(0);
    pcu0.install(&mut b0, GridLayout::new(TMEM, 1 << 20));
    let d = pcu0.add_domain(&mut b0, victim);
    (bus, prog, pcu0, d)
}

#[test]
fn control_without_shootdown_executes_on_stale_allow() {
    let (bus, prog, mut pcu0, d) = arena();
    let snap = pcu0.snapshot();
    let mut m1 = Machine::on_bus(snap.build(), bus.for_hart(1));
    m1.cpu.pc = prog.symbol("h1");
    m1.ext.force_domain(d);

    // Prime hart 1's caches: boot to S-mode and commit a few allowed
    // stvec writes.
    for _ in 0..40 {
        m1.step();
    }
    assert!(m1.ext.stats.csr_checks > 0, "loop must be checking CSRs");
    assert_eq!(m1.ext.stats.faults, 0, "priming writes must be allowed");

    // Hart 0 revokes stvec in the shared tables. No shootdown cell is
    // attached, so nothing tells hart 1.
    let mut b0 = bus.for_hart(0);
    pcu0.update_domain(&mut b0, d, &without_stvec());

    // The compromised domain keeps writing the revoked CSR to the very
    // end, straight from its stale cached verdict.
    let exit = m1.run(LOOP_ITERS * 8);
    assert_eq!(
        exit,
        Exit::Halted(0xAA),
        "without shootdown the stale allow must persist (the vulnerability)"
    );
    assert_eq!(m1.ext.stats.faults, 0);
}

#[test]
fn shootdown_faults_the_very_next_privileged_write() {
    let (bus, prog, pcu0, d) = arena();
    let snap = pcu0.snapshot();
    let mut smp = Smp::new(&bus, |h, hb| {
        let mut m = Machine::on_bus(snap.build(), hb);
        m.cpu.pc = prog.symbol(if h == 0 { "h0" } else { "h1" });
        m
    });
    smp.machine_mut(1).ext.force_domain(d);

    // Prime: hart 0 halts within its first steps; every further step
    // goes to hart 1, which commits allowed stvec writes.
    for _ in 0..64 {
        smp.step();
    }
    assert_eq!(smp.machine(0).bus.halted(), Some(0));
    assert_eq!(smp.machine(1).ext.stats.faults, 0);
    let primed_steps = smp.machine(1).steps;

    // Hart 0's PCU revokes stvec: table write + shootdown publish.
    {
        let m0 = smp.machine_mut(0);
        m0.ext.update_domain(&mut m0.bus, d, &without_stvec());
    }
    assert!(
        !smp.quiesced(),
        "epoch published but hart 1 has not flushed yet"
    );

    let exits = smp.run(LOOP_ITERS * 8).unwrap();
    // Hart 1's first post-revocation stvec write must die on the grid
    // CSR check — the flush happened before anything could commit.
    assert_eq!(
        exits[1],
        Exit::Halted(Exception::CAUSE_GRID_CSR),
        "the revoked write must fault, not retire from a stale cache"
    );
    assert!(smp.quiesced(), "hart 1 acknowledged the epoch");
    assert_eq!(smp.machine(1).ext.stats.faults, 1);
    assert!(
        smp.machine(1).ext.stats.shootdowns_taken >= 1,
        "hart 1 must have flushed on the published epoch"
    );
    // Window bound: at most one loop tail (addi+bnez) precedes the
    // faulting csrw, and the mtrap handler is 3 instructions + halt.
    // Anything larger would mean a stale-allowed write slipped through.
    let window = smp.machine(1).steps - primed_steps;
    assert!(
        window <= 8,
        "hart 1 committed {window} steps after revocation — stale window"
    );
}

/// Deterministic shootdown arena: the [`Smp`] of
/// [`shootdown_faults_the_very_next_privileged_write`], rebuildable
/// bit-identically (the snapshot-restore "same recipe" contract).
fn shootdown_smp() -> (Smp, Program, isa_grid::DomainId) {
    let (bus, prog, pcu0, d) = arena();
    let snap = pcu0.snapshot();
    let mut smp = Smp::new(&bus, |h, hb| {
        let mut m = Machine::on_bus(snap.build(), hb);
        m.cpu.pc = prog.symbol(if h == 0 { "h0" } else { "h1" });
        m
    });
    smp.machine_mut(1).ext.force_domain(d);
    (smp, prog, d)
}

mod mid_shootdown_snapshot {
    use super::*;
    use isa_replay::{capture_smp, decode_snapshot, encode_snapshot, restore_smp, state_digest};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Extension of the revocation-window oracle: snapshot the
        /// machine *inside* the window — epoch published by hart 0,
        /// not yet acknowledged by hart 1 — and restore it. The
        /// restored machine must replay the pending acknowledgment:
        /// hart 1's very next privileged write dies on the grid CSR
        /// check exactly as in the unbroken run, never on a stale
        /// allow. (The encoder fails closed instead of silently
        /// dropping shootdown state: a snapshot that cannot represent
        /// the pending epoch is rejected at decode, not patched up.)
        #[test]
        fn restoring_inside_the_revocation_window_replays_the_ack(
            prime in 40u64..160,
        ) {
            let (mut a, _prog, d) = shootdown_smp();
            for _ in 0..prime {
                a.step();
            }
            prop_assert_eq!(a.machine(0).bus.halted(), Some(0));
            prop_assert_eq!(a.machine(1).ext.stats.faults, 0);

            // Revoke stvec from hart 0: table write + epoch publish.
            {
                let m0 = a.machine_mut(0);
                m0.ext.update_domain(&mut m0.bus, d, &without_stvec());
            }
            prop_assert!(!a.quiesced(), "snapshot point must be inside the window");

            // Snapshot mid-shootdown, restore into a fresh recipe.
            let frame = encode_snapshot(&capture_smp(&a, 0));
            let snap = decode_snapshot(&frame).expect("mid-shootdown snapshot decodes");
            let (mut b, _, _) = shootdown_smp();
            restore_smp(&mut b, &snap).expect("mid-shootdown snapshot restores");
            prop_assert!(
                !b.quiesced(),
                "the pending epoch must survive the round trip"
            );
            prop_assert_eq!(
                state_digest(&capture_smp(&a, 0)),
                state_digest(&capture_smp(&b, 0))
            );

            // Both replicas must fault hart 1's next privileged write.
            let ea = a.run(LOOP_ITERS * 8).unwrap();
            let eb = b.run(LOOP_ITERS * 8).unwrap();
            prop_assert_eq!(&ea, &eb, "restored run must match the unbroken run");
            prop_assert_eq!(
                eb[1],
                Exit::Halted(Exception::CAUSE_GRID_CSR),
                "the revoked write must fault after restore — no stale allow"
            );
            prop_assert!(b.quiesced(), "hart 1 acknowledged the replayed epoch");
            prop_assert_eq!(b.machine(1).ext.stats.faults, 1);
            prop_assert!(b.machine(1).ext.stats.shootdowns_taken >= 1);
        }
    }
}

/// Hart 1 spins a hot loop whose first instruction is a `mul`, so the
/// loop compiles into a superblock that holds one.
fn mul_loop_program() -> Program {
    two_hart_program(|a| {
        a.li(T2, 1 << 40);
        a.li(T3, 3);
        a.label("loop");
        a.mul(T4, T4, T3); // the class under revocation
        a.addi(T4, T4, 1);
        a.addi(T2, T2, -1);
        a.bnez(T2, "loop");
    })
}

/// What one revocation run leaves behind on hart 1.
#[derive(Debug, PartialEq)]
struct Revoked {
    exit: Exit,
    /// Steps from the revocation to the halt.
    window: u64,
    steps: u64,
    mepc: u64,
    digest: u64,
}

/// Warm hart 1's `mul` loop in quanta (through the JIT when `jit`),
/// revoke `mul` from its domain on hart 0 (table write plus shootdown),
/// then run hart 1 to its halt. Returns the run and hart 1's JIT
/// tallies at the revocation.
fn revoke_mul(jit: bool) -> (Revoked, JitCounters) {
    let (bus, prog, pcu0, d) = arena_with(mul_loop_program(), &DomainSpec::compute_only());
    let snap = pcu0.snapshot();
    let mut smp = Smp::new(&bus, |h, hb| {
        let mut m = Machine::on_bus(snap.build(), hb);
        m.set_jit(jit);
        m.cpu.pc = prog.symbol(if h == 0 { "h0" } else { "h1" });
        m
    });
    smp.machine_mut(1).ext.force_domain(d);
    smp.machine_mut(0).run_steps(16);
    assert_eq!(smp.machine(0).bus.halted(), Some(0));
    for _ in 0..8 {
        smp.machine_mut(1).run_steps(1_000);
    }
    let warm = smp
        .machine(1)
        .jit
        .as_ref()
        .map(|j| j.stats)
        .unwrap_or_default();
    assert_eq!(
        smp.machine(1).ext.stats.faults,
        0,
        "mul is allowed while warming"
    );
    {
        let m0 = smp.machine_mut(0);
        let mut revoked = DomainSpec::compute_only();
        revoked.deny_inst(Kind::Mul);
        m0.ext.update_domain(&mut m0.bus, d, &revoked);
    }
    assert!(!smp.quiesced(), "hart 1 has not acknowledged yet");
    let at = smp.machine(1).steps;
    let exit = smp.machine_mut(1).run(100_000);
    assert!(smp.quiesced(), "hart 1 acknowledged the epoch");
    let m1 = smp.machine(1);
    assert!(m1.ext.stats.shootdowns_taken >= 1);
    assert_eq!(m1.ext.stats.faults, 1);
    let run = Revoked {
        exit,
        window: m1.steps - at,
        steps: m1.steps,
        mepc: m1.cpu.csrs.read_raw(addr::MEPC),
        digest: state_digest(&capture_smp(&smp, 0)),
    };
    (run, warm)
}

#[test]
fn revoking_a_class_stops_a_compiled_loop_at_its_next_use() {
    let (jit, warm) = revoke_mul(true);
    assert!(
        warm.compiled > 0 && warm.ops > 4_000,
        "the loop must run from compiled blocks before the revocation: {warm:?}"
    );
    // The first post-acknowledgment `mul` faults: at most the rest of
    // one loop pass precedes it, then the 4-step trap handler.
    assert_eq!(
        jit.exit,
        Exit::Halted(Exception::CAUSE_GRID_INST),
        "the revoked class must fault, not retire from a stale block"
    );
    assert_eq!(jit.mepc, mul_loop_program().symbol("loop"));
    assert!(jit.window <= 8, "{} steps after revocation", jit.window);
    let (stepped, _) = revoke_mul(false);
    assert_eq!(
        jit, stepped,
        "same fault, step count and state with the JIT off"
    );
}
