//! Differential testing of the superblock JIT: random instruction
//! streams — including self-modifying code, fences, branches, and hot
//! loops — must reach *bit-identical* end states through the JIT'd and
//! the stepped bbcache interpreters, in the same number of steps, with
//! the same modeled cycles, the same trap counts, and the same
//! `bbcache.*` counters (JIT-executed ops credit the hits the stepped
//! path would have counted).
//!
//! Under a stateful timing model (`PipelineModel`, Rocket and O3) the
//! endpoints must also carry the same timing-model state — cache tags,
//! TLB order, predictor counters — since compiled blocks retire through
//! the model's batched superblock path and the stepped loop through its
//! per-event one.
//!
//! The JIT executes whole blocks between observation points, so the
//! comparison is at run endpoints (and at every quantum boundary in
//! the session test), not per retired event: per-step lock-stepping is
//! `tests/bbcache_diff.rs`'s job and stays on the stepped path.

use isa_asm::{encode, Asm, Program, Reg::*};
use isa_grid::PcuConfig;
use isa_sim::csr::addr::{CYCLE, INSTRET};
use isa_sim::{mmio, Machine, NullExtension, DEFAULT_RAM_BASE as RAM};
use isa_timing::{PipelineModel, TimingConfig};
use proptest::prelude::*;
use simkernel::{KernelConfig, Platform};
use workloads::{measure, LmBench};

/// Patch-site count inside the loop body.
const SLOTS: usize = 3;

fn patch_word(variant: u8) -> u32 {
    match variant % 4 {
        0 => encode::addi(A0, A0, 1),
        1 => encode::xor(A1, A1, A0),
        2 => encode::addi(Zero, Zero, 0),
        _ => encode::sltu(A2, A0, A1),
    }
}

/// One randomly chosen loop-body operation (the `bbcache_diff` op set:
/// ALU, memory, self-modifying patches, fences).
#[derive(Debug, Clone)]
enum Op {
    Addi(i8),
    Xor,
    Load(u8),
    Store(u8),
    Patch { slot: u8, variant: u8, fence: bool },
    FenceI,
    Sfence,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i8>().prop_map(Op::Addi),
        Just(Op::Xor),
        (0u8..8).prop_map(Op::Load),
        (0u8..8).prop_map(Op::Store),
        ((0u8..SLOTS as u8), 0u8..4, any::<bool>()).prop_map(|(slot, variant, fence)| Op::Patch {
            slot,
            variant,
            fence
        }),
        Just(Op::FenceI),
        Just(Op::Sfence),
    ]
}

fn emit(a: &mut Asm, op: &Op) {
    match op {
        Op::Addi(imm) => {
            a.addi(A0, A0, *imm as i32);
        }
        Op::Xor => {
            a.xor(A1, A1, A0);
        }
        Op::Load(off) => {
            a.ld(A3, S2, *off as i32 * 8);
        }
        Op::Store(off) => {
            a.sd(A0, S2, *off as i32 * 8);
        }
        Op::Patch {
            slot,
            variant,
            fence,
        } => {
            a.la(T0, &format!("p{slot}"));
            a.li(T1, patch_word(*variant) as u64);
            a.sw(T1, T0, 0);
            if *fence {
                a.fence_i();
            }
        }
        Op::FenceI => {
            a.fence_i();
        }
        Op::Sfence => {
            a.sfence_vma(Zero, Zero);
        }
    }
}

/// A looped program running `ops` then the patchable slots each
/// iteration — enough iterations that the loop head crosses the JIT's
/// promotion threshold and later iterations execute compiled blocks
/// the earlier ones may have patched.
fn looped_program(ops: &[Op], loops: u64) -> Program {
    let mut a = Asm::new(RAM);
    a.la(S2, "data");
    a.li(S1, loops);
    a.li(A0, 1);
    a.li(A1, 3);
    a.label("top");
    for op in ops {
        emit(&mut a, op);
    }
    for s in 0..SLOTS {
        a.label(&format!("p{s}"));
        a.addi(Zero, Zero, 0);
    }
    a.addi(S1, S1, -1);
    a.bnez(S1, "top");
    a.li(A0, 0);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.align(8);
    a.label("data");
    for i in 0..8u64 {
        a.d64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    a.assemble().expect("jit diff program assembles")
}

/// A machine on `prog`; `timing` swaps the default flat-cost sink for a
/// pipeline model.
fn machine(
    prog: &Program,
    jit: bool,
    timer_every: Option<u64>,
    timing: Option<TimingConfig>,
) -> Machine<NullExtension> {
    let mut m = Machine::new(NullExtension);
    if let Some(cfg) = timing {
        m = m.with_timing(Box::new(PipelineModel::new(cfg)));
    }
    m.set_jit(jit);
    m.timer_every = timer_every;
    m.load_program(prog);
    m
}

/// Endpoint equality: architectural state, modeled time, step counts,
/// trap counts, the data buffer, and — because JIT-executed ops credit
/// the stepped path's hit counters — the whole `bbcache.*` block.
fn assert_end_eq(
    j: &Machine<NullExtension>,
    s: &Machine<NullExtension>,
    data: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(j.bus.halted(), s.bus.halted(), "halt state diverged");
    prop_assert_eq!(j.cpu.pc, s.cpu.pc, "pc diverged");
    prop_assert_eq!(j.cpu.regs, s.cpu.regs, "registers diverged");
    prop_assert_eq!(j.cpu.priv_level, s.cpu.priv_level);
    prop_assert_eq!(j.steps, s.steps, "step counts diverged");
    prop_assert_eq!(
        j.cpu.csrs.read_raw(CYCLE),
        s.cpu.csrs.read_raw(CYCLE),
        "modeled cycles diverged"
    );
    prop_assert_eq!(
        j.cpu.csrs.read_raw(INSTRET),
        s.cpu.csrs.read_raw(INSTRET),
        "instret diverged"
    );
    prop_assert_eq!(
        j.timer_phase(),
        s.timer_phase(),
        "virtual-timer phase diverged"
    );
    prop_assert_eq!(&j.trap_counts, &s.trap_counts, "trap counts diverged");
    for i in 0..8 {
        prop_assert_eq!(
            j.bus.read_u64(data + i * 8),
            s.bus.read_u64(data + i * 8),
            "data word {} diverged",
            i
        );
    }
    let (jb, sb) = (
        j.bbcache.as_ref().expect("jit machine keeps its bbcache"),
        s.bbcache.as_ref().expect("stepped machine has a bbcache"),
    );
    prop_assert_eq!(
        jb.stats.counters(),
        sb.stats.counters(),
        "bbcache counters diverged (JIT hit crediting is broken)"
    );
    let (jt, st) = (j.timing.save_state(), s.timing.save_state());
    prop_assert!(
        jt == st,
        "timing-model state diverged at word {:?} of {}",
        jt.iter().zip(&st).position(|(a, b)| a != b),
        jt.len().max(st.len())
    );
    Ok(())
}

/// Run the same program through a JIT'd and a stepped machine and
/// compare endpoints. Returns the JIT machine for stat assertions.
fn diff_run(
    prog: &Program,
    max_steps: u64,
    timer_every: Option<u64>,
    timing: Option<TimingConfig>,
) -> Result<Machine<NullExtension>, TestCaseError> {
    let mut j = machine(prog, true, timer_every, timing);
    let mut s = machine(prog, false, timer_every, timing);
    let ej = j.run(max_steps);
    let es = s.run(max_steps);
    prop_assert_eq!(ej, es, "exits diverged");
    assert_end_eq(&j, &s, prog.symbol("data"))?;
    Ok(j)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random streams — self-modifying code included — reach identical
    /// end states through compiled superblocks and the stepped loop,
    /// under the flat-cost sink and under the Rocket and O3 pipeline
    /// models (whose blocks retire through the batched superblock path,
    /// stepped events through the per-event one).
    #[test]
    fn jit_and_stepped_streams_reach_identical_endpoints(
        ops in prop::collection::vec(op_strategy(), 1..24),
        loops in 1u64..80,
    ) {
        let prog = looped_program(&ops, loops);
        for timing in [None, Some(TimingConfig::rocket()), Some(TimingConfig::o3())] {
            diff_run(&prog, 400_000, None, timing)?;
        }
    }

    /// The same property under a virtual timer whose period is prime
    /// relative to everything: blocks must never let the timer fire
    /// mid-block, so the phase and step counts stay exact.
    #[test]
    fn jit_respects_virtual_timer_phase(
        ops in prop::collection::vec(op_strategy(), 1..12),
        loops in 16u64..64,
        period in 3u64..97,
    ) {
        let prog = looped_program(&ops, loops);
        diff_run(&prog, 400_000, Some(period), None)?;
    }

    /// Arbitrary step budgets (not just run-to-halt): the JIT must stop
    /// strictly at the budget, with identical intermediate state.
    #[test]
    fn jit_honors_step_budgets_exactly(
        loops in 32u64..128,
        budget in 1u64..4_000,
    ) {
        let ops = vec![Op::Addi(1), Op::Xor, Op::Load(0), Op::Store(1)];
        let prog = looped_program(&ops, loops);
        let mut j = machine(&prog, true, None, None);
        let mut s = machine(&prog, false, None, None);
        let dj = j.run_steps(budget);
        let ds = s.run_steps(budget);
        prop_assert_eq!(dj, ds, "consumed steps diverged");
        assert_end_eq(&j, &s, prog.symbol("data"))?;
    }
}

/// Deterministic sanity: a hot loop actually compiles, enters, and
/// chains superblocks (the differential properties above would pass
/// vacuously if the JIT never engaged).
#[test]
fn hot_loop_engages_the_jit() {
    let ops = vec![Op::Addi(1), Op::Xor, Op::Load(0), Op::Store(1)];
    let prog = looped_program(&ops, 500);
    let j = diff_run(&prog, 400_000, None, None).expect("differential run succeeds");
    let jit = j.jit.as_ref().expect("jit machine keeps its jit");
    assert!(jit.stats.compiled > 0, "hot loop must compile");
    assert!(
        jit.stats.entered > jit.stats.compiled,
        "blocks must be re-entered, got {:?}",
        jit.stats
    );
    assert!(
        jit.stats.linked > 0,
        "a hot loop must chain block-to-block, got {:?}",
        jit.stats
    );
    assert!(
        jit.stats.ops > j.steps / 2,
        "most retirement should happen inside blocks, got {:?} of {} steps",
        jit.stats,
        j.steps
    );
}

/// Unfenced self-modifying code invalidates compiled blocks: an inner
/// loop gets hot (compiles), then the outer loop patches an instruction
/// inside it without FENCE.I — the JIT must flush and observe the new
/// word exactly as the stepped interpreter does (code-line bitmap).
#[test]
fn unfenced_patch_flushes_hot_blocks_and_matches_stepped() {
    let mut a = Asm::new(RAM);
    a.la(S2, "data");
    a.li(S3, 4); // outer iterations (patch between hot phases)
    a.li(A0, 1);
    a.li(A1, 3);
    a.label("outer");
    a.li(S1, 300); // inner iterations: far past HOT_THRESHOLD
    a.label("top");
    a.addi(A0, A0, 1);
    a.xor(A1, A1, A0);
    a.label("p0");
    a.addi(Zero, Zero, 0); // patched by the outer loop
    a.addi(S1, S1, -1);
    a.bnez(S1, "top");
    // Unfenced patch of the now-compiled inner loop.
    a.la(T0, "p0");
    a.li(T1, patch_word(0) as u64);
    a.sw(T1, T0, 0);
    a.addi(S3, S3, -1);
    a.bnez(S3, "outer");
    a.li(A0, 0);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.align(8);
    a.label("data");
    for i in 0..8u64 {
        a.d64(i);
    }
    let prog = a.assemble().expect("smc program assembles");
    let j = diff_run(&prog, 400_000, None, None).expect("differential run succeeds");
    let jit = j.jit.as_ref().expect("jit machine keeps its jit");
    assert!(
        jit.stats.compiled > 0,
        "the inner loop must get hot, got {:?}",
        jit.stats
    );
    assert!(
        jit.stats.flushes > 0,
        "the patch must flush compiled blocks, got {:?}",
        jit.stats
    );
}

/// End-to-end bit-identity through the full kernel stack: a Figure-5
/// workload under the decomposed kernel reports the same rows, cycles,
/// steps, and counters with the JIT on and off — only the `jit.*`
/// diagnostics (and host wall-clock) may differ.
#[test]
fn figure_workload_rows_identical_jit_on_and_off() {
    let prog = LmBench::NullCall.program(40);
    let run = |jit: bool| {
        measure::set_jit(jit);
        let r = measure::run(
            KernelConfig::decomposed(),
            Platform::Rocket,
            PcuConfig::eight_e(),
            &prog,
            None,
            50_000_000,
        );
        measure::set_jit(true);
        r
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.reported, off.reported, "figure rows must not move");
    assert_eq!(on.total_cycles, off.total_cycles);
    assert_eq!(on.steps, off.steps);
    let mut on_c = on.counters;
    let mut off_c = off.counters;
    on_c.jit = Default::default();
    off_c.jit = Default::default();
    assert_eq!(on_c, off_c, "all non-jit counters bit-identical");
    assert!(
        on.counters.jit.entered > 0,
        "the kernel-stack run must exercise the JIT, got {:?}",
        on.counters.jit
    );
    assert_eq!(off.counters.jit, Default::default());
}
