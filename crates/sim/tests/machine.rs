//! End-to-end tests of the emulator: whole programs assembled with
//! `isa-asm` and executed on the `Machine`.

use isa_asm::{Asm, Reg::*};
use isa_sim::csr::addr;
use isa_sim::csr::mstatus;
use isa_sim::mmu::{pte, PageTableBuilder};
use isa_sim::{mmio, Exit, Machine, NullExtension, DEFAULT_RAM_BASE as RAM};

/// Run a program that finishes by storing its result to HALT.
fn run(a: Asm) -> (u64, Machine<NullExtension>) {
    let prog = a.assemble().expect("assembles");
    let mut m = Machine::new(NullExtension);
    m.load_program(&prog);
    match m.run(1_000_000) {
        Exit::Halted(v) => (v, m),
        Exit::StepLimit => panic!("program did not halt; pc={:#x}", m.cpu.pc),
    }
}

/// Emit the "halt with the value in a0" epilogue.
fn halt_with_a0(a: &mut Asm) {
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    // The machine halts on the store; pad so the PC has somewhere to go.
    a.nop();
    a.nop();
}

#[test]
fn arithmetic_program() {
    let mut a = Asm::new(RAM);
    a.li(A0, 100);
    a.li(A1, 7);
    a.mul(A0, A0, A1); // 700
    a.li(A2, 58);
    a.sub(A0, A0, A2); // 642
    a.srli(A0, A0, 1); // 321
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 321);
}

#[test]
fn fibonacci_loop() {
    let mut a = Asm::new(RAM);
    a.li(T0, 0);
    a.li(T1, 1);
    a.li(T2, 20); // iterations
    a.label("loop");
    a.add(T3, T0, T1);
    a.mv(T0, T1);
    a.mv(T1, T3);
    a.addi(T2, T2, -1);
    a.bnez(T2, "loop");
    a.mv(A0, T0);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 6765); // fib(20)
}

#[test]
fn function_call_and_stack() {
    let mut a = Asm::new(RAM);
    a.li(Sp, RAM + 0x10_0000);
    a.li(A0, 9);
    a.call("square");
    halt_with_a0(&mut a);
    a.label("square");
    a.addi(Sp, Sp, -16);
    a.sd(Ra, Sp, 8);
    a.mul(A0, A0, A0);
    a.ld(Ra, Sp, 8);
    a.addi(Sp, Sp, 16);
    a.ret();
    assert_eq!(run(a).0, 81);
}

#[test]
fn gcd_by_remainder_loop() {
    // Euclid: call, remu, a backward jump and ret in one program.
    let mut a = Asm::new(RAM);
    a.li(A0, 12);
    a.li(A1, 30);
    a.call("gcd");
    halt_with_a0(&mut a);
    a.label("gcd");
    a.beqz(A1, "done");
    a.remu(T0, A0, A1);
    a.mv(A0, A1);
    a.mv(A1, T0);
    a.j("gcd");
    a.label("done");
    a.ret();
    assert_eq!(run(a).0, 6, "gcd(12, 30)");
}

#[test]
fn memory_byte_halfword_word() {
    let mut a = Asm::new(RAM);
    let buf = RAM + 0x2000;
    a.li(T0, buf);
    a.li(T1, 0x1234_5678_9abc_def0u64);
    a.sd(T1, T0, 0);
    a.lbu(A0, T0, 0); // 0xf0
    a.lhu(A1, T0, 2); // 0x9abc
    a.lw(A2, T0, 4); // 0x12345678
    a.add(A0, A0, A1);
    a.add(A0, A0, A2);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 0xf0 + 0x9abc + 0x1234_5678);
}

#[test]
fn sign_extension_of_loads() {
    let mut a = Asm::new(RAM);
    let buf = RAM + 0x2000;
    a.li(T0, buf);
    a.li(T1, 0xff80u64);
    a.sh(T1, T0, 0);
    a.lb(A0, T0, 1); // 0xff -> -1
    a.lh(A1, T0, 0); // 0xff80 -> -128
    a.sub(A0, A0, A1); // -1 - (-128) = 127
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 127);
}

#[test]
fn console_output() {
    let mut a = Asm::new(RAM);
    a.li(T0, mmio::CONSOLE_TX);
    for c in b"ok" {
        a.li(T1, *c as u64);
        a.sb(T1, T0, 0);
    }
    a.li(A0, 0);
    halt_with_a0(&mut a);
    let (_, m) = run(a);
    assert_eq!(m.bus.console_string(), "ok");
}

#[test]
fn value_log_reports_measurements() {
    let mut a = Asm::new(RAM);
    a.li(T0, mmio::VALUE_LOG);
    a.li(T1, 11);
    a.sd(T1, T0, 0);
    a.li(T1, 22);
    a.sd(T1, T0, 0);
    a.li(A0, 0);
    halt_with_a0(&mut a);
    let (_, m) = run(a);
    assert_eq!(m.bus.value_log(), vec![11, 22]);
}

#[test]
fn csr_read_write_machine_mode() {
    let mut a = Asm::new(RAM);
    a.li(T0, 0xabcd);
    a.csrw(addr::MSCRATCH as u32, T0);
    a.csrr(A0, addr::MSCRATCH as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 0xabcd);
}

#[test]
fn csr_set_clear_bits() {
    let mut a = Asm::new(RAM);
    a.li(T0, 0b1111);
    a.csrw(addr::MSCRATCH as u32, T0);
    a.csrrci(Zero, addr::MSCRATCH as u32, 0b0101);
    a.csrrsi(Zero, addr::MSCRATCH as u32, 0b10000);
    a.csrr(A0, addr::MSCRATCH as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 0b11010);
}

#[test]
fn rdcycle_advances() {
    let mut a = Asm::new(RAM);
    a.rdcycle(T0);
    for _ in 0..10 {
        a.nop();
    }
    a.rdcycle(T1);
    a.sub(A0, T1, T0);
    halt_with_a0(&mut a);
    let (delta, _) = run(a);
    assert!(delta >= 10, "cycle counter must advance: {delta}");
}

#[test]
fn ecall_from_m_traps_to_mtvec() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    a.ecall();
    a.j("hang"); // never reached: handler halts
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    a.label("hang");
    a.j("hang");
    assert_eq!(run(a).0, 11); // environment call from M
}

#[test]
fn illegal_instruction_traps_with_tval() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    a.word(0xffff_ffff); // not a valid encoding
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    a.csrr(A1, addr::MTVAL as u32);
    a.li(T2, 0xffff_ffffu64);
    a.bne(A1, T2, "bad");
    halt_with_a0(&mut a);
    a.label("bad");
    a.li(A0, 999);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    assert_eq!(run(a).0, 2);
}

#[test]
fn mret_drops_to_user_mode_and_ecall_comes_back() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    // MPP <- U (clear both bits), MEPC <- user code.
    a.li(T0, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T0);
    a.la(T0, "user");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("user");
    a.ecall(); // from U: cause 8
    a.label("hang");
    a.j("hang");
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 8);
}

#[test]
fn user_mode_cannot_touch_machine_csrs() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T0, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T0);
    a.la(T0, "user");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("user");
    a.csrr(A0, addr::MSTATUS as u32); // illegal from U
    a.label("hang");
    a.j("hang");
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 2);
}

#[test]
fn lr_sc_success_and_failure() {
    let mut a = Asm::new(RAM);
    let buf = RAM + 0x3000;
    a.li(T0, buf);
    a.li(T1, 5);
    a.sd(T1, T0, 0);
    // Successful LR/SC pair.
    a.lr_d(T2, T0);
    a.addi(T2, T2, 1);
    a.sc_d(A0, T0, T2); // a0 = 0 on success
                        // SC without a reservation must fail.
    a.sc_d(A1, T0, T2); // a1 = 1
    a.ld(A2, T0, 0); // 6
    a.slli(A1, A1, 4);
    a.slli(A2, A2, 8);
    a.or(A0, A0, A1);
    a.or(A0, A0, A2);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, (6 << 8) | (1 << 4));
}

#[test]
fn amoadd_and_amoswap() {
    let mut a = Asm::new(RAM);
    let buf = RAM + 0x3000;
    a.li(T0, buf);
    a.li(T1, 40);
    a.sd(T1, T0, 0);
    a.li(T2, 2);
    a.amoadd_d(A0, T0, T2); // a0 = 40, mem = 42
    a.li(T2, 7);
    a.amoswap_d(A1, T0, T2); // a1 = 42, mem = 7
    a.ld(A2, T0, 0); // 7
    a.add(A0, A0, A1);
    a.add(A0, A0, A2);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 40 + 42 + 7);
}

#[test]
fn amo_min_max_signed_unsigned() {
    let mut a = Asm::new(RAM);
    // Each check sets one bit of S0 on mismatch, so a nonzero halt
    // value pinpoints exactly which comparison failed.
    let mut bit = 0u32;
    let mut check = |a: &mut Asm, actual: isa_asm::Reg, expect: isa_asm::Reg| {
        a.xor(T5, actual, expect);
        a.snez(T5, T5);
        a.slli(T5, T5, bit);
        a.or(S0, S0, T5);
        bit += 1;
    };
    let buf = RAM + 0x3000;
    a.li(S0, 0);
    a.li(T0, buf);
    a.li(T1, (-5i64) as u64); // also 0xffff_fffb in its low word
    a.li(T2, 3);

    // Signed 64-bit: min(-5, 3) keeps -5; max replaces it with 3.
    a.sd(T1, T0, 0);
    a.amomin_d(A0, T0, T2);
    check(&mut a, A0, T1); // old value returned
    a.amomax_d(A1, T0, T2);
    check(&mut a, A1, T1); // min left memory at -5
    a.ld(A2, T0, 0);
    check(&mut a, A2, T2); // max stored 3

    // Unsigned 64-bit: -5 is huge, so minu picks 3 and maxu picks -5.
    a.sd(T1, T0, 0);
    a.amominu_d(A0, T0, T2);
    check(&mut a, A0, T1);
    a.ld(A2, T0, 0);
    check(&mut a, A2, T2);
    a.amomaxu_d(A0, T0, T1);
    check(&mut a, A0, T2);
    a.ld(A2, T0, 0);
    check(&mut a, A2, T1);

    // Signed 32-bit at buf+8: the old word 0xffff_fffb must come back
    // sign-extended to the full -5, and min compares it as negative.
    a.addi(T3, T0, 8);
    a.sw(T1, T3, 0);
    a.amomin_w(A0, T3, T2);
    check(&mut a, A0, T1); // sign-extended result
    a.amomax_w(A1, T3, T2);
    check(&mut a, A1, T1);
    a.lw(A2, T3, 0);
    check(&mut a, A2, T2);

    // Unsigned 32-bit: 0xffff_fffb is huge, yet the *result* register
    // is still sign-extended; rs2 is truncated to its low word.
    a.sw(T1, T3, 0);
    a.amominu_w(A0, T3, T2);
    check(&mut a, A0, T1);
    a.lw(A2, T3, 0);
    check(&mut a, A2, T2);
    a.amomaxu_w(A0, T3, T1);
    check(&mut a, A0, T2);
    a.lw(A2, T3, 0);
    check(&mut a, A2, T1);

    a.mv(A0, S0);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 0, "failed checks (bit = check index)");
}

#[test]
fn misaligned_load_traps() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T0, RAM + 0x3001);
    a.ld(A0, T0, 0);
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 4);
}

#[test]
fn sv39_paging_end_to_end() {
    // Identity-map the RAM for S-mode, plus a distinct user page, then
    // run S-mode code through the mapping.
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    // satp will be set by the host below; here: jump to S-mode.
    a.li(T0, (1 << mstatus::MPP_SHIFT) as u64); // MPP = S
    a.li(T1, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.csrrs(Zero, addr::MSTATUS as u32, T0);
    a.la(T0, "svcode");
    a.csrw(addr::MEPC as u32, T0);
    a.csrr(T0, addr::MSCRATCH as u32); // satp value prepared by host
    a.csrw(addr::SATP as u32, T0);
    a.mret();
    a.label("svcode");
    // Read through the virtual alias page at 0x4000_0000.
    a.li(T0, 0x4000_0000);
    a.ld(A0, T0, 0);
    halt_with_a0(&mut a);
    a.label("handler");
    a.li(A0, 777);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);

    let prog = a.assemble().unwrap();
    let mut m = Machine::new(NullExtension);
    m.load_program(&prog);
    // Build page tables host-side.
    let mut ptb = PageTableBuilder::new(&mut m.bus, RAM + 0x20_0000, 0x8_0000);
    ptb.map_range(&mut m.bus, RAM, RAM, 4 << 20, pte::R | pte::W | pte::X);
    // MMIO must stay reachable from S-mode.
    ptb.map_range(
        &mut m.bus,
        0x1000_0000,
        0x1000_0000,
        0x2000,
        pte::R | pte::W,
    );
    // Alias 0x4000_0000 -> RAM+0x5000.
    ptb.map_page(&mut m.bus, 0x4000_0000, RAM + 0x5000, pte::R);
    m.bus.write_u64(RAM + 0x5000, 0xfeed_f00d);
    m.cpu.csrs.write_raw(addr::MSCRATCH, ptb.satp());
    match m.run(1_000_000) {
        Exit::Halted(v) => assert_eq!(v, 0xfeed_f00d),
        Exit::StepLimit => panic!("did not halt; pc={:#x}", m.cpu.pc),
    }
}

#[test]
fn wp_range_blocks_supervisor_stores() {
    // S-mode store into the WP range must fault once wpctl.WP is set.
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    // Configure WP range over [RAM+0x6000, RAM+0x7000).
    a.li(T0, RAM + 0x6000);
    a.csrw(addr::WPBASE as u32, T0);
    a.li(T0, RAM + 0x7000);
    a.csrw(addr::WPLIMIT as u32, T0);
    a.csrrsi(Zero, addr::WPCTL as u32, 1);
    // Drop to S-mode.
    a.li(T1, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T0, (1 << mstatus::MPP_SHIFT) as u64);
    a.csrrs(Zero, addr::MSTATUS as u32, T0);
    a.la(T0, "svcode");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("svcode");
    a.li(T0, RAM + 0x6000);
    a.li(T1, 1);
    a.sd(T1, T0, 0); // must fault (cause 7)
    a.label("hang");
    a.j("hang");
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 7);

    // And M-mode stores bypass WP.
    let mut a = Asm::new(RAM);
    a.li(T0, RAM + 0x6000);
    a.csrw(addr::WPBASE as u32, T0);
    a.li(T0, RAM + 0x7000);
    a.csrw(addr::WPLIMIT as u32, T0);
    a.csrrsi(Zero, addr::WPCTL as u32, 1);
    a.li(T0, RAM + 0x6000);
    a.li(T1, 3);
    a.sd(T1, T0, 0);
    a.ld(A0, T0, 0);
    halt_with_a0(&mut a);
    assert_eq!(run(a).0, 3);
}

#[test]
fn exception_delegation_to_supervisor() {
    let mut a = Asm::new(RAM);
    a.la(T0, "mhandler");
    a.csrw(addr::MTVEC as u32, T0);
    a.la(T0, "shandler");
    a.csrw(addr::STVEC as u32, T0);
    // Delegate user ecalls (cause 8) to S-mode.
    a.li(T0, 1 << 8);
    a.csrw(addr::MEDELEG as u32, T0);
    // Drop to U-mode.
    a.li(T1, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "user");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("user");
    a.ecall();
    a.label("hang");
    a.j("hang");
    a.label("shandler");
    a.csrr(A0, addr::SCAUSE as u32);
    a.addi(A0, A0, 100); // mark: arrived in S
    halt_with_a0(&mut a);
    a.label("mhandler");
    a.li(A0, 999);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    assert_eq!(run(a).0, 108);
}

#[test]
fn sret_returns_to_user() {
    let mut a = Asm::new(RAM);
    a.la(T0, "mh");
    a.csrw(addr::MTVEC as u32, T0);
    a.la(T0, "sh");
    a.csrw(addr::STVEC as u32, T0);
    a.li(T0, 1 << 8);
    a.csrw(addr::MEDELEG as u32, T0);
    a.li(T1, mstatus::MPP_MASK);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "user");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();
    a.label("user");
    a.li(A0, 1);
    a.ecall(); // S handler increments a0 and sret's back
    a.addi(A0, A0, 10);
    halt_with_a0(&mut a);
    a.label("sh");
    a.addi(A0, A0, 1);
    a.csrr(T0, addr::SEPC as u32);
    a.addi(T0, T0, 4);
    a.csrw(addr::SEPC as u32, T0);
    a.sret();
    a.label("mh");
    a.li(A0, 999);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    assert_eq!(run(a).0, 12);
}

#[test]
fn timer_interrupt_is_taken_when_enabled() {
    use isa_sim::Interrupt;
    let mut a = Asm::new(RAM);
    a.la(T0, "mh");
    a.csrw(addr::MTVEC as u32, T0);
    a.li(T0, Interrupt::MachineTimer.mask());
    a.csrw(addr::MIE as u32, T0);
    a.li(T0, mstatus::MIE);
    a.csrrs(Zero, addr::MSTATUS as u32, T0);
    a.label("spin");
    a.j("spin");
    a.label("mh");
    a.csrr(A0, addr::MCAUSE as u32);
    a.slli(A0, A0, 1); // drop the interrupt bit by shifting through u64
    a.srli(A0, A0, 1);
    halt_with_a0(&mut a);
    let prog = a.assemble().unwrap();
    let mut m = Machine::new(NullExtension);
    m.load_program(&prog);
    // Let it spin a little, then raise the timer interrupt.
    m.run(50);
    m.set_pending(Interrupt::MachineTimer, true);
    match m.run(100) {
        Exit::Halted(v) => assert_eq!(v, 7),
        Exit::StepLimit => panic!("interrupt not taken"),
    }
}

#[test]
fn trap_counts_are_recorded() {
    let mut a = Asm::new(RAM);
    a.la(T0, "handler");
    a.csrw(addr::MTVEC as u32, T0);
    a.ecall();
    a.label("handler");
    a.csrr(A0, addr::MCAUSE as u32);
    halt_with_a0(&mut a);
    let (_, m) = run(a);
    assert_eq!(m.trap_counts.get(&11), Some(&1));
}
