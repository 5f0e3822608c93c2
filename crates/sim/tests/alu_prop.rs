//! Property tests: the emulator's ALU semantics must match a host-side
//! reference model for randomly generated operand values.

use isa_asm::{Asm, Reg::*};
use isa_sim::{mmio, Exit, Machine, NullExtension, DEFAULT_RAM_BASE as RAM};
use proptest::prelude::*;

/// Execute a two-operand op and return the value the guest computed.
fn run_binop(emit: impl Fn(&mut Asm), a0: u64, a1: u64) -> u64 {
    let mut a = Asm::new(RAM);
    a.li(A0, a0);
    a.li(A1, a1);
    emit(&mut a);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.nop();
    let prog = a.assemble().unwrap();
    let mut m = Machine::new(NullExtension);
    m.load_program(&prog);
    match m.run(10_000) {
        Exit::Halted(v) => v,
        Exit::StepLimit => panic!("no halt"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn li_materializes_any_constant(x in any::<u64>()) {
        let got = run_binop(|_| {}, x, 0);
        prop_assert_eq!(got, x);
    }

    #[test]
    fn add_sub_match_host(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(run_binop(|a| { a.add(A0, A0, A1); }, x, y), x.wrapping_add(y));
        prop_assert_eq!(run_binop(|a| { a.sub(A0, A0, A1); }, x, y), x.wrapping_sub(y));
    }

    #[test]
    fn logic_ops_match_host(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(run_binop(|a| { a.and(A0, A0, A1); }, x, y), x & y);
        prop_assert_eq!(run_binop(|a| { a.or(A0, A0, A1); }, x, y), x | y);
        prop_assert_eq!(run_binop(|a| { a.xor(A0, A0, A1); }, x, y), x ^ y);
    }

    #[test]
    fn shifts_match_host(x in any::<u64>(), s in 0u32..64) {
        prop_assert_eq!(run_binop(|a| { a.slli(A0, A0, s); }, x, 0), x << s);
        prop_assert_eq!(run_binop(|a| { a.srli(A0, A0, s); }, x, 0), x >> s);
        prop_assert_eq!(
            run_binop(|a| { a.srai(A0, A0, s); }, x, 0),
            ((x as i64) >> s) as u64
        );
    }

    #[test]
    fn variable_shifts_mask_the_amount(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(run_binop(|a| { a.sll(A0, A0, A1); }, x, y), x << (y & 63));
        prop_assert_eq!(run_binop(|a| { a.srl(A0, A0, A1); }, x, y), x >> (y & 63));
    }

    #[test]
    fn comparisons_match_host(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(run_binop(|a| { a.sltu(A0, A0, A1); }, x, y), (x < y) as u64);
        prop_assert_eq!(
            run_binop(|a| { a.slt(A0, A0, A1); }, x, y),
            ((x as i64) < (y as i64)) as u64
        );
    }

    #[test]
    fn mul_family_matches_host(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(run_binop(|a| { a.mul(A0, A0, A1); }, x, y), x.wrapping_mul(y));
        prop_assert_eq!(
            run_binop(|a| { a.mulhu(A0, A0, A1); }, x, y),
            ((x as u128 * y as u128) >> 64) as u64
        );
        prop_assert_eq!(
            run_binop(|a| { a.mulh(A0, A0, A1); }, x, y),
            (((x as i64 as i128) * (y as i64 as i128)) >> 64) as u64
        );
    }

    #[test]
    fn div_rem_match_riscv_semantics(x in any::<u64>(), y in any::<u64>()) {
        let divu = x.checked_div(y).unwrap_or(u64::MAX);
        let remu = if y == 0 { x } else { x % y };
        prop_assert_eq!(run_binop(|a| { a.divu(A0, A0, A1); }, x, y), divu);
        prop_assert_eq!(run_binop(|a| { a.remu(A0, A0, A1); }, x, y), remu);

        let (xs, ys) = (x as i64, y as i64);
        let div = if ys == 0 {
            u64::MAX
        } else if xs == i64::MIN && ys == -1 {
            x
        } else {
            (xs / ys) as u64
        };
        prop_assert_eq!(run_binop(|a| { a.div(A0, A0, A1); }, x, y), div);
    }

    #[test]
    fn word_ops_sign_extend(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(
            run_binop(|a| { a.addw(A0, A0, A1); }, x, y),
            (x as i32).wrapping_add(y as i32) as i64 as u64
        );
        prop_assert_eq!(
            run_binop(|a| { a.subw(A0, A0, A1); }, x, y),
            (x as i32).wrapping_sub(y as i32) as i64 as u64
        );
        prop_assert_eq!(
            run_binop(|a| { a.mulw(A0, A0, A1); }, x, y),
            (x as i32).wrapping_mul(y as i32) as i64 as u64
        );
    }

    #[test]
    fn memory_roundtrip_any_value(x in any::<u64>(), off in 0u64..1024) {
        let addr = RAM + 0x4000 + off * 8;
        let got = run_binop(
            |a| {
                a.li(T0, addr);
                a.sd(A0, T0, 0);
                a.li(A0, 0);
                a.ld(A0, T0, 0);
            },
            x,
            0,
        );
        prop_assert_eq!(got, x);
    }

    #[test]
    fn addi_immediates(x in any::<u64>(), imm in -2048i32..=2047) {
        let got = run_binop(|a| { a.addi(A0, A0, imm); }, x, 0);
        prop_assert_eq!(got, x.wrapping_add(imm as i64 as u64));
    }
}

/// Marks an operand field an instruction form lacks.
const X: i64 = i64::MIN;

/// Every encoder, with edge-case operands: the word, the class it must
/// decode to, and the operands it must decode to as `rd, rs1, rs2, imm,
/// csr`.
fn instruction_forms() -> Vec<(u32, isa_sim::Kind, [i64; 5])> {
    use isa_asm::encode as e;
    use isa_sim::{Kind, Kind::*};
    let r = |raw: u32, kind: Kind| (raw, kind, [10, 11, 12, X, X]);
    vec![
        (e::lui(T0, 0x12345 << 12), Lui, [5, X, X, 0x12345 << 12, X]),
        (e::auipc(A0, 0x1000), Auipc, [10, X, X, 0x1000, X]),
        (e::jal(Ra, 2048), Jal, [1, X, X, 2048, X]),
        (e::jal(Zero, -16), Jal, [0, X, X, -16, X]),
        (e::jalr(Zero, Ra, 0), Jalr, [0, 1, X, 0, X]),
        (e::jalr(A0, A1, -4), Jalr, [10, 11, X, -4, X]),
        (e::beq(A0, A1, 64), Beq, [X, 10, 11, 64, X]),
        (e::bne(S0, S1, -64), Bne, [X, 8, 9, -64, X]),
        (e::blt(T0, T1, 8), Blt, [X, 5, 6, 8, X]),
        (e::bge(T2, T3, 8), Bge, [X, 7, 28, 8, X]),
        (e::bltu(A2, A3, -4096), Bltu, [X, 12, 13, -4096, X]),
        (e::bgeu(A4, A5, 4094), Bgeu, [X, 14, 15, 4094, X]),
        (e::lb(A0, Sp, -1), Lb, [10, 2, X, -1, X]),
        (e::lh(A0, Sp, 2), Lh, [10, 2, X, 2, X]),
        (e::lw(A0, Sp, 4), Lw, [10, 2, X, 4, X]),
        (e::ld(A0, Sp, 8), Ld, [10, 2, X, 8, X]),
        (e::lbu(A0, Sp, 0), Lbu, [10, 2, X, 0, X]),
        (e::lhu(A0, Sp, 0), Lhu, [10, 2, X, 0, X]),
        (e::lwu(A0, Sp, 0), Lwu, [10, 2, X, 0, X]),
        (e::sb(T0, A0, 1), Sb, [X, 10, 5, 1, X]),
        (e::sh(T0, A0, 2), Sh, [X, 10, 5, 2, X]),
        (e::sw(T0, A0, 4), Sw, [X, 10, 5, 4, X]),
        (e::sd(T0, A0, 8), Sd, [X, 10, 5, 8, X]),
        (e::addi(A0, A0, -2048), Addi, [10, 10, X, -2048, X]),
        (e::slti(A0, A1, 2047), Slti, [10, 11, X, 2047, X]),
        (e::sltiu(A0, A1, 1), Sltiu, [10, 11, X, 1, X]),
        (e::xori(A0, A1, -1), Xori, [10, 11, X, -1, X]),
        (e::ori(A0, A1, 0x55), Ori, [10, 11, X, 0x55, X]),
        (e::andi(A0, A1, 0xf), Andi, [10, 11, X, 0xf, X]),
        (e::addiw(A0, A1, 100), Addiw, [10, 11, X, 100, X]),
        (e::slli(A0, A1, 63), Slli, [10, 11, X, 63, X]),
        (e::srli(A0, A1, 1), Srli, [10, 11, X, 1, X]),
        (e::srai(A0, A1, 32), Srai, [10, 11, X, 32, X]),
        (e::slliw(A0, A1, 31), Slliw, [10, 11, X, 31, X]),
        (e::srliw(A0, A1, 15), Srliw, [10, 11, X, 15, X]),
        (e::sraiw(A0, A1, 7), Sraiw, [10, 11, X, 7, X]),
        r(e::add(A0, A1, A2), Add),
        r(e::sub(A0, A1, A2), Sub),
        r(e::sll(A0, A1, A2), Sll),
        r(e::slt(A0, A1, A2), Slt),
        r(e::sltu(A0, A1, A2), Sltu),
        r(e::xor(A0, A1, A2), Xor),
        r(e::srl(A0, A1, A2), Srl),
        r(e::sra(A0, A1, A2), Sra),
        r(e::or(A0, A1, A2), Or),
        r(e::and(A0, A1, A2), And),
        r(e::addw(A0, A1, A2), Addw),
        r(e::subw(A0, A1, A2), Subw),
        r(e::sllw(A0, A1, A2), Sllw),
        r(e::srlw(A0, A1, A2), Srlw),
        r(e::sraw(A0, A1, A2), Sraw),
        r(e::mul(A0, A1, A2), Mul),
        r(e::mulh(A0, A1, A2), Mulh),
        r(e::mulhsu(A0, A1, A2), Mulhsu),
        r(e::mulhu(A0, A1, A2), Mulhu),
        r(e::div(A0, A1, A2), Div),
        r(e::divu(A0, A1, A2), Divu),
        r(e::rem(A0, A1, A2), Rem),
        r(e::remu(A0, A1, A2), Remu),
        r(e::mulw(A0, A1, A2), Mulw),
        r(e::divw(A0, A1, A2), Divw),
        r(e::divuw(A0, A1, A2), Divuw),
        r(e::remw(A0, A1, A2), Remw),
        r(e::remuw(A0, A1, A2), Remuw),
        (e::lr_w(A0, A1), LrW, [10, 11, 0, X, X]),
        r(e::sc_w(A0, A1, A2), ScW),
        (e::lr_d(A0, A1), LrD, [10, 11, 0, X, X]),
        r(e::sc_d(A0, A1, A2), ScD),
        r(e::amoswap_d(A0, A1, A2), AmoswapD),
        r(e::amoadd_d(A0, A1, A2), AmoaddD),
        r(e::amoadd_w(A0, A1, A2), AmoaddW),
        r(e::amoand_d(A0, A1, A2), AmoandD),
        r(e::amoor_d(A0, A1, A2), AmoorD),
        r(e::amoxor_d(A0, A1, A2), AmoxorD),
        (e::fence(), Fence, [X; 5]),
        (e::fence_i(), FenceI, [X; 5]),
        (e::ecall(), Ecall, [X; 5]),
        (e::ebreak(), Ebreak, [X; 5]),
        (e::mret(), Mret, [X; 5]),
        (e::sret(), Sret, [X; 5]),
        (e::wfi(), Wfi, [X; 5]),
        (e::sfence_vma(Zero, Zero), SfenceVma, [X, 0, 0, X, X]),
        (e::sfence_vma(A0, A1), SfenceVma, [X, 10, 11, X, X]),
        (e::csrrw(Zero, 0x180, A0), Csrrw, [0, 10, X, X, 0x180]),
        (e::csrrs(A0, 0x342, Zero), Csrrs, [10, 0, X, X, 0x342]),
        (e::csrrc(T0, 0x100, T1), Csrrc, [5, 6, X, X, 0x100]),
        (e::csrrwi(Zero, 0x140, 31), Csrrwi, [0, 31, X, X, 0x140]),
        (e::csrrsi(A0, 0x100, 2), Csrrsi, [10, 2, X, X, 0x100]),
        (e::csrrci(Zero, 0x144, 1), Csrrci, [0, 1, X, X, 0x144]),
        (e::csrrw(Zero, 0x5ff, A0), Csrrw, [0, 10, X, X, 0x5ff]),
        (e::hccall(A0), Hccall, [X, 10, X, X, X]),
        (e::hccalls(T4), Hccalls, [X, 29, X, X, X]),
        (e::hcrets(), Hcrets, [X; 5]),
        (e::pfch(A1), Pfch, [X, 11, X, X, X]),
        (e::pflh(A2), Pflh, [X, 12, X, X, X]),
    ]
}

#[test]
fn decode_encode_roundtrip_sweep() {
    // Every encoder output must decode back to its own class — a
    // cross-crate consistency check between isa-asm and isa-sim.
    for (raw, kind, _) in instruction_forms() {
        let d = isa_sim::decode(raw).unwrap_or_else(|e| panic!("{kind:?} {raw:#010x}: {e}"));
        assert_eq!(d.kind, kind, "{raw:#010x}");
    }
}

#[test]
fn every_instruction_form_round_trips() {
    // The operands given to each encoder come back out of the decoder in
    // the fields `execute` reads.
    for (raw, kind, want) in instruction_forms() {
        let d = isa_sim::decode(raw).unwrap_or_else(|e| panic!("{kind:?} {raw:#010x}: {e}"));
        let got = [d.rd.into(), d.rs1.into(), d.rs2.into(), d.imm, d.csr.into()];
        for (i, field) in ["rd", "rs1", "rs2", "imm", "csr"].iter().enumerate() {
            if want[i] != X {
                assert_eq!(got[i], want[i], "{kind:?} {raw:#010x}: {field}");
            }
        }
    }
}
