//! Two-pass assembler builder with labels, fixups and data directives.

use std::collections::BTreeMap;
use std::fmt;

use crate::encode;
use crate::Reg;

/// An assembly-time error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target was out of range for the instruction's immediate.
    OffsetOutOfRange {
        /// The referenced label.
        label: String,
        /// The required byte offset.
        offset: i64,
        /// The instruction kind that could not encode it.
        kind: &'static str,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::OffsetOutOfRange {
                label,
                offset,
                kind,
            } => {
                write!(f, "offset {offset} to `{label}` out of range for {kind}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Load address of the first byte.
    pub base: u64,
    /// Raw little-endian image (code and data interleaved as emitted).
    pub bytes: Vec<u8>,
    /// Label name → absolute address.
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Address of `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label does not exist; symbols are produced by
    /// [`Asm::assemble`], so a miss is a programming error in the caller.
    pub fn symbol(&self, label: &str) -> u64 {
        *self
            .symbols
            .get(label)
            .unwrap_or_else(|| panic!("no symbol `{label}` in program"))
    }

    /// End address (one past the last byte).
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

#[derive(Debug, Clone)]
enum Fixup {
    /// B-type branch: patch the 13-bit offset.
    Branch { at: usize, label: String },
    /// J-type jump: patch the 21-bit offset.
    Jal { at: usize, label: String },
    /// `auipc`+`addi` pair producing the absolute address of a label.
    PcRelPair { at: usize, label: String },
    /// 64-bit absolute address stored as data.
    AbsDword { at: usize, label: String },
}

/// A two-pass RV64 assembler.
///
/// Instructions are emitted immediately; label references are recorded as
/// fixups and patched by [`Asm::assemble`]. Every instruction-emitting
/// method returns `&mut Self` so code reads sequentially:
///
/// ```
/// use isa_asm::{Asm, Reg::*};
/// let mut a = Asm::new(0x8000_0000);
/// a.label("loop");
/// a.addi(A0, A0, -1);
/// a.bnez(A0, "loop");
/// a.ret();
/// let prog = a.assemble().unwrap();
/// assert_eq!(prog.symbol("loop"), 0x8000_0000);
/// assert_eq!(prog.bytes.len(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    base: u64,
    bytes: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    fixups: Vec<Fixup>,
    fresh: u64,
}

impl Asm {
    /// Create an assembler whose first emitted byte loads at `base`.
    pub fn new(base: u64) -> Asm {
        Asm {
            base,
            bytes: Vec::new(),
            symbols: BTreeMap::new(),
            fixups: Vec::new(),
            fresh: 0,
        }
    }

    /// The address the next emitted byte will occupy.
    pub fn here(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// Define `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate definition (always a bug in generated code).
    pub fn label(&mut self, label: &str) -> &mut Self {
        let addr = self.here();
        if self.symbols.insert(label.to_string(), addr).is_some() {
            panic!("duplicate label `{label}`");
        }
        self
    }

    /// Produce a unique label with the given prefix, for generated loops.
    pub fn fresh_label(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}$${}", self.fresh)
    }

    /// Emit a raw 32-bit instruction word.
    pub fn word(&mut self, w: u32) -> &mut Self {
        self.bytes.extend_from_slice(&w.to_le_bytes());
        self
    }

    // ---- data directives ----

    /// Emit a raw byte.
    pub fn d8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Emit a little-endian 32-bit datum.
    pub fn d32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Emit a little-endian 64-bit datum.
    pub fn d64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Emit the absolute address of `label` as a 64-bit datum (patched at
    /// assembly time) — used for jump/dispatch tables.
    pub fn d64_label(&mut self, label: &str) -> &mut Self {
        self.fixups.push(Fixup::AbsDword {
            at: self.bytes.len(),
            label: label.to_string(),
        });
        self.d64(0)
    }

    /// Emit `n` zero bytes.
    pub fn zero(&mut self, n: usize) -> &mut Self {
        self.bytes.resize(self.bytes.len() + n, 0);
        self
    }

    /// Pad with zeros to the next multiple of `align` bytes (power of two).
    pub fn align(&mut self, align: u64) -> &mut Self {
        debug_assert!(align.is_power_of_two());
        while !self.here().is_multiple_of(align) {
            self.bytes.push(0);
        }
        self
    }

    // ---- pseudo-instructions ----

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.word(encode::addi(Reg::Zero, Reg::Zero, 0))
    }

    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.word(encode::addi(rd, rs, 0))
    }

    /// `not rd, rs`.
    pub fn not(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.word(encode::xori(rd, rs, -1))
    }

    /// `neg rd, rs`.
    pub fn neg(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.word(encode::sub(rd, Reg::Zero, rs))
    }

    /// `seqz rd, rs` — set `rd` to 1 if `rs` is zero.
    pub fn seqz(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.word(encode::sltiu(rd, rs, 1))
    }

    /// `snez rd, rs` — set `rd` to 1 if `rs` is non-zero.
    pub fn snez(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.word(encode::sltu(rd, Reg::Zero, rs))
    }

    /// `ret` (`jalr x0, ra, 0`).
    pub fn ret(&mut self) -> &mut Self {
        self.word(encode::jalr(Reg::Zero, Reg::Ra, 0))
    }

    /// Load the 64-bit constant `imm` into `rd` using the shortest
    /// `lui`/`addi`/`slli` sequence (1–8 instructions).
    pub fn li(&mut self, rd: Reg, imm: u64) -> &mut Self {
        self.li_signed(rd, imm as i64)
    }

    fn li_signed(&mut self, rd: Reg, imm: i64) -> &mut Self {
        if (-2048..=2047).contains(&imm) {
            return self.word(encode::addi(rd, Reg::Zero, imm as i32));
        }
        if imm >= i32::MIN as i64 && imm <= i32::MAX as i64 {
            // lui covers bits 31:12; addi adds the (sign-corrected) low 12.
            let lo = ((imm << 52) >> 52) as i32; // sign-extended low 12 bits
            let hi = imm - lo as i64;
            self.word(encode::lui(rd, hi as i32));
            if lo != 0 {
                self.word(encode::addiw(rd, rd, lo));
            }
            return self;
        }
        // General case: materialize the upper part, shift, add chunks.
        let lo12 = ((imm << 52) >> 52) as i32;
        let rest = imm.wrapping_sub(lo12 as i64) >> 12;
        self.li_signed(rd, rest);
        self.word(encode::slli(rd, rd, 12));
        if lo12 != 0 {
            self.word(encode::addi(rd, rd, lo12));
        }
        self
    }

    /// Load the absolute address of `label` into `rd` (pc-relative
    /// `auipc`+`addi`, patched at assembly time).
    pub fn la(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.fixups.push(Fixup::PcRelPair {
            at: self.bytes.len(),
            label: label.to_string(),
        });
        self.word(encode::auipc(rd, 0));
        self.word(encode::addi(rd, rd, 0))
    }

    /// Unconditional jump to `label`.
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.jal(Reg::Zero, label)
    }

    /// `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Jal {
            at: self.bytes.len(),
            label: label.to_string(),
        });
        self.word(encode::jal(rd, 0))
    }

    /// `call label` (`jal ra, label`).
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.jal(Reg::Ra, label)
    }

    /// `jalr rd, rs1, offset` — indirect jump.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.word(encode::jalr(rd, rs1, offset))
    }

    /// `beqz rs, label`.
    pub fn beqz(&mut self, rs: Reg, label: &str) -> &mut Self {
        self.beq(rs, Reg::Zero, label)
    }

    /// `bnez rs, label`.
    pub fn bnez(&mut self, rs: Reg, label: &str) -> &mut Self {
        self.bne(rs, Reg::Zero, label)
    }

    // ---- label-target branches ----

    fn branch(&mut self, funct3: u32, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Branch {
            at: self.bytes.len(),
            label: label.to_string(),
        });
        self.word(encode::b_type(encode::opcode::BRANCH, funct3, rs1, rs2, 0))
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b000, rs1, rs2, label)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b001, rs1, rs2, label)
    }

    /// `blt rs1, rs2, label` (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b100, rs1, rs2, label)
    }

    /// `bge rs1, rs2, label` (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b101, rs1, rs2, label)
    }

    /// `bltu rs1, rs2, label` (unsigned).
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b110, rs1, rs2, label)
    }

    /// `bgeu rs1, rs2, label` (unsigned).
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(0b111, rs1, rs2, label)
    }

    // ---- finish ----

    /// Resolve all fixups and produce the program image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] for dangling references and
    /// [`AsmError::OffsetOutOfRange`] when a branch or jump target cannot
    /// be encoded.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        let patch32 = |bytes: &mut [u8], at: usize, w: u32| {
            bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
        };
        let read32 = |bytes: &[u8], at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let fixups = std::mem::take(&mut self.fixups);
        for fx in fixups {
            match fx {
                Fixup::Branch { at, label } => {
                    let target = self.lookup(&label)?;
                    let pc = self.base + at as u64;
                    let off = target.wrapping_sub(pc) as i64;
                    if !(-4096..=4094).contains(&off) || off % 2 != 0 {
                        return Err(AsmError::OffsetOutOfRange {
                            label,
                            offset: off,
                            kind: "branch",
                        });
                    }
                    let old = read32(&self.bytes, at);
                    // Re-pack: preserve opcode/funct3/registers, set offset.
                    let funct3 = (old >> 12) & 7;
                    let rs1 = Reg::from_num((old >> 15) & 31);
                    let rs2 = Reg::from_num((old >> 20) & 31);
                    let w = encode::b_type(encode::opcode::BRANCH, funct3, rs1, rs2, off as i32);
                    patch32(&mut self.bytes, at, w);
                }
                Fixup::Jal { at, label } => {
                    let target = self.lookup(&label)?;
                    let pc = self.base + at as u64;
                    let off = target.wrapping_sub(pc) as i64;
                    if !(-(1 << 20)..(1 << 20)).contains(&off) || off % 2 != 0 {
                        return Err(AsmError::OffsetOutOfRange {
                            label,
                            offset: off,
                            kind: "jal",
                        });
                    }
                    let old = read32(&self.bytes, at);
                    let rd = Reg::from_num((old >> 7) & 31);
                    let w = encode::jal(rd, off as i32);
                    patch32(&mut self.bytes, at, w);
                }
                Fixup::PcRelPair { at, label } => {
                    let target = self.lookup(&label)?;
                    let pc = self.base + at as u64;
                    let off = target.wrapping_sub(pc) as i64;
                    if off < i32::MIN as i64 || off > i32::MAX as i64 {
                        return Err(AsmError::OffsetOutOfRange {
                            label,
                            offset: off,
                            kind: "auipc pair",
                        });
                    }
                    let lo = ((off << 52) >> 52) as i32;
                    let hi = (off as i32).wrapping_sub(lo);
                    let old_auipc = read32(&self.bytes, at);
                    let rd = Reg::from_num((old_auipc >> 7) & 31);
                    patch32(&mut self.bytes, at, encode::auipc(rd, hi));
                    patch32(&mut self.bytes, at + 4, encode::addi(rd, rd, lo));
                }
                Fixup::AbsDword { at, label } => {
                    let target = self.lookup(&label)?;
                    self.bytes[at..at + 8].copy_from_slice(&target.to_le_bytes());
                }
            }
        }
        Ok(Program {
            base: self.base,
            bytes: self.bytes,
            symbols: self.symbols,
        })
    }

    fn lookup(&self, label: &str) -> Result<u64, AsmError> {
        self.symbols
            .get(label)
            .copied()
            .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))
    }
}

macro_rules! forward_r {
    ($($(#[$doc:meta])* $name:ident;)*) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
                    self.word(encode::$name(rd, rs1, rs2))
                }
            )*
        }
    };
}

macro_rules! forward_i {
    ($($(#[$doc:meta])* $name:ident;)*) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
                    debug_assert!((-2048..=2047).contains(&imm), "imm out of range");
                    self.word(encode::$name(rd, rs1, imm))
                }
            )*
        }
    };
}

macro_rules! forward_store {
    ($($(#[$doc:meta])* $name:ident;)*) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rs2: Reg, rs1: Reg, imm: i32) -> &mut Self {
                    debug_assert!((-2048..=2047).contains(&imm), "imm out of range");
                    self.word(encode::$name(rs2, rs1, imm))
                }
            )*
        }
    };
}

macro_rules! forward_shift {
    ($($(#[$doc:meta])* $name:ident;)*) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, shamt: u32) -> &mut Self {
                    self.word(encode::$name(rd, rs1, shamt))
                }
            )*
        }
    };
}

forward_r! {
    /// `add rd, rs1, rs2`.
    add;
    /// `sub rd, rs1, rs2`.
    sub;
    /// `sll rd, rs1, rs2`.
    sll;
    /// `slt rd, rs1, rs2`.
    slt;
    /// `sltu rd, rs1, rs2`.
    sltu;
    /// `xor rd, rs1, rs2`.
    xor;
    /// `srl rd, rs1, rs2`.
    srl;
    /// `sra rd, rs1, rs2`.
    sra;
    /// `or rd, rs1, rs2`.
    or;
    /// `and rd, rs1, rs2`.
    and;
    /// `addw rd, rs1, rs2`.
    addw;
    /// `subw rd, rs1, rs2`.
    subw;
    /// `sllw rd, rs1, rs2`.
    sllw;
    /// `srlw rd, rs1, rs2`.
    srlw;
    /// `sraw rd, rs1, rs2`.
    sraw;
    /// `mul rd, rs1, rs2`.
    mul;
    /// `mulh rd, rs1, rs2`.
    mulh;
    /// `mulhu rd, rs1, rs2`.
    mulhu;
    /// `mulhsu rd, rs1, rs2`.
    mulhsu;
    /// `div rd, rs1, rs2`.
    div;
    /// `divu rd, rs1, rs2`.
    divu;
    /// `rem rd, rs1, rs2`.
    rem;
    /// `remu rd, rs1, rs2`.
    remu;
    /// `mulw rd, rs1, rs2`.
    mulw;
    /// `divw rd, rs1, rs2`.
    divw;
    /// `divuw rd, rs1, rs2`.
    divuw;
    /// `remw rd, rs1, rs2`.
    remw;
    /// `remuw rd, rs1, rs2`.
    remuw;
}

forward_i! {
    /// `addi rd, rs1, imm`.
    addi;
    /// `addiw rd, rs1, imm`.
    addiw;
    /// `slti rd, rs1, imm`.
    slti;
    /// `sltiu rd, rs1, imm`.
    sltiu;
    /// `xori rd, rs1, imm`.
    xori;
    /// `ori rd, rs1, imm`.
    ori;
    /// `andi rd, rs1, imm`.
    andi;
    /// `lb rd, imm(rs1)`.
    lb;
    /// `lh rd, imm(rs1)`.
    lh;
    /// `lw rd, imm(rs1)`.
    lw;
    /// `ld rd, imm(rs1)`.
    ld;
    /// `lbu rd, imm(rs1)`.
    lbu;
    /// `lhu rd, imm(rs1)`.
    lhu;
    /// `lwu rd, imm(rs1)`.
    lwu;
}

forward_store! {
    /// `sb rs2, imm(rs1)`.
    sb;
    /// `sh rs2, imm(rs1)`.
    sh;
    /// `sw rs2, imm(rs1)`.
    sw;
    /// `sd rs2, imm(rs1)`.
    sd;
}

forward_shift! {
    /// `slli rd, rs1, shamt`.
    slli;
    /// `srli rd, rs1, shamt`.
    srli;
    /// `srai rd, rs1, shamt`.
    srai;
    /// `slliw rd, rs1, shamt`.
    slliw;
    /// `srliw rd, rs1, shamt`.
    srliw;
    /// `sraiw rd, rs1, shamt`.
    sraiw;
}

impl Asm {
    /// `lui rd, imm` (imm supplies bits 31:12).
    pub fn lui(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.word(encode::lui(rd, imm))
    }

    /// `auipc rd, imm`.
    pub fn auipc(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.word(encode::auipc(rd, imm))
    }

    /// `ecall`.
    pub fn ecall(&mut self) -> &mut Self {
        self.word(encode::ecall())
    }

    /// `ebreak`.
    pub fn ebreak(&mut self) -> &mut Self {
        self.word(encode::ebreak())
    }

    /// `mret`.
    pub fn mret(&mut self) -> &mut Self {
        self.word(encode::mret())
    }

    /// `sret`.
    pub fn sret(&mut self) -> &mut Self {
        self.word(encode::sret())
    }

    /// `wfi`.
    pub fn wfi(&mut self) -> &mut Self {
        self.word(encode::wfi())
    }

    /// `fence`.
    pub fn fence(&mut self) -> &mut Self {
        self.word(encode::fence())
    }

    /// `fence.i`.
    pub fn fence_i(&mut self) -> &mut Self {
        self.word(encode::fence_i())
    }

    /// `sfence.vma rs1, rs2`.
    pub fn sfence_vma(&mut self, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::sfence_vma(rs1, rs2))
    }

    /// `csrrw rd, csr, rs1`.
    pub fn csrrw(&mut self, rd: Reg, csr: u32, rs1: Reg) -> &mut Self {
        self.word(encode::csrrw(rd, csr, rs1))
    }

    /// `csrrs rd, csr, rs1`.
    pub fn csrrs(&mut self, rd: Reg, csr: u32, rs1: Reg) -> &mut Self {
        self.word(encode::csrrs(rd, csr, rs1))
    }

    /// `csrrc rd, csr, rs1`.
    pub fn csrrc(&mut self, rd: Reg, csr: u32, rs1: Reg) -> &mut Self {
        self.word(encode::csrrc(rd, csr, rs1))
    }

    /// `csrrwi rd, csr, uimm`.
    pub fn csrrwi(&mut self, rd: Reg, csr: u32, uimm: u32) -> &mut Self {
        self.word(encode::csrrwi(rd, csr, uimm))
    }

    /// `csrrsi rd, csr, uimm`.
    pub fn csrrsi(&mut self, rd: Reg, csr: u32, uimm: u32) -> &mut Self {
        self.word(encode::csrrsi(rd, csr, uimm))
    }

    /// `csrrci rd, csr, uimm`.
    pub fn csrrci(&mut self, rd: Reg, csr: u32, uimm: u32) -> &mut Self {
        self.word(encode::csrrci(rd, csr, uimm))
    }

    /// `csrr rd, csr` (pseudo for `csrrs rd, csr, x0`).
    pub fn csrr(&mut self, rd: Reg, csr: u32) -> &mut Self {
        self.csrrs(rd, csr, Reg::Zero)
    }

    /// `csrw csr, rs` (pseudo for `csrrw x0, csr, rs`).
    pub fn csrw(&mut self, csr: u32, rs: Reg) -> &mut Self {
        self.csrrw(Reg::Zero, csr, rs)
    }

    /// `rdcycle rd` (pseudo for `csrrs rd, cycle, x0`).
    pub fn rdcycle(&mut self, rd: Reg) -> &mut Self {
        self.csrr(rd, 0xc00)
    }

    /// `lr.d rd, (rs1)`.
    pub fn lr_d(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.word(encode::lr_d(rd, rs1))
    }

    /// `sc.d rd, rs2, (rs1)`.
    pub fn sc_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::sc_d(rd, rs1, rs2))
    }

    /// `amoswap.d rd, rs2, (rs1)`.
    pub fn amoswap_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amoswap_d(rd, rs1, rs2))
    }

    /// `amoadd.d rd, rs2, (rs1)`.
    pub fn amoadd_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amoadd_d(rd, rs1, rs2))
    }

    /// `amoadd.w rd, rs2, (rs1)`.
    pub fn amoadd_w(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amoadd_w(rd, rs1, rs2))
    }

    /// `amomin.w rd, rs2, (rs1)`.
    pub fn amomin_w(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomin_w(rd, rs1, rs2))
    }

    /// `amomax.w rd, rs2, (rs1)`.
    pub fn amomax_w(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomax_w(rd, rs1, rs2))
    }

    /// `amominu.w rd, rs2, (rs1)`.
    pub fn amominu_w(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amominu_w(rd, rs1, rs2))
    }

    /// `amomaxu.w rd, rs2, (rs1)`.
    pub fn amomaxu_w(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomaxu_w(rd, rs1, rs2))
    }

    /// `amomin.d rd, rs2, (rs1)`.
    pub fn amomin_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomin_d(rd, rs1, rs2))
    }

    /// `amomax.d rd, rs2, (rs1)`.
    pub fn amomax_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomax_d(rd, rs1, rs2))
    }

    /// `amominu.d rd, rs2, (rs1)`.
    pub fn amominu_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amominu_d(rd, rs1, rs2))
    }

    /// `amomaxu.d rd, rs2, (rs1)`.
    pub fn amomaxu_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.word(encode::amomaxu_d(rd, rs1, rs2))
    }

    /// `hccall rs1` — ISA-Grid gate call; gate id in `rs1`.
    pub fn hccall(&mut self, rs1: Reg) -> &mut Self {
        self.word(encode::hccall(rs1))
    }

    /// `hccalls rs1` — ISA-Grid extended gate call.
    pub fn hccalls(&mut self, rs1: Reg) -> &mut Self {
        self.word(encode::hccalls(rs1))
    }

    /// `hcrets` — ISA-Grid extended gate return.
    pub fn hcrets(&mut self) -> &mut Self {
        self.word(encode::hcrets())
    }

    /// `pfch rs1` — ISA-Grid privilege-cache prefetch.
    pub fn pfch(&mut self, rs1: Reg) -> &mut Self {
        self.word(encode::pfch(rs1))
    }

    /// `pflh rs1` — ISA-Grid privilege-cache flush.
    pub fn pflh(&mut self, rs1: Reg) -> &mut Self {
        self.word(encode::pflh(rs1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg::*;

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new(0x1000);
        a.label("start");
        a.beqz(A0, "end"); // forward
        a.addi(A0, A0, -1);
        a.j("start"); // backward
        a.label("end");
        a.ret();
        let p = a.assemble().unwrap();
        assert_eq!(p.symbol("start"), 0x1000);
        assert_eq!(p.symbol("end"), 0x100c);
        // beqz at 0x1000 jumps +12.
        let w = u32::from_le_bytes(p.bytes[0..4].try_into().unwrap());
        assert_eq!(w, crate::encode::beq(A0, Zero, 12));
        // j at 0x1008 jumps -8.
        let w = u32::from_le_bytes(p.bytes[8..12].try_into().unwrap());
        assert_eq!(w, crate::encode::jal(Zero, -8));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new(0);
        a.j("nowhere");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new(0);
        a.label("x");
        a.label("x");
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut a = Asm::new(0);
        a.label("start");
        for _ in 0..2000 {
            a.nop();
        }
        a.beqz(A0, "start");
        let err = a.assemble().unwrap_err();
        assert!(matches!(
            err,
            AsmError::OffsetOutOfRange { kind: "branch", .. }
        ));
    }

    #[test]
    fn la_resolves_forward_data() {
        let mut a = Asm::new(0x8000_0000);
        a.la(A0, "blob");
        a.ret();
        a.align(8);
        a.label("blob");
        a.d64(0xdead_beef);
        let p = a.assemble().unwrap();
        let blob = p.symbol("blob");
        // auipc+addi must compute `blob` when executed at 0x8000_0000.
        let auipc = u32::from_le_bytes(p.bytes[0..4].try_into().unwrap());
        let addi = u32::from_le_bytes(p.bytes[4..8].try_into().unwrap());
        let hi = (auipc & 0xffff_f000) as i32 as i64;
        let lo = ((addi as i32) >> 20) as i64;
        assert_eq!(0x8000_0000u64.wrapping_add((hi + lo) as u64), blob);
    }

    #[test]
    fn d64_label_patches_dispatch_tables() {
        let mut a = Asm::new(0x2000);
        a.label("table");
        a.d64_label("fn0");
        a.d64_label("fn1");
        a.label("fn0");
        a.ret();
        a.label("fn1");
        a.ret();
        let p = a.assemble().unwrap();
        let t = (p.symbol("table") - p.base) as usize;
        let e0 = u64::from_le_bytes(p.bytes[t..t + 8].try_into().unwrap());
        let e1 = u64::from_le_bytes(p.bytes[t + 8..t + 16].try_into().unwrap());
        assert_eq!(e0, p.symbol("fn0"));
        assert_eq!(e1, p.symbol("fn1"));
    }

    #[test]
    fn align_pads_to_boundary() {
        let mut a = Asm::new(0x100);
        a.d8(1);
        a.align(8);
        assert_eq!(a.here() % 8, 0);
        assert_eq!(a.here(), 0x108);
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new(0);
        let l1 = a.fresh_label("loop");
        let l2 = a.fresh_label("loop");
        assert_ne!(l1, l2);
    }
}
