//! # isa-asm — RV64 assembler for the ISA-Grid reproduction
//!
//! A small two-pass assembler used to generate the guest kernel and the
//! workload programs executed by the `isa-sim` emulator. It covers
//! RV64IMA + Zicsr, the privileged instructions, and the five custom
//! instructions introduced by ISA-Grid (`hccall`, `hccalls`, `hcrets`,
//! `pfch`, `pflh` — see Table 2 of the paper).
//!
//! ## Example
//!
//! ```
//! use isa_asm::{Asm, Reg::*};
//!
//! // A function that sums the integers 1..=a0.
//! let mut a = Asm::new(0x8000_0000);
//! a.label("sum");
//! a.mv(T0, Zero);
//! a.label("loop");
//! a.beqz(A0, "done");
//! a.add(T0, T0, A0);
//! a.addi(A0, A0, -1);
//! a.j("loop");
//! a.label("done");
//! a.mv(A0, T0);
//! a.ret();
//!
//! let prog = a.assemble()?;
//! assert_eq!(prog.base, 0x8000_0000);
//! # Ok::<(), isa_asm::AsmError>(())
//! ```

#![warn(missing_docs)]

mod builder;
pub mod encode;
mod reg;

pub use builder::{Asm, AsmError, Program};
pub use reg::Reg;
