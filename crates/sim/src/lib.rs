//! # isa-sim — the CPU substrate for the ISA-Grid reproduction
//!
//! A from-scratch RV64IMA + Zicsr functional emulator with M/S/U privilege
//! levels, Sv39 paging (with protection keys), trap delegation, and a
//! pluggable [`Extension`] seam through which the ISA-Grid Privilege Check
//! Unit interposes on every instruction — the software stand-in for the
//! paper's modified Rocket core (FPGA) and Gem5 x86 core.
//!
//! The emulator is *functional-first*: each [`Machine::step`] executes one
//! instruction architecturally and emits a [`Retired`] event describing
//! what happened (fetch address, memory access, branch outcome, page
//! walks, PCU cache misses). A [`TimingSink`] — the `isa-timing` crate
//! provides in-order "rocket" and out-of-order "o3" models — converts
//! those events into cycles, which feed the guest-visible `cycle` CSR so
//! guest benchmarks measure modeled time with `rdcycle`.
//!
//! ## Example
//!
//! ```
//! use isa_asm::{Asm, Reg::*};
//! use isa_sim::{Machine, NullExtension, Exit, mmio};
//!
//! // Compute 6*7 and halt with the result as exit code.
//! let mut a = Asm::new(0x8000_0000);
//! a.li(A0, 6);
//! a.li(A1, 7);
//! a.mul(A0, A0, A1);
//! a.li(T0, mmio::HALT);
//! a.sd(A0, T0, 0);
//! let prog = a.assemble()?;
//!
//! let mut m = Machine::new(NullExtension);
//! m.load_program(&prog);
//! assert_eq!(m.run(100), Exit::Halted(42));
//! # Ok::<(), isa_asm::AsmError>(())
//! ```

#![warn(missing_docs)]
// Guest-reachable code must trap architecturally, never panic the host:
// `.unwrap()` is banned outside unit tests (host-side setup code uses
// `.expect()` with a message, or explicit `#[allow]`s where justified).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bbcache;
mod cpu;
pub mod csr;
pub mod decode;
pub mod disas;
pub mod jit;
mod mem;
pub mod mmu;
mod trap;

pub use cpu::{
    block_events, CpuState, Exit, ExtEvents, Extension, Flow, Machine, MemAccess, NullExtension,
    NullTiming, Retired, RunError, TimingSink,
};
pub use decode::{decode, Decoded, Kind};
pub use disas::disassemble;
/// The observability layer (re-exported so machine users can build an
/// [`isa_obs::Obs`] without naming the crate separately).
pub use isa_obs as obs;
pub use jit::{Jit, JitGuard, JitStats};
pub use mem::{
    mmio, reservation_line, Bus, BusState, DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE, RESERVATION_LINE,
    SNAPSHOT_PAGE,
};
pub use trap::{Exception, Interrupt, Priv};
