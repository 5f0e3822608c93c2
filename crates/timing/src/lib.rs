//! # isa-timing — cycle-cost models for the ISA-Grid reproduction
//!
//! Converts the retired-instruction event stream of `isa-sim` into
//! cycles, standing in for the paper's two evaluation platforms:
//!
//! * [`TimingConfig::rocket`] — the in-order RISC-V Rocket core on an
//!   FPGA (100 MHz, blocking caches, DDR3 latencies);
//! * [`TimingConfig::o3`] — the 8-wide out-of-order x86 core simulated
//!   with Gem5 (Table 3: 192-entry ROB, 3-level cache hierarchy, 30 ns
//!   DRAM).
//!
//! The models are *event-driven approximations*, not microarchitectural
//! simulators: each retired instruction is charged a base issue slot plus
//! stalls (cache misses, TLB walks, branch mispredictions, serialization,
//! PCU privilege-cache misses, gate switches). Constants are calibrated
//! against the latency anchors the paper publishes in Table 4, so the
//! domain-switch and privilege-check costs carry the right magnitudes;
//! application-level overheads then emerge from the instruction streams.
//!
//! ## Example
//!
//! ```
//! use isa_asm::{Asm, Reg::*};
//! use isa_sim::{Machine, NullExtension, mmio};
//! use isa_timing::{PipelineModel, TimingConfig};
//!
//! let mut a = Asm::new(0x8000_0000);
//! a.li(T0, 1000);
//! a.label("loop");
//! a.addi(T0, T0, -1);
//! a.bnez(T0, "loop");
//! a.li(T6, mmio::HALT);
//! a.sd(Zero, T6, 0);
//! let prog = a.assemble()?;
//!
//! let mut m = Machine::new(NullExtension)
//!     .with_timing(Box::new(PipelineModel::new(TimingConfig::rocket())));
//! m.load_program(&prog);
//! m.run(100_000);
//! let cycles = m.cpu.csrs.read_raw(isa_sim::csr::addr::CYCLE);
//! assert!(cycles > 2000); // 2 insts/iteration on an in-order core
//! # Ok::<(), isa_asm::AsmError>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod model;

pub use cache::{BranchPredictor, CacheLevelStats, CacheModel, CacheParams, TlbModel};
pub use model::{PipelineModel, TimingConfig};

/// Convenience: a machine timing sink for the given platform.
pub fn sink(cfg: TimingConfig) -> Box<PipelineModel> {
    Box::new(PipelineModel::new(cfg))
}
