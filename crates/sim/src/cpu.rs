//! The CPU core, the extension seam, and the machine wrapper.

use crate::csr::{addr, mstatus, CsrFile};
use crate::decode::{decode, Decoded, Kind};
use crate::mem::Bus;
use crate::mmu::{self, Access, WalkCtx};
use crate::trap::{Exception, Interrupt, Priv};
use std::fmt;

/// Architectural CPU state (registers, PC, privilege level, CSR file).
#[derive(Debug, Clone)]
pub struct CpuState {
    /// General-purpose registers; `regs[0]` is kept at zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Current privilege level.
    pub priv_level: Priv,
    /// CSR file.
    pub csrs: CsrFile,
    /// LR/SC reservation, if any: the *cache-line-aligned* physical
    /// address of the reserved line (see
    /// [`crate::mem::RESERVATION_LINE`]). Cleared on traps, on SC
    /// retirement, and — through the shared bus — by any intervening
    /// remote store or AMO to the line.
    pub reservation: Option<u64>,
}

impl CpuState {
    /// Reset state: M-mode, PC at `entry`, registers zeroed.
    pub fn new(entry: u64) -> CpuState {
        CpuState {
            regs: [0; 32],
            pc: entry,
            priv_level: Priv::M,
            csrs: CsrFile::new(),
            reservation: None,
        }
    }

    /// Read register `r` (x0 reads as zero).
    #[inline]
    pub fn reg(&self, r: u8) -> u64 {
        self.regs[r as usize & 31]
    }

    /// Write register `r` (writes to x0 are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize & 31] = v;
        }
    }

    fn walk_ctx(&self, priv_level: Priv) -> WalkCtx {
        WalkCtx {
            priv_level,
            satp: self.csrs.read_raw(addr::SATP),
            mstatus: self.csrs.read_raw(addr::MSTATUS),
            pkr: self.csrs.read_raw(addr::PKR),
        }
    }
}

/// Events an extension (the PCU) reports for one retired instruction, so
/// the timing models can charge check/switch costs (§4.3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExtEvents {
    /// Instruction-bitmap HPT cache misses (memory reads performed).
    pub hpt_inst_miss: u8,
    /// Register-bitmap HPT cache misses.
    pub hpt_reg_miss: u8,
    /// Bit-mask-array HPT cache misses.
    pub hpt_mask_miss: u8,
    /// SGT cache misses.
    pub sgt_miss: u8,
    /// A gate instruction switched domains this step.
    pub gate_switch: bool,
    /// Trusted-stack pushes/pops performed (memory accesses).
    pub tstack_ops: u8,
    /// Memory reads issued by a `pfch` prefetch.
    pub prefetch_reads: u8,
    /// Privilege-cache entries discarded by a cross-hart shootdown
    /// taken before this instruction committed (SMP coherence).
    pub shootdown_flushed: u16,
    /// Privilege checks the extension performed for this step
    /// (instruction + CSR + physical-access checks; saturating). Purely
    /// observational — the timing models never read it; the profiler
    /// uses it to attribute step cycles to the check histogram.
    pub checks: u8,
    /// Fault-injection events applied or integrity detections made
    /// before this instruction committed (chaos harness; saturating).
    pub fault_events: u16,
    /// A privilege check denied this step (a Grid fault was raised and
    /// audited). Lets the request tracer attribute the denial without
    /// re-deriving it from trap causes.
    pub denied: bool,
    /// Architectural cause of the denial (valid when `denied`).
    pub deny_cause: u64,
    /// Audit detail of the denial (valid when `denied`).
    pub deny_detail: u64,
    /// Coherence epoch acknowledged by the shootdown flush (valid when
    /// `shootdown_flushed > 0`).
    pub shootdown_epoch: u64,
}

/// Control-flow outcome of executing a custom instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to `pc + 4`.
    Next,
    /// Redirect to an absolute address (gates).
    Jump(u64),
}

/// The hardware-extension seam ("the PCU is connected to the CPU
/// pipeline", §3.3). The ISA-Grid PCU implements this trait in the
/// `isa-grid` crate; the emulator itself knows nothing about domains.
pub trait Extension {
    /// Check execution privilege of a decoded instruction about to
    /// commit. Called for every instruction.
    ///
    /// # Errors
    ///
    /// Return an exception (typically [`Exception::GridInstFault`]) to
    /// suppress the instruction and trap instead.
    fn check_inst(&mut self, cpu: &CpuState, bus: &mut Bus, d: &Decoded) -> Result<(), Exception> {
        let _ = (cpu, bus, d);
        Ok(())
    }

    /// Check an *explicit* CSR access (Zicsr instructions only; CSRs
    /// updated as side effects are exempt per §4.1).
    ///
    /// # Errors
    ///
    /// Return [`Exception::GridCsrFault`] to deny the access.
    #[allow(clippy::too_many_arguments)]
    fn check_csr(
        &mut self,
        cpu: &CpuState,
        bus: &mut Bus,
        csr: u16,
        read: bool,
        write: bool,
        old: u64,
        new: u64,
    ) -> Result<(), Exception> {
        let _ = (cpu, bus, csr, read, write, old, new);
        Ok(())
    }

    /// Check a data-memory physical access (trusted-memory fencing).
    ///
    /// # Errors
    ///
    /// Return [`Exception::GridTmemFault`] to deny the access.
    fn check_phys(
        &mut self,
        cpu: &CpuState,
        paddr: u64,
        len: u8,
        write: bool,
    ) -> Result<(), Exception> {
        let _ = (cpu, paddr, len, write);
        Ok(())
    }

    /// Whether the extension owns CSR address `csr` (reads/writes are
    /// routed to [`Extension::read_csr`]/[`Extension::write_csr`]).
    fn csr_owned(&self, csr: u16) -> bool {
        let _ = csr;
        false
    }

    /// Read an extension-owned CSR.
    ///
    /// # Errors
    ///
    /// Implementations may reject the access.
    fn read_csr(&mut self, cpu: &CpuState, csr: u16) -> Result<u64, Exception> {
        let _ = cpu;
        Err(Exception::IllegalInst(csr as u64))
    }

    /// Write an extension-owned CSR.
    ///
    /// # Errors
    ///
    /// Implementations may reject the access.
    fn write_csr(
        &mut self,
        cpu: &mut CpuState,
        bus: &mut Bus,
        csr: u16,
        val: u64,
    ) -> Result<(), Exception> {
        let _ = (cpu, bus, val);
        Err(Exception::IllegalInst(csr as u64))
    }

    /// Execute a custom-0 instruction (ISA-Grid's `hccall`/`hccalls`/
    /// `hcrets`/`pfch`/`pflh`).
    ///
    /// # Errors
    ///
    /// The default raises illegal-instruction: without the extension the
    /// custom opcode space is unimplemented.
    fn exec_custom(
        &mut self,
        cpu: &mut CpuState,
        bus: &mut Bus,
        d: &Decoded,
    ) -> Result<Flow, Exception> {
        let _ = (cpu, bus);
        Err(Exception::IllegalInst(d.raw as u64))
    }

    /// Drain the events accumulated during the current step.
    fn drain_events(&mut self) -> ExtEvents {
        ExtEvents::default()
    }

    /// The numeric id of the protection domain the core currently runs
    /// in, for trace-event attribution. Extensions without domains
    /// report 0.
    fn current_domain_id(&self) -> u16 {
        0
    }

    /// A monotone counter that moves whenever a cross-hart coherence
    /// event (e.g. a privilege-cache shootdown) lands on this
    /// extension. The superblock JIT ends a running chain when it moves,
    /// so the next [`Extension::check_inst`] honours the event before
    /// anything else commits. Nothing cached is flushed: decoded
    /// instructions and translations never depend on privilege state,
    /// and a block's [`crate::JitGuard`] is compared on every entry.
    fn coherence_epoch(&self) -> u64 {
        0
    }

    /// The privilege regime the superblock JIT may compile and execute
    /// under, or `None` when every instruction needs the full
    /// [`Extension::check_inst`] path (pending shootdown, armed fault
    /// plan, poisoned state, an active check regime whose fast path is
    /// not a pure read). The default — no extension checks at all —
    /// always vends the inactive guard.
    fn jit_guard(&self, cpu: &CpuState) -> Option<crate::jit::JitGuard> {
        let _ = cpu;
        Some(crate::jit::JitGuard::INACTIVE)
    }

    /// Account one instruction committed inside a superblock: replays
    /// exactly the counter movement [`Extension::check_inst`] performs
    /// on the path the block's guard stands in for (`checked` is the
    /// guard's `active` flag). Must not touch drainable events.
    fn jit_commit(&mut self, checked: bool) {
        let _ = checked;
    }

    /// Emit trace events through `obs`, a clone of the machine's handle
    /// (the off handle unless the event ring is on), so they
    /// land in the machine's stream in commit order. Extensions that
    /// emit nothing keep the default no-op.
    fn set_obs(&mut self, obs: isa_obs::Obs) {
        let _ = obs;
    }
}

/// The no-op extension: a plain RV64 core.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullExtension;

impl Extension for NullExtension {}

/// A data memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address after translation.
    pub paddr: u64,
    /// Access size in bytes.
    pub len: u8,
    /// True for stores and AMOs.
    pub write: bool,
}

/// Everything the timing models need to know about one step.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Virtual PC of the instruction.
    pub pc: u64,
    /// Physical address the fetch hit.
    pub fetch_paddr: u64,
    /// PC after this step (target for branches/gates/traps).
    pub next_pc: u64,
    /// Instruction class; `None` when the fetch or decode itself trapped.
    pub kind: Option<Kind>,
    /// Raw encoding (0 if the fetch faulted).
    pub raw: u32,
    /// Privilege level the instruction executed at.
    pub priv_level: Priv,
    /// Data access, if any.
    pub mem: Option<MemAccess>,
    /// Whether a conditional branch was taken.
    pub branch_taken: bool,
    /// Trap cause if this step ended in a trap (exception or ecall).
    pub trap_cause: Option<u64>,
    /// Page-table-walk memory reads performed (fetch + data).
    pub walk_reads: u8,
    /// PCU events.
    pub ext: ExtEvents,
}

/// The events of a superblock in program order, rebuilt from the
/// arguments of [`TimingSink::retire_block`]: `dynamic`'s record where it
/// has one for an index, the template otherwise, up to and including
/// the last dynamic index. Malformed input never panics: indices past
/// `templates` or out of order yield their dynamic records as they come.
pub fn block_events<'a>(
    templates: &'a [Retired],
    mut dynamic: &'a [(u8, Retired)],
) -> impl Iterator<Item = &'a Retired> {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let ((at, ev), rest) = dynamic.split_first()?;
        let here = i;
        i += 1;
        match templates.get(here) {
            Some(t) if here < *at as usize => Some(t),
            _ => {
                dynamic = rest;
                Some(ev)
            }
        }
    })
}

/// Consumes retired-instruction events and charges cycles.
///
/// Implemented by the `isa-timing` models. The return value is added to
/// the guest-visible cycle counter, so guest `rdcycle` measurements see
/// modeled time.
pub trait TimingSink {
    /// Account one retired instruction (or trapped attempt); returns the
    /// number of cycles it consumed.
    fn retire(&mut self, ev: &Retired) -> u64;

    /// Account a superblock's retired instructions, in program order;
    /// returns the total cycles.
    ///
    /// A block passes its compile-time records once and, beside them,
    /// only the executed records that can differ:
    ///
    /// * `templates` holds one record per compiled op: pc, fetch
    ///   physical address, kind, raw encoding, privilege, fill-time
    ///   fetch `walk_reads`, and `next_pc = pc + 4`, with no data
    ///   access, branch outcome, trap or extension events.
    /// * `dynamic` holds `(index, record)` pairs in program order for
    ///   every executed op whose record can differ from its template:
    ///   each load/store (data access, data-walk reads, drained
    ///   extension events) and the last executed op (branch outcome,
    ///   `next_pc`, trap or deopt). The last pair's index ends the
    ///   executed prefix; an empty `dynamic` retires nothing.
    ///
    /// Event `i` is `dynamic`'s record for `i` if it has one, else
    /// `templates[i]` ([`block_events`]). The default rebuilds each
    /// event and calls [`TimingSink::retire`], so any sink is
    /// cycle-identical to stepped execution by construction. A model
    /// may override it to batch work it can prove repeats, provided
    /// every state change lands in the same order.
    fn retire_block(&mut self, templates: &[Retired], dynamic: &[(u8, Retired)]) -> u64 {
        block_events(templates, dynamic)
            .map(|ev| self.retire(ev))
            .sum()
    }

    /// Account an asynchronous interrupt redirect.
    fn interrupt(&mut self) -> u64 {
        10
    }

    /// Downcast support so harnesses can read model-specific statistics
    /// back out of a boxed sink.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Serialize the sink's mutable state as plain words for snapshots.
    /// Stateless sinks (the default) have nothing to save.
    fn save_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state previously produced by [`TimingSink::save_state`].
    fn load_state(&mut self, words: &[u64]) {
        let _ = words;
    }
}

/// Functional-only timing: every instruction takes one cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTiming;

impl TimingSink for NullTiming {
    fn retire(&mut self, _ev: &Retired) -> u64 {
        1
    }

    /// One cycle per event of the executed prefix, which the last
    /// dynamic index ends.
    fn retire_block(&mut self, _templates: &[Retired], dynamic: &[(u8, Retired)]) -> u64 {
        dynamic.last().map_or(0, |&(i, _)| u64::from(i) + 1)
    }
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The guest wrote the HALT MMIO register; payload is the exit code.
    Halted(u64),
    /// The step budget was exhausted.
    StepLimit,
}

/// Structured failure of a watchdog-supervised run
/// ([`Machine::run_to_halt`] and the SMP equivalent): the host harness
/// must never panic on guest behavior, so a guest that fails to halt is
/// reported as data, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The step-budget watchdog expired before the guest halted.
    Watchdog {
        /// The budget that was exhausted.
        max_steps: u64,
        /// Steps actually executed (equals `max_steps` for single-hart
        /// runs; the stuck hart's count under SMP).
        steps: u64,
        /// Program counter at expiry.
        pc: u64,
        /// Hart that exhausted its budget.
        hart: u64,
        /// ISA domain the hart was in at expiry.
        domain: u16,
    },
    /// The step-budget watchdog expired *after* the hart took a
    /// `GridIntegrityFault` (cause 28): the fail-closed integrity layer
    /// denied and the guest never recovered to a clean halt.
    /// Distinguished from a plain [`RunError::Watchdog`] so session
    /// callers can react per failure class (quarantine vs. retry)
    /// instead of re-deriving the cause from the audit log.
    IntegrityFault {
        /// The budget that was exhausted.
        max_steps: u64,
        /// Steps actually executed by the faulted hart.
        steps: u64,
        /// Program counter at expiry.
        pc: u64,
        /// Hart that exhausted its budget.
        hart: u64,
        /// ISA domain the hart was in at expiry.
        domain: u16,
        /// The trap cause that ended forward progress (28).
        cause: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Watchdog {
                max_steps,
                steps,
                pc,
                hart,
                domain,
            } => write!(
                f,
                "watchdog: hart {hart} did not halt within {max_steps} steps \
                 (ran {steps}, pc={pc:#x}, domain={domain})"
            ),
            RunError::IntegrityFault {
                max_steps,
                steps,
                pc,
                hart,
                domain,
                cause,
            } => write!(
                f,
                "integrity fault: hart {hart} stalled on cause {cause} and did not \
                 halt within {max_steps} steps (ran {steps}, pc={pc:#x}, domain={domain})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// A complete simulated machine: CPU core, bus, extension, timing model.
pub struct Machine<E: Extension> {
    /// Architectural CPU state.
    pub cpu: CpuState,
    /// Physical memory and devices.
    pub bus: Bus,
    /// The hardware extension (PCU) plugged into the pipeline.
    pub ext: E,
    /// The cycle-cost model.
    pub timing: Box<dyn TimingSink>,
    /// Total steps executed.
    pub steps: u64,
    /// When set, raise the supervisor timer interrupt (STIP) every `n`
    /// steps — a minimal CLINT-style timer device.
    pub timer_every: Option<u64>,
    /// Steps since the timer last fired (divider state for
    /// `timer_every`, so the hot loop avoids a per-step modulo).
    timer_phase: u64,
    /// Count of traps taken, by cause (index = cause for exceptions).
    pub trap_counts: std::collections::BTreeMap<u64, u64>,
    /// Cause of the most recent exception trap (interrupts excluded) —
    /// the classification seam [`Machine::run_to_halt`] uses to tell an
    /// integrity-fault stall from a plain watchdog expiry. Host-side
    /// diagnosis state, deliberately *not* serialized into snapshots:
    /// a restored machine starts unclassified.
    last_trap_cause: Option<u64>,
    /// The observability handle (off by default). Install it with
    /// [`Machine::set_obs`], which shares it with the extension so PCU
    /// events and retire events land in one stream in commit order.
    /// Observe-only: it never changes modeled cycles.
    pub obs: isa_obs::Obs,
    /// Predecoded basic-block cache; `None` runs the uncached
    /// translate-and-decode path every step (the `--no-bbcache`
    /// escape hatch).
    pub bbcache: Option<Box<crate::bbcache::BbCache>>,
    /// The superblock JIT's switch and tallies; its blocks live in the
    /// bbcache's page entries. `None` leaves [`Machine::run_steps`] on
    /// the per-instruction dispatch loop (the `--no-jit` escape hatch);
    /// without the bbcache it is inert.
    pub jit: Option<Box<crate::jit::Jit>>,
}

impl<E: Extension> Machine<E> {
    /// Build a machine with default RAM, PC at the RAM base.
    pub fn new(ext: E) -> Machine<E> {
        Machine::on_bus(ext, Bus::default())
    }

    /// Build a machine on an existing — possibly shared — bus handle.
    ///
    /// The machine acts as the handle's hart: `mhartid` reads back the
    /// hart id, MMIO halt is per-hart, and LR/SC reservations belong to
    /// it. This is the SMP entry point: mint one handle per hart with
    /// [`Bus::for_hart`] and build one machine on each.
    pub fn on_bus(ext: E, bus: Bus) -> Machine<E> {
        let entry = bus.ram_base();
        let mut cpu = CpuState::new(entry);
        cpu.csrs.set_hartid(bus.hart() as u64);
        Machine {
            cpu,
            bus,
            ext,
            timing: Box::new(NullTiming),
            steps: 0,
            timer_every: None,
            timer_phase: 0,
            trap_counts: std::collections::BTreeMap::new(),
            last_trap_cause: None,
            obs: isa_obs::Obs::off(),
            bbcache: Some(Box::new(crate::bbcache::BbCache::new())),
            jit: Some(Box::default()),
        }
    }

    /// Enable or disable the basic-block cache (enabled by default).
    /// Disabling drops all cached state — including the superblocks
    /// compiled into its page entries. Re-enabling brings the cache up
    /// *cold* and restarts the JIT's tallies (the snapshot-restore path
    /// relies on this: JIT state is never serialized, so restored
    /// machines re-warm under the walk-replay invariant and digests stay
    /// bit-identical).
    pub fn set_bbcache(&mut self, enabled: bool) {
        self.bbcache = enabled.then(|| Box::new(crate::bbcache::BbCache::new()));
        self.set_jit(self.jit_enabled());
    }

    /// Enable or disable the superblock JIT (enabled by default, inert
    /// without the bbcache); either way its tallies restart. Blocks
    /// already compiled stay in their bbcache page entries, under the
    /// cache's invalidation contract, and are not dispatched while off.
    pub fn set_jit(&mut self, enabled: bool) {
        self.jit = enabled.then(Box::default);
    }

    /// Whether the superblock JIT is on (SMP workers inherit hart 0's
    /// setting).
    pub fn jit_enabled(&self) -> bool {
        self.jit.is_some()
    }

    /// The hart id this machine executes as.
    pub fn hart(&self) -> usize {
        self.bus.hart()
    }

    /// Steps since the `timer_every` timer last fired (snapshot seam).
    pub fn timer_phase(&self) -> u64 {
        self.timer_phase
    }

    /// Restore the timer divider state (snapshot seam).
    pub fn set_timer_phase(&mut self, phase: u64) {
        self.timer_phase = phase;
    }

    /// Replace the timing model.
    pub fn with_timing(mut self, t: Box<dyn TimingSink>) -> Machine<E> {
        self.timing = t;
        self
    }

    /// Observe this machine through `obs`. With the ring or the profile
    /// on, every step runs on the interpreter; request tracing alone
    /// keeps the JIT. The extension gets a clone only when the ring is
    /// on (the off handle otherwise), so its events cost one branch each
    /// when nothing records them.
    pub fn set_obs(&mut self, obs: isa_obs::Obs) {
        obs.sync_step(self.steps);
        self.ext.set_obs(obs.ring_handle());
        self.obs = obs;
    }

    /// Load a program image into RAM and point the PC at its base.
    pub fn load_program(&mut self, prog: &isa_asm::Program) {
        self.bus.write_bytes(prog.base, &prog.bytes);
        self.cpu.pc = prog.base;
    }

    /// Raise or clear an interrupt-pending bit (host-side device model).
    pub fn set_pending(&mut self, irq: Interrupt, pending: bool) {
        let mip = self.cpu.csrs.read_raw(addr::MIP);
        let new = if pending {
            mip | irq.mask()
        } else {
            mip & !irq.mask()
        };
        self.cpu.csrs.write_raw(addr::MIP, new);
    }

    /// Run until halt or `max_steps`, through the superblock JIT when
    /// one is attached.
    pub fn run(&mut self, max_steps: u64) -> Exit {
        if max_steps == 0 {
            return Exit::StepLimit;
        }
        self.run_steps(max_steps);
        match self.bus.halted() {
            Some(code) => Exit::Halted(code),
            None => Exit::StepLimit,
        }
    }

    /// Cause of the most recent exception trap this machine took
    /// (interrupts excluded), if any. Cleared on construction and never
    /// restored from snapshots.
    pub fn last_trap_cause(&self) -> Option<u64> {
        self.last_trap_cause
    }

    /// Run until halt, treating step-budget exhaustion as a structured
    /// error rather than a normal exit. The fail-closed entry point for
    /// harnesses that require the guest to terminate. Expiry is
    /// classified: a hart whose most recent trap was a
    /// `GridIntegrityFault` (cause 28) reports
    /// [`RunError::IntegrityFault`]; everything else is a plain
    /// [`RunError::Watchdog`].
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, RunError> {
        match self.run(max_steps) {
            Exit::Halted(code) => Ok(code),
            Exit::StepLimit => Err(self.classify_expiry(max_steps, max_steps)),
        }
    }

    /// Build the structured error for a blown step budget on this hart
    /// (shared by [`Machine::run_to_halt`] and the SMP scheduler).
    pub fn classify_expiry(&self, max_steps: u64, steps: u64) -> RunError {
        let pc = self.cpu.pc;
        let hart = self.bus.hart() as u64;
        let domain = self.ext.current_domain_id();
        match self.last_trap_cause {
            Some(cause) if cause == Exception::CAUSE_GRID_INTEGRITY => RunError::IntegrityFault {
                max_steps,
                steps,
                pc,
                hart,
                domain,
                cause,
            },
            _ => RunError::Watchdog {
                max_steps,
                steps,
                pc,
                hart,
                domain,
            },
        }
    }

    /// Execute one instruction (or take one interrupt). Returns the
    /// retired-event record for the step, if an instruction was attempted.
    pub fn step(&mut self) -> Option<Retired> {
        self.steps += 1;
        if let Some(n) = self.timer_every {
            self.timer_phase += 1;
            if self.timer_phase >= n {
                self.timer_phase = 0;
                self.set_pending(Interrupt::SupervisorTimer, true);
            }
        }
        if let Some(irq) = self.pending_interrupt() {
            self.take_interrupt(irq);
            let cycles = self.timing.interrupt();
            self.cpu.csrs.add_cycles(cycles);
            self.obs.commit(false, || self.commit_record(None, cycles));
            return None;
        }

        let pc = self.cpu.pc;
        let priv_level = self.cpu.priv_level;
        let mut ev = Retired {
            pc,
            fetch_paddr: pc,
            next_pc: pc,
            kind: None,
            raw: 0,
            priv_level,
            mem: None,
            branch_taken: false,
            trap_cause: None,
            walk_reads: 0,
            ext: ExtEvents::default(),
        };

        let result = self.fetch_and_execute(&mut ev);
        match result {
            Ok(next_pc) => {
                self.cpu.pc = next_pc;
                ev.next_pc = next_pc;
                self.cpu.csrs.add_instret(1);
            }
            Err(e) => {
                ev.trap_cause = Some(e.cause());
                self.take_trap(e);
                ev.next_pc = self.cpu.pc;
            }
        }
        ev.ext = self.ext.drain_events();
        let cycles = self.timing.retire(&ev);
        self.cpu.csrs.add_cycles(cycles);
        let x = &ev.ext;
        let notable = isa_obs::Commit::notable(x.gate_switch, x.denied, x.shootdown_flushed);
        self.obs
            .commit(notable, || self.commit_record(Some(&ev), cycles));
        Some(ev)
    }

    /// The step's record for the observability spine; `ev` is `None`
    /// for an interrupt step.
    fn commit_record(&self, ev: Option<&Retired>, cycles: u64) -> isa_obs::Commit {
        let mut c = isa_obs::Commit {
            step: self.steps,
            domain: self.ext.current_domain_id(),
            priv_level: self.cpu.priv_level as u8,
            cycles,
            clock: self.cpu.csrs.read_raw(addr::CYCLE),
            ..isa_obs::Commit::default()
        };
        if let Some(ev) = ev {
            let x = &ev.ext;
            c.pc = ev.pc;
            c.raw = ev.raw;
            c.priv_level = ev.priv_level as u8;
            c.retired = true;
            c.trap = ev.trap_cause;
            c.class = isa_obs::StepClass {
                op: ev.kind.map_or(isa_obs::OpClass::System, Kind::op_class),
                gate_switch: x.gate_switch,
                checks: x.checks as u16,
                grid_misses: x.hpt_inst_miss as u16
                    + x.hpt_reg_miss as u16
                    + x.hpt_mask_miss as u16
                    + x.sgt_miss as u16,
                shootdown_flushed: x.shootdown_flushed,
                fault_events: x.fault_events,
                trapped: ev.trap_cause.is_some(),
            };
            c.gate_exit = ev.kind == Some(Kind::Hcrets);
            c.deny = x.denied.then_some((x.deny_cause, x.deny_detail));
            c.shootdown_epoch = x.shootdown_epoch;
        }
        c
    }

    fn fetch_and_execute(&mut self, ev: &mut Retired) -> Result<u64, Exception> {
        let pc = self.cpu.pc;
        if !pc.is_multiple_of(4) {
            return Err(Exception::InstMisaligned(pc));
        }
        let d = self.fetch_decode(pc, ev)?;

        // ISA-Grid: the PCU checks every instruction to be executed.
        self.ext.check_inst(&self.cpu, &mut self.bus, &d)?;

        self.execute(&d, ev)
    }

    /// Translate + load + decode the instruction at `pc`, through the
    /// basic-block cache when one is attached. The cached path is
    /// bit-identical to the uncached one: entries are keyed on every
    /// input `mmu::translate` reads, and stale state is flushed by the
    /// bus code epoch / extension coherence epoch before any lookup.
    fn fetch_decode(&mut self, pc: u64, ev: &mut Retired) -> Result<Decoded, Exception> {
        use crate::bbcache::{FetchKey, Lookup};
        self.sync_bbcache();
        let Some(bb) = self.bbcache.as_deref_mut() else {
            let ctx = self.cpu.walk_ctx(self.cpu.priv_level);
            let tr = mmu::translate(&mut self.bus, ctx, pc, Access::Exec)?;
            ev.walk_reads += tr.walk_reads;
            if tr.walk_reads > 0 {
                self.cpu.csrs.count_walk();
            }
            ev.fetch_paddr = tr.paddr;
            let raw = self
                .bus
                .load(tr.paddr, 4)
                .ok_or(Exception::InstAccessFault(pc))? as u32;
            ev.raw = raw;
            let d = decode(raw)?;
            ev.kind = Some(d.kind);
            return Ok(d);
        };

        let ctx = self.cpu.walk_ctx(self.cpu.priv_level);
        let key = FetchKey::new(ctx.priv_level, ctx.satp, ctx.mstatus, ctx.pkr);
        // Cached paths replay the fill-time walk count into the event
        // and the walk CSR, so timing is bit-identical to the uncached
        // interpreter (only host time differs).
        let paddr = match bb.lookup(pc, &key) {
            Lookup::Hit {
                paddr,
                d,
                walk_reads,
            } => {
                ev.walk_reads += walk_reads;
                if walk_reads > 0 {
                    self.cpu.csrs.count_walk();
                }
                ev.fetch_paddr = paddr;
                ev.raw = d.raw;
                ev.kind = Some(d.kind);
                return Ok(d);
            }
            Lookup::Translated { paddr, walk_reads } => {
                ev.walk_reads += walk_reads;
                if walk_reads > 0 {
                    self.cpu.csrs.count_walk();
                }
                paddr
            }
            Lookup::Miss => {
                let tr = mmu::translate(&mut self.bus, ctx, pc, Access::Exec)?;
                ev.walk_reads += tr.walk_reads;
                if tr.walk_reads > 0 {
                    self.cpu.csrs.count_walk();
                }
                // Cache the translation and pin the PTE lines it walked
                // through, so a PTE store flushes it before reuse.
                bb.fill_translation(pc, key, tr.paddr & !0xfff, tr.walk_reads);
                for &pa in tr.pte_addrs.iter().take(tr.walk_reads as usize) {
                    self.bus.mark_code_lines(pa, 8);
                }
                tr.paddr
            }
        };
        ev.fetch_paddr = paddr;
        let raw = self
            .bus
            .load(paddr, 4)
            .ok_or(Exception::InstAccessFault(pc))? as u32;
        ev.raw = raw;
        let d = decode(raw)?;
        ev.kind = Some(d.kind);
        // Only instructions resident in RAM can be tracked by the
        // code-line bitmap; anything else stays decode-per-step.
        if self.bus.in_ram(paddr, 4) {
            bb.fill_slot(pc, &key, d);
            self.bus.mark_code_lines(paddr, 4);
        }
        Ok(d)
    }

    /// The bbcache's invalidation contract, applied before any lookup:
    /// flush if code or PTE lines were written. A flush that drops
    /// compiled blocks is a `jit.flushes` tick.
    #[inline]
    fn sync_bbcache(&mut self) {
        let Some(bb) = self.bbcache.as_deref_mut() else {
            return;
        };
        if bb.sync_epochs(self.bus.code_epoch()) {
            if let Some(j) = self.jit.as_deref_mut() {
                j.stats.flushes += 1;
            }
        }
    }

    /// Translate a data access, through the basic-block cache's data
    /// TLB when one is attached and paging is actually active (bare and
    /// M-mode accesses go straight to the walker, whose early-out is
    /// already cheaper than a lookup). Hits replay the fill-time walk
    /// count into the event and walk CSR, exactly like cached fetches,
    /// so modeled timing is identical with the cache on or off.
    fn translate_data(
        &mut self,
        vaddr: u64,
        access: Access,
        ev: &mut Retired,
    ) -> Result<u64, Exception> {
        use crate::bbcache::FetchKey;
        let ctx = self.cpu.walk_ctx(self.effective_data_priv());
        let paged = ctx.priv_level != Priv::M && ctx.satp >> 60 == 8;
        if paged {
            // Same obligation as fetches before consulting any cached
            // translation.
            self.sync_bbcache();
            if let Some(bb) = self.bbcache.as_deref_mut() {
                let write = access == Access::Write;
                let key = FetchKey::new(ctx.priv_level, ctx.satp, ctx.mstatus, ctx.pkr);
                if let Some((paddr, walk_reads)) = bb.lookup_data(vaddr, &key, write) {
                    ev.walk_reads += walk_reads;
                    if walk_reads > 0 {
                        self.cpu.csrs.count_walk();
                    }
                    return Ok(paddr);
                }
                let tr = mmu::translate(&mut self.bus, ctx, vaddr, access)?;
                ev.walk_reads += tr.walk_reads;
                if tr.walk_reads > 0 {
                    self.cpu.csrs.count_walk();
                }
                if self.bus.in_ram(tr.paddr, 1) {
                    bb.fill_data(vaddr, key, write, tr.paddr & !0xfff, tr.walk_reads);
                    for &pa in tr.pte_addrs.iter().take(tr.walk_reads as usize) {
                        self.bus.mark_code_lines(pa, 8);
                    }
                }
                return Ok(tr.paddr);
            }
        }
        let tr = mmu::translate(&mut self.bus, ctx, vaddr, access)?;
        ev.walk_reads += tr.walk_reads;
        if tr.walk_reads > 0 {
            self.cpu.csrs.count_walk();
        }
        Ok(tr.paddr)
    }

    /// Execute a decoded instruction at the current PC; returns next PC.
    /// `pub(crate)` for the superblock JIT, whose per-op body replays
    /// this exact function.
    pub(crate) fn execute(&mut self, d: &Decoded, ev: &mut Retired) -> Result<u64, Exception> {
        use Kind::*;
        let cpu = &mut self.cpu;
        let pc = cpu.pc;
        let next = pc.wrapping_add(4);
        let rs1 = cpu.reg(d.rs1);
        let rs2 = cpu.reg(d.rs2);

        match d.kind {
            Lui => cpu.set_reg(d.rd, d.imm as u64),
            Auipc => cpu.set_reg(d.rd, pc.wrapping_add(d.imm as u64)),
            Jal => {
                let target = pc.wrapping_add(d.imm as u64);
                if !target.is_multiple_of(4) {
                    return Err(Exception::InstMisaligned(target));
                }
                cpu.set_reg(d.rd, next);
                return Ok(target);
            }
            Jalr => {
                let target = rs1.wrapping_add(d.imm as u64) & !1;
                if !target.is_multiple_of(4) {
                    return Err(Exception::InstMisaligned(target));
                }
                cpu.set_reg(d.rd, next);
                return Ok(target);
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let taken = match d.kind {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i64) < rs2 as i64,
                    Bge => (rs1 as i64) >= rs2 as i64,
                    Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                ev.branch_taken = taken;
                if taken {
                    let target = pc.wrapping_add(d.imm as u64);
                    if !target.is_multiple_of(4) {
                        return Err(Exception::InstMisaligned(target));
                    }
                    return Ok(target);
                }
            }
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => {
                let vaddr = rs1.wrapping_add(d.imm as u64);
                let len = match d.kind {
                    Lb | Lbu => 1,
                    Lh | Lhu => 2,
                    Lw | Lwu => 4,
                    _ => 8,
                };
                let v = self.mem_load(vaddr, len, ev)?;
                let v = match d.kind {
                    Lb => v as i8 as i64 as u64,
                    Lh => v as i16 as i64 as u64,
                    Lw => v as i32 as i64 as u64,
                    _ => v,
                };
                self.cpu.set_reg(d.rd, v);
            }
            Sb | Sh | Sw | Sd => {
                let vaddr = rs1.wrapping_add(d.imm as u64);
                let len = match d.kind {
                    Sb => 1,
                    Sh => 2,
                    Sw => 4,
                    _ => 8,
                };
                self.store(vaddr, len, rs2, ev)?;
            }
            Addi => cpu.set_reg(d.rd, rs1.wrapping_add(d.imm as u64)),
            Slti => cpu.set_reg(d.rd, ((rs1 as i64) < d.imm) as u64),
            Sltiu => cpu.set_reg(d.rd, (rs1 < d.imm as u64) as u64),
            Xori => cpu.set_reg(d.rd, rs1 ^ d.imm as u64),
            Ori => cpu.set_reg(d.rd, rs1 | d.imm as u64),
            Andi => cpu.set_reg(d.rd, rs1 & d.imm as u64),
            Slli => cpu.set_reg(d.rd, rs1 << d.imm),
            Srli => cpu.set_reg(d.rd, rs1 >> d.imm),
            Srai => cpu.set_reg(d.rd, ((rs1 as i64) >> d.imm) as u64),
            Add => cpu.set_reg(d.rd, rs1.wrapping_add(rs2)),
            Sub => cpu.set_reg(d.rd, rs1.wrapping_sub(rs2)),
            Sll => cpu.set_reg(d.rd, rs1 << (rs2 & 63)),
            Slt => cpu.set_reg(d.rd, ((rs1 as i64) < rs2 as i64) as u64),
            Sltu => cpu.set_reg(d.rd, (rs1 < rs2) as u64),
            Xor => cpu.set_reg(d.rd, rs1 ^ rs2),
            Srl => cpu.set_reg(d.rd, rs1 >> (rs2 & 63)),
            Sra => cpu.set_reg(d.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Or => cpu.set_reg(d.rd, rs1 | rs2),
            And => cpu.set_reg(d.rd, rs1 & rs2),
            Addiw => cpu.set_reg(d.rd, (rs1 as i32).wrapping_add(d.imm as i32) as i64 as u64),
            Slliw => cpu.set_reg(d.rd, ((rs1 as u32) << d.imm) as i32 as i64 as u64),
            Srliw => cpu.set_reg(d.rd, ((rs1 as u32) >> d.imm) as i32 as i64 as u64),
            Sraiw => cpu.set_reg(d.rd, ((rs1 as i32) >> d.imm) as i64 as u64),
            Addw => cpu.set_reg(d.rd, (rs1 as i32).wrapping_add(rs2 as i32) as i64 as u64),
            Subw => cpu.set_reg(d.rd, (rs1 as i32).wrapping_sub(rs2 as i32) as i64 as u64),
            Sllw => cpu.set_reg(d.rd, ((rs1 as u32) << (rs2 & 31)) as i32 as i64 as u64),
            Srlw => cpu.set_reg(d.rd, ((rs1 as u32) >> (rs2 & 31)) as i32 as i64 as u64),
            Sraw => cpu.set_reg(d.rd, ((rs1 as i32) >> (rs2 & 31)) as i64 as u64),
            Mul => cpu.set_reg(d.rd, rs1.wrapping_mul(rs2)),
            Mulh => {
                let v = ((rs1 as i64 as i128).wrapping_mul(rs2 as i64 as i128) >> 64) as u64;
                cpu.set_reg(d.rd, v);
            }
            Mulhsu => {
                let v = ((rs1 as i64 as i128).wrapping_mul(rs2 as u128 as i128) >> 64) as u64;
                cpu.set_reg(d.rd, v);
            }
            Mulhu => {
                let v = ((rs1 as u128).wrapping_mul(rs2 as u128) >> 64) as u64;
                cpu.set_reg(d.rd, v);
            }
            Div => {
                let v = if rs2 == 0 {
                    u64::MAX
                } else if rs1 as i64 == i64::MIN && rs2 as i64 == -1 {
                    rs1
                } else {
                    ((rs1 as i64) / (rs2 as i64)) as u64
                };
                cpu.set_reg(d.rd, v);
            }
            Divu => cpu.set_reg(d.rd, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
            Rem => {
                let v = if rs2 == 0 {
                    rs1
                } else if rs1 as i64 == i64::MIN && rs2 as i64 == -1 {
                    0
                } else {
                    ((rs1 as i64) % (rs2 as i64)) as u64
                };
                cpu.set_reg(d.rd, v);
            }
            Remu => cpu.set_reg(d.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Mulw => cpu.set_reg(d.rd, (rs1 as i32).wrapping_mul(rs2 as i32) as i64 as u64),
            Divw => {
                let (a, b) = (rs1 as i32, rs2 as i32);
                let v = if b == 0 {
                    -1i64
                } else if a == i32::MIN && b == -1 {
                    a as i64
                } else {
                    (a / b) as i64
                };
                cpu.set_reg(d.rd, v as u64);
            }
            Divuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let v = a
                    .checked_div(b)
                    .map(|q| q as i32 as i64 as u64)
                    .unwrap_or(u64::MAX);
                cpu.set_reg(d.rd, v);
            }
            Remw => {
                let (a, b) = (rs1 as i32, rs2 as i32);
                let v = if b == 0 {
                    a as i64
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    (a % b) as i64
                };
                cpu.set_reg(d.rd, v as u64);
            }
            Remuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let v = if b == 0 {
                    a as i32 as i64 as u64
                } else {
                    (a % b) as i32 as i64 as u64
                };
                cpu.set_reg(d.rd, v);
            }
            LrW | LrD => {
                let len = if d.kind == LrW { 4 } else { 8 };
                let vaddr = rs1;
                Self::check_aligned(vaddr, len, false)?;
                let paddr = self.translate_data(vaddr, Access::Read, ev)?;
                self.ext.check_phys(&self.cpu, paddr, len, false)?;
                // Load + line reservation, atomic w.r.t. remote stores.
                let v = self
                    .bus
                    .lr_load(paddr, len)
                    .ok_or(Exception::LoadAccessFault(vaddr))?;
                ev.mem = Some(MemAccess {
                    vaddr,
                    paddr,
                    len,
                    write: false,
                });
                let v = if d.kind == LrW {
                    v as i32 as i64 as u64
                } else {
                    v
                };
                self.cpu.set_reg(d.rd, v);
                self.cpu.reservation = Some(crate::mem::reservation_line(paddr));
            }
            ScW | ScD => {
                let len = if d.kind == ScW { 4 } else { 8 };
                let vaddr = rs1;
                Self::check_aligned(vaddr, len, true)?;
                // Translate first so a bad SC still faults.
                let paddr = self.translate_data(vaddr, Access::Write, ev)?;
                self.ext.check_phys(&self.cpu, paddr, len, true)?;
                self.wp_check(paddr, len)?;
                // Success needs both the architectural reservation and
                // the bus-side one (which remote stores may have broken).
                let line = crate::mem::reservation_line(paddr);
                let ok = if self.cpu.reservation == Some(line) {
                    self.bus
                        .sc_store(paddr, len, rs2)
                        .ok_or(Exception::StoreAccessFault(vaddr))?
                } else {
                    self.bus.clear_reservation();
                    false
                };
                if ok {
                    ev.mem = Some(MemAccess {
                        vaddr,
                        paddr,
                        len,
                        write: true,
                    });
                }
                self.cpu.set_reg(d.rd, u64::from(!ok));
                self.cpu.reservation = None;
            }
            k if k.is_amo() => {
                let len = if matches!(
                    k,
                    AmoswapW
                        | AmoaddW
                        | AmoxorW
                        | AmoandW
                        | AmoorW
                        | AmominW
                        | AmomaxW
                        | AmominuW
                        | AmomaxuW
                ) {
                    4
                } else {
                    8
                };
                let vaddr = rs1;
                Self::check_aligned(vaddr, len, true)?;
                // AMOs translate with Write access rights per the spec.
                let paddr = self.translate_data(vaddr, Access::Write, ev)?;
                self.ext.check_phys(&self.cpu, paddr, len, true)?;
                self.wp_check(paddr, len)?;
                // One locked read-modify-write on the shared bus.
                let old = self
                    .bus
                    .amo_rmw(paddr, len, |old| {
                        let old_sx = if len == 4 {
                            old as i32 as i64 as u64
                        } else {
                            old
                        };
                        match k {
                            AmoswapW | AmoswapD => rs2,
                            AmoaddW => (old_sx as i64).wrapping_add(rs2 as i64) as u64,
                            AmoaddD => old.wrapping_add(rs2),
                            AmoxorW | AmoxorD => old_sx ^ rs2,
                            AmoandW | AmoandD => old_sx & rs2,
                            AmoorW | AmoorD => old_sx | rs2,
                            // Min/max compare on the *operand width*: W
                            // forms compare the low 32 bits (signed or
                            // unsigned) and store a 32-bit result.
                            AmominW => (old as i32).min(rs2 as i32) as u64,
                            AmomaxW => (old as i32).max(rs2 as i32) as u64,
                            AmominuW => (old as u32).min(rs2 as u32) as u64,
                            AmomaxuW => (old as u32).max(rs2 as u32) as u64,
                            AmominD => (old as i64).min(rs2 as i64) as u64,
                            AmomaxD => (old as i64).max(rs2 as i64) as u64,
                            AmominuD => old.min(rs2),
                            AmomaxuD => old.max(rs2),
                            // Only AMO kinds are routed here; never
                            // panic inside the shared-bus RMW — an
                            // unexpected kind leaves memory unchanged.
                            _ => old,
                        }
                    })
                    .ok_or(Exception::StoreAccessFault(vaddr))?;
                let old_sx = if len == 4 {
                    old as i32 as i64 as u64
                } else {
                    old
                };
                ev.mem = Some(MemAccess {
                    vaddr,
                    paddr,
                    len,
                    write: true,
                });
                self.cpu.set_reg(d.rd, old_sx);
            }
            Fence | FenceI | SfenceVma => {
                if d.kind == SfenceVma && self.cpu.priv_level == Priv::U {
                    return Err(Exception::IllegalInst(d.raw as u64));
                }
                // No bbcache action: the cache snoops every store via
                // the code-line bitmap (code lines *and* walked PTE
                // lines), so anything FENCE.I or SFENCE.VMA would
                // invalidate was already flushed when the store
                // happened — see crates/sim/src/bbcache.rs.
            }
            Wfi => {
                if self.cpu.priv_level == Priv::U {
                    return Err(Exception::IllegalInst(d.raw as u64));
                }
            }
            Ecall => return Err(Exception::EnvCall(self.cpu.priv_level)),
            Ebreak => return Err(Exception::Breakpoint(pc)),
            Mret => {
                if self.cpu.priv_level != Priv::M {
                    return Err(Exception::IllegalInst(d.raw as u64));
                }
                return Ok(self.do_mret());
            }
            Sret => {
                if self.cpu.priv_level == Priv::U {
                    return Err(Exception::IllegalInst(d.raw as u64));
                }
                return Ok(self.do_sret());
            }
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => {
                self.exec_csr(d)?;
            }
            Hccall | Hccalls | Hcrets | Pfch | Pflh => {
                let Machine { cpu, bus, ext, .. } = self;
                match ext.exec_custom(cpu, bus, d)? {
                    Flow::Next => {}
                    Flow::Jump(target) => {
                        if target % 4 != 0 {
                            return Err(Exception::InstMisaligned(target));
                        }
                        return Ok(target);
                    }
                }
            }
            // Fail closed on any decoded kind without an execute arm:
            // malformed guest input must trap, never panic the host.
            _ => return Err(Exception::IllegalInst(d.raw as u64)),
        }
        Ok(next)
    }

    fn exec_csr(&mut self, d: &Decoded) -> Result<(), Exception> {
        use Kind::*;
        let csr = d.csr;
        let imm_form = matches!(d.kind, Csrrwi | Csrrsi | Csrrci);
        let src = if imm_form {
            d.rs1 as u64
        } else {
            self.cpu.reg(d.rs1)
        };
        let is_write =
            matches!(d.kind, Csrrw | Csrrwi) || ((d.rs1 != 0) && !matches!(d.kind, Csrrw | Csrrwi));
        let is_read = !(matches!(d.kind, Csrrw | Csrrwi) && d.rd == 0);

        // Architectural privilege-level check.
        if CsrFile::required_priv(csr) > self.cpu.priv_level {
            return Err(Exception::IllegalInst(d.raw as u64));
        }
        if is_write && CsrFile::is_read_only(csr) {
            return Err(Exception::IllegalInst(d.raw as u64));
        }

        let owned = self.ext.csr_owned(csr);
        let old = if owned {
            self.ext.read_csr(&self.cpu, csr)?
        } else {
            self.cpu.csrs.read_raw(csr)
        };
        let new = match d.kind {
            Csrrw | Csrrwi => src,
            Csrrs | Csrrsi => old | src,
            _ => old & !src,
        };

        // ISA-Grid register privilege check (double-bitmap + bit-masks).
        self.ext
            .check_csr(&self.cpu, &mut self.bus, csr, is_read, is_write, old, new)?;

        if is_write {
            if owned {
                let Machine { cpu, bus, ext, .. } = self;
                ext.write_csr(cpu, bus, csr, new)?;
            } else {
                self.cpu.csrs.write_raw(csr, new);
            }
        }
        if is_read {
            self.cpu.set_reg(d.rd, old);
        }
        Ok(())
    }

    fn effective_data_priv(&self) -> Priv {
        self.cpu.priv_level
    }

    fn check_aligned(vaddr: u64, len: u8, write: bool) -> Result<(), Exception> {
        if len > 1 && !vaddr.is_multiple_of(len as u64) {
            return Err(if write {
                Exception::StoreMisaligned(vaddr)
            } else {
                Exception::LoadMisaligned(vaddr)
            });
        }
        Ok(())
    }

    fn mem_load(&mut self, vaddr: u64, len: u8, ev: &mut Retired) -> Result<u64, Exception> {
        Self::check_aligned(vaddr, len, false)?;
        let paddr = self.translate_data(vaddr, Access::Read, ev)?;
        self.ext.check_phys(&self.cpu, paddr, len, false)?;
        let v = self
            .bus
            .load(paddr, len)
            .ok_or(Exception::LoadAccessFault(vaddr))?;
        ev.mem = Some(MemAccess {
            vaddr,
            paddr,
            len,
            write: false,
        });
        Ok(v)
    }

    fn store(&mut self, vaddr: u64, len: u8, val: u64, ev: &mut Retired) -> Result<(), Exception> {
        Self::check_aligned(vaddr, len, true)?;
        let paddr = self.translate_data(vaddr, Access::Write, ev)?;
        self.ext.check_phys(&self.cpu, paddr, len, true)?;
        self.wp_check(paddr, len)?;
        self.bus
            .store(paddr, len, val)
            .ok_or(Exception::StoreAccessFault(vaddr))?;
        ev.mem = Some(MemAccess {
            vaddr,
            paddr,
            len,
            write: true,
        });
        Ok(())
    }

    /// The CR0.WP analogue: when `wpctl` bit 0 is set, S/U-mode stores to
    /// `[wpbase, wplimit)` fault. The nested-monitor use case (§6.2)
    /// protects page tables with this range and toggles `wpctl` inside
    /// the monitor's ISA domain.
    fn wp_check(&self, paddr: u64, len: u8) -> Result<(), Exception> {
        if self.cpu.priv_level == Priv::M {
            return Ok(());
        }
        let c = &self.cpu.csrs;
        if c.read_raw(addr::WPCTL) & 1 == 0 {
            return Ok(());
        }
        let base = c.read_raw(addr::WPBASE);
        let limit = c.read_raw(addr::WPLIMIT);
        let end = paddr + len as u64;
        if end > base && paddr < limit {
            return Err(Exception::StoreAccessFault(paddr));
        }
        Ok(())
    }

    fn do_mret(&mut self) -> u64 {
        let m = self.cpu.csrs.read_raw(addr::MSTATUS);
        let mpp = Priv::from_bits((m & mstatus::MPP_MASK) >> mstatus::MPP_SHIFT);
        let mpie = m & mstatus::MPIE != 0;
        let mut new = m & !(mstatus::MIE | mstatus::MPIE | mstatus::MPP_MASK);
        if mpie {
            new |= mstatus::MIE;
        }
        new |= mstatus::MPIE;
        self.cpu.csrs.write_raw(addr::MSTATUS, new);
        self.cpu.priv_level = mpp;
        self.cpu.csrs.read_raw(addr::MEPC)
    }

    fn do_sret(&mut self) -> u64 {
        let m = self.cpu.csrs.read_raw(addr::MSTATUS);
        let spp = if m & mstatus::SPP != 0 {
            Priv::S
        } else {
            Priv::U
        };
        let spie = m & mstatus::SPIE != 0;
        let mut new = m & !(mstatus::SIE | mstatus::SPIE | mstatus::SPP);
        if spie {
            new |= mstatus::SIE;
        }
        new |= mstatus::SPIE;
        self.cpu.csrs.write_raw(addr::MSTATUS, new);
        self.cpu.priv_level = spp;
        self.cpu.csrs.read_raw(addr::SEPC)
    }

    /// Take a synchronous trap: update cause/epc/tval/status and redirect
    /// to the handler, honoring `medeleg`.
    pub fn take_trap(&mut self, e: Exception) {
        *self.trap_counts.entry(e.cause()).or_insert(0) += 1;
        self.last_trap_cause = Some(e.cause());
        self.cpu.csrs.count_trap();
        // Traps drop any live LR/SC reservation (both the architectural
        // copy and the bus-side one).
        self.cpu.reservation = None;
        self.bus.clear_reservation();
        let cause = e.cause();
        let deleg = self.cpu.csrs.read_raw(addr::MEDELEG);
        let to_s = self.cpu.priv_level != Priv::M && cause < 64 && deleg & (1 << cause) != 0;
        let pc = self.cpu.pc;
        if to_s {
            self.cpu.csrs.write_raw(addr::SCAUSE, cause);
            self.cpu.csrs.write_raw(addr::SEPC, pc);
            self.cpu.csrs.write_raw(addr::STVAL, e.tval());
            let mut m = self.cpu.csrs.read_raw(addr::MSTATUS);
            // SPIE <- SIE; SIE <- 0; SPP <- priv.
            m = if m & mstatus::SIE != 0 {
                m | mstatus::SPIE
            } else {
                m & !mstatus::SPIE
            };
            m &= !mstatus::SIE;
            m = if self.cpu.priv_level == Priv::S {
                m | mstatus::SPP
            } else {
                m & !mstatus::SPP
            };
            self.cpu.csrs.write_raw(addr::MSTATUS, m);
            self.cpu.priv_level = Priv::S;
            self.cpu.pc = self.cpu.csrs.read_raw(addr::STVEC) & !3;
        } else {
            self.cpu.csrs.write_raw(addr::MCAUSE, cause);
            self.cpu.csrs.write_raw(addr::MEPC, pc);
            self.cpu.csrs.write_raw(addr::MTVAL, e.tval());
            let mut m = self.cpu.csrs.read_raw(addr::MSTATUS);
            m = if m & mstatus::MIE != 0 {
                m | mstatus::MPIE
            } else {
                m & !mstatus::MPIE
            };
            m &= !(mstatus::MIE | mstatus::MPP_MASK);
            m |= (self.cpu.priv_level as u64) << mstatus::MPP_SHIFT;
            self.cpu.csrs.write_raw(addr::MSTATUS, m);
            self.cpu.priv_level = Priv::M;
            self.cpu.pc = self.cpu.csrs.read_raw(addr::MTVEC) & !3;
        }
    }

    pub(crate) fn pending_interrupt(&self) -> Option<Interrupt> {
        let mip = self.cpu.csrs.read_raw(addr::MIP);
        let mie = self.cpu.csrs.read_raw(addr::MIE);
        let pending = mip & mie;
        if pending == 0 {
            return None;
        }
        let mideleg = self.cpu.csrs.read_raw(addr::MIDELEG);
        let m = self.cpu.csrs.read_raw(addr::MSTATUS);
        use Interrupt::*;
        for irq in [
            MachineExternal,
            MachineSoft,
            MachineTimer,
            SupervisorExternal,
            SupervisorSoft,
            SupervisorTimer,
        ] {
            if pending & irq.mask() == 0 {
                continue;
            }
            let to_s = mideleg & irq.mask() != 0;
            let take = if to_s {
                match self.cpu.priv_level {
                    Priv::U => true,
                    Priv::S => m & mstatus::SIE != 0,
                    Priv::M => false,
                }
            } else {
                match self.cpu.priv_level {
                    Priv::M => m & mstatus::MIE != 0,
                    _ => true,
                }
            };
            if take {
                return Some(irq);
            }
        }
        None
    }

    fn take_interrupt(&mut self, irq: Interrupt) {
        *self.trap_counts.entry(irq.cause()).or_insert(0) += 1;
        self.cpu.csrs.count_trap();
        self.cpu.reservation = None;
        self.bus.clear_reservation();
        let mideleg = self.cpu.csrs.read_raw(addr::MIDELEG);
        let to_s = mideleg & irq.mask() != 0;
        let pc = self.cpu.pc;
        if to_s {
            self.cpu.csrs.write_raw(addr::SCAUSE, irq.cause());
            self.cpu.csrs.write_raw(addr::SEPC, pc);
            self.cpu.csrs.write_raw(addr::STVAL, 0);
            let mut m = self.cpu.csrs.read_raw(addr::MSTATUS);
            m = if m & mstatus::SIE != 0 {
                m | mstatus::SPIE
            } else {
                m & !mstatus::SPIE
            };
            m &= !mstatus::SIE;
            m = if self.cpu.priv_level == Priv::S {
                m | mstatus::SPP
            } else {
                m & !mstatus::SPP
            };
            self.cpu.csrs.write_raw(addr::MSTATUS, m);
            self.cpu.priv_level = Priv::S;
            self.cpu.pc = self.cpu.csrs.read_raw(addr::STVEC) & !3;
        } else {
            self.cpu.csrs.write_raw(addr::MCAUSE, irq.cause());
            self.cpu.csrs.write_raw(addr::MEPC, pc);
            self.cpu.csrs.write_raw(addr::MTVAL, 0);
            let mut m = self.cpu.csrs.read_raw(addr::MSTATUS);
            m = if m & mstatus::MIE != 0 {
                m | mstatus::MPIE
            } else {
                m & !mstatus::MPIE
            };
            m &= !(mstatus::MIE | mstatus::MPP_MASK);
            m |= (self.cpu.priv_level as u64) << mstatus::MPP_SHIFT;
            self.cpu.csrs.write_raw(addr::MSTATUS, m);
            self.cpu.priv_level = Priv::M;
            self.cpu.pc = self.cpu.csrs.read_raw(addr::MTVEC) & !3;
        }
    }
}
