//! # isa-smp — multi-hart simulation for the ISA-Grid reproduction
//!
//! The paper evaluates ISA-Grid on single cores, but its architecture
//! is explicitly per-core: each core has its own PCU whose privilege
//! caches front tables in *shared* trusted memory (§3.3, §4.3). This
//! crate supplies the multi-hart machinery that makes that sharing
//! observable:
//!
//! * [`Smp`] — N [`isa_sim::Machine`]s (one per hart) on one shared
//!   [`Bus`] image, stepped by a **deterministic interleaver**
//!   ([`Schedule::RoundRobin`] or seeded [`Schedule::Random`]); the
//!   same schedule always produces bit-identical architectural state.
//! * [`Smp::run_concurrent`] — a parallel runner that shards the same
//!   workload across OS threads, one hart per thread, against the same
//!   shared memory image (LR/SC and AMOs are bus-atomic).
//! * Cross-hart **privilege-cache shootdown**: every hart's PCU is
//!   attached to one [`ShootdownCell`], so a table mutation or PCU
//!   fence on any hart flushes the others' caches before their next
//!   commit (see `isa_grid::shootdown`).
//!
//! ## Sharing a program image
//!
//! All harts execute from the same RAM. Write the image **once**
//! through any handle before the harts start (in the deterministic
//! interleaver, before the first [`Smp::step`]; in the concurrent
//! runner, before spawning — a `load_program` inside the `make`
//! closure would re-zero shared data other harts already mutated).

#![warn(missing_docs)]

use std::sync::Arc;

use isa_grid::{Pcu, ShootdownCell};
use isa_obs::Counters;
use isa_sim::{Bus, Exit, Machine, RunError};

/// How the deterministic interleaver picks the next hart to step.
///
/// Both schedules are pure functions of their parameters and the
/// harts' (deterministic) halt behavior, so a run is reproducible
/// bit-for-bit: same schedule, same program, same final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Rotate through the runnable harts, giving each `quantum`
    /// consecutive steps before yielding to the next.
    RoundRobin {
        /// Consecutive steps a hart executes before the rotor advances.
        quantum: u64,
    },
    /// Pick a pseudo-random runnable hart each step from an xorshift64
    /// stream. Distinct seeds explore distinct interleavings; the same
    /// seed always replays the same one.
    Random {
        /// Stream seed (0 is remapped to a fixed non-zero value).
        seed: u64,
    },
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule::RoundRobin { quantum: 1 }
    }
}

/// Outcome of one hart in a multi-hart run.
#[derive(Debug, Clone)]
pub struct HartResult {
    /// Hart id.
    pub hart: usize,
    /// Why the hart stopped.
    pub exit: Exit,
    /// Instructions the hart stepped.
    pub steps: u64,
    /// The hart's counter snapshot ([`hart_counters`]).
    pub counters: Counters,
    /// The hart's cycle-attribution profile, when the `make` closure
    /// observed the machine through a spine with the profile on.
    pub profile: Option<isa_obs::Profile>,
}

/// One hart's counter snapshot: its PCU's counters, the machine's
/// bbcache and JIT tallies, and its step count. Every per-hart harvest
/// (single-hart sims, SMP sessions, [`Smp::counters`],
/// [`Smp::run_concurrent`]) reads its hart through this one function.
pub fn hart_counters(m: &Machine<Pcu>) -> Counters {
    let mut c = m.ext.counters();
    if let Some(bb) = &m.bbcache {
        c.bbcache = bb.stats.counters();
    }
    if let Some(jit) = &m.jit {
        c.jit = jit.stats;
    }
    c.run.steps = m.steps;
    c
}

/// Merge per-hart counter snapshots into one whole-machine view,
/// filling the `smp.*` block from the shared bus (hart count and
/// cross-hart reservation breaks live there, not in any one PCU).
pub fn merge_results(results: &[HartResult], bus: &Bus) -> Counters {
    let mut c = Counters::default();
    for r in results {
        c.merge(&r.counters);
    }
    c.smp.harts = bus.harts() as u64;
    c.smp.reservation_breaks = bus.reservation_breaks();
    c
}

/// An N-hart machine: one shared memory image, one `Machine<Pcu>` per
/// hart, and the [`ShootdownCell`] wiring their privilege caches
/// together. Stepping is single-threaded and deterministic; use
/// [`Smp::run_concurrent`] for real parallelism.
pub struct Smp {
    harts: Vec<Machine<Pcu>>,
    shoot: Arc<ShootdownCell>,
    sched: Schedule,
    cursor: usize,
    quantum_used: u64,
    rng: u64,
}

impl Smp {
    /// Build one machine per hart of `bus` by calling
    /// `make(hart, hart_handle)`, then attach every PCU to a fresh
    /// shared [`ShootdownCell`]. The default schedule is round-robin
    /// with quantum 1.
    pub fn new(bus: &Bus, mut make: impl FnMut(usize, Bus) -> Machine<Pcu>) -> Smp {
        let n = bus.harts();
        let shoot = Arc::new(ShootdownCell::new(n));
        let harts: Vec<Machine<Pcu>> = (0..n)
            .map(|h| {
                let mut m = make(h, bus.for_hart(h));
                m.ext.attach_shootdown(shoot.clone(), h);
                m
            })
            .collect();
        Smp {
            harts,
            shoot,
            sched: Schedule::default(),
            cursor: 0,
            quantum_used: 0,
            rng: 0,
        }
    }

    /// Adopt machines that were built elsewhere (e.g. hart 0 booted a
    /// kernel, harts 1.. were minted as workers), attaching every PCU
    /// to a fresh shared [`ShootdownCell`].
    ///
    /// # Panics
    ///
    /// Panics if `machines` is empty or machine `i` is not hart `i` of
    /// the shared bus.
    pub fn from_machines(mut machines: Vec<Machine<Pcu>>) -> Smp {
        assert!(!machines.is_empty(), "need at least one hart");
        let shoot = Arc::new(ShootdownCell::new(machines.len()));
        for (h, m) in machines.iter_mut().enumerate() {
            assert_eq!(m.hart(), h, "machine {h} executes as hart {}", m.hart());
            m.ext.attach_shootdown(shoot.clone(), h);
        }
        Smp {
            harts: machines,
            shoot,
            sched: Schedule::default(),
            cursor: 0,
            quantum_used: 0,
            rng: 0,
        }
    }

    /// Replace the interleaving schedule (resets the scheduler state).
    pub fn with_schedule(mut self, sched: Schedule) -> Smp {
        self.sched = sched;
        self.cursor = 0;
        self.quantum_used = 0;
        self.rng = match sched {
            Schedule::Random { seed } if seed != 0 => seed,
            Schedule::Random { .. } => 0x9e37_79b9_7f4a_7c15,
            Schedule::RoundRobin { .. } => 0,
        };
        self
    }

    /// Number of harts.
    pub fn harts(&self) -> usize {
        self.harts.len()
    }

    /// The shared bus (hart 0's handle).
    pub fn bus(&self) -> &Bus {
        &self.harts[0].bus
    }

    /// Hart `h`'s machine.
    pub fn machine(&self, h: usize) -> &Machine<Pcu> {
        &self.harts[h]
    }

    /// Hart `h`'s machine, mutably (for setup: loading PCs, installing
    /// tables, attaching timing models).
    pub fn machine_mut(&mut self, h: usize) -> &mut Machine<Pcu> {
        &mut self.harts[h]
    }

    /// The shootdown cell shared by all harts.
    pub fn shootdown(&self) -> &Arc<ShootdownCell> {
        &self.shoot
    }

    /// True when every hart has flushed up to the latest published
    /// shootdown epoch — the fence-completion condition.
    pub fn quiesced(&self) -> bool {
        self.shoot.quiesced()
    }

    /// The interleaver's mutable state `(cursor, quantum_used, rng)`
    /// (snapshot seam). Together with the [`Schedule`] — part of the
    /// machine recipe — this replays the exact same hart-pick sequence.
    pub fn sched_state(&self) -> (usize, u64, u64) {
        (self.cursor, self.quantum_used, self.rng)
    }

    /// Restore interleaver state captured by [`Smp::sched_state`]. The
    /// schedule itself must already match (it is rebuilt, not restored).
    pub fn set_sched_state(&mut self, cursor: usize, quantum_used: u64, rng: u64) {
        self.cursor = cursor;
        self.quantum_used = quantum_used;
        self.rng = rng;
    }

    /// The active schedule (snapshot seam: verified against the recipe
    /// on restore).
    pub fn schedule(&self) -> Schedule {
        self.sched
    }

    /// Pick the next hart from `runnable` (non-empty) per the schedule.
    fn pick(&mut self, runnable: &[usize]) -> usize {
        match self.sched {
            Schedule::RoundRobin { quantum } => {
                if self.quantum_used >= quantum.max(1) || !runnable.contains(&self.cursor) {
                    let n = self.harts.len();
                    self.cursor = (1..=n)
                        .map(|i| (self.cursor + i) % n)
                        .find(|h| runnable.contains(h))
                        .unwrap_or(runnable[0]);
                    self.quantum_used = 0;
                }
                self.quantum_used += 1;
                self.cursor
            }
            Schedule::Random { .. } => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                runnable[(self.rng % runnable.len() as u64) as usize]
            }
        }
    }

    /// Step one hart (the schedule picks which). Returns the hart
    /// stepped, or `None` when every hart has halted.
    pub fn step(&mut self) -> Option<usize> {
        let runnable: Vec<usize> = (0..self.harts.len())
            .filter(|&h| self.harts[h].bus.halted().is_none())
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let h = self.pick(&runnable);
        self.harts[h].step();
        Some(h)
    }

    /// Run the interleaver until every hart halts or exhausts its own
    /// `max_steps_per_hart` budget (counted from this call). Returns
    /// each hart's exit, or a structured [`RunError`] naming the first
    /// hart that burned its whole budget without halting — a hung hart
    /// is a structured error, never a silent `StepLimit` row. Like
    /// `Machine::run_to_halt`, expiry is classified: a hart stalled
    /// after a `GridIntegrityFault` (cause 28) reports
    /// [`RunError::IntegrityFault`] instead of a plain watchdog.
    pub fn run(&mut self, max_steps_per_hart: u64) -> Result<Vec<Exit>, RunError> {
        let n = self.harts.len();
        let start: Vec<u64> = self.harts.iter().map(|m| m.steps).collect();
        let mut exits: Vec<Option<Exit>> = (0..n)
            .map(|h| self.harts[h].bus.halted().map(Exit::Halted))
            .collect();
        loop {
            let runnable: Vec<usize> = (0..n).filter(|&h| exits[h].is_none()).collect();
            if runnable.is_empty() {
                break;
            }
            let h = self.pick(&runnable);
            self.harts[h].step();
            if let Some(code) = self.harts[h].bus.halted() {
                exits[h] = Some(Exit::Halted(code));
            } else if self.harts[h].steps - start[h] >= max_steps_per_hart {
                let m = &self.harts[h];
                return Err(m.classify_expiry(max_steps_per_hart, m.steps - start[h]));
            }
        }
        Ok(exits
            .into_iter()
            .map(|e| e.expect("every hart resolved"))
            .collect())
    }

    /// Switch on a fresh request buffer in every hart's observability
    /// spine (keeping its other consumers) and return the handles, in
    /// hart order. Buffers are per hart with no cross-hart sharing (the
    /// deterministic interleaver drains them at round boundaries), so
    /// they add no synchronization to the bus. The handles are
    /// `Rc`-backed and must stay on the interleaver thread —
    /// [`Smp::run_concurrent`] builds its machines inside the worker
    /// threads and is unaffected.
    pub fn install_req_tracers(&mut self) -> Vec<isa_obs::Obs> {
        self.harts
            .iter_mut()
            .map(|m| {
                let obs = m.obs.clone().with_requests();
                m.set_obs(obs.clone());
                obs
            })
            .collect()
    }

    /// Merged whole-machine counters: every hart's PCU snapshot and
    /// step count summed, plus the `smp.*` block (hart count, bus-wide
    /// reservation breaks).
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for m in &self.harts {
            c.merge(&hart_counters(m));
        }
        c.smp.harts = self.harts.len() as u64;
        c.smp.reservation_breaks = self.bus().reservation_breaks();
        c
    }

    /// Run the same workload with real parallelism: one OS thread per
    /// hart of `bus`, each building its machine via
    /// `make(hart, hart_handle)` and running it for up to `max_steps`.
    /// All machines share `bus`'s memory image and one fresh
    /// [`ShootdownCell`].
    ///
    /// Machines are built *inside* the worker threads (observability
    /// handles and timing models are deliberately not thread-shippable),
    /// so `make` must be `Sync`; capture plain data — a program base, a
    /// [`isa_grid::PcuSnapshot`] — rather than live machines. Results
    /// come back ordered by hart id.
    pub fn run_concurrent<F>(bus: &Bus, max_steps: u64, make: F) -> Vec<HartResult>
    where
        F: Fn(usize, Bus) -> Machine<Pcu> + Sync,
    {
        let n = bus.harts();
        let shoot = Arc::new(ShootdownCell::new(n));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|h| {
                    let hart_bus = bus.for_hart(h);
                    let cell = shoot.clone();
                    let make = &make;
                    s.spawn(move || {
                        let mut m = make(h, hart_bus);
                        m.ext.attach_shootdown(cell, h);
                        let exit = m.run(max_steps);
                        let counters = hart_counters(&m);
                        // A profile is plain data, so it ships back
                        // across the thread boundary even though the
                        // handle itself does not.
                        let profile = m.obs.take_profile();
                        HartResult {
                            hart: h,
                            exit,
                            steps: m.steps,
                            counters,
                            profile,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|j| j.join().expect("hart thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_asm::{Asm, Reg::*};
    use isa_grid::PcuConfig;
    use isa_sim::{mmio, DEFAULT_RAM_BASE};

    const MHARTID: u32 = 0xF14;

    /// Each hart AMO-adds 1 to a shared counter `iters` times, then
    /// halts with its hart id as exit code.
    fn amo_counter_program(iters: u64) -> isa_asm::Program {
        let mut a = Asm::new(DEFAULT_RAM_BASE);
        a.la(T1, "counter");
        a.li(T2, iters);
        a.li(A0, 1);
        a.label("loop");
        a.amoadd_d(A1, T1, A0);
        a.addi(T2, T2, -1);
        a.bnez(T2, "loop");
        a.csrr(A0, MHARTID);
        a.li(T6, mmio::HALT);
        a.sd(A0, T6, 0);
        a.label("counter");
        a.align(8);
        a.d64(0);
        a.assemble().unwrap()
    }

    fn smp_on(prog: &isa_asm::Program, harts: usize) -> Smp {
        let bus = Bus::with_harts(DEFAULT_RAM_BASE, 4 << 20, harts);
        bus.write_bytes(prog.base, &prog.bytes);
        Smp::new(&bus, |_h, hb| {
            let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
            m.cpu.pc = prog.base;
            m
        })
    }

    #[test]
    fn round_robin_counter_matches_sequential() {
        let prog = amo_counter_program(100);
        // Sequential reference: one hart doing all the work.
        let seq = smp_on(&prog, 1).run(100_000).unwrap();
        assert_eq!(seq, vec![Exit::Halted(0)]);

        let mut smp = smp_on(&prog, 4).with_schedule(Schedule::RoundRobin { quantum: 3 });
        let exits = smp.run(100_000).unwrap();
        for (h, e) in exits.iter().enumerate() {
            assert_eq!(*e, Exit::Halted(h as u64), "hart {h} exit code");
        }
        let counter = prog.symbol("counter");
        assert_eq!(smp.bus().read_u64(counter), 400);
    }

    #[test]
    fn random_schedule_is_deterministic() {
        let prog = amo_counter_program(50);
        let run = |seed| {
            let mut smp = smp_on(&prog, 3).with_schedule(Schedule::Random { seed });
            smp.run(100_000).unwrap();
            let regs: Vec<Vec<u64>> = (0..3)
                .map(|h| (0..32).map(|r| smp.machine(h).cpu.reg(r)).collect())
                .collect();
            let steps: Vec<u64> = (0..3).map(|h| smp.machine(h).steps).collect();
            (smp.bus().read_u64(prog.symbol("counter")), regs, steps)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay bit-identically");
        let c = run(7);
        assert_eq!(a.0, c.0, "any interleaving sums to the same counter");
    }

    #[test]
    fn concurrent_run_sums_correctly() {
        let prog = amo_counter_program(1000);
        let bus = Bus::with_harts(DEFAULT_RAM_BASE, 4 << 20, 4);
        bus.write_bytes(prog.base, &prog.bytes);
        let base = prog.base;
        let results = Smp::run_concurrent(&bus, 1_000_000, |_h, hb| {
            let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
            m.cpu.pc = base;
            m
        });
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.exit, Exit::Halted(r.hart as u64));
        }
        assert_eq!(bus.read_u64(prog.symbol("counter")), 4000);
        let merged = merge_results(&results, &bus);
        assert_eq!(merged.smp.harts, 4);
    }

    #[test]
    fn quantum_zero_is_clamped() {
        let prog = amo_counter_program(5);
        let mut smp = smp_on(&prog, 2).with_schedule(Schedule::RoundRobin { quantum: 0 });
        let exits = smp.run(10_000).unwrap();
        assert_eq!(exits.len(), 2);
        assert_eq!(smp.bus().read_u64(prog.symbol("counter")), 10);
    }
}
