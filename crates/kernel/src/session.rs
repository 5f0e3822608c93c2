//! The session-driver run API: step a booted machine in bounded
//! quanta and harvest structured [`Completion`]s, instead of the old
//! one-shot "boot → `run_to_halt` → read five accessors → exit" shape.
//!
//! Two drivers share the vocabulary:
//!
//! * [`Session`] wraps a single-hart [`Sim`]. It subsumes the
//!   boot/drain/harvest boilerplate the workload harnesses used to
//!   carry ([`Session::drain`] is the whole old pattern in one call),
//!   and it can also run *incrementally* ([`Session::step`]) so a host
//!   can interleave guest execution with its own bookkeeping.
//! * [`SmpSession`] wraps an [`isa_smp::Smp`] and **is** the
//!   interleaver: the host steps every runnable hart one bounded
//!   quantum per round, giving a deterministic virtual clock
//!   (`rounds × quantum`) against which open-loop load generators can
//!   schedule arrivals and measure latency. Between rounds the host
//!   owns the machine — it may inspect shared memory, inject requests
//!   (write a mailbox, flip a doorbell word) and harvest results; the
//!   serve harness in `isa-grid-bench` is built on exactly this.
//!
//! ## Quantum semantics
//!
//! A quantum is a *budget*, not a promise: a hart stops early when it
//! halts. Within a round harts are stepped in ascending hart order;
//! architectural state after round `r` is a pure function of (program,
//! quantum, the host writes performed at round boundaries `< r`).
//! Anything that perturbs that function — stepping a hart outside
//! [`SmpSession::round`], changing the quantum mid-run — invalidates a
//! session's determinism contract (see DESIGN.md).

use isa_obs::{AuditRecord, Counters, Profile};
use isa_sim::RunError;
use isa_smp::Smp;

use crate::machine::Sim;

/// Everything one completed run (or one drained session) produces:
/// the structured replacement for the old "call `run_to_halt`, then
/// `values()`, `cycles()`, `counters()`, `take_audit()`,
/// `take_profile()`, and time it yourself" call pattern.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Exit code the guest halted with.
    pub exit_code: u64,
    /// Values the guest reported through the value log.
    pub reported: Vec<u64>,
    /// Modeled cycles for the whole run.
    pub cycles: u64,
    /// Instructions executed.
    pub steps: u64,
    /// The unified counter snapshot (PCU, timing, run bookkeeping).
    pub counters: Counters,
    /// The PCU's audit log of denied checks, drained.
    pub audit: Vec<AuditRecord>,
    /// Cycle-attribution profile, when the builder enabled profiling.
    pub profile: Option<Profile>,
    /// Host wall-clock seconds spent stepping the machine.
    pub host_secs: f64,
}

/// A drivable single-hart simulation: a booted [`Sim`] plus the
/// bookkeeping to harvest a [`Completion`] whenever the guest halts.
pub struct Session {
    sim: Sim,
    host_secs: f64,
    /// Completion harvested when the guest halted. Harvesting *drains*
    /// the audit log and profile, so it must happen exactly once; later
    /// `step`/`drain`/`completion` calls replay this cached value
    /// instead of re-harvesting (or re-stepping a finished machine).
    done: Option<Completion>,
    /// Terminal error from a failed `drain`. A watchdogged guest is
    /// still hung — re-running it would just burn another full budget
    /// and fail again, so later drains surface this immediately.
    failed: Option<RunError>,
}

/// What a bounded-quantum step observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The guest is still running (the quantum was exhausted).
    Running,
    /// The guest halted with this exit code.
    Halted(u64),
}

impl Session {
    /// Adopt a booted simulation.
    pub fn new(sim: Sim) -> Session {
        Session {
            sim,
            host_secs: 0.0,
            done: None,
            failed: None,
        }
    }

    /// The underlying simulation (shared-memory inspection, console).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Step the guest for at most `quantum` instructions, stopping
    /// early on halt. Host wall-clock spent stepping is accumulated
    /// into the eventual [`Completion::host_secs`].
    pub fn step(&mut self, quantum: u64) -> SessionState {
        if let Some(c) = &self.done {
            return SessionState::Halted(c.exit_code);
        }
        let t0 = std::time::Instant::now();
        let state = {
            // `run_steps` routes the quantum through the superblock JIT
            // when one is attached; blocks never cross the budget, so
            // the virtual clock advances exactly as if stepped.
            if self.sim.machine.bus.halted().is_none() {
                self.sim.machine.run_steps(quantum);
            }
            match self.sim.machine.bus.halted() {
                Some(code) => SessionState::Halted(code),
                None => SessionState::Running,
            }
        };
        self.host_secs += t0.elapsed().as_secs_f64();
        state
    }

    /// Run the guest to halt and harvest the [`Completion`] — the
    /// whole legacy `run_to_halt` + accessor-scrape pattern in one
    /// call. A hung guest surfaces as a structured [`RunError`], never
    /// a host panic, and the error carries the failure class: a hart
    /// stalled after a cause-28 `GridIntegrityFault` reports
    /// [`RunError::IntegrityFault`], everything else
    /// [`RunError::Watchdog`] — callers no longer re-derive the cause
    /// from the audit log. Idempotent after the session resolves: a
    /// second drain replays the cached completion (or the cached error
    /// — a hung guest stays hung) instead of re-stepping.
    pub fn drain(&mut self, max_steps: u64) -> Result<Completion, RunError> {
        if let Some(c) = &self.done {
            return Ok(c.clone());
        }
        if let Some(e) = self.failed {
            return Err(e);
        }
        let t0 = std::time::Instant::now();
        let exit_code = self.sim.run_to_halt(max_steps);
        self.host_secs += t0.elapsed().as_secs_f64();
        match exit_code {
            Ok(code) => Ok(self.harvest(code)),
            Err(e) => {
                self.failed = Some(e);
                Err(e)
            }
        }
    }

    /// Harvest the completion for an already-halted guest (used by
    /// [`Session::step`] drivers once they observe
    /// [`SessionState::Halted`]). Idempotent: harvesting drains the
    /// audit log and profile, so repeated calls replay the first
    /// harvest rather than returning an emptied one.
    pub fn completion(&mut self) -> Completion {
        if let Some(c) = &self.done {
            return c.clone();
        }
        let code = self
            .sim
            .machine
            .bus
            .halted()
            .expect("completion() on a running session");
        self.harvest(code)
    }

    fn harvest(&mut self, exit_code: u64) -> Completion {
        let counters = self.sim.counters();
        let c = Completion {
            exit_code,
            reported: self.sim.values(),
            cycles: self.sim.cycles(),
            steps: counters.run.steps,
            audit: self.sim.take_audit(),
            profile: self.sim.take_profile(),
            host_secs: self.host_secs,
            counters,
        };
        self.done = Some(c.clone());
        c
    }
}

/// A host-driven multi-hart session: the deterministic interleaver for
/// long-running load harnesses. Unlike [`Smp::run`] (which drives every
/// hart to halt in one call), the host advances the machine one
/// *round* at a time and owns it in between — that boundary is where
/// requests are injected and completions harvested.
pub struct SmpSession {
    smp: Smp,
    quantum: u64,
    rounds: u64,
    host_secs: f64,
}

impl SmpSession {
    /// Adopt an assembled [`Smp`], stepping each hart `quantum`
    /// instructions per round (clamped to at least 1).
    pub fn new(smp: Smp, quantum: u64) -> SmpSession {
        SmpSession {
            smp,
            quantum: quantum.max(1),
            rounds: 0,
            host_secs: 0.0,
        }
    }

    /// The underlying multi-hart machine.
    pub fn smp(&self) -> &Smp {
        &self.smp
    }

    /// The underlying multi-hart machine, mutably (setup, injection).
    pub fn smp_mut(&mut self) -> &mut Smp {
        &mut self.smp
    }

    /// The per-round step budget.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Overwrite the round counter (snapshot seam). A restored machine
    /// resumes at the round its snapshot was taken at, so the virtual
    /// clock — and everything scheduled against it — lines up with the
    /// unbroken run.
    pub fn set_rounds(&mut self, rounds: u64) {
        self.rounds = rounds;
    }

    /// The session's virtual clock: an upper bound on any hart's
    /// executed steps, in step-units. Deterministic — it advances with
    /// [`SmpSession::round`], never with host wall-clock.
    pub fn vclock(&self) -> u64 {
        self.rounds * self.quantum
    }

    /// Host wall-clock seconds spent stepping harts so far.
    pub fn host_secs(&self) -> f64 {
        self.host_secs
    }

    /// Count `secs` of stepping done by a session this one replaces
    /// (a self-healing restore), so host rates span the whole run.
    pub fn add_host_secs(&mut self, secs: f64) {
        self.host_secs += secs;
    }

    /// Whether hart `h` has halted (and with what code).
    pub fn halted(&self, h: usize) -> Option<u64> {
        self.smp.machine(h).bus.halted()
    }

    /// Hart `h`'s architectural cycle counter (CSR `cycle`). The serve
    /// driver samples this at round boundaries to translate hart-local
    /// event timestamps into the session's virtual clock.
    pub fn hart_cycles(&self, h: usize) -> u64 {
        self.smp
            .machine(h)
            .cpu
            .csrs
            .read_raw(isa_sim::csr::addr::CYCLE)
    }

    /// Switch on a request buffer in every hart's observability spine
    /// and return the handles, in hart order. The driver tags each
    /// handle with the request in flight and drains it at round
    /// boundaries; request tracing is observe-only (it never changes
    /// modeled cycles, the interleaver, or digests).
    pub fn install_req_tracers(&mut self) -> Vec<isa_obs::Obs> {
        self.smp.install_req_tracers()
    }

    /// Advance every hart selected by `runnable` one quantum, in
    /// ascending hart order, then bump the virtual clock. Harts that
    /// have halted are skipped regardless of `runnable`; a hart that
    /// halts mid-quantum stops early. Returns how many harts actually
    /// stepped.
    ///
    /// `runnable` lets the driver skip harts it knows are idle (e.g.
    /// a dispatcher whose doorbell is clear): determinism holds as
    /// long as the predicate is itself a pure function of
    /// host-visible machine state, because an idle hart's
    /// architectural state is unchanged by not stepping it.
    pub fn round(&mut self, mut runnable: impl FnMut(usize) -> bool) -> usize {
        let t0 = std::time::Instant::now();
        let mut stepped = 0;
        for h in 0..self.smp.harts() {
            if !runnable(h) {
                continue;
            }
            let m = self.smp.machine_mut(h);
            if m.bus.halted().is_some() {
                continue;
            }
            // JIT-accelerated quantum: identical step counts, halts
            // observed at the causing store (MMIO stores deoptimize).
            m.run_steps(self.quantum);
            stepped += 1;
        }
        self.rounds += 1;
        self.host_secs += t0.elapsed().as_secs_f64();
        stepped
    }

    /// Advance every non-halted hart one quantum.
    pub fn round_all(&mut self) -> usize {
        self.round(|_| true)
    }

    /// Harvest hart `h`'s completion-shaped snapshot: its exit code
    /// (0 when still running — SMP service harts often never halt),
    /// counters, audit log and profile. The audit log and profile are
    /// drained; counters are cumulative.
    pub fn harvest(&mut self, h: usize) -> Completion {
        let host_secs = self.host_secs;
        let m = self.smp.machine_mut(h);
        let counters = isa_smp::hart_counters(m);
        let cycles = m.cpu.csrs.read_raw(isa_sim::csr::addr::CYCLE);
        Completion {
            exit_code: m.bus.halted().unwrap_or(0),
            reported: m.bus.value_log(),
            cycles,
            steps: m.steps,
            audit: m.ext.take_audit(),
            profile: m.obs.take_profile(),
            host_secs,
            counters,
        }
    }

    /// Merged whole-machine counters (every hart + the `smp.*` block).
    pub fn counters(&self) -> Counters {
        self.smp.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelConfig, SimBuilder};

    fn exit7() -> isa_asm::Program {
        let mut a = crate::usr::program();
        crate::usr::exit_code(&mut a, 7);
        a.assemble().unwrap()
    }

    #[test]
    fn drain_matches_run_to_halt() {
        let prog = exit7();
        let mut old = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
        let want = old.run_to_halt(1_000_000).unwrap();

        let sim = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
        let c = Session::new(sim).drain(1_000_000).unwrap();
        assert_eq!(c.exit_code, want);
        assert_eq!(c.cycles, old.cycles());
        assert_eq!(c.counters.gates.calls, old.counters().gates.calls);
        assert!(c.audit.is_empty());
        assert!(c.steps > 0);
    }

    #[test]
    fn bounded_stepping_reaches_the_same_halt() {
        let prog = exit7();
        let sim = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
        let mut s = Session::new(sim);
        let mut quanta = 0;
        let code = loop {
            match s.step(16) {
                SessionState::Running => quanta += 1,
                SessionState::Halted(code) => break code,
            }
            assert!(quanta < 1_000_000, "guest never halted");
        };
        assert_eq!(code, 7);
        let c = s.completion();
        assert_eq!(c.exit_code, 7);
        assert!(quanta > 1, "boot takes more than one 16-step quantum");
    }

    #[test]
    fn watchdog_is_an_error_value() {
        let mut a = crate::usr::program();
        a.label("hang");
        a.j("hang");
        let prog = a.assemble().unwrap();
        let sim = SimBuilder::new(KernelConfig::native()).boot(&prog, None);
        let err = Session::new(sim).drain(10_000).unwrap_err();
        assert!(matches!(err, RunError::Watchdog { .. }));
    }

    #[test]
    fn resolved_session_replays_cached_completion() {
        let prog = exit7();
        let sim = SimBuilder::new(KernelConfig::decomposed()).boot(&prog, None);
        let mut s = Session::new(sim);
        let first = s.drain(1_000_000).unwrap();
        // Harvesting drained the audit log and profile; every later
        // call must replay the cached completion, not an emptied one.
        let again = s.drain(1_000_000).unwrap();
        assert_eq!(again.exit_code, first.exit_code);
        assert_eq!(again.cycles, first.cycles);
        assert_eq!(again.reported, first.reported);
        let c = s.completion();
        assert_eq!(c.cycles, first.cycles);
        // Stepping a finished session is a no-op reporting the halt.
        assert_eq!(s.step(100), SessionState::Halted(first.exit_code));
        assert_eq!(s.completion().steps, first.steps);
    }

    #[test]
    fn drain_after_watchdog_replays_the_error() {
        let mut a = crate::usr::program();
        a.label("hang");
        a.j("hang");
        let prog = a.assemble().unwrap();
        let sim = SimBuilder::new(KernelConfig::native()).boot(&prog, None);
        let mut s = Session::new(sim);
        let err = s.drain(10_000).unwrap_err();
        assert!(matches!(err, RunError::Watchdog { .. }));
        // The guest is still hung: a second drain must surface the
        // same structured error immediately, not spin another budget.
        let before = s.sim().machine.steps;
        let again = s.drain(10_000).unwrap_err();
        assert_eq!(again, err);
        assert_eq!(s.sim().machine.steps, before, "no re-stepping");
    }

    #[test]
    fn smp_session_rounds_are_restorable() {
        let bus = isa_sim::Bus::with_harts(isa_sim::DEFAULT_RAM_BASE, 1 << 20, 1);
        let smp = isa_smp::Smp::new(&bus, |_h, hb| {
            isa_sim::Machine::on_bus(isa_grid::Pcu::new(isa_grid::PcuConfig::eight_e()), hb)
        });
        let mut s = SmpSession::new(smp, 8);
        assert_eq!(s.vclock(), 0);
        s.set_rounds(42);
        assert_eq!(s.rounds(), 42);
        assert_eq!(s.vclock(), 42 * 8);
    }
}
