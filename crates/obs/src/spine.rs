//! The observability spine: one handle, [`Obs`], through which the
//! simulator core and the PCU extension report a run.
//!
//! A [`Spine`] carries up to three consumers, each switched on when the
//! spine is built: the [`EventRing`] of trace events, the per-hart
//! [`Profile`], and the request-event buffer the serve driver drains at
//! round boundaries. The machine builds one [`Commit`] record per step
//! and the spine hands it to every consumer that is on; PCU and host
//! events go to the ring through the same handle, so the whole stream
//! lands in commit order. The disabled handle carries no spine, so a
//! run with observation off pays one `Option` branch per step and never
//! builds a record or an event. Consumers observe; they never change
//! modeled cycles, the interleaver, or a digest.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{TimedEvent, TraceEvent};
use crate::prof::{Profile, StepClass};
use crate::ring::EventRing;
use crate::trace::{HartBuf, HartEvent, ReqEvent, TraceId};

/// One committed step, built once by the machine and passed to every
/// consumer that is on. An interrupt step (`retired == false`, default
/// class) is profiled but leaves no trace or request events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Commit {
    /// The machine's step count at this step (interrupts included).
    pub step: u64,
    /// Virtual PC of the instruction.
    pub pc: u64,
    /// Raw instruction word (0 when the fetch itself trapped).
    pub raw: u32,
    /// ISA domain the hart is in after the step.
    pub domain: u16,
    /// Privilege level the step committed at (0=U, 1=S, 3=M).
    pub priv_level: u8,
    /// Modeled cycles charged by the timing model for the step.
    pub cycles: u64,
    /// The hart's cycle counter after the step (request timestamps).
    pub clock: u64,
    /// Whether an instruction was attempted (`false` for an interrupt).
    pub retired: bool,
    /// Trap cause, if the instruction trapped.
    pub trap: Option<u64>,
    /// Event classification for histogram attribution.
    pub class: StepClass,
    /// The gate switch was a return (`hcrets`).
    pub gate_exit: bool,
    /// `(cause, detail)` of a denied privilege check.
    pub deny: Option<(u64, u64)>,
    /// Coherence epoch acknowledged by the step's shootdown flush
    /// (valid when `class.shootdown_flushed > 0`).
    pub shootdown_epoch: u64,
}

impl Commit {
    /// Whether the request buffer consumes a step with these flags: a
    /// gate switch, a denial or a shootdown flush. The machine asks
    /// before building a record; the spine asks of every record.
    #[inline]
    pub fn notable(gate_switch: bool, denied: bool, shootdown_flushed: u16) -> bool {
        gate_switch || denied || shootdown_flushed > 0
    }
}

/// The consumers of one hart's observation stream.
#[derive(Debug, Default)]
pub struct Spine {
    ring: Option<EventRing>,
    profile: Option<Profile>,
    requests: Option<HartBuf>,
}

impl Spine {
    /// A spine with every consumer off.
    pub fn new() -> Spine {
        Spine::default()
    }

    /// Switch on a trace-event ring retaining at most `cap` events.
    pub fn with_ring(mut self, cap: usize) -> Spine {
        self.ring = Some(EventRing::new(cap));
        self
    }

    /// Switch on cycle attribution into a fresh profile for `hart`.
    pub fn with_profile(mut self, hart: usize) -> Spine {
        self.profile = Some(Profile::new(hart));
        self
    }

    /// Switch on a fresh request-event buffer.
    pub fn with_requests(mut self) -> Spine {
        self.requests = Some(HartBuf::default());
        self
    }

    /// Hand one step to every consumer that is on. The ring tags the
    /// step's own events with `c.step` and what follows with the next
    /// step; the request buffer turns the step's gate, denial and
    /// shootdown flags into request events.
    fn commit(&mut self, c: &Commit) {
        if let Some(ring) = &mut self.ring {
            ring.set_step(c.step);
            if c.retired {
                if let Some(cause) = c.trap {
                    ring.record(TraceEvent::Trap { cause, pc: c.pc });
                }
                ring.record(TraceEvent::Retire {
                    pc: c.pc,
                    raw: c.raw,
                    domain: c.domain,
                    priv_level: c.priv_level,
                    trapped: c.trap.is_some(),
                });
            }
            ring.set_step(c.step + 1);
        }
        if let Some(p) = &mut self.profile {
            p.record_step(c);
        }
        let notable = Commit::notable(
            c.class.gate_switch,
            c.deny.is_some(),
            c.class.shootdown_flushed,
        );
        if let Some(b) = self.requests.as_mut().filter(|_| notable) {
            if c.class.gate_switch {
                let domain = c.domain;
                b.emit(
                    c.clock,
                    if c.gate_exit {
                        ReqEvent::GateExit { domain }
                    } else {
                        ReqEvent::GateEnter { domain }
                    },
                );
            }
            if let Some((cause, detail)) = c.deny {
                b.emit(c.clock, ReqEvent::Deny { cause, detail });
            }
            if c.class.shootdown_flushed > 0 {
                b.emit(
                    c.clock,
                    ReqEvent::ShootdownAck {
                        flushes: c.class.shootdown_flushed,
                        epoch: c.shootdown_epoch,
                    },
                );
            }
        }
    }
}

/// Cheaply-cloneable handle to a shared [`Spine`] — or to nothing.
///
/// The machine and its extension hold clones of one handle. The
/// default handle is off: every method is a single `Option`
/// discriminant test and no closure passed to it is ever called.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Shared>);

/// A spine and whether one of its consumers (the ring or the profile)
/// wants every step. That is fixed when the spine is built, so it sits
/// outside the cell and the per-step tests need no borrow.
#[derive(Debug, Clone)]
struct Shared {
    spine: Rc<RefCell<Spine>>,
    per_step: bool,
}

impl Obs {
    /// The disabled handle.
    pub fn off() -> Obs {
        Obs(None)
    }

    /// A handle to `spine`; off when the spine has no consumer.
    pub fn new(spine: Spine) -> Obs {
        let per_step = spine.ring.is_some() || spine.profile.is_some();
        let on = per_step || spine.requests.is_some();
        Obs(on.then(|| Shared {
            spine: Rc::new(RefCell::new(spine)),
            per_step,
        }))
    }

    /// This handle's spine with a fresh request buffer switched on (a
    /// new spine when the handle was off). Other consumers are kept.
    pub fn with_requests(self) -> Obs {
        match self.0 {
            Some(sh) => {
                sh.spine.borrow_mut().requests = Some(HartBuf::default());
                Obs(Some(sh))
            }
            None => Obs::new(Spine::new().with_requests()),
        }
    }

    /// Run `f` on the spine; `None` when the handle is off.
    #[inline]
    fn spine<R>(&self, f: impl FnOnce(&mut Spine) -> Option<R>) -> Option<R> {
        self.0.as_ref().and_then(|sh| f(&mut sh.spine.borrow_mut()))
    }

    /// Whether any consumer is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether a consumer needs every step (the ring or the profile),
    /// which keeps the machine off the superblock JIT. Request tracing
    /// alone does not: gate crossings are serializing and never run
    /// inside a block, and denials or shootdowns taken inside a block
    /// surface on the first interpreted step after it.
    #[inline]
    pub fn per_step(&self) -> bool {
        self.0.as_ref().is_some_and(|sh| sh.per_step)
    }

    /// The handle an emitter of ring events only (the PCU) should
    /// hold: a clone when the ring is on, the off handle otherwise, so
    /// its events cost one branch each when nothing records them.
    pub fn ring_handle(&self) -> Obs {
        if self.spine(|s| s.ring.as_ref().map(|_| ())).is_some() {
            self.clone()
        } else {
            Obs::off()
        }
    }

    /// Pass the step record built by `f` to every consumer that is on.
    /// `f` is called only when a consumer wants the step: the ring and
    /// the profile want every step, the request buffer only a
    /// `notable` one (see [`Commit::notable`]), so request tracing
    /// alone costs a few branches per ordinary step and no borrow.
    #[inline]
    pub fn commit(&self, notable: bool, f: impl FnOnce() -> Commit) {
        if let Some(sh) = &self.0 {
            // A spine with no per-step consumer has the request buffer.
            if sh.per_step || notable {
                let c = f();
                sh.spine.borrow_mut().commit(&c);
            }
        }
    }

    /// Record the trace event built by `f` into the ring; `f` is not
    /// called unless the ring is on.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        self.spine(|s| s.ring.as_mut().map(|r| r.record(f())));
    }

    /// Record the request event built by `f` at hart-local cycle `t`;
    /// `f` is not called unless the request buffer is on.
    #[inline]
    pub fn request(&self, t: u64, f: impl FnOnce() -> ReqEvent) {
        self.spine(|s| s.requests.as_mut().map(|b| b.emit(t, f())));
    }

    /// Align the ring's step tags with a machine that has executed
    /// `steps` steps: events recorded before its next commit belong to
    /// step `steps + 1`.
    pub fn sync_step(&self, steps: u64) {
        self.spine(|s| s.ring.as_mut().map(|r| r.set_step(steps + 1)));
    }

    /// Clone out the retained ring events, oldest first (empty unless
    /// the ring is on).
    pub fn events(&self) -> Vec<TimedEvent> {
        self.spine(|s| s.ring.as_ref().map(EventRing::snapshot))
            .unwrap_or_default()
    }

    /// Ring events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.spine(|s| s.ring.as_ref().map(EventRing::dropped))
            .unwrap_or(0)
    }

    /// Take the accumulated profile (closing its open span), leaving a
    /// fresh one for the same hart. `None` unless the profile is on.
    pub fn take_profile(&self) -> Option<Profile> {
        let mut out = self.spine(|s| {
            let p = s.profile.as_mut()?;
            Some(std::mem::replace(p, Profile::new(p.hart)))
        })?;
        out.finish();
        Some(out)
    }

    /// Set the request the hart is currently serving (0 = idle).
    pub fn set_current(&self, id: TraceId) {
        self.spine(|s| s.requests.as_mut().map(|b| b.cur = id));
    }

    /// Drain the buffered request events (oldest first), keeping the
    /// current-request tag.
    pub fn drain_requests(&self) -> Vec<HartEvent> {
        self.spine(|s| s.requests.as_mut().map(|b| std::mem::take(&mut b.buf)))
            .unwrap_or_default()
    }

    /// `(emitted, dropped)` lifetime request-event tallies.
    pub fn request_counts(&self) -> (u64, u64) {
        self.spine(|s| s.requests.as_ref().map(|b| (b.emitted, b.dropped)))
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheKind;

    fn gate_commit(step: u64) -> Commit {
        Commit {
            step,
            pc: 0x100 + 4 * step,
            raw: 0x13,
            domain: 2,
            priv_level: 1,
            cycles: 3,
            clock: 10 * step,
            retired: true,
            class: StepClass {
                gate_switch: true,
                ..StepClass::default()
            },
            ..Commit::default()
        }
    }

    #[test]
    fn disabled_obs_never_builds_anything() {
        let obs = Obs::off();
        assert_eq!(Obs::new(Spine::new()).is_enabled(), obs.is_enabled());
        let mut built = 0;
        obs.commit(true, || {
            built += 1;
            gate_commit(1)
        });
        obs.emit(|| {
            built += 1;
            TraceEvent::Trap { cause: 2, pc: 0 }
        });
        obs.request(1, || {
            built += 1;
            ReqEvent::GateEnter { domain: 1 }
        });
        assert_eq!(built, 0);
        assert!(!obs.is_enabled() && !obs.per_step());
        assert!(obs.events().is_empty());
        assert!(obs.take_profile().is_none());
        assert!(obs.drain_requests().is_empty());
        assert_eq!(obs.request_counts(), (0, 0));
    }

    #[test]
    fn consumers_that_are_off_build_nothing() {
        let obs = Obs::new(Spine::new().with_requests());
        assert!(obs.is_enabled() && !obs.per_step());
        obs.emit(|| panic!("the ring is off"));
        obs.commit(false, || panic!("only notable steps reach requests"));
        let obs = Obs::new(Spine::new().with_profile(0));
        obs.request(0, || panic!("the request buffer is off"));
    }

    #[test]
    fn one_spine_feeds_every_consumer_in_commit_order() {
        let obs = Obs::new(Spine::new().with_ring(64).with_profile(3).with_requests());
        assert!(obs.per_step());
        obs.sync_step(0);
        obs.set_current(7);
        for step in 1..=3 {
            // A PCU event mid-step, then the step's commit.
            obs.emit(|| TraceEvent::Cache {
                cache: CacheKind::Sgt,
                hit: true,
            });
            obs.commit(true, || gate_commit(step));
        }
        let events = obs.events();
        assert_eq!(events.len(), 6);
        for (i, pair) in events.chunks(2).enumerate() {
            let step = i as u64 + 1;
            assert!(matches!(pair[0].event, TraceEvent::Cache { .. }));
            assert!(matches!(
                pair[1].event,
                TraceEvent::Retire { domain: 2, .. }
            ));
            assert_eq!((pair[0].step, pair[1].step), (step, step));
            assert!(pair[0].seq < pair[1].seq);
        }
        let p = obs.take_profile().unwrap();
        assert_eq!((p.hart, p.steps(), p.cycles()), (3, 3, 9));
        assert_eq!(p.gate_switch.count(), 3);
        let reqs = obs.drain_requests();
        let times: Vec<u64> = reqs.iter().map(|e| e.t).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(reqs
            .iter()
            .all(|e| e.id == 7 && e.ev == ReqEvent::GateEnter { domain: 2 }));
        assert_eq!(obs.request_counts(), (3, 0));
    }

    #[test]
    fn interrupt_steps_are_profiled_only() {
        let obs = Obs::new(Spine::new().with_ring(8).with_profile(0).with_requests());
        obs.set_current(1);
        obs.commit(false, || Commit {
            step: 1,
            cycles: 5,
            ..Commit::default()
        });
        assert!(obs.events().is_empty());
        assert!(obs.drain_requests().is_empty());
        assert_eq!(obs.take_profile().unwrap().cycles(), 5);
    }

    #[test]
    fn with_requests_keeps_the_other_consumers() {
        let a = Obs::new(Spine::new().with_ring(8));
        let b = a.clone().with_requests();
        a.emit(|| TraceEvent::Trap { cause: 1, pc: 4 });
        b.set_current(5);
        a.request(9, || ReqEvent::Deny {
            cause: 25,
            detail: 0x305,
        });
        assert_eq!(b.events().len(), 1);
        assert_eq!(b.drain_requests().len(), 1);
        let c = Obs::off().with_requests();
        assert!(c.is_enabled() && !c.per_step());
    }

    #[test]
    fn ring_handle_shares_the_ring_or_is_off() {
        let obs = Obs::new(Spine::new().with_ring(8).with_profile(0));
        obs.ring_handle()
            .emit(|| TraceEvent::Trap { cause: 1, pc: 4 });
        assert_eq!(obs.events().len(), 1);
        for obs in [
            Obs::new(Spine::new().with_profile(0).with_requests()),
            Obs::off(),
        ] {
            assert!(!obs.ring_handle().is_enabled());
        }
    }
}
