//! Bounded event recording: the ring buffer behind the spine's trace
//! consumer.

use std::collections::VecDeque;

use crate::event::{TimedEvent, TraceEvent};

/// Bounded FIFO of [`TimedEvent`]s; the oldest event is overwritten
/// when capacity is reached, and a monotone sequence number plus a
/// dropped-count make the loss observable.
#[derive(Debug)]
pub struct EventRing {
    cap: usize,
    buf: VecDeque<TimedEvent>,
    seq: u64,
    step: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        EventRing {
            cap,
            buf: VecDeque::with_capacity(cap),
            seq: 0,
            step: 0,
            dropped: 0,
        }
    }

    /// Tag subsequent events with the given committed-instruction step.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent {
            seq: self.seq,
            step: self.step,
            event,
        });
        self.seq += 1;
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Clone out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheKind;
    use crate::spine::{Obs, Spine};

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Trap {
            cause: n,
            pc: n * 4,
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut r = EventRing::new(4);
        for i in 0..10 {
            r.set_step(i);
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_recorded(), 10);
        // The survivors are the newest four, in order, with intact seq/step.
        let kept: Vec<u64> = r.events().map(|t| t.seq).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        for t in r.events() {
            assert_eq!(t.seq, t.step);
            assert_eq!(t.event, ev(t.seq));
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = EventRing::new(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn disabled_sink_never_builds_events() {
        let obs = Obs::off();
        let mut built = false;
        obs.emit(|| {
            built = true;
            ev(0)
        });
        assert!(!built);
        assert!(!obs.is_enabled());
        assert!(obs.events().is_empty());
    }

    #[test]
    fn cloned_sinks_share_one_ring() {
        let a = Obs::new(Spine::new().with_ring(8));
        let b = a.clone();
        a.emit(|| ev(1));
        b.emit(|| TraceEvent::Cache {
            cache: CacheKind::Sgt,
            hit: true,
        });
        let evs = a.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
    }
}
