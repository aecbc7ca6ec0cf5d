//! In-order streams: a FIFO of items keyed `(time, seq)` of which only the head is ever a
//! kernel event.
//!
//! Each item reserves its insertion seq from the kernel's queue when it is created, so it
//! keeps the key one [`Simulation::schedule_at`] per item would have given it. When the
//! head's event pops, the handler handles the head and then advances the stream: the next
//! item fires inline when it is the earliest pending event inside the drain's horizon
//! (`Simulation::fire_inline`) and is armed as the head otherwise. Items are therefore
//! handled in the order, and at the clock, of one event per item
//! (`crates/sim/tests/stream_equivalence.rs`). An item earlier than the tail is refused and
//! handed back with its seq, for the holder to schedule as an event of its own.

use crate::{SimTime, Simulation};
use std::collections::VecDeque;

/// A FIFO of `(time, seq, item)` in strictly increasing key order whose head, and only its
/// head, stands in the kernel as one event. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct InOrderStream<T> {
    /// The queued items; the front is the head, which stays queued while it is handled.
    items: VecDeque<(SimTime, u64, T)>,
}

impl<T> Default for InOrderStream<T> {
    /// An empty stream.
    fn default() -> Self {
        Self {
            items: VecDeque::new(),
        }
    }
}

impl<T: Copy> InOrderStream<T> {
    /// Queues `item` at `time` (clamped to `now`) under a freshly reserved seq; into an
    /// empty stream, with `head()` scheduled as the event standing for it. An item earlier
    /// than the tail is refused: `Err((seq, item))` hands it back with its reserved seq.
    pub fn push<E>(
        &mut self,
        sim: &mut Simulation<E>,
        time: SimTime,
        item: T,
        head: impl FnOnce() -> E,
    ) -> Result<(), (u64, T)> {
        let time = time.max(sim.now());
        let seq = sim.queue.reserve_seq();
        if self.items.back().is_some_and(|&(tail, _, _)| time < tail) {
            return Err((seq, item));
        }
        if self.items.is_empty() {
            sim.schedule_at_with_seq(time, seq, head());
        }
        self.items.push_back((time, seq, item));
        Ok(())
    }

    /// The head item, to handle when the event standing for it pops.
    pub fn head(&self) -> T {
        let &(_, _, item) = self.items.front().expect("a stream event pops for a queued head");
        item
    }

    /// Retires the handled head. Returns the next item and its time when it fires inline,
    /// the clock advanced to it (handle it, then advance again); otherwise `None`, with the
    /// next item, if any, armed as `head()` under its own key.
    pub fn advance<E>(&mut self, sim: &mut Simulation<E>, head: impl FnOnce() -> E) -> Option<(SimTime, T)> {
        self.items.pop_front();
        let &(time, seq, item) = self.items.front()?;
        if sim.fire_inline(time, seq) {
            return Some((time, item));
        }
        sim.schedule_at_with_seq(time, seq, head());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Actor;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Head,
        Plain(u32),
    }

    struct Drainer {
        stream: InOrderStream<u32>,
        fired: Vec<(u64, u32)>,
    }

    impl Actor for Drainer {
        type Event = Ev;
        fn on_event(&mut self, now: SimTime, event: Ev, sim: &mut Simulation<Ev>) {
            let mut item = match event {
                Ev::Plain(item) => {
                    self.fired.push((now.as_micros(), item));
                    return;
                }
                Ev::Head => (now, self.stream.head()),
            };
            loop {
                self.fired.push((item.0.as_micros(), item.1));
                match self.stream.advance(sim, || Ev::Head) {
                    Some(next) => item = next,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn only_the_head_is_a_kernel_event_and_late_items_are_refused() {
        let mut sim = Simulation::new();
        let mut stream = InOrderStream::default();
        for (t, item) in [(10, 1), (20, 2), (20, 3)] {
            assert!(stream
                .push(&mut sim, SimTime::from_micros(t), item, || Ev::Head)
                .is_ok());
        }
        assert_eq!(sim.pending(), 1, "one event stands for the stream");
        let refused = stream.push(&mut sim, SimTime::from_micros(15), 4, || Ev::Head);
        assert_eq!(
            refused,
            Err((3, 4)),
            "earlier than the tail: refused with its reserved seq"
        );
        sim.schedule_at_with_seq(SimTime::from_micros(15), 3, Ev::Plain(4));
        let mut actor = Drainer {
            stream,
            fired: Vec::new(),
        };
        sim.run_until(SimTime::from_micros(100), &mut actor);
        assert_eq!(actor.fired, vec![(10, 1), (15, 4), (20, 2), (20, 3)]);
        // Item 1's event, the refused item's and the re-armed head's (item 2) popped; item 3
        // fired inline behind item 2.
        assert_eq!((sim.events_popped(), sim.events_inline()), (3, 1));
    }

    #[test]
    fn a_drained_stream_arms_again_on_its_next_push() {
        let mut sim = Simulation::new();
        let mut actor = Drainer {
            stream: InOrderStream::default(),
            fired: Vec::new(),
        };
        for round in 0..3u64 {
            let t = SimTime::from_micros(round * 100 + 50);
            actor.stream.push(&mut sim, t, round as u32, || Ev::Head).unwrap();
            sim.run_until(SimTime::from_micros(round * 100 + 99), &mut actor);
        }
        assert_eq!(actor.fired, vec![(50, 0), (150, 1), (250, 2)]);
        assert_eq!(sim.events_scheduled(), 3);
    }
}
