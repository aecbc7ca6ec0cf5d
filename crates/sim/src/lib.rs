//! # aivc-sim — the deterministic discrete-event simulation kernel
//!
//! Every simulated experiment in this repository — the emulated link, the RTC session
//! runner, the network-in-the-loop chat turn, multi-turn conversations — advances the same
//! kind of virtual time. This crate is the one place that owns that machinery (in the
//! spirit of dslab-style simulation cores): a microsecond [`SimTime`] clock that only the
//! kernel advances, a binary-heap [`EventQueue`] with deterministic `(time, insertion
//! seq)` ordering, slab-recycled event slots and O(1) cancellation, a minimal [`Actor`]
//! loop ([`Simulation::run_until`]) that drives a state machine through its due events,
//! and [`InOrderStream`]s, whose items keep the keys they were created with while only
//! the head of each stream sits in the heap.
//!
//! Design rules (see DESIGN.md §"Simulation kernel"):
//!
//! * **the clock is monotonic** — it advances only when an event pops or a held item
//!   fires inline (`Simulation::fire_inline`; to that event's or item's time) or when
//!   [`Simulation::run_until`] drains a window (to the horizon), never backwards;
//! * **ties break by insertion order** — two events at the same instant pop in the order
//!   they were scheduled, so heap internals can never introduce run-to-run nondeterminism;
//! * **steady state allocates nothing** — the queue recycles its slots, so long-lived
//!   simulations (a conversation spanning many turns) schedule, cancel and pop without
//!   touching the heap allocator once warm.
//!
//! The kernel knows nothing about packets, links or codecs: higher layers define an event
//! enum, implement [`Actor`] over it, and own all domain state.

pub mod queue;
pub mod stream;
pub mod time;

pub use queue::{EventId, EventQueue};
pub use stream::InOrderStream;
pub use time::{SimDuration, SimTime, TimeError, MAX_TIME};

/// A state machine driven by the kernel: [`Simulation::run_until`] pops each due event and
/// hands it to [`Actor::on_event`] together with the simulation handle, through which the
/// actor schedules (or cancels) follow-up events.
pub trait Actor {
    /// The event payload type of this actor's simulation.
    type Event;

    /// Handles one event at its firing time. `now` equals [`Simulation::now`].
    fn on_event(&mut self, now: SimTime, event: Self::Event, sim: &mut Simulation<Self::Event>);
}

/// A monotonic virtual clock plus the pending-event queue: the complete simulation state
/// of one timeline.
///
/// The kernel is deliberately *driveable from outside*: callers may [`Simulation::pop`]
/// events themselves, or hand an [`Actor`] to [`Simulation::run_until`]. Both advance the
/// same clock, so phases of direct driving (a turn runner collecting per-turn statistics)
/// and actor-driven draining (think-time gaps between turns) compose on one timeline.
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    /// The horizon of the [`Simulation::run_until`] drain in progress, if any: held items
    /// fire inline only inside it.
    horizon: Option<SimTime>,
    scheduled: u64,
    popped: u64,
    inline: u64,
    cancelled: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// A simulation starting at `t = 0` with no pending events.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
            scheduled: 0,
            popped: 0,
            inline: 0,
            cancelled: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// The clock is monotonic: a time in the past is clamped to `now` (the event fires
    /// immediately on the next pop, after already-pending events at `now` — insertion
    /// order breaks the tie).
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        self.scheduled += 1;
        self.queue.schedule(time.max(self.now), event)
    }

    /// Schedules `event` at `time` after every event of that instant scheduled with
    /// [`Simulation::schedule_at`], those scheduled while the instant is processed included
    /// (see [`EventQueue::schedule_last`]): a handler that must see everything its instant
    /// brings. A time in the past is clamped to `now`, as there.
    pub fn schedule_last_at(&mut self, time: SimTime, event: E) -> EventId {
        self.scheduled += 1;
        self.queue.schedule_last(time.max(self.now), event)
    }

    /// Schedules `event` at `time` under a reserved sequence number (one an
    /// [`InOrderStream`] refused an item with), so it pops where an event scheduled at the
    /// moment of the reservation would. See [`EventQueue::schedule_with_seq`] for the
    /// contract (the seq belongs to no pending event). A time in the past is clamped to
    /// `now`.
    pub fn schedule_at_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        self.scheduled += 1;
        self.queue.schedule_with_seq(time.max(self.now), seq, event)
    }

    /// Fires a held item keyed `(time, seq)` (its seq reserved when it was created) inline,
    /// advancing the clock to `time`, when it is what the drain would pop next had it been
    /// scheduled: inside a [`Simulation::run_until`] drain, at or before its horizon, and
    /// ahead of every pending event. Returns `false`, moving nothing, otherwise — the
    /// holder then schedules it under the same key.
    pub(crate) fn fire_inline(&mut self, time: SimTime, seq: u64) -> bool {
        let due = self.horizon.is_some_and(|horizon| time <= horizon)
            && self.queue.peek_key().is_none_or(|head| (time, seq) < head);
        if due {
            self.inline += 1;
            self.now = self.now.max(time);
        }
        due
    }

    /// Cancels a pending event. Returns `false` if it already fired or was canceled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.queue.cancel(id);
        self.cancelled += u64::from(cancelled);
        cancelled
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events popped so far — the deterministic measure of how much work the timeline has
    /// done, which a test can hold to a budget where wall-clock would be noise.
    pub fn events_popped(&self) -> u64 {
        self.popped
    }

    /// Held items fired inline so far (`Simulation::fire_inline`): events handled without
    /// a trip through the heap. Handled events are `events_popped + events_inline`.
    pub fn events_inline(&self) -> u64 {
        self.inline
    }

    /// Events inserted into the heap so far.
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Pending events cancelled so far (a cancel that found its event gone does not count).
    pub fn events_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Pops the earliest pending event and advances the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        self.popped += 1;
        self.now = self.now.max(time);
        Some((self.now, event))
    }

    /// Pops the earliest pending event if it fires at or before `horizon`, advancing the
    /// clock to its firing time. Events beyond the horizon stay queued — with a persistent
    /// timeline they fire in a later window (this is what lets in-flight packets survive a
    /// turn boundary).
    fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.queue.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }

    /// Drains every event due at or before `horizon` through `actor`, then advances the
    /// clock to the horizon. Events the actor schedules during the drain fire in this same
    /// window when they land inside it, and so may the items it holds
    /// (`Simulation::fire_inline`).
    pub fn run_until<A: Actor<Event = E>>(&mut self, horizon: SimTime, actor: &mut A) {
        let outer = self.horizon.replace(horizon);
        while let Some((now, event)) = self.pop_due(horizon) {
            actor.on_event(now, event, self);
        }
        self.horizon = outer;
        self.now = self.now.max(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collector {
        fired: Vec<(u64, u32)>,
        chain_from: Option<u32>,
    }

    impl Actor for Collector {
        type Event = u32;
        fn on_event(&mut self, now: SimTime, event: u32, sim: &mut Simulation<u32>) {
            self.fired.push((now.as_micros(), event));
            if Some(event) == self.chain_from {
                // A handler scheduling inside the window must fire in the same drain.
                sim.schedule_at(now + SimDuration::from_micros(1), event + 100);
            }
        }
    }

    #[test]
    fn run_until_drains_in_order_and_advances_to_horizon() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_micros(30), 3);
        sim.schedule_at(SimTime::from_micros(10), 1);
        sim.schedule_at(SimTime::from_micros(20), 2);
        sim.schedule_at(SimTime::from_micros(99), 9); // beyond horizon: stays queued
        let mut actor = Collector {
            fired: Vec::new(),
            chain_from: None,
        };
        sim.run_until(SimTime::from_micros(50), &mut actor);
        assert_eq!(actor.fired, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.events_popped(), 3);
        assert_eq!(sim.events_scheduled(), 4);
        assert_eq!(sim.now(), SimTime::from_micros(50));
        assert_eq!(sim.pending(), 1, "the beyond-horizon event survives the window");
        // The next window picks the survivor up.
        sim.run_until(SimTime::from_micros(100), &mut actor);
        assert_eq!(actor.fired.last(), Some(&(99, 9)));
    }

    #[test]
    fn events_scheduled_during_a_drain_fire_in_the_same_window() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_micros(10), 7);
        let mut actor = Collector {
            fired: Vec::new(),
            chain_from: Some(7),
        };
        sim.run_until(SimTime::from_micros(50), &mut actor);
        assert_eq!(actor.fired, vec![(10, 7), (11, 107)]);
    }

    #[test]
    fn clock_is_monotonic_and_past_schedules_clamp_to_now() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule_at(SimTime::from_micros(100), 1);
        assert_eq!(sim.pop().unwrap(), (SimTime::from_micros(100), 1));
        // Scheduling in the past clamps to now and fires immediately.
        sim.schedule_at(SimTime::from_micros(5), 2);
        let (t, e) = sim.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(100), 2));
        assert_eq!(sim.now(), SimTime::from_micros(100));
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule_at(SimTime::from_micros(10), 1);
        sim.schedule_at(SimTime::from_micros(20), 2);
        assert_eq!(
            sim.pop_due(SimTime::from_micros(15)),
            Some((SimTime::from_micros(10), 1))
        );
        assert_eq!(sim.pop_due(SimTime::from_micros(15)), None);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn cancellation_through_the_simulation_handle() {
        let mut sim: Simulation<u32> = Simulation::new();
        let keep = sim.schedule_at(SimTime::from_micros(10), 1);
        let drop_ = sim.schedule_at(SimTime::from_micros(10), 2);
        assert!(sim.cancel(drop_));
        assert!(!sim.cancel(drop_));
        assert_eq!(sim.events_cancelled(), 1);
        let mut actor = Collector {
            fired: Vec::new(),
            chain_from: None,
        };
        sim.run_until(SimTime::from_micros(20), &mut actor);
        assert_eq!(actor.fired, vec![(10, 1)]);
        assert!(!sim.cancel(keep), "already fired");
    }

    /// An actor that holds items keyed by reserved seqs and fires them inline while they
    /// precede the heap: `fired` records (time, item) and whether it fired inline.
    struct Holder {
        held: Vec<(SimTime, u64, u32)>,
        fired: Vec<(u64, u32, bool)>,
    }

    impl Actor for Holder {
        type Event = u32;
        fn on_event(&mut self, now: SimTime, event: u32, sim: &mut Simulation<u32>) {
            self.fired.push((now.as_micros(), event, false));
            while let Some(&(time, seq, item)) = self.held.first() {
                if !sim.fire_inline(time, seq) {
                    break;
                }
                self.held.remove(0);
                self.fired.push((sim.now().as_micros(), item, true));
            }
        }
    }

    #[test]
    fn held_items_fire_inline_only_ahead_of_the_heap_and_inside_the_horizon() {
        let mut sim = Simulation::new();
        let early = sim.queue.reserve_seq();
        sim.schedule_at(SimTime::from_micros(10), 1);
        sim.schedule_at(SimTime::from_micros(20), 2);
        let tied = sim.queue.reserve_seq();
        let late = sim.queue.reserve_seq();
        let mut actor = Holder {
            // 15 µs precedes event 2; the tie at 20 µs was reserved after event 2's seq;
            // 40 µs lies past the first window.
            held: vec![
                (SimTime::from_micros(15), early, 101),
                (SimTime::from_micros(20), tied, 102),
                (SimTime::from_micros(40), late, 103),
            ],
            fired: Vec::new(),
        };
        assert!(
            !sim.fire_inline(SimTime::from_micros(15), early),
            "no drain, no inline firing"
        );
        sim.run_until(SimTime::from_micros(30), &mut actor);
        assert_eq!(
            actor.fired,
            vec![(10, 1, false), (15, 101, true), (20, 2, false), (20, 102, true)]
        );
        assert_eq!((sim.events_popped(), sim.events_inline()), (2, 2));
        assert_eq!(sim.now(), SimTime::from_micros(30));
        assert_eq!(actor.held.len(), 1, "the item past the horizon stays held");
    }
}
