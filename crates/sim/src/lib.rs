//! # aivc-sim — the deterministic discrete-event simulation kernel
//!
//! Every simulated experiment in this repository — the emulated link, the RTC session
//! runner, the network-in-the-loop chat turn, multi-turn conversations — advances the same
//! kind of virtual time. This crate is the one place that owns that machinery (in the
//! spirit of dslab-style simulation cores): a microsecond [`SimTime`] clock that only the
//! kernel advances, a binary-heap [`EventQueue`] with deterministic `(time, insertion
//! seq)` ordering, slab-recycled event slots and O(1) cancellation, and a minimal
//! [`Actor`] loop ([`Simulation::run_until`]) that drives a state machine through its due
//! events.
//!
//! Design rules (see DESIGN.md §"Simulation kernel"):
//!
//! * **the clock is monotonic** — it advances only when an event pops (to that event's
//!   time) or when [`Simulation::run_until`] drains a window (to the horizon), never
//!   backwards;
//! * **ties break by insertion order** — two events at the same instant pop in the order
//!   they were scheduled, so heap internals can never introduce run-to-run nondeterminism;
//! * **steady state allocates nothing** — the queue recycles its slots, so long-lived
//!   simulations (a conversation spanning many turns) schedule, cancel and pop without
//!   touching the heap allocator once warm.
//!
//! The kernel knows nothing about packets, links or codecs: higher layers define an event
//! enum, implement [`Actor`] over it, and own all domain state.

pub mod queue;
pub mod time;

pub use queue::{EventId, EventQueue};
pub use time::{SimDuration, SimTime};

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
    popped: u64,
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
            popped: 0,
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
        self.queue.schedule(time.max(self.now), event)
    }

    /// Schedules `event` at `time` under a previously issued sequence number, so a
    /// multi-shot event keeps its tie-break position across re-arms. See
    /// [`EventQueue::schedule_with_seq`] for the contract (`seq` must belong to an event
    /// that already popped — typically the one currently being handled).
    pub fn schedule_at_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        self.queue.schedule_with_seq(time.max(self.now), seq, event)
    }

    /// The sequence number the next schedule call will assign (the tie-break key a
    /// freshly scheduled event will carry).
    pub fn next_seq(&self) -> u64 {
        self.queue.next_seq()
    }

    /// Cancels a pending event. Returns `false` if it already fired or was canceled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
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
    /// window when they land inside it.
    pub fn run_until<A: Actor<Event = E>>(&mut self, horizon: SimTime, actor: &mut A) {
        while let Some((now, event)) = self.pop_due(horizon) {
            actor.on_event(now, event, self);
        }
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
        let mut actor = Collector {
            fired: Vec::new(),
            chain_from: None,
        };
        sim.run_until(SimTime::from_micros(20), &mut actor);
        assert_eq!(actor.fired, vec![(10, 1)]);
        assert!(!sim.cancel(keep), "already fired");
    }
}
