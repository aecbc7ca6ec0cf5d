//! Kernel equivalence: holding items in [`InOrderStream`]s and firing them inline is a
//! scheduling optimisation, invisible to whoever handles them. One random program runs
//! twice — every item a plain event, or every streamable item pushed to one of two
//! streams (refused ones scheduled as plain events under their reserved seq) — and both
//! forms must handle the same `(time, item)` sequence in the same `run_until` windows and
//! end every window on the same clock.
//!
//! Handling an item spawns children drawn from the item's label, so both forms run the
//! same program as long as they handle items in the same order. The case mix: children
//! land on a handful of offsets (ties at one instant), a stream's tail is often later
//! than a new child (out-of-order pushes), some children are `schedule_last_at` events,
//! and the timeline is drained in random `run_until` windows that cut streams mid-burst.

use aivc_sim::{Actor, InOrderStream, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[derive(Debug)]
enum Ev {
    Item(u32),
    Last(u32),
    Head(usize),
}

/// One run of the program: what it handled and how often each case of the mix came up.
struct World {
    streamed: bool,
    seed: u64,
    limit: u32,
    streams: [InOrderStream<u32>; 2],
    next_label: u32,
    /// The `run_until` window in progress.
    window: u32,
    /// `(window, time, item)` of every handled item, in handling order.
    handled: Vec<(u32, u64, u32)>,
    refused: u32,
    last_events: u32,
    /// Items the streams hold, the head being handled included.
    held: u32,
}

impl World {
    fn new(streamed: bool, seed: u64, limit: u32) -> Self {
        Self {
            streamed,
            seed,
            limit,
            streams: Default::default(),
            next_label: 0,
            window: 0,
            handled: Vec::new(),
            refused: 0,
            last_events: 0,
            held: 0,
        }
    }

    /// Creates the next item at `at`: a plain event, a last-at-its-instant event or, when
    /// `stream` names one, a streamable item.
    fn spawn(&mut self, sim: &mut Simulation<Ev>, at: SimTime, kind: u32) {
        if self.next_label >= self.limit {
            return;
        }
        let label = self.next_label;
        self.next_label += 1;
        match kind {
            0 => {
                self.last_events += 1;
                sim.schedule_last_at(at, Ev::Last(label));
            }
            1 => {
                sim.schedule_at(at, Ev::Item(label));
            }
            _ if !self.streamed => {
                sim.schedule_at(at, Ev::Item(label));
            }
            k => {
                let s = (k % 2) as usize;
                match self.streams[s].push(sim, at, label, || Ev::Head(s)) {
                    Ok(()) => self.held += 1,
                    Err((seq, label)) => {
                        self.refused += 1;
                        sim.schedule_at_with_seq(at, seq, Ev::Item(label));
                    }
                }
            }
        }
    }

    fn handle(&mut self, now: SimTime, label: u32, sim: &mut Simulation<Ev>) {
        self.handled.push((self.window, now.as_micros(), label));
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ u64::from(label).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..rng.gen_range(0u32..4) {
            let at = now + SimDuration::from_micros(rng.gen_range(0u64..6) * 5);
            let kind = rng.gen_range(0u32..8);
            self.spawn(sim, at, kind);
        }
    }
}

impl Actor for World {
    type Event = Ev;

    fn on_event(&mut self, now: SimTime, event: Ev, sim: &mut Simulation<Ev>) {
        match event {
            Ev::Item(label) | Ev::Last(label) => self.handle(now, label, sim),
            Ev::Head(s) => {
                let (mut now, mut label) = (now, self.streams[s].head());
                loop {
                    self.handle(now, label, sim);
                    self.held -= 1;
                    match self.streams[s].advance(sim, || Ev::Head(s)) {
                        Some(next) => (now, label) = next,
                        None => break,
                    }
                }
            }
        }
    }
}

/// Runs the program of `seed` in one form: a few roots, then random windows, then a final
/// window far past every item. Returns the world, the simulation, the clock after each
/// window and how many windows ended while a stream still held items.
fn run(seed: u64, streamed: bool) -> (World, Simulation<Ev>, Vec<SimTime>, u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut world = World::new(streamed, seed, rng.gen_range(20u32..300));
    let mut sim = Simulation::new();
    for _ in 0..rng.gen_range(1u32..6) {
        let at = SimTime::from_micros(rng.gen_range(0u64..4) * 5);
        let kind = rng.gen_range(0u32..8);
        world.spawn(&mut sim, at, kind);
    }
    let mut horizon = SimTime::ZERO;
    let (mut clocks, mut cuts) = (Vec::new(), 0);
    for _ in 0..rng.gen_range(0u32..40) {
        horizon += SimDuration::from_micros(rng.gen_range(0u64..30));
        sim.run_until(horizon, &mut world);
        clocks.push(sim.now());
        cuts += u32::from(world.held > 0);
        world.window += 1;
    }
    sim.run_until(horizon + SimDuration::from_millis(1_000), &mut world);
    clocks.push(sim.now());
    (world, sim, clocks, cuts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plain events and streamed items handle the same `(time, item)` sequence, window by
    /// window, and the clock ends every window at the same time; every handled event is a
    /// pop in the plain form and a pop or an inline firing in the streamed one.
    #[test]
    fn streamed_items_are_handled_exactly_like_plain_events(seed in 0u64..1_000_000) {
        let (plain, plain_sim, plain_clocks, _) = run(seed, false);
        let (streamed, streamed_sim, streamed_clocks, _) = run(seed, true);
        prop_assert_eq!(&streamed.handled, &plain.handled);
        prop_assert_eq!(streamed.handled.len() as u32, streamed.next_label);
        prop_assert_eq!(streamed_clocks, plain_clocks);
        prop_assert_eq!(
            streamed_sim.events_popped() + streamed_sim.events_inline(),
            plain_sim.events_popped()
        );
        prop_assert_eq!(plain_sim.events_inline(), 0);
        prop_assert!(streamed_sim.events_scheduled() <= plain_sim.events_scheduled());
    }
}

/// The property's case mix is not vacuous: over a range of seeds, items fire inline, late
/// items are refused, last-at-their-instant events run and windows cut streams mid-burst.
#[test]
fn the_case_mix_reaches_every_case() {
    let (mut inline, mut refused, mut last, mut cuts) = (0, 0, 0, 0);
    for seed in 0..64 {
        let (world, sim, _, cut) = run(seed, true);
        inline += sim.events_inline();
        refused += world.refused;
        last += world.last_events;
        cuts += cut;
    }
    assert!(
        inline > 0 && refused > 0 && last > 0 && cuts > 0,
        "{inline} {refused} {last} {cuts}"
    );
}
