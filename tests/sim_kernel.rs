//! Property tests of the `aivc-sim` kernel: the determinism contract every golden fixture
//! in this repository ultimately rests on.
//!
//! * any interleaving of `schedule`/`cancel` at equal timestamps pops the surviving
//!   events in insertion order (the heap can never reorder same-time events);
//! * arbitrary mixed-time workloads pop exactly like a reference model (a stable sort by
//!   `(time, insertion seq)` with cancellations removed);
//! * the slab recycles slots without resurrecting canceled events;
//! * the kernel's work counts balance: every event scheduled was popped, cancelled or is
//!   still pending.
//!
//! The companion acceptance property — a multi-turn conversation replayed from the same
//! seed is bit-identical at `AIVC_POOL_SIZE` 1/2/8 — lives in `tests/networked_server.rs`
//! (`conversation_server_results_are_independent_of_pool_size`).

use aivchat::sim::{EventQueue, SimTime, Simulation};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal timestamps, random schedule/cancel interleavings: survivors pop in insertion
    /// order.
    #[test]
    fn equal_time_interleavings_pop_in_insertion_order(seed in 0u64..10_000, ops in 4usize..120) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = SimTime::from_millis(42);
        let mut q = EventQueue::new();
        let mut live = Vec::new(); // (label, id), insertion order
        let mut next_label = 0u32;
        for _ in 0..ops {
            // 2:1 mix of schedules and cancels, cancels target a random live event.
            if live.is_empty() || rng.gen_range(0u32..3) < 2 {
                let id = q.schedule(t, next_label);
                live.push((next_label, id));
                next_label += 1;
            } else {
                let victim = rng.gen_range(0..live.len());
                let (_, id) = live.remove(victim);
                prop_assert!(q.cancel(id));
            }
        }
        let expected: Vec<u32> = live.iter().map(|(label, _)| *label).collect();
        let mut popped = Vec::new();
        while let Some((time, label)) = q.pop() {
            prop_assert_eq!(time, t);
            popped.push(label);
        }
        prop_assert_eq!(popped, expected);
    }

    /// Arbitrary times: the queue pops exactly what a stable (time, insertion-seq) sort of
    /// the surviving schedules predicts.
    #[test]
    fn mixed_time_workloads_match_the_reference_order(seed in 0u64..10_000, ops in 4usize..150) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15C);
        let mut q = EventQueue::new();
        let mut reference = Vec::new(); // (time_us, insertion_index, label, id, canceled)
        let mut ids = Vec::new();
        for label in 0..ops as u32 {
            // A handful of distinct times forces plenty of ties.
            let time_us = rng.gen_range(0u64..8) * 1_000;
            let id = q.schedule(SimTime::from_micros(time_us), label);
            reference.push((time_us, label));
            ids.push((id, label));
        }
        // Cancel a random subset.
        let mut canceled = std::collections::BTreeSet::new();
        for (id, label) in &ids {
            if rng.gen_range(0u32..4) == 0 {
                prop_assert!(q.cancel(*id));
                canceled.insert(*label);
            }
        }
        let mut expected: Vec<(u64, u32)> = reference
            .iter()
            .filter(|(_, label)| !canceled.contains(label))
            .cloned()
            .collect();
        // Stable sort by time keeps insertion order inside each tie group.
        expected.sort_by_key(|(time_us, _)| *time_us);
        let mut popped = Vec::new();
        while let Some((time, label)) = q.pop() {
            popped.push((time.as_micros(), label));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Slots freed by pops and cancels are recycled without resurrecting stale events,
    /// across many churn rounds.
    #[test]
    fn slab_churn_never_resurrects_canceled_events(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51AB);
        let mut q = EventQueue::new();
        for round in 0u64..30 {
            let t = SimTime::from_millis(round);
            let ids: Vec<_> = (0..8u32).map(|i| q.schedule(t, (round, i))).collect();
            // Cancel half, pop the rest.
            for (i, id) in ids.iter().enumerate() {
                if i % 2 == rng.gen_range(0usize..2) {
                    q.cancel(*id);
                }
            }
            while let Some((_, (r, _))) = q.pop() {
                // A stale event from an earlier round resurfacing would fail here.
                prop_assert_eq!(r, round);
            }
            prop_assert!(q.is_empty());
        }
    }

    /// Whatever mix of schedules, cancels (of live and of gone events) and pops runs, the
    /// kernel's counts balance: scheduled = popped + cancelled + pending.
    #[test]
    fn kernel_work_counts_balance(seed in 0u64..10_000, ops in 4usize..150) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE);
        let mut sim = Simulation::new();
        let mut ids = Vec::new();
        for label in 0..ops as u32 {
            match rng.gen_range(0u32..4) {
                0 if !ids.is_empty() => {
                    let id = ids[rng.gen_range(0..ids.len())];
                    sim.cancel(id);
                }
                1 => {
                    sim.pop();
                }
                _ => ids.push(sim.schedule_at(SimTime::from_micros(rng.gen_range(0u64..50)), label)),
            }
            prop_assert_eq!(
                sim.events_scheduled(),
                sim.events_popped() + sim.events_cancelled() + sim.pending() as u64
            );
        }
    }
}
