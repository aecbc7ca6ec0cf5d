//! The deterministic event queue: a binary heap over `(time, insertion seq)` with
//! slab-recycled payload slots and O(1) cancellation.
//!
//! Two properties make the queue a safe foundation for golden-fixture simulations:
//!
//! * **deterministic tie-breaking** — events scheduled for the same instant pop in the
//!   order they were scheduled (the insertion sequence is the heap's secondary key), so a
//!   heap rebalance can never reorder same-time events between runs;
//! * **allocation-free steady state** — event payloads live in a slab whose slots are
//!   recycled through a free list, and the heap/slab/free-list vectors keep their
//!   capacity, so once a simulation has reached its high-water mark of concurrently
//!   pending events, `schedule`/`cancel`/`pop` perform no heap allocation (guarded by
//!   `crates/bench/tests/zero_alloc.rs`).
//!
//! Cancellation is lazy on the heap side: `cancel` frees the slab slot immediately and
//! leaves the heap entry behind as a stale tombstone that `pop` skips (the slot's stored
//! sequence no longer matches the entry's). A recycled slot can therefore never resurrect
//! a canceled event — the sequence check distinguishes the generations.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sentinel sequence marking a slab slot as empty.
const FREE: u64 = u64::MAX;
/// First tie-break key of the events scheduled *last* at their instant
/// ([`EventQueue::schedule_last`]): every plain insertion sequence is below it.
const LAST: u64 = 1 << 63;

/// Handle of a scheduled event, used to [`EventQueue::cancel`] it.
///
/// The handle is valid until the event pops or is canceled; canceling twice (or canceling
/// an already-popped event) is a deterministic no-op returning `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then lowest seq) pops first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slab slot: the payload of a pending event, tagged with its sequence so stale heap
/// tombstones (canceled or superseded generations) are recognizable.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A time-ordered event queue with FIFO tie-breaking, O(1) cancellation and slab-recycled
/// payload slots. See the module docs for the determinism and allocation guarantees.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    next_last_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            next_last_seq: LAST,
            live: 0,
        }
    }

    /// Schedules `event` to fire at `time`. Events at equal times pop in `schedule` order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.reserve_seq();
        self.insert(time, seq, event)
    }

    /// Schedules `event` to fire at `time` after every event of that instant scheduled
    /// with [`EventQueue::schedule`] — including ones scheduled later, while the instant is
    /// being processed. Events scheduled last at one instant pop in `schedule_last` order.
    pub fn schedule_last(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_last_seq;
        self.next_last_seq += 1;
        self.insert(time, seq, event)
    }

    /// Reserves the sequence number the next [`EventQueue::schedule`] would assign, for an
    /// event that may be scheduled later, or never: an item held outside the queue keeps the
    /// tie-break position it had when it was created (see [`crate::InOrderStream`]).
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` under a sequence number from `EventQueue::reserve_seq` instead
    /// of a fresh one, so it pops exactly where an event scheduled at the moment of the
    /// reservation would. (The seq of an event that already popped serves too: a re-armed
    /// event keeps its tie-break position.)
    ///
    /// Contract: `seq` was issued by this queue and belongs to no pending event. Passing
    /// the seq of a still-pending event would create two live events with an ill-defined
    /// relative order (guarded by a debug assertion that the seq was issued; full liveness
    /// checking would cost a scan).
    pub fn schedule_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        debug_assert!(
            seq < self.next_seq,
            "seq {seq} was never issued by this queue (next_seq {})",
            self.next_seq
        );
        self.insert(time, seq, event)
    }

    fn insert(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        let slot = self.alloc_slot(seq, event);
        self.heap.push(HeapEntry { time, seq, slot });
        self.live += 1;
        EventId { seq, slot }
    }

    fn alloc_slot(&mut self, seq: u64, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.event.is_none(), "free-list slot still holds a payload");
                s.seq = seq;
                s.event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Slot {
                    seq,
                    event: Some(event),
                });
                slot
            }
        }
    }

    /// Cancels a pending event. Returns `true` if the event was still pending (it will not
    /// pop); `false` if it already popped or was already canceled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.seq == id.seq => {
                slot.seq = FREE;
                slot.event = None;
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event, with its firing time. Canceled
    /// tombstones are skipped.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let slot = &mut self.slots[entry.slot as usize];
            if slot.seq != entry.seq {
                continue; // stale tombstone of a canceled (or recycled) event
            }
            let event = slot.event.take().expect("live slot holds a payload");
            slot.seq = FREE;
            self.free.push(entry.slot);
            self.live -= 1;
            return Some((entry.time, event));
        }
        None
    }

    /// The firing time of the earliest pending event, skipping canceled tombstones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the earliest pending event, skipping canceled tombstones.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].seq == entry.seq {
                return Some((entry.time, entry.seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (non-canceled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.live)
            .field("slots", &self.slots.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn an_event_scheduled_last_pops_after_everything_else_at_its_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule_last(t, "last 0");
        q.schedule(t, "a");
        q.schedule_last(t, "last 1");
        q.schedule(SimTime::from_millis(6), "later");
        assert_eq!(q.pop(), Some((t, "a")));
        // Scheduled while the instant is processed, it still goes before the last ones.
        q.schedule(t, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "last 0", "last 1", "later"]);
    }

    #[test]
    fn cancel_removes_event_and_is_idempotent() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        let b = q.schedule(SimTime::from_millis(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
        assert!(!q.cancel(b), "cancel after pop is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn recycled_slot_does_not_resurrect_canceled_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(10), "a");
        assert!(q.cancel(a));
        // The new event reuses a's slot; a's tombstone in the heap must not shadow it.
        let _b = q.schedule(SimTime::from_millis(5), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "b")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_interleaved_with_equal_timestamps_preserves_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t, i)).collect();
        // Cancel the even ones.
        for id in ids.iter().step_by(2) {
            assert!(q.cancel(*id));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn peek_skips_canceled_and_does_not_remove_live() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 10);
        q.schedule(SimTime::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(20), 20);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 20);
    }

    #[test]
    fn rearm_with_original_seq_keeps_tie_position() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        // A multi-shot event scheduled first, then two later-inserted events at the same
        // future instant. Re-arming with the original seq must keep popping *before* them.
        let multi = q.schedule(t, "run");
        q.schedule(SimTime::from_millis(2), "late-a");
        q.schedule(SimTime::from_millis(2), "late-b");
        assert_eq!(q.pop(), Some((t, "run")));
        // Re-arm the run at the same instant the later events fire.
        q.schedule_with_seq(SimTime::from_millis(2), multi.seq, "run");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["run", "late-a", "late-b"]);
    }

    #[test]
    fn rearm_chain_preserves_order_across_many_fires() {
        let mut q = EventQueue::new();
        // Interleave: run(seq 0), then rivals at every future tick inserted up front.
        let run = q.schedule(SimTime::from_micros(0), (0u32, true));
        for tick in 1..=5u64 {
            q.schedule(SimTime::from_micros(tick), (tick as u32, false));
        }
        let mut fired = Vec::new();
        while let Some((t, (tag, is_run))) = q.pop() {
            fired.push((t.as_micros(), tag, is_run));
            if is_run && t.as_micros() < 5 {
                q.schedule_with_seq(
                    SimTime::from_micros(t.as_micros() + 1),
                    run.seq,
                    (tag + 100, true),
                );
            }
        }
        // At every shared instant the re-armed run (older seq) pops before the rival.
        let runs_first: Vec<_> = fired
            .iter()
            .filter(|(t, _, _)| *t >= 1 && *t <= 5)
            .map(|&(_, _, is_run)| is_run)
            .collect();
        assert_eq!(
            runs_first,
            vec![true, false, true, false, true, false, true, false, true, false]
        );
    }

    #[test]
    fn rearm_can_still_be_canceled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        let rearmed = q.schedule_with_seq(SimTime::from_millis(3), a.seq, "a-again");
        assert!(q.cancel(rearmed));
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_reserved_seq_keeps_the_tie_position_of_its_reservation() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        // Reserved first, scheduled after two later-inserted events at the same instant:
        // it still pops before them.
        let reserved = q.reserve_seq();
        q.schedule(t, "late-a");
        q.schedule(t, "late-b");
        q.schedule_with_seq(t, reserved, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["reserved", "late-a", "late-b"]);
    }

    #[test]
    fn peek_key_names_the_earliest_live_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        let reserved = q.reserve_seq();
        q.schedule(SimTime::from_millis(2), "b");
        q.schedule_with_seq(SimTime::from_millis(2), reserved, "c");
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(1), a.seq)));
        q.cancel(a);
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(2), reserved)));
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.schedule(SimTime::from_micros(round * 10 + i), i);
            }
            while q.pop().is_some() {}
        }
        // High-water mark of concurrently pending events was 8: the slab never grew past it.
        assert!(q.slots.len() <= 8, "slab grew to {} slots", q.slots.len());
    }
}
