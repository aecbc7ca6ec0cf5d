//! The byte-counting global allocator behind `peak_heap_mb`, `core.allocs_per_turn`,
//! `core.alloc_kb_per_turn` and `core.heap_kb_per_session` (the `serving_scale.rs`
//! pattern, plus a peak and an operation count).
//!
//! The benchmark drives the engine from one thread, so the relaxed statistics read back
//! exactly; pool lanes of the `par.*` diagnostics only add to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live bytes, their peak since the last [`HeapTracker::reset_peak`], and cumulative
/// allocation operations / bytes. A plain struct so the arithmetic is unit-testable
/// apart from the process-wide instance.
#[derive(Debug, Default)]
pub struct HeapTracker {
    live: AtomicU64,
    peak: AtomicU64,
    ops: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the cumulative allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocMark {
    /// Allocation operations (`alloc` + growing or shrinking `realloc`) so far.
    pub ops: u64,
    /// Bytes requested by those operations so far.
    pub bytes: u64,
}

impl AllocMark {
    /// Operations and bytes since `earlier`.
    pub fn since(self, earlier: AllocMark) -> AllocMark {
        AllocMark {
            ops: self.ops - earlier.ops,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl HeapTracker {
    /// A tracker at zero.
    pub const fn new() -> Self {
        Self {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Records an allocation of `size` bytes.
    pub fn on_alloc(&self, size: usize) {
        let size = size as u64;
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
    }

    /// Records a deallocation of `size` bytes.
    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest `live_bytes` since the last reset.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the peak from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    /// The cumulative allocation counters.
    pub fn mark(&self) -> AllocMark {
        AllocMark {
            ops: self.ops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide tracker the global allocator feeds.
pub static HEAP: HeapTracker = HeapTracker::new();

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's own arguments and only
// adds relaxed statistics, so `System`'s guarantees carry over unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP.on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP.on_dealloc(layout.size());
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP.on_dealloc(layout.size());
        HEAP.on_alloc(new_size);
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_the_high_water_mark_and_resets_to_live() {
        let t = HeapTracker::new();
        t.on_alloc(100);
        t.on_alloc(50);
        t.on_dealloc(100);
        assert_eq!(t.live_bytes(), 50);
        assert_eq!(t.peak_bytes(), 150);
        t.reset_peak();
        assert_eq!(t.peak_bytes(), 50);
        t.on_alloc(10);
        t.on_dealloc(10);
        assert_eq!(t.peak_bytes(), 60);
        assert_eq!(t.live_bytes(), 50);
    }

    #[test]
    fn marks_count_operations_and_bytes_between_two_readings() {
        let t = HeapTracker::new();
        t.on_alloc(8);
        let before = t.mark();
        t.on_alloc(16);
        t.on_alloc(32);
        t.on_dealloc(16);
        assert_eq!(t.mark().since(before), AllocMark { ops: 2, bytes: 48 });
    }

    #[test]
    fn the_global_allocator_feeds_the_process_wide_tracker() {
        // Other test threads allocate concurrently, so only monotone facts are asserted.
        let before = HEAP.mark();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let after = HEAP.mark().since(before);
        assert!(after.ops >= 1 && after.bytes >= 1 << 20);
        assert!(HEAP.peak_bytes() >= 1 << 20);
        drop(v);
    }
}
