//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs it as its `#[global_allocator]`. The
//! DES workloads are deterministic, so the counts they produce repeat
//! exactly run to run and a change in them is a fact, not noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts allocations (`alloc`, `alloc_zeroed`
/// and `realloc` each count one) and the bytes they requested.
pub struct CountingAlloc;

/// Allocations and requested bytes since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// Reads the counters now.
    pub fn now() -> AllocCount {
        // Relaxed: statistics only; they publish no other data
        AllocCount { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }

    /// Adds `other` to these counts.
    pub fn add(&mut self, other: AllocCount) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the caller's guarantees on
        // `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
