//! Counting global allocator: every `alloc`/`alloc_zeroed`/`realloc` bumps
//! two relaxed atomics (calls and bytes requested) and forwards to the
//! system allocator. The cost is identical on both sides of any comparison,
//! and the counts are a pure function of the program's inputs, so
//! `allocs_per_job` / `alloc_bytes_per_job` repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by the benchmark library (see `lib.rs`).
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the two counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCounts {
    /// The current process-wide totals.
    pub fn now() -> Self {
        AllocCounts {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Calls and bytes since `earlier`.
    pub fn since(earlier: AllocCounts) -> Self {
        let now = Self::now();
        AllocCounts {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other test threads allocate concurrently, so a delta is a lower
    /// bound; retry until one window sees exactly the known pattern.
    fn exact_delta(pattern: impl Fn(), calls: u64, bytes: u64) -> bool {
        (0..1000).any(|_| {
            let before = AllocCounts::now();
            pattern();
            AllocCounts::since(before) == AllocCounts { calls, bytes }
        })
    }

    #[test]
    fn counts_a_known_allocation_pattern() {
        // One 4 KiB allocation, one realloc to 8 KiB, one free.
        let pattern = || {
            let mut v: Vec<u8> = Vec::with_capacity(4096);
            v.push(std::hint::black_box(1));
            v.reserve_exact(8192 - 1);
            std::hint::black_box(&v);
        };
        assert!(exact_delta(pattern, 2, 4096 + 8192));
        // A zeroed allocation counts once.
        let zeroed = || {
            std::hint::black_box(vec![0u64; 100]);
        };
        assert!(exact_delta(zeroed, 1, 800));
    }

    #[test]
    fn deltas_never_go_backwards() {
        let before = AllocCounts::now();
        let boxed = std::hint::black_box(Box::new(7u32));
        let delta = AllocCounts::since(before);
        assert!(delta.calls >= 1 && delta.bytes >= 4, "{delta:?} {boxed}");
    }
}
