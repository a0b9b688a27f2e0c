//! # cq-bench — the measurement ledger
//!
//! The `ledger` binary times the join-evaluation and failure-handling
//! kernels, the TCP hot path and every quick-registry experiment in one
//! process, records each timed row with its spread, and enforces the
//! repository's allocation-slope and socket gates:
//!
//! ```text
//! cargo run --release -p cq-bench --bin ledger > BENCH_N.json
//! cargo run --release -p cq-bench --bin ledger -- --check
//! ```

/// An allocation-counting wrapper around the system allocator, installed by
/// the `ledger` binary (and by `cqbench`) to verify that the
/// join-evaluation kernels stay allocation-free per candidate: the ledger
/// measures allocations per event at two table sizes an order of magnitude
/// apart and checks the per-event count does not grow with the candidate
/// count.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counts every `alloc`/`realloc` (frees are not counted — the audit
    /// cares about allocation *pressure*, not leaks).
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Total allocations since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}
