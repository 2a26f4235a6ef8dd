//! Offline stand-in for the crates.io [`alloc_counter`] crate: a global
//! allocator that wraps the system allocator and counts every allocation
//! and reallocation **made by the calling thread**.
//!
//! The build container has no network access, so the real crate cannot be
//! pulled in. This shim provides the one capability the workspace's
//! allocation-regression tests need: install [`CountingAllocator`] as the
//! `#[global_allocator]` and read [`allocation_count`] before/after a
//! code region to assert it performed no heap allocations.
//!
//! The count is per thread: the test harness runs sibling tests in
//! parallel on other threads, and their allocations must not be charged
//! to the region under test. Work a region hands to *other* threads is
//! therefore not counted either.
//!
//! This is the only crate in the workspace allowed to use `unsafe`
//! (implementing [`GlobalAlloc`] requires it); everything else stays
//! `forbid(unsafe_code)`.
//!
//! [`alloc_counter`]: https://crates.io/crates/alloc_counter

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised, so reading it never allocates (no lazy init
    // re-entering the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` rather than
/// `with`: during thread teardown the slot may already be destroyed, and
/// the allocator must never panic.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A system-allocator wrapper that counts `alloc` and `realloc` calls per
/// thread.
///
/// Install it in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// increment, which neither allocates nor affects allocation semantics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation from the caller's
        // perspective; count it.
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of heap allocations (including reallocations) the calling
/// thread has performed through [`CountingAllocator`] so far.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}
