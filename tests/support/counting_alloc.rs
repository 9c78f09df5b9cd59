//! The counting global allocator of the allocation-budget tests.
//!
//! Each budget test includes this file once with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;`, which
//! installs [`CountingAlloc`] as its binary's global allocator. It counts
//! every thread of the process, so each budget test is an integration
//! binary of its own. Files in a subdirectory of `tests/` are not test
//! targets themselves.

// Not every binary reads both counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps `System`, counting allocation calls (`alloc` and `realloc`) and
/// the bytes they request.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters are independent atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls so far, on every thread.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes requested so far, on every thread.
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}
