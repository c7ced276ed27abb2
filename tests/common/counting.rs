//! A global allocator that notes, per thread, the largest block asked for:
//! what a test needs to bound the most a decoder, or a daemon thread,
//! allocates at once. A test binary takes it in with
//! `mod common { pub mod counting; }`.
#![expect(
    unsafe_code,
    reason = "a counting global allocator measures the largest allocation a thread makes"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting per thread the largest block asked for.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts the calling thread's count afresh.
pub fn reset() {
    LARGEST.with(|largest| largest.set(0));
}

/// The largest block the calling thread asked for since its last
/// [`reset`].
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}
