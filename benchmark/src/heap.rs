//! Heap accounting for `peak_heap_mb`: a global allocator over the
//! system allocator that counts the bytes the process holds allocated.
//!
//! The process's resident peak (`VmHWM`) is not used: on
//! `operator_mix` it moved by 10 to 20 % between runs of one code,
//! because every `load` starts a session thread and every `evict` ends
//! one, and which of the allocator's per-thread arenas keeps the freed
//! pages changes from run to run. Counting requested bytes leaves the
//! allocator's own bookkeeping out and keeps what the program asks for.
//! The count costs one shared atomic add per allocation and free.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // Most allocations do not set a new peak; skip the read-modify-write.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so the guarantees `GlobalAlloc` asks of the
// caller are exactly the ones `System` needs, and every pointer returned
// is `System`'s. The counters only read sizes and never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a new peak from the bytes held now (at the start of a
/// measured window).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most heap the process held at once since the last
/// [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_a_held_allocation_and_resets() {
        // Other tests allocate on parallel threads, so the margins are
        // wide of their few kilobytes.
        reset_peak();
        let before = peak_mb();
        let block = vec![1u8; 8 << 20];
        assert!(peak_mb() - before > 7.0, "8 MiB held must raise the peak");
        drop(block);
        reset_peak();
        assert!(peak_mb() - before < 1.0, "a reset forgets a freed peak");
    }
}
