//! The server's subset lists allocate once per item: the first
//! `SyndromeDecoder::subsets_of` for an item makes one exact-size
//! allocation for its list, and every later call, on the decoder or a
//! clone, makes none. A list collected from a filter would grow by
//! doubling and then shrink into its box, several allocations per
//! item, on every first update of an item at the server.
//!
//! This binary holds its own counting allocator and runs without the
//! test harness (`harness = false`): the harness's own threads and its
//! output capture allocate too, and would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn main() {
    // Scenario 1's SIG plan (f = 10 over 1 000 items) and a larger one
    // (f = 200), so lists run from tens to about a hundred ids.
    for (f, n) in [(10, 1_000), (200, 5_000)] {
        let plan = SigPlan::new(f, 16, n, 0.05, SigPlan::DEFAULT_K);
        let decoder = SyndromeDecoder::new(SubsetFamily::new(0x5EED, plan.m, plan.f), plan);
        let clone = decoder.clone();
        let mut degrees = Vec::new();
        for item in [0, 1, 17, n / 2, n - 1] {
            let mut degree = 0;
            let first = allocations(|| degree = decoder.subsets_of(item).len());
            assert!(degree > 8, "f={f} item {item}: a list long enough to grow");
            assert_eq!(first, 1, "f={f} item {item}: the first fill of a {degree}-id list");
            let again = allocations(|| {
                decoder.subsets_of(item);
                clone.subsets_of(item);
            });
            assert_eq!(again, 0, "f={f} item {item}: a filled list is read");
            assert_eq!(
                decoder.subsets_of(item),
                &decoder.family().subsets_of(item).collect::<Vec<_>>()[..],
                "f={f} item {item}"
            );
            degrees.push(degree);
        }
        println!("subsets_of, f = {f}: one allocation per first fill (degrees {degrees:?}): ok");
    }
}
