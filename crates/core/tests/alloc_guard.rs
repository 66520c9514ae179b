//! Heap-allocation guard for the kernel → matrix → apply path.
//!
//! A counting global allocator tallies the blocks one sequential
//! extraction asks for on the test's own thread. The file holds this one
//! test so that no other test's allocations are counted, and the search
//! runs inline (`par_threads` 0) so that the whole run stays on this
//! thread.

use pf_core::{extract_kernels, ExtractConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) of one
/// default `extract_kernels` run on `gen:dalu@1`. Before cubes were
/// stored in place, with one `Vec` per cube, the same run made 16 635.
const EXPECTED: u64 = 3_848;

#[test]
fn sequential_extraction_stays_within_its_allocation_budget() {
    let profile = pf_workloads::profile_by_name("dalu").expect("known profile");
    let mut nw = pf_workloads::generate(&pf_workloads::scale_profile(&profile, 1.0));
    let mut cfg = ExtractConfig::default();
    cfg.search.par_threads = 0;

    COUNTING.with(|c| c.set(true));
    let report = extract_kernels(&mut nw, &[], &cfg);
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);

    assert!(report.extractions > 0, "the run extracts something");
    assert!(
        allocs * 10 <= EXPECTED * 11,
        "{allocs} allocations, more than 1.1 × {EXPECTED}"
    );
}
