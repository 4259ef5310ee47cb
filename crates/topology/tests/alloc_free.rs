//! The permutation families' adjacency and part labels never touch the
//! heap: a counting global allocator sees no allocation in
//! `neighbors_into` into a pre-sized buffer, or in `part_of`.
//!
//! The count is per thread (a const-initialised thread-local), so tests
//! running in parallel on other threads cannot pollute it.

use mmdiag_topology::families::{Arrangement, NKStar, Pancake, StarGraph};
use mmdiag_topology::{NodeId, Partitionable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calling thread's allocations.
struct Counting;

fn count_one() {
    // `try_with` fails only while the thread is being torn down, when no
    // test is counting any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counter bump touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout, same contract, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout, same contract, forwarded to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `realloc` contract is passed on as is; `ptr`
    // came from this allocator, that is from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` describe a `System` block, as required.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `dealloc` contract is passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Over a spread of nodes of `g`, the two calls allocate nothing.
fn assert_allocation_free(g: &dyn Partitionable) {
    let degree = g.max_degree();
    let mut buf: Vec<NodeId> = Vec::with_capacity(degree);
    let step = g.node_count() / 1000 + 1;
    let nodes = (0..g.node_count()).step_by(step);
    let allocated = allocations_in(|| {
        for u in nodes {
            g.neighbors_into(u, &mut buf);
            assert_eq!(buf.len(), degree);
            std::hint::black_box(g.part_of(u));
        }
    });
    assert_eq!(allocated, 0, "{} allocated", g.name());
}

#[test]
fn the_counter_sees_allocations() {
    let allocated = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(allocated, 1);
}

#[test]
fn star_and_pancake_adjacency_allocate_nothing() {
    assert_allocation_free(&StarGraph::new(9));
    assert_allocation_free(&Pancake::new(9));
}

#[test]
fn nk_star_and_arrangement_adjacency_allocate_nothing() {
    assert_allocation_free(&NKStar::new(9, 4));
    assert_allocation_free(&Arrangement::new(9, 4));
}
