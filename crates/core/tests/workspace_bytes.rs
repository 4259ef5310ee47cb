//! The growth's memory, pinned by a counting global allocator.
//!
//! * A `Workspace` holds 4 bytes and two bits per node, plus a constant.
//! * A diagnosis on Q_16 (`probe_part` in part order, then
//!   `grow_from_certificate`) allocates, beyond the workspace, no more than
//!   the returned tree's 8-byte edges, the frontier and claims buffers and
//!   the list of touched bitmap words: no member list or other per-node
//!   array.
//! * A repaired `GrowthMemo` epoch on the same graph requests no per-node
//!   array: it marks the re-witness's nodes in a bitmap the memo keeps, and
//!   writes the new tree into the edge list of the tree the repair before
//!   it replaced.
//!
//! The counts are per thread (const-initialised thread-locals), so tests
//! running in parallel on other threads cannot pollute them.

use mmdiag_core::{grow_from_certificate, probe_part, GrowthMemo, Workspace};
use mmdiag_syndrome::{OnDemandOracle, TesterBehavior};
use mmdiag_topology::families::Hypercube;
use mmdiag_topology::{NodeId, Partitionable, Topology};
use mmdiag_trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most bytes this thread held since the last [`held_during`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has requested in all, freed or not.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calling thread's live and
/// requested bytes.
struct Counting;

fn grew(bytes: usize) {
    // `try_with` fails only while the thread is being torn down, when no
    // test is counting any more.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    // Memory freed here may have been counted on another thread.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added bookkeeping touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, forwarded to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, forwarded to `System`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: the caller's `realloc` contract is passed on as is; `ptr`
    // came from this allocator, that is from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a `System` block, as required.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }

    // SAFETY: the caller's `dealloc` contract is passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread held
/// above its starting level while `f` ran.
fn held_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Runs `f` and returns its result with the bytes this thread requested
/// while `f` ran, whether or not it freed them again.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - base)
}

/// Room for the odd small buffer: a neighbour list, the level-1 pair
/// flags, the fault list, a part-sized probe tree.
const SLACK: usize = 64 << 10;

#[test]
fn the_counter_sees_the_peak() {
    let ((), peak) = held_during(|| drop(std::hint::black_box(vec![0u8; 4096])));
    assert_eq!(peak, 4096);
}

#[test]
fn a_workspace_holds_4_bytes_and_two_bits_per_node() {
    let n = 1 << 16;
    let (ws, peak) = held_during(|| Workspace::new(n));
    assert!(
        peak <= 4 * n + 2 * n / 8 + 1024,
        "{peak} bytes for {n} nodes: {:.2} per node",
        peak as f64 / n as f64
    );
    drop(ws);
}

/// Q_16's widest layer: C(16, 8) nodes.
const WIDEST: usize = 12_870;

/// The first part to certify, probed in part order.
fn certify<T: Partitionable + ?Sized>(
    g: &T,
    s: &OnDemandOracle,
    ws: &mut Workspace,
) -> mmdiag_core::Certificate {
    let bound = g.driver_fault_bound();
    (0..g.part_count())
        .find_map(|part| probe_part(g, s, part, bound, ws).certificate)
        .expect("a part certifies under the bound")
}

#[test]
fn a_diagnosis_allocates_only_its_tree_frontier_and_claims() {
    let g = Hypercube::new_certified(16);
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let mut faults: Vec<NodeId> = (1..=bound).map(|i| i * 4093 % n).collect();
    faults.sort_unstable();
    let s = OnDemandOracle::new(n, &faults, TesterBehavior::Random { seed: 1 });
    let mut ws = Workspace::new(n);
    let (diagnosis, peak) = held_during(|| {
        let certificate = certify(&g, &s, &mut ws);
        grow_from_certificate(
            &g,
            &s,
            &certificate,
            certificate.part + 1,
            bound,
            0,
            &mut ws,
        )
        .expect("a diagnosis under the bound")
    });
    assert_eq!(diagnosis.faults, faults);
    // The edge vector grows by doubling, as does the list of touched
    // bitmap words (at most one `u32` per 64 nodes). The frontier and
    // claims buffers (a `u32` per member each) grow to at most twice the
    // widest layer.
    let tree = std::mem::size_of::<(u32, u32)>() * diagnosis.tree.node_count().next_power_of_two();
    let touched = std::mem::size_of::<u32>() * n.div_ceil(64).next_power_of_two();
    let layers = 2 * std::mem::size_of::<u32>() * 2 * WIDEST;
    assert!(
        peak <= tree + touched + layers + SLACK,
        "{peak} bytes held against {tree} for the tree, {touched} for the touched words \
         and {layers} for the layers"
    );
}

#[test]
fn a_repaired_epoch_allocates_no_per_node_array_beyond_its_recycled_edge_list() {
    let g = Hypercube::new_certified(16);
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let behavior = TesterBehavior::Random { seed: 3 };
    let mut ws = Workspace::new(n);
    let certificate = certify(&g, &OnDemandOracle::new(n, &[], behavior), &mut ws);
    assert_eq!(certificate.representative, 0);
    let mut memo = GrowthMemo::new();
    let mut epoch = |faults: &[NodeId], ws: &mut Workspace| {
        let s = OnDemandOracle::new(n, faults, behavior);
        memo.grow(&g, &s, &certificate, 1, bound, 0, ws, &Tracer::disabled())
            .expect("a diagnosis under the bound")
            .0
    };
    // Onsets far from u0 = 0, past the layers the spread heuristic grew.
    // The first epoch walks in full; the second is repaired into a fresh
    // list and keeps the first tree as its spare, which the third reuses
    // once no diagnosis holds it.
    let first = epoch(&[], &mut ws);
    let second = epoch(&[n - 1], &mut ws);
    drop(first);
    // Freeing the spare and allocating a fresh list would hold no more
    // at the peak, so count every byte requested.
    let (third, requested) = allocated_during(|| epoch(&[n - 2, n - 1], &mut ws));
    assert_eq!(second.faults, [n - 1]);
    assert_eq!(third.faults, [n - 2, n - 1]);
    let full = OnDemandOracle::new(n, &[n - 2, n - 1], behavior);
    let want = grow_from_certificate(&g, &full, &certificate, 1, bound, 0, &mut ws)
        .expect("a diagnosis under the bound");
    // Only the lookups differ from the full walk's.
    assert!(third.tree == want.tree, "the repaired tree differs");
    assert_eq!(third.healthy_count, want.healthy_count);
    // A few lists as long as the change: less than a bitmap of one bit
    // per node, and a fresh edge list would be 8 bytes per member.
    let bitmap = n / 8;
    assert!(
        requested <= SLACK && requested < bitmap,
        "{requested} bytes requested against {SLACK} of slack and {bitmap} for a bitmap"
    );
}
