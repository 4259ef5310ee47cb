//! # mmdiag-implicit
//!
//! The CSR-free scale layer: diagnosis over the catalog families' *generator
//! math* instead of a materialised [`mmdiag_topology::Cached`] copy.
//!
//! Every §5 family already computes adjacency arithmetically — a hypercube
//! neighbour is one XOR, a k-ary neighbour one digit bump — yet the bench
//! and the scale axis historically ran everything through `Cached`, whose
//! CSR costs `O(N·Δ)` words up front. That materialisation is what stalled
//! the scale axis at `Q^4_9` (262 144 nodes). [`ImplicitTopology`] removes
//! it:
//!
//! * **adjacency** is generated per call from the family's closed form and
//!   **sorted**, so lookups, probe order and tree growth are bit-identical
//!   to the CSR path (whose neighbour lists are sorted by construction) —
//!   the workspace cross-check suite holds `diagnose` on the two to exact
//!   equality on all fourteen families;
//! * **partition structure** stays closed-form (`part_of` is a shift, a
//!   division, or an unranking — never a label array);
//! * **probe-tree capacity** is computed lazily and part-locally
//!   ([`mmdiag_topology::honest_probe_contributors`], `O(|part|)`
//!   memory) the first time someone asks, instead of probing every part of
//!   the whole graph upfront;
//! * **nothing materialises**: every [`ImplicitTopology`] counts the
//!   `Cached::new` calls made on it, from any thread
//!   ([`Partitionable::materialisations`]), and [`MaterialisationGuard`]
//!   snapshots that count so the bench can assert the implicit path never
//!   built a CSR of it.
//!
//! The driver, the execution backends, batch submissions, the event
//! simulator and the sampled verifier all consume this type unchanged
//! through the `Topology + Partitionable` traits.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mmdiag_topology::partition::honest_probe_contributors;
use mmdiag_topology::{NodeId, Partitionable, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A catalog family served straight from its generator math: closed-form
/// adjacency (sorted for CSR bit-identity), closed-form partition labels,
/// lazy part-local probe-tree capacity — no `O(N·Δ)` edge storage anywhere.
#[derive(Clone, Debug)]
pub struct ImplicitTopology<T: Partitionable> {
    inner: T,
    /// Probe-tree internal-node count of part 0, computed on first use.
    /// The catalog decompositions are part-transitive (prefix-fixed
    /// subcubes, last-symbol classes), so part 0 speaks for every part;
    /// [`ImplicitTopology::probe_capacity_of`] recomputes for any other.
    probe_capacity: OnceLock<usize>,
    /// `Cached::new` calls on this instance (clones share the count).
    materialisations: Arc<AtomicU64>,
}

impl<T: Partitionable> ImplicitTopology<T> {
    /// Wrap a family instance. No work happens here — everything is lazy.
    pub fn new(inner: T) -> Self {
        ImplicitTopology {
            inner,
            probe_capacity: OnceLock::new(),
            materialisations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The wrapped family.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Closed-form edge test — delegates to the family's `are_adjacent`
    /// (one XOR/popcount for the bit-string families, a digit comparison
    /// for the radix families), never an adjacency scan over stored edges.
    #[inline]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.inner.are_adjacent(u, v)
    }

    /// Internal-node count of the honest (all-`Agree`) probe tree grown in
    /// part 0, memoised on first call. Computed part-locally: probing one
    /// 64-node part of a 10⁶⁺-node instance allocates `O(|part|)`, not
    /// `O(N)`.
    pub fn probe_capacity(&self) -> usize {
        *self
            .probe_capacity
            .get_or_init(|| honest_probe_contributors(self, 0))
    }

    /// Probe-tree capacity of an arbitrary part (uncached; part 0 is the
    /// memoised fast path).
    pub fn probe_capacity_of(&self, part: usize) -> usize {
        if part == 0 {
            self.probe_capacity()
        } else {
            honest_probe_contributors(self, part)
        }
    }

    /// Whether a fault-free part can certify the driver's fault bound —
    /// the §4.1 certificate needs strictly more probe-tree internal nodes
    /// than faults. Cheap even at 10⁷ nodes (one part-local probe).
    pub fn certifies(&self) -> bool {
        self.probe_capacity() > self.inner.driver_fault_bound()
    }
}

impl<T: Partitionable> Topology for ImplicitTopology<T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // CSR neighbour lists are sorted; matching that order here is what
        // makes implicit and Cached diagnoses bit-identical (Set_Builder's
        // parent assignment and spread heuristic are scan-order dependent).
        // Families that can generate ascending (the hypercube's bit trick)
        // skip the per-call sort through `neighbors_into_sorted`.
        self.inner.neighbors_into_sorted(u, out);
    }
    fn neighbors_into_sorted(&self, u: NodeId, out: &mut Vec<NodeId>) {
        self.inner.neighbors_into_sorted(u, out);
    }
    fn degree(&self, u: NodeId) -> usize {
        self.inner.degree(u)
    }
    fn max_degree(&self) -> usize {
        self.inner.max_degree()
    }
    fn min_degree(&self) -> usize {
        self.inner.min_degree()
    }
    fn diagnosability(&self) -> usize {
        self.inner.diagnosability()
    }
    fn connectivity(&self) -> usize {
        self.inner.connectivity()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.inner.are_adjacent(u, v)
    }
    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }
}

impl<T: Partitionable> Partitionable for ImplicitTopology<T> {
    fn part_count(&self) -> usize {
        self.inner.part_count()
    }
    fn part_of(&self, u: NodeId) -> usize {
        self.inner.part_of(u)
    }
    fn representative(&self, part: usize) -> NodeId {
        self.inner.representative(part)
    }
    fn part_size(&self, part: usize) -> usize {
        self.inner.part_size(part)
    }
    fn driver_fault_bound(&self) -> usize {
        self.inner.driver_fault_bound()
    }
    fn check_partition_preconditions(&self) -> Result<(), String> {
        self.inner.check_partition_preconditions()
    }
    fn materialisations(&self) -> Option<&AtomicU64> {
        Some(&self.materialisations)
    }
}

/// Snapshot of a topology's `Cached::new` count
/// ([`Partitionable::materialisations`]): the bench's implicit cells open
/// one of these before running and assert it unchanged after, proving the
/// scale path stayed CSR-free. The count lives on the topology, so a CSR
/// built of it on any thread — a pool worker's included — trips the
/// guard, while CSRs of other topologies (sibling tests, other sessions)
/// cannot.
pub struct MaterialisationGuard<'g> {
    count: &'g AtomicU64,
    start: u64,
}

impl<'g> MaterialisationGuard<'g> {
    /// Record `g`'s current materialisation count. Panics if `g` keeps no
    /// count — only CSR-free topologies such as [`ImplicitTopology`] do.
    pub fn begin<G: Partitionable + ?Sized>(g: &'g G) -> Self {
        let count = g
            .materialisations()
            .unwrap_or_else(|| panic!("{} does not count its materialisations", g.name()));
        MaterialisationGuard {
            count,
            start: count.load(Ordering::Relaxed),
        }
    }

    /// How many `Cached::new` calls were made on the topology since
    /// [`Self::begin`].
    pub fn materialisations_since(&self) -> u64 {
        self.count.load(Ordering::Relaxed) - self.start
    }

    /// Panic if anything materialised a CSR copy since the snapshot.
    pub fn assert_unchanged(&self, context: &str) {
        let n = self.materialisations_since();
        assert_eq!(
            n, 0,
            "{context}: {n} Cached::new materialisation(s) on the implicit path"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_topology::families::{Hypercube, StarGraph};
    use mmdiag_topology::Cached;

    #[test]
    fn neighbors_are_sorted_and_match_inner_as_sets() {
        let g = ImplicitTopology::new(StarGraph::new(5));
        for u in (0..g.node_count()).step_by(11) {
            let sorted = g.neighbors(u);
            assert!(sorted.windows(2).all(|w| w[0] < w[1]), "node {u}");
            let mut raw = g.inner().neighbors(u);
            raw.sort_unstable();
            assert_eq!(sorted, raw);
        }
    }

    #[test]
    fn hypercube_sorted_generation_matches_cached_csr() {
        // The implicit hypercube uses the ascending bit-trick generator;
        // its neighbour lists must equal the CSR's sorted slices exactly.
        let fam = Hypercube::new(7);
        let g = ImplicitTopology::new(fam.clone());
        let cached = Cached::new(&fam);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..g.node_count() {
            g.neighbors_into(u, &mut a);
            cached.neighbors_into(u, &mut b);
            assert_eq!(a, b, "node {u}");
        }
    }

    #[test]
    fn contains_edge_matches_adjacency() {
        let g = ImplicitTopology::new(Hypercube::new(7));
        assert!(g.contains_edge(0, 1));
        assert!(!g.contains_edge(0, 3));
        assert_eq!(g.edge_count(), g.inner().edge_count());
    }

    #[test]
    fn probe_capacity_is_lazy_and_part_transitive() {
        let g = ImplicitTopology::new(Hypercube::new(7));
        assert!(g.probe_capacity.get().is_none(), "must not precompute");
        let c0 = g.probe_capacity();
        assert!(c0 > 7, "Q_7 parts certify bound 7");
        assert_eq!(g.probe_capacity_of(3), c0, "prefix parts are isomorphic");
        assert!(g.certifies());
    }

    #[test]
    fn materialisation_guard_counts_cached_news() {
        let fam = Hypercube::new(7);
        let g = ImplicitTopology::new(fam.clone());
        let guard = MaterialisationGuard::begin(&g);
        let _ = g.probe_capacity();
        guard.assert_unchanged("implicit probe");
        let _cached = Cached::new(&g);
        // Through a trait object, as the sessions hold their topologies.
        let view: &(dyn Partitionable + Sync) = &g;
        let _cached = Cached::new(view);
        assert_eq!(guard.materialisations_since(), 2);
    }

    #[test]
    fn materialisation_guard_ignores_other_topologies() {
        let g = ImplicitTopology::new(Hypercube::new(7));
        let guard = MaterialisationGuard::begin(&g);
        mmdiag_exec::sync::thread::spawn_named("csr-builder".into(), || {
            Cached::new(&ImplicitTopology::new(Hypercube::new(7))).node_count()
        })
        .unwrap()
        .join()
        .unwrap();
        let _cached = Cached::new(g.inner());
        guard.assert_unchanged("CSRs of other topologies");
    }

    #[test]
    #[should_panic(expected = "materialisation")]
    fn materialisation_guard_trips_on_cached_new() {
        let g = ImplicitTopology::new(Hypercube::new(7));
        let guard = MaterialisationGuard::begin(&g);
        let _cached = Cached::new(&g);
        guard.assert_unchanged("guarded section");
    }

    #[test]
    #[should_panic(expected = "materialisation")]
    fn materialisation_guard_trips_on_a_pool_task() {
        let g = ImplicitTopology::new(Hypercube::new(7));
        let pool = mmdiag_exec::Pool::new(2);
        let guard = MaterialisationGuard::begin(&g);
        // Two jobs: a one-item map would run on this thread instead.
        pool.map(&[(); 2], |_, _| {
            assert!(pool.worker_index().is_some(), "runs on a pool worker");
            let _cached = Cached::new(&g);
        });
        guard.assert_unchanged("a CSR built inside a pool task");
    }
}
