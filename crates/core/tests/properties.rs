//! Property suite: every one of the fourteen §5 families must be
//! observationally identical to its [`Cached`] copy at the workspace
//! cross-check sizes — neighbour lists (order included: both emit
//! ascending), degrees, part assignments, representatives, part sizes,
//! fault bounds, and honest probe trees (the part-local computation on
//! both views, and the core's real restricted probe under an all-`Agree`
//! syndrome).
//!
//! Diagnosis-level bit-identity is asserted separately by the workspace
//! `tests/cross_check.rs`; this suite pins down the structural invariants
//! that identity rests on, so a drift in any one family points straight at
//! the violated property instead of a diverged fault set.

use mmdiag_core::{set_builder_in_part, Workspace};
use mmdiag_syndrome::{SyndromeSource, TestResult};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::partition::{honest_probe_contributors, validate_partition};
use mmdiag_topology::{Cached, NodeId, Partitionable, Topology};

/// One (family, materialised copy) pair per family, at the sizes
/// `tests/cross_check.rs` uses.
fn pairs() -> Vec<(Box<dyn Partitionable + Sync>, Cached)> {
    fn pair<T: Partitionable + Sync + 'static>(fam: T) -> (Box<dyn Partitionable + Sync>, Cached) {
        let cached = Cached::new(&fam);
        (Box::new(fam), cached)
    }
    vec![
        pair(Hypercube::new(7)),
        pair(CrossedCube::new(7)),
        pair(TwistedCube::new(7)),
        pair(TwistedNCube::new(7)),
        pair(FoldedHypercube::new(8)),
        pair(EnhancedHypercube::new(8, 3)),
        pair(AugmentedCube::new(10)),
        pair(ShuffleCube::new(10)),
        pair(KAryNCube::new(3, 6)),
        pair(AugmentedKAryNCube::new(4, 4)),
        pair(StarGraph::new(6)),
        pair(NKStar::new(6, 3)),
        pair(Pancake::new(6)),
        pair(Arrangement::new(6, 3)),
    ]
}

#[test]
fn covers_all_fourteen_families() {
    let mut names: Vec<String> = pairs().iter().map(|(g, _)| g.name()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 14, "got {names:?}");
}

#[test]
fn neighbor_lists_identical_to_cached() {
    for (fam, cached) in pairs() {
        let g = fam.as_ref();
        assert_eq!(g.node_count(), cached.node_count(), "{}", g.name());
        assert_eq!(g.edge_count(), cached.edge_count(), "{}", g.name());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..g.node_count() {
            g.neighbors_into(u, &mut a);
            cached.neighbors_into(u, &mut b);
            // Exact order, not just set equality: bit-identical diagnoses
            // depend on identical scan order.
            assert_eq!(a, b, "{} node {u}", g.name());
            assert_eq!(g.degree(u), cached.degree(u), "{} node {u}", g.name());
        }
        assert_eq!(g.max_degree(), cached.max_degree(), "{}", g.name());
        assert_eq!(g.min_degree(), cached.min_degree(), "{}", g.name());
    }
}

#[test]
fn partition_structure_identical_to_cached() {
    for (fam, cached) in pairs() {
        let g = fam.as_ref();
        assert_eq!(g.part_count(), cached.part_count(), "{}", g.name());
        assert_eq!(
            g.driver_fault_bound(),
            cached.driver_fault_bound(),
            "{}",
            g.name()
        );
        for p in 0..g.part_count() {
            assert_eq!(
                g.representative(p),
                cached.representative(p),
                "{} part {p}",
                g.name()
            );
            assert_eq!(g.part_size(p), cached.part_size(p), "{} part {p}", g.name());
        }
        for u in 0..g.node_count() {
            assert_eq!(g.part_of(u), cached.part_of(u), "{} node {u}", g.name());
        }
        validate_partition(g).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
    }
}

#[test]
fn probe_trees_identical_across_all_three_computations() {
    // The part-local honest probe on the Cached copy and on the family,
    // and the core's restricted probe on the family with every test
    // agreeing, must all report the same internal-node count for every
    // part.
    struct AllAgree;
    impl SyndromeSource for AllAgree {
        fn lookup(&self, _u: NodeId, _v: NodeId, _w: NodeId) -> TestResult {
            TestResult::Agree
        }
    }
    for (fam, cached) in pairs() {
        let g = fam.as_ref();
        let mut ws = Workspace::new(g.node_count());
        for p in 0..g.part_count() {
            let on_cached = honest_probe_contributors(&cached, p);
            let on_family = honest_probe_contributors(&g, p);
            let probed =
                set_builder_in_part(g, &AllAgree, g.representative(p), usize::MAX, &mut ws)
                    .contributors;
            assert_eq!(on_cached, on_family, "{} part {p}", g.name());
            assert_eq!(on_cached, probed, "{} part {p}", g.name());
        }
    }
}
