//! Structural verification helpers shared by the family test-suites and the
//! DIAG-TAB experiment: simplicity/symmetry of adjacency, regularity, and
//! machine-checking the connectivity values the paper imports from the
//! literature (the `κ ≥ δ` hypothesis of Theorem 1).

use crate::algorithms::{is_connected, vertex_connectivity};
use crate::graph::Topology;

/// Assert the adjacency relation is a simple undirected graph emitted in
/// the [`Topology::neighbors_into`] order: strictly ascending neighbour
/// lists (so no duplicates), no self loops, and symmetric. Panics with a
/// diagnostic otherwise.
pub fn assert_simple_undirected<T: Topology + ?Sized>(g: &T) {
    let n = g.node_count();
    let mut buf = Vec::new();
    let mut back = Vec::new();
    for u in 0..n {
        g.neighbors_into(u, &mut buf);
        for w in buf.windows(2) {
            assert!(
                w[0] < w[1],
                "{}: neighbours of {u} not strictly ascending: {} then {}",
                g.name(),
                w[0],
                w[1]
            );
        }
        for &v in &buf {
            assert!(v < n, "{}: neighbour {v} of {u} out of range", g.name());
            assert_ne!(v, u, "{}: self loop at {u}", g.name());
            g.neighbors_into(v, &mut back);
            assert!(
                back.contains(&u),
                "{}: asymmetric edge {u} -> {v}",
                g.name()
            );
        }
    }
}

/// Assert the graph is `d`-regular.
pub fn assert_regular<T: Topology + ?Sized>(g: &T, d: usize) {
    for u in 0..g.node_count() {
        assert_eq!(
            g.degree(u),
            d,
            "{}: node {u} has degree {} (expected {d})",
            g.name(),
            g.degree(u)
        );
    }
}

/// Assert connectivity: connected, and — when `exact` — that the vertex
/// connectivity equals [`Topology::connectivity`] (Menger max-flow; only run
/// this on small instances).
pub fn assert_connectivity<T: Topology + ?Sized>(g: &T, exact: bool) {
    assert!(is_connected(g), "{} is disconnected", g.name());
    if exact {
        let kappa = vertex_connectivity(g);
        assert_eq!(
            kappa,
            g.connectivity(),
            "{}: measured κ={kappa}, claimed {}",
            g.name(),
            g.connectivity()
        );
    }
}

/// Full structural check used by every family's test-suite: simplicity,
/// regularity at the claimed degree, node count, and (optionally exact)
/// connectivity.
pub fn assert_family_structure<T: Topology + ?Sized>(
    g: &T,
    expect_nodes: usize,
    expect_degree: usize,
    exact_connectivity: bool,
) {
    assert_eq!(g.node_count(), expect_nodes, "{}: node count", g.name());
    assert_simple_undirected(g);
    assert_regular(g, expect_degree);
    assert_eq!(g.max_degree(), expect_degree, "{}: Δ", g.name());
    assert_eq!(g.min_degree(), expect_degree, "{}: d", g.name());
    assert_connectivity(g, exact_connectivity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AdjGraph;

    #[test]
    fn cycle_passes_structure_check() {
        let edges: Vec<_> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = AdjGraph::from_edges(6, &edges, "C6")
            .with_connectivity(2)
            .with_diagnosability(2);
        assert_family_structure(&g, 6, 2, true);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn path_fails_regularity() {
        let g = AdjGraph::from_edges(3, &[(0, 1), (1, 2)], "P3");
        assert_regular(&g, 2);
    }
}
