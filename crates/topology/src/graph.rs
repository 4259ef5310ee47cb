//! Core graph abstractions: the [`Topology`] trait and a compact CSR
//! adjacency representation ([`AdjGraph`]).
//!
//! Every interconnection network in this crate is exposed through
//! [`Topology`]: nodes are dense indices `0..node_count()`, and adjacency is
//! generated on demand (most families compute neighbours arithmetically from
//! the node index, so no edge storage is required). [`AdjGraph`] materialises
//! any topology into CSR form when repeated neighbour scans must be cheap.

/// A node identifier. Nodes of every topology are densely numbered
/// `0..node_count()`.
pub type NodeId = usize;

/// An undirected interconnection network with dense node ids.
///
/// Implementations must present a *simple* undirected graph: no self loops,
/// no duplicate edges, and symmetric adjacency (`v ∈ N(u)` iff `u ∈ N(v)`).
/// These invariants are what the diagnosis algorithms rely on and are
/// enforced for every family by the `structure` test-suite helpers in
/// [`crate::verify`].
pub trait Topology {
    /// Number of nodes `N = |V|`.
    fn node_count(&self) -> usize;

    /// Append the neighbours of `u` to `out` (which is cleared first), in
    /// **ascending node order**. `u` must be `< node_count()`.
    ///
    /// The order is part of the contract: `Set_Builder` takes a node's
    /// parent from the scan and spreads children in scan order, so a
    /// diagnosis's tree and lookup count follow it. One order for every
    /// topology makes a family and its CSR copy ([`crate::Cached`]) give
    /// the same diagnosis. [`crate::verify::assert_simple_undirected`]
    /// checks it for every family.
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>);

    /// Convenience wrapper allocating a fresh vector of neighbours.
    fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(u, &mut out);
        out
    }

    /// Degree of `u`.
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Maximal degree `Δ` over all nodes. Regular families override this
    /// with a constant.
    fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Minimal degree `d` over all nodes.
    fn min_degree(&self) -> usize {
        (0..self.node_count())
            .map(|u| self.degree(u))
            .min()
            .unwrap_or(0)
    }

    /// The diagnosability `δ` of the network under the MM model, as
    /// established by the literature the paper cites (\[6, 14, 23, 28\] etc.).
    ///
    /// A syndrome produced by any fault set `F` with `|F| ≤ δ` determines
    /// `F` uniquely.
    fn diagnosability(&self) -> usize;

    /// The (vertex) connectivity `κ` claimed for this family by the
    /// literature. Theorem 1 requires `κ ≥ δ`; small instances of every
    /// family are machine-verified against this value by a max-flow Menger
    /// computation in the test-suite.
    fn connectivity(&self) -> usize {
        self.diagnosability()
    }

    /// Human-readable family name with parameters, e.g. `"Q_7"` or
    /// `"AQ(3,4)"`. Used in benchmark and experiment reports.
    fn name(&self) -> String;

    /// Whether `u` and `v` are adjacent. The default scans `N(u)`.
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Total number of undirected edges.
    fn edge_count(&self) -> usize {
        let deg_sum: usize = (0..self.node_count()).map(|u| self.degree(u)).sum();
        deg_sum / 2
    }
}

/// Blanket impl so `&T` can be used wherever a `Topology` is expected.
impl<T: Topology + ?Sized> Topology for &T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        (**self).neighbors_into(u, out)
    }
    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }
    fn max_degree(&self) -> usize {
        (**self).max_degree()
    }
    fn min_degree(&self) -> usize {
        (**self).min_degree()
    }
    fn diagnosability(&self) -> usize {
        (**self).diagnosability()
    }
    fn connectivity(&self) -> usize {
        (**self).connectivity()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        (**self).are_adjacent(u, v)
    }
    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }
}

/// A materialised graph in compressed-sparse-row (CSR) form.
///
/// Neighbour lists are stored sorted, enabling `O(log Δ)` adjacency tests
/// and cache-friendly scans. Built either from an explicit edge list
/// ([`AdjGraph::from_edges`]) or by materialising any [`Topology`]
/// ([`AdjGraph::from_topology`]).
#[derive(Clone, Debug)]
pub struct AdjGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    max_deg: usize,
    min_deg: usize,
    diagnosability: usize,
    connectivity: usize,
    name: String,
}

impl AdjGraph {
    /// Build from an undirected edge list over nodes `0..n`.
    ///
    /// Duplicate edges and self loops are rejected with a panic: they would
    /// silently break the MM-model test semantics.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)], name: impl Into<String>) -> Self {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            assert_ne!(a, b, "self loop at node {a}");
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(edges.len() * 2);
        offsets.push(0);
        for (u, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            if list.windows(2).any(|w| w[0] == w[1]) {
                panic!("duplicate edge incident to node {u}");
            }
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        let max_deg = adj.iter().map(Vec::len).max().unwrap_or(0);
        let min_deg = adj.iter().map(Vec::len).min().unwrap_or(0);
        AdjGraph {
            offsets,
            targets,
            max_deg,
            min_deg,
            // Placeholder values; callers constructing raw graphs should use
            // `with_diagnosability` if they intend to run diagnosis on them.
            diagnosability: min_deg.saturating_sub(0),
            connectivity: 0,
            name: name.into(),
        }
    }

    /// Materialise any [`Topology`] into CSR form, inheriting its
    /// diagnosability, connectivity and name.
    pub fn from_topology<T: Topology + ?Sized>(t: &T) -> Self {
        let n = t.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut buf = Vec::new();
        offsets.push(0);
        let mut max_deg = 0;
        let mut min_deg = usize::MAX;
        for u in 0..n {
            t.neighbors_into(u, &mut buf);
            // A no-op on the catalogue, which emits ascending; kept for
            // topologies built outside it.
            buf.sort_unstable();
            max_deg = max_deg.max(buf.len());
            min_deg = min_deg.min(buf.len());
            targets.extend_from_slice(&buf);
            offsets.push(targets.len());
        }
        if n == 0 {
            min_deg = 0;
        }
        AdjGraph {
            offsets,
            targets,
            max_deg,
            min_deg,
            diagnosability: t.diagnosability(),
            connectivity: t.connectivity(),
            name: t.name(),
        }
    }

    /// Override the diagnosability recorded on this graph.
    pub fn with_diagnosability(mut self, delta: usize) -> Self {
        self.diagnosability = delta;
        self
    }

    /// Override the connectivity recorded on this graph.
    pub fn with_connectivity(mut self, kappa: usize) -> Self {
        self.connectivity = kappa;
        self
    }

    /// Neighbour slice of `u` (sorted).
    #[inline]
    pub fn neighbors_slice(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }
}

impl Topology for AdjGraph {
    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.neighbors_slice(u));
    }
    fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }
    fn max_degree(&self) -> usize {
        self.max_deg
    }
    fn min_degree(&self) -> usize {
        self.min_deg
    }
    fn diagnosability(&self) -> usize {
        self.diagnosability
    }
    fn connectivity(&self) -> usize {
        self.connectivity
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors_slice(u).binary_search(&v).is_ok()
    }
    fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> AdjGraph {
        AdjGraph::from_edges(3, &[(0, 1), (1, 2)], "P3")
    }

    #[test]
    fn csr_basics() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.neighbors(0), vec![1]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert!(g.are_adjacent(0, 1));
        assert!(!g.are_adjacent(0, 2));
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn rejects_self_loop() {
        AdjGraph::from_edges(2, &[(0, 0)], "bad");
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        AdjGraph::from_edges(2, &[(0, 1), (1, 0)], "bad");
    }

    #[test]
    fn from_topology_roundtrip() {
        let g = path3();
        let h = AdjGraph::from_topology(&g);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.neighbors(1), vec![0, 2]);
        assert_eq!(h.name(), "P3");
    }

    #[test]
    fn reference_forwarding() {
        let g = path3();
        let r: &dyn Topology = &g;
        assert_eq!(r.node_count(), 3);
        // Exercise the blanket `impl Topology for &T` explicitly.
        assert_eq!(Topology::degree(&&g, 1), 2);
    }

    #[test]
    fn sorted_adjacency_contract() {
        // CSR graphs are sorted by construction, whatever order the edges
        // or the materialised topology came in.
        let mut buf = Vec::new();
        let g = AdjGraph::from_edges(4, &[(1, 3), (1, 0), (2, 1)], "star");
        g.neighbors_into(1, &mut buf);
        assert_eq!(buf, vec![0, 2, 3]);
        Topology::neighbors_into(&&g, 1, &mut buf);
        assert_eq!(buf, vec![0, 2, 3]);

        // `from_topology` sorts too, so a topology from outside the
        // catalogue that emits out of order still gets a sorted CSR.
        struct Backwards;
        impl Topology for Backwards {
            fn node_count(&self) -> usize {
                4
            }
            fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
                out.clear();
                out.extend((0..4).rev().filter(|&v| v != u));
            }
            fn diagnosability(&self) -> usize {
                1
            }
            fn name(&self) -> String {
                "backwards".into()
            }
        }
        AdjGraph::from_topology(&Backwards).neighbors_into(1, &mut buf);
        assert_eq!(buf, vec![0, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = AdjGraph::from_edges(0, &[], "empty");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
