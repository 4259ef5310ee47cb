//! The decomposition hook used by the paper's general algorithm (§5).
//!
//! Theorem 1 turns `Set_Builder` into a complete diagnosis procedure as soon
//! as the network can be *partitioned into enough sizeable connected
//! subgraphs*: if the number of parts exceeds the fault bound, some part is
//! entirely healthy, and running `Set_Builder` restricted to each part's
//! representative in turn is guaranteed to find a certified-healthy seed.
//!
//! Every family in [`crate::families`] implements [`Partitionable`] with the
//! exact decomposition the paper names for it (prefix-fixed subcubes for the
//! hypercube-like families, last-symbol classes for the permutation
//! families).

use crate::graph::{NodeId, Topology};
use std::sync::atomic::AtomicU64;

/// A topology equipped with the paper's canonical decomposition into
/// node-disjoint connected subgraphs.
pub trait Partitionable: Topology {
    /// Number of parts in the decomposition.
    fn part_count(&self) -> usize;

    /// The part containing node `u`.
    fn part_of(&self, u: NodeId) -> usize;

    /// A designated seed node inside `part` — the `(v, 0, 0, …, 0)` node of
    /// §5.1 for prefix decompositions.
    fn representative(&self, part: usize) -> NodeId;

    /// Number of nodes in `part`. Parts of the paper's decompositions are
    /// equal-sized; the default divides evenly.
    fn part_size(&self, part: usize) -> usize {
        let _ = part;
        self.node_count() / self.part_count()
    }

    /// The number of faults the partition-driven algorithm supports for this
    /// instance.
    ///
    /// Usually equal to [`Topology::diagnosability`], but strictly smaller
    /// when the paper says so: Theorem 7 diagnoses at most `n − 1` faults in
    /// the arrangement graph `A_{n,k}` even though its diagnosability is
    /// `k(n−k)`, because its decomposition only has `n` parts.
    fn driver_fault_bound(&self) -> usize {
        self.diagnosability()
    }

    /// Check the structural preconditions of the general algorithm for this
    /// instance: more parts than the fault bound, and each part with more
    /// than `bound + 1` nodes (a tree on `bound + 1` nodes has at most
    /// `bound` internal nodes, so the all-healthy certificate could never
    /// fire — see [`crate::families::minimal_partition_dim`]). Returns a
    /// human-readable reason on failure.
    fn check_partition_preconditions(&self) -> Result<(), String> {
        let bound = self.driver_fault_bound();
        let parts = self.part_count();
        if parts <= bound {
            return Err(format!(
                "{}: {parts} parts is not more than the fault bound {bound}",
                self.name()
            ));
        }
        for p in 0..parts {
            let sz = self.part_size(p);
            if sz <= bound + 1 {
                return Err(format!(
                    "{}: part {p} has {sz} nodes; the certificate needs more than {} \
                     so its spanning tree can exceed {bound} internal nodes",
                    self.name(),
                    bound + 1
                ));
            }
        }
        Ok(())
    }

    /// The counter [`Cached::new`](crate::Cached::new) bumps each time it
    /// materialises this topology into a CSR, on whichever thread does it.
    /// `None` (the default) for topologies that do not count; the CSR-free
    /// `mmdiag_implicit::ImplicitTopology` counts, so a guard can prove
    /// its scale path never materialised it — pool workers included.
    fn materialisations(&self) -> Option<&AtomicU64> {
        None
    }
}

impl<T: Partitionable + ?Sized> Partitionable for &T {
    fn part_count(&self) -> usize {
        (**self).part_count()
    }
    fn part_of(&self, u: NodeId) -> usize {
        (**self).part_of(u)
    }
    fn representative(&self, part: usize) -> NodeId {
        (**self).representative(part)
    }
    fn part_size(&self, part: usize) -> usize {
        (**self).part_size(part)
    }
    fn driver_fault_bound(&self) -> usize {
        (**self).driver_fault_bound()
    }
    fn materialisations(&self) -> Option<&AtomicU64> {
        (**self).materialisations()
    }
}

/// Contributors (internal nodes) of the tree the restricted `Set_Builder`
/// probe grows inside `part` when **every** test answers `Agree` — i.e. the
/// tree a fault-free part produces, which is a pure graph invariant of the
/// decomposition.
///
/// This mirrors `mmdiag_core::set_builder_in_part` exactly (level-1 witness
/// pairs, layered growth, the child-spreading parent reassignment) with the
/// syndrome fixed to all-`Agree`; the core test-suite cross-checks the two
/// against each other so they cannot drift apart. It is one of three
/// copies of the rules (core, this one, and the sampled verifier in
/// `mmdiag-baselines`). It cannot call core, which sits above this crate:
/// families cap [`Partitionable::driver_fault_bound`] with it, and it must
/// stay part-local (`O(|part|)` memory) at 10⁶⁺ nodes.
///
/// Why it matters: the §4.1 certificate fires only when the probe's tree has
/// *more than `fault_bound`* internal nodes, and for dense low-diameter
/// parts the maximal-growth tree is shallow — its internal-node count can
/// sit far below the part's node count (e.g. a 16-node augmented-`k`-ary
/// part yields only 7). A fault bound at or above this value makes
/// certification impossible even with zero faults, so
/// [`Partitionable::driver_fault_bound`] implementations must stay below it.
///
/// Every scratch structure is a hash map keyed by the nodes actually
/// visited — `O(|part|)` memory, never `O(N)` arrays. That is what makes
/// capacity questions answerable at 10⁶⁺ nodes: probing one 64-node part of
/// `Q_22` must not allocate four-million-entry arrays. The implicit-topology
/// scale path, [`certified_partition_dim`] and [`certified_fault_capacity`]
/// all rely on it.
pub fn honest_probe_contributors<T: Partitionable + ?Sized>(g: &T, part: usize) -> usize {
    use std::collections::HashMap;

    let u0 = g.representative(part);
    let in_part = |v: NodeId| g.part_of(v) == part;

    // Per-visited-node state: (parent, layer, claims, contributed).
    #[derive(Clone, Copy)]
    struct Node {
        parent: NodeId,
        layer: u32,
        claims: u32,
        contributed: bool,
    }
    let mut state: HashMap<NodeId, Node> = HashMap::new();
    state.insert(
        u0,
        Node {
            parent: u0,
            layer: 0,
            claims: 0,
            contributed: false,
        },
    );

    let mut candidates: Vec<NodeId> = g
        .neighbors(u0)
        .into_iter()
        .filter(|&v| in_part(v))
        .collect();
    candidates.sort_unstable();
    if candidates.len() < 2 {
        return 0;
    }
    let mut frontier = candidates;
    for &v in &frontier {
        state.insert(
            v,
            Node {
                parent: u0,
                layer: 1,
                claims: 0,
                contributed: false,
            },
        );
    }
    let mut contributors = 1usize; // u0
    state.get_mut(&u0).expect("seed visited").contributed = true;

    let mut buf = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    let mut cur_layer = 1u32;
    while !frontier.is_empty() {
        next.clear();
        cur_layer += 1;
        frontier.sort_unstable();
        for &u in &frontier {
            let tu = state[&u].parent;
            g.neighbors_into(u, &mut buf);
            for &v in &buf {
                if v == tu || !in_part(v) {
                    continue;
                }
                if let Some(&seen) = state.get(&v) {
                    // Spread heuristic: move a same-layer child to an
                    // unused eligible parent (all tests agree here, so
                    // eligibility is purely structural).
                    if seen.layer == cur_layer
                        && state[&seen.parent].claims > 1
                        && state[&u].claims == 0
                    {
                        state.get_mut(&seen.parent).expect("parent visited").claims -= 1;
                        state.get_mut(&u).expect("frontier visited").claims += 1;
                        state.get_mut(&v).expect("child visited").parent = u;
                    }
                    continue;
                }
                state.insert(
                    v,
                    Node {
                        parent: u,
                        layer: cur_layer,
                        claims: 0,
                        contributed: false,
                    },
                );
                state.get_mut(&u).expect("frontier visited").claims += 1;
                next.push(v);
            }
        }
        for &u in &frontier {
            state.get_mut(&u).expect("frontier visited").claims = 0;
        }
        for &v in &next {
            let p = state[&v].parent;
            let pn = state.get_mut(&p).expect("parent visited");
            if !pn.contributed {
                pn.contributed = true;
                contributors += 1;
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    contributors
}

/// Capacity-aware partition-dimension chooser: walk `m` upward from `lo`
/// and return the first dimension whose decomposition both keeps strictly
/// more parts than `bound` *and* certifies — the representative's honest
/// probe tree (computed part-locally, so this is cheap even on 10⁶⁺-node
/// instances) has strictly more than `bound` internal nodes.
///
/// This closes the gap [`crate::families::minimal_partition_dim`] leaves
/// open: the size inequality `radix^m > bound + 1` is necessary but not
/// sufficient, because dense low-diameter parts grow shallow probe trees
/// (the `Q^3_11` discovery: 27-node parts top out at 15 internal nodes
/// against fault bound 22). Only part 0 is probed — the prefix
/// decompositions this is used with induce the same subgraph in every part
/// (fixing the prefix does not change the low-coordinate adjacency rules),
/// so one part speaks for all of them.
pub fn certified_partition_dim<G, F>(n: usize, bound: usize, lo: usize, build: F) -> Option<usize>
where
    G: Partitionable,
    F: Fn(usize) -> G,
{
    for m in lo..n {
        let g = build(m);
        if g.part_count() <= bound {
            // Parts only get scarcer as m grows; no larger m can work.
            return None;
        }
        if honest_probe_contributors(&g, 0) > bound {
            return Some(m);
        }
    }
    None
}

/// The largest fault bound the partition-driven driver can support on this
/// decomposition: every part must be able to certify when fault-free
/// (strictly more probe-tree internal nodes than the bound) and the
/// pigeonhole argument needs strictly more parts than faults.
///
/// Families whose diagnosability exceeds this value must cap their
/// [`Partitionable::driver_fault_bound`] at it; otherwise `diagnose` cannot
/// complete even on a fault-free syndrome.
pub fn certified_fault_capacity<T: Partitionable + ?Sized>(g: &T) -> usize {
    let parts = g.part_count();
    let min_contrib = (0..parts)
        .map(|p| honest_probe_contributors(g, p))
        .min()
        .unwrap_or(0);
    min_contrib.saturating_sub(1).min(parts.saturating_sub(1))
}

/// Verify, by exhaustive scan, that a [`Partitionable`] implementation is a
/// genuine partition: every node belongs to exactly one part, representatives
/// lie in their own part, part sizes agree, and each part induces a connected
/// subgraph. Used by the family test-suites.
pub fn validate_partition<T: Partitionable + ?Sized>(g: &T) -> Result<(), String> {
    let n = g.node_count();
    let parts = g.part_count();
    let mut sizes = vec![0usize; parts];
    for u in 0..n {
        let p = g.part_of(u);
        if p >= parts {
            return Err(format!("node {u} maps to out-of-range part {p}"));
        }
        sizes[p] += 1;
    }
    for (p, &counted) in sizes.iter().enumerate() {
        if counted != g.part_size(p) {
            return Err(format!(
                "part {p}: claimed size {} but counted {}",
                g.part_size(p),
                counted
            ));
        }
        let rep = g.representative(p);
        if rep >= n {
            return Err(format!("representative {rep} of part {p} out of range"));
        }
        if g.part_of(rep) != p {
            return Err(format!(
                "representative {rep} of part {p} lies in part {}",
                g.part_of(rep)
            ));
        }
    }
    // Connectivity of each induced part via restricted DFS.
    let mut seen = vec![false; n];
    let mut buf = Vec::new();
    for (p, &expected) in sizes.iter().enumerate() {
        let rep = g.representative(p);
        let mut stack = vec![rep];
        let mut count = 0usize;
        seen[rep] = true;
        while let Some(u) = stack.pop() {
            count += 1;
            g.neighbors_into(u, &mut buf);
            for &v in &buf {
                if !seen[v] && g.part_of(v) == p {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        if count != expected {
            return Err(format!(
                "part {p} is disconnected: reached {count} of {expected} nodes"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AdjGraph;

    /// Two disjoint triangles joined by a matching; parts = the triangles.
    struct TwoTriangles {
        g: AdjGraph,
    }

    impl TwoTriangles {
        fn new() -> Self {
            let edges = [
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (4, 5),
                (3, 5),
                (0, 3),
                (1, 4),
                (2, 5),
            ];
            TwoTriangles {
                g: AdjGraph::from_edges(6, &edges, "2K3"),
            }
        }
    }

    impl Topology for TwoTriangles {
        fn node_count(&self) -> usize {
            self.g.node_count()
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            self.g.neighbors_into(u, out)
        }
        fn diagnosability(&self) -> usize {
            1
        }
        fn name(&self) -> String {
            "2K3".into()
        }
    }

    impl Partitionable for TwoTriangles {
        fn part_count(&self) -> usize {
            2
        }
        fn part_of(&self, u: NodeId) -> usize {
            u / 3
        }
        fn representative(&self, part: usize) -> usize {
            part * 3
        }
    }

    #[test]
    fn valid_partition_passes() {
        let t = TwoTriangles::new();
        assert!(validate_partition(&t).is_ok());
        assert!(t.check_partition_preconditions().is_ok());
    }

    struct BadRep(TwoTriangles);
    impl Topology for BadRep {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            self.0.neighbors_into(u, out)
        }
        fn diagnosability(&self) -> usize {
            1
        }
        fn name(&self) -> String {
            "bad".into()
        }
    }
    impl Partitionable for BadRep {
        fn part_count(&self) -> usize {
            2
        }
        fn part_of(&self, u: NodeId) -> usize {
            u / 3
        }
        fn representative(&self, _part: usize) -> usize {
            0 // wrong for part 1
        }
    }

    #[test]
    fn misplaced_representative_is_rejected() {
        let b = BadRep(TwoTriangles::new());
        let err = validate_partition(&b).unwrap_err();
        assert!(err.contains("representative"), "{err}");
    }

    #[test]
    fn honest_probe_on_triangle_parts() {
        // A triangle part: seed's two in-part neighbours form the witness
        // pair and both join at level 1 — the seed is the only internal
        // node.
        let t = TwoTriangles::new();
        assert_eq!(honest_probe_contributors(&t, 0), 1);
        assert_eq!(honest_probe_contributors(&t, 1), 1);
        // capacity = min(contributors − 1, parts − 1) = 0: the triangle
        // decomposition cannot certify any positive fault bound.
        assert_eq!(certified_fault_capacity(&t), 0);
    }

    /// A path part (0-1-2 | 3-4-5 as two paths joined by a matching): the
    /// representative has a single in-part neighbour, so the level-1
    /// witness pair never exists and the probe tree is the bare seed.
    struct TwoPaths {
        g: AdjGraph,
    }
    impl TwoPaths {
        fn new() -> Self {
            let edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
            TwoPaths {
                g: AdjGraph::from_edges(6, &edges, "2P3"),
            }
        }
    }
    impl Topology for TwoPaths {
        fn node_count(&self) -> usize {
            6
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            self.g.neighbors_into(u, out)
        }
        fn diagnosability(&self) -> usize {
            1
        }
        fn name(&self) -> String {
            "2P3".into()
        }
    }
    impl Partitionable for TwoPaths {
        fn part_count(&self) -> usize {
            2
        }
        fn part_of(&self, u: NodeId) -> usize {
            u / 3
        }
        fn representative(&self, part: usize) -> usize {
            part * 3
        }
    }

    #[test]
    fn honest_probe_needs_a_witness_pair() {
        let t = TwoPaths::new();
        assert_eq!(honest_probe_contributors(&t, 0), 0);
        assert_eq!(certified_fault_capacity(&t), 0);
    }

    #[test]
    fn certified_dim_walks_past_uncertifiable_sizes() {
        use crate::families::Hypercube;
        // Q_10 with the size-minimal m = 4: 16-node parts top out at 8
        // probe-tree internal nodes, below the bound 10 — the chooser must
        // walk to m = 5 (32-node parts certify bound 10).
        let m = certified_partition_dim(10, 10, 4, |m| Hypercube::with_partition_dim(10, m));
        assert_eq!(m, Some(5));
        // An impossible bound exhausts the part-count budget and bails.
        assert_eq!(
            certified_partition_dim(10, 600, 4, |m| Hypercube::with_partition_dim(10, m)),
            None
        );
    }
}
