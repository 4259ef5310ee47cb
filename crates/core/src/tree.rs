//! The spanning tree `T` built by `Set_Builder` (§4.1).
//!
//! The function `t : U_r \ {u0} → U_r` ("`t(v)` is the parent of `v`")
//! describes a tree rooted at `u0`. Its *internal* nodes are exactly the
//! contributors `C_1 ∪ C_2 ∪ …`, which drive the all-healthy certificate;
//! and when diagnosis succeeds the tree spans the healthy nodes — the
//! by-product §6 points out "could possibly be utilised in some other
//! context".
//!
//! An edge is a `(child, parent)` pair of `u32` ids, 8 bytes per member:
//! the growth's workspace already caps a graph at `2³²` nodes, so every id
//! fits. The accessors below take and return [`NodeId`]s; a caller that
//! indexes a graph with an edge widens it with `as NodeId`.
//!
//! The edge list is shared: cloning a tree copies a pointer, not the
//! 8 bytes per member a million-node labelling holds, so a labelling can
//! be handed out and kept (the epoch monitor does both every epoch) at no
//! per-node cost. Equality still compares contents.

use mmdiag_topology::NodeId;
use std::sync::Arc;

/// A rooted spanning tree over a subset of the network's nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    /// `(child, parent)` pairs in the order children were attached.
    /// An `Arc<Vec<_>>` rather than an `Arc<[_]>`, which would copy the
    /// list once more on construction.
    edges: Arc<Vec<(u32, u32)>>,
}

impl SpanningTree {
    /// A tree consisting of just the root.
    pub fn singleton(root: NodeId) -> Self {
        SpanningTree::from_edges(root, Vec::new())
    }

    /// Construct from the root and `(child, parent)` pairs; the list is
    /// moved, not copied.
    pub fn from_edges(root: NodeId, edges: Vec<(u32, u32)>) -> Self {
        SpanningTree {
            root,
            edges: Arc::new(edges),
        }
    }

    /// The edge list, if no clone of this tree is left to share it.
    pub(crate) fn into_edges(self) -> Option<Vec<(u32, u32)>> {
        Arc::try_unwrap(self.edges).ok()
    }

    /// The root `u0`.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// `(child, parent)` pairs in attachment order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of nodes spanned (root + children).
    pub fn node_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// The parent of `v`, or `None` for the root / non-members.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.edges
            .iter()
            .find(|&&(c, _)| c as NodeId == v)
            .map(|&(_, p)| p as NodeId)
    }

    /// The internal nodes (nodes with at least one child) — the
    /// contributors of §4.1.
    pub fn internal_nodes(&self) -> Vec<NodeId> {
        let mut parents: Vec<NodeId> = self.edges.iter().map(|&(_, p)| p as NodeId).collect();
        parents.sort_unstable();
        parents.dedup();
        parents
    }

    /// Depth of `v` (root = 0), or `None` if `v` is not in the tree.
    pub fn depth(&self, v: NodeId) -> Option<usize> {
        if v == self.root {
            return Some(0);
        }
        let mut cur = v;
        let mut d = 0usize;
        // The edge list is acyclic by construction, so this terminates.
        loop {
            match self.parent(cur) {
                Some(p) => {
                    d += 1;
                    if p == self.root {
                        return Some(d);
                    }
                    cur = p;
                }
                None => return None,
            }
        }
    }

    /// Validate tree invariants: every child appears once, every parent is
    /// the root or some earlier child, no child equals the root.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        seen.insert(self.root);
        for &(c, p) in self.edges.iter() {
            let (c, p) = (c as NodeId, p as NodeId);
            if c == self.root {
                return Err(format!("root {c} appears as a child"));
            }
            if !seen.contains(&p) {
                return Err(format!("parent {p} of {c} not attached before it"));
            }
            if !seen.insert(c) {
                return Err(format!("child {c} attached twice"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanningTree {
        // 0 -> {1, 2}; 1 -> {3}
        SpanningTree::from_edges(0, vec![(1, 0), (2, 0), (3, 1)])
    }

    #[test]
    fn basics() {
        let t = sample();
        assert_eq!(t.root(), 0);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(9), None);
        t.validate().unwrap();
    }

    #[test]
    fn internal_nodes_are_contributors() {
        let t = sample();
        assert_eq!(t.internal_nodes(), vec![0, 1]);
    }

    #[test]
    fn depths() {
        let t = sample();
        assert_eq!(t.depth(0), Some(0));
        assert_eq!(t.depth(2), Some(1));
        assert_eq!(t.depth(3), Some(2));
        assert_eq!(t.depth(7), None);
    }

    #[test]
    fn singleton_tree() {
        let t = SpanningTree::singleton(5);
        assert_eq!(t.node_count(), 1);
        assert!(t.internal_nodes().is_empty());
        t.validate().unwrap();
    }

    /// A clone shares the edge list; trees built apart from equal lists
    /// compare equal, and unequal lists do not.
    #[test]
    fn clones_share_storage_and_equality_compares_contents() {
        let t = sample();
        let c = t.clone();
        assert!(std::ptr::eq(t.edges().as_ptr(), c.edges().as_ptr()));
        let apart = SpanningTree::from_edges(0, vec![(1, 0), (2, 0), (3, 1)]);
        assert!(!std::ptr::eq(t.edges().as_ptr(), apart.edges().as_ptr()));
        assert_eq!(t, apart);
        assert_ne!(t, SpanningTree::from_edges(0, vec![(1, 0), (3, 1), (2, 0)]));
        assert_ne!(t, SpanningTree::from_edges(1, vec![(0, 1), (2, 0), (3, 1)]));
    }

    /// Ids next to `u32::MAX` round-trip through every accessor, and an
    /// id past it is not read as its 32-bit truncation.
    #[test]
    fn ids_next_to_u32_max_round_trip() {
        let top = u32::MAX as NodeId;
        // top - 1 -> {top, 0}; top -> {top - 2}
        let t = SpanningTree::from_edges(
            top - 1,
            vec![
                (u32::MAX, u32::MAX - 1),
                (0, u32::MAX - 1),
                (u32::MAX - 2, u32::MAX),
            ],
        );
        t.validate().unwrap();
        assert_eq!(
            t.edges(),
            [
                (u32::MAX, u32::MAX - 1),
                (0, u32::MAX - 1),
                (u32::MAX - 2, u32::MAX)
            ]
        );
        assert_eq!(t.parent(top), Some(top - 1));
        assert_eq!(t.parent(top - 2), Some(top));
        assert_eq!(t.parent(0), Some(top - 1));
        assert_eq!(t.internal_nodes(), vec![top - 1, top]);
        assert_eq!(t.depth(top - 1), Some(0));
        assert_eq!(t.depth(top), Some(1));
        assert_eq!(t.depth(top - 2), Some(2));
        #[cfg(target_pointer_width = "64")]
        for past in [top + 1, top + 1 + (top - 2)] {
            // 2^32 and 2^32 + top - 2 truncate to members 0 and top - 2.
            assert_eq!(t.parent(past), None, "{past}");
            assert_eq!(t.depth(past), None, "{past}");
        }
        assert!(
            SpanningTree::from_edges(top, vec![(u32::MAX, u32::MAX - 1)])
                .validate()
                .is_err()
        );
    }

    #[test]
    fn validation_rejects_orphans() {
        let t = SpanningTree::from_edges(0, vec![(2, 1)]);
        assert!(t.validate().is_err());
    }
}
