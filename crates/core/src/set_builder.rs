//! `Set_Builder` — the core procedure of §4.1.
//!
//! Starting from a seed `u0`, grow sets `U_0 ⊆ U_1 ⊆ …` by following
//! `0`-valued comparison results:
//!
//! * `U_1 = {u0} ∪ {v : (u0,v) ∈ E, ∃w ≠ v with s_{u0}(v,w) = 0}`, with
//!   `t(v) = u0` for the new nodes;
//! * `U_i = U_{i−1} ∪ {v ∉ U_{i−1} : s_u(v, t(u)) = 0 for some
//!   u ∈ U_{i−1} \ U_{i−2}}`, with `t(v)` the least such `u`.
//!
//! The parents used at each level are the *contributors* `C_i`; no node
//! contributes to two levels. If `|C_1 ∪ … ∪ C_i|` ever exceeds the fault
//! bound `δ`, every node of the final set `U_r` is provably healthy
//! (`all_healthy`): a faulty internal node of the tree `T` would force all
//! internal nodes faulty, exceeding `δ`.
//!
//! Two access modes are provided: unrestricted ([`set_builder`]) and
//! restricted to one part of a decomposition ([`set_builder_in_part`],
//! the paper's `Set_Builder(u0, H)` — "only adds nodes of `H`", with the
//! adjacency relation restricted to `H`). The restricted probe stops at the
//! first layer flush that certifies (see [below](#where-the-probe-stops));
//! [`set_builder_filtered`] grows its subgraph to the end.
//!
//! ## Where the probe stops
//!
//! The certificate is complete at the first flush (the close of a layer)
//! whose contributor count exceeds `δ`, so the restricted probe returns
//! there. Take the probe's tree after any flush:
//!
//! * every non-root internal node `p` attached some child `c` with
//!   `s_p(c, t(p)) = 0`, and `u0`'s children come in agreeing pairs
//!   `s_u0(c, c') = 0`;
//! * the spread rule (below) moves only children of the layer being built,
//!   and each move carries its own witness `s_u(v, t(u)) = 0`;
//! * a healthy tester answers 0 only when both nodes it compares are
//!   healthy. So a healthy internal `p ≠ u0` makes `t(p)` healthy, and by
//!   induction `u0`; a healthy `u0` makes every member healthy.
//!
//! So if any member were faulty, every internal node would be faulty. With
//! more than `δ` internal nodes and `|F| ≤ δ` that cannot happen: the tree
//! at that flush already proves its members healthy, and layers added after
//! it add members, not certainty. Contributor counts never fall from one
//! flush to the next, so "exceeds `δ` at some flush" is the same predicate
//! whether the probe stops there or runs on: which part certifies, how many
//! parts a run probes, and the growth from `u0` are the same either way.
//! Only the certificate's tree and the probe's reads shrink.
//!
//! ## Parent selection (deviation from the paper's tie-break)
//!
//! The paper sets `t(v)` to the *least* eligible parent. That choice
//! concentrates children on few parents and can leave a fault-free part
//! with `≤ δ` contributors, so the certificate never fires (e.g. the
//! 27-node `Q³_3` parts of `Q³_6`: a layered tree from a corner has only
//! 9 internal nodes against `δ = 12`). Any eligible parent is equally
//! sound — the health-propagation argument only needs *some* witness test
//! `s_u(v, t(u)) = 0` — so we instead deterministically *spread* children
//! across distinct parents (reassigning a child to an unused eligible
//! parent when its current parent already has other children). This
//! maximises `|C_1 ∪ … ∪ C_i|` without changing the set `U_r`, the
//! asymptotics, or the §6 lookup bound.
//!
//! Time: `O(Δ·|U_r|)` (plus the `O(Δ²)` seed step); syndrome entries
//! consulted: at most `C(Δ,2)` for the seed plus `Δ − 1` per other member,
//! the §6 bound `(Δ−1)(Δ/2 + |U_r| − 1)`. Memory: a [`Workspace`] of 4
//! bytes and two bits per node of the graph, reused across runs, plus the
//! returned tree's 8-byte `(child, parent)` edge per member, a list of the
//! visited-bitmap words the run touched, and two buffers as wide as the
//! widest layer. Each layer's frontier is emitted in ascending order
//! without a sort where the layer is dense in the id space.

use crate::tree::SpanningTree;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable, Topology};

/// Reusable scratch space for `Set_Builder` runs: 4 bytes and two bits per
/// node, so successive probes over the same graph reuse one `O(N)`
/// allocation.
///
/// Per node:
///
/// * `parent: u32` — `t(v)` for a member `v`. While `v`'s layer is being
///   built it holds the frontier position of `v`'s parent instead, which
///   finds that parent's claim counter in O(1); the layer's flush rewrites
///   it to the parent's id;
/// * one bit of a visited bitmap, set exactly for the current run's
///   members;
/// * one bit of a layer bitmap, set while the node belongs to the layer
///   being built.
///
/// A run starts by clearing only what the run before it set: `touched`
/// lists every visited-bitmap word a run made non-zero, and the next run
/// zeroes just those words. This is what keeps the probe-every-part driver
/// at `O(Δ·N)` rather than `O(parts · N)`: a run that returns
/// `NoPartCertified` probes every part, and each probe's reset costs at
/// most one word per node the probe before it visited, not the whole
/// bitmap. The list pushes a word when its bit is set, so it is exact also
/// after a run that a panicking source unwound. The layer bitmap needs no
/// list: emitting a layer clears its bits, and a run that stopped
/// mid-layer leaves the workspace dirty, so the next run clears the whole
/// layer bitmap first.
///
/// Per run, beside these: the touched list (at most one `u32` per 64
/// nodes), the frontier, one claim counter per frontier position, and the
/// tree's edge list, which the run returns. Node ids and frontier
/// positions are stored as `u32`, so a workspace serves graphs of at most
/// `2³²` nodes.
pub struct Workspace {
    parent: Vec<u32>,
    visited: Vec<u64>,
    /// Indices of the `visited` words this run made non-zero.
    touched: Vec<u32>,
    layer_bits: Vec<u64>,
    /// A layer's bits may be set: the scan started and its layer was not
    /// yet emitted.
    dirty: bool,
    /// The layer being scanned, ascending.
    pub(crate) frontier: Vec<u32>,
    /// Children claimed by each frontier position in the layer being built.
    claims: Vec<u32>,
    nbuf: Vec<NodeId>,
    /// Bitmap words `begin` has zeroed over the workspace's life.
    #[cfg(test)]
    pub(crate) cleared: usize,
}

impl Workspace {
    /// Scratch space for a graph with `n` nodes.
    ///
    /// # Panics
    ///
    /// If `n > 2³²`, before allocating anything.
    pub fn new(n: usize) -> Self {
        assert!(
            n as u64 <= 1 << 32,
            "a workspace stores node ids in 32 bits: {n} nodes exceed 2^32"
        );
        Workspace {
            parent: vec![0; n],
            visited: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
            layer_bits: vec![0; n.div_ceil(64)],
            dirty: false,
            frontier: Vec::new(),
            claims: Vec::new(),
            nbuf: Vec::new(),
            #[cfg(test)]
            cleared: 0,
        }
    }

    fn begin(&mut self) {
        #[cfg(test)]
        {
            self.cleared += self.touched.len() + usize::from(self.dirty) * self.layer_bits.len();
        }
        for &w in &self.touched {
            self.visited[w as usize] = 0;
        }
        self.touched.clear();
        if self.dirty {
            self.layer_bits.fill(0);
            self.dirty = false;
        }
        self.frontier.clear();
    }

    /// Is `u` a member of the current run's set?
    #[inline]
    pub(crate) fn seen(&self, u: NodeId) -> bool {
        self.visited[u / 64] & (1 << (u % 64)) != 0
    }

    /// Mark `u` visited with `parent` (a node id, or a frontier position
    /// while `u`'s layer is built). Both are below `n ≤ 2³²`.
    #[inline]
    fn visit(&mut self, u: NodeId, parent: usize) {
        let word = &mut self.visited[u / 64];
        if *word == 0 {
            self.touched.push((u / 64) as u32);
        }
        *word |= 1 << (u % 64);
        self.parent[u] = parent as u32;
    }

    #[inline]
    fn in_layer(&self, v: NodeId) -> bool {
        self.layer_bits[v / 64] & (1 << (v % 64)) != 0
    }

    /// Close the layer whose `(child, first claimant)` edges are `layer`:
    /// rewrite every child's parent from a frontier position to the final
    /// parent's id (in `parent` and in `layer`), then replace the frontier
    /// with the layer in ascending order and clear the layer's bits. Returns
    /// the layer's contributors: the frontier positions that still hold a
    /// claim.
    ///
    /// The layer is emitted by a scan of the bitmap words between its
    /// lowest and highest id when that span holds at most 4 words per
    /// member, and by a sort otherwise, so either way costs O(layer size).
    fn flush_layer(&mut self, layer: &mut [(u32, u32)]) -> usize {
        let (mut lo, mut hi) = (u32::MAX, 0);
        for edge in layer.iter_mut() {
            let v = edge.0;
            let p = self.frontier[self.parent[v as usize] as usize];
            self.parent[v as usize] = p;
            edge.1 = p;
            (lo, hi) = (lo.min(v), hi.max(v));
        }
        let contributors = self.claims.iter().filter(|&&c| c > 0).count();
        self.frontier.clear();
        let (first, last) = (lo as usize / 64, hi as usize / 64);
        if last - first < 4 * layer.len() {
            for w in first..=last {
                let mut bits = std::mem::take(&mut self.layer_bits[w]);
                while bits != 0 {
                    self.frontier.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            self.frontier.extend(layer.iter().map(|&(v, _)| v));
            self.frontier.sort_unstable();
            for &v in &self.frontier {
                self.layer_bits[v as usize / 64] &= !(1 << (v % 64));
            }
        }
        self.dirty = false;
        contributors
    }
}

/// Outcome of a `Set_Builder` run: for the restricted probe, the set and
/// tree at the flush where it stopped.
#[derive(Clone, Debug)]
pub struct SetBuilderOutcome {
    /// Was `|C_1 ∪ … ∪ C_i| > δ` reached — i.e. is every member of `U_r`
    /// *provably* healthy?
    pub all_healthy: bool,
    /// The members of `U_r`, in attachment order (`u0` first).
    pub members: Vec<NodeId>,
    /// The tree `T` described by the parent function `t`.
    pub tree: SpanningTree,
    /// `|C_1 ∪ … ∪ C_r|` — the number of distinct contributors.
    pub contributors: usize,
    /// The number of levels `r` built (0 if `U_1 = {u0}`).
    pub rounds: usize,
    /// Syndrome entries consulted during this run.
    pub lookups_used: u64,
}

/// `Set_Builder(u0)`: unrestricted growth over the whole graph.
pub fn set_builder<T, S>(
    g: &T,
    s: &S,
    u0: NodeId,
    fault_bound: usize,
    ws: &mut Workspace,
) -> SetBuilderOutcome
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    set_builder_filtered(g, s, u0, fault_bound, |_| true, ws)
}

/// `Set_Builder(u0, H)`: growth restricted to the part of the
/// decomposition containing `u0` (§5.1 — "only adds nodes of `H` to the
/// sets it builds"), up to the first layer flush that certifies: the
/// outcome is the restricted tree at that flush, or the whole restricted
/// growth when no flush certifies (see [where the probe
/// stops](self#where-the-probe-stops)). A `fault_bound` of `usize::MAX`
/// never certifies, so it grows the whole part.
pub fn set_builder_in_part<T, S>(
    g: &T,
    s: &S,
    u0: NodeId,
    fault_bound: usize,
    ws: &mut Workspace,
) -> SetBuilderOutcome
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let part = g.part_of(u0);
    let accept = |v| g.part_of(v) == part;
    let mut core = GrowthCore::start(g, s, u0, fault_bound, &accept, ws, &mut |_| {});
    while !core.all_healthy && core.advance_layer(g, s, &accept, ws, &mut |_| {}) {}
    core.finish(s)
}

/// The paper's full `Set_Builder` over the subgraph `H` that `accept`
/// delimits (nodes for which it returns `true`; `u0` must be accepted),
/// grown to the end.
pub fn set_builder_filtered<T, S, F>(
    g: &T,
    s: &S,
    u0: NodeId,
    fault_bound: usize,
    accept: F,
    ws: &mut Workspace,
) -> SetBuilderOutcome
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
    F: Fn(NodeId) -> bool,
{
    let mut core = GrowthCore::start(g, s, u0, fault_bound, &accept, ws, &mut |_| {});
    while core.advance_layer(g, s, &accept, ws, &mut |_| {}) {}
    core.finish(s)
}

/// Incremental driver for the §4.1 growth loop, shared between
/// [`set_builder_filtered`], [`set_builder_in_part`] (which stops at the
/// first flush that certifies) and the diagnosis growth in `crate::grow`
/// (which records one round per layer).
///
/// Every syndrome lookup that *disagrees* on a then-unvisited candidate is
/// reported to the `reject` sink. In an unrestricted run each member is
/// scanned as frontier exactly once and looks up every still-unvisited
/// neighbour, so the sink — filtered to never-visited nodes at the end —
/// reproduces `N(U_r) \ U_r` without the O(N) full-graph sweep the
/// diagnosis driver used to do. The sequential entry point passes a no-op
/// sink and keeps its historical behaviour (and lookup counts) exactly.
///
/// The tree's edge list is the run's only member list: `u0` followed by
/// the edges' children, in attachment order.
pub(crate) struct GrowthCore {
    u0: NodeId,
    fault_bound: usize,
    start_lookups: u64,
    edges: Vec<(u32, u32)>,
    contributors: usize,
    all_healthy: bool,
    rounds: usize,
    /// `L_s`: the last layer grown while the spread heuristic was live,
    /// the layer after whose flush `all_healthy` turned true (layer 1 when
    /// it fired on the seed step); `None` while it has not fired. Past it
    /// every layer is the plain breadth-first rule that
    /// [`crate::memo::GrowthMemo`] repairs in place.
    spread_layers: Option<usize>,
}

impl GrowthCore {
    /// Seed the run: `ws.begin()`, then level 1 (pairs of `u0`'s
    /// neighbours within `H`, O(Δ²) worst case, at most C(Δ, 2) syndrome
    /// entries). Leaves `U_1 \ {u0}` in `ws.frontier`, ascending.
    pub(crate) fn start<T, S, F, R>(
        g: &T,
        s: &S,
        u0: NodeId,
        fault_bound: usize,
        accept: &F,
        ws: &mut Workspace,
        reject: &mut R,
    ) -> Self
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
        F: Fn(NodeId) -> bool,
        R: FnMut(NodeId),
    {
        debug_assert!(accept(u0), "seed must lie in the searched subgraph");
        let start_lookups = s.lookups();
        ws.begin();
        ws.visit(u0, u0);
        let mut edges: Vec<(u32, u32)> = Vec::new();

        g.neighbors_into(u0, &mut ws.nbuf);
        ws.nbuf.retain(|&v| accept(v));
        let candidates = std::mem::take(&mut ws.nbuf);
        {
            let mut in_u1 = vec![false; candidates.len()];
            for i in 0..candidates.len() {
                for j in (i + 1)..candidates.len() {
                    if in_u1[i] && in_u1[j] {
                        continue;
                    }
                    if s.lookup(u0, candidates[i], candidates[j]).is_agree() {
                        in_u1[i] = true;
                        in_u1[j] = true;
                    }
                }
            }
            for (idx, &v) in candidates.iter().enumerate() {
                if in_u1[idx] {
                    ws.visit(v, u0);
                    edges.push((v as u32, u0 as u32));
                    ws.frontier.push(v as u32);
                } else {
                    reject(v);
                }
            }
        }
        ws.nbuf = candidates;

        // u0 contributed to U_1, if U_1 grew; it is in no frontier, so no
        // later layer counts it again.
        let grew = !ws.frontier.is_empty();
        let contributors = usize::from(grew);
        let all_healthy = contributors > fault_bound;
        GrowthCore {
            u0,
            fault_bound,
            start_lookups,
            edges,
            contributors,
            all_healthy,
            rounds: usize::from(grew),
            spread_layers: all_healthy.then_some(1),
        }
    }

    /// `L_s`, once the in-growth certificate has fired.
    pub(crate) fn spread_layers(&self) -> Option<usize> {
        self.spread_layers
    }

    /// Nodes attached so far besides `u0`.
    pub(crate) fn attached(&self) -> usize {
        self.edges.len()
    }

    /// The tree's `(child, parent)` edges attached so far.
    pub(crate) fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// One level `i ≥ 2`: each frontier node `u` tests candidates `v`
    /// against its own parent `t(u)`, at most Δ − 1 entries per frontier
    /// node. Returns `false` when growth is finished (empty frontier or no
    /// additions), `true` after a flushed layer.
    pub(crate) fn advance_layer<T, S, F, R>(
        &mut self,
        g: &T,
        s: &S,
        accept: &F,
        ws: &mut Workspace,
        reject: &mut R,
    ) -> bool
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
        F: Fn(NodeId) -> bool,
        R: FnMut(NodeId),
    {
        if ws.frontier.is_empty() {
            return false;
        }
        let layer_start = self.edges.len();
        ws.claims.clear();
        ws.claims.resize(ws.frontier.len(), 0);
        ws.dirty = true;
        // The frontier is ascending: a deterministic scan order (the spread
        // heuristic below replaces the paper's "least contributing node"
        // tie-break; see module docs).
        for fi in 0..ws.frontier.len() {
            let u = ws.frontier[fi] as NodeId;
            let tu = ws.parent[u] as NodeId;
            g.neighbors_into(u, &mut ws.nbuf);
            for idx in 0..ws.nbuf.len() {
                let v = ws.nbuf[idx];
                if v == tu || !accept(v) {
                    continue;
                }
                if ws.seen(v) {
                    // Spread heuristic: if v joined this very layer under a
                    // parent that already has other children, and u is an
                    // eligible parent with no children yet, move v to u.
                    // Soundness needs the witness test s_u(v, t(u)) = 0.
                    if !self.all_healthy && ws.in_layer(v) {
                        let pv = ws.parent[v] as usize;
                        if ws.claims[pv] > 1 && ws.claims[fi] == 0 && s.lookup(u, v, tu).is_agree()
                        {
                            ws.claims[pv] -= 1;
                            ws.claims[fi] += 1;
                            ws.parent[v] = fi as u32;
                        }
                    }
                    continue;
                }
                if s.lookup(u, v, tu).is_agree() {
                    ws.visit(v, fi);
                    ws.layer_bits[v / 64] |= 1 << (v % 64);
                    ws.claims[fi] += 1;
                    self.edges.push((v as u32, u as u32));
                } else {
                    reject(v);
                }
            }
        }
        if self.edges.len() == layer_start {
            ws.dirty = false;
            return false;
        }
        self.rounds += 1;
        self.contributors += ws.flush_layer(&mut self.edges[layer_start..]);
        if !self.all_healthy && self.contributors > self.fault_bound {
            self.all_healthy = true;
            self.spread_layers = Some(self.rounds);
        }
        true
    }

    /// The tree `T` grown so far.
    pub(crate) fn into_tree(self) -> SpanningTree {
        SpanningTree::from_edges(self.u0, self.edges)
    }

    /// Package the accumulated state as a [`SetBuilderOutcome`], its
    /// members read off the tree.
    pub(crate) fn finish<S>(self, s: &S) -> SetBuilderOutcome
    where
        S: SyndromeSource + ?Sized,
    {
        let lookups_used = s.lookups().saturating_sub(self.start_lookups);
        let (all_healthy, contributors, rounds) =
            (self.all_healthy, self.contributors, self.rounds);
        let tree = self.into_tree();
        let members = std::iter::once(tree.root())
            .chain(tree.edges().iter().map(|&(child, _)| child as NodeId))
            .collect();
        SetBuilderOutcome {
            all_healthy,
            members,
            tree,
            contributors,
            rounds,
            lookups_used,
        }
    }
}

/// The §6 upper bound on syndrome consultations for a run that produced a
/// set of `set_size` nodes in a graph of maximal degree `delta`:
/// `(Δ−1)(Δ/2 + |U_r| − 1)`.
pub fn lookup_bound(delta: usize, set_size: usize) -> u64 {
    if delta == 0 {
        return 0;
    }
    // Computed as C(Δ,2) + (Δ−1)(|U_r| − 1) to avoid the ×2 rounding in the
    // paper's compact form.
    ((delta * (delta - 1)) / 2 + (delta - 1) * set_size.saturating_sub(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_same;
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;

    fn oracle(n: usize, faults: &[NodeId], b: TesterBehavior) -> OracleSyndrome {
        OracleSyndrome::new(FaultSet::new(n, faults), b)
    }

    #[test]
    fn fault_free_hypercube_grows_everything() {
        let g = Hypercube::with_partition_dim(5, 3);
        let s = oracle(32, &[], TesterBehavior::AllZero);
        let mut ws = Workspace::new(32);
        let out = set_builder(&g, &s, 0, 5, &mut ws);
        assert!(out.all_healthy);
        assert_eq!(out.members.len(), 32);
        assert!(out.contributors > 5);
        out.tree.validate().unwrap();
        assert_eq!(out.tree.node_count(), 32);
    }

    #[test]
    fn faulty_neighbours_are_never_added() {
        let g = Hypercube::with_partition_dim(5, 3);
        for b in mmdiag_syndrome::behavior_sweep(3) {
            let faults = [1usize, 2, 16];
            let s = oracle(32, &faults, b);
            let mut ws = Workspace::new(32);
            let out = set_builder(&g, &s, 0, 5, &mut ws);
            // Seed 0 is healthy: the grown set contains no faulty node.
            for &m in &out.members {
                assert!(!faults.contains(&m), "faulty {m} added ({b:?})");
            }
            // All 29 healthy nodes are reachable through healthy paths in
            // Q_5 minus 3 faults, so U_r is exactly the healthy set.
            assert_eq!(out.members.len(), 29, "{b:?}");
            assert!(out.all_healthy, "{b:?}");
        }
    }

    #[test]
    fn faulty_seed_with_allzero_respects_certificate_soundness() {
        // The adversarial case: faulty nodes answer Agree everywhere,
        // trying to grow a fake tree. With |F| ≤ δ the certificate must
        // never fire from a faulty seed *and* report a set containing a
        // mix: whenever all_healthy is true, members must be disjoint from
        // the fault set.
        let g = Hypercube::with_partition_dim(5, 3);
        let faults = [0usize, 1, 2, 4, 8]; // seed and all its certifying power
        let s = oracle(32, &faults, TesterBehavior::AllZero);
        let mut ws = Workspace::new(32);
        let out = set_builder(&g, &s, 0, 5, &mut ws);
        if out.all_healthy {
            for &m in &out.members {
                assert!(!faults.contains(&m));
            }
        }
        // Soundness argument: contributors ≤ δ whenever the tree has a
        // faulty internal node.
        let internal = out.tree.internal_nodes();
        if internal.iter().any(|&u| faults.contains(&u)) {
            assert!(out.contributors <= 5, "certificate fired on faulty tree");
            assert!(!out.all_healthy);
        }
    }

    #[test]
    fn singleton_when_all_neighbours_faulty() {
        let g = Hypercube::with_partition_dim(3, 2);
        // All of node 0's neighbours are faulty: U_r = {u0}.
        let s = oracle(8, &[1, 2, 4], TesterBehavior::AllOne);
        let mut ws = Workspace::new(8);
        let out = set_builder(&g, &s, 0, 3, &mut ws);
        assert_eq!(out.members, vec![0]);
        assert!(!out.all_healthy);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.contributors, 0);
        assert_eq!(out.tree.node_count(), 1);
    }

    #[test]
    fn restricted_run_stays_in_part() {
        let g = Hypercube::with_partition_dim(6, 3);
        let s = oracle(64, &[], TesterBehavior::AllZero);
        let mut ws = Workspace::new(64);
        let out = set_builder_in_part(&g, &s, 0, 6, &mut ws);
        assert_eq!(out.members.len(), 8, "one Q_3 part");
        for &m in &out.members {
            assert!(m < 8);
        }
        // 8-node fault-free part: contributors are the tree's internal
        // nodes; in Q_3 a BFS-ish tree from 0 has at least 4 of them... but
        // the certificate needs > 6, which 8 nodes cannot give.
        assert!(!out.all_healthy);
    }

    #[test]
    fn lookup_bound_respected_on_random_runs() {
        use rand::SeedableRng;
        let g = Hypercube::with_partition_dim(6, 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for trial in 0..20 {
            let f = FaultSet::random(64, trial % 7, &mut rng);
            let seed_node = (0..64).find(|&u| !f.contains(u)).unwrap();
            let s = OracleSyndrome::new(f, TesterBehavior::Random { seed: trial as u64 });
            let mut ws = Workspace::new(64);
            let out = set_builder(&g, &s, seed_node, 6, &mut ws);
            assert!(
                out.lookups_used <= lookup_bound(6, out.members.len()),
                "lookups {} exceed bound {} for |U_r| = {}",
                out.lookups_used,
                lookup_bound(6, out.members.len()),
                out.members.len()
            );
        }
    }

    #[test]
    fn workspace_reuse_across_epochs() {
        let g = Hypercube::with_partition_dim(4, 2);
        let s = oracle(16, &[], TesterBehavior::AllZero);
        let mut ws = Workspace::new(16);
        for seed in 0..16 {
            let out = set_builder(&g, &s, seed, 4, &mut ws);
            assert_eq!(out.members.len(), 16, "seed {seed}");
            assert_eq!(out.tree.root(), seed);
        }
    }

    #[test]
    fn honest_probe_matches_topology_prediction() {
        // `mmdiag_topology::honest_probe_contributors` re-implements this
        // module's growth under an all-Agree syndrome so families can cap
        // `driver_fault_bound` without depending on this crate. Guard the
        // two against drift on a spread of shapes.
        use mmdiag_topology::families::{
            AugmentedCube, AugmentedKAryNCube, Hypercube, KAryNCube, NKStar, Pancake, StarGraph,
            TwistedCube,
        };
        use mmdiag_topology::{honest_probe_contributors, Partitionable};

        struct AllAgree;
        impl mmdiag_syndrome::SyndromeSource for AllAgree {
            fn lookup(&self, _u: NodeId, _v: NodeId, _w: NodeId) -> mmdiag_syndrome::TestResult {
                mmdiag_syndrome::TestResult::Agree
            }
        }

        let graphs: Vec<Box<dyn Partitionable>> = vec![
            Box::new(Hypercube::new(7)),
            Box::new(Hypercube::with_partition_dim(6, 3)),
            Box::new(TwistedCube::new(7)),
            Box::new(AugmentedCube::with_partition_dim(5, 3)),
            Box::new(AugmentedKAryNCube::with_partition_dim(3, 3, 1)),
            Box::new(KAryNCube::with_partition_dim(3, 4, 2)),
            Box::new(StarGraph::new(5)),
            Box::new(NKStar::new(5, 3)),
            Box::new(Pancake::new(5)),
        ];
        for g in &graphs {
            let g = g.as_ref();
            let mut ws = Workspace::new(g.node_count());
            for part in 0..g.part_count() {
                let out =
                    set_builder_in_part(g, &AllAgree, g.representative(part), usize::MAX, &mut ws);
                assert_eq!(
                    out.contributors,
                    honest_probe_contributors(g, part),
                    "{} part {part}",
                    g.name()
                );
            }
        }
    }

    /// The restricted probe is the full restricted growth
    /// (`set_builder_filtered` with the part's filter) cut at its first
    /// certifying flush, on every family, tester behaviour, load up to the
    /// bound and part: equal field for field where the part does not
    /// certify; where it does, a prefix of the growth whose contributors
    /// exceed the bound, whose tree one layer shorter has at most `bound`
    /// internal nodes, and which holds no faulty member.
    #[test]
    fn the_probe_is_the_full_restricted_growth_cut_at_its_first_certifying_flush() {
        use crate::reference::quick_families;
        use rand::SeedableRng;
        use std::collections::{HashMap, HashSet};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x57_0B5);
        let (mut certified, mut shorter) = (0, 0);
        for g in quick_families() {
            let g = g.as_ref();
            let (n, bound) = (g.node_count(), g.driver_fault_bound());
            let mut ws = Workspace::new(n);
            for load in 0..=bound {
                let faults = FaultSet::random(n, load, &mut rng);
                for b in mmdiag_syndrome::behavior_sweep(load as u64) {
                    let s = OracleSyndrome::new(faults.clone(), b);
                    for part in 0..g.part_count() {
                        let ctx = format!("{} load {load} {b:?} part {part}", g.name());
                        let u0 = g.representative(part);
                        let probe = set_builder_in_part(g, &s, u0, bound, &mut ws);
                        let in_part = |v| g.part_of(v) == part;
                        let full = set_builder_filtered(g, &s, u0, bound, in_part, &mut ws);
                        assert_eq!(probe.all_healthy, full.all_healthy, "{ctx}");
                        if !full.all_healthy {
                            assert_same(&probe, &full, &ctx);
                            continue;
                        }
                        certified += 1;
                        let (members, edges) = (&probe.members, probe.tree.edges());
                        assert_eq!(members[..], full.members[..members.len()], "{ctx}");
                        assert_eq!(edges, &full.tree.edges()[..edges.len()], "{ctx}");
                        assert!(probe.rounds <= full.rounds, "{ctx}");
                        assert!(probe.lookups_used <= full.lookups_used, "{ctx}");
                        assert!(probe.contributors > bound, "{ctx}");
                        shorter += usize::from(probe.lookups_used < full.lookups_used);
                        // Layer by layer from the root: the tree one layer
                        // shorter has at most `bound` internal nodes.
                        let mut depth = HashMap::from([(u0, 0)]);
                        for &(c, p) in edges {
                            depth.insert(c as NodeId, depth[&(p as NodeId)] + 1);
                        }
                        let parents = |deepest: usize| -> HashSet<u32> {
                            edges
                                .iter()
                                .filter(|&&(c, _)| depth[&(c as NodeId)] <= deepest)
                                .map(|&(_, p)| p)
                                .collect()
                        };
                        assert_eq!(parents(probe.rounds).len(), probe.contributors, "{ctx}");
                        assert!(parents(probe.rounds - 1).len() <= bound, "{ctx}");
                        assert!(members.iter().all(|&m| !faults.contains(m)), "{ctx}");
                    }
                }
            }
        }
        // Many 16-node parts certify only at their last layer; the rest
        // stop early.
        assert!(
            shorter > 0 && shorter < certified,
            "the probe read less than the full growth in {shorter} of {certified} certified parts"
        );
    }

    /// A source that panics on its `k`-th lookup and otherwise reads
    /// `inner`.
    struct PanicsAt<'a> {
        inner: &'a OracleSyndrome,
        k: u64,
        read: std::cell::Cell<u64>,
    }

    impl mmdiag_syndrome::SyndromeSource for PanicsAt<'_> {
        fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> mmdiag_syndrome::TestResult {
            self.read.set(self.read.get() + 1);
            assert!(self.read.get() != self.k, "planted panic");
            self.inner.lookup(u, v, w)
        }
    }

    /// Lookups into a growth from `u0` at which the certificate fired.
    fn lookups_to_certificate<F: Fn(NodeId) -> bool>(
        g: &Hypercube,
        s: &OracleSyndrome,
        u0: NodeId,
        bound: usize,
        accept: F,
    ) -> u64 {
        let mut ws = Workspace::new(g.node_count());
        let start = s.lookups();
        let mut core = GrowthCore::start(g, s, u0, bound, &accept, &mut ws, &mut |_| {});
        while !core.all_healthy {
            assert!(core.advance_layer(g, s, &accept, &mut ws, &mut |_| {}));
        }
        s.lookups() - start
    }

    /// A run that a panicking source unwinds mid-growth leaves nothing
    /// behind: the next run in the same workspace equals a run in a fresh
    /// one, for the restricted probe and the unrestricted growth, whether
    /// the panic came before or after the certificate fired.
    #[test]
    fn no_state_survives_an_unwound_run() {
        use rand::SeedableRng;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = Hypercube::new(7);
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let (mut before, mut after) = (0, 0);
        for seed in 0..3 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let s = oracle(
                n,
                FaultSet::random(n, 3, &mut rng).members(),
                TesterBehavior::AllZero,
            );
            let part = (0..g.part_count())
                .find(|&p| {
                    set_builder_in_part(&g, &s, g.representative(p), bound, &mut Workspace::new(n))
                        .all_healthy
                })
                .expect("three faults leave a part that certifies");
            let u0 = g.representative(part);
            for restricted in [true, false] {
                let run = |src: &dyn mmdiag_syndrome::SyndromeSource, ws: &mut Workspace| {
                    if restricted {
                        set_builder_in_part(&g, src, u0, bound, ws)
                    } else {
                        set_builder(&g, src, u0, bound, ws)
                    }
                };
                let fired = if restricted {
                    lookups_to_certificate(&g, &s, u0, bound, |v| g.part_of(v) == part)
                } else {
                    lookups_to_certificate(&g, &s, u0, bound, |_| true)
                };
                let want = run(&s, &mut Workspace::new(n));
                for k in 1..300 {
                    let panicking = PanicsAt {
                        inner: &s,
                        k,
                        read: std::cell::Cell::new(0),
                    };
                    let mut ws = Workspace::new(n);
                    if catch_unwind(AssertUnwindSafe(|| run(&panicking, &mut ws))).is_err() {
                        if k <= fired {
                            before += 1;
                        } else {
                            after += 1;
                        }
                    }
                    let ctx = format!("seed {seed} restricted {restricted} k {k}");
                    assert_same(&run(&s, &mut ws), &want, &ctx);
                }
            }
        }
        assert!(
            before > 0 && after > 0,
            "{before} unwound before, {after} after"
        );
    }

    /// The nodes whose visited bit is set, ascending.
    fn visited(ws: &Workspace) -> Vec<NodeId> {
        (0..64 * ws.visited.len()).filter(|&v| ws.seen(v)).collect()
    }

    /// `ws` marks exactly `out`'s members visited and lists exactly their
    /// bitmap words as touched.
    fn holds_only(ws: &Workspace, out: &SetBuilderOutcome, ctx: &str) {
        let mut members = out.members.clone();
        members.sort_unstable();
        assert_eq!(visited(ws), members, "{ctx}: visited bits");
        let mut words: Vec<u32> = members.iter().map(|&v| (v / 64) as u32).collect();
        words.dedup();
        let mut touched = ws.touched.clone();
        touched.sort_unstable();
        assert_eq!(touched, words, "{ctx}: touched words");
    }

    /// Neither a run that a panicking source unwound nor a part-local
    /// probe leaves a visited bit behind: each run after one marks exactly
    /// its own members and equals a run in a fresh workspace.
    #[test]
    fn no_visited_bit_survives_into_the_next_run() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = Hypercube::new(7);
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let s = oracle(n, &[3, 64, 100], TesterBehavior::Random { seed: 9 });
        let total = set_builder(&g, &s, 0, bound, &mut Workspace::new(n)).lookups_used;
        let mut ws = Workspace::new(n);
        for k in [1, total / 2, total - 1] {
            let panicking = PanicsAt {
                inner: &s,
                k,
                read: std::cell::Cell::new(0),
            };
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                set_builder(&g, &panicking, 0, bound, &mut ws)
            }));
            assert!(unwound.is_err(), "lookup {k} of {total} panicked");
            for part in [1, g.part_count() - 1] {
                let u0 = g.representative(part);
                let probe = set_builder_in_part(&g, &s, u0, bound, &mut ws);
                let ctx = format!("k {k}: probe of part {part}");
                holds_only(&ws, &probe, &ctx);
                let fresh = set_builder_in_part(&g, &s, u0, bound, &mut Workspace::new(n));
                assert_same(&probe, &fresh, &ctx);
            }
            let growth = set_builder(&g, &s, 5, bound, &mut ws);
            let ctx = format!("k {k}: growth after a probe");
            holds_only(&ws, &growth, &ctx);
            assert_same(
                &growth,
                &set_builder(&g, &s, 5, bound, &mut Workspace::new(n)),
                &ctx,
            );
        }
    }

    /// Node ids are stored in 32 bits: a larger graph is refused before
    /// anything is allocated.
    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceed 2^32")]
    fn a_workspace_past_2_pow_32_nodes_panics_before_allocating() {
        Workspace::new((1 << 32) + 1);
    }

    #[test]
    fn parent_tests_use_tree_parent() {
        // Regression guard for the exact §4.1 rule: t(v) must be a node of
        // the previous level whose test against its own parent was Agree.
        let g = Hypercube::with_partition_dim(4, 2);
        let s = oracle(16, &[5], TesterBehavior::AllOne);
        let mut ws = Workspace::new(16);
        let out = set_builder(&g, &s, 0, 4, &mut ws);
        out.tree.validate().unwrap();
        for &(c, p) in out.tree.edges() {
            let (c, p) = (c as NodeId, p as NodeId);
            assert!(g.neighbors(p).contains(&c), "tree edge {p}-{c} not in E");
        }
    }
}
