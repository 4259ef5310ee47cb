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
//! adjacency relation restricted to `H`).
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
//! asymptotics, or the §6 lookup bound; DESIGN.md discusses the gap.
//!
//! Time: `O(Δ·|U_r|)` (plus the `O(Δ²)` seed step); syndrome entries
//! consulted: at most `C(Δ,2)` for the seed plus `Δ − 1` per other member,
//! the §6 bound `(Δ−1)(Δ/2 + |U_r| − 1)`.

use crate::tree::SpanningTree;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable, Topology};

/// Reusable scratch space for `Set_Builder` runs.
///
/// All arrays are epoch-stamped so successive probes over the same graph
/// reuse one `O(N)` allocation — this is what keeps the whole
/// probe-every-part driver at `O(Δ·N)` rather than `O(parts · N)`.
pub struct Workspace {
    pub(crate) epoch: u32,
    pub(crate) mark: Vec<u32>,
    pub(crate) contributed: Vec<u32>,
    pub(crate) parent: Vec<NodeId>,
    /// Layer at which a node was attached (valid when `mark` is current).
    pub(crate) layer: Vec<u32>,
    /// Children claimed by a parent in the layer being built.
    pub(crate) claims: Vec<u32>,
    pub(crate) frontier: Vec<NodeId>,
    pub(crate) next_frontier: Vec<NodeId>,
    pub(crate) nbuf: Vec<NodeId>,
}

impl Workspace {
    /// Scratch space for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Workspace {
            epoch: 0,
            mark: vec![0; n],
            contributed: vec![0; n],
            parent: vec![0; n],
            layer: vec![0; n],
            claims: vec![0; n],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            nbuf: Vec::new(),
        }
    }

    pub(crate) fn begin(&mut self) {
        // Epoch 0 is "never seen"; wrap by clearing.
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.contributed.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.frontier.clear();
        self.next_frontier.clear();
    }

    #[inline]
    pub(crate) fn seen(&self, u: NodeId) -> bool {
        self.mark[u] == self.epoch
    }

    #[inline]
    pub(crate) fn visit(&mut self, u: NodeId, parent: NodeId) {
        self.mark[u] = self.epoch;
        self.parent[u] = parent;
    }
}

/// Outcome of a `Set_Builder` run.
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
/// sets it builds").
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
    set_builder_filtered(g, s, u0, fault_bound, |v| g.part_of(v) == part, ws)
}

/// Shared implementation: `accept` delimits the subgraph `H` (nodes for
/// which it returns `true`; `u0` must be accepted).
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
/// [`set_builder_filtered`] and the diagnosis growth in `crate::grow`
/// (which records one round per layer).
///
/// Every syndrome lookup that *disagrees* on a then-unvisited candidate is
/// reported to the `reject` sink. In an unrestricted run each member is
/// scanned as frontier exactly once and looks up every still-unvisited
/// neighbour, so the sink — filtered to never-visited nodes at the end —
/// reproduces `N(U_r) \ U_r` without the O(N) full-graph sweep the
/// diagnosis driver used to do. The sequential entry point passes a no-op
/// sink and keeps its historical behaviour (and lookup counts) exactly.
pub(crate) struct GrowthCore {
    u0: NodeId,
    fault_bound: usize,
    start_lookups: u64,
    pub(crate) members: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
    contributors: usize,
    all_healthy: bool,
    rounds: usize,
    cur_layer: u32,
}

impl GrowthCore {
    /// Seed the run: `ws.begin()`, then level 1 (pairs of `u0`'s
    /// neighbours within `H`, O(Δ²) worst case, at most C(Δ, 2) syndrome
    /// entries). Leaves `U_1 \ {u0}` in `ws.frontier`.
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
        let mut members = vec![u0];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut contributors = 0usize;
        let mut all_healthy = false;

        g.neighbors_into(u0, &mut ws.nbuf);
        ws.nbuf.retain(|&v| accept(v));
        ws.nbuf.sort_unstable();
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
                    ws.layer[v] = 1;
                    members.push(v);
                    edges.push((v, u0));
                    ws.frontier.push(v);
                } else {
                    reject(v);
                }
            }
        }
        ws.nbuf = candidates;

        let mut rounds = 0usize;
        if !ws.frontier.is_empty() {
            // u0 contributed to U_1.
            contributors += 1;
            ws.contributed[u0] = ws.epoch;
            rounds = 1;
            if contributors > fault_bound {
                all_healthy = true;
            }
        }

        GrowthCore {
            u0,
            fault_bound,
            start_lookups,
            members,
            edges,
            contributors,
            all_healthy,
            rounds,
            cur_layer: 1,
        }
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
        ws.next_frontier.clear();
        self.cur_layer += 1;
        // Deterministic scan order (the spread heuristic below replaces the
        // paper's "least contributing node" tie-break; see module docs).
        ws.frontier.sort_unstable();
        for fi in 0..ws.frontier.len() {
            let u = ws.frontier[fi];
            let tu = ws.parent[u];
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
                    if !self.all_healthy
                        && ws.layer[v] == self.cur_layer
                        && ws.claims[ws.parent[v]] > 1
                        && ws.claims[u] == 0
                        && s.lookup(u, v, tu).is_agree()
                    {
                        ws.claims[ws.parent[v]] -= 1;
                        ws.claims[u] += 1;
                        ws.parent[v] = u;
                    }
                    continue;
                }
                if s.lookup(u, v, tu).is_agree() {
                    ws.visit(v, u);
                    ws.layer[v] = self.cur_layer;
                    ws.claims[u] += 1;
                    self.members.push(v);
                    ws.next_frontier.push(v);
                } else {
                    reject(v);
                }
            }
        }
        // Claim counters are only meaningful within one layer scan; reset
        // them for the scanned frontier on every exit path.
        for &u in &ws.frontier {
            ws.claims[u] = 0;
        }
        if ws.next_frontier.is_empty() {
            return false;
        }
        self.rounds += 1;
        // Flush the layer: record final parent assignments and count the
        // distinct contributors.
        for ni in 0..ws.next_frontier.len() {
            let v = ws.next_frontier[ni];
            let p = ws.parent[v];
            self.edges.push((v, p));
            if ws.contributed[p] != ws.epoch {
                ws.contributed[p] = ws.epoch;
                self.contributors += 1;
            }
        }
        if self.contributors > self.fault_bound {
            self.all_healthy = true;
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next_frontier);
        true
    }

    /// Package the accumulated state as a [`SetBuilderOutcome`].
    pub(crate) fn finish<S>(self, s: &S) -> SetBuilderOutcome
    where
        S: SyndromeSource + ?Sized,
    {
        SetBuilderOutcome {
            all_healthy: self.all_healthy,
            members: self.members,
            tree: SpanningTree::from_edges(self.u0, self.edges),
            contributors: self.contributors,
            rounds: self.rounds,
            lookups_used: s.lookups().saturating_sub(self.start_lookups),
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
            assert!(g.neighbors(p).contains(&c), "tree edge {p}-{c} not in E");
        }
    }
}
