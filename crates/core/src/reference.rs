//! The five-array growth core that `set_builder` replaced, kept as the
//! reference the tests compare the current core against.
//!
//! The cross-path suites compare one path of the current core with
//! another, so a divergence both paths share passes them. Here the
//! restricted probe of every part (stopping at the same flush), the
//! unrestricted growth, its reject stream and `grow_and_sweep`'s diagnosis
//! and round shapes are checked against this core on every catalogue
//! family, tester behaviour and fault load up to the bound, in fresh and
//! reused workspaces.
//!
//! The bodies below are the previous `Workspace` and `GrowthCore`, only
//! their comments trimmed, and the previous growth loop without its trace
//! spans: five per-node arrays (`mark`, `contributed`, `parent`, `layer`,
//! `claims`), a member list, and a sort of every frontier.

use crate::driver::{Diagnosis, DiagnosisError};
use crate::session::GrowRound;
use crate::set_builder::SetBuilderOutcome;
use crate::tree::SpanningTree;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{NodeId, Partitionable, Topology};

/// Reusable scratch space for reference runs.
pub(crate) struct Workspace {
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
    pub(crate) fn new(n: usize) -> Self {
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

/// `Set_Builder` restricted to the nodes `accept` admits, on the
/// reference core.
pub(crate) fn set_builder_filtered<T, S, F>(
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

/// The restricted probe on the reference core: `Set_Builder` in `u0`'s
/// part, up to the first layer flush that certifies.
pub(crate) fn set_builder_in_part<T, S>(
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

/// The reference growth loop, reporting every disagreeing lookup on a
/// then-unvisited candidate to `reject`.
pub(crate) struct GrowthCore {
    u0: NodeId,
    fault_bound: usize,
    start_lookups: u64,
    pub(crate) members: Vec<NodeId>,
    edges: Vec<(u32, u32)>,
    contributors: usize,
    all_healthy: bool,
    rounds: usize,
    cur_layer: u32,
}

impl GrowthCore {
    /// Seed the run: `ws.begin()`, then level 1. Leaves `U_1 \ {u0}` in
    /// `ws.frontier`.
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
        let mut edges: Vec<(u32, u32)> = Vec::new();
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
                    edges.push((v as u32, u0 as u32));
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

    /// One level `i ≥ 2`. Returns `false` when growth is finished (empty
    /// frontier or no additions), `true` after a flushed layer.
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
        for &u in &ws.frontier {
            ws.claims[u] = 0;
        }
        if ws.next_frontier.is_empty() {
            return false;
        }
        self.rounds += 1;
        for ni in 0..ws.next_frontier.len() {
            let v = ws.next_frontier[ni];
            let p = ws.parent[v];
            self.edges.push((v as u32, p as u32));
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

/// Two `Set_Builder` outcomes are equal field for field.
pub(crate) fn assert_same(got: &SetBuilderOutcome, want: &SetBuilderOutcome, ctx: &str) {
    assert_eq!(got.members, want.members, "{ctx}: members");
    assert_eq!(got.tree, want.tree, "{ctx}: tree");
    assert_eq!(got.contributors, want.contributors, "{ctx}: contributors");
    assert_eq!(got.rounds, want.rounds, "{ctx}: rounds");
    assert_eq!(got.lookups_used, want.lookups_used, "{ctx}: lookups");
    assert_eq!(got.all_healthy, want.all_healthy, "{ctx}: all_healthy");
}

/// The 14 families at their quick-catalogue sizes.
pub(crate) fn quick_families() -> Vec<Box<dyn Partitionable>> {
    vec![
        Box::new(Hypercube::new(7)),
        Box::new(CrossedCube::new(7)),
        Box::new(TwistedCube::new(7)),
        Box::new(TwistedNCube::new(7)),
        Box::new(FoldedHypercube::new(8)),
        Box::new(EnhancedHypercube::new(8, 3)),
        Box::new(AugmentedCube::new(10)),
        Box::new(ShuffleCube::new(10)),
        Box::new(KAryNCube::new(4, 4)),
        Box::new(AugmentedKAryNCube::new(4, 4)),
        Box::new(StarGraph::new(6)),
        Box::new(NKStar::new(6, 3)),
        Box::new(Pancake::new(6)),
        Box::new(Arrangement::new(6, 3)),
    ]
}

/// The reference `grow_and_sweep` (untraced): the diagnosis, one round per
/// layer (wall times zero) and the raw reject stream.
pub(crate) type Grown = (
    Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>,
    Vec<NodeId>,
);

/// Growth from `u0` plus the `N(U_r)` sweep on the reference core.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_and_sweep<T, S>(
    g: &T,
    s: &S,
    u0: NodeId,
    part: usize,
    probes: usize,
    fault_bound: usize,
    start_lookups: u64,
    ws: &mut Workspace,
) -> Grown
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let accept = |_: NodeId| true;
    let mut rounds: Vec<GrowRound> = Vec::new();
    let mut rejects: Vec<NodeId> = Vec::new();
    let round = |before: u64, frontier: usize, accepted: usize| GrowRound {
        frontier,
        accepted,
        lookups: s.lookups() - before,
        ..GrowRound::default()
    };

    let before = s.lookups();
    let mut core = GrowthCore::start(g, s, u0, fault_bound, &accept, ws, &mut |v| rejects.push(v));
    rounds.push(round(before, 1, core.members.len() - 1));
    let mut growing = !ws.frontier.is_empty();
    while growing {
        let width = ws.frontier.len();
        let members_before = core.members.len();
        let before = s.lookups();
        growing = core.advance_layer(g, s, &accept, ws, &mut |v| rejects.push(v));
        rounds.push(round(before, width, core.members.len() - members_before));
    }
    let stream = rejects.clone();
    rejects.retain(|&v| !ws.seen(v));
    rejects.sort_unstable();
    rejects.dedup();
    let faults = rejects;
    if faults.len() > fault_bound {
        let err = DiagnosisError::TooManyFaults {
            found: faults.len(),
            bound: fault_bound,
        };
        return (Err(err), stream);
    }
    let full = core.finish(s);
    let diagnosis = Diagnosis {
        faults,
        certified_part: part,
        probes,
        healthy_count: full.members.len(),
        tree: full.tree,
        lookups_used: s.lookups() - start_lookups,
    };
    (Ok((diagnosis, rounds)), stream)
}

// The whole file is test code; the attribute says so to the xtask lint,
// which reads one file at a time.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_builder as current;
    use mmdiag_syndrome::{behavior_sweep, FaultSet, OracleSyndrome};
    use mmdiag_topology::Cached;
    use mmdiag_trace::Tracer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The 14 families at their quick-catalogue sizes, adjacency cached.
    fn families() -> Vec<Cached> {
        quick_families()
            .iter()
            .map(|g| Cached::new(g.as_ref()))
            .collect()
    }

    /// The reject stream of the current core's unrestricted growth.
    fn rejects<T: Topology + ?Sized>(
        g: &T,
        s: &OracleSyndrome,
        u0: NodeId,
        bound: usize,
        ws: &mut current::Workspace,
    ) -> Vec<NodeId> {
        let accept = |_: NodeId| true;
        let mut out = Vec::new();
        let mut core =
            current::GrowthCore::start(g, s, u0, bound, &accept, ws, &mut |v| out.push(v));
        while core.advance_layer(g, s, &accept, ws, &mut |v| out.push(v)) {}
        out
    }

    /// Every probe, growth, reject stream, diagnosis and round shape of the
    /// current core equals the reference's, in a fresh workspace and in
    /// one reused across the whole sweep of a family.
    #[test]
    fn current_core_equals_the_reference_on_every_family_behaviour_and_load() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5E7_B11D);
        for g in families() {
            let (n, bound) = (g.node_count(), g.driver_fault_bound());
            let mut want_ws = Workspace::new(n);
            let mut reused = current::Workspace::new(n);
            for load in 0..=bound {
                let faults = FaultSet::random(n, load, &mut rng);
                for b in behavior_sweep(load as u64) {
                    let s = OracleSyndrome::new(faults.clone(), b);
                    let ctx = format!("{} load {load} {b:?}", g.name());
                    let mut certified = None;
                    for part in 0..g.part_count() {
                        let u0 = g.representative(part);
                        let want = set_builder_in_part(&g, &s, u0, bound, &mut want_ws);
                        for ws in [&mut current::Workspace::new(n), &mut reused] {
                            let got = current::set_builder_in_part(&g, &s, u0, bound, ws);
                            assert_same(&got, &want, &format!("{ctx} probe {part}"));
                        }
                        if want.all_healthy && certified.is_none() {
                            certified = Some((part, u0));
                        }
                    }

                    // Unrestricted growth from part 0's seed, faulty or not.
                    let u0 = g.representative(0);
                    let want = set_builder_filtered(&g, &s, u0, bound, |_| true, &mut want_ws);
                    for ws in [&mut current::Workspace::new(n), &mut reused] {
                        let got = current::set_builder(&g, &s, u0, bound, ws);
                        assert_same(&got, &want, &format!("{ctx} growth"));
                    }

                    let Some((part, u0)) = certified else {
                        continue;
                    };
                    let start = s.lookups();
                    let (want, want_rejects) =
                        grow_and_sweep(&g, &s, u0, part, part + 1, bound, start, &mut want_ws);
                    for ws in [&mut current::Workspace::new(n), &mut reused] {
                        let start = s.lookups();
                        let got = crate::grow::grow_and_sweep(
                            &g,
                            &s,
                            u0,
                            part,
                            part + 1,
                            bound,
                            start,
                            ws,
                            &Tracer::disabled(),
                        );
                        match (&got, &want) {
                            (Ok((d, r)), Ok((e, q))) => {
                                assert_eq!(d, e, "{ctx}: diagnosis");
                                assert_eq!(GrowRound::shapes(r), GrowRound::shapes(q), "{ctx}");
                            }
                            (Err(d), Err(e)) => assert_eq!(d, e, "{ctx}: error"),
                            _ => panic!("{ctx}: {got:?} against {want:?}"),
                        }
                        assert_eq!(rejects(&g, &s, u0, bound, ws), want_rejects, "{ctx}");
                    }
                }
            }
        }
    }

    /// A cycle. Each layer of a growth from 0 is two nodes about half the
    /// ring apart, so all but the last layers are emitted by a sort.
    struct Ring(usize);

    impl Topology for Ring {
        fn node_count(&self) -> usize {
            self.0
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            out.extend([(u + 1) % self.0, (u + self.0 - 1) % self.0]);
        }
        fn diagnosability(&self) -> usize {
            1
        }
        fn name(&self) -> String {
            format!("C_{}", self.0)
        }
    }

    /// Long, thin layers: the growth and its reject stream equal the
    /// reference's, on rings of even and odd length, with and without a
    /// fault, in fresh and reused workspaces.
    #[test]
    fn ring_growth_equals_the_reference() {
        for n in [4096, 4097] {
            let g = Ring(n);
            let mut reused = current::Workspace::new(n);
            for faults in [vec![], vec![1500]] {
                for b in behavior_sweep(n as u64) {
                    let s = OracleSyndrome::new(FaultSet::new(n, &faults), b);
                    let ctx = format!("C_{n} {faults:?} {b:?}");
                    let mut want_ws = Workspace::new(n);
                    let want = set_builder_filtered(&g, &s, 0, 3, |_| true, &mut want_ws);
                    for ws in [&mut current::Workspace::new(n), &mut reused] {
                        assert_same(&current::set_builder(&g, &s, 0, 3, ws), &want, &ctx);
                    }
                    let (_, want_rejects) = grow_and_sweep(&g, &s, 0, 0, 1, 3, 0, &mut want_ws);
                    assert_eq!(rejects(&g, &s, 0, 3, &mut reused), want_rejects, "{ctx}");
                }
            }
        }
    }
}
