//! Incremental regrowth: the last growth tree, re-witnessed against a
//! moved syndrome and repaired in place, bit-identical to a full walk.
//!
//! The growth from a certified seed `u0` is a pure function of `(G, F,
//! u0)`: every frontier node is certified healthy and tests against its
//! healthy parent, so each lookup it makes answers honestly. Past `L_s`,
//! the last layer grown while the spread heuristic was live (the growth
//! loop of [`mod@crate::set_builder`] records it when `all_healthy` fires),
//! the tree has a closed form:
//!
//! * a node's layer is its distance from `u0` in `G − F`;
//! * its parent is its least-id neighbour one layer up (the first frontier
//!   node that scans it);
//! * each layer lists its parents in ascending id, each followed by its
//!   children in the order `neighbors_into(parent)` emits them.
//!
//! [`GrowthMemo`] keeps the last tree with that closed form per node (a
//! `u32` parent and a `u16` layer) and, on the next growth from the same
//! seed, reads one syndrome entry per node instead of one per edge:
//!
//! 1. **Prefix.** Layers `1..=L_s` are re-grown by the full walk's own
//!    loop, which reads a few entries more than one per node there (the
//!    seed's pairs, the spread tests, the faults it rejects). If they
//!    differ from the memo's, or the certificate fires at another layer,
//!    that same loop runs on to the end: the fallback is the full growth,
//!    with the full growth's lookups and no extra read.
//! 2. **Re-witness.** Past `L_s` a parent's children are contiguous, and
//!    are read as one row `s_p(c, t(p))`, the test that attached them: a
//!    disagreement mask per 64 children, whose set bits are the onsets.
//!    The rows are counted once, after the last. A healthy parent and its
//!    healthy parent answer honestly, so Agree means healthy and Disagree
//!    means an onset. The children of a node that is not resolved healthy
//!    are re-witnessed one by one, by a resolved-healthy neighbour `u`
//!    with `s_u(y, w(u))`, where `w(u)` is the healthy node that witnessed
//!    `u`. Each old fault is re-tested once the same way; Agree means a
//!    recovery. A node no resolved-healthy node neighbours is cut off from
//!    `u0` in `G − F`: the walk never sees it, and neither does the repair.
//! 3. **Repair**, with no further lookups. Layers follow the dynamic
//!    breadth-first update (Ramalingam and Reps, *J. Algorithms* 21,
//!    1996): an onset raises every node that loses all its neighbours one
//!    layer up; raised and recovered nodes settle through a queue ordered
//!    by layer at one more than their least neighbour's layer, lowering
//!    their neighbours in turn. The least-id-parent rule is re-applied
//!    only around nodes whose layer or health changed.
//! 4. **Emit.** The new edge list copies the prefix, then each layer of
//!    the old list in stretches, regenerating only the blocks of parents
//!    that lost or gained a child or moved layer. A layer lists its
//!    parents in ascending id, so each such block is found by binary
//!    search.
//!
//! The faults are the onsets and the old faults that still disagree:
//! every one was read by a healthy neighbour, so each lies in `N(U_r)`,
//! which is what the full walk's sweep reports. The memo changes only
//! after the last lookup, so a source that panics mid-growth leaves the
//! previous memo in force, and a memo from any earlier epoch is a valid
//! starting point, since every label is re-read. An unresolvable epoch (a
//! recovery that reconnects nodes no tree ever held) and `|F| > bound`
//! walk on in full from the re-grown prefix, so the labelling or the error
//! is the full walk's own.
//!
//! All of this rests on what the certificate proves while `|F| ≤ bound`:
//! the seed is healthy. A seed that more faults than the bound let a
//! faulty part certify gives both growths meaningless answers, and they
//! need not agree.

use crate::driver::{Diagnosis, DiagnosisError};
use crate::grow::Growth;
use crate::session::{Certificate, GrowRound};
use crate::set_builder::Workspace;
use crate::tree::SpanningTree;
use mmdiag_syndrome::{SyndromeSource, TestResult, ROW};
use mmdiag_topology::{NodeId, Topology};
use mmdiag_trace::{checked_delta, Tracer, CAT_PHASE, PHASE_GROW_REPAIR};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The layer of a node off the tree.
const OFF_TREE: u16 = u16::MAX;
/// Layers a memo can hold: a deeper tree walks in full.
const DEEPEST: u16 = OFF_TREE - 1;

/// The last growth from a certified seed, kept so the next growth from
/// the same seed can re-witness and repair it instead of walking every
/// edge again (see the [module docs](self)).
///
/// [`GrowthMemo::grow`] returns exactly what
/// [`grow_from_certificate`](crate::grow_from_certificate) returns for the
/// same arguments; only the lookups differ. Memory: 6 bytes and one bit
/// per node of the graph, allocated by the first growth, plus the last
/// tree (8 bytes per member), which is shared with the [`Diagnosis`]
/// handed out, and between repairs the tree the last repair replaced,
/// whose edge list the next repair reuses.
#[derive(Default)]
pub struct GrowthMemo {
    /// `t(v)` for a tree node `v` (the root holds itself).
    parent: Vec<u32>,
    /// A tree node's layer, [`OFF_TREE`] elsewhere.
    layer: Vec<u16>,
    /// One bit per node: the re-witness's nodes not resolved healthy
    /// ([`Resolved::bad`]). All zero between re-witnesses: each one clears
    /// the words it set before it returns.
    bad: Vec<u64>,
    /// Set while a re-witness runs. Still set at the next one's start, a
    /// source panicked mid-way and left bits behind: that re-witness
    /// zeroes `bad` whole first.
    bad_dirty: bool,
    last: Option<LastGrowth>,
    /// The tree the last repair replaced. Once no diagnosis holds it any
    /// more, the next repair writes into its edge list instead of
    /// faulting in fresh pages.
    spare: Option<SpanningTree>,
}

/// What the memo's per-node arrays describe.
struct LastGrowth {
    part: usize,
    u0: NodeId,
    tree: SpanningTree,
    faults: Vec<NodeId>,
    /// `L_s`, at least 1.
    spread_layers: usize,
    /// End offset of each layer in the tree's edge list: layer `k` is
    /// `edges[layer_ends[k - 2]..layer_ends[k - 1]]`.
    layer_ends: Vec<usize>,
}

/// A node's health as the current epoch's lookups resolved it.
struct Resolved<'a> {
    layer: &'a [u16],
    parent: &'a [u32],
    /// Old tree nodes not (yet) resolved healthy: onsets and nodes whose
    /// parent was not resolved healthy when its row came up.
    bad: &'a mut [u64],
    /// Nodes re-witnessed one by one, with the node that witnessed them.
    witness: HashMap<NodeId, NodeId>,
    /// The first child of `u0`: the witness of `u0`'s own tests.
    root_witness: NodeId,
    u0: NodeId,
}

impl Resolved<'_> {
    fn is_bad(&self, v: NodeId) -> bool {
        self.bad[v / 64] & (1 << (v % 64)) != 0
    }

    fn set_bad(&mut self, v: NodeId, bad: bool) {
        if bad {
            self.bad[v / 64] |= 1 << (v % 64);
        } else {
            self.bad[v / 64] &= !(1 << (v % 64));
        }
    }

    /// The healthy node that witnessed `u`, if `u` is resolved healthy.
    fn witness_of(&self, u: NodeId) -> Option<NodeId> {
        if self.layer[u] == OFF_TREE {
            // An old fault counts once it recovered.
            return self.witness.get(&u).copied();
        }
        if self.is_bad(u) {
            return None;
        }
        Some(match self.witness.get(&u) {
            Some(&w) => w,
            None if u == self.u0 => self.root_witness,
            None => self.parent[u] as NodeId,
        })
    }

    /// Re-witness `y` by its first resolved-healthy neighbour `u` in
    /// `nbuf` (which holds `y`'s neighbours): `Some((u, s_u(y, w(u))))`,
    /// or `None` while no neighbour is resolved healthy.
    fn test<S>(&self, s: &S, y: NodeId, nbuf: &[NodeId]) -> Option<(NodeId, TestResult)>
    where
        S: SyndromeSource + ?Sized,
    {
        nbuf.iter().find_map(|&u| {
            let w = self.witness_of(u).filter(|&w| w != y)?;
            Some((u, s.lookup(u, y, w)))
        })
    }
}

/// What the re-witness found, once every lookup is made.
struct Found {
    /// Old tree nodes that left the tree: onsets, and nodes no
    /// resolved-healthy node neighbours.
    removed: Vec<NodeId>,
    /// Old faults that recovered, ascending.
    recovered: Vec<NodeId>,
    /// The new fault set, ascending.
    faults: Vec<NodeId>,
}

impl GrowthMemo {
    /// An empty memo: the next growth walks in full.
    pub fn new() -> Self {
        GrowthMemo::default()
    }

    /// Drop the last growth (keeping the allocations): the next growth
    /// walks in full.
    pub fn forget(&mut self) {
        self.last = None;
        self.spare = None;
    }

    /// Growth and sweep from `certificate`, exactly as
    /// [`grow_from_certificate`](crate::grow_from_certificate) computes
    /// them, re-witnessing and repairing the last growth when it came from
    /// the same seed, and remembering this one for the next call. Every
    /// call must pass the same graph.
    ///
    /// Beside the diagnosis it returns the growth's rounds, each recorded
    /// as a `grow.round` span in `tracer`, as a run's growth records them. A
    /// full walk returns one round per layer, the walk's own. A repaired
    /// growth returns the rounds of the `L_s` layers it re-grew and then
    /// records one `grow.repair` span whose value is the re-witness's
    /// lookups. A repair given up after its re-witness records that span
    /// too, then walks on from the re-grown layers and returns the walk's
    /// rounds. Either way the rounds' lookups plus the `grow.repair` value
    /// are the growth's lookups.
    #[allow(clippy::too_many_arguments)]
    pub fn grow<T, S>(
        &mut self,
        g: &T,
        s: &S,
        certificate: &Certificate,
        probes: usize,
        fault_bound: usize,
        start_lookups: u64,
        ws: &mut Workspace,
        tracer: &Tracer,
    ) -> Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        self.regrow(
            g,
            s,
            certificate,
            probes,
            fault_bound,
            start_lookups,
            ws,
            tracer,
        )
        .0
    }

    /// [`GrowthMemo::grow`], and whether the last growth was repaired
    /// rather than walked again.
    #[allow(clippy::too_many_arguments)]
    fn regrow<T, S>(
        &mut self,
        g: &T,
        s: &S,
        certificate: &Certificate,
        probes: usize,
        fault_bound: usize,
        start_lookups: u64,
        ws: &mut Workspace,
        tracer: &Tracer,
    ) -> (Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>, bool)
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let (part, u0) = (certificate.part, certificate.representative);
        let mut growth = Growth::start(g, s, u0, fault_bound, ws, tracer);
        if let Some(last) = self.last.as_ref().filter(|l| (l.part, l.u0) == (part, u0)) {
            while growth.core().spread_layers().is_none() && growth.step(g, s, ws, tracer) {}
            let prefix = &last.tree.edges()[..last.layer_ends[last.spread_layers - 1]];
            if growth.core().spread_layers() == Some(last.spread_layers)
                && growth.core().edges() == prefix
            {
                let before = s.lookups();
                let span = tracer.span(CAT_PHASE, PHASE_GROW_REPAIR);
                let repaired = self
                    .rewitness(g, s, fault_bound)
                    .and_then(|found| self.repair(g, found));
                span.finish_with_value(checked_delta(s.lookups(), before));
                if let Some((faults, tree)) = repaired {
                    let diagnosis = Diagnosis {
                        faults,
                        certified_part: part,
                        probes,
                        healthy_count: tree.node_count(),
                        tree,
                        lookups_used: checked_delta(s.lookups(), start_lookups),
                    };
                    return (Ok((diagnosis, growth.into_rounds())), true);
                }
                // Beyond the repair: the walk goes on from the re-grown
                // layers, which the re-witness left as they were, and
                // decides.
                self.last = None;
            }
        }
        self.spare = None;
        while growth.step(g, s, ws, tracer) {}
        let spread_layers = growth.core().spread_layers();
        let grown = growth.finish(g, s, part, probes, fault_bound, start_lookups, ws, tracer);
        self.last = None;
        let grown = grown.map(|(diagnosis, rounds)| {
            if let Some(spread_layers) = spread_layers {
                self.record(g.node_count(), part, u0, &diagnosis, spread_layers, &rounds);
            }
            (diagnosis, rounds)
        });
        (grown, false)
    }

    /// Remember a full growth: its per-node parents and layers, read off
    /// its rounds (one per layer, and a last one that grew nothing).
    fn record(
        &mut self,
        n: usize,
        part: usize,
        u0: NodeId,
        diagnosis: &Diagnosis,
        spread_layers: usize,
        rounds: &[GrowRound],
    ) {
        let layer_ends: Vec<usize> = rounds
            .iter()
            .filter(|r| r.accepted > 0)
            .scan(0, |end, r| {
                *end += r.accepted;
                Some(*end)
            })
            .collect();
        if layer_ends.len() >= usize::from(DEEPEST) {
            return;
        }
        if self.layer.len() != n {
            self.layer = vec![OFF_TREE; n];
            self.parent = vec![0; n];
            self.bad = vec![0; n.div_ceil(64)];
        } else {
            self.layer.fill(OFF_TREE);
        }
        self.layer[u0] = 0;
        self.parent[u0] = u0 as u32;
        let edges = diagnosis.tree.edges();
        let mut start = 0;
        for (k, &end) in layer_ends.iter().enumerate() {
            for &(c, p) in &edges[start..end] {
                self.layer[c as usize] = k as u16 + 1;
                self.parent[c as usize] = p;
            }
            start = end;
        }
        self.last = Some(LastGrowth {
            part,
            u0,
            tree: diagnosis.tree.clone(),
            faults: diagnosis.faults.clone(),
            spread_layers,
            layer_ends,
        });
    }

    /// Step 2: read one entry per old tree node past `L_s` and one per
    /// old fault. `None` when the epoch needs the full walk: a recovery
    /// next to a node no tree held, or more faults than the bound.
    fn rewitness<T, S>(&mut self, g: &T, s: &S, fault_bound: usize) -> Option<Found>
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let last = self.last.as_ref()?;
        if std::mem::replace(&mut self.bad_dirty, true) {
            self.bad.fill(0);
        }
        debug_assert!(self.bad.iter().all(|&w| w == 0), "stale re-witness bits");
        let edges = last.tree.edges();
        let mut r = Resolved {
            layer: &self.layer,
            parent: &self.parent,
            bad: &mut self.bad,
            witness: HashMap::new(),
            root_witness: edges[0].0 as NodeId,
            u0: last.u0,
        };
        let (mut onsets, mut pending) = (Vec::new(), Vec::new());
        let mut row = Vec::new();
        let mut reads = 0;
        let mut blocks = edges[last.layer_ends[last.spread_layers - 1]..]
            .iter()
            .peekable();
        while let Some(&(c, p)) = blocks.next() {
            row.clear();
            row.push(c as NodeId);
            while let Some(&(c, _)) = blocks.next_if(|e| e.1 == p) {
                row.push(c as NodeId);
            }
            let p = p as NodeId;
            if r.is_bad(p) {
                for &c in &row {
                    r.set_bad(c, true);
                }
                pending.extend_from_slice(&row);
                continue;
            }
            for chunk in row.chunks(ROW) {
                let mut disagree = s.read_row(p, self.parent[p] as NodeId, chunk);
                while disagree != 0 {
                    let c = chunk[disagree.trailing_zeros() as usize];
                    r.set_bad(c, true);
                    onsets.push(c);
                    disagree &= disagree - 1;
                }
            }
            reads += row.len() as u64;
        }
        s.count(reads);

        // Orphans, then old faults, until a round resolves nothing: each
        // resolution may give the next one its witness.
        let mut open_faults = last.faults.clone();
        let (mut recovered, mut faults) = (Vec::new(), Vec::new());
        let mut nbuf = Vec::new();
        let mut unresolvable = false;
        let resolved = loop {
            let open = pending.len() + open_faults.len();
            pending.retain(|&y| {
                g.neighbors_into(y, &mut nbuf);
                let Some((u, result)) = r.test(s, y, &nbuf) else {
                    return true;
                };
                if result.is_agree() {
                    r.set_bad(y, false);
                    r.witness.insert(y, u);
                } else {
                    onsets.push(y);
                }
                false
            });
            open_faults.retain(|&f| {
                g.neighbors_into(f, &mut nbuf);
                let Some((u, result)) = r.test(s, f, &nbuf) else {
                    return true;
                };
                if result.is_agree() {
                    // A neighbour that is neither a tree node nor a fault
                    // was cut off from u0 before: nothing here knows its
                    // health.
                    unresolvable |= nbuf
                        .iter()
                        .any(|&x| r.layer[x] == OFF_TREE && last.faults.binary_search(&x).is_err());
                    r.witness.insert(f, u);
                    recovered.push(f);
                } else {
                    faults.push(f);
                }
                false
            });
            if unresolvable {
                break false;
            }
            if pending.len() + open_faults.len() == open {
                break true;
            }
        };
        // Every bit set is an onset's or a pending node's: clear their
        // words, and the bitmap is all zero again.
        for &v in onsets.iter().chain(&pending) {
            r.bad[v / 64] = 0;
        }
        self.bad_dirty = false;
        // What is still open has no resolved-healthy neighbour, so F cuts
        // it off from u0: it leaves the tree and stays out of N(U_r).
        faults.extend_from_slice(&onsets);
        if !resolved || faults.len() > fault_bound {
            return None;
        }
        faults.sort_unstable();
        recovered.sort_unstable();
        onsets.extend(pending);
        Some(Found {
            removed: onsets,
            recovered,
            faults,
        })
    }

    /// Steps 3 and 4: repair the layers and parents in place and emit the
    /// new tree, with no lookups. `None` when a layer would pass
    /// [`DEEPEST`].
    fn repair<T>(&mut self, g: &T, found: Found) -> Option<(Vec<NodeId>, SpanningTree)>
    where
        T: Topology + ?Sized,
    {
        let last = self.last.take().expect("a re-witnessed growth");
        let ls = last.spread_layers;
        let layer = &mut self.layer;
        let mut nbuf = Vec::new();
        // Nodes whose layer or health changed, with their old layer.
        let mut changed: Vec<(NodeId, u16)> = Vec::new();
        let mut queue: BinaryHeap<Reverse<(u16, NodeId)>> = BinaryHeap::new();
        // Nodes that need a layer: raised and recovered ones, with the
        // best layer a settled neighbour offers so far.
        let mut settle: HashMap<NodeId, u16> = HashMap::new();

        // Leavers, then every node that loses its last neighbour one
        // layer up, layer by layer.
        let mut raise = |v: NodeId, layer: &mut [u16], queue: &mut BinaryHeap<_>| {
            let k = layer[v];
            if k == OFF_TREE {
                return;
            }
            changed.push((v, k));
            layer[v] = OFF_TREE;
            g.neighbors_into(v, &mut nbuf);
            for &x in &nbuf {
                if layer[x] == k + 1 {
                    queue.push(Reverse((k + 1, x)));
                }
            }
        };
        for &x in &found.removed {
            raise(x, layer, &mut queue);
        }
        let mut support = Vec::new();
        while let Some(Reverse((k, v))) = queue.pop() {
            if layer[v] != k {
                continue;
            }
            g.neighbors_into(v, &mut support);
            if support.iter().all(|&u| layer[u] != k - 1) {
                settle.insert(v, OFF_TREE);
                raise(v, layer, &mut queue);
            }
        }
        for &v in &found.recovered {
            changed.push((v, OFF_TREE));
            settle.insert(v, OFF_TREE);
        }

        // They settle at one more than their least neighbour's layer,
        // lowering their neighbours in turn.
        for (&v, d) in settle.iter_mut() {
            g.neighbors_into(v, &mut nbuf);
            if let Some(m) = nbuf
                .iter()
                .map(|&u| layer[u])
                .filter(|&l| l != OFF_TREE)
                .min()
            {
                *d = m + 1;
                queue.push(Reverse((m + 1, v)));
            }
        }
        while let Some(Reverse((d, v))) = queue.pop() {
            match settle.get(&v) {
                Some(&t) if t == d => {
                    settle.remove(&v);
                    layer[v] = d;
                }
                None if layer[v] == d => {}
                _ => continue,
            }
            if d + 1 >= DEEPEST {
                return None;
            }
            g.neighbors_into(v, &mut nbuf);
            for &x in &nbuf {
                if let Some(t) = settle.get_mut(&x) {
                    if d + 1 < *t {
                        *t = d + 1;
                        queue.push(Reverse((d + 1, x)));
                    }
                } else if layer[x] != OFF_TREE && layer[x] > d + 1 {
                    changed.push((x, layer[x]));
                    layer[x] = d + 1;
                    queue.push(Reverse((d + 1, x)));
                }
            }
        }
        debug_assert!(settle.is_empty(), "every re-witnessed node reaches u0");

        // The least-id-parent rule, around every node whose layer or
        // health changed. A parent that lost or gained a child, or moved
        // layer, has its block regenerated; every other block is copied.
        let parent = &mut self.parent;
        let mut dirty = Vec::new();
        let mut around = Vec::new();
        for &(v, old) in &changed {
            dirty.push(v);
            if old != OFF_TREE {
                dirty.push(parent[v] as NodeId);
            }
            around.push(v);
            g.neighbors_into(v, &mut nbuf);
            around.extend_from_slice(&nbuf);
        }
        around.sort_unstable();
        around.dedup();
        for &v in &around {
            let k = layer[v];
            if k == OFF_TREE || usize::from(k) <= ls {
                continue;
            }
            g.neighbors_into(v, &mut nbuf);
            let p = nbuf
                .iter()
                .copied()
                .filter(|&u| layer[u] == k - 1)
                .min()
                .expect("a node past the root has a neighbour one layer up");
            let joined = found.recovered.binary_search(&v).is_ok();
            if joined || parent[v] as NodeId != p {
                if !joined {
                    dirty.push(parent[v] as NodeId);
                }
                dirty.push(p);
                parent[v] = p as u32;
            }
        }
        let (layer, parent) = (&*layer, &*parent);

        // Every dirty parent drops its old block from the layer below its
        // old layer and regenerates one below its new layer: events
        // `(child layer, parent, regenerate)`, in emitting order.
        let mut moved: HashMap<NodeId, u16> = HashMap::new();
        for &(v, old) in &changed {
            moved.entry(v).or_insert(old);
        }
        let mut events = Vec::new();
        for &p in &dirty {
            let old = moved.get(&p).copied().unwrap_or(layer[p]);
            for (k, regenerate) in [(old, false), (layer[p], true)] {
                if k != OFF_TREE && usize::from(k) >= ls {
                    events.push((usize::from(k) + 1, p, regenerate));
                }
            }
        }
        events.sort_unstable();
        events.dedup();

        // Emit layer by layer: the prefix, then each layer's clean blocks
        // copied in stretches around the dirty ones. A layer's blocks are
        // in ascending parent order, so a parent's block is found by
        // binary search.
        let old = last.tree.edges();
        let size = old.len() + found.recovered.len() - found.removed.len();
        let mut edges = self
            .spare
            .take()
            .and_then(SpanningTree::into_edges)
            .unwrap_or_default();
        edges.clear();
        edges.reserve_exact(size);
        edges.extend_from_slice(&old[..last.layer_ends[ls - 1]]);
        let mut layer_ends = last.layer_ends[..ls].to_vec();
        let mut events = events.into_iter().peekable();
        for k in ls + 1.. {
            let old_layer = match last.layer_ends.get(k - 1) {
                Some(&end) => &old[last.layer_ends[k - 2]..end],
                None => &[][..],
            };
            let mut copied = 0;
            while let Some((_, p, regenerate)) = events.next_if(|e| e.0 == k) {
                let at = old_layer
                    .partition_point(|e| (e.1 as NodeId) < p)
                    .max(copied);
                edges.extend_from_slice(&old_layer[copied..at]);
                copied = at;
                if regenerate {
                    g.neighbors_into(p, &mut nbuf);
                    let children = nbuf
                        .iter()
                        .filter(|&&v| usize::from(layer[v]) == k && parent[v] as NodeId == p);
                    edges.extend(children.map(|&v| (v as u32, p as u32)));
                } else {
                    copied = copied.max(old_layer.partition_point(|e| e.1 as NodeId <= p));
                }
            }
            edges.extend_from_slice(&old_layer[copied..]);
            if Some(&edges.len()) == layer_ends.last() {
                break;
            }
            layer_ends.push(edges.len());
        }
        debug_assert_eq!(edges.len(), size);

        let tree = SpanningTree::from_edges(last.u0, edges);
        let LastGrowth {
            part,
            u0,
            tree: replaced,
            spread_layers,
            ..
        } = last;
        self.spare = Some(replaced);
        self.last = Some(LastGrowth {
            part,
            u0,
            tree: tree.clone(),
            faults: found.faults.clone(),
            spread_layers,
            layer_ends,
        });
        Some((found.faults, tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::grow_and_sweep;
    use crate::reference::quick_families as families;
    use crate::session::{grow_from_certificate, probe_part};
    use mmdiag_syndrome::{behavior_sweep, FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::{Hypercube, KAryNCube};
    use mmdiag_topology::{AdjGraph, Cached, Partitionable};
    use mmdiag_trace::{TraceConfig, TraceSummary, PHASE_GROW_ROUND};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn oracle(n: usize, faults: &[NodeId], b: TesterBehavior) -> OracleSyndrome {
        OracleSyndrome::new(FaultSet::new(n, faults), b)
    }

    /// The certificate of the first part that certifies with no fault.
    fn certify<T: Partitionable + ?Sized>(g: &T) -> Certificate {
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let s = oracle(n, &[], TesterBehavior::AllZero);
        let mut ws = Workspace::new(n);
        (0..g.part_count())
            .find_map(|p| probe_part(g, &s, p, bound, &mut ws).certificate)
            .expect("a fault-free graph certifies")
    }

    /// The labelling, field for field: faults, tree edges in order,
    /// healthy count, part and probes; or the same error.
    fn assert_same(
        got: &Result<Diagnosis, DiagnosisError>,
        want: &Result<Diagnosis, DiagnosisError>,
        ctx: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.faults, want.faults, "{ctx}: faults");
                assert_eq!(got.tree.root(), want.tree.root(), "{ctx}: root");
                assert_eq!(got.tree.edges(), want.tree.edges(), "{ctx}: tree");
                assert_eq!(got.healthy_count, want.healthy_count, "{ctx}: healthy");
                assert_eq!(got.certified_part, want.certified_part, "{ctx}: part");
                assert_eq!(got.probes, want.probes, "{ctx}: probes");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{ctx}: error"),
            (got, want) => panic!(
                "{ctx}: {:?} against the full walk's {:?}",
                got.as_ref().map(|d| &d.faults),
                want.as_ref().map(|d| &d.faults)
            ),
        }
    }

    /// What one memo growth did.
    struct Epoch {
        repaired: bool,
        lookups: u64,
        /// The full walk's lookups on the same syndrome.
        full_lookups: u64,
    }

    /// Grow through `memo` and from scratch on the same fault set, each on
    /// a syndrome of its own, and hold the two equal: the labelling, and
    /// the rounds, which a repaired growth returns for the layers it
    /// re-grew. The memo's growth is traced: its `grow.round` spans are its
    /// rounds, and with its `grow.repair` span they account for every
    /// lookup.
    fn epoch<T: Partitionable + ?Sized>(
        memo: &mut GrowthMemo,
        g: &T,
        faults: &[NodeId],
        b: TesterBehavior,
        cert: &Certificate,
        ws: &mut Workspace,
        ctx: &str,
    ) -> Epoch {
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let tracer = Tracer::new(TraceConfig {
            shards: 1,
            shard_capacity: 256,
        });
        let s = oracle(n, faults, b);
        let (got, repaired) = memo.regrow(g, &s, cert, cert.part + 1, bound, 0, ws, &tracer);
        let full = oracle(n, faults, b);
        let (u0, part) = (cert.representative, cert.part);
        let want = grow_and_sweep(
            g,
            &full,
            u0,
            part,
            part + 1,
            bound,
            0,
            ws,
            &Tracer::disabled(),
        );
        let trace = TraceSummary::from_events(&tracer.drain(), tracer.dropped());
        let repairs = trace.names.iter().find(|n| n.name == PHASE_GROW_REPAIR);
        assert!(
            repairs.map_or(0, |n| n.count) >= u64::from(repaired),
            "{ctx}"
        );
        let (rounds, repair) = (
            trace.value_sum(PHASE_GROW_ROUND),
            trace.value_sum(PHASE_GROW_REPAIR),
        );
        if let (Ok((_, got)), Ok((_, want))) = (&got, &want) {
            let spans = trace.names.iter().find(|n| n.name == PHASE_GROW_ROUND);
            assert_eq!(spans.map(|n| n.count), Some(got.len() as u64), "{ctx}");
            assert_eq!(got.iter().map(|r| r.lookups).sum::<u64>(), rounds, "{ctx}");
            assert_eq!(rounds + repair, s.lookups(), "{ctx}: lookups");
            let (got, want) = (GrowRound::shapes(got), GrowRound::shapes(want));
            if repaired {
                assert!(got.len() < want.len(), "{ctx}: {} rounds", got.len());
                assert_eq!(got, want[..got.len()], "{ctx}: re-grown rounds");
            } else {
                assert_eq!(got, want, "{ctx}: walked rounds");
            }
        }
        let labels = |r: &Result<(Diagnosis, Vec<GrowRound>), _>| r.clone().map(|(d, _)| d);
        assert_same(&labels(&got), &labels(&want), ctx);
        Epoch {
            repaired,
            lookups: s.lookups(),
            full_lookups: full.lookups(),
        }
    }

    /// A seeded onset/recovery sequence of `epochs` fault sets of at most
    /// `bound` nodes each, none in part `keep` (so the seed stays
    /// healthy). One epoch in four fills up to the bound.
    fn sequence<T: Partitionable + ?Sized>(
        g: &T,
        bound: usize,
        keep: usize,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<NodeId>> {
        let n = g.node_count() as u64;
        let mut faults: Vec<NodeId> = Vec::new();
        (0..epochs)
            .map(|_| {
                for _ in 0..rng.gen_below(3) {
                    if !faults.is_empty() {
                        faults.swap_remove(rng.gen_below(faults.len() as u64) as usize);
                    }
                }
                let onsets = if rng.gen_below(4) == 0 {
                    4 * bound
                } else {
                    rng.gen_below(3) as usize
                };
                for _ in 0..onsets {
                    let v = rng.gen_below(n) as usize;
                    if faults.len() < bound && g.part_of(v) != keep && !faults.contains(&v) {
                        faults.push(v);
                    }
                }
                let mut f = faults.clone();
                f.sort_unstable();
                f
            })
            .collect()
    }

    /// On every family, as the family and as its `Cached` copy, under
    /// every tester behaviour: seeded 16-epoch onset/recovery sequences
    /// through one memo each equal the full walk epoch by epoch.
    #[test]
    fn every_regrowth_equals_the_full_walk_on_every_family_view_and_behaviour() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4E90_2026);
        let (mut repaired, mut epochs) = (0, 0);
        for g in families() {
            let g = g.as_ref();
            let cached = Cached::new(g);
            let views: [(&str, &dyn Partitionable); 2] = [("family", g), ("cached", &cached)];
            let n = g.node_count();
            let cert = certify(g);
            let bound = g.driver_fault_bound();
            for b in behavior_sweep(0x5EED) {
                let faults = sequence(g, bound, cert.part, 16, &mut rng);
                for (view, t) in views {
                    let mut memo = GrowthMemo::new();
                    let mut ws = Workspace::new(n);
                    for (e, f) in faults.iter().enumerate() {
                        let ctx = format!("{} {view} {b:?} epoch {e} {f:?}", g.name());
                        let got = epoch(&mut memo, t, f, b, &cert, &mut ws, &ctx);
                        repaired += usize::from(got.repaired);
                        epochs += 1;
                    }
                }
            }
        }
        assert!(
            2 * repaired > epochs,
            "only {repaired} of {epochs} epochs were repaired"
        );
    }

    /// A spine `0 – {1, 2}`, `1 – 3`, `2 – 4`, `3 – 5` (with `1 – 2`, so the
    /// seed's pair agrees) and 70 leaves `6..=75` on node 5, as one part
    /// seeded at 0 with a fault bound of 2. The certificate fires at the
    /// flush of layer 2 (`L_s` = 2), so node 5 sits one layer past `L_s`
    /// with 70 children: its row is read as two masks.
    struct Broom(AdjGraph);

    impl Broom {
        fn new() -> Self {
            let spine = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5)];
            let leaves = (6..76).map(|v| (5, v));
            let edges: Vec<_> = spine.into_iter().chain(leaves).collect();
            Broom(AdjGraph::from_edges(76, &edges, "broom"))
        }
    }

    impl Topology for Broom {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            self.0.neighbors_into(u, out)
        }
        fn diagnosability(&self) -> usize {
            2
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    impl Partitionable for Broom {
        fn part_count(&self) -> usize {
            1
        }
        fn part_of(&self, _u: NodeId) -> usize {
            0
        }
        fn representative(&self, _part: usize) -> NodeId {
            0
        }
    }

    /// Onsets and recoveries among 70 children of one parent, in both of
    /// its row's masks, and at the parent itself, equal the full walk
    /// epoch by epoch under every tester behaviour.
    #[test]
    fn a_parent_of_more_than_64_children_is_repaired_like_the_full_walk() {
        let g = Broom::new();
        let cert = certify(&g);
        let sequence: [&[NodeId]; 8] = [&[], &[72], &[10, 72], &[10], &[], &[5], &[], &[75]];
        for b in behavior_sweep(0xB700) {
            let mut memo = GrowthMemo::new();
            let mut ws = Workspace::new(g.node_count());
            let mut repaired = 0;
            for (e, f) in sequence.iter().enumerate() {
                let ctx = format!("broom {b:?} epoch {e} {f:?}");
                let got = epoch(&mut memo, &g, f, b, &cert, &mut ws, &ctx);
                repaired += usize::from(got.repaired);
                if e == 0 {
                    assert_eq!(memo.last.as_ref().unwrap().spread_layers, 2, "{ctx}");
                }
            }
            // The first epoch walks, and so does the return of the leaves
            // that the onset at 5 cut off; every other epoch is repaired.
            assert_eq!(repaired, sequence.len() - 2, "{b:?}");
        }
    }

    /// Q_n from `u0 = 0` at a memo's first growth, with `L_s`.
    fn hypercube_memo(n: usize) -> (Hypercube, Certificate, GrowthMemo, Workspace, usize) {
        let g = Hypercube::new_certified(n);
        let cert = certify(&g);
        assert_eq!(cert.representative, 0);
        let mut memo = GrowthMemo::new();
        let mut ws = Workspace::new(g.node_count());
        let first = epoch(
            &mut memo,
            &g,
            &[],
            TesterBehavior::AllZero,
            &cert,
            &mut ws,
            "seed",
        );
        assert!(!first.repaired);
        let ls = memo
            .last
            .as_ref()
            .expect("the growth certified")
            .spread_layers;
        (g, cert, memo, ws, ls)
    }

    /// The old tree's descendants of `x`, `x` excluded.
    fn descendants(tree: &SpanningTree, x: NodeId) -> usize {
        let mut below = vec![x];
        for &(c, p) in tree.edges() {
            if below.contains(&(p as NodeId)) {
                below.push(c as NodeId);
            }
        }
        below.len() - 1
    }

    /// An onset at the layer-(`L_s`+1) node with the largest subtree: the
    /// node with the lowest `L_s`+1 bits set, whose subtree holds
    /// 2^(n−`L_s`−1) nodes. The repair reads at most one entry per old tree
    /// node, one per old fault and one per orphaned child.
    #[test]
    fn an_onset_above_the_largest_subtree_is_repaired_within_the_lookup_bound() {
        let (g, cert, mut memo, mut ws, ls) = hypercube_memo(11);
        let x: NodeId = (1 << (ls + 1)) - 1;
        let old = memo.last.as_ref().unwrap().tree.clone();
        let orphans = descendants(&old, x);
        assert_eq!(orphans + 1, 1 << (11 - ls - 1), "L_s = {ls}");
        let b = TesterBehavior::Random { seed: 3 };
        let got = epoch(&mut memo, &g, &[x], b, &cert, &mut ws, "onset");
        assert!(got.repaired);
        let bound = old.node_count() as u64 + orphans as u64;
        assert!(
            got.lookups <= bound,
            "{} lookups for {} old tree nodes and {orphans} orphans",
            got.lookups,
            old.node_count()
        );
        assert!(got.lookups < got.full_lookups);
    }

    /// A recovery next to the layer-`L_s` frontier becomes the least-id
    /// parent of the nodes that took other parents while it was faulty.
    #[test]
    fn a_recovery_becomes_its_neighbours_least_id_parent() {
        let (g, cert, mut memo, mut ws, ls) = hypercube_memo(9);
        let r: NodeId = (1 << (ls + 1)) - 1;
        let b = TesterBehavior::AllOne;
        assert!(epoch(&mut memo, &g, &[r], b, &cert, &mut ws, "onset").repaired);
        let without = memo.last.as_ref().unwrap().tree.clone();
        assert!(without
            .edges()
            .iter()
            .all(|&(c, p)| c as NodeId != r && p as NodeId != r));
        assert!(epoch(&mut memo, &g, &[], b, &cert, &mut ws, "recovery").repaired);
        let with = &memo.last.as_ref().unwrap().tree;
        let adopted: Vec<NodeId> = with
            .edges()
            .iter()
            .filter(|&&(_, p)| p as NodeId == r)
            .map(|&(c, _)| c as NodeId)
            .collect();
        assert!(!adopted.is_empty(), "the recovered node parents nothing");
        for c in adopted {
            assert_ne!(without.parent(c), Some(r));
        }
    }

    /// Failing every neighbour one layer up of a node at layer `L_s`+2 on
    /// Q^3_6 raises it a layer; recovering one lowers it again.
    #[test]
    fn a_raised_layer_is_repaired_and_lowered_again() {
        let g = KAryNCube::new(3, 6);
        let cert = certify(&g);
        assert_eq!(cert.representative, 0);
        let mut memo = GrowthMemo::new();
        let mut ws = Workspace::new(g.node_count());
        let b = TesterBehavior::Inverted;
        epoch(&mut memo, &g, &[], b, &cert, &mut ws, "seed");
        let ls = memo.last.as_ref().unwrap().spread_layers;
        // Digits 1 in the lowest L_s + 2 places: layer L_s + 2, with one
        // neighbour one layer up per nonzero digit.
        let d = ls + 2;
        let v: NodeId = (0..d).map(|i| 3usize.pow(i as u32)).sum();
        let up: Vec<NodeId> = (0..d).map(|i| v - 3usize.pow(i as u32)).collect();
        assert_eq!(usize::from(memo.layer[v]), d);
        let mut faults = up.clone();
        faults.sort_unstable();
        assert!(epoch(&mut memo, &g, &faults, b, &cert, &mut ws, "raise").repaired);
        assert_eq!(usize::from(memo.layer[v]), d + 1, "raised");
        let one_back = &faults[1..];
        assert!(epoch(&mut memo, &g, one_back, b, &cert, &mut ws, "lower").repaired);
        assert_eq!(usize::from(memo.layer[v]), d, "lowered");
    }

    /// A change at or below `L_s` falls back to the full walk, with the
    /// full walk's lookups; so does a different seed.
    #[test]
    fn changes_at_or_below_the_spread_layers_fall_back_at_full_cost() {
        let (g, cert, mut memo, mut ws, ls) = hypercube_memo(8);
        let b = TesterBehavior::Random { seed: 8 };
        for (name, faults) in [
            ("onset at layer 1", vec![4]),
            ("recovery at layer 1", vec![]),
            ("onset at layer L_s", vec![(1 << ls) - 1]),
            ("recovery landing at L_s", vec![]),
        ] {
            let got = epoch(&mut memo, &g, &faults, b, &cert, &mut ws, name);
            assert!(!got.repaired, "{name}");
            assert_eq!(got.lookups, got.full_lookups, "{name}");
        }
        assert!(epoch(&mut memo, &g, &[254], b, &cert, &mut ws, "past L_s").repaired);
        let other = Certificate {
            part: cert.part + 1,
            representative: g.representative(cert.part + 1),
            ..cert.clone()
        };
        let got = epoch(&mut memo, &g, &[254], b, &other, &mut ws, "other seed");
        assert!(!got.repaired);
        assert_eq!(got.lookups, got.full_lookups);
    }

    /// More faults than the bound end in the full walk's own error, and
    /// the epoch after it equals the full walk again.
    #[test]
    fn too_many_faults_returns_the_full_walks_error() {
        let (g, cert, mut memo, mut ws, ls) = hypercube_memo(8);
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        // Nodes far past L_s, so the re-witness is what counts them.
        let mut faults: Vec<NodeId> = (0..n)
            .rev()
            .filter(|v| v.count_ones() as usize > ls + 2)
            .take(bound + 1)
            .collect();
        faults.sort_unstable();
        let b = TesterBehavior::AllZero;
        let s = oracle(n, &faults, b);
        let (got, _) = memo.regrow(&g, &s, &cert, 1, bound, 0, &mut ws, &Tracer::disabled());
        let got = got.map(|(diagnosis, _)| diagnosis);
        let want = grow_from_certificate(&g, &oracle(n, &faults, b), &cert, 1, bound, 0, &mut ws);
        assert_eq!(
            want,
            Err(DiagnosisError::TooManyFaults {
                found: bound + 1,
                bound
            })
        );
        assert_same(&got, &want, "over the bound");
        epoch(&mut memo, &g, &[254], b, &cert, &mut ws, "after the error");
    }

    /// Failing every neighbour of a node cuts it off from `u0`: it
    /// leaves the tree unlabelled, as in the full walk. Recovering one of
    /// them reaches a node no tree held, which only the full walk can
    /// label.
    #[test]
    fn a_node_cut_off_by_faults_leaves_the_tree_and_its_return_walks_in_full() {
        let (g, cert, mut memo, mut ws, _) = hypercube_memo(8);
        assert!(g.driver_fault_bound() >= 8);
        let x: NodeId = 255;
        let around: Vec<NodeId> = (0..8).map(|b| x ^ (1 << b)).rev().collect();
        let b = TesterBehavior::AllZero;
        let got = epoch(&mut memo, &g, &around, b, &cert, &mut ws, "cut off");
        assert!(got.repaired);
        let last = memo.last.as_ref().unwrap();
        assert_eq!(last.faults, around);
        assert_eq!(last.tree.node_count(), 256 - 9, "x is out of the tree");
        let got = epoch(&mut memo, &g, &around[1..], b, &cert, &mut ws, "reached");
        assert!(!got.repaired);
        assert!(epoch(&mut memo, &g, &around[1..], b, &cert, &mut ws, "after").repaired);
    }

    /// An old fault whose every neighbour fails is no longer next to the
    /// tree: the full walk never reads it, and neither does the labelling.
    #[test]
    fn a_fault_whose_neighbours_all_fail_drops_out_of_the_labelling() {
        let (g, cert, mut memo, mut ws, _) = hypercube_memo(8);
        let f: NodeId = 254;
        let b = TesterBehavior::Random { seed: 12 };
        assert!(epoch(&mut memo, &g, &[f], b, &cert, &mut ws, "alone").repaired);
        let mut walled: Vec<NodeId> = (0..8).map(|b| f ^ (1 << b)).collect();
        walled.push(f);
        walled.sort_unstable();
        let got = epoch(&mut memo, &g, &walled, b, &cert, &mut ws, "walled in");
        assert!(got.repaired);
        let last = memo.last.as_ref().unwrap();
        assert!(!last.faults.contains(&f));
        assert_eq!(last.faults.len(), 8);
    }

    /// A source that reads `inner` and panics on its `k`-th read.
    struct PanicsAt<'a> {
        inner: &'a OracleSyndrome,
        k: u64,
        read: std::cell::Cell<u64>,
    }

    impl SyndromeSource for PanicsAt<'_> {
        fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
            self.read.set(self.read.get() + 1);
            assert!(self.read.get() != self.k, "planted panic");
            self.inner.read(u, v, w)
        }
    }

    /// A source that panics anywhere in an epoch leaves the previous memo
    /// in force: the next epoch is repaired from it and equals the full
    /// walk.
    #[test]
    fn a_panicking_epoch_leaves_the_memo_in_force() {
        let (g, cert, mut memo, mut ws, _) = hypercube_memo(8);
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let b = TesterBehavior::Random { seed: 4 };
        let (before, during) = ([239, 254], [238, 254]);
        epoch(&mut memo, &g, &before, b, &cert, &mut ws, "before");
        let inner = oracle(n, &during, b);
        let mut copy = GrowthMemo::new();
        let first = oracle(n, &before, b);
        let untraced = Tracer::disabled();
        copy.grow(&g, &first, &cert, 1, bound, 0, &mut ws, &untraced)
            .unwrap();
        let (_, repaired) = copy.regrow(&g, &inner, &cert, 1, bound, 0, &mut ws, &untraced);
        assert!(repaired);
        let total = inner.lookups();
        for k in [1, 10, total / 2, total - 1, total] {
            let panicking = PanicsAt {
                inner: &inner,
                k,
                read: std::cell::Cell::new(0),
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                memo.grow(&g, &panicking, &cert, 1, bound, 0, &mut ws, &untraced)
            }));
            assert!(run.is_err(), "lookup {k} of {total} panicked");
            let got = epoch(&mut memo, &g, &during, b, &cert, &mut ws, &format!("k {k}"));
            assert!(got.repaired, "k {k}: the memo survived the panic");
            epoch(&mut memo, &g, &before, b, &cert, &mut ws, "back");
        }
    }
}
