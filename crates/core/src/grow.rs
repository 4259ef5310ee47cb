//! Unrestricted growth from the certified seed plus the `N(U_r)` sweep:
//! the one growth every run takes, on the calling thread or, past the
//! run's [`crate::Cutovers::grow`], finished on a pool's frontier engine.
//! The output — fault set, certificate part, spanning tree `T`, the
//! syndrome-lookup *count* and every round's `(frontier, accepted,
//! lookups)` — is the same either way:
//!
//! 1. **Calling-thread layers.** Level 1 and every layer up to the point
//!    where the contributor count clears the fault bound run on the
//!    shared [`GrowthCore`]; the parent-spread heuristic is live there
//!    and is deliberately order-dependent, so those layers are never
//!    parallelised. Without a frontier engine the same loop simply runs
//!    to the end. Once `all_healthy` fires the heuristic is dead code
//!    (its guard is `!all_healthy`) and every remaining layer is a pure
//!    function of the frontier.
//! 2. **Parallel layers.** With an engine, the sorted frontier is split
//!    into contiguous chunks drained by [`Pool::map`]. A worker scanning
//!    frontier node `u` that discovers an unvisited candidate `v`
//!    arbitrates ownership through [`ClaimBits::try_claim`] and, if it
//!    wins, resolves `v` *completely*: it scans `v`'s neighbours in
//!    ascending order, consulting `s.lookup(w, v, t(w))` for each
//!    frontier member `w` until the first witness agrees — exactly the
//!    order and the number of consultations the sorted sequential sweep
//!    performs, regardless of which worker won the claim. Losers consult
//!    nothing.
//! 3. **Deterministic merge.** Accepted `(t(v), v)` pairs from all
//!    chunks are sorted by `(parent, v)` — the order a sequential scan
//!    of the sorted frontier appends them in when adjacency lists are
//!    sorted — then flushed into the workspace and the growth core:
//!    members, tree edges, contributor accounting and the next frontier
//!    come out identical to the sequential run.
//! 4. **Rejects as the sweep.** Every candidate whose witnesses all
//!    disagreed is recorded; a node of `N(U_r) \ U_r` is exactly a
//!    never-visited rejectee (each member is scanned as frontier exactly
//!    once, so each boundary edge is consulted), which replaces the
//!    historical O(N) full-graph sweep with an O(|F|·Δ) sort.
//!
//! The engine requires [`Topology::has_sorted_adjacency`] — the merge
//! order argument above leans on sorted neighbour lists — and the session
//! builds one only for runs with a pool at or past [`crate::Cutovers::grow`].

use crate::driver::{Diagnosis, DiagnosisError};
use crate::session::GrowRound;
use crate::set_builder::{GrowthCore, Workspace};
use mmdiag_exec::{ClaimBits, Pool};
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Topology};
use mmdiag_trace::{checked_delta, Span, Tracer, CAT_PHASE, PHASE_GROW_ROUND};

const WORD_BITS: usize = usize::BITS as usize;

#[inline]
fn test_bit(bits: &[usize], i: usize) -> bool {
    bits[i / WORD_BITS] & (1usize << (i % WORD_BITS)) != 0
}

#[inline]
fn set_bit(bits: &mut [usize], i: usize) {
    bits[i / WORD_BITS] |= 1usize << (i % WORD_BITS);
}

#[inline]
fn clear_bit(bits: &mut [usize], i: usize) {
    bits[i / WORD_BITS] &= !(1usize << (i % WORD_BITS));
}

/// Minimum frontier chunk a worker task takes, so tail layers with tiny
/// frontiers don't shatter into per-node tasks.
const MIN_CHUNK: usize = 128;

/// Frontier nodes whose candidates are generated together before the
/// claim pre-filter pass runs over them (the batch keeps ~`Δ`·128
/// candidate ids — a few KB — L1-resident).
const PROBE_BATCH: usize = 128;

/// Pooled scratch for the frontier engine: the dense frontier-membership
/// bitset (O(N/64) words, reset per diagnosis, not reallocated) and the
/// atomic claim set — which doubles as the visited set: hand-off seeds a
/// claim per existing member, accepted candidates keep theirs, so one
/// claim-bit load answers both "already a member" and "claimed this
/// round". Lives in [`crate::WorkspacePool`] slots next to the
/// [`Workspace`]s so repeated runs at 10⁶⁺ nodes stop re-allocating O(N)
/// scratch per run.
pub(crate) struct GrowScratch {
    in_frontier: Vec<usize>,
    claimed: ClaimBits,
    /// Ping-pong buffer for the merge's radix sort, pooled so the
    /// multi-million-key middle rounds don't allocate per round.
    sort_scratch: Vec<u64>,
}

impl GrowScratch {
    pub(crate) fn new() -> Self {
        GrowScratch {
            in_frontier: Vec::new(),
            claimed: ClaimBits::new(0),
            sort_scratch: Vec::new(),
        }
    }

    /// Grow capacity to `n` nodes (no-op when already large enough).
    pub(crate) fn ensure(&mut self, n: usize) {
        let words = n.div_ceil(WORD_BITS);
        if self.in_frontier.len() < words {
            self.in_frontier.resize(words, 0);
        }
        self.claimed.ensure(n);
    }

    /// Zero the bitsets for a fresh diagnosis.
    fn begin(&mut self) {
        self.in_frontier.fill(0);
        self.claimed.reset();
    }
}

/// What one frontier chunk resolved: candidates accepted into the layer
/// as packed `(parent, v)` pairs, and candidates every witness disagreed
/// on.
#[derive(Default)]
struct ChunkOutcome {
    accepted: Vec<u64>,
    rejected: Vec<NodeId>,
}

/// Pack an accepted `(parent, v)` pair into one sortable word, with `v`
/// in the low `vbits = ⌈log₂ N⌉` bits: `u64` lexicographic order is then
/// exactly `(parent, v)` order, the per-layer merge sorts half the bytes
/// a `(usize, usize)` sort would move, and the tight packing keeps every
/// key under `2^(2·vbits)` so the radix sort skips its empty high
/// passes (three passes at Q_23 instead of four).
#[inline]
fn pack(parent: NodeId, v: NodeId, vbits: u32) -> u64 {
    debug_assert!(v >> vbits == 0);
    ((parent as u64) << vbits) | v as u64
}

#[inline]
fn unpack(key: u64, vbits: u32) -> (NodeId, NodeId) {
    (
        (key >> vbits) as NodeId,
        (key & ((1u64 << vbits) - 1)) as NodeId,
    )
}

/// Bits needed to hold any node id of `g` (`⌈log₂ N⌉`).
fn id_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Keys below this use the comparison sort: the radix passes only pay
/// for themselves once the key count dwarfs the 64 Ki-entry histogram.
const RADIX_MIN: usize = 1 << 15;

/// Sort packed `(parent, v)` keys ascending: an LSD radix sort over
/// 16-bit digits, with passes whose digit is zero across every key
/// skipped (node ids use `2·log₂ N` low bits, so Q_23 runs three passes
/// and Q_27 four instead of a comparison sort's `n log n` — the merge
/// sorts multi-million-key rounds in the middle of a 10⁷-node growth).
fn sort_keys(keys: &mut [u64], scratch: &mut Vec<u64>) {
    if keys.len() < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let populated = keys.iter().fold(0u64, |a, &k| a | k);
    scratch.clear();
    scratch.resize(keys.len(), 0);
    let mut src_is_keys = true;
    for pass in 0u32..4 {
        let shift = pass * 16;
        if (populated >> shift) & 0xFFFF == 0 {
            continue; // every key agrees on this digit
        }
        let (src, dst): (&[u64], &mut [u64]) = if src_is_keys {
            (&*keys, &mut scratch[..])
        } else {
            (&scratch[..], &mut keys[..])
        };
        let mut counts = vec![0u32; 1 << 16];
        for &k in src.iter() {
            counts[((k >> shift) & 0xFFFF) as usize] += 1;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        for &k in src.iter() {
            let d = ((k >> shift) & 0xFFFF) as usize;
            dst[counts[d] as usize] = k;
            counts[d] += 1;
        }
        src_is_keys = !src_is_keys;
    }
    if !src_is_keys {
        keys.copy_from_slice(scratch);
    }
}

/// Where a growth hands its certified frontier: the frontier engine,
/// which grows every remaining layer on a pool (one [`GrowRound`] each)
/// and then drops every reject that became a member. A trait object, so
/// [`grow_and_sweep`] itself needs no `Sync` bounds.
pub(crate) trait Handoff {
    fn grow_rest(
        &mut self,
        core: &mut GrowthCore,
        ws: &mut Workspace,
        rejects: &mut Vec<NodeId>,
        rounds: &mut Vec<GrowRound>,
        tracer: &Tracer,
    );
}

/// The frontier engine for one run: the instance, the pool its layers run
/// on and the pooled scratch slot they use.
pub(crate) struct Frontier<'a, T: ?Sized, S: ?Sized> {
    pub(crate) g: &'a T,
    pub(crate) s: &'a S,
    pub(crate) pool: &'a Pool,
    pub(crate) scratch: &'a mut GrowScratch,
}

/// Close a round's span and record the round.
fn round<S>(s: &S, before: u64, span: Span<'_>, frontier: usize, accepted: usize) -> GrowRound
where
    S: SyndromeSource + ?Sized,
{
    let lookups = checked_delta(s.lookups(), before);
    GrowRound {
        frontier,
        accepted,
        lookups,
        nanos: u128::from(span.finish_with_value(lookups)),
        parallel: false,
    }
}

/// Growth from the certified seed `u0` of `part` plus the `N(U_r)` sweep
/// — the post-probe half of every run. Layers run on the calling thread
/// until the in-growth certificate fires; from there, `frontier` (when
/// given) grows the rest. Each layer is one [`GrowRound`] and one
/// `grow.round` span; the rounds' lookups partition the growth's.
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
    frontier: Option<&mut dyn Handoff>,
    tracer: &Tracer,
) -> Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let accept = |_: NodeId| true;
    let mut rounds: Vec<GrowRound> = Vec::new();
    let mut rejects: Vec<NodeId> = Vec::new();

    let before = s.lookups();
    let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
    let mut core = GrowthCore::start(g, s, u0, fault_bound, &accept, ws, &mut |v| rejects.push(v));
    rounds.push(round(s, before, span, 1, core.members.len() - 1));
    // The spread heuristic is alive until the certificate fires inside the
    // growth, and its lookups are scan-order-dependent by design: those
    // layers always run here.
    let mut growing = !ws.frontier.is_empty();
    while growing && !(core.all_healthy && frontier.is_some()) {
        let width = ws.frontier.len();
        let members_before = core.members.len();
        let before = s.lookups();
        let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
        growing = core.advance_layer(g, s, &accept, ws, &mut |v| rejects.push(v));
        rounds.push(round(
            s,
            before,
            span,
            width,
            core.members.len() - members_before,
        ));
    }
    // N(U_r) \ U_r: exactly the never-visited rejectees (Theorem 1 labels
    // them all faulty).
    match frontier {
        Some(engine) if growing => {
            engine.grow_rest(&mut core, ws, &mut rejects, &mut rounds, tracer)
        }
        _ => rejects.retain(|&v| !ws.seen(v)),
    }
    rejects.sort_unstable();
    rejects.dedup();
    let faults = rejects;
    if faults.len() > fault_bound {
        return Err(DiagnosisError::TooManyFaults {
            found: faults.len(),
            bound: fault_bound,
        });
    }
    let full = core.finish(s);
    Ok((
        Diagnosis {
            faults,
            certified_part: part,
            probes,
            healthy_count: full.members.len(),
            tree: full.tree,
            lookups_used: checked_delta(s.lookups(), start_lookups),
        },
        rounds,
    ))
}

impl<T, S> Handoff for Frontier<'_, T, S>
where
    T: Topology + Sync + ?Sized,
    S: SyndromeSource + Sync + ?Sized,
{
    fn grow_rest(
        &mut self,
        core: &mut GrowthCore,
        ws: &mut Workspace,
        rejects: &mut Vec<NodeId>,
        rounds: &mut Vec<GrowRound>,
        tracer: &Tracer,
    ) {
        debug_assert!(
            self.g.has_sorted_adjacency(),
            "the deterministic merge requires sorted adjacency"
        );
        let gs = &mut *self.scratch;
        // Hand off: mirror the workspace membership into the claim set
        // (membership and claims share one bit — see [`GrowScratch`]) and
        // the frontier bitset the workers read lock-free; all writes
        // happen here or in the single-threaded merge.
        gs.begin();
        for &m in &core.members {
            let _ = gs.claimed.try_claim(m);
        }
        // Growth will visit nearly every node: size the output vectors
        // once so the middle rounds don't pay doubling reallocations
        // (hundreds of MB of memcpy at 10⁸ nodes).
        let n = self.g.node_count();
        core.members.reserve(n.saturating_sub(core.members.len()));
        core.edges.reserve(n.saturating_sub(core.edges.len()));
        ws.frontier.sort_unstable();
        for &u in &ws.frontier {
            set_bit(&mut gs.in_frontier, u);
        }
        loop {
            let width = ws.frontier.len();
            let before = self.s.lookups();
            let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
            let accepted = parallel_layer(self.g, self.s, self.pool, ws, gs, core, rejects);
            rounds.push(GrowRound {
                parallel: true,
                ..round(self.s, before, span, width, accepted)
            });
            if accepted == 0 {
                break;
            }
        }
        // Parallel-round acceptances live in the claim set only (the merge
        // skips the `mark` epoch array, and rejected claims were released
        // round by round), so membership is answered there.
        rejects.retain(|&v| !gs.claimed.is_claimed(v));
    }
}

/// One post-certificate layer on the pool. Returns the number of nodes
/// accepted into the new layer (0 ends the growth).
fn parallel_layer<T, S>(
    g: &T,
    s: &S,
    pool: &Pool,
    ws: &mut Workspace,
    gs: &mut GrowScratch,
    core: &mut GrowthCore,
    rejects: &mut Vec<NodeId>,
) -> usize
where
    T: Topology + Sync + ?Sized,
    S: SyndromeSource + Sync + ?Sized,
{
    if ws.frontier.is_empty() {
        return 0;
    }
    core.cur_layer += 1;
    let vbits = id_bits(g.node_count());

    let outcomes: Vec<ChunkOutcome> = {
        let frontier: &[NodeId] = &ws.frontier;
        let parent: &[NodeId] = &ws.parent;
        let in_frontier: &[usize] = &gs.in_frontier;
        let claimed = &gs.claimed;
        let lanes = pool.threads().max(1) * 4;
        let chunk = frontier.len().div_ceil(lanes).max(MIN_CHUNK);
        let chunks: Vec<&[NodeId]> = frontier.chunks(chunk).collect();
        pool.map(&chunks, |_, chunk| {
            let mut out = ChunkOutcome {
                accepted: Vec::with_capacity(chunk.len() * 2),
                rejected: Vec::new(),
            };
            let maxd = g.max_degree();
            let mut nbuf: Vec<NodeId> = Vec::new();
            let mut vbuf: Vec<NodeId> = vec![0; PROBE_BATCH * maxd];
            for ublock in chunk.chunks(PROBE_BATCH) {
                // Generate-and-pre-filter in one pass: one claim bit
                // answers "already a member" (seeded at hand-off, kept by
                // every acceptance) and "claimed this round". The filter
                // is a branch-free compaction fused with neighbour
                // generation, so the ~Δ·|block| independent random loads
                // pipeline at full memory-level parallelism and the
                // candidates are never stored and re-read unfiltered; a
                // per-edge `if` on a random claim bit mispredicts half
                // the time. Claims only grow during a round, so a stale
                // read is harmless — `try_claim` below stays the sole
                // arbiter.
                let mut k = 0;
                for &u in ublock {
                    g.neighbors_into_sorted(u, &mut nbuf);
                    for &v in &nbuf {
                        vbuf[k] = v;
                        k += usize::from(!claimed.is_claimed(v));
                    }
                }
                for &v in &vbuf[..k] {
                    if !claimed.try_claim(v) {
                        continue;
                    }
                    // This worker owns v's resolution: try witnesses in
                    // ascending node order — the order the sorted
                    // sequential sweep consults them — until one agrees.
                    // The early-exit visitor matters: the first witness
                    // usually agrees, so generating the candidate's full
                    // Δ-entry sorted list here was the single largest
                    // slice of the map phase.
                    let mut chosen = None;
                    g.neighbors_sorted_until(v, &mut |w| {
                        if !test_bit(in_frontier, w) {
                            return true;
                        }
                        if s.lookup(w, v, parent[w]).is_agree() {
                            chosen = Some(w);
                            false
                        } else {
                            true
                        }
                    });
                    match chosen {
                        Some(w) => out.accepted.push(pack(w, v, vbits)),
                        None => out.rejected.push(v),
                    }
                }
            }
            out
        })
    };

    // Deterministic merge. Rejected candidates release their claims (they
    // may be re-discovered from the next frontier); accepted ones keep
    // them — the claim *is* the membership bit from here on.
    let total: usize = outcomes.iter().map(|o| o.accepted.len()).sum();
    let mut accepted: Vec<u64> = Vec::with_capacity(total);
    for o in &outcomes {
        accepted.extend_from_slice(&o.accepted);
        for &v in &o.rejected {
            gs.claimed.clear(v);
            rejects.push(v);
        }
    }
    // (parent, v) order — exactly where a sequential scan of the sorted
    // frontier over sorted adjacency lists appends each acceptance. Only
    // the state later rounds read is updated here: `parent` (witness
    // targets), the frontier bitset, members and tree edges; membership
    // itself is already recorded by the kept claim. The spread
    // heuristic's bookkeeping (`mark`/`layer`/`claims`/`contributed`) is
    // dead once the in-growth certificate has fired — skipping those four
    // scattered O(N)-array writes per acceptance is a large constant
    // factor at 10⁷ nodes.
    sort_keys(&mut accepted, &mut gs.sort_scratch);
    for &u in &ws.frontier {
        clear_bit(&mut gs.in_frontier, u);
    }
    ws.frontier.clear();
    for &key in &accepted {
        let (p, v) = unpack(key, vbits);
        ws.parent[v] = p;
        set_bit(&mut gs.in_frontier, v);
        core.members.push(v);
        core.edges.push((v, p));
        ws.frontier.push(v);
    }
    if !accepted.is_empty() {
        core.rounds += 1;
    }
    accepted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;
    use mmdiag_topology::Cached;

    /// One growth from `u0` of part 0 with a bound of `bound`, on the
    /// calling thread (`pool == None`) or handed to the frontier engine.
    fn grow<T, S>(
        g: &T,
        s: &S,
        u0: NodeId,
        bound: usize,
        ws: &mut Workspace,
        pool: Option<(&Pool, &mut GrowScratch)>,
    ) -> Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>
    where
        T: Topology + Sync + ?Sized,
        S: SyndromeSource + Sync + ?Sized,
    {
        let tracer = Tracer::disabled();
        match pool {
            None => grow_and_sweep(g, s, u0, 0, 1, bound, 0, ws, None, &tracer),
            Some((pool, scratch)) => {
                let mut engine = Frontier {
                    g,
                    s,
                    pool,
                    scratch,
                };
                grow_and_sweep(g, s, u0, 0, 1, bound, 0, ws, Some(&mut engine), &tracer)
            }
        }
    }

    /// The engine against the calling-thread growth on every worker count:
    /// faults, tree, member count, the lookup count and every round's
    /// shape must be bit-identical, and the per-round lookups must sum to
    /// the total.
    #[test]
    fn frontier_parallel_matches_sequential_grow_bit_for_bit() {
        let base = Hypercube::new(10);
        let g = Cached::new(&base);
        assert!(g.has_sorted_adjacency());
        let n = g.node_count();
        let bound = 10;
        let behaviors = [
            TesterBehavior::AllZero,
            TesterBehavior::Random { seed: 11 },
            TesterBehavior::AllOne,
        ];
        for behavior in behaviors {
            for faults in [vec![], vec![5, 600, 1001], vec![1, 2, 3, 4, 512]] {
                let s = OracleSyndrome::new(FaultSet::new(n, &faults), behavior);
                let mut ws = Workspace::new(n);
                s.reset_lookups();
                let (seq, seq_rounds) = grow(&g, &s, 0, bound, &mut ws, None).unwrap();
                let seq_lookups = s.lookups();
                assert!(seq_rounds.iter().all(|r| !r.parallel));
                assert_eq!(
                    seq_rounds.iter().map(|r| r.lookups).sum::<u64>(),
                    seq_lookups,
                    "calling-thread rounds partition the total too"
                );
                for workers in [1usize, 2, 4, 8] {
                    let pool = Pool::new(workers);
                    let mut pws = Workspace::new(n);
                    let mut gs = GrowScratch::new();
                    gs.ensure(n);
                    s.reset_lookups();
                    let (par, rounds) =
                        grow(&g, &s, 0, bound, &mut pws, Some((&pool, &mut gs))).unwrap();
                    assert_eq!(par, seq, "workers={workers}");
                    assert_eq!(s.lookups(), seq_lookups, "workers={workers}");
                    assert_eq!(
                        GrowRound::shapes(&rounds),
                        GrowRound::shapes(&seq_rounds),
                        "workers={workers}"
                    );
                    assert!(
                        rounds.iter().any(|r| r.parallel),
                        "fault-free Q_10 certifies"
                    );
                }
            }
        }
    }

    /// A faulty neighbourhood big enough to overflow the bound must error
    /// identically on both paths.
    #[test]
    fn too_many_faults_is_bit_identical() {
        let base = Hypercube::new(8);
        let g = Cached::new(&base);
        let n = g.node_count();
        let faults: Vec<usize> = (100..120).collect();
        let s = OracleSyndrome::new(FaultSet::new(n, &faults), TesterBehavior::AllOne);
        let mut ws = Workspace::new(n);
        let seq = grow(&g, &s, 0, 3, &mut ws, None);
        let pool = Pool::new(4);
        let mut pws = Workspace::new(n);
        let mut gs = GrowScratch::new();
        gs.ensure(n);
        let par = grow(&g, &s, 0, 3, &mut pws, Some((&pool, &mut gs)));
        match (seq, par) {
            (
                Err(DiagnosisError::TooManyFaults { found: a, bound: b }),
                Err(DiagnosisError::TooManyFaults { found: c, bound: d }),
            ) => {
                assert_eq!((a, b), (c, d));
            }
            other => panic!("expected matching TooManyFaults, got {other:?}"),
        }
    }

    /// Scratch reuse across diagnoses: the second run must not see stale
    /// visited/claim/frontier state from the first.
    #[test]
    fn scratch_reuse_across_runs_is_clean() {
        let base = Hypercube::new(9);
        let g = Cached::new(&base);
        let n = g.node_count();
        let pool = Pool::new(4);
        let mut ws = Workspace::new(n);
        let mut gs = GrowScratch::new();
        gs.ensure(n);
        for (seed, faults) in [(0usize, vec![7usize, 300]), (1, vec![]), (0, vec![100])] {
            let s = OracleSyndrome::new(
                FaultSet::new(n, &faults),
                TesterBehavior::Random { seed: 3 },
            );
            let mut sws = Workspace::new(n);
            let (seq, _) = grow(&g, &s, seed, 9, &mut sws, None).unwrap();
            let (par, _) = grow(&g, &s, seed, 9, &mut ws, Some((&pool, &mut gs))).unwrap();
            assert_eq!(par.faults, seq.faults);
            assert_eq!(par.tree.edges(), seq.tree.edges());
        }
    }
}
