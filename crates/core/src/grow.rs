//! Unrestricted growth from the certified seed plus the `N(U_r)` sweep:
//! the post-probe half of every run, one loop on the calling thread under
//! every backend policy.
//!
//! Level 1 and every later layer run on the shared [`GrowthCore`], in
//! order: the parent-spread heuristic is live until the in-growth
//! certificate fires and is deliberately scan-order-dependent. Each layer
//! is one [`GrowRound`] and one `grow.round` span; the rounds' lookups
//! partition the growth's.
//!
//! Every candidate whose witnesses all disagreed is recorded as a reject.
//! A node of `N(U_r) \ U_r` is exactly a never-visited reject (each member
//! is scanned as frontier exactly once, so each boundary edge is
//! consulted), which replaces an O(N) full-graph sweep with an O(|F|·Δ)
//! sort.

use crate::driver::{Diagnosis, DiagnosisError};
use crate::session::GrowRound;
use crate::set_builder::{GrowthCore, Workspace};
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Topology};
use mmdiag_trace::{checked_delta, Span, Tracer, CAT_PHASE, PHASE_GROW_ROUND};

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

/// A growth from a certified seed in progress, one layer per
/// [`Growth::step`]. Each layer is one [`GrowRound`] and one `grow.round`
/// span; the rounds' lookups partition the growth's.
pub(crate) struct Growth {
    core: GrowthCore,
    rejects: Vec<NodeId>,
    rounds: Vec<GrowRound>,
    growing: bool,
}

impl Growth {
    /// Seed the growth at `u0`: level 1 is the first round.
    pub(crate) fn start<T, S>(
        g: &T,
        s: &S,
        u0: NodeId,
        fault_bound: usize,
        ws: &mut Workspace,
        tracer: &Tracer,
    ) -> Self
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let mut rejects = Vec::new();
        let before = s.lookups();
        let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
        let core = GrowthCore::start(g, s, u0, fault_bound, &accept_all, ws, &mut |v| {
            rejects.push(v)
        });
        let attached = core.attached();
        Growth {
            core,
            rejects,
            rounds: vec![round(s, before, span, 1, attached)],
            growing: !ws.frontier.is_empty(),
        }
    }

    /// Grow one more layer. Returns `false` once the growth is finished.
    pub(crate) fn step<T, S>(&mut self, g: &T, s: &S, ws: &mut Workspace, tracer: &Tracer) -> bool
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        if !self.growing {
            return false;
        }
        let width = ws.frontier.len();
        let attached = self.core.attached();
        let before = s.lookups();
        let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
        let rejects = &mut self.rejects;
        self.growing = self
            .core
            .advance_layer(g, s, &accept_all, ws, &mut |v| rejects.push(v));
        let accepted = self.core.attached() - attached;
        self.rounds.push(round(s, before, span, width, accepted));
        self.growing
    }

    /// The shared growth loop.
    pub(crate) fn core(&self) -> &GrowthCore {
        &self.core
    }

    /// The rounds grown so far, one per layer.
    pub(crate) fn into_rounds(self) -> Vec<GrowRound> {
        self.rounds
    }

    /// Grow to the end, then sweep: `N(U_r) \ U_r` is exactly the
    /// never-visited rejectees (Theorem 1 labels them all faulty).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish<T, S>(
        mut self,
        g: &T,
        s: &S,
        part: usize,
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
        while self.step(g, s, ws, tracer) {}
        let mut faults = self.rejects;
        faults.retain(|&v| !ws.seen(v));
        faults.sort_unstable();
        faults.dedup();
        if faults.len() > fault_bound {
            return Err(DiagnosisError::TooManyFaults {
                found: faults.len(),
                bound: fault_bound,
            });
        }
        let tree = self.core.into_tree();
        Ok((
            Diagnosis {
                faults,
                certified_part: part,
                probes,
                healthy_count: tree.node_count(),
                tree,
                lookups_used: checked_delta(s.lookups(), start_lookups),
            },
            self.rounds,
        ))
    }
}

/// The unrestricted growth admits every node. A function item, not a
/// pointer, so the growth loop calls it statically.
fn accept_all(_: NodeId) -> bool {
    true
}

/// Growth from the certified seed `u0` of `part` plus the `N(U_r)` sweep
/// — the post-probe half of every run.
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
    tracer: &Tracer,
) -> Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    Growth::start(g, s, u0, fault_bound, ws, tracer).finish(
        g,
        s,
        part,
        probes,
        fault_bound,
        start_lookups,
        ws,
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;
    use mmdiag_topology::Cached;

    /// One growth from `u0` of part 0 with a bound of `bound`.
    fn grow<T, S>(
        g: &T,
        s: &S,
        u0: NodeId,
        bound: usize,
        ws: &mut Workspace,
    ) -> Result<(Diagnosis, Vec<GrowRound>), DiagnosisError>
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        grow_and_sweep(g, s, u0, 0, 1, bound, 0, ws, &Tracer::disabled())
    }

    /// A faulty neighbourhood big enough to overflow the bound errors
    /// with the same count in a fresh workspace and in one reused from a
    /// finished growth.
    #[test]
    fn too_many_faults_is_bit_identical() {
        let base = Hypercube::new(8);
        let g = Cached::new(&base);
        let n = g.node_count();
        let faults: Vec<usize> = (100..120).collect();
        let s = OracleSyndrome::new(FaultSet::new(n, &faults), TesterBehavior::AllOne);
        let mut reused = Workspace::new(n);
        let clean = OracleSyndrome::new(FaultSet::empty(n), TesterBehavior::AllZero);
        grow(&g, &clean, 0, 3, &mut reused).unwrap();
        for ws in [&mut Workspace::new(n), &mut reused] {
            let got = grow(&g, &s, 0, 3, ws);
            assert!(
                matches!(
                    got,
                    Err(DiagnosisError::TooManyFaults {
                        found: 20,
                        bound: 3
                    })
                ),
                "{got:?}"
            );
        }
    }

    /// Workspace reuse across diagnoses: a growth in a reused workspace
    /// must not see stale visited or frontier state from the previous one.
    /// Its diagnosis and rounds equal a growth in a fresh workspace, and
    /// the rounds' lookups partition the total.
    #[test]
    fn scratch_reuse_across_runs_is_clean() {
        let base = Hypercube::new(9);
        let g = Cached::new(&base);
        let n = g.node_count();
        let mut ws = Workspace::new(n);
        for (seed, faults) in [(0usize, vec![7usize, 300]), (1, vec![]), (0, vec![100])] {
            let s = OracleSyndrome::new(
                FaultSet::new(n, &faults),
                TesterBehavior::Random { seed: 3 },
            );
            let (fresh, fresh_rounds) = grow(&g, &s, seed, 9, &mut Workspace::new(n)).unwrap();
            s.reset_lookups();
            let (reused, rounds) = grow(&g, &s, seed, 9, &mut ws).unwrap();
            assert_eq!(reused, fresh);
            assert_eq!(reused.faults, faults);
            assert_eq!(GrowRound::shapes(&rounds), GrowRound::shapes(&fresh_rounds));
            assert_eq!(
                rounds.iter().map(|r| r.lookups).sum::<u64>(),
                reused.lookups_used
            );
            assert!(rounds.iter().all(|r| !r.parallel));
        }
    }
}
