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

/// Growth from the certified seed `u0` of `part` plus the `N(U_r)` sweep
/// — the post-probe half of every run. Each layer is one [`GrowRound`]
/// and one `grow.round` span; the rounds' lookups partition the growth's.
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
    let accept = |_: NodeId| true;
    let mut rounds: Vec<GrowRound> = Vec::new();
    let mut rejects: Vec<NodeId> = Vec::new();

    let before = s.lookups();
    let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
    let mut core = GrowthCore::start(g, s, u0, fault_bound, &accept, ws, &mut |v| rejects.push(v));
    rounds.push(round(s, before, span, 1, core.attached()));
    let mut growing = !ws.frontier.is_empty();
    while growing {
        let width = ws.frontier.len();
        let attached = core.attached();
        let before = s.lookups();
        let span = tracer.span(CAT_PHASE, PHASE_GROW_ROUND);
        growing = core.advance_layer(g, s, &accept, ws, &mut |v| rejects.push(v));
        rounds.push(round(s, before, span, width, core.attached() - attached));
    }
    // N(U_r) \ U_r: exactly the never-visited rejectees (Theorem 1 labels
    // them all faulty).
    rejects.retain(|&v| !ws.seen(v));
    rejects.sort_unstable();
    rejects.dedup();
    let faults = rejects;
    if faults.len() > fault_bound {
        return Err(DiagnosisError::TooManyFaults {
            found: faults.len(),
            bound: fault_bound,
        });
    }
    let tree = core.into_tree();
    Ok((
        Diagnosis {
            faults,
            certified_part: part,
            probes,
            healthy_count: tree.node_count(),
            tree,
            lookups_used: checked_delta(s.lookups(), start_lookups),
        },
        rounds,
    ))
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
