//! The sampled spot-checker: an independent cross-check for instances too
//! large for the full-table baseline.
//!
//! [`crate::diagnose_baseline`] reads all `Σ C(deg u, 2)` syndrome entries
//! — infeasible from ~10⁵ nodes, which is why the scale axis historically
//! ran driver-only (`"baseline": null`). [`sampled_check`] restores an
//! independent verdict at a cost the 10⁶–10⁷-node implicit path can pay:
//!
//! 1. **Certificate re-derivation** — re-grow the restricted probe tree at
//!    the claimed certified part straight from the syndrome source (the
//!    same level rules and child-spreading parent reassignment as
//!    `Set_Builder`, replicated here over part-local hash maps so memory
//!    stays `O(|part|)`) through the whole part, and require that it
//!    certifies (> `fault_bound` internal nodes) and is disjoint from the
//!    claimed fault set.
//! 2. **Sampled label re-check** — a seeded random walk inside every part
//!    picks `k` nodes; for each sampled node `u`, every test about `u` by
//!    a claimed-healthy tester `t` (`s_t(u, x)` over `t`'s other
//!    neighbours `x`, read as one [`SyndromeSource::lookup_row`]) must
//!    equal what the claimed labelling predicts under MM semantics. A
//!    correct labelling can never trip this (healthy testers answer
//!    honestly), and a wrong label at a sampled node is always caught
//!    provided the node has a healthy neighbour with degree ≥ 2 —
//!    guaranteed by `κ ≥ δ ≥ |F|` on every catalog family.
//!
//! Both steps hold the claimed fault set as a [`MemberSet`] (sorted
//! members behind a 1024-bit pre-filter), so "claimed faulty?" costs
//! `O(|F|)` memory and, for almost every node, one L1 probe.
//!
//! What this does **not** prove, versus the full baseline: labels of
//! unsampled nodes are only vouched for transitively (they fed the
//! driver's certificate, not this check), and no full-table consensus scan
//! happens. It is a spot-check with one-sided error — `agree = false` is
//! always a genuine inconsistency, `agree = true` is evidence proportional
//! to the sample rate.

use mmdiag_syndrome::{MemberSet, SyndromeSource};
use mmdiag_topology::{NodeId, Partitionable};
use std::collections::{HashMap, HashSet};

/// Outcome of a [`sampled_check`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledCheck {
    /// The nodes the seeded walks sampled (ascending, deduplicated).
    /// Deterministic in `(g, seed, samples_per_part)` — independent of the
    /// claimed labelling, so a test can plant a wrong label at a node it
    /// knows will be sampled.
    pub samples: Vec<NodeId>,
    /// Syndrome entries the label re-checks judged: every entry of a
    /// consistent sample's rows, and for a contradicted sample the entries
    /// up to and including its first contradiction. The checks read whole
    /// rows ([`SyndromeSource::lookup_row`]), so on a rejected claim a
    /// counting source may have counted up to `Δ − 2` more entries of the
    /// contradicted sample's last row than this reports.
    pub checked_tests: u64,
    /// Sampled nodes whose neighbourhood tests contradict the claimed
    /// labelling (ascending).
    pub disagreements: Vec<NodeId>,
    /// Did the re-derived probe tree at the certified part certify and
    /// stay disjoint from the claimed fault set?
    pub certificate_ok: bool,
    /// `certificate_ok` and no disagreements and the claimed set respects
    /// the fault bound.
    pub agree: bool,
}

/// Spot-check a claimed diagnosis against the live syndrome source. See
/// the module docs for semantics; `O(parts · k · Δ²)` lookups and
/// `O(|part| + |F| + parts·k)` memory — no `O(N)` state anywhere, so this
/// runs on implicit topologies at any scale the driver itself reaches.
pub fn sampled_check<T, S>(
    g: &T,
    s: &S,
    claimed_faults: &[NodeId],
    certified_part: usize,
    fault_bound: usize,
    samples_per_part: usize,
    seed: u64,
) -> SampledCheck
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let claimed = MemberSet::new(claimed_faults);
    let bound_ok = claimed.len() <= fault_bound;

    let certificate_ok = bound_ok && recertify_part(g, s, certified_part, fault_bound, &claimed);

    let samples = sample_nodes(g, samples_per_part, seed);
    let mut checked_tests = 0u64;
    // `samples` ascends, so the disagreements do too.
    let mut disagreements = Vec::new();
    let (mut testers, mut row, mut results) = (Vec::new(), Vec::new(), Vec::new());
    for &u in &samples {
        let u_claimed = claimed.contains(u);
        g.neighbors_into(u, &mut testers);
        for &t in &testers {
            if claimed.contains(t) {
                // A claimed-faulty tester's answers carry no information
                // under the MM model; skip.
                continue;
            }
            // Every test `s_t(u, x)` about `u` by `t`, in neighbour order.
            g.neighbors_into(t, &mut row);
            row.retain(|&x| x != u);
            s.lookup_row(t, u, &row, &mut results);
            let first_contradiction = row
                .iter()
                .zip(&results)
                .position(|(&x, r)| r.is_agree() != (!u_claimed && !claimed.contains(x)));
            if let Some(i) = first_contradiction {
                checked_tests += i as u64 + 1;
                disagreements.push(u);
                break;
            }
            checked_tests += row.len() as u64;
        }
    }

    let agree = bound_ok && certificate_ok && disagreements.is_empty();
    SampledCheck {
        samples,
        checked_tests,
        disagreements,
        certificate_ok,
        agree,
    }
}

/// Re-grow the restricted probe tree at `part` from the syndrome source —
/// the exact `Set_Builder` level rules (level-1 witness pairs, layered
/// growth, child-spreading parent reassignment) over hash-map state — and
/// check the §4.1 certificate plus disjointness from the claimed faults.
/// Unlike the driver's probe, which stops at its first certifying flush,
/// this grows the whole part, so the disjointness test covers every node
/// the certificate proves healthy.
///
/// This deliberately re-implements the growth rules instead of calling
/// `mmdiag_core::set_builder`: a verifier that shared the driver's kernel
/// would rubber-stamp any bug in that kernel. The price is one of three
/// copies of the rules: core (which the event simulator in
/// `mmdiag-distsim` also runs), the honest probe in
/// `mmdiag_topology::partition` (below core in the layering), and this
/// one, kept apart because independence is its point. The cross-checks
/// that keep
/// them from drifting are `correct_diagnosis_always_agrees` below (a
/// divergent re-derivation fails against real driver output, behaviour
/// sweep included) and the bench, where every driver-only cell asserts
/// this certificate fires on the driver's certified part.
fn recertify_part<T, S>(g: &T, s: &S, part: usize, fault_bound: usize, claimed: &MemberSet) -> bool
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    if part >= g.part_count() {
        return false;
    }
    let u0 = g.representative(part);
    let in_part = |v: NodeId| g.part_of(v) == part;

    #[derive(Clone, Copy)]
    struct Node {
        parent: NodeId,
        layer: u32,
        claims: u32,
    }
    let mut state: HashMap<NodeId, Node> = HashMap::new();
    state.insert(
        u0,
        Node {
            parent: u0,
            layer: 0,
            claims: 0,
        },
    );

    // Level 1: in-part neighbour pairs of the seed.
    let mut candidates: Vec<NodeId> = g.neighbors(u0);
    candidates.retain(|&v| in_part(v));
    let mut frontier = Vec::new();
    {
        let mut joined = vec![false; candidates.len()];
        for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                if joined[i] && joined[j] {
                    continue;
                }
                if s.lookup(u0, candidates[i], candidates[j]).is_agree() {
                    joined[i] = true;
                    joined[j] = true;
                }
            }
        }
        for (idx, &v) in candidates.iter().enumerate() {
            if joined[idx] {
                state.insert(
                    v,
                    Node {
                        parent: u0,
                        layer: 1,
                        claims: 0,
                    },
                );
                frontier.push(v);
            }
        }
    }
    if frontier.is_empty() {
        return false;
    }
    let mut internals: HashSet<NodeId> = HashSet::new();
    internals.insert(u0);

    let mut buf = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    let mut cur_layer = 1u32;
    let mut certified = internals.len() > fault_bound;
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
                    // Spread heuristic — same eligibility test as
                    // `Set_Builder`: move a same-layer child to a childless
                    // eligible parent, witnessed by s_u(v, t(u)) = Agree.
                    if !certified
                        && seen.layer == cur_layer
                        && state[&seen.parent].claims > 1
                        && state[&u].claims == 0
                        && s.lookup(u, v, tu).is_agree()
                    {
                        state.get_mut(&seen.parent).expect("parent visited").claims -= 1;
                        state.get_mut(&u).expect("frontier visited").claims += 1;
                        state.get_mut(&v).expect("child visited").parent = u;
                    }
                    continue;
                }
                if s.lookup(u, v, tu).is_agree() {
                    state.insert(
                        v,
                        Node {
                            parent: u,
                            layer: cur_layer,
                            claims: 0,
                        },
                    );
                    state.get_mut(&u).expect("frontier visited").claims += 1;
                    next.push(v);
                }
            }
        }
        for &u in &frontier {
            state.get_mut(&u).expect("frontier visited").claims = 0;
        }
        for &v in &next {
            internals.insert(state[&v].parent);
        }
        certified = certified || internals.len() > fault_bound;
        std::mem::swap(&mut frontier, &mut next);
    }
    // Certificate plus consistency: a certified tree proves its members
    // healthy, so none may be claimed faulty.
    certified && state.keys().all(|&v| !claimed.contains(v))
}

/// SplitMix64 finaliser — seeded, allocation-free index selection for the
/// in-part walks.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Up to `k` distinct nodes per part, gathered by a seeded random walk
/// from the representative that never leaves the part. Returns the union,
/// ascending. Depends only on `(g, k, seed)`.
fn sample_nodes<T: Partitionable + ?Sized>(g: &T, k: usize, seed: u64) -> Vec<NodeId> {
    let mut samples: Vec<NodeId> = Vec::new();
    let mut buf = Vec::new();
    for part in 0..g.part_count() {
        let mut cur = g.representative(part);
        let mut picked: Vec<NodeId> = vec![cur];
        let mut step = 0u64;
        while picked.len() < k && step < (8 * k as u64 + 8) {
            g.neighbors_into(cur, &mut buf);
            buf.retain(|&v| g.part_of(v) == part);
            if buf.is_empty() {
                break;
            }
            let idx = (mix(seed ^ mix(part as u64) ^ mix(step)) % buf.len() as u64) as usize;
            cur = buf[idx];
            if !picked.contains(&cur) {
                picked.push(cur);
            }
            step += 1;
        }
        samples.extend(picked.into_iter().take(k.max(1)));
    }
    samples.sort_unstable();
    samples.dedup();
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::diagnose;
    use mmdiag_syndrome::{behavior_sweep, FaultSet, OnDemandOracle, OracleSyndrome};
    use mmdiag_topology::families::{
        Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
        FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph,
        TwistedCube, TwistedNCube,
    };
    use mmdiag_topology::Topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Samples per part and walk seed of the bit-identity suite.
    const K: usize = 3;
    const SEED: u64 = 0x5A3D;

    /// The label loop as it was before row lookups: one `lookup` per
    /// entry over a `HashSet` claim set. `sampled_check` must return a
    /// `SampledCheck` identical to this on every input.
    fn reference_check<T, S>(
        g: &T,
        s: &S,
        claimed_faults: &[NodeId],
        certified_part: usize,
        fault_bound: usize,
        samples_per_part: usize,
        seed: u64,
    ) -> SampledCheck
    where
        T: Partitionable + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let claimed: HashSet<NodeId> = claimed_faults.iter().copied().collect();
        let bound_ok = claimed.len() <= fault_bound;
        let certificate_ok = bound_ok
            && recertify_part(
                g,
                s,
                certified_part,
                fault_bound,
                &MemberSet::new(claimed_faults),
            );
        let samples = sample_nodes(g, samples_per_part, seed);
        let mut checked_tests = 0u64;
        let mut disagreements = Vec::new();
        let mut tbuf = Vec::new();
        let mut xbuf = Vec::new();
        for &u in &samples {
            g.neighbors_into(u, &mut tbuf);
            let mut consistent = true;
            'testers: for &t in &tbuf {
                if claimed.contains(&t) {
                    continue;
                }
                g.neighbors_into(t, &mut xbuf);
                for &x in &xbuf {
                    if x == u {
                        continue;
                    }
                    let predicted_agree = !claimed.contains(&u) && !claimed.contains(&x);
                    checked_tests += 1;
                    if s.lookup(t, u, x).is_agree() != predicted_agree {
                        consistent = false;
                        break 'testers;
                    }
                }
            }
            if !consistent {
                disagreements.push(u);
            }
        }
        disagreements.sort_unstable();
        let agree = bound_ok && certificate_ok && disagreements.is_empty();
        SampledCheck {
            samples,
            checked_tests,
            disagreements,
            certificate_ok,
            agree,
        }
    }

    /// The five claims the bit-identity suite judges against a planted
    /// `truth` that the driver diagnosed exactly, certifying `part`: the
    /// driver's claim, a sampled healthy node flipped to faulty, a true
    /// fault dropped, an over-bound claim and an out-of-range certified
    /// part.
    fn claims<T: Partitionable + ?Sized>(
        g: &T,
        truth: &[NodeId],
        part: usize,
    ) -> Vec<(&'static str, Vec<NodeId>, usize)> {
        let victim = sample_nodes(g, K, SEED)
            .into_iter()
            .find(|u| !truth.contains(u))
            .expect("some healthy node is sampled");
        let mut flipped = truth.to_vec();
        flipped.push(victim);
        let over_bound: Vec<NodeId> = (0..=g.driver_fault_bound()).collect();
        let mut out = vec![
            ("driver", truth.to_vec(), part),
            ("flipped", flipped, part),
            ("over-bound", over_bound, part),
            ("part out of range", truth.to_vec(), g.part_count()),
        ];
        if let Some((_, rest)) = truth.split_first() {
            out.push(("dropped", rest.to_vec(), part));
        }
        out
    }

    /// Run both checks on one claim and assert the verdicts are identical;
    /// for an accepted claim the source must also have counted exactly the
    /// entries the reference consulted, and for a rejected one at most
    /// `Δ − 2` more per contradicted sample.
    fn assert_identical<T, S>(g: &T, s: &S, claim: &[NodeId], part: usize, ctx: &str) -> bool
    where
        T: Partitionable + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let bound = g.driver_fault_bound();
        let before = s.lookups();
        let want = reference_check(g, s, claim, part, bound, K, SEED);
        let mid = s.lookups();
        let got = sampled_check(g, s, claim, part, bound, K, SEED);
        let (reference_lookups, lookups) = (mid - before, s.lookups() - mid);
        assert_eq!(got, want, "{ctx}");
        if want.agree {
            assert_eq!(lookups, reference_lookups, "{ctx}: whole rows read");
        } else {
            let slack = want.disagreements.len() as u64 * (g.max_degree() as u64 - 2);
            assert!(
                (reference_lookups..=reference_lookups + slack).contains(&lookups),
                "{ctx}: {lookups} lookups vs reference {reference_lookups}"
            );
        }
        want.agree
    }

    fn catalog() -> Vec<Box<dyn Partitionable + Sync>> {
        vec![
            Box::new(Hypercube::new(7)),
            Box::new(CrossedCube::new(7)),
            Box::new(TwistedCube::new(7)),
            Box::new(TwistedNCube::new(7)),
            Box::new(FoldedHypercube::new(8)),
            Box::new(EnhancedHypercube::new(8, 3)),
            Box::new(AugmentedCube::new(10)),
            Box::new(ShuffleCube::new(10)),
            Box::new(KAryNCube::new(3, 6)),
            Box::new(AugmentedKAryNCube::new(4, 4)),
            Box::new(StarGraph::new(6)),
            Box::new(NKStar::new(6, 3)),
            Box::new(Pancake::new(6)),
            Box::new(Arrangement::new(6, 3)),
        ]
    }

    /// Judge all five claims on `g` over both oracles and every behaviour.
    /// The driver's claim must be accepted and every claim but the dropped
    /// fault rejected; a dropped fault is caught only when it sits near a
    /// sample, so only its bit-identity is asserted.
    fn sweep<T: Partitionable + ?Sized>(g: &T, truth: &[NodeId]) {
        let n = g.node_count();
        for b in behavior_sweep(29) {
            let dense = OracleSyndrome::new(FaultSet::new(n, truth), b);
            let sparse = OnDemandOracle::new(n, truth, b);
            let d = diagnose(g, &dense).unwrap_or_else(|e| panic!("{}: {e} ({b:?})", g.name()));
            assert_eq!(d.faults, truth, "{} {b:?}", g.name());
            for (label, claim, part) in claims(g, truth, d.certified_part) {
                for (oracle, s) in [
                    ("bitmap", &dense as &dyn SyndromeSource),
                    ("streaming", &sparse as &dyn SyndromeSource),
                ] {
                    let ctx = format!("{} {label} {oracle} {b:?}", g.name());
                    let accepted = assert_identical(g, s, &claim, part, &ctx);
                    if label != "dropped" {
                        assert_eq!(accepted, label == "driver", "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_lookups_are_bit_identical_to_the_per_entry_reference_on_every_family() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A3D_2026);
        for g in catalog() {
            let g = g.as_ref();
            let load = g.driver_fault_bound() - 1;
            let truth = FaultSet::random(g.node_count(), load, &mut rng);
            sweep(g, truth.members());
        }
    }

    #[test]
    fn row_lookups_are_bit_identical_on_an_implicit_hypercube() {
        // The family itself, served from its generator math.
        sweep(&Hypercube::new(9), &[5, 77, 300, 511]);
    }

    #[test]
    fn correct_diagnosis_always_agrees() {
        let g = Hypercube::new(7);
        let faults = [3usize, 64, 90];
        for b in behavior_sweep(41) {
            let s = OracleSyndrome::new(FaultSet::new(128, &faults), b);
            let d = diagnose(&g, &s).unwrap();
            let check = sampled_check(&g, &s, &d.faults, d.certified_part, 7, 3, 0xC0FFEE);
            assert!(check.agree, "{b:?}: {:?}", check.disagreements);
            assert!(check.certificate_ok, "{b:?}");
            assert!(check.checked_tests > 0);
            assert!(!check.samples.is_empty());
        }
    }

    #[test]
    fn sampling_is_deterministic_and_label_independent() {
        let g = KAryNCube::new(3, 6);
        let a = sample_nodes(&g, 2, 7);
        let b = sample_nodes(&g, 2, 7);
        assert_eq!(a, b);
        let c = sample_nodes(&g, 2, 8);
        assert_ne!(a, c, "different seeds should sample differently");
        // Every part is represented.
        for part in 0..g.part_count() {
            assert!(
                a.iter().any(|&u| g.part_of(u) == part),
                "part {part} unsampled"
            );
        }
    }

    #[test]
    fn planted_wrong_label_at_a_sampled_node_is_caught() {
        let g = Hypercube::new(7);
        let truth = [3usize, 64, 90];
        let s = OracleSyndrome::new(
            FaultSet::new(128, &truth),
            mmdiag_syndrome::TesterBehavior::AllZero,
        );
        let d = diagnose(&g, &s).unwrap();
        let honest = sampled_check(&g, &s, &d.faults, d.certified_part, 7, 3, 99);
        assert!(honest.agree);

        // Flip a sampled healthy node to claimed-faulty: sampling is
        // label-independent, so the same seed re-samples the same node.
        let victim = *honest
            .samples
            .iter()
            .find(|u| !truth.contains(u))
            .expect("some healthy node is sampled");
        let mut wrong: Vec<NodeId> = d.faults.clone();
        wrong.push(victim);
        wrong.sort_unstable();
        let caught = sampled_check(&g, &s, &wrong, d.certified_part, 7, 3, 99);
        assert!(
            !caught.agree,
            "flipped healthy->faulty label must be caught"
        );
        assert!(
            caught.disagreements.contains(&victim) || !caught.certificate_ok,
            "the planted node must be flagged (or the certificate tripped): {caught:?}"
        );

        // And the other direction: claim a truly faulty node healthy. A
        // wrong label is caught when it sits within the 2-neighbourhood of
        // a sampled node (the check reads every test *about* each sampled
        // node); sample generously so node 3's neighbourhood is covered.
        let dropped: Vec<NodeId> = d.faults.iter().copied().filter(|&f| f != 3).collect();
        let caught = sampled_check(&g, &s, &dropped, d.certified_part, 7, 12, 99);
        assert!(
            !caught.agree,
            "dropping a true fault must be caught: {caught:?}"
        );
    }

    #[test]
    fn works_over_the_streaming_oracle_and_permutation_families() {
        let g = StarGraph::new(6);
        let members = [0usize, 100, 350, 719];
        let s = OnDemandOracle::new(
            g.node_count(),
            &members,
            mmdiag_syndrome::TesterBehavior::Random { seed: 5 },
        );
        let d = diagnose(&g, &s).unwrap();
        assert_eq!(d.faults, members);
        let check = sampled_check(&g, &s, &d.faults, d.certified_part, 5, 4, 1234);
        assert!(check.agree, "{:?}", check.disagreements);
    }

    #[test]
    fn over_bound_claims_are_rejected() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::empty(128),
            mmdiag_syndrome::TesterBehavior::AllZero,
        );
        let too_many: Vec<NodeId> = (0..9).collect();
        let check = sampled_check(&g, &s, &too_many, 0, 7, 2, 0);
        assert!(!check.agree);
        assert!(!check.certificate_ok);
    }
}
