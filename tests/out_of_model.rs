//! Out-of-model syndromes are never accepted as a wrong labelling.
//!
//! Theorem 1 holds while `|F| ≤` the fault bound. Outside that model the
//! driver may fail, and it may return a labelling, but a sampled-verified
//! run must then reject the claim: every run here ends in an error or in a
//! verdict that disagrees. Since every planted set exceeds the bound and a
//! returned labelling never does, any accepted labelling would be wrong.
//!
//! Covered, on the 14 quick-catalogue families under the AllZero, AllOne,
//! Inverted, Truthful and Random testers:
//!
//! * faults scattered at 1.5×, 2× and 3× the bound (seeded);
//! * three adversarial placements on the first part the probe scan visits
//!   and on a seeded other part: the whole part faulty; the part's first
//!   `bound + 1` nodes; the whole part plus one outside node's
//!   neighbourhood.

use mmdiag::syndrome::{behavior_sweep, FaultSet, OracleSyndrome};
use mmdiag::topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag::topology::{Cached, NodeId, Partitionable, Topology};
use mmdiag::Diagnoser;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The quick catalogue: each family's smallest valid instance.
fn families() -> Vec<Cached> {
    let graphs: Vec<Box<dyn Partitionable>> = vec![
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
    ];
    graphs.iter().map(|g| Cached::new(g.as_ref())).collect()
}

/// Seeded rounds of scattered faults per family, three loads each.
const SCATTER_ROUNDS: usize = 8;
/// Parts per family that take the three adversarial placements: the first
/// part the probe scan visits and seeded others.
const PLACED_PARTS: usize = 6;

/// The planted fault sets of one family. Every set exceeds the bound.
fn placements(g: &Cached, rng: &mut ChaCha8Rng) -> Vec<(String, Vec<NodeId>)> {
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let mut out: Vec<(String, Vec<NodeId>)> = Vec::new();
    for _ in 0..SCATTER_ROUNDS {
        for halves in [3, 4, 6] {
            let load = (halves * bound).div_ceil(2).min(n);
            let faults = FaultSet::random(n, load, rng).members().to_vec();
            out.push((format!("{load} scattered"), faults));
        }
    }
    let mut parts = vec![0];
    while parts.len() < PLACED_PARTS.min(g.part_count()) {
        let part = rng.gen_below(g.part_count() as u64) as usize;
        if !parts.contains(&part) {
            parts.push(part);
        }
    }
    for part in parts {
        let members: Vec<NodeId> = (0..n).filter(|&v| g.part_of(v) == part).collect();
        let outside = (0..n)
            .filter(|&v| g.part_of(v) != part)
            .nth(rng.gen_below((n - members.len()) as u64) as usize)
            .expect("a node outside the part");
        let mut with_neighbourhood = members.clone();
        with_neighbourhood.extend(g.neighbors(outside));
        out.push((format!("part {part}"), members.clone()));
        out.push((
            format!("part {part}'s first {}", bound + 1),
            members[..=bound].to_vec(),
        ));
        out.push((format!("part {part} and N({outside})"), with_neighbourhood));
    }
    for (_, faults) in &mut out {
        faults.sort_unstable();
        faults.dedup();
        assert!(faults.len() > bound);
    }
    out
}

#[test]
fn out_of_model_runs_end_in_an_error_or_a_rejected_claim() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0FF_40DE1);
    let mut runs = 0;
    for g in families() {
        let n = g.node_count();
        let diagnoser = Diagnoser::new(&g).verify_sampled(2, rng.next_u64());
        for (placement, faults) in placements(&g, &mut rng) {
            let set = FaultSet::new(n, &faults);
            for behavior in behavior_sweep(rng.next_u64()) {
                runs += 1;
                let s = OracleSyndrome::new(set.clone(), behavior);
                if let Ok(report) = diagnoser.run(&s) {
                    assert!(
                        !report.verification.agreed_or_unverified(),
                        "{} {placement} {behavior:?}: accepted {:?} against {} planted",
                        g.name(),
                        report.diagnosis.faults,
                        faults.len()
                    );
                }
            }
        }
    }
    assert_eq!(runs, 14 * (3 * SCATTER_ROUNDS + 3 * PLACED_PARTS) * 5);
}
