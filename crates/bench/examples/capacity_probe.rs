//! Per-part certificate-capacity audit across the family catalog.
//!
//! For every catalog instance, probes each part of a fault-free syndrome
//! with the restricted `Set_Builder` and reports the worst-case contributor
//! count versus the instance's `driver_fault_bound` — the diagnostic that
//! exposed the original over-optimistic fault bounds (see
//! `mmdiag_topology::certified_fault_capacity`). Exits with status 1 when
//! any part of any instance fails to certify fault-free at that bound.
//!
//! Run: `cargo run --release -p mmdiag-bench --example capacity_probe`

use mmdiag_core::set_builder::{set_builder_in_part, Workspace};
use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
use mmdiag_topology::families::*;
use mmdiag_topology::Partitionable;

/// Print one instance's audit line; `true` when every part certified.
fn probe<T: Partitionable>(g: &T) -> bool {
    let n = g.node_count();
    let s = OracleSyndrome::new(FaultSet::empty(n), TesterBehavior::AllZero);
    let mut ws = Workspace::new(n);
    let bound = g.driver_fault_bound();
    let mut worst = usize::MAX;
    let mut certified = 0;
    for p in 0..g.part_count() {
        let out = set_builder_in_part(g, &s, g.representative(p), bound, &mut ws);
        if out.all_healthy {
            certified += 1;
        }
        worst = worst.min(out.contributors);
    }
    println!(
        "{:24} bound={:2} parts={:3} part_sz={:4} worst_contrib={:3} certified={}/{}",
        g.name(),
        bound,
        g.part_count(),
        g.part_size(0),
        worst,
        certified,
        g.part_count()
    );
    certified == g.part_count()
}

fn main() {
    let all = [
        probe(&Hypercube::new(7)),
        probe(&Hypercube::new(8)),
        probe(&CrossedCube::new(7)),
        probe(&CrossedCube::new(8)),
        probe(&TwistedCube::new(7)),
        probe(&TwistedCube::new(8)),
        probe(&TwistedNCube::new(7)),
        probe(&TwistedNCube::new(8)),
        probe(&FoldedHypercube::new(8)),
        probe(&FoldedHypercube::new(9)),
        probe(&EnhancedHypercube::new(8, 3)),
        probe(&EnhancedHypercube::new(9, 3)),
        probe(&AugmentedCube::new(10)),
        probe(&ShuffleCube::new(10)),
        probe(&KAryNCube::new(4, 4)),
        probe(&KAryNCube::new(3, 6)),
        probe(&AugmentedKAryNCube::new(4, 4)),
        probe(&StarGraph::new(6)),
        probe(&StarGraph::new(7)),
        probe(&NKStar::new(6, 3)),
        probe(&NKStar::new(7, 3)),
        probe(&Pancake::new(6)),
        probe(&Pancake::new(7)),
        probe(&Arrangement::new(6, 3)),
        probe(&Arrangement::new(7, 3)),
    ];
    let failed = all.iter().filter(|&&ok| !ok).count();
    if failed > 0 {
        eprintln!("{failed} instances have a part that does not certify fault-free");
        std::process::exit(1);
    }
}
