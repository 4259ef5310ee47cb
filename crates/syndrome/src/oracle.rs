//! The lazy syndrome oracle.
//!
//! [`OracleSyndrome`] answers each lookup directly from the fault set and
//! tester behaviour, without materialising anything. Semantically it is
//! indistinguishable from a [`crate::table::SyndromeTable`] generated with
//! the same parameters (a property the test-suite checks exhaustively);
//! operationally it models the §6 setting where *performing* a test is the
//! expensive step and we want to count exactly how many tests an algorithm
//! forces — `Set_Builder` driving an oracle performs only the tests it
//! reads, whereas table-based algorithms pay for all `Σ C(deg u, 2)` of
//! them up front.

use crate::fault::FaultSet;
use crate::model::{ground_truth, row_from_flags, TestResult, TesterBehavior};
use crate::source::SyndromeSource;
use mmdiag_topology::NodeId;
use mmdiag_trace::Counter;

/// A lazy, counting syndrome source computed from a planted fault set.
/// Its reads count nothing; the counts its readers report add up in an
/// atomic tally, which batch jobs sharing the oracle share too.
pub struct OracleSyndrome {
    faults: FaultSet,
    behavior: TesterBehavior,
    lookups: Counter,
}

impl OracleSyndrome {
    /// Create an oracle for the given planted faults and faulty-tester
    /// behaviour.
    pub fn new(faults: FaultSet, behavior: TesterBehavior) -> Self {
        OracleSyndrome {
            faults,
            behavior,
            lookups: Counter::new(),
        }
    }

    /// The planted fault set (ground truth — only tests should use this).
    pub fn planted_faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The faulty-tester behaviour.
    pub fn behavior(&self) -> TesterBehavior {
        self.behavior
    }
}

impl SyndromeSource for OracleSyndrome {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        ground_truth(&self.faults, u, v, w, self.behavior)
    }

    /// Two bitmap reads for the whole row, then one per entry
    /// (`model::row_from_flags`).
    fn read_row(&self, u: NodeId, v: NodeId, ws: &[NodeId]) -> u64 {
        row_from_flags(|x| self.faults.contains(x), u, v, ws, self.behavior)
    }

    fn count(&self, n: u64) {
        self.lookups.add(n);
    }

    fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    fn reset_lookups(&self) {
        self.lookups.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::behavior_sweep;
    use crate::table::SyndromeTable;
    use mmdiag_topology::families::{KAryNCube, StarGraph};
    use mmdiag_topology::Topology;

    /// The oracle and a generated table must agree on every defined entry.
    #[test]
    fn oracle_equals_table_everywhere() {
        let graphs: Vec<Box<dyn Topology>> = vec![
            Box::new(KAryNCube::with_partition_dim(3, 2, 1)),
            Box::new(StarGraph::new(4)),
        ];
        for g in &graphs {
            let n = g.node_count();
            let faults = FaultSet::new(n, &[1, n / 2]);
            for b in behavior_sweep(11) {
                let table = SyndromeTable::generate(g.as_ref(), &faults, b);
                let oracle = OracleSyndrome::new(faults.clone(), b);
                let mut buf = Vec::new();
                for u in 0..n {
                    g.neighbors_into(u, &mut buf);
                    for i in 0..buf.len() {
                        for j in (i + 1)..buf.len() {
                            assert_eq!(
                                table.lookup(u, buf[i], buf[j]),
                                oracle.lookup(u, buf[i], buf[j]),
                                "{}: u={u}, pair=({},{}), {b:?}",
                                g.name(),
                                buf[i],
                                buf[j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lookups_counted_atomically() {
        let oracle = OracleSyndrome::new(FaultSet::empty(8), TesterBehavior::AllZero);
        // Contend through the shared executor (raw `std::thread` use is
        // confined to `crates/exec` by the xtask thread-containment lint).
        mmdiag_exec::Pool::new(4).map(&[(); 4], |_, _| {
            for _ in 0..100 {
                oracle.lookup(0, 1, 2);
            }
        });
        assert_eq!(oracle.lookups(), 400);
        oracle.reset_lookups();
        assert_eq!(oracle.lookups(), 0);
    }

    #[test]
    fn accessors() {
        let f = FaultSet::new(4, &[2]);
        let o = OracleSyndrome::new(f.clone(), TesterBehavior::AllOne);
        assert_eq!(o.planted_faults(), &f);
        assert_eq!(o.behavior(), TesterBehavior::AllOne);
    }
}
