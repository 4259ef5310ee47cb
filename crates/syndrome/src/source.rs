//! The [`SyndromeSource`] abstraction: how diagnosis algorithms read test
//! results.
//!
//! The paper's input is *a syndrome* — a table of results, one per
//! (tester, neighbour-pair) triple. §6 argues that `Set_Builder` consults
//! far fewer entries than the whole table, so the access interface matters:
//! algorithms pull individual entries through [`SyndromeSource::lookup`]
//! (or a tester's row of them through [`SyndromeSource::lookup_row`]), and
//! [`SyndromeSource::lookups`] exposes how many entries were consulted
//! (experiment CMP-CT / LOOKUP).

use crate::model::TestResult;
use mmdiag_topology::NodeId;
use mmdiag_trace::Counter;

/// Read access to a syndrome `s`.
///
/// `lookup(u, v, w)` returns `s_u(v, w)` and must be symmetric in
/// `(v, w)`. Callers guarantee that `v` and `w` are distinct neighbours of
/// `u` in the underlying topology; implementations may panic otherwise.
pub trait SyndromeSource {
    /// Read `s_u(v, w)`.
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult;

    /// Read `s_u(v, w)` for every `w` in `ws`, in order, into `out`
    /// (cleared first). Each `w` must be a neighbour of `u` distinct from
    /// `v`.
    ///
    /// The contract: `out[i]` equals `lookup(u, v, ws[i])`, and a counting
    /// source counts the whole row — its [`SyndromeSource::lookups`]
    /// advances by exactly `ws.len()`, even if the caller stops reading the
    /// row early. The default performs one `lookup` per entry; sources that
    /// can resolve the row's shared inputs (the flags of `u` and `v`, the
    /// counter update) once override it.
    fn lookup_row(&self, u: NodeId, v: NodeId, ws: &[NodeId], out: &mut Vec<TestResult>) {
        out.clear();
        out.extend(ws.iter().map(|&w| self.lookup(u, v, w)));
    }

    /// Number of entries consulted so far (0 for non-counting sources).
    fn lookups(&self) -> u64 {
        0
    }

    /// Reset the lookup counter (no-op for non-counting sources).
    fn reset_lookups(&self) {}
}

impl<S: SyndromeSource + ?Sized> SyndromeSource for &S {
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        (**self).lookup(u, v, w)
    }
    fn lookup_row(&self, u: NodeId, v: NodeId, ws: &[NodeId], out: &mut Vec<TestResult>) {
        (**self).lookup_row(u, v, ws, out)
    }
    fn lookups(&self) -> u64 {
        (**self).lookups()
    }
    fn reset_lookups(&self) {
        (**self).reset_lookups()
    }
}

/// A counting adaptor: wraps any source and tallies every lookup in an
/// atomic [`Counter`] (so concurrent batch jobs can share it).
pub struct Counting<S> {
    inner: S,
    count: Counter,
}

impl<S: SyndromeSource> Counting<S> {
    /// Wrap `inner` with a fresh counter.
    pub fn new(inner: S) -> Self {
        Counting {
            inner,
            count: Counter::new(),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SyndromeSource> SyndromeSource for Counting<S> {
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        self.count.inc();
        self.inner.lookup(u, v, w)
    }
    fn lookup_row(&self, u: NodeId, v: NodeId, ws: &[NodeId], out: &mut Vec<TestResult>) {
        self.count.add(ws.len() as u64);
        self.inner.lookup_row(u, v, ws, out)
    }
    fn lookups(&self) -> u64 {
        self.count.get()
    }
    fn reset_lookups(&self) {
        self.count.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstSource(TestResult);
    impl SyndromeSource for ConstSource {
        fn lookup(&self, _u: NodeId, _v: NodeId, _w: NodeId) -> TestResult {
            self.0
        }
    }

    #[test]
    fn counting_tallies_and_resets() {
        let c = Counting::new(ConstSource(TestResult::Agree));
        assert_eq!(c.lookups(), 0);
        for _ in 0..5 {
            assert!(c.lookup(0, 1, 2).is_agree());
        }
        assert_eq!(c.lookups(), 5);
        c.reset_lookups();
        assert_eq!(c.lookups(), 0);
    }

    #[test]
    fn reference_forwarding_counts_on_original() {
        let c = Counting::new(ConstSource(TestResult::Disagree));
        let r = &c;
        r.lookup(0, 1, 2);
        assert_eq!(c.lookups(), 1);
    }

    /// Every row of a small graph, under every behaviour, equals the
    /// per-entry lookups — for both overriding oracles, the table (default
    /// method) and the counting adaptor — and a counting source advances
    /// by exactly the row's length.
    #[test]
    fn lookup_row_equals_per_entry_lookups_on_every_source() {
        use crate::{behavior_sweep, FaultSet, OnDemandOracle, OracleSyndrome, SyndromeTable};
        use mmdiag_topology::families::Hypercube;
        use mmdiag_topology::Topology;
        let g = Hypercube::with_partition_dim(5, 3);
        let n = g.node_count();
        let faults = FaultSet::new(n, &[1, 12, 30]);
        for b in behavior_sweep(17) {
            let sources: [(&str, Box<dyn SyndromeSource>); 4] = [
                (
                    "on-demand",
                    Box::new(OnDemandOracle::from_fault_set(&faults, b)),
                ),
                ("oracle", Box::new(OracleSyndrome::new(faults.clone(), b))),
                ("table", Box::new(SyndromeTable::generate(&g, &faults, b))),
                (
                    "counting",
                    Box::new(Counting::new(OnDemandOracle::from_fault_set(&faults, b))),
                ),
            ];
            let (mut nbrs, mut row, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for (name, s) in &sources {
                for u in 0..n {
                    g.neighbors_into(u, &mut nbrs);
                    for &v in &nbrs {
                        row.clear();
                        row.extend(nbrs.iter().copied().filter(|&w| w != v));
                        let before = s.lookups();
                        s.lookup_row(u, v, &row, &mut out);
                        assert_eq!(s.lookups() - before, row.len() as u64, "{name} {b:?}");
                        let each: Vec<TestResult> =
                            row.iter().map(|&w| s.lookup(u, v, w)).collect();
                        assert_eq!(out, each, "{name}: u={u}, v={v}, {b:?}");
                    }
                }
            }
        }
    }

    /// Answers only by rows: a per-entry `lookup` panics, so any layer that
    /// fell back to the default row method would panic too.
    struct RowOnly;
    impl SyndromeSource for RowOnly {
        fn lookup(&self, _u: NodeId, _v: NodeId, _w: NodeId) -> TestResult {
            panic!("per-entry lookup reached a row-only source");
        }
        fn lookup_row(&self, _u: NodeId, _v: NodeId, ws: &[NodeId], out: &mut Vec<TestResult>) {
            out.clear();
            out.extend(ws.iter().map(|&w| TestResult::from_bit((w % 2) as u8)));
        }
    }

    #[test]
    fn lookup_row_overrides_are_forwarded() {
        fn row<S: SyndromeSource + ?Sized>(s: &S) -> Vec<TestResult> {
            let mut out = vec![TestResult::Disagree; 5];
            s.lookup_row(0, 1, &[2, 3, 4], &mut out);
            out
        }
        let want = [TestResult::Agree, TestResult::Disagree, TestResult::Agree];
        // `&S`, and the trait object `submit_batch` hands `verify_claim`,
        // both directly and behind a reference.
        assert_eq!(row(&&RowOnly), want);
        let dynamic: &(dyn SyndromeSource + Sync) = &RowOnly;
        assert_eq!(row(dynamic), want);
        assert_eq!(row(&dynamic), want);
        // `Counting` forwards the row and counts all of it.
        let counted = Counting::new(RowOnly);
        assert_eq!(row(&counted), want);
        assert_eq!(counted.lookups(), 3);
        let counted_dyn = Counting::new(dynamic);
        assert_eq!(row(&&counted_dyn), want);
        assert_eq!(counted_dyn.lookups(), 3);
    }
}
