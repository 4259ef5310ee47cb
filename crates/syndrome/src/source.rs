//! The [`SyndromeSource`] abstraction: how diagnosis algorithms read test
//! results.
//!
//! The paper's input is *a syndrome* — a table of results, one per
//! (tester, neighbour-pair) triple. §6 argues that `Set_Builder` consults
//! far fewer entries than the whole table, so the access interface matters:
//! a source reads entries ([`SyndromeSource::read`], or a tester's row of
//! them as one mask through [`SyndromeSource::read_row`]), the reader
//! reports what it read ([`SyndromeSource::count`]), and
//! [`SyndromeSource::lookups`] exposes how many entries were consulted
//! (experiment CMP-CT / LOOKUP).

use crate::model::TestResult;
use mmdiag_topology::NodeId;

/// The most entries one [`SyndromeSource::read_row`] call reads: one bit
/// each of a `u64` mask. A longer list is read in `chunks(ROW)`.
pub const ROW: usize = 64;

/// The mask of a row: bit `i` is set iff `disagrees(ws[i])`.
///
/// # Panics
///
/// If `ws` holds more than [`ROW`] entries.
pub fn row_mask(ws: &[NodeId], mut disagrees: impl FnMut(NodeId) -> bool) -> u64 {
    assert!(
        ws.len() <= ROW,
        "a row holds at most {ROW} entries, not {}",
        ws.len()
    );
    ws.iter()
        .enumerate()
        .fold(0, |mask, (i, &w)| mask | u64::from(disagrees(w)) << i)
}

/// Read access to a syndrome `s`.
///
/// `read(u, v, w)` returns `s_u(v, w)` and must be symmetric in `(v, w)`.
/// Callers guarantee that `v` and `w` are distinct neighbours of `u` in
/// the underlying topology; implementations may panic otherwise.
///
/// A source only reads; the reader counts. [`SyndromeSource::read`] and
/// [`SyndromeSource::read_row`] count nothing, and a reader reports the
/// entries it read through [`SyndromeSource::count`], once per batch of
/// reads: the growth once per layer, the monitor's re-witness once per
/// epoch, the sampled verifier once per check. So a run that a panicking
/// source unwinds mid-layer leaves that layer's reads uncounted.
/// [`SyndromeSource::lookup`] is the counted single read: `count(1)`, then
/// `read`.
///
/// A counting source implements `count`, `lookups` and `reset_lookups`;
/// no source overrides `lookup`.
pub trait SyndromeSource {
    /// Read `s_u(v, w)`, uncounted.
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult;

    /// Read `s_u(v, w)` for every `w` in `ws`, uncounted, as a mask: bit
    /// `i` is set iff `s_u(v, ws[i]) = 1`, so the mask equals one
    /// [`SyndromeSource::read`] per entry. Each `w` must be a neighbour of
    /// `u` distinct from `v`.
    ///
    /// The default performs one `read` per entry; sources that can resolve
    /// the row's shared inputs (the flags of `u` and `v`) once override it.
    ///
    /// # Panics
    ///
    /// If `ws` holds more than [`ROW`] entries.
    fn read_row(&self, u: NodeId, v: NodeId, ws: &[NodeId]) -> u64 {
        row_mask(ws, |w| !self.read(u, v, w).is_agree())
    }

    /// Add `n` entries read to the source's tally (a no-op for
    /// non-counting sources).
    fn count(&self, _n: u64) {}

    /// Read `s_u(v, w)` and count it: `count(1)`, then `read`.
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        self.count(1);
        self.read(u, v, w)
    }

    /// Number of entries counted so far (0 for non-counting sources).
    fn lookups(&self) -> u64 {
        0
    }

    /// Reset the lookup counter (no-op for non-counting sources).
    fn reset_lookups(&self) {}
}

impl<S: SyndromeSource + ?Sized> SyndromeSource for &S {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        (**self).read(u, v, w)
    }
    fn read_row(&self, u: NodeId, v: NodeId, ws: &[NodeId]) -> u64 {
        (**self).read_row(u, v, ws)
    }
    fn count(&self, n: u64) {
        (**self).count(n)
    }
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        (**self).lookup(u, v, w)
    }
    fn lookups(&self) -> u64 {
        (**self).lookups()
    }
    fn reset_lookups(&self) {
        (**self).reset_lookups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSet, OracleSyndrome, TesterBehavior};

    #[test]
    fn reference_forwarding_counts_on_original() {
        let o = OracleSyndrome::new(FaultSet::new(3, &[1]), TesterBehavior::AllZero);
        let r = &o;
        assert!(!r.lookup(0, 1, 2).is_agree());
        r.count(4);
        assert_eq!(o.lookups(), 5);
        assert_eq!((&r).lookups(), 5);
        r.reset_lookups();
        assert_eq!(o.lookups(), 0);
    }

    /// Every row of Q_5 with three faults, under every behaviour, read as
    /// a mask from both overriding oracles and from the table (the default
    /// method), each directly, through `&S`, as `dyn` and through `&dyn`:
    /// bit `i` is the `i`-th entry's `read`, neither read counts, `lookup`
    /// is a counted `read` and `count(n)` adds `n`.
    #[test]
    fn read_row_equals_per_entry_reads_on_every_source() {
        use crate::{behavior_sweep, OnDemandOracle, SyndromeTable};
        use mmdiag_topology::families::Hypercube;
        use mmdiag_topology::Topology;

        fn check<S: SyndromeSource + ?Sized>(g: &Hypercube, s: &S, ctx: &str) {
            let (mut nbrs, mut row) = (Vec::new(), Vec::new());
            for u in 0..g.node_count() {
                g.neighbors_into(u, &mut nbrs);
                for &v in &nbrs {
                    row.clear();
                    row.extend(nbrs.iter().copied().filter(|&w| w != v));
                    let ctx = format!("{ctx}: u={u}, v={v}");
                    let before = s.lookups();
                    let mask = s.read_row(u, v, &row);
                    let reads: Vec<TestResult> = row.iter().map(|&w| s.read(u, v, w)).collect();
                    assert_eq!(s.lookups(), before, "{ctx}: reads count nothing");
                    assert_eq!(mask >> row.len(), 0, "{ctx}: bits past the row");
                    for (i, (&w, &entry)) in row.iter().zip(&reads).enumerate() {
                        assert_eq!(mask >> i & 1, u64::from(entry.as_bit()), "{ctx}, w={w}");
                        assert_eq!(s.lookup(u, v, w), entry, "{ctx}, w={w}");
                    }
                    let counted = s.lookups() - before;
                    assert_eq!(counted, row.len() as u64, "{ctx}: a lookup counts one");
                }
            }
            let before = s.lookups();
            s.count(7);
            assert_eq!(s.lookups(), before + 7, "{ctx}");
        }

        fn views<S: SyndromeSource>(g: &Hypercube, s: S, name: &str) {
            check(g, &s, name);
            check(g, &&s, &format!("&{name}"));
            let dynamic: &dyn SyndromeSource = &s;
            check(g, dynamic, &format!("dyn {name}"));
            check(g, &dynamic, &format!("&dyn {name}"));
        }

        let g = Hypercube::with_partition_dim(5, 3);
        let faults = FaultSet::new(g.node_count(), &[1, 12, 30]);
        for b in behavior_sweep(17) {
            let on_demand = OnDemandOracle::from_fault_set(&faults, b);
            views(&g, on_demand, &format!("on-demand {b:?}"));
            views(
                &g,
                OracleSyndrome::new(faults.clone(), b),
                &format!("oracle {b:?}"),
            );
            let table = SyndromeTable::generate(&g, &faults, b);
            views(&g, table, &format!("table {b:?}"));
        }
    }

    /// A row of [`ROW`] entries reads; one entry more panics, on the
    /// overriding oracles and on the default method alike.
    #[test]
    fn a_row_holds_at_most_64_entries() {
        use crate::OnDemandOracle;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let faults = FaultSet::new(100, &[3, 65]);
        let ws: Vec<NodeId> = (2..2 + ROW + 1).collect();
        let b = TesterBehavior::Truthful;
        let sources: [Box<dyn SyndromeSource>; 3] = [
            Box::new(OnDemandOracle::from_fault_set(&faults, b)),
            Box::new(OracleSyndrome::new(faults.clone(), b)),
            Box::new(ByEntry(OracleSyndrome::new(faults, b))),
        ];
        for s in &sources {
            assert_eq!(s.read_row(0, 1, &ws[..ROW]), 1 << 1 | 1 << 63);
            let over = catch_unwind(AssertUnwindSafe(|| s.read_row(0, 1, &ws)));
            assert!(over.is_err(), "a row of {} entries read", ws.len());
        }
    }

    /// Forwards `read` only, so its rows take the default method.
    struct ByEntry(OracleSyndrome);
    impl SyndromeSource for ByEntry {
        fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
            self.0.read(u, v, w)
        }
    }

    /// Answers only by rows: a per-entry `read` panics, so any layer that
    /// fell back to the default row method would panic too.
    struct RowOnly;
    impl SyndromeSource for RowOnly {
        fn read(&self, _u: NodeId, _v: NodeId, _w: NodeId) -> TestResult {
            panic!("per-entry read reached a row-only source");
        }
        fn read_row(&self, _u: NodeId, _v: NodeId, ws: &[NodeId]) -> u64 {
            row_mask(ws, |w| w % 2 == 1)
        }
    }

    #[test]
    fn read_row_overrides_are_forwarded() {
        fn row<S: SyndromeSource + ?Sized>(s: &S) -> u64 {
            s.read_row(0, 1, &[2, 3, 4])
        }
        let want = 0b010;
        // `&S`, and the trait object `submit_batch` hands `verify_claim`,
        // both directly and behind a reference.
        assert_eq!(row(&&RowOnly), want);
        let dynamic: &(dyn SyndromeSource + Sync) = &RowOnly;
        assert_eq!(row(dynamic), want);
        assert_eq!(row(&dynamic), want);
    }
}
