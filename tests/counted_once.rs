//! The hot readers count what they read in batches, not entry by entry:
//! a run once per layer of each probe and of its growth (the seed step
//! included), a repaired memo epoch once for its whole re-witness, the
//! sampled verifier once for its label re-checks. A source that records
//! every `count` call sees exactly that, and the calls add up to what each
//! reader reports.

use mmdiag::baselines::sampled_check;
use mmdiag::diagnosis::session::run_sequential;
use mmdiag::diagnosis::{probe_part, set_builder_in_part, GrowthMemo, SessionOptions, Workspace};
use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TestResult, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::{TraceConfig, TraceSummary, Tracer, PHASE_GROW_REPAIR};
use std::cell::RefCell;

/// Reads an oracle and records every `count` call before forwarding it.
struct Recorded {
    inner: OracleSyndrome,
    calls: RefCell<Vec<u64>>,
}

impl Recorded {
    fn new(n: usize, faults: &[NodeId]) -> Self {
        Recorded {
            inner: OracleSyndrome::new(
                FaultSet::new(n, faults),
                TesterBehavior::Random { seed: 5 },
            ),
            calls: RefCell::new(Vec::new()),
        }
    }

    /// The calls recorded since the last `take`.
    fn take(&self) -> Vec<u64> {
        self.calls.take()
    }
}

impl SyndromeSource for Recorded {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        self.inner.read(u, v, w)
    }
    fn read_row(&self, u: NodeId, v: NodeId, ws: &[NodeId]) -> u64 {
        self.inner.read_row(u, v, ws)
    }
    fn count(&self, n: u64) {
        self.calls.borrow_mut().push(n);
        self.inner.count(n);
    }
    fn lookups(&self) -> u64 {
        self.inner.lookups()
    }
    fn reset_lookups(&self) {
        self.inner.reset_lookups();
    }
}

/// A Q_10 run whose first two probes fail: every probe makes at most one
/// call for its seed step and one per layer it scans, the growth exactly
/// one per round, and the calls sum to the run's lookups.
#[test]
fn a_run_counts_once_per_seed_step_and_layer() {
    let g = Hypercube::new_certified(10);
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let mut faults = vec![g.representative(0), g.representative(1), 1000];
    faults.sort_unstable();
    let s = Recorded::new(n, &faults);
    let report = run_sequential(&g, &s, &SessionOptions::default()).unwrap();
    let (d, t) = (&report.diagnosis, &report.telemetry);
    assert_eq!(d.faults, faults);
    assert!(d.probes >= 3, "{} probes", d.probes);
    let calls = s.take();
    assert_eq!(calls.iter().sum::<u64>(), d.lookups_used);

    let (probing, growing) = calls.split_at(calls.len() - t.grow_rounds.len());
    let rounds: Vec<u64> = t.grow_rounds.iter().map(|r| r.lookups).collect();
    assert_eq!(growing, rounds, "one call per growth round");
    assert_eq!(probing.iter().sum::<u64>(), t.probe_lookups);
    let mut ws = Workspace::new(n);
    let most: usize = (0..d.probes)
        .map(|p| 1 + set_builder_in_part(&g, &s.inner, g.representative(p), bound, &mut ws).rounds)
        .sum();
    assert!(
        probing.len() <= most,
        "{} calls for {} probes of {most} seed steps and layers",
        probing.len(),
        d.probes
    );
}

/// Q_10 epochs through one memo: a repaired epoch's calls are its
/// re-grown rounds, one call for every parent row of the re-witness, and
/// one single lookup per orphan or old fault it re-tested.
#[test]
fn a_repaired_epochs_rewitness_rows_are_one_call() {
    let g = Hypercube::new_certified(10);
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let mut ws = Workspace::new(n);
    let clean = OracleSyndrome::new(FaultSet::empty(n), TesterBehavior::AllZero);
    let cert = (0..g.part_count())
        .find_map(|p| probe_part(&g, &clean, p, bound, &mut ws).certificate)
        .expect("a fault-free graph certifies");
    let mut memo = GrowthMemo::new();
    let mut repaired = 0;
    for faults in [vec![], vec![1023], vec![1015, 1023], vec![1015], vec![]] {
        let s = Recorded::new(n, &faults);
        let tracer = Tracer::new(TraceConfig {
            shards: 1,
            shard_capacity: 256,
        });
        let (d, rounds) = memo
            .grow(&g, &s, &cert, 1, bound, 0, &mut ws, &tracer)
            .unwrap();
        assert_eq!(d.faults, faults);
        let calls = s.take();
        assert_eq!(calls.iter().sum::<u64>(), d.lookups_used, "{faults:?}");
        let (regrown, rewitness) = calls.split_at(rounds.len());
        let round_lookups: Vec<u64> = rounds.iter().map(|r| r.lookups).collect();
        assert_eq!(regrown, round_lookups, "{faults:?}: one call per round");
        let trace = TraceSummary::from_events(&tracer.drain(), tracer.dropped());
        if !trace.names.iter().any(|s| s.name == PHASE_GROW_REPAIR) {
            assert!(rewitness.is_empty(), "{faults:?}: a full walk");
            continue;
        }
        repaired += 1;
        let (&rows, singles) = rewitness.split_first().expect("the re-witness counts");
        assert!(
            rows as usize > n / 2,
            "{faults:?}: {rows} entries in the rows"
        );
        assert!(singles.iter().all(|&c| c == 1), "{faults:?}: {singles:?}");
        assert_eq!(
            rows + singles.len() as u64,
            trace.value_sum(PHASE_GROW_REPAIR),
            "{faults:?}"
        );
    }
    assert_eq!(repaired, 4, "every epoch after the first is repaired");
}

/// The sampled verifier counts its re-certification lookup by lookup and
/// its label re-checks' rows once, at the end: for an accepted claim, the
/// entries it judged.
#[test]
fn the_sampled_checks_label_rows_are_one_call() {
    let g = Hypercube::new_certified(10);
    let (n, bound) = (g.node_count(), g.driver_fault_bound());
    let s = Recorded::new(n, &[3, 64, 900]);
    let d = run_sequential(&g, &s, &SessionOptions::default())
        .unwrap()
        .diagnosis;
    s.take();
    let check = sampled_check(&g, &s, &d.faults, d.certified_part, bound, 3, 7);
    assert!(check.agree, "{check:?}");
    let calls = s.take();
    let (&rows, recertify) = calls.split_last().expect("the check counts");
    assert!(recertify.iter().all(|&c| c == 1), "{recertify:?}");
    assert_eq!(rows, check.checked_tests);
}
