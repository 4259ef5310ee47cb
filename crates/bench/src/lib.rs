//! # mmdiag-bench
//!
//! Benchmark harness for the `O(Δ·N)` diagnosis driver: sweeps all fourteen
//! interconnection-network families of §5 across multiple sizes and fault
//! loads, runs the driver, the naive full-table baseline **and the
//! event-level distributed simulator** on identical instances, asserts
//! they all agree with the planted truth, and renders the measurements as
//! a machine-readable JSON trajectory file (`BENCH_<pr>.json`).
//!
//! The interesting measured quantity besides wall time is **syndrome
//! lookups**: the §6 claim is that the driver consults `O(Δ·N)` entries
//! while any table-first algorithm pays for all `Σ C(deg u, 2)` of them.
//! Both counts come from the same [`mmdiag_syndrome::SyndromeSource`]
//! accounting, so the comparison is apples-to-apples.
//!
//! Every leg runs through the [`mmdiag::Diagnoser`] session front door.
//! Each cell times one single-run leg, `"driver"`: a single run takes no
//! execution policy, so there is one code path to time. Its record
//! carries the `"phases"` of the same rep as its headline time (the
//! session's [`PhaseTelemetry`], with a `"grow_rounds"` array per growth
//! layer). The baseline and sampled-checker legs run as the session's
//! *verification policy* (`verify_claim` against the already finished
//! diagnosis — no re-diagnosis), recorded in a `"verification"` object;
//! see [`SCHEMA_VERSION`]. The executor pool does its one job here: every
//! instance's fault loads are evaluated once more as one **batched
//! submission** per policy (`Diagnoser::submit_batch`, sequential against
//! pooled), and the simulator-only scenario sweep dispatches its
//! per-instance cells on the pool.
//!
//! Three scale axes extend the catalog:
//!
//! * **`--large`** adds 10⁵⁺-node instances (`Q_17`, `S_8`, large k-ary
//!   tori) where the full-table baseline and the event simulator are
//!   infeasible — those cells are **driver-only**, carry
//!   `"baseline": null` / `"distsim": null`, and record the **sampled
//!   spot-checker**'s ([`mmdiag_baselines::sampled_check`]) verdict in
//!   their `"verification"` object instead;
//! * **`--xlarge`** sweeps 10⁶–10⁷-node instances served by the families
//!   themselves — adjacency straight from the generator math, no `Cached`
//!   CSR anywhere — with syndromes from the `O(|F|)`-state
//!   [`mmdiag_syndrome::OnDemandOracle`], through the slimmed
//!   [`run_scale_cell`] protocol;
//! * **`--xxlarge`** runs Q_25, Q^3_17 and Q_27 (134 217 728 nodes)
//!   through the same protocol.
//!
//! Criterion is not available in the offline build environment; the
//! `benches/sweep.rs` target (`harness = false`) and the `mmdiag-bench`
//! binary both drive the sweep below with plain wall-clock timing.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mmdiag::{BatchJob, Diagnoser, VerificationVerdict};
use mmdiag_core::{PhaseTelemetry, SEQUENTIAL_CUTOVER_NODES};
use mmdiag_distsim::{plan, FaultTimeline, LatencyModel};
use mmdiag_syndrome::{FaultSet, OnDemandOracle, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{Cached, NodeId, Partitionable, Topology};
use mmdiag_trace::clock::Stopwatch;
use mmdiag_trace::{HistogramSummary, MetricValue, TraceConfig, TraceSummary};

pub mod online;
pub mod throughput;
pub use online::{
    run_online, run_online_scale, OnlineFamilyRecord, OnlineRecord, OnlineScaleRecord,
};
pub use throughput::{overhead_guard, run_throughput, OverheadGuard, ThroughputRecord};

/// Timed reps of each cell's driver leg; the record keeps the fastest.
pub const TIMING_REPS: usize = 3;

/// Samples per part for the sampled spot-checker leg.
pub const SAMPLES_PER_PART: usize = 2;

/// A named benchmark instance. The topology is a trait object — every
/// consumer is already generic over `Partitionable + ?Sized`, so CSR
/// (`Cached`) and generator-math (the family itself) instances flow
/// through the same code paths; `implicit` records which representation
/// sits inside.
pub struct Instance {
    /// Family key (stable across sizes, e.g. `"hypercube"`).
    pub family: &'static str,
    /// The topology — materialised CSR or implicit generator math.
    pub graph: Box<dyn Partitionable + Sync>,
    /// Served CSR-free from the generator math (no `Cached` copy).
    pub implicit: bool,
    /// Large-scale instance on which only the driver-family legs run: the
    /// full-table baseline and the event simulator are infeasible there
    /// and their cells carry JSON `null`s. Since ISSUE 4 these cells run
    /// the sampled spot-checker instead.
    pub driver_only: bool,
    /// 10⁶⁺-node `--xlarge` instance: slimmed measurement protocol (one
    /// timed rep per leg, no batch submission).
    pub scale: bool,
}

impl Instance {
    fn new<T: Partitionable + ?Sized>(family: &'static str, g: &T) -> Self {
        Instance {
            family,
            graph: Box::new(Cached::new(g)),
            implicit: false,
            driver_only: false,
            scale: false,
        }
    }

    fn driver_only<T: Partitionable + ?Sized>(family: &'static str, g: &T) -> Self {
        Instance {
            family,
            graph: Box::new(Cached::new(g)),
            implicit: false,
            driver_only: true,
            scale: false,
        }
    }

    /// A mid-size CSR-free instance that still runs every leg (baseline,
    /// simulator included) — proving the whole harness is
    /// representation-agnostic.
    fn implicit<T: Partitionable + Sync + 'static>(family: &'static str, g: T) -> Self {
        Instance {
            family,
            graph: Box::new(g),
            implicit: true,
            driver_only: false,
            scale: false,
        }
    }

    /// A 10⁶⁺-node `--xlarge` instance: implicit adjacency, driver +
    /// sampled-checker legs only.
    fn implicit_scale<T: Partitionable + Sync + 'static>(family: &'static str, g: T) -> Self {
        Instance {
            family,
            graph: Box::new(g),
            implicit: true,
            driver_only: true,
            scale: true,
        }
    }
}

/// One smallest valid instance per family — the quick sweep used by tests
/// and the `cargo bench` smoke target.
pub fn small_catalog() -> Vec<Instance> {
    vec![
        Instance::new("hypercube", &Hypercube::new(7)),
        Instance::new("crossed_cube", &CrossedCube::new(7)),
        Instance::new("twisted_cube", &TwistedCube::new(7)),
        Instance::new("twisted_n_cube", &TwistedNCube::new(7)),
        Instance::new("folded_hypercube", &FoldedHypercube::new(8)),
        Instance::new("enhanced_hypercube", &EnhancedHypercube::new(8, 3)),
        Instance::new("augmented_cube", &AugmentedCube::new(10)),
        Instance::new("shuffle_cube", &ShuffleCube::new(10)),
        Instance::new("kary", &KAryNCube::new(4, 4)),
        Instance::new("augmented_kary", &AugmentedKAryNCube::new(4, 4)),
        Instance::new("star", &StarGraph::new(6)),
        Instance::new("nk_star", &NKStar::new(6, 3)),
        Instance::new("pancake", &Pancake::new(6)),
        Instance::new("arrangement", &Arrangement::new(6, 3)),
    ]
}

/// The full sweep: every family at the sizes of [`small_catalog`] plus at
/// least one larger size where the next valid parameterisation stays below
/// ~5k nodes.
pub fn full_catalog() -> Vec<Instance> {
    let mut v = small_catalog();
    v.extend([
        Instance::new("hypercube", &Hypercube::new(8)),
        Instance::new("crossed_cube", &CrossedCube::new(8)),
        Instance::new("twisted_cube", &TwistedCube::new(8)),
        Instance::new("twisted_n_cube", &TwistedNCube::new(8)),
        Instance::new("folded_hypercube", &FoldedHypercube::new(9)),
        Instance::new("enhanced_hypercube", &EnhancedHypercube::new(9, 3)),
        Instance::new("kary", &KAryNCube::new(3, 6)),
        Instance::new("star", &StarGraph::new(7)),
        Instance::new("nk_star", &NKStar::new(7, 3)),
        Instance::new("pancake", &Pancake::new(7)),
        Instance::new("arrangement", &Arrangement::new(7, 3)),
        // Mid-size CSR-free cells: every leg runs — baseline and the event
        // simulator included — over implicit generator-math adjacency, so
        // representation-agnosticism is exercised where the full
        // cross-check machinery still applies (Q_10 needs m = 5: 16-node
        // subcubes cannot certify bound 10 — the capacity phenomenon the
        // certified constructors exist for).
        Instance::implicit("hypercube", Hypercube::new_certified(10)),
        Instance::implicit("kary", KAryNCube::new_certified(4, 5)),
    ]);
    v
}

/// The 10⁵⁺-node scale axis behind `--large`, smallest first (the
/// `--quick` smoke leg runs only the first entry). All driver-only: the
/// baseline's full table and the event simulator's per-message replay are
/// infeasible at these sizes — the sampled spot-checker supplies the
/// independent verdict instead.
///
/// `Q^3_11` historically hand-pinned `m = 4`: the default rule
/// (`k^m > 2n`) picks 27-node parts whose probe trees top out at 15
/// internal nodes — below the fault bound 22, so no part could ever
/// certify. The capacity-aware [`KAryNCube::new_certified`] now derives
/// the same `m = 4` (81-node parts, 48 contributors, 2 187 parts) from a
/// single part-local probe, so the pin is gone.
pub fn large_catalog() -> Vec<Instance> {
    vec![
        Instance::driver_only("star", &StarGraph::new(8)), // 40 320 nodes
        Instance::driver_only("hypercube", &Hypercube::new(17)), // 131 072 nodes
        Instance::driver_only("kary", &KAryNCube::new_certified(3, 11)), // 177 147 nodes
        Instance::driver_only("kary", &KAryNCube::new(4, 9)), // 262 144 nodes
    ]
}

/// The 10⁶–10⁷-node `--xlarge` axis, smallest first (the `--quick` smoke
/// leg runs only the first entry). Every instance is served implicitly —
/// generator-math adjacency, no CSR — with the certified partition
/// dimension, syndromes streamed from `O(|F|)` state, and the sampled
/// spot-checker as the independent cross-check.
pub fn xlarge_catalog() -> Vec<Instance> {
    vec![
        Instance::implicit_scale("hypercube", Hypercube::new_certified(20)), // 1 048 576 nodes
        Instance::implicit_scale("kary", KAryNCube::new_certified(3, 13)),   // 1 594 323 nodes
        Instance::implicit_scale("hypercube", Hypercube::new_certified(21)), // 2 097 152 nodes
        Instance::implicit_scale("star", StarGraph::new(10)),                // 3 628 800 nodes
        Instance::implicit_scale("kary", KAryNCube::new_certified(4, 11)),   // 4 194 304 nodes
        Instance::implicit_scale("hypercube", Hypercube::new_certified(23)), // 8 388 608 nodes
    ]
}

/// The 10⁷–10⁸-node `--xxlarge` axis, smallest first (the `--quick` smoke
/// leg runs only the first entry). Same slimmed [`run_scale_cell`]
/// protocol as `--xlarge` — implicit adjacency, streaming syndromes,
/// sampled verification — at 10⁷–10⁸ nodes,
/// where growth dominates the diagnosis. All three use the certified
/// constructors: `Q_27`'s default partition rule would pick subcubes whose
/// probe trees cannot certify fault bound 27.
pub fn xxlarge_catalog() -> Vec<Instance> {
    vec![
        Instance::implicit_scale("hypercube", Hypercube::new_certified(25)), // 33 554 432 nodes
        Instance::implicit_scale("kary", KAryNCube::new_certified(3, 17)),   // 129 140 163 nodes
        Instance::implicit_scale("hypercube", Hypercube::new_certified(27)), // 134 217 728 nodes
    ]
}

/// The baseline leg of one cell (absent on driver-only cells and on the
/// quick-mode skip set).
#[derive(Clone, Debug)]
pub struct BaselineLeg {
    /// Wall time in nanoseconds.
    pub nanos: u128,
    /// Syndrome lookups (always the full table size).
    pub lookups: u64,
}

/// The event-level simulator's unit-latency leg of one cell.
#[derive(Clone, Debug)]
pub struct DistsimLeg {
    /// Wall time of the simulation (ns).
    pub nanos: u128,
    /// Concurrent probe-phase wave depth (max over parts).
    pub probe_rounds: usize,
    /// Total probe-phase exchanges across all parts.
    pub probe_messages: usize,
    /// Growth-wave depth.
    pub growth_rounds: usize,
    /// Virtual time the whole protocol took.
    pub virtual_time: u64,
    /// Messages the event engine delivered.
    pub events: u64,
    /// Observed (rounds, messages) equal the `plan` cost model per part.
    pub matches_model: bool,
    /// Simulated diagnosis equals the driver's (faults + certified part).
    pub agree: bool,
}

/// All measurements for one (instance, fault set, behavior) cell.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Family key.
    pub family: &'static str,
    /// Instance display name (`Topology::name`).
    pub instance: String,
    /// `N`.
    pub nodes: usize,
    /// `Δ`.
    pub max_degree: usize,
    /// Parts in the §5 decomposition.
    pub parts: usize,
    /// The driver's fault bound for this instance.
    pub fault_bound: usize,
    /// Planted fault count.
    pub num_faults: usize,
    /// Faulty-tester behaviour label.
    pub behavior: String,
    /// Full syndrome table size `Σ C(deg u, 2)` — the baseline's lookup bill.
    pub table_entries: u64,
    /// Driver wall time of the fastest timed rep (ns).
    pub driver_nanos: u128,
    /// Median driver wall time over the timed reps (ns): the middle rep,
    /// the lower of the two middle ones for an even count.
    pub driver_nanos_median: u128,
    /// Driver wall time of the slowest timed rep (ns).
    pub driver_nanos_max: u128,
    /// Timed reps the driver leg ran.
    pub reps: usize,
    /// Syndrome lookups of that rep.
    pub driver_lookups: u64,
    /// Restricted probes the driver ran before certifying.
    pub driver_probes: usize,
    /// Nanoseconds per neighbour of `neighbors_into` over seeded
    /// nodes of the cell's topology ([`adjacency_ns_per_neighbor`]).
    pub adjacency_ns_per_neighbor: f64,
    /// Baseline leg; `None` on driver-only cells and the quick-skip set.
    pub baseline: Option<BaselineLeg>,
    /// Event-simulator leg (unit latencies, static faults); `None` on
    /// driver-only cells.
    pub distsim: Option<DistsimLeg>,
    /// Per-phase session telemetry (probe/certify/grow wall times +
    /// lookup counts) of the same rep as `driver_nanos`, so the phases
    /// describe the run the headline times.
    pub phases: PhaseTelemetry,
    /// The session verification verdict for this cell: `FullBaseline`
    /// where the baseline leg ran, `Sampled` on driver-only cells,
    /// `Unverified` on the quick-mode skip set.
    pub verification: VerificationVerdict,
    /// The `--profile` leg: one extra fully observed rep (a traced
    /// session) with its Chrome trace written to disk.
    /// `None` unless the sweep ran with a [`ProfileConfig`].
    pub profile: Option<ProfileLeg>,
    /// Did every leg that ran return the planted set?
    pub agree: bool,
}

/// Where `--profile` writes its per-cell Chrome traces (directory derived
/// from `--out`: `BENCH_6.json` → `BENCH_6-traces/`).
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Directory receiving one `<seq>-<instance>-….trace.json` per cell.
    pub trace_dir: std::path::PathBuf,
}

/// The `--profile` leg of one cell: one extra rep on a tracing session,
/// exported as a Chrome trace-event file (validated as JSON before it is
/// written — the CI smoke leg relies on the nonzero exit when that fails)
/// with its rollups embedded in the record.
#[derive(Clone, Debug)]
pub struct ProfileLeg {
    /// Path of the Chrome trace file written for this cell.
    pub trace_file: String,
    /// Spans recorded in the trace.
    pub spans: usize,
    /// Events lost to ring wraparound before the drain (0 unless the
    /// cell overflows the default ring capacity).
    pub dropped: u64,
    /// Phase telemetry of the profiled rep — asserted identical to the
    /// trace's own rollup before the file is written.
    pub phases: PhaseTelemetry,
    /// The session's `oracle.lookups` metric after the profiled rep: the
    /// entries the rep's calls read.
    pub oracle_lookups: u64,
}

/// One per-instance batched submission: all the instance's sweep
/// syndromes evaluated through `Diagnoser::submit_batch` under both
/// policies.
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// Family key.
    pub family: &'static str,
    /// Instance display name.
    pub instance: String,
    /// Number of syndromes in the submission.
    pub cells: usize,
    /// Total wall time of the sequential batch (ns).
    pub seq_nanos: u128,
    /// Total wall time of the pooled batch (ns).
    pub pooled_nanos: u128,
    /// Both policies returned bit-identical diagnoses for every syndrome.
    pub agree: bool,
}

/// Fault sizes exercised per instance: empty, singleton, half bound, full
/// bound (deduplicated, ascending).
pub fn fault_sizes(bound: usize) -> Vec<usize> {
    let mut v = vec![0, 1, bound / 2, bound];
    v.sort_unstable();
    v.dedup();
    v
}

/// Deterministically scatter `count` faults over `0..n` — SplitMix64-style
/// index hopping, no RNG dependency in the harness crate.
pub fn scatter_faults(n: usize, count: usize, salt: u64) -> FaultSet {
    assert!(count <= n, "cannot scatter {count} faults over {n} nodes");
    let mut picked = vec![false; n];
    let mut members = Vec::with_capacity(count);
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    while members.len() < count {
        let idx = (splitmix64(&mut x) % n as u64) as usize;
        if !picked[idx] {
            picked[idx] = true;
            members.push(idx);
        }
    }
    FaultSet::new(n, &members)
}

impl RunRecord {
    /// Theorem 1's constant: driver wall time per `Δ·N`, in nanoseconds.
    pub fn ns_per_delta_n(&self) -> f64 {
        self.driver_nanos as f64 / (self.max_degree * self.nodes).max(1) as f64
    }

    /// The §6 lookup economy: syndrome lookups per node.
    pub fn lookups_per_node(&self) -> f64 {
        self.driver_lookups as f64 / self.nodes.max(1) as f64
    }
}

/// Seeded nodes [`adjacency_ns_per_neighbor`] scans, as many as mmbench's
/// `topology.adjacency_ns_per_node` scans.
const ADJACENCY_SAMPLE: usize = 4096;

/// Whole passes over the sample repeat until this much time is spent.
const ADJACENCY_BUDGET_NS: u64 = 10_000_000;

/// Nanoseconds per neighbour `neighbors_into` takes over 4 096
/// seeded nodes of `g`: the adjacency layer the driver scans through, CSR
/// reads on cached instances and generator math on implicit ones.
pub fn adjacency_ns_per_neighbor<T: Topology + ?Sized>(g: &T) -> f64 {
    let n = g.node_count() as u64;
    let mut x = 0xAD7A_CE00;
    let nodes: Vec<NodeId> = (0..ADJACENCY_SAMPLE)
        .map(|_| (splitmix64(&mut x) % n) as NodeId)
        .collect();
    let mut buf = Vec::with_capacity(g.max_degree());
    let mut neighbours = 0u64;
    let sw = Stopwatch::start();
    loop {
        for &u in &nodes {
            g.neighbors_into(std::hint::black_box(u), &mut buf);
            neighbours += buf.len() as u64;
        }
        if sw.elapsed_ns() >= ADJACENCY_BUDGET_NS {
            break;
        }
    }
    sw.elapsed_ns() as f64 / neighbours.max(1) as f64
}

/// Advance `state` and return the next SplitMix64 output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `Σ_u C(deg u, 2)` — the size of the full syndrome table.
pub fn table_size<T: Topology + ?Sized>(g: &T) -> u64 {
    (0..g.node_count())
        .map(|u| {
            let d = g.degree(u) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// The spread of a leg's timed reps' wall times (ns).
struct RepSpread {
    fastest: u128,
    /// The middle rep's, the lower of the two middle ones for an even
    /// count.
    median: u128,
    slowest: u128,
    reps: usize,
}

/// Run `f` `reps` times and return the spread of their wall times and the
/// fastest run's result, so what a record derives from the result
/// describes the run its headline times.
fn fastest_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (RepSpread, R) {
    let mut fastest: Option<(u128, R)> = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let r = f();
        let nanos = u128::from(t0.elapsed_ns());
        times.push(nanos);
        if fastest.as_ref().is_none_or(|(best, _)| nanos < *best) {
            fastest = Some((nanos, r));
        }
    }
    let (fastest, r) = fastest.expect("at least one rep");
    times.sort_unstable();
    let spread = RepSpread {
        fastest,
        median: times[(reps - 1) / 2],
        slowest: times[reps - 1],
        reps,
    };
    (spread, r)
}

/// Run one (instance, fault count, behavior) cell with every applicable
/// leg; panic if any leg disagrees with the planted truth.
pub fn run_cell(inst: &Instance, faults: &FaultSet, behavior: TesterBehavior) -> RunRecord {
    run_cell_opts(inst, faults, behavior, true)
}

/// [`run_cell`] with the baseline leg optional — quick mode skips it on
/// the largest instance per family, where the full syndrome table
/// dominates CI wall time. Driver-only instances skip the baseline *and*
/// the simulator leg regardless of `with_baseline`.
pub fn run_cell_opts(
    inst: &Instance,
    faults: &FaultSet,
    behavior: TesterBehavior,
    with_baseline: bool,
) -> RunRecord {
    let g = inst.graph.as_ref();
    let s = OracleSyndrome::new(faults.clone(), behavior);

    // The one timed leg: the fastest of TIMING_REPS runs, whose report
    // supplies the lookups, probes and phases recorded beside its time.
    let session = Diagnoser::new(g);
    let (spread, report) = fastest_of(TIMING_REPS, || {
        session
            .run(&s)
            .unwrap_or_else(|e| panic!("{}: driver failed: {e}", g.name()))
    });
    let drv = &report.diagnosis;
    assert_eq!(
        drv.faults,
        faults.members(),
        "{}: driver missed the planted set",
        g.name()
    );

    // Event-level simulator leg, through the session's simulation door:
    // unit latencies, static timeline — the regime where observation must
    // reproduce both the cost model and the driver exactly. Infeasible
    // per-message at 10⁵⁺ nodes: driver-only instances skip it.
    let distsim = if inst.driver_only {
        None
    } else {
        let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
        let t0 = Stopwatch::start();
        let sim = session
            .simulate(&timeline, &LatencyModel::Unit)
            .unwrap_or_else(|e| panic!("{}: distsim failed: {e}", g.name()));
        let sim_nanos = u128::from(t0.elapsed_ns());
        let model = plan(g);
        let matches_model = match sim.check_against_plan(&model) {
            Ok(()) => true,
            Err(e) => panic!("{}: simulator diverged from cost model: {e}", g.name()),
        };
        let sim_agree = sim.faults == drv.faults
            && sim.certified_part == drv.certified_part
            && sim.probes_until_certificate == drv.probes;
        assert!(sim_agree, "{}: simulator/driver disagree", g.name());
        Some(DistsimLeg {
            nanos: sim_nanos,
            probe_rounds: sim.probes.iter().map(|p| p.rounds).max().unwrap_or(0),
            probe_messages: sim.probes.iter().map(|p| p.messages).sum(),
            growth_rounds: sim.growth.rounds,
            virtual_time: sim.total_time,
            events: sim.events_delivered,
            matches_model,
            agree: sim_agree,
        })
    };

    // Verification: the session policy appropriate to the cell kind,
    // re-checking the already finished diagnosis (no re-diagnosis). The
    // legacy BaselineLeg view is derived from the verdict so the v1
    // schema's `"baseline"` keeps its meaning.
    let (verification, baseline) = if inst.driver_only {
        let verdict = Diagnoser::new(g)
            .verify_sampled(SAMPLES_PER_PART, 0x5A3D ^ faults.len() as u64)
            .verify_claim(&s, &drv.faults, drv.certified_part);
        assert_sampled_agrees(&verdict, &g.name());
        (verdict, None)
    } else if with_baseline {
        s.reset_lookups();
        let verdict =
            Diagnoser::new(g)
                .verify_full()
                .verify_claim(&s, &drv.faults, drv.certified_part);
        let (lookups, agree, nanos) = match verdict.clone() {
            VerificationVerdict::FullBaseline {
                lookups,
                agree,
                nanos,
            } => (lookups, agree, nanos),
            VerificationVerdict::Failed { error, .. } => {
                panic!("{}: baseline failed: {error}", g.name())
            }
            other => unreachable!("verify_full yields a FullBaseline verdict, got {other:?}"),
        };
        assert!(agree, "{}: baseline disagrees", g.name());
        (verdict, Some(BaselineLeg { nanos, lookups }))
    } else {
        (VerificationVerdict::Unverified, None)
    };

    let agree = distsim.as_ref().is_none_or(|d| d.agree) && verification.agreed_or_unverified();
    assert!(agree, "{}: legs disagree", g.name());

    RunRecord {
        family: inst.family,
        instance: g.name(),
        nodes: g.node_count(),
        max_degree: g.max_degree(),
        parts: g.part_count(),
        fault_bound: g.driver_fault_bound(),
        num_faults: faults.len(),
        behavior: format!("{behavior:?}"),
        table_entries: table_size(g),
        driver_nanos: spread.fastest,
        driver_nanos_median: spread.median,
        driver_nanos_max: spread.slowest,
        reps: spread.reps,
        driver_lookups: drv.lookups_used,
        driver_probes: drv.probes,
        adjacency_ns_per_neighbor: adjacency_ns_per_neighbor(g),
        baseline,
        distsim,
        phases: report.telemetry,
        verification,
        profile: None,
        agree,
    }
}

/// Panic unless `verdict` is a sampled verdict that agrees — at these
/// sizes a disagreement means a genuine bug, not noise.
fn assert_sampled_agrees(verdict: &VerificationVerdict, instance: &str) {
    let VerificationVerdict::Sampled {
        agree,
        disagreements,
        ..
    } = verdict
    else {
        unreachable!("sampled policy yields a Sampled verdict")
    };
    assert!(
        *agree,
        "{instance}: sampled check disagrees with the driver ({disagreements} disagreements)"
    );
}

/// One `--xlarge` cell: the slimmed measurement protocol for 10⁶⁺-node
/// implicit instances: one timed driver leg and the sampled
/// spot-checker. Syndromes stream from the `O(|F|)`-state
/// [`OnDemandOracle`].
///
/// Timing follows the workspace's min-over-reps protocol at every scale:
/// each cell runs [`TIMING_REPS`] reps and records the fastest, phases
/// included, beside the median and slowest rep (diagnosis determinism
/// makes every rep's *output* identical, so only the clock varies).
pub fn run_scale_cell(inst: &Instance, members: &[NodeId], behavior: TesterBehavior) -> RunRecord {
    assert!(inst.scale, "run_scale_cell is the --xlarge protocol");
    let g = inst.graph.as_ref();
    let s = OnDemandOracle::new(g.node_count(), members, behavior);
    let session = Diagnoser::new(g);
    let (spread, report) = fastest_of(TIMING_REPS, || {
        session
            .run(&s)
            .unwrap_or_else(|e| panic!("{}: driver failed: {e}", g.name()))
    });
    let drv = &report.diagnosis;
    assert_eq!(
        drv.faults,
        s.planted_members(),
        "{}: driver missed the planted set",
        g.name()
    );

    let verification = Diagnoser::new(g)
        .verify_sampled(SAMPLES_PER_PART, 0x51AE ^ members.len() as u64)
        .verify_claim(&s, &drv.faults, drv.certified_part);
    assert_sampled_agrees(&verification, &g.name());

    RunRecord {
        family: inst.family,
        instance: g.name(),
        nodes: g.node_count(),
        max_degree: g.max_degree(),
        parts: g.part_count(),
        fault_bound: g.driver_fault_bound(),
        num_faults: members.len(),
        behavior: format!("{behavior:?}"),
        table_entries: table_size(g),
        driver_nanos: spread.fastest,
        driver_nanos_median: spread.median,
        driver_nanos_max: spread.slowest,
        reps: spread.reps,
        driver_lookups: drv.lookups_used,
        driver_probes: drv.probes,
        adjacency_ns_per_neighbor: adjacency_ns_per_neighbor(g),
        baseline: None,
        distsim: None,
        phases: report.telemetry,
        verification,
        profile: None,
        agree: true,
    }
}

/// Run one extra, fully observed rep of a cell: a tracing session, the
/// phase spans cross-checked for *exact*
/// agreement with the report telemetry, and the Chrome trace-event
/// document validated ([`mmdiag_trace::export::validate_json`]) and
/// written to `cfg.trace_dir`. Panics — a nonzero bench exit — if the
/// emitted trace is malformed or disagrees with the telemetry, which is
/// precisely what the `--profile --quick` CI smoke leg checks.
pub fn profile_cell<S: SyndromeSource + Sync + ?Sized>(
    inst: &Instance,
    s: &S,
    num_faults: usize,
    behavior: &str,
    cfg: &ProfileConfig,
    seq: usize,
) -> ProfileLeg {
    let g = inst.graph.as_ref();
    s.reset_lookups();
    let session = Diagnoser::new(g).trace(TraceConfig::default());
    let report = session
        .run(s)
        .unwrap_or_else(|e| panic!("{}: profiled rep failed: {e}", g.name()));
    let tracer = session.tracer();
    let events = tracer.drain();
    let summary = TraceSummary::from_events(&events, tracer.dropped());
    // The trace *is* the telemetry: the spans returned the very values the
    // report stores, so the rollup must agree exactly — ns and lookups.
    assert_eq!(summary.probe_nanos, report.telemetry.probe_nanos);
    assert_eq!(summary.certify_nanos, report.telemetry.certify_nanos);
    assert_eq!(summary.grow_nanos, report.telemetry.grow_nanos);
    assert_eq!(summary.probe_lookups, report.telemetry.probe_lookups);
    assert_eq!(summary.grow_lookups, report.telemetry.grow_lookups);

    let metrics = tracer.metrics().expect("tracing session").snapshot();
    let oracle_lookups = metrics
        .iter()
        .find(|m| m.name == "oracle.lookups")
        .and_then(|m| match m.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or_else(|| s.lookups());

    let doc = mmdiag_trace::export::chrome_trace(&events, &metrics);
    mmdiag_trace::export::validate_json(&doc)
        .unwrap_or_else(|e| panic!("{}: emitted Chrome trace is not valid JSON: {e}", g.name()));
    let file = cfg.trace_dir.join(format!(
        "{seq:03}-{}-f{num_faults}-{}.trace.json",
        file_stem(&g.name()),
        file_stem(behavior),
    ));
    std::fs::write(&file, &doc).unwrap_or_else(|e| panic!("cannot write {}: {e}", file.display()));

    ProfileLeg {
        trace_file: file.display().to_string(),
        spans: summary.span_count,
        dropped: summary.dropped,
        phases: report.telemetry,
        oracle_lookups,
    }
}

/// Collapse a display name into a filesystem-safe file stem.
fn file_stem(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut dash = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Sweep a catalog: for every instance, every [`fault_sizes`] load under a
/// seeded `Random` tester behaviour, plus the full-bound load under the
/// adversarial `AllZero` behaviour — then the instance's syndromes once
/// more as one batched submission per policy. In `quick` mode the
/// baseline leg is skipped on the largest non-driver-only instance of
/// each family, keeping the CI smoke run well under ~10 s.
pub fn sweep(
    catalog: &[Instance],
    quick: bool,
    progress: &mut dyn FnMut(&RunRecord),
) -> (Vec<RunRecord>, Vec<BatchRecord>) {
    sweep_profiled(catalog, quick, None, progress)
}

/// [`sweep`] with the `--profile` leg: when `profile` is `Some`, every
/// cell additionally runs one fully observed rep ([`profile_cell`]) whose
/// Chrome trace lands in the config's directory and whose rollups ride
/// along in the cell's [`RunRecord::profile`].
pub fn sweep_profiled(
    catalog: &[Instance],
    quick: bool,
    profile: Option<&ProfileConfig>,
    progress: &mut dyn FnMut(&RunRecord),
) -> (Vec<RunRecord>, Vec<BatchRecord>) {
    // Largest node count per family — the baseline-skip set in quick mode.
    // Driver-only instances never run the baseline, so they do not shift
    // which regular instance counts as a family's largest.
    let mut family_max: Vec<(&'static str, usize)> = Vec::new();
    for inst in catalog.iter().filter(|i| !i.driver_only) {
        let n = inst.graph.node_count();
        match family_max.iter_mut().find(|(f, _)| *f == inst.family) {
            Some(entry) => entry.1 = entry.1.max(n),
            None => family_max.push((inst.family, n)),
        }
    }
    let mut records = Vec::new();
    let mut batches = Vec::new();
    for (i, inst) in catalog.iter().enumerate() {
        let g = inst.graph.as_ref();
        g.check_partition_preconditions()
            .unwrap_or_else(|e| panic!("catalog instance unusable: {e}"));
        if inst.scale {
            // --xlarge protocol: one seeded-random and one adversarial
            // AllZero cell at the full fault bound, driver + sampled
            // checker only — no batch submission (each extra leg is a
            // multi-second full-graph pass out here).
            let bound = g.driver_fault_bound();
            let salt = 0xE1A6_0000 + i as u64;
            // Both behaviours replay the same planted set (the scatter is
            // an O(N) pass — worth doing once per instance out here).
            let faults = scatter_faults(g.node_count(), bound, salt);
            for behavior in [
                TesterBehavior::Random { seed: salt },
                TesterBehavior::AllZero,
            ] {
                let mut rec = run_scale_cell(inst, faults.members(), behavior);
                if let Some(cfg) = profile {
                    let ps = OnDemandOracle::new(g.node_count(), faults.members(), behavior);
                    rec.profile = Some(profile_cell(
                        inst,
                        &ps,
                        faults.len(),
                        &format!("{behavior:?}"),
                        cfg,
                        records.len(),
                    ));
                }
                progress(&rec);
                records.push(rec);
            }
            continue;
        }
        let is_family_largest = !inst.driver_only
            && family_max
                .iter()
                .any(|&(f, n)| f == inst.family && n == g.node_count());
        let with_baseline = !(quick && is_family_largest);
        let bound = g.driver_fault_bound();
        let mut cell_syndromes = Vec::new();
        for (j, &k) in fault_sizes(bound).iter().enumerate() {
            let salt = (i as u64) << 16 | j as u64;
            let faults = scatter_faults(g.node_count(), k, salt);
            let behavior = TesterBehavior::Random { seed: salt };
            let mut rec = run_cell_opts(inst, &faults, behavior, with_baseline);
            if let Some(cfg) = profile {
                let ps = OracleSyndrome::new(faults.clone(), behavior);
                rec.profile = Some(profile_cell(
                    inst,
                    &ps,
                    faults.len(),
                    &format!("{behavior:?}"),
                    cfg,
                    records.len(),
                ));
            }
            progress(&rec);
            records.push(rec);
            cell_syndromes.push(OracleSyndrome::new(faults, behavior));
        }
        let faults = scatter_faults(g.node_count(), bound, 0xA110_0000 + i as u64);
        let mut rec = run_cell_opts(inst, &faults, TesterBehavior::AllZero, with_baseline);
        if let Some(cfg) = profile {
            let ps = OracleSyndrome::new(faults.clone(), TesterBehavior::AllZero);
            rec.profile = Some(profile_cell(
                inst,
                &ps,
                faults.len(),
                "AllZero",
                cfg,
                records.len(),
            ));
        }
        progress(&rec);
        records.push(rec);
        cell_syndromes.push(OracleSyndrome::new(faults, TesterBehavior::AllZero));
        batches.push(batch_submission(inst, &cell_syndromes));
    }
    (records, batches)
}

/// Evaluate one instance's sweep syndromes as a single
/// `Diagnoser::submit_batch` submission per batch policy and cross-check
/// the two.
fn batch_submission(inst: &Instance, syndromes: &[OracleSyndrome]) -> BatchRecord {
    let g = inst.graph.as_ref();
    let jobs: Vec<BatchJob> = syndromes
        .iter()
        .map(|s| BatchJob::Source(s as &(dyn SyndromeSource + Sync)))
        .collect();
    let seq_session = Diagnoser::new(g);
    let pooled_session = Diagnoser::new(g).pooled();
    let t0 = Stopwatch::start();
    let seq = seq_session.submit_batch(&jobs);
    let seq_nanos = u128::from(t0.elapsed_ns());
    let t0 = Stopwatch::start();
    let pooled = pooled_session.submit_batch(&jobs);
    let pooled_nanos = u128::from(t0.elapsed_ns());
    let agree = seq.len() == pooled.len()
        && seq.iter().zip(&pooled).all(|(a, b)| match (a, b) {
            (Ok(a), Ok(b)) => a.diagnosis == b.diagnosis,
            _ => false,
        });
    assert!(agree, "{}: batched policies disagree", g.name());
    BatchRecord {
        family: inst.family,
        instance: g.name(),
        cells: syndromes.len(),
        seq_nanos,
        pooled_nanos,
        agree,
    }
}

/// One simulator-only scenario — a regime the closed-form cost model (and
/// the centralised driver) cannot express.
#[derive(Clone, Debug)]
pub struct ScenarioRecord {
    /// Family key.
    pub family: &'static str,
    /// Instance display name.
    pub instance: String,
    /// `"latency_skew"` or `"mid_injection"`.
    pub kind: &'static str,
    /// Human-readable scenario parameters.
    pub detail: String,
    /// Virtual completion time of the unit-latency reference run.
    pub unit_virtual_time: u64,
    /// Virtual completion time of the scenario run.
    pub virtual_time: u64,
    /// Deepest observed wave (probe or growth) in the scenario run.
    pub max_wave_depth: usize,
    /// Deepest wave the unit-latency cost model predicts.
    pub model_wave_depth: usize,
    /// Faults the scenario run diagnosed.
    pub diagnosed: usize,
    /// Faults in force once the timeline finished.
    pub final_faults: usize,
    /// Did the scenario behave as the regime predicts (see
    /// [`distsim_scenarios`])?
    pub ok: bool,
}

/// Run the simulator-only sweep, with each instance's scenario cells
/// dispatched on the shared executor pool: per instance, one latency-skew
/// scenario (seeded-random link latencies; the diagnosis must not change,
/// virtual time must stretch) and one mid-protocol injection scenario (a
/// healthy node turns faulty after the probe phase; the diagnosis must
/// pick it up even though every probe certified without it). Driver-only
/// instances are skipped — event-level replay is infeasible at 10⁵⁺
/// nodes.
pub fn distsim_scenarios(catalog: &[Instance]) -> Vec<ScenarioRecord> {
    let pool = mmdiag_exec::global();
    let eligible: Vec<&Instance> = catalog.iter().filter(|i| !i.driver_only).collect();
    let per_instance: Vec<Vec<ScenarioRecord>> =
        pool.map(&eligible, |i, inst| instance_scenarios(inst, i));
    per_instance.into_iter().flatten().collect()
}

/// The two scenario cells of one instance, simulated in order. The
/// unit-latency reference and the skewed run are one
/// `Diagnoser::simulate` call each on one session over the instance; the
/// injection run depends on the reference's observed growth onset and
/// follows once that is known.
fn instance_scenarios(inst: &Instance, i: usize) -> Vec<ScenarioRecord> {
    let g = inst.graph.as_ref();
    let n = g.node_count();
    let bound = g.driver_fault_bound();
    let model = plan(g);
    let model_wave_depth = model.probe_rounds_concurrent.max(model.growth_rounds_worst);
    let mut out = Vec::with_capacity(2);

    // --- Latency skew: same static faults, jittered links.
    let faults = scatter_faults(n, bound, 0x5CE_0000 + i as u64);
    let behavior = TesterBehavior::Random { seed: i as u64 };
    let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
    let skew = LatencyModel::SeededRandom {
        seed: 0xBEEF + i as u64,
        min: 1,
        max: 8,
    };
    let session = Diagnoser::new(g);
    let [unit, skewed] =
        [(LatencyModel::Unit, "unit"), (skew, "skewed")].map(|(latency, label)| {
            session
                .simulate(&timeline, &latency)
                .unwrap_or_else(|e| panic!("{}: {label} sim failed: {e}", g.name()))
        });
    let skew_ok = skewed.faults == faults.members()
        && skewed.faults == unit.faults
        && skewed.total_time > unit.total_time;
    assert!(skew_ok, "{}: latency skew changed the diagnosis", g.name());
    out.push(ScenarioRecord {
        family: inst.family,
        instance: g.name(),
        kind: "latency_skew",
        detail: format!("seeded-random link latencies 1..=8, {} faults", bound),
        unit_virtual_time: unit.total_time,
        virtual_time: skewed.total_time,
        max_wave_depth: skewed
            .probes
            .iter()
            .map(|p| p.rounds)
            .max()
            .unwrap_or(0)
            .max(skewed.growth.rounds),
        model_wave_depth,
        diagnosed: skewed.faults.len(),
        final_faults: faults.len(),
        ok: skew_ok,
    });

    // --- Mid-protocol injection: base load below the bound, one
    // healthy victim turns faulty right after the probe phase.
    let base_load = bound.saturating_sub(1) / 2;
    let base = scatter_faults(n, base_load, 0x1EC7_0000 + i as u64);
    let victim = (0..n)
        .find(|&u| !base.contains(u) && (0..g.part_count()).all(|p| g.representative(p) != u))
        .expect("some non-representative healthy node exists");
    let onset = unit.growth.started + 1;
    let inj_timeline = FaultTimeline::with_onsets(base.clone(), &[(onset, victim)], behavior);
    let injected = session
        .simulate(&inj_timeline, &LatencyModel::Unit)
        .unwrap_or_else(|e| panic!("{}: injection sim failed: {e}", g.name()));
    let expected: Vec<usize> = inj_timeline.final_faults().members().to_vec();
    let inj_ok = injected.faults == expected;
    assert!(
        inj_ok,
        "{}: mid-protocol injection not diagnosed: got {:?}, want {expected:?}",
        g.name(),
        injected.faults
    );
    out.push(ScenarioRecord {
        family: inst.family,
        instance: g.name(),
        kind: "mid_injection",
        detail: format!(
            "{base_load} base faults, node {victim} turns faulty at t={onset} \
             (after all probes certified)"
        ),
        unit_virtual_time: unit.total_time,
        virtual_time: injected.total_time,
        max_wave_depth: injected
            .probes
            .iter()
            .map(|p| p.rounds)
            .max()
            .unwrap_or(0)
            .max(injected.growth.rounds),
        model_wave_depth,
        diagnosed: injected.faults.len(),
        final_faults: expected.len(),
        ok: inj_ok,
    });
    out
}

/// Render a session verification verdict as its v2 JSON object.
fn verification_json(v: &VerificationVerdict) -> String {
    match v {
        VerificationVerdict::Unverified => "{\"method\": \"none\"}".to_string(),
        VerificationVerdict::Sampled {
            samples,
            checked_tests,
            disagreements,
            certificate_ok,
            agree,
            nanos,
        } => format!(
            concat!(
                "{{\"method\": \"sampled\", \"samples\": {}, \"checked_tests\": {}, ",
                "\"disagreements\": {}, \"certificate_ok\": {}, \"agree\": {}, \"nanos\": {}}}"
            ),
            samples, checked_tests, disagreements, certificate_ok, agree, nanos,
        ),
        VerificationVerdict::FullBaseline {
            lookups,
            agree,
            nanos,
        } => format!(
            "{{\"method\": \"full_baseline\", \"lookups\": {lookups}, \"agree\": {agree}, \
             \"nanos\": {nanos}}}"
        ),
        VerificationVerdict::Failed { method, error } => format!(
            "{{\"method\": \"{}\", \"failed\": true, \"error\": \"{}\", \"agree\": false}}",
            json_escape(method),
            json_escape(error),
        ),
        // The enum is non_exhaustive upstream; render unknown variants
        // conservatively rather than failing the whole emission.
        _ => "{\"method\": \"unknown\"}".to_string(),
    }
}

/// [`HistogramSummary`] as its JSON object
/// ([`mmdiag_trace::export::histogram_json`]).
fn histogram_json(h: &HistogramSummary) -> String {
    let mut out = String::new();
    mmdiag_trace::export::histogram_json(h, &mut out);
    out
}

/// `s` escaped for a JSON string literal
/// ([`mmdiag_trace::export::escape`]).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    mmdiag_trace::export::escape(s, &mut out);
    out
}

/// Schema version stamped into every trajectory document [`to_json`]
/// writes. v10 cuts the `"knobs"` object to the two variables the
/// workspace still reads, `"MMDIAG_POOL_THREADS"` and `"MMDIAG_QUICK"`,
/// and adds three keys to each `"online"` family record:
/// `"repair_epochs"` (the sparse epochs that were not quiescent),
/// `"repair_incremental_lookups"` and `"repair_scratch_lookups"` (the
/// monitor's and from-scratch lookups summed over them); every
/// `--xxlarge` record now carries [`TIMING_REPS`] reps. v9 adds `"repair_ns"` to the online axis' `"scale"` cell: each
/// epoch's re-witness-and-repair time beside its `"monitor_ns"`, 0 on an
/// epoch whose growth walked. v8 adds the rep spread to every record's
/// `"driver"` object: `"nanos_median"` and `"nanos_max"` beside the
/// fastest rep's `"nanos"` (which, with the phases, stays the headline),
/// and `"reps"`, the timed reps run. v7 drops the record key
/// `"sampled_check"`: a driver-only
/// record's sampled verdict is its `"verification"` object, which carried
/// the same values. v6 adds the top-level `"knobs"` object beside the provenance
/// keys: every `MMDIAG_*` value as [`mmdiag_exec::knobs`] parsed it, keyed
/// by its variable, `null` where a value is unset. v5 adds the provenance
/// keys `"git_rev"`, `"nproc"`, `"rustc"` and `"profile"` beside
/// `"exec"`, and three keys to every record:
/// `"adjacency_ns_per_neighbor"` ([`adjacency_ns_per_neighbor`]),
/// `"ns_per_delta_n"` ([`RunRecord::ns_per_delta_n`]) and
/// `"lookups_per_node"` ([`RunRecord::lookups_per_node`]). v4 records one
/// timed leg per cell, `"driver"`, whose
/// `"phases"` come from the same rep as its time. It dropped the record
/// keys `"pooled"` and `"auto"` (with `"auto"`'s `"backend"`,
/// `"speedup_vs_driver"` and `"no_regression"`), the
/// `"exec"."regression_tolerance"` key, the `"tasks"` and `"run_ns"`
/// keys of `"profile"`, and the deque-depth peak of
/// `"throughput"."contention"` (the pool has no per-worker deques). v3
/// is v2 without the strided-lane `"parallel"` record legs and the
/// top-level `"thread_sweep"` list; v2 added the per-record `"phases"`
/// and `"verification"` objects to v1.
pub const SCHEMA_VERSION: &str = "mmdiag-bench/v10";

/// Render records as the `BENCH_<pr>.json` trajectory document
/// ([`SCHEMA_VERSION`]). Every record carries a `"phases"` object (the
/// session's probe/certify/grow wall times and lookup counts) and a
/// `"verification"` object (the per-cell session verdict: method,
/// agreement, cost — `"method": "none"` on the quick-mode skip set).
///
/// Hand-rolled serialisation — serde is not available offline, and the
/// schema is flat enough that this stays readable.
pub fn to_json(
    bench_id: &str,
    records: &[RunRecord],
    batches: &[BatchRecord],
    scenarios: &[ScenarioRecord],
    throughput: Option<&ThroughputRecord>,
    online: Option<&OnlineRecord>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA_VERSION}\",\n"));
    out.push_str(&format!("  \"bench_id\": \"{}\",\n", json_escape(bench_id)));
    out.push_str(&format!(
        "  \"exec\": {{\"pool_threads\": {}, \"sequential_cutover_nodes\": {}, \
         \"timing_reps\": {}}},\n",
        mmdiag_exec::global().threads(),
        SEQUENTIAL_CUTOVER_NODES,
        TIMING_REPS,
    ));
    out.push_str(&provenance_json());
    out.push_str(&format!("  \"record_count\": {},\n", records.len()));
    out.push_str(&format!(
        "  \"families_covered\": {},\n",
        families_covered(records)
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        // Skipped legs render as JSON nulls, not misleading zeros —
        // trajectory readers averaging speedups across BENCH_<pr>.json
        // files must not silently ingest zeros.
        let baseline = match &r.baseline {
            Some(b) => format!("{{\"nanos\": {}, \"lookups\": {}}}", b.nanos, b.lookups),
            None => "null".to_string(),
        };
        let (speedup_vs_baseline, lookup_ratio) = match &r.baseline {
            Some(b) => (
                format!("{:.3}", b.nanos as f64 / r.driver_nanos.max(1) as f64),
                format!("{:.3}", b.lookups as f64 / r.driver_lookups.max(1) as f64),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        let distsim = match &r.distsim {
            Some(d) => format!(
                concat!(
                    "{{\"nanos\": {}, \"probe_rounds\": {}, \"probe_messages\": {}, ",
                    "\"growth_rounds\": {}, \"virtual_time\": {}, \"events\": {}, ",
                    "\"matches_model\": {}, \"agree\": {}}}"
                ),
                d.nanos,
                d.probe_rounds,
                d.probe_messages,
                d.growth_rounds,
                d.virtual_time,
                d.events,
                d.matches_model,
                d.agree,
            ),
            None => "null".to_string(),
        };
        // The driver rep's per-phase telemetry and the verification
        // verdict of this cell. `grow_rounds` is the growth's per-layer
        // split.
        let rounds: Vec<String> = r
            .phases
            .grow_rounds
            .iter()
            .map(|round| {
                format!(
                    "{{\"frontier\": {}, \"accepted\": {}, \"lookups\": {}, \
                     \"round_nanos\": {}, \"parallel\": {}}}",
                    round.frontier, round.accepted, round.lookups, round.nanos, round.parallel
                )
            })
            .collect();
        let phases = format!(
            concat!(
                "{{\"probe_nanos\": {}, \"certify_nanos\": {}, \"grow_nanos\": {}, ",
                "\"probe_lookups\": {}, \"grow_lookups\": {}, \"grow_rounds\": [{}]}}"
            ),
            r.phases.probe_nanos,
            r.phases.certify_nanos,
            r.phases.grow_nanos,
            r.phases.probe_lookups,
            r.phases.grow_lookups,
            rounds.join(", "),
        );
        let verification = verification_json(&r.verification);
        // The `--profile` leg; `null` when the sweep ran without it.
        let profile = match &r.profile {
            Some(p) => format!(
                concat!(
                    "{{\"trace_file\": \"{}\", \"spans\": {}, \"dropped\": {}, ",
                    "\"phases\": {{\"probe_nanos\": {}, \"certify_nanos\": {}, ",
                    "\"grow_nanos\": {}, \"probe_lookups\": {}, \"grow_lookups\": {}}}, ",
                    "\"oracle_lookups\": {}}}"
                ),
                json_escape(&p.trace_file),
                p.spans,
                p.dropped,
                p.phases.probe_nanos,
                p.phases.certify_nanos,
                p.phases.grow_nanos,
                p.phases.probe_lookups,
                p.phases.grow_lookups,
                p.oracle_lookups,
            ),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"instance\": \"{}\", \"nodes\": {}, ",
                "\"max_degree\": {}, \"parts\": {}, \"fault_bound\": {}, ",
                "\"num_faults\": {}, \"behavior\": \"{}\", \"table_entries\": {}, ",
                "\"driver\": {{\"nanos\": {}, \"nanos_median\": {}, \"nanos_max\": {}, ",
                "\"reps\": {}, \"lookups\": {}, \"probes\": {}}}, ",
                "\"adjacency_ns_per_neighbor\": {:.3}, \"ns_per_delta_n\": {:.3}, ",
                "\"lookups_per_node\": {:.4}, ",
                "\"baseline\": {}, ",
                "\"distsim\": {}, ",
                "\"phases\": {}, ",
                "\"verification\": {}, ",
                "\"profile\": {}, ",
                "\"speedup_vs_baseline\": {}, \"lookup_ratio\": {}, ",
                "\"driver_only\": {}, \"agree\": {}}}{}\n"
            ),
            json_escape(r.family),
            json_escape(&r.instance),
            r.nodes,
            r.max_degree,
            r.parts,
            r.fault_bound,
            r.num_faults,
            json_escape(&r.behavior),
            r.table_entries,
            r.driver_nanos,
            r.driver_nanos_median,
            r.driver_nanos_max,
            r.reps,
            r.driver_lookups,
            r.driver_probes,
            r.adjacency_ns_per_neighbor,
            r.ns_per_delta_n(),
            r.lookups_per_node(),
            baseline,
            distsim,
            phases,
            verification,
            profile,
            speedup_vs_baseline,
            lookup_ratio,
            r.baseline.is_none() && r.distsim.is_none(),
            r.agree,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"batch_submissions\": [\n");
    for (i, b) in batches.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"instance\": \"{}\", \"cells\": {}, ",
                "\"seq_nanos\": {}, \"pooled_nanos\": {}, \"agree\": {}}}{}\n"
            ),
            json_escape(b.family),
            json_escape(&b.instance),
            b.cells,
            b.seq_nanos,
            b.pooled_nanos,
            b.agree,
            if i + 1 == batches.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"distsim_scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"family\": \"{}\", \"instance\": \"{}\", \"kind\": \"{}\", ",
                "\"detail\": \"{}\", \"unit_virtual_time\": {}, \"virtual_time\": {}, ",
                "\"max_wave_depth\": {}, \"model_wave_depth\": {}, ",
                "\"diagnosed\": {}, \"final_faults\": {}, \"ok\": {}}}{}\n"
            ),
            json_escape(s.family),
            json_escape(&s.instance),
            json_escape(s.kind),
            json_escape(&s.detail),
            s.unit_virtual_time,
            s.virtual_time,
            s.max_wave_depth,
            s.model_wave_depth,
            s.diagnosed,
            s.final_faults,
            s.ok,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // The --throughput fleet axis — `null` when the axis did not run.
    match throughput {
        Some(t) => {
            out.push_str("  \"throughput\": {\n");
            out.push_str(&format!(
                "    \"sessions\": {}, \"rounds\": {}, \"jobs_per_round\": {},\n",
                t.sessions, t.rounds, t.jobs_per_round
            ));
            out.push_str(&format!(
                "    \"total_diagnoses\": {}, \"wall_nanos\": {}, \"diagnoses_per_sec\": {:.3},\n",
                t.total_diagnoses, t.wall_nanos, t.diagnoses_per_sec
            ));
            out.push_str(&format!(
                "    \"latency_ns\": {},\n",
                histogram_json(&t.latency_ns)
            ));
            out.push_str(&format!(
                "    \"contention\": {{\"lock_wait_ns\": {}, \"park_ns\": {}, \
                 \"injector_depth_peak\": {}}},\n",
                histogram_json(&t.lock_wait_ns),
                histogram_json(&t.park_ns),
                t.injector_depth_peak,
            ));
            out.push_str(&format!("    \"disagreements\": {},\n", t.disagreements));
            out.push_str(&format!(
                "    \"overhead\": {{\"bare_nanos\": {}, \"instrumented_nanos\": {}, \
                 \"within_tolerance\": {}}}\n",
                t.overhead.bare_nanos, t.overhead.instrumented_nanos, t.overhead.within_tolerance,
            ));
            out.push_str("  },\n");
        }
        None => out.push_str("  \"throughput\": null,\n"),
    }
    // The --online epoch-monitoring axis — `null` when the axis did not
    // run.
    match online {
        Some(o) => {
            out.push_str("  \"online\": {\n");
            out.push_str(&format!(
                "    \"epochs_per_family\": {}, \"onset_rate\": {:.3}, \"recovery_rate\": {:.3},\n",
                o.epochs_per_family, o.onset_rate, o.recovery_rate
            ));
            out.push_str(&format!(
                "    \"disagreements\": {}, \"families_without_savings\": {},\n",
                o.disagreements, o.families_without_savings
            ));
            out.push_str("    \"families\": [\n");
            for (i, f) in o.families.iter().enumerate() {
                out.push_str(&format!(
                    concat!(
                        "      {{\"family\": \"{}\", \"instance\": \"{}\", \"node_count\": {}, ",
                        "\"parts\": {}, \"epochs\": {}, \"escalated\": {}, \"quiescent\": {}, ",
                        "\"sparse_epochs\": {}, \"sparse_incremental_lookups\": {}, ",
                        "\"sparse_scratch_lookups\": {}, \"repair_epochs\": {}, ",
                        "\"repair_incremental_lookups\": {}, \"repair_scratch_lookups\": {}, ",
                        "\"total_incremental_lookups\": {}, ",
                        "\"total_scratch_lookups\": {}, \"amortized_incremental\": {:.3}, ",
                        "\"amortized_scratch\": {:.3}, \"sparse_cheaper\": {}, ",
                        "\"detection_latency_ns\": {}, \"verified\": {}, ",
                        "\"disagreements\": {}}}{}\n"
                    ),
                    json_escape(f.family),
                    json_escape(&f.instance),
                    f.nodes,
                    f.parts,
                    f.epochs,
                    f.escalated,
                    f.quiescent,
                    f.sparse_epochs,
                    f.sparse_incremental_lookups,
                    f.sparse_scratch_lookups,
                    f.repair_epochs,
                    f.repair_incremental_lookups,
                    f.repair_scratch_lookups,
                    f.total_incremental_lookups,
                    f.total_scratch_lookups,
                    f.amortized_incremental,
                    f.amortized_scratch,
                    f.sparse_cheaper,
                    histogram_json(&f.detection_latency_ns),
                    f.verified,
                    f.disagreements,
                    if i + 1 == o.families.len() { "" } else { "," }
                ));
            }
            out.push_str("    ],\n");
            match &o.scale {
                Some(c) => {
                    let list =
                        |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
                    out.push_str(&format!(
                        concat!(
                            "    \"scale\": {{\"instance\": \"{}\", \"node_count\": {}, ",
                            "\"epochs\": {}, \"escalated\": {}, \"quiescent\": {}, ",
                            "\"disagreements\": {}, \"monitor_ns\": [{}], ",
                            "\"repair_ns\": [{}], ",
                            "\"scratch_ns\": [{}], \"monitor_lookups\": [{}], ",
                            "\"scratch_lookups\": [{}]}}\n"
                        ),
                        json_escape(&c.instance),
                        c.nodes,
                        c.epochs,
                        c.escalated,
                        c.quiescent,
                        c.disagreements,
                        list(&c.monitor_ns),
                        list(&c.repair_ns),
                        list(&c.scratch_ns),
                        list(&c.monitor_lookups),
                        list(&c.scratch_lookups),
                    ));
                }
                None => out.push_str("    \"scale\": null\n"),
            }
            out.push_str("  }\n");
        }
        None => out.push_str("  \"online\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// The machine a trajectory was measured on, as top-level keys beside
/// `"exec"`: mmbench's provenance fields, read as mmbench reads them
/// (`.git/HEAD` and its ref, `rustc --version`), and the process's knobs.
/// `"git_rev"` and `"rustc"` are `null` where they cannot be read.
fn provenance_json() -> String {
    let string_or_null = |v: Option<String>| match v {
        Some(v) => format!("\"{}\"", json_escape(&v)),
        None => "null".to_string(),
    };
    format!(
        "  \"git_rev\": {}, \"nproc\": {}, \"rustc\": {}, \"profile\": \"{}\",\n  \"knobs\": {},\n",
        string_or_null(git_rev()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        string_or_null(rustc_version()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        knobs_json(mmdiag_exec::knobs()),
    )
}

/// `knobs` as a JSON object keyed by `MMDIAG_*` variable: the pool width
/// as a number, `null` where it is unset or unparsable, and the quick
/// switch as `true` or `false` (unset parses as `false`).
fn knobs_json(knobs: &mmdiag_exec::Knobs) -> String {
    format!(
        "{{\"MMDIAG_POOL_THREADS\": {}, \"MMDIAG_QUICK\": {}}}",
        knobs
            .pool_threads
            .map_or_else(|| "null".to_string(), |n| n.to_string()),
        knobs.quick,
    )
}

/// The commit checked out in the nearest enclosing git work tree: `HEAD`,
/// resolved through its loose or packed ref.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let read = |p: &str| {
        std::fs::read_to_string(git.join(p))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read("HEAD")?;
    match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
    }
}

/// The compiler on the path, which is the one `cargo run` just built with.
fn rustc_version() -> Option<String> {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Number of distinct family keys present in `records`.
pub fn families_covered(records: &[RunRecord]) -> usize {
    let mut fams: Vec<&str> = records.iter().map(|r| r.family).collect();
    fams.sort_unstable();
    fams.dedup();
    fams.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_cover_all_fourteen_families() {
        for catalog in [small_catalog(), full_catalog()] {
            let mut fams: Vec<&str> = catalog.iter().map(|i| i.family).collect();
            fams.sort_unstable();
            fams.dedup();
            assert_eq!(fams.len(), 14, "got {fams:?}");
        }
    }

    #[test]
    fn catalog_instances_satisfy_driver_preconditions() {
        for inst in full_catalog() {
            inst.graph
                .check_partition_preconditions()
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn large_catalog_reaches_1e5_nodes_and_certifies() {
        let catalog = large_catalog();
        assert!(catalog.iter().all(|i| i.driver_only));
        let big: Vec<&Instance> = catalog
            .iter()
            .filter(|i| i.graph.node_count() >= 100_000)
            .collect();
        assert!(
            big.len() >= 3,
            "need at least three 10^5+-node instances, got {}",
            big.len()
        );
        for inst in &catalog {
            inst.graph
                .check_partition_preconditions()
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn xlarge_catalog_reaches_1e6_nodes_without_materialising() {
        let catalog = xlarge_catalog();
        assert!(catalog.iter().all(|i| i.scale && i.driver_only));
        let big = catalog
            .iter()
            .filter(|i| i.graph.node_count() >= 1_000_000)
            .count();
        assert!(
            big >= 3,
            "need at least three 10^6+-node instances, got {big}"
        );
        // Every instance is the family itself, so constructing and
        // validating the whole axis builds no CSR.
        for inst in &catalog {
            assert!(inst.implicit);
            inst.graph
                .check_partition_preconditions()
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn xxlarge_catalog_reaches_1e8_nodes_without_materialising() {
        let catalog = xxlarge_catalog();
        assert!(catalog
            .iter()
            .all(|i| i.scale && i.driver_only && i.implicit));
        // The axis tops out at Q_27 and holds two 10⁸-node instances.
        assert_eq!(catalog.last().map(|i| i.graph.node_count()), Some(1 << 27));
        let big = catalog
            .iter()
            .filter(|i| i.graph.node_count() >= 100_000_000)
            .count();
        assert!(big >= 2, "need two 10^8-node instances, got {big}");
        for inst in &catalog {
            inst.graph
                .check_partition_preconditions()
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn scale_cell_protocol_runs_and_stays_implicit() {
        // The --xlarge protocol on a debug-friendly implicit instance:
        // driver + sampled checker, streaming syndrome, no batch leg.
        let inst = Instance::implicit_scale("hypercube", Hypercube::new_certified(14));
        let faults = scatter_faults(1 << 14, 5, 77);
        let rec = run_scale_cell(&inst, faults.members(), TesterBehavior::Random { seed: 3 });
        assert!(rec.agree);
        assert!(rec.baseline.is_none() && rec.distsim.is_none());
        let VerificationVerdict::Sampled {
            samples,
            checked_tests,
            disagreements,
            certificate_ok,
            agree,
            ..
        } = rec.verification
        else {
            panic!("sampled verdict expected, got {:?}", rec.verification)
        };
        assert!(agree && certificate_ok);
        assert_eq!(disagreements, 0);
        assert!(samples > 0 && checked_tests > 0);
        // A scale cell times TIMING_REPS reps.
        assert_eq!(rec.reps, TIMING_REPS);
        let json = to_json("BENCH_TEST", &[rec], &[], &[], None, None);
        assert!(json.contains("\"verification\": {\"method\": \"sampled\", \"samples\": "));
        assert!(!json.contains("\"sampled_check\""));
        assert!(json.contains("\"driver_only\": true"));
    }

    #[test]
    fn sweep_routes_scale_instances_through_the_slim_protocol() {
        let catalog = vec![
            Instance::new("hypercube", &Hypercube::new(7)),
            Instance::implicit_scale("hypercube", Hypercube::new_certified(14)),
        ];
        let (records, batches) = sweep(&catalog, true, &mut |_| {});
        // 5 regular cells + 2 scale cells; only the regular instance
        // submits a batch.
        assert_eq!(records.len(), 7);
        assert_eq!(batches.len(), 1);
        let scale: Vec<&RunRecord> = records.iter().filter(|r| r.nodes == 1 << 14).collect();
        assert_eq!(scale.len(), 2);
        assert!(scale.iter().all(|r| matches!(
            r.verification,
            VerificationVerdict::Sampled { agree: true, .. }
        )));
        assert!(scale.iter().any(|r| r.behavior == "AllZero"));
        // Every record's phases and headline describe one run: its phase
        // times fit inside the timed rep, and its lookups are that rep's.
        for r in &records {
            let p = &r.phases;
            assert!(
                p.total_nanos() <= r.driver_nanos,
                "{} {}: phases {} ns > headline {} ns",
                r.instance,
                r.behavior,
                p.total_nanos(),
                r.driver_nanos
            );
            assert_eq!(
                p.probe_lookups + p.grow_lookups,
                r.driver_lookups,
                "{} {}",
                r.instance,
                r.behavior
            );
        }
    }

    #[test]
    fn mid_size_implicit_cells_run_every_leg() {
        let inst = Instance::implicit("hypercube", Hypercube::new_certified(10));
        let faults = scatter_faults(1024, 4, 5);
        let rec = run_cell(&inst, &faults, TesterBehavior::Random { seed: 8 });
        assert!(rec.agree);
        assert!(
            rec.baseline.is_some(),
            "implicit mid-size cells keep the baseline"
        );
        assert!(rec.distsim.is_some(), "and the event simulator");
        assert!(
            matches!(rec.verification, VerificationVerdict::FullBaseline { .. }),
            "sampled checker is the driver-only fallback"
        );
    }

    #[test]
    fn profiled_cell_emits_a_valid_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("mmdiag-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ProfileConfig {
            trace_dir: dir.clone(),
        };
        let inst = Instance::new("hypercube", &Hypercube::new(7));
        let faults = scatter_faults(128, 3, 9);
        let s = OracleSyndrome::new(faults.clone(), TesterBehavior::Random { seed: 9 });
        let leg = profile_cell(&inst, &s, faults.len(), "Random { seed: 9 }", &cfg, 0);
        assert!(leg.spans >= 3, "probe + certify + grow at minimum");
        assert_eq!(leg.dropped, 0);
        assert_eq!(
            leg.oracle_lookups,
            s.lookups(),
            "the metric counts every entry the session read"
        );
        let doc = std::fs::read_to_string(&leg.trace_file).unwrap();
        mmdiag_trace::export::validate_json(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"X\""), "complete span events");
        assert!(doc.contains("mmdiag.metrics"), "trailing metrics event");
        assert!(doc.contains("oracle.lookups"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profiled_sweep_attaches_legs_and_the_v2_profile_key() {
        let dir = std::env::temp_dir().join(format!("mmdiag-psweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ProfileConfig {
            trace_dir: dir.clone(),
        };
        let catalog = vec![Instance::new("hypercube", &Hypercube::new(7))];
        let (records, _) = sweep_profiled(&catalog, true, Some(&cfg), &mut |_| {});
        assert!(!records.is_empty());
        for rec in &records {
            let leg = rec.profile.as_ref().expect("every cell profiled");
            assert!(leg.phases.probe_lookups > 0, "probe phase consults entries");
            assert!(std::path::Path::new(&leg.trace_file).is_file());
        }
        // One trace file per cell, embedded additively under "profile".
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), records.len());
        let json = to_json("BENCH_TEST", &records, &[], &[], None, None);
        assert!(json.contains("\"profile\": {\"trace_file\": "));
        assert!(json.contains("\"oracle_lookups\": "));
        // The un-profiled sweep keeps the key as an explicit null.
        let (plain, _) = sweep(&catalog, true, &mut |_| {});
        let json = to_json("BENCH_TEST", &plain, &[], &[], None, None);
        assert!(json.contains("\"profile\": null"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_stem_is_filesystem_safe() {
        assert_eq!(file_stem("Q_17 (131072 nodes)"), "q-17-131072-nodes");
        assert_eq!(file_stem("Random { seed: 9 }"), "random-seed-9");
        assert_eq!(file_stem("AllZero"), "allzero");
    }

    #[test]
    fn scatter_is_exact_and_deterministic() {
        let a = scatter_faults(100, 7, 42);
        let b = scatter_faults(100, 7, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        let c = scatter_faults(100, 7, 43);
        assert_ne!(a, c, "different salts should differ");
    }

    #[test]
    fn fault_sizes_shape() {
        assert_eq!(fault_sizes(7), vec![0, 1, 3, 7]);
        assert_eq!(fault_sizes(1), vec![0, 1]);
        assert_eq!(fault_sizes(2), vec![0, 1, 2]);
    }

    #[test]
    fn run_cell_measures_and_agrees() {
        let inst = Instance::new("hypercube", &Hypercube::new(7));
        let faults = scatter_faults(128, 3, 9);
        let rec = run_cell(&inst, &faults, TesterBehavior::Random { seed: 5 });
        assert!(rec.agree);
        assert_eq!(rec.num_faults, 3);
        assert_eq!(rec.table_entries, 128 * 21);
        let base = rec.baseline.as_ref().expect("baseline leg present");
        assert_eq!(base.lookups, 128 * 21);
        assert!(
            rec.driver_lookups < base.lookups,
            "driver {} vs table {}",
            rec.driver_lookups,
            base.lookups
        );
        assert!(rec.driver_nanos > 0);
        // The simulator leg agreed with both the cost model and the driver.
        let sim = rec.distsim.as_ref().expect("distsim leg present");
        assert!(sim.matches_model);
        assert!(sim.agree);
        assert_eq!(sim.probe_rounds, 4, "Q_4 subcube eccentricity");
        assert_eq!(sim.probe_messages, 8 * 16 * 4);
    }

    #[test]
    fn driver_only_cell_skips_baseline_and_distsim() {
        // Q_10 needs 32-node parts: the default 16-node subcubes top out
        // at 8 probe-tree internal nodes, below the fault bound 10 (the
        // same capacity phenomenon Q^3_11 hits in `large_catalog`).
        let inst = Instance::driver_only("hypercube", &Hypercube::with_partition_dim(10, 5));
        let faults = scatter_faults(1024, 4, 11);
        let rec = run_cell(&inst, &faults, TesterBehavior::Random { seed: 2 });
        assert!(rec.agree);
        assert!(rec.baseline.is_none());
        assert!(rec.distsim.is_none());
        let json = to_json("BENCH_TEST", &[rec], &[], &[], None, None);
        assert!(json.contains("\"baseline\": null"));
        assert!(json.contains("\"distsim\": null"));
        assert!(json.contains("\"driver_only\": true"));
        // v2: driver-only cells carry the sampled session verdict.
        assert!(json.contains("\"verification\": {\"method\": \"sampled\""));
    }

    #[test]
    fn quick_sweep_skips_baseline_on_largest_instance_per_family() {
        // A two-size single-family catalog: quick mode must keep the
        // baseline on the small instance and skip it on the large one.
        let catalog = vec![
            Instance::new("hypercube", &Hypercube::new(7)),
            Instance::new("hypercube", &Hypercube::new(8)),
        ];
        let (records, batches) = sweep(&catalog, true, &mut |_| {});
        for rec in &records {
            let skipped = rec.nodes == 256;
            assert_eq!(
                rec.baseline.is_none(),
                skipped,
                "{}: baseline skip must target only the largest instance",
                rec.instance
            );
            assert!(rec.agree);
        }
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.agree && b.cells == 5));
        // Skipped cells render null ratios, never a misleading 0.000.
        let json = to_json("BENCH_TEST", &records, &batches, &[], None, None);
        assert!(json.contains("\"speedup_vs_baseline\": null"));
        assert!(!json.contains("\"speedup_vs_baseline\": 0.000"));
        // Full mode never skips.
        let (records, _) = sweep(&catalog, false, &mut |_| {});
        assert!(records.iter().all(|r| r.baseline.is_some()));
    }

    #[test]
    fn scenarios_cover_skew_and_injection() {
        let catalog = vec![
            Instance::new("hypercube", &Hypercube::new(7)),
            Instance::driver_only("hypercube", &Hypercube::new(10)),
        ];
        let scenarios = distsim_scenarios(&catalog);
        // The driver-only instance contributes no scenario cells.
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].kind, "latency_skew");
        assert!(scenarios[0].virtual_time > scenarios[0].unit_virtual_time);
        assert_eq!(scenarios[1].kind, "mid_injection");
        assert_eq!(scenarios[1].diagnosed, scenarios[1].final_faults);
        assert!(scenarios.iter().all(|s| s.ok));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let inst = Instance::new("hypercube", &Hypercube::new(7));
        let rec = run_cell(&inst, &scatter_faults(128, 1, 3), TesterBehavior::AllZero);
        let scenarios = distsim_scenarios(&[inst]);
        let batch = BatchRecord {
            family: "hypercube",
            instance: "Q_7".into(),
            cells: 5,
            seq_nanos: 10,
            pooled_nanos: 8,
            agree: true,
        };
        let json = to_json("BENCH_TEST", &[rec], &[batch], &scenarios, None, None);
        // Balanced braces/brackets and the fields the trajectory reader keys on.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"schema\": \"mmdiag-bench/v10\"",
            "\"bench_id\": \"BENCH_TEST\"",
            "\"phases\": {\"probe_nanos\": ",
            "\"verification\": {\"method\": \"full_baseline\"",
            "\"exec\": {\"pool_threads\": ",
            "\"timing_reps\": 3}",
            "\"families_covered\": 1",
            "\"driver\": {\"nanos\": ",
            "\"baseline\"",
            "\"distsim\"",
            "\"matches_model\": true",
            "\"batch_submissions\"",
            "\"distsim_scenarios\"",
            "\"latency_skew\"",
            "\"mid_injection\"",
            "\"agree\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The keys v4 dropped (one leg per cell, no backend verdicts) and
        // the one v7 dropped (the sampled verdict lives in "verification").
        for gone in [
            "\"pooled\"",
            "\"auto\"",
            "\"speedup_vs_driver\"",
            "\"no_regression\"",
            "\"regression_tolerance\"",
            "\"sampled_check\"",
        ] {
            assert!(!json.contains(gone), "retired key {gone} in {json}");
        }
    }

    #[test]
    fn records_carry_adjacency_cost_theorem_1_constants_and_provenance() {
        // A quick permutation-family cell: the small catalog's S_6.
        let inst = Instance::new("star", &StarGraph::new(6));
        let faults = scatter_faults(720, inst.graph.driver_fault_bound(), 4);
        let rec = run_cell(&inst, &faults, TesterBehavior::Random { seed: 4 });
        assert!(rec.adjacency_ns_per_neighbor > 0.0);
        assert_eq!(
            rec.ns_per_delta_n(),
            rec.driver_nanos as f64 / (5 * 720) as f64
        );
        assert_eq!(rec.lookups_per_node(), rec.driver_lookups as f64 / 720.0);
        let json = to_json("BENCH_TEST", &[rec], &[], &[], None, None);
        mmdiag_trace::export::validate_json(&json).unwrap();
        for key in [
            "\"adjacency_ns_per_neighbor\": ",
            "\"ns_per_delta_n\": ",
            "\"lookups_per_node\": ",
            "\"git_rev\": ",
            "\"nproc\": ",
            "\"rustc\": ",
            "\"profile\": \"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// v8: a record carries the spread of its timed reps, fastest ≤
    /// median ≤ slowest, over as many reps as its leg ran; the headline
    /// `"nanos"` is the fastest.
    #[test]
    fn records_carry_the_spread_of_their_timed_reps() {
        let mut ran = 0;
        let (spread, fastest) = fastest_of(4, || {
            ran += 1;
            ran
        });
        assert_eq!((spread.reps, ran), (4, 4));
        assert!(spread.fastest <= spread.median && spread.median <= spread.slowest);
        assert!((1..=4).contains(&fastest));

        let inst = Instance::new("hypercube", &Hypercube::new(7));
        let rec = run_cell(&inst, &scatter_faults(128, 2, 5), TesterBehavior::AllZero);
        assert_eq!(rec.reps, TIMING_REPS);
        assert!(rec.driver_nanos <= rec.driver_nanos_median);
        assert!(rec.driver_nanos_median <= rec.driver_nanos_max);
        let driver = format!(
            "\"driver\": {{\"nanos\": {}, \"nanos_median\": {}, \"nanos_max\": {}, \"reps\": {}, ",
            rec.driver_nanos, rec.driver_nanos_median, rec.driver_nanos_max, TIMING_REPS
        );
        let json = to_json("BENCH_TEST", &[rec], &[], &[], None, None);
        mmdiag_trace::export::validate_json(&json).unwrap();
        assert!(json.contains(&driver), "no {driver} in {json}");
    }

    /// Both live `MMDIAG_*` knobs are keys of the `"knobs"` object,
    /// rendered as `Knobs::parse` read them: `null` where unset or
    /// unparsable. The retired arguments leave no trace.
    #[test]
    fn bench_files_record_every_knob() {
        let knobs = mmdiag_exec::Knobs::parse(
            Some("3"),
            Some("2048"),
            Some("1"),
            Some("5"),
            Some("1"),
            None,
            Some("250"),
            Some("8"),
        );
        assert_eq!(
            knobs_json(&knobs),
            "{\"MMDIAG_POOL_THREADS\": 3, \"MMDIAG_QUICK\": true}"
        );
        let unset =
            mmdiag_exec::Knobs::parse(Some("junk"), None, None, None, None, None, None, None);
        assert_eq!(
            knobs_json(&unset),
            "{\"MMDIAG_POOL_THREADS\": null, \"MMDIAG_QUICK\": false}"
        );
        // Every file carries the process's knobs as parsed.
        let json = to_json("BENCH_TEST", &[], &[], &[], None, None);
        mmdiag_trace::export::validate_json(&json).unwrap();
        let line = format!("  \"knobs\": {},\n", knobs_json(mmdiag_exec::knobs()));
        assert!(json.contains(&line), "no {line} in {json}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(super::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
