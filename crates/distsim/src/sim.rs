//! The event-level simulator of the full distributed diagnosis driver.
//!
//! [`simulate`] executes the paper's procedure as timestamped messages over
//! a [`LatencyModel`]:
//!
//! 1. **Concurrent restricted probes** — every part's representative starts
//!    a wave at time 0; each processor on first contact re-broadcasts to
//!    its in-part neighbours, so every in-part directed edge carries
//!    exactly one exchange (MM faults are responsive — the wave is
//!    syndrome-independent, matching the closed-form cost model's
//!    accounting). Test results ride the wave.
//! 2. **Certified-seed selection** — `mmdiag-core`'s restricted
//!    `Set_Builder` ([`set_builder_in_part`]) runs at every part's
//!    representative over the results the wave gathered; the
//!    lowest-indexed part whose tree exceeds the fault bound in
//!    contributors certifies, exactly like the driver's first-certificate
//!    scan.
//! 3. **Unrestricted growth** — a second wave floods the whole network
//!    from the certified seed, and `mmdiag-core`'s growth and `N(U_r)`
//!    sweep ([`grow_from_certificate`]) turn its results into the
//!    diagnosis.
//!
//! The simulator decides nothing itself: it models messages and time, and
//! hands the driver a syndrome in which each test `s_u(v, w)` is graded
//! against the [`FaultTimeline`] at the instant the later of its two
//! replies (`v → u`, `w → u`) arrived — or at time 0 on a static
//! timeline, which is time-invariant.
//!
//! Two accounting conventions are inherited from the cost model and
//! documented here once: an exchange (request + reply) on a directed edge
//! counts as **one message**, and barrier/convergecast signalling (the
//! representative learning its part's results, the coordinator picking the
//! certified seed) is **not counted** — it piggybacks on the reply path.
//! Under [`LatencyModel::Unit`] the observed per-part (rounds, messages)
//! reproduce [`crate::probe_rounds`]/[`crate::plan`] exactly, and on a
//! static timeline the diagnosis is bit-identical to
//! `mmdiag_core::diagnose` — both facts are asserted per cell by the bench
//! sweep and the workspace cross-check suite.

use crate::event::{EventQueue, QueueTelemetry, Time};
use crate::inject::FaultTimeline;
use crate::link::LatencyModel;
use crate::node::NodeState;
use crate::SimPlan;
use mmdiag_core::{
    grow_from_certificate, set_builder_in_part, Certificate, DiagnosisError, Workspace,
};
use mmdiag_syndrome::{SyndromeSource, TestResult};
use mmdiag_topology::{NodeId, Partitionable};

/// Observed trace of one part's restricted probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeTrace {
    /// The part probed.
    pub part: usize,
    /// Wave depth: maximum hop count over first-contact paths — equals the
    /// cost model's synchronous rounds under unit latencies.
    pub rounds: usize,
    /// Exchanges carried — one per in-part directed edge reached.
    pub messages: usize,
    /// Processors contacted (the part size when the part is connected).
    pub reached: usize,
    /// Virtual time at which the last exchange of this probe completed.
    pub completion: Time,
    /// Did this part's tree certify all-healthy?
    pub certified: bool,
    /// Distinct contributors of this part's probe tree, at the flush
    /// where the probe stopped (the first that certifies, if any).
    pub contributors: usize,
}

/// Observed trace of the final unrestricted growth wave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrowthTrace {
    /// Wave depth of the growth flood (≤ the cost model's conservative
    /// `growth_rounds_worst` under unit latencies).
    pub rounds: usize,
    /// Exchanges carried — one per directed edge reached.
    pub messages: usize,
    /// Processors contacted.
    pub reached: usize,
    /// Virtual time the growth wave started (all probes complete).
    pub started: Time,
    /// Virtual time its last exchange completed.
    pub completion: Time,
}

/// Everything one simulated diagnosis pass produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Per-part probe traces, indexed by part.
    pub probes: Vec<ProbeTrace>,
    /// The certified part the growth seed came from (lowest certified
    /// index, mirroring the driver's first-certificate scan).
    pub certified_part: usize,
    /// Probes a sequential driver would have run before certifying —
    /// `certified_part + 1`, comparable to `Diagnosis::probes`.
    pub probes_until_certificate: usize,
    /// The diagnosed fault set, ascending.
    pub faults: Vec<NodeId>,
    /// `|U_r|` of the final growth.
    pub healthy_count: usize,
    /// The growth wave's trace.
    pub growth: GrowthTrace,
    /// Virtual time the whole protocol finished.
    pub total_time: Time,
    /// Messages delivered by the event engine across both phases.
    pub events_delivered: u64,
    /// Event-engine distributions across both waves: future-event-list
    /// depth at each delivery and messages per virtual instant.
    /// Deterministic for a given `(topology, timeline, latency)` input,
    /// like every other field. (Boxed: two full histogram summaries
    /// would otherwise dominate the size of every moved report.)
    pub queue: Box<QueueTelemetry>,
}

impl SimReport {
    /// Check this (unit-latency) report against the closed-form cost
    /// model: per-part rounds/messages/reached must match exactly, the
    /// aggregates must agree, and the growth depth must respect the
    /// model's conservative bound. Returns a human-readable mismatch.
    ///
    /// Only meaningful for reports produced under [`LatencyModel::Unit`];
    /// skewed latencies are precisely the regime where observation and
    /// model diverge.
    pub fn check_against_plan(&self, model: &SimPlan) -> Result<(), String> {
        if self.probes.len() != model.probes.len() {
            return Err(format!(
                "part count mismatch: simulated {}, model {}",
                self.probes.len(),
                model.probes.len()
            ));
        }
        for (trace, cost) in self.probes.iter().zip(&model.probes) {
            if trace.rounds != cost.rounds
                || trace.messages != cost.messages
                || trace.reached != cost.reached
            {
                return Err(format!(
                    "part {}: simulated (rounds {}, messages {}, reached {}) \
                     vs model (rounds {}, messages {}, reached {})",
                    trace.part,
                    trace.rounds,
                    trace.messages,
                    trace.reached,
                    cost.rounds,
                    cost.messages,
                    cost.reached
                ));
            }
        }
        let concurrent = self.probes.iter().map(|p| p.rounds).max().unwrap_or(0);
        if concurrent != model.probe_rounds_concurrent {
            return Err(format!(
                "concurrent probe rounds: simulated {concurrent}, model {}",
                model.probe_rounds_concurrent
            ));
        }
        let total: usize = self.probes.iter().map(|p| p.messages).sum();
        if total != model.probe_messages_total {
            return Err(format!(
                "probe messages: simulated {total}, model {}",
                model.probe_messages_total
            ));
        }
        if self.growth.rounds > model.growth_rounds_worst {
            return Err(format!(
                "growth rounds {} exceed the model's worst-case bound {}",
                self.growth.rounds, model.growth_rounds_worst
            ));
        }
        Ok(())
    }
}

/// One wave message: `from`'s exchange with its neighbour number `to_idx`.
#[derive(Clone, Copy, Debug)]
struct Wave {
    from: NodeId,
    to_idx: u32,
    hops: u32,
}

/// Materialised network view shared by both phases.
struct Fabric {
    adj: Vec<Vec<NodeId>>,
    part: Vec<u32>,
}

impl Fabric {
    fn new<T: Partitionable + ?Sized>(g: &T) -> Self {
        let n = g.node_count();
        let mut adj = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for u in 0..n {
            g.neighbors_into(u, &mut buf);
            adj.push(buf.clone());
        }
        let part = (0..n)
            .map(|u| u32::try_from(g.part_of(u)).expect("more than u32::MAX parts"))
            .collect();
        Fabric { adj, part }
    }
}

/// Arrival time of every directed edge's exchange, aligned with `adj`.
struct ExchangeClock {
    times: Vec<Vec<Time>>,
}

impl ExchangeClock {
    const PENDING: Time = Time::MAX;

    fn new(adj: &[Vec<NodeId>]) -> Self {
        ExchangeClock {
            times: adj.iter().map(|ns| vec![Self::PENDING; ns.len()]).collect(),
        }
    }

    fn record(&mut self, from: NodeId, to_idx: usize, at: Time) {
        self.times[from][to_idx] = at;
    }

    /// When the exchange `from → to` completed; `fallback` (the phase's
    /// completion time) if that edge never carried one.
    fn completed(&self, adj: &[Vec<NodeId>], from: NodeId, to: NodeId, fallback: Time) -> Time {
        match adj[from].iter().position(|&x| x == to) {
            Some(idx) if self.times[from][idx] != Self::PENDING => self.times[from][idx],
            _ => fallback,
        }
    }
}

/// Flood statistics accumulated per scope (one part, or the whole graph).
#[derive(Clone, Copy, Debug, Default)]
struct WaveStats {
    messages: usize,
    reached: usize,
    max_hops: u32,
    completion: Time,
}

/// Simulate the full distributed diagnosis of `g` with the family's
/// canonical fault bound, checking §5's preconditions first.
pub fn simulate<T: Partitionable + ?Sized>(
    g: &T,
    timeline: &FaultTimeline,
    latency: &LatencyModel,
) -> Result<SimReport, DiagnosisError> {
    g.check_partition_preconditions()
        .map_err(DiagnosisError::Preconditions)?;
    simulate_unchecked(g, timeline, latency, g.driver_fault_bound())
}

/// Simulate with an explicit fault bound and no precondition check —
/// mirrors `Diagnoser::unchecked_bound` in the umbrella crate.
pub fn simulate_unchecked<T: Partitionable + ?Sized>(
    g: &T,
    timeline: &FaultTimeline,
    latency: &LatencyModel,
    fault_bound: usize,
) -> Result<SimReport, DiagnosisError> {
    let n = g.node_count();
    assert_eq!(
        timeline.universe(),
        n,
        "fault timeline universe does not match the network size"
    );
    let fabric = Fabric::new(g);
    let parts = g.part_count();
    let reps: Vec<NodeId> = (0..parts).map(|p| g.representative(p)).collect();

    let mut queue: EventQueue<Wave> = EventQueue::new();
    let mut states: Vec<NodeState> = vec![NodeState::default(); n];
    let mut clock = ExchangeClock::new(&fabric.adj);
    let mut stats: Vec<WaveStats> = vec![WaveStats::default(); parts];

    // --- Phase 1: all parts probe concurrently from time 0.
    for (p, &rep) in reps.iter().enumerate() {
        states[rep].on_contact(0, 0);
        stats[p].reached = 1;
        broadcast(
            &fabric,
            latency,
            &mut queue,
            rep,
            0,
            1,
            Some(p as u32),
            &mut stats[p].messages,
        );
    }
    while let Some((at, wave)) = queue.pop() {
        let to = fabric.adj[wave.from][wave.to_idx as usize];
        let p = fabric.part[to] as usize;
        clock.record(wave.from, wave.to_idx as usize, at);
        let s = &mut stats[p];
        s.completion = s.completion.max(at);
        if states[to].on_contact(at, wave.hops) {
            s.reached += 1;
            s.max_hops = s.max_hops.max(wave.hops);
            broadcast(
                &fabric,
                latency,
                &mut queue,
                to,
                at,
                wave.hops + 1,
                Some(p as u32),
                &mut s.messages,
            );
        }
    }
    let probes_done = queue.now();

    // --- Phase 2: the restricted Set_Builder at every part's
    // representative over the gathered results; the first certified part
    // seeds the growth.
    let mut ws = Workspace::new(n);
    let mut probes = Vec::with_capacity(parts);
    let mut certificate = None;
    for (p, s) in stats.iter().enumerate() {
        let graded = Graded {
            timeline,
            adj: &fabric.adj,
            clock: &clock,
            fallback: s.completion,
        };
        let probe = set_builder_in_part(g, &graded, reps[p], fault_bound, &mut ws);
        probes.push(ProbeTrace {
            part: p,
            rounds: s.max_hops as usize,
            messages: s.messages,
            reached: s.reached,
            completion: s.completion,
            certified: probe.all_healthy,
            contributors: probe.contributors,
        });
        if probe.all_healthy && certificate.is_none() {
            certificate = Some(Certificate {
                part: p,
                representative: reps[p],
                contributors: probe.contributors,
                rounds: probe.rounds,
                tree: probe.tree,
            });
        }
    }
    let certificate = certificate.ok_or(DiagnosisError::NoPartCertified)?;
    let (certified_part, seed) = (certificate.part, certificate.representative);

    // --- Phase 3: unrestricted growth wave from the certified seed.
    let mut states: Vec<NodeState> = vec![NodeState::default(); n];
    let mut clock = ExchangeClock::new(&fabric.adj);
    let mut gstats = WaveStats {
        completion: probes_done,
        ..WaveStats::default()
    };
    states[seed].on_contact(probes_done, 0);
    gstats.reached = 1;
    broadcast(
        &fabric,
        latency,
        &mut queue,
        seed,
        probes_done,
        1,
        None,
        &mut gstats.messages,
    );
    while let Some((at, wave)) = queue.pop() {
        let to = fabric.adj[wave.from][wave.to_idx as usize];
        clock.record(wave.from, wave.to_idx as usize, at);
        gstats.completion = gstats.completion.max(at);
        if states[to].on_contact(at, wave.hops) {
            gstats.reached += 1;
            gstats.max_hops = gstats.max_hops.max(wave.hops);
            broadcast(
                &fabric,
                latency,
                &mut queue,
                to,
                at,
                wave.hops + 1,
                None,
                &mut gstats.messages,
            );
        }
    }

    // --- The growth and the N(U_r) sweep over the growth wave's results
    // (Theorem 1: N(U_r) is the diagnosis).
    let graded = Graded {
        timeline,
        adj: &fabric.adj,
        clock: &clock,
        fallback: gstats.completion,
    };
    let diagnosis = grow_from_certificate(
        g,
        &graded,
        &certificate,
        certified_part + 1,
        fault_bound,
        0,
        &mut ws,
    )?;

    Ok(SimReport {
        probes,
        certified_part,
        probes_until_certificate: certified_part + 1,
        faults: diagnosis.faults,
        healthy_count: diagnosis.healthy_count,
        growth: GrowthTrace {
            rounds: gstats.max_hops as usize,
            messages: gstats.messages,
            reached: gstats.reached,
            started: probes_done,
            completion: gstats.completion,
        },
        total_time: gstats.completion,
        events_delivered: queue.delivered(),
        queue: Box::new(queue.telemetry()),
    })
}

/// Send one exchange from `u` to each neighbour the scope admits.
#[allow(clippy::too_many_arguments)]
fn broadcast(
    fabric: &Fabric,
    latency: &LatencyModel,
    queue: &mut EventQueue<Wave>,
    u: NodeId,
    now: Time,
    hops: u32,
    within_part: Option<u32>,
    messages: &mut usize,
) {
    for (idx, &v) in fabric.adj[u].iter().enumerate() {
        if let Some(p) = within_part {
            if fabric.part[v] != p {
                continue;
            }
        }
        *messages += 1;
        queue.schedule(
            now + latency.latency(u, v, idx),
            Wave {
                from: u,
                to_idx: idx as u32,
                hops,
            },
        );
    }
}

/// The syndrome one wave's exchanges observed: test `s_u(v, w)` is graded
/// at the instant the later of its two replies (`v → u`, `w → u`) arrived,
/// or at `fallback` (the wave's completion) for a reply the wave never
/// carried. A static timeline is time-invariant and is read at time 0.
struct Graded<'a> {
    timeline: &'a FaultTimeline,
    adj: &'a [Vec<NodeId>],
    clock: &'a ExchangeClock,
    fallback: Time,
}

impl SyndromeSource for Graded<'_> {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        if self.timeline.is_static() {
            return self.timeline.result(0, u, v, w);
        }
        let t = self
            .clock
            .completed(self.adj, v, u, self.fallback)
            .max(self.clock.completed(self.adj, w, u, self.fallback));
        self.timeline.result(t, u, v, w)
    }
}
