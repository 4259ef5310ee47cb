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
//!    accounting). Test results ride the wave, each graded against the
//!    [`FaultTimeline`] at the instant its exchange completes.
//! 2. **Certified-seed selection** — the §4.1 level rules run over each
//!    part's gathered results; the lowest-indexed part whose tree exceeds
//!    the fault bound in contributors certifies, exactly like the driver's
//!    first-certificate scan.
//! 3. **Unrestricted growth** — a second wave floods the whole network
//!    from the certified seed, the level rules grow the final healthy set
//!    `U_r`, and `N(U_r)` is the diagnosis.
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
use crate::node::{grow_levels, GrowOutcome, NodeState};
use crate::{plan, SimPlan};
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
    /// Distinct contributors of this part's probe tree.
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

/// Why the simulated protocol could not complete — mirrors
/// `mmdiag_core::DiagnosisError` case for case. `#[non_exhaustive]` like
/// that type, so the session API can grow failure modes without breaking
/// downstream matches.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The decomposition does not satisfy §5's size requirements.
    Preconditions(String),
    /// No part certified all-healthy. Impossible for a static timeline
    /// within the fault bound; a mid-protocol onset can legitimately cause
    /// it (the injected fault contaminates the last certifiable parts).
    NoPartCertified,
    /// `N(U_r)` exceeded the fault bound — the observed results are
    /// inconsistent with `|F| ≤` bound (again possible under injection).
    TooManyFaults {
        /// All-faulty neighbours found.
        found: usize,
        /// The bound the simulation ran with.
        bound: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Preconditions(msg) => write!(f, "decomposition unusable: {msg}"),
            SimError::NoPartCertified => write!(f, "no part certified all-healthy"),
            SimError::TooManyFaults { found, bound } => {
                write!(
                    f,
                    "{found} all-faulty neighbours exceed the fault bound {bound}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

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
) -> Result<SimReport, SimError> {
    g.check_partition_preconditions()
        .map_err(SimError::Preconditions)?;
    simulate_unchecked(g, timeline, latency, g.driver_fault_bound())
}

/// Simulate with an explicit fault bound and no precondition check —
/// mirrors `Diagnoser::unchecked_bound` in the umbrella crate.
pub fn simulate_unchecked<T: Partitionable + ?Sized>(
    g: &T,
    timeline: &FaultTimeline,
    latency: &LatencyModel,
    fault_bound: usize,
) -> Result<SimReport, SimError> {
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

    // --- Phase 2: level rules per part over the gathered results; first
    // certified part seeds the growth.
    let mut probes = Vec::with_capacity(parts);
    let mut certified_part = None;
    for (p, s) in stats.iter().enumerate() {
        let outcome = membership(
            &fabric,
            &clock,
            timeline,
            reps[p],
            fault_bound,
            s.completion,
            {
                let pp = p as u32;
                move |part_of_v: u32| part_of_v == pp
            },
        );
        if outcome.all_healthy && certified_part.is_none() {
            certified_part = Some(p);
        }
        probes.push(ProbeTrace {
            part: p,
            rounds: s.max_hops as usize,
            messages: s.messages,
            reached: s.reached,
            completion: s.completion,
            certified: outcome.all_healthy,
            contributors: outcome.contributors,
        });
    }
    let certified_part = certified_part.ok_or(SimError::NoPartCertified)?;
    let seed = reps[certified_part];

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

    let full = membership(
        &fabric,
        &clock,
        timeline,
        seed,
        fault_bound,
        gstats.completion,
        |_| true,
    );

    // --- N(U_r) is the diagnosis (Theorem 1); the neighbourhood sweep uses
    // adjacency only, exactly like the driver's.
    let mut in_set = vec![false; n];
    for &m in &full.members {
        in_set[m] = true;
    }
    let mut fault_flag = vec![false; n];
    let mut faults = Vec::new();
    for &m in &full.members {
        for &v in &fabric.adj[m] {
            if !in_set[v] && !fault_flag[v] {
                fault_flag[v] = true;
                faults.push(v);
            }
        }
    }
    faults.sort_unstable();
    if faults.len() > fault_bound {
        return Err(SimError::TooManyFaults {
            found: faults.len(),
            bound: fault_bound,
        });
    }

    Ok(SimReport {
        probes,
        certified_part,
        probes_until_certificate: certified_part + 1,
        faults,
        healthy_count: full.members.len(),
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

/// Convenience: simulate and also return the closed-form [`plan`] so
/// callers can compare observation against model in one call.
pub fn simulate_with_plan<T: Partitionable + ?Sized>(
    g: &T,
    timeline: &FaultTimeline,
    latency: &LatencyModel,
) -> Result<(SimReport, SimPlan), SimError> {
    let report = simulate(g, timeline, latency)?;
    Ok((report, plan(g)))
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

/// Run the level rules over gathered exchanges: test `s_u(v, w)` is graded
/// at the instant the later of the two replies (`v → u`, `w → u`) arrived.
fn membership<F: Fn(u32) -> bool>(
    fabric: &Fabric,
    clock: &ExchangeClock,
    timeline: &FaultTimeline,
    seed: NodeId,
    fault_bound: usize,
    completion: Time,
    in_scope: F,
) -> GrowOutcome {
    let accept = |v: NodeId| in_scope(fabric.part[v]);
    if timeline.is_static() {
        // Static timelines are time-invariant; skip the reply-time lookup.
        grow_levels(
            &fabric.adj,
            seed,
            fault_bound,
            |u, v, w| timeline.result(0, u, v, w),
            accept,
        )
    } else {
        grow_levels(
            &fabric.adj,
            seed,
            fault_bound,
            |u, v, w| {
                let t = clock
                    .completed(&fabric.adj, v, u, completion)
                    .max(clock.completed(&fabric.adj, w, u, completion));
                timeline.result(t, u, v, w)
            },
            accept,
        )
    }
}
