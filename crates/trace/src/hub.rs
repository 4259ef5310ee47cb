//! The fleet observability layer: a process-wide hub of per-session
//! metrics registries, plus the periodic stats sampler.
//!
//! PR 7's tracing observes one session at a time; a fleet serving many
//! concurrent diagnoses needs the *cross-session* view — the shared
//! pool and the shared caches are contended by all of them at once. A [`MetricsHub`] is a registry of registries: every
//! live session attaches its own [`MetricsRegistry`] (the same `Arc` its
//! tracer records into, not a copy), and the hub can merge all of them
//! into one fleet snapshot at any instant:
//!
//! * **counters** sum across sessions,
//! * **gauges** are last-write-wins for the current value (attach order
//!   breaks ties; the running maximum is the max across sessions),
//! * **histograms** merge via [`crate::HistogramSummary::merge`].
//!
//! [`StatsReporter`] turns that merged view into a JSON-lines time
//! series: each [`StatsReporter::sample`] emits one self-contained JSON
//! object with per-metric deltas since the previous sample. The sampler
//! *thread* driving it lives in `mmdiag_exec` (`start_stats_reporter`) —
//! thread creation stays inside the executor crate, and the sampling
//! interval is the `MMDIAG_STATS` knob parsed once by
//! `mmdiag_exec::config::knobs()`. Timestamps only ever come from
//! [`crate::clock`], like every other time read in the workspace.

use crate::clock;
use crate::export::escape;
use crate::metrics::{MetricSnapshot, MetricValue, MetricsRegistry};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One attached session: the name it registered under and the live
/// registry handle (shared with the session's sink, not copied).
struct Attachment {
    id: u64,
    name: String,
    registry: Arc<MetricsRegistry>,
}

/// A process-wide collection of live per-session metrics registries.
///
/// `attach` returns a RAII guard; dropping it (or the session that owns
/// it) detaches the registry, so the hub only ever aggregates sessions
/// that are actually alive. Use [`MetricsHub::global`] for the one hub
/// the whole process shares, or `new` for an isolated hub in tests.
#[derive(Default)]
pub struct MetricsHub {
    sessions: Mutex<Vec<Attachment>>,
    next_id: AtomicU64,
    /// Total attachments ever made — lets a reporter distinguish "no
    /// sessions yet" from "sessions came and went".
    attached_total: AtomicU64,
}

impl MetricsHub {
    /// An empty hub (tests; production code uses [`MetricsHub::global`]).
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// The process-wide hub every session's `.stats(...)` attaches to.
    pub fn global() -> &'static MetricsHub {
        static HUB: OnceLock<MetricsHub> = OnceLock::new();
        HUB.get_or_init(MetricsHub::new)
    }

    /// Attach a live registry under `name`. The returned guard detaches
    /// on drop; names need not be unique (two sessions may both call
    /// themselves `"probe"` — merge semantics are by *metric* name, not
    /// session name).
    pub fn attach(&self, name: &str, registry: Arc<MetricsRegistry>) -> HubSession<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.attached_total.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().unwrap().push(Attachment {
            id,
            name: name.to_string(),
            registry,
        });
        HubSession { hub: self, id }
    }

    /// Number of currently attached sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Total attachments over the hub's lifetime (never decreases).
    pub fn attached_total(&self) -> u64 {
        self.attached_total.load(Ordering::Relaxed)
    }

    /// Snapshot every attached session: `(session name, readings)` in
    /// attach order.
    pub fn snapshot_sessions(&self) -> Vec<(String, Vec<MetricSnapshot>)> {
        self.sessions
            .lock()
            .unwrap()
            .iter()
            .map(|a| (a.name.clone(), a.registry.snapshot()))
            .collect()
    }

    /// The fleet view: snapshot every attached registry and merge by
    /// metric name (see the module docs for the per-kind rules). Note
    /// each registry is snapshot atomically per *metric*, not per hub —
    /// a counter incremented mid-merge lands in this reading or the
    /// next, never nowhere.
    pub fn merged_snapshot(&self) -> Vec<MetricSnapshot> {
        let per_session: Vec<Vec<MetricSnapshot>> = self
            .sessions
            .lock()
            .unwrap()
            .iter()
            .map(|a| a.registry.snapshot())
            .collect();
        merge_snapshots(&per_session)
    }

    fn detach(&self, id: u64) {
        self.sessions.lock().unwrap().retain(|a| a.id != id);
    }
}

/// RAII guard for one hub attachment; dropping it detaches the session's
/// registry from the hub.
pub struct HubSession<'a> {
    hub: &'a MetricsHub,
    id: u64,
}

impl HubSession<'_> {
    /// The hub-unique attachment id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for HubSession<'_> {
    fn drop(&mut self) {
        self.hub.detach(self.id);
    }
}

/// Merge any number of snapshot sets by metric name: counters sum,
/// gauges keep the **last** writer's current value (input order) and the
/// max of maxima, histograms merge via [`crate::HistogramSummary::merge`].
/// Output order is first-seen order. A name registered with two
/// different kinds keeps its first kind and ignores readings of the
/// other (kind confusion is already a panic within one registry; across
/// sessions it only means the sessions disagree on a name).
pub fn merge_snapshots(sets: &[Vec<MetricSnapshot>]) -> Vec<MetricSnapshot> {
    let mut out: Vec<MetricSnapshot> = Vec::new();
    for set in sets {
        for m in set {
            match out.iter_mut().find(|o| o.name == m.name) {
                None => out.push(m.clone()),
                Some(existing) => match (&mut existing.value, &m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(cur, max), MetricValue::Gauge(c, m2)) => {
                        *cur = *c;
                        *max = (*max).max(*m2);
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        **a = a.merge(b);
                    }
                    _ => {} // kind mismatch across sessions: first kind wins
                },
            }
        }
    }
    out
}

/// The periodic-delta sampler over a [`MetricsHub`].
///
/// Each [`StatsReporter::sample`] produces one JSON line (no trailing
/// newline) describing the time since the previous sample: counters
/// carry `total` and `delta`, gauges `value`/`max`, histograms their
/// cumulative `count`/quantiles plus the window's `delta_count`. The
/// reporter is deliberately passive — it owns no thread and reads no
/// environment; `mmdiag_exec::start_stats_reporter` drives it on a
/// sampler thread at the `MMDIAG_STATS` interval.
pub struct StatsReporter<'a> {
    hub: &'a MetricsHub,
    prev: Vec<MetricSnapshot>,
    seq: u64,
}

impl<'a> StatsReporter<'a> {
    /// A reporter over `hub` whose first sample reports all-time deltas.
    pub fn new(hub: &'a MetricsHub) -> Self {
        StatsReporter {
            hub,
            prev: Vec::new(),
            seq: 0,
        }
    }

    /// Take one sample: merge the hub now, diff against the previous
    /// sample, and render one JSON object (one line of the time series).
    pub fn sample(&mut self) -> String {
        let merged = self.hub.merged_snapshot();
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"seq\":{},\"t_ns\":{},\"sessions\":{},\"metrics\":[",
            self.seq,
            clock::now_ns(),
            self.hub.sessions()
        );
        for (i, m) in merged.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let prev = self.prev.iter().find(|p| p.name == m.name);
            line.push_str("{\"name\":\"");
            escape(&m.name, &mut line);
            line.push_str("\",");
            match &m.value {
                MetricValue::Counter(total) => {
                    let earlier = match prev.map(|p| &p.value) {
                        Some(MetricValue::Counter(e)) => *e,
                        _ => 0,
                    };
                    let _ = write!(
                        line,
                        "\"kind\":\"counter\",\"total\":{total},\"delta\":{}",
                        total.saturating_sub(earlier)
                    );
                }
                MetricValue::Gauge(cur, max) => {
                    let _ = write!(line, "\"kind\":\"gauge\",\"value\":{cur},\"max\":{max}");
                }
                MetricValue::Histogram(h) => {
                    let earlier_count = match prev.map(|p| &p.value) {
                        Some(MetricValue::Histogram(e)) => e.count,
                        _ => 0,
                    };
                    let _ = write!(
                        line,
                        "\"kind\":\"histogram\",\"count\":{},\"delta_count\":{},\
                         \"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}",
                        h.count,
                        h.count.saturating_sub(earlier_count),
                        h.sum,
                        h.min,
                        h.max,
                        h.p50(),
                        h.p99()
                    );
                }
            }
            line.push('}');
        }
        line.push_str("]}");
        self.prev = merged;
        self.seq += 1;
        line
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    #[test]
    fn attach_detach_tracks_live_sessions() {
        let hub = MetricsHub::new();
        assert_eq!(hub.sessions(), 0);
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        let ga = hub.attach("a", Arc::clone(&a));
        let gb = hub.attach("b", Arc::clone(&b));
        assert_eq!(hub.sessions(), 2);
        assert_eq!(hub.attached_total(), 2);
        drop(ga);
        assert_eq!(hub.sessions(), 1);
        assert_eq!(hub.snapshot_sessions()[0].0, "b");
        drop(gb);
        assert_eq!(hub.sessions(), 0);
        assert_eq!(hub.attached_total(), 2, "lifetime total never decreases");
    }

    #[test]
    fn merge_sums_counters_lastwrites_gauges_merges_histograms() {
        let hub = MetricsHub::new();
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        a.counter("lookups").add(10);
        b.counter("lookups").add(5);
        b.counter("only_b").add(1);
        a.gauge("depth").set(7); // max 7
        a.gauge("depth").set(2); // value 2
        b.gauge("depth").set(3);
        a.histogram("lat").record(100);
        b.histogram("lat").record(200);
        let _ga = hub.attach("a", Arc::clone(&a));
        let _gb = hub.attach("b", Arc::clone(&b));
        let merged = hub.merged_snapshot();
        let get = |name: &str| {
            merged
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
                .clone()
        };
        assert_eq!(get("lookups"), MetricValue::Counter(15));
        assert_eq!(get("only_b"), MetricValue::Counter(1));
        // Gauge: last attach order wins the value; max is max of maxima.
        assert_eq!(get("depth"), MetricValue::Gauge(3, 7));
        match get("lat") {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 300);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merged_equals_manual_merge_of_session_snapshots() {
        // The hub's merge is definitionally the merge of the per-session
        // snapshots — the exact-aggregation contract the umbrella's
        // concurrent-session test asserts end to end.
        let hub = MetricsHub::new();
        let regs: Vec<Arc<MetricsRegistry>> =
            (0..4).map(|_| Arc::new(MetricsRegistry::new())).collect();
        let _guards: Vec<HubSession<'_>> = regs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.counter("c").add(i as u64 + 1);
                r.histogram("h").record(1 << i);
                hub.attach(&format!("s{i}"), Arc::clone(r))
            })
            .collect();
        let manual: Vec<Vec<MetricSnapshot>> = regs.iter().map(|r| r.snapshot()).collect();
        assert_eq!(hub.merged_snapshot(), merge_snapshots(&manual));
        let merged = hub.merged_snapshot();
        assert_eq!(merged[0].value, MetricValue::Counter(1 + 2 + 3 + 4));
    }

    #[test]
    fn kind_mismatch_across_sessions_keeps_first_kind() {
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        a.counter("m").add(2);
        b.gauge("m").set(9);
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, MetricValue::Counter(2));
    }

    #[test]
    fn reporter_emits_valid_jsonl_with_deltas() {
        let hub = MetricsHub::new();
        let reg = Arc::new(MetricsRegistry::new());
        let _g = hub.attach("s", Arc::clone(&reg));
        reg.counter("c").add(10);
        reg.histogram("h").record(50);
        let mut rep = StatsReporter::new(&hub);
        let l1 = rep.sample();
        validate_json(&l1).unwrap();
        assert!(l1.contains("\"seq\":0"), "{l1}");
        assert!(l1.contains("\"sessions\":1"), "{l1}");
        assert!(l1.contains("\"total\":10"), "{l1}");
        assert!(l1.contains("\"delta\":10"), "{l1}");
        reg.counter("c").add(3);
        reg.histogram("h").record(60);
        reg.histogram("h").record(70);
        let l2 = rep.sample();
        validate_json(&l2).unwrap();
        assert!(l2.contains("\"seq\":1"), "{l2}");
        assert!(l2.contains("\"total\":13"), "{l2}");
        assert!(l2.contains("\"delta\":3"), "{l2}");
        assert!(l2.contains("\"delta_count\":2"), "{l2}");
        assert_eq!(rep.samples(), 2);
        // t_ns is monotone between samples (single clock door).
        let t = |l: &str| {
            let at = l.find("\"t_ns\":").unwrap() + 7;
            l[at..l[at..].find(',').unwrap() + at]
                .parse::<u64>()
                .unwrap()
        };
        assert!(t(&l2) >= t(&l1));
    }

    #[test]
    fn global_hub_is_one_instance() {
        let a = MetricsHub::global() as *const MetricsHub;
        let b = MetricsHub::global() as *const MetricsHub;
        assert_eq!(a, b);
    }
}
