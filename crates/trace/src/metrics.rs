//! Atomic counters, gauges and the metrics registry.
//!
//! A [`Counter`] is the workspace's one way to count monotonically —
//! the syndrome oracles store their lookup counts in one, so
//! `SyndromeSource::lookups()` and the exported trace metric read the
//! *same* cell rather than two values that happen to agree. A
//! [`MetricsRegistry`] names a set of counters/gauges/histograms for
//! export; handles are `Arc`-shared so a component can both own its
//! metric and register it.

use crate::hist::{Histogram, HistogramSummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter, alone on its own cache
/// lines (128 bytes: a line and the neighbour the prefetcher pairs with
/// it). Batch jobs run side by side on different workers, each adding
/// what it read to the counter of its own syndrome source; unpadded, the
/// counters of adjacent sources share lines and every bump invalidates
/// the line its neighbour's job is reading.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A last-value-wins atomic gauge (with a running maximum).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Set the current value (also advances the running maximum).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever set.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// The checked difference of two readings of a monotonic counter.
///
/// `PhaseTelemetry` used to derive its per-phase lookup deltas with
/// silent `saturating_sub` chains, so a counter anomaly (a reset mid-run,
/// a reordered read) would quietly report zero instead of failing. This
/// is the one door both phases go through now: debug builds assert the
/// monotonicity that the subtraction assumes; release builds keep the
/// saturating behaviour as a hard floor.
pub fn checked_delta(now: u64, earlier: u64) -> u64 {
    debug_assert!(
        now >= earlier,
        "monotonic counter went backwards: now {now} < earlier {earlier}"
    );
    now.saturating_sub(earlier)
}

/// A named metric handle held by a [`MetricsRegistry`].
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time reading of one registered metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading: `(current, max)`.
    Gauge(u64, u64),
    /// Histogram snapshot (boxed: a summary carries its full bucket
    /// array, far larger than the scalar variants).
    Histogram(Box<HistogramSummary>),
}

/// One named reading out of [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: String,
    /// The reading.
    pub value: MetricValue,
}

/// A named collection of metrics, snapshot-able for export.
///
/// Registration is get-or-create by name; re-registering a name returns
/// the existing handle so two instrumentation sites naming the same
/// metric share one cell.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        entries.push((name.to_string(), m.clone()));
        m
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Adopt an existing gauge under `name` (e.g. the sync facade's
    /// queue-depth gauges, owned by the executor and exported here).
    pub fn register_gauge(&self, name: &str, gauge: Arc<Gauge>) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(gauge)) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Adopt an existing histogram under `name`.
    pub fn register_histogram(&self, name: &str, hist: Arc<Histogram>) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(hist)) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Read every registered metric, in registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get(), g.max()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.reset(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn adjacent_counters_never_share_a_cache_line() {
        let pair = [Counter::new(), Counter::new()];
        let gap = &pair[1] as *const Counter as usize - &pair[0] as *const Counter as usize;
        assert!(gap >= 128, "counters {gap} bytes apart");
        assert_eq!(&pair[0] as *const Counter as usize % 128, 0);
    }

    #[test]
    fn gauge_tracks_current_and_max() {
        let g = Gauge::new();
        g.set(5);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 5);
    }

    #[test]
    fn checked_delta_subtracts() {
        assert_eq!(checked_delta(10, 4), 6);
        assert_eq!(checked_delta(4, 4), 0);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    #[cfg(debug_assertions)]
    fn checked_delta_rejects_backwards_counters_in_debug() {
        let _ = checked_delta(3, 4);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        reg.counter("oracle.lookups").add(7);
        let owned_gauge = Arc::new(Gauge::new());
        let adopted_gauge = reg.register_gauge("sync.depth", Arc::clone(&owned_gauge));
        assert!(Arc::ptr_eq(&owned_gauge, &adopted_gauge));
        owned_gauge.set(2);
        reg.gauge("depth").set(4);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0].name, "x");
        assert_eq!(snap[0].value, MetricValue::Counter(3));
        assert_eq!(snap[1].value, MetricValue::Counter(7));
        assert_eq!(snap[2].value, MetricValue::Gauge(2, 2));
        assert_eq!(snap[3].value, MetricValue::Gauge(4, 4));
        match &snap[4].value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_confusion() {
        let reg = MetricsRegistry::new();
        reg.counter("m");
        reg.gauge("m");
    }
}
