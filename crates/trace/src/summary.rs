//! Rolling a drained trace back up into the `PhaseTelemetry` shape.
//!
//! `mmdiag_core` names its three phases with the constants below and
//! stores, in `PhaseTelemetry`, exactly the values its phase spans
//! recorded (the span's `finish` return *is* the telemetry field). A
//! [`TraceSummary`] built from the drained events therefore must agree
//! with the report — nanosecond-exact for durations of a single run,
//! and exact for lookup counts, which the workspace test-suite asserts.

use crate::sink::TraceEvent;

/// Category every diagnosis phase span carries.
pub const CAT_PHASE: &str = "phase";
/// The restricted-probe phase span name.
pub const PHASE_PROBE: &str = "probe";
/// The certificate-scan phase span name.
pub const PHASE_CERTIFY: &str = "certify";
/// The grow-and-sweep phase span name.
pub const PHASE_GROW: &str = "grow";
/// Per-layer span name, nested inside [`PHASE_GROW`] by every growth.
/// Aggregated per-name like every other span, so the
/// probe/certify/grow phase totals are untouched.
pub const PHASE_GROW_ROUND: &str = "grow.round";
/// Category the epoch monitor's spans carry (`mmdiag_core::monitor`).
pub const CAT_MONITOR: &str = "monitor";
/// One monitoring epoch: delta ingest → probe scan → growth. The span's
/// value attribute is the epoch's total syndrome lookups, and the phase
/// spans of the epoch's run nest inside it.
pub const MONITOR_EPOCH: &str = "monitor.epoch";

/// Aggregate of all spans sharing one name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameStat {
    /// The span name.
    pub name: String,
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u128,
    /// Sum of their `value` attributes.
    pub value_sum: u64,
}

/// A drained trace rolled up per span name, with the three diagnosis
/// phases surfaced in the `PhaseTelemetry` shape.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total `probe` span time (= `PhaseTelemetry::probe_nanos` summed
    /// over the traced runs).
    pub probe_nanos: u128,
    /// Total `certify` span time.
    pub certify_nanos: u128,
    /// Total `grow` span time.
    pub grow_nanos: u128,
    /// Syndrome lookups attributed to probe spans.
    pub probe_lookups: u64,
    /// Syndrome lookups attributed to grow spans.
    pub grow_lookups: u64,
    /// Events summarised.
    pub span_count: usize,
    /// Events lost to ring wraparound before the drain.
    pub dropped: u64,
    /// Every span name's aggregate, ordered by first appearance.
    pub names: Vec<NameStat>,
}

impl TraceSummary {
    /// Summarise drained `events` (`dropped` from `Tracer::dropped`).
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> Self {
        let mut names: Vec<NameStat> = Vec::new();
        for e in events {
            let stat = match names.iter_mut().find(|s| s.name == e.name) {
                Some(s) => s,
                None => {
                    names.push(NameStat {
                        name: e.name.to_string(),
                        ..NameStat::default()
                    });
                    names.last_mut().expect("just pushed")
                }
            };
            stat.count += 1;
            stat.total_ns += u128::from(e.dur_ns);
            stat.value_sum += e.value;
        }
        let get = |name: &str| -> (u128, u64) {
            names
                .iter()
                .find(|s| s.name == name)
                .map_or((0, 0), |s| (s.total_ns, s.value_sum))
        };
        let (probe_nanos, probe_lookups) = get(PHASE_PROBE);
        let (certify_nanos, _) = get(PHASE_CERTIFY);
        let (grow_nanos, grow_lookups) = get(PHASE_GROW);
        TraceSummary {
            probe_nanos,
            certify_nanos,
            grow_nanos,
            probe_lookups,
            grow_lookups,
            span_count: events.len(),
            dropped,
            names,
        }
    }

    /// Total duration of all spans named `name` (0 when absent).
    pub fn total_ns(&self, name: &str) -> u128 {
        self.names
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_ns)
    }

    /// Sum of `value` attributes of all spans named `name`.
    pub fn value_sum(&self, name: &str) -> u64 {
        self.names
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.value_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &'static str, dur: u64, value: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: CAT_PHASE,
            start_ns: 0,
            dur_ns: dur,
            tid: 1,
            value,
        }
    }

    #[test]
    fn phases_roll_up_into_telemetry_shape() {
        let events = [
            phase(PHASE_PROBE, 100, 12),
            phase(PHASE_CERTIFY, 50, 0),
            phase(PHASE_GROW, 200, 30),
            phase(PHASE_PROBE, 10, 3),
        ];
        let s = TraceSummary::from_events(&events, 2);
        assert_eq!(s.probe_nanos, 110);
        assert_eq!(s.certify_nanos, 50);
        assert_eq!(s.grow_nanos, 200);
        assert_eq!(s.probe_lookups, 15);
        assert_eq!(s.grow_lookups, 30);
        assert_eq!(s.span_count, 4);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.names.len(), 3);
        assert_eq!(s.total_ns(PHASE_PROBE), 110);
        assert_eq!(s.value_sum(PHASE_PROBE), 15);
        assert_eq!(s.total_ns("absent"), 0);
    }

    #[test]
    fn empty_trace_summarises_to_default() {
        let s = TraceSummary::from_events(&[], 0);
        assert_eq!(s, TraceSummary::default());
    }
}
