//! # mmdiag-trace
//!
//! The workspace's structured tracing + metrics layer: dependency-free
//! (the offline policy), sitting *below* every other crate so the
//! executor, driver, oracles, simulator and bench can all instrument
//! themselves without cycles.
//!
//! Four pieces:
//!
//! * **Clock door** ([`clock`]) — the single sanctioned wall-clock read;
//!   `cargo run -p xtask -- lint` forbids `Instant::now()` anywhere else
//!   outside `cfg(test)`, mirroring the `MMDIAG_*` env single door.
//! * **Spans + sink** ([`Tracer`], [`Span`], [`TraceSink`]) — guard-style
//!   spans recording monotonic start/duration, thread id and one
//!   attribute into per-thread ring buffers; the disabled tracer stores
//!   nothing and costs one `Option` check per record.
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`],
//!   [`MetricsRegistry`]) — atomic counters/gauges and a log-bucketed
//!   histogram with mergeable snapshots and factor-of-two quantiles.
//! * **Fleet hub** ([`MetricsHub`], [`StatsReporter`]) — per-session
//!   registries attach to one process-wide hub that merges them into a
//!   fleet snapshot (counters summed, gauges last-write, histograms
//!   merged) and streams periodic JSON-lines deltas; the sampler thread
//!   itself lives in `mmdiag_exec` (thread single door), at the interval
//!   its caller passes.
//! * **Exporters** ([`export`]) — JSON-lines and Chrome trace-event
//!   format (loadable in `chrome://tracing` / Perfetto), plus
//!   [`export::validate_json`] so CI can check emitted traces parse
//!   without external tools. [`TraceSummary`] rolls a drained trace back
//!   up into the `PhaseTelemetry` shape for report-vs-trace equality
//!   tests.
//!
//! Tracing is enabled per session through `Diagnoser::trace(...)` or
//! `Diagnoser::stats(...)`, never process-wide: no environment variable
//! turns it on, and this crate reads no environment itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
mod hist;
mod hub;
mod metrics;
mod sink;
mod summary;

pub use hub::{merge_snapshots, HubSession, MetricsHub, StatsReporter};

pub use hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSummary, BUCKETS,
};
pub use metrics::{checked_delta, Counter, Gauge, MetricSnapshot, MetricValue, MetricsRegistry};
pub use sink::{current_tid, Span, TraceConfig, TraceEvent, TraceSink, Tracer};
pub use summary::{
    NameStat, TraceSummary, CAT_MONITOR, CAT_PHASE, MONITOR_EPOCH, PHASE_CERTIFY, PHASE_GROW,
    PHASE_GROW_REPAIR, PHASE_GROW_ROUND, PHASE_PROBE,
};
