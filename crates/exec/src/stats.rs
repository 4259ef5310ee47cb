//! The fleet stats sampler thread.
//!
//! `mmdiag-trace` owns the [`MetricsHub`] and the pure
//! [`mmdiag_trace::StatsReporter`] delta logic, but it sits below this
//! crate in the dependency graph and the workspace's thread single door
//! (`sync::thread::spawn_named`, enforced by `cargo run -p xtask --
//! lint`) lives *here* — so the thread that drives the reporter lives
//! here too. [`start_stats_reporter`] spawns a named sampler that writes
//! one JSON line per interval (see `StatsReporter::sample` for the
//! schema) and stops promptly when the handle is dropped.
//!
//! Callers pass the interval explicitly; no environment variable sets
//! it.
//!
//! Not compiled under the `model` feature: the sampler is wall-clock
//! driven and would add nothing but noise to the interleaving explorer.

use crate::sync::{thread, Arc};
use mmdiag_trace::{MetricsHub, StatsReporter};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A running sampler thread. Dropping (or calling [`stop`]) signals the
/// thread, joins it, and flushes the final sample.
///
/// [`stop`]: ReporterHandle::stop
pub struct ReporterHandle {
    stop: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
}

impl ReporterHandle {
    /// Signal the sampler and wait for it to write its final line.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ReporterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the `mmdiag-stats` sampler thread: every `interval` it writes
/// one [`StatsReporter`] JSON line (a merged delta across every registry
/// attached to `hub`) to `out`, flushing after each line so a tailing
/// reader sees samples live. A final sample is always written on stop,
/// so short runs still produce at least one line.
///
/// Write errors stop the sampler silently — stats streaming must never
/// take down the session it is observing.
pub fn start_stats_reporter<W>(
    hub: &'static MetricsHub,
    interval: Duration,
    mut out: W,
) -> std::io::Result<ReporterHandle>
where
    W: Write + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = thread::spawn_named("mmdiag-stats".to_string(), move || {
        let mut reporter = StatsReporter::new(hub);
        let mut emit = |reporter: &mut StatsReporter| -> bool {
            let line = reporter.sample();
            writeln!(out, "{line}").and_then(|_| out.flush()).is_ok()
        };
        while !stop_flag.load(Ordering::Relaxed) {
            if !emit(&mut reporter) {
                return;
            }
            // Sleep in small slices so stop() never waits a full interval.
            let mut left = interval;
            while !left.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                let slice = left.min(Duration::from_millis(10));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
        // Final flush so the tail of the run is never lost.
        let _ = emit(&mut reporter);
    })?;
    Ok(ReporterHandle {
        stop,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A `Write` that appends into a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reporter_thread_streams_valid_json_lines_and_stops() {
        let hub = MetricsHub::global();
        let registry = Arc::new(mmdiag_trace::MetricsRegistry::new());
        registry.counter("stats.test.ticks").add(3);
        let session = hub.attach("stats-test", Arc::clone(&registry));
        let buf = SharedBuf::default();
        let handle =
            start_stats_reporter(hub, Duration::from_millis(5), buf.clone()).expect("spawn");
        // Let at least one periodic sample land, then stop (which emits a
        // final one).
        std::thread::sleep(Duration::from_millis(25));
        registry.counter("stats.test.ticks").add(4);
        handle.stop();
        drop(session);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected several samples: {text:?}");
        for line in &lines {
            mmdiag_trace::export::validate_json(line).expect("each sample is one JSON value");
            assert!(line.starts_with("{\"seq\":"), "line: {line}");
        }
        assert!(
            lines.last().unwrap().contains("stats.test.ticks"),
            "final sample must include the attached registry: {}",
            lines.last().unwrap()
        );
    }
}
