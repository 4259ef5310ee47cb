//! Parsed-once environment knobs for the whole workspace.
//!
//! Four PRs of growth left `MMDIAG_*` handling scattered: the pool size
//! was parsed in this crate, the auto-backend cutover in `mmdiag-core`
//! (twice — resolution *and* override both re-read the variable), the
//! quick-mode flag in the bench binary *and* the distsim property suite,
//! and the spot-checker sample rate in the bench library. Each site had
//! its own notion of what a malformed value means.
//!
//! This module is now the single reader: [`knobs`] parses the process
//! environment exactly once (behind a `OnceLock`) into a plain [`Knobs`]
//! struct, and every consumer asks that struct. The parse rules are pure
//! functions of the raw strings ([`Knobs::parse`]), so malformed-value
//! behaviour is unit-testable without touching the process environment:
//!
//! | Variable | Accepted | Malformed / unset |
//! | --- | --- | --- |
//! | `MMDIAG_POOL_THREADS` | integer, clamped to `1..=64` | ignored (`None`) |
//! | `MMDIAG_CUTOVER` | positive integer | ignored (`None`) |
//! | `MMDIAG_QUICK` | any non-empty value except `"0"` | `false` |
//! | `MMDIAG_SAMPLES` | positive integer | ignored (`None`) |
//! | `MMDIAG_TRACE` | any non-empty value except `"0"` | `false` |
//! | `MMDIAG_STATS` | positive integer (milliseconds) | ignored (`None`) |
//! | `MMDIAG_EPOCHS` | positive integer | ignored (`None`) |
//!
//! The grow-cutover knob is retired: growth always runs on the calling
//! thread, so nothing reads its variable. [`Knobs::parse`] keeps an
//! ignored argument in its place.

use std::sync::OnceLock;

/// The workspace's environment knobs, parsed once per process.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Knobs {
    /// `MMDIAG_POOL_THREADS` — worker count for the process-wide pool,
    /// clamped to `1..=64`. `None` when unset or unparsable.
    pub pool_threads: Option<usize>,
    /// `MMDIAG_CUTOVER` — operator pin for the default session cutover
    /// (`mmdiag_core::Cutovers::default().sequential`): the node count
    /// below which an auto batch runs in order instead of fanning out. It
    /// gates only batch fan-out; single runs never use a pool. `None` when
    /// unset, unparsable, or zero.
    pub cutover: Option<usize>,
    /// `MMDIAG_QUICK` — shrink every harness to its smoke subset. Set and
    /// non-empty and not `"0"` means `true`.
    pub quick: bool,
    /// `MMDIAG_SAMPLES` — spot-checker samples per part. `None` when
    /// unset, unparsable, or zero.
    pub samples_per_part: Option<usize>,
    /// `MMDIAG_TRACE` — enable the `mmdiag-trace` observability layer
    /// process-wide: sessions trace by default and pools record
    /// per-worker stats. Same truthiness rules as `MMDIAG_QUICK`.
    pub trace: bool,
    /// `MMDIAG_STATS` — sampling interval, in milliseconds, for the
    /// fleet stats reporter (`mmdiag_exec::stats`): when set, consumers
    /// that host a [`mmdiag_trace::MetricsHub`] stream merged metric
    /// deltas as JSON lines at this cadence. `None` when unset,
    /// unparsable, or zero (no reporter).
    pub stats: Option<u64>,
    /// `MMDIAG_EPOCHS` — epoch count for online-monitoring harnesses
    /// (the bench `--online` axis and the `online_monitor` example).
    /// `None` when unset, unparsable, or zero — consumers fall back to
    /// their own per-mode default.
    pub epochs: Option<usize>,
}

impl Knobs {
    /// Parse raw variable values (as [`std::env::var`] would hand them
    /// over: `None` = unset) into a [`Knobs`]. Pure — the unit tests feed
    /// malformed strings here without mutating the process environment.
    /// One positional argument per `MMDIAG_*` variable, in declaration
    /// order — a struct-of-options would just move the same list. The
    /// sixth argument is retired (it was the grow-cutover knob) and
    /// ignored; it stays until the repository benchmark, which calls this
    /// with eight arguments, is updated.
    #[allow(clippy::too_many_arguments)]
    pub fn parse(
        pool_threads: Option<&str>,
        cutover: Option<&str>,
        quick: Option<&str>,
        samples: Option<&str>,
        trace: Option<&str>,
        _retired_grow_cutover: Option<&str>,
        stats: Option<&str>,
        epochs: Option<&str>,
    ) -> Self {
        let truthy = |v: Option<&str>| v.is_some_and(|v| !v.is_empty() && v != "0");
        let positive = |v: Option<&str>| {
            v.and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        Knobs {
            pool_threads: pool_threads
                .and_then(|v| v.trim().parse::<usize>().ok())
                .map(|n| n.clamp(1, 64)),
            cutover: positive(cutover),
            quick: truthy(quick),
            samples_per_part: positive(samples),
            trace: truthy(trace),
            stats: stats
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0),
            epochs: positive(epochs),
        }
    }

    /// Read the process environment (uncached — [`knobs`] is the cached
    /// front door).
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        Knobs::parse(
            get("MMDIAG_POOL_THREADS").as_deref(),
            get("MMDIAG_CUTOVER").as_deref(),
            get("MMDIAG_QUICK").as_deref(),
            get("MMDIAG_SAMPLES").as_deref(),
            get("MMDIAG_TRACE").as_deref(),
            None,
            get("MMDIAG_STATS").as_deref(),
            get("MMDIAG_EPOCHS").as_deref(),
        )
    }
}

/// The process-wide knobs, parsed from the environment on first call and
/// cached for the lifetime of the process. Every `MMDIAG_*` consumer in
/// the workspace reads through here, so one `export` affects them all
/// consistently — and none of them re-reads the environment afterwards.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(Knobs::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_environment_yields_defaults() {
        let k = Knobs::parse(None, None, None, None, None, None, None, None);
        assert_eq!(k.pool_threads, None);
        assert_eq!(k.cutover, None);
        assert!(!k.quick);
        assert_eq!(k.samples_per_part, None);
        assert!(!k.trace);
        assert_eq!(k.stats, None);
        assert_eq!(k.epochs, None);
    }

    #[test]
    fn epochs_parses_positive_integers_only() {
        let epochs = |v| Knobs::parse(None, None, None, None, None, None, None, v).epochs;
        assert_eq!(epochs(Some("24")), Some(24));
        assert_eq!(epochs(Some(" 8 ")), Some(8), "trimmed like the others");
        assert_eq!(
            epochs(Some("0")),
            None,
            "a zero-epoch monitor is no monitor"
        );
        for bad in ["", "abc", "-3", "1.5", "0x10", "1e3"] {
            assert_eq!(epochs(Some(bad)), None, "epochs {bad:?}");
        }
        assert_eq!(epochs(None), None);
    }

    #[test]
    fn well_formed_values_parse() {
        let k = Knobs::parse(
            Some("6"),
            Some("2048"),
            Some("1"),
            Some("5"),
            Some("1"),
            None,
            None,
            Some("32"),
        );
        assert_eq!(k.pool_threads, Some(6));
        assert_eq!(k.cutover, Some(2048));
        assert!(k.quick);
        assert_eq!(k.samples_per_part, Some(5));
        assert!(k.trace);
        assert_eq!(k.epochs, Some(32));
    }

    #[test]
    fn trace_flag_shares_quick_truthiness() {
        let trace = |v| Knobs::parse(None, None, None, None, v, None, None, None).trace;
        assert!(trace(Some("1")));
        assert!(trace(Some("chrome")));
        assert!(!trace(Some("0")));
        assert!(!trace(Some("")));
        assert!(!trace(None));
    }

    #[test]
    fn pool_threads_is_clamped_not_rejected() {
        assert_eq!(
            Knobs::parse(Some("0"), None, None, None, None, None, None, None).pool_threads,
            Some(1)
        );
        assert_eq!(
            Knobs::parse(Some("999"), None, None, None, None, None, None, None).pool_threads,
            Some(64)
        );
        // Whitespace survives the historical `.trim()` behaviour.
        assert_eq!(
            Knobs::parse(Some(" 4 "), None, None, None, None, None, None, None).pool_threads,
            Some(4)
        );
    }

    #[test]
    fn malformed_integers_are_ignored() {
        for bad in ["", "abc", "-3", "1.5", "0x10", "1e3", "१०"] {
            let k = Knobs::parse(
                Some(bad),
                Some(bad),
                None,
                Some(bad),
                None,
                None,
                None,
                None,
            );
            assert_eq!(k.pool_threads, None, "pool_threads {bad:?}");
            assert_eq!(k.cutover, None, "cutover {bad:?}");
            assert_eq!(k.samples_per_part, None, "samples {bad:?}");
        }
    }

    #[test]
    fn zero_cutover_and_zero_samples_are_rejected() {
        let k = Knobs::parse(None, Some("0"), None, Some("0"), None, None, None, None);
        assert_eq!(k.cutover, None, "a zero cutover would disable sequential");
        assert_eq!(k.samples_per_part, None);
    }

    #[test]
    fn retired_grow_cutover_argument_is_ignored() {
        let unset = Knobs::parse(None, None, None, None, None, None, None, None);
        for value in ["7", " 1048576 ", "0", "abc"] {
            let k = Knobs::parse(None, None, None, None, None, Some(value), None, None);
            assert_eq!(k, unset, "retired argument {value:?}");
        }
    }

    #[test]
    fn stats_interval_parses_positive_milliseconds_only() {
        let stats = |v| Knobs::parse(None, None, None, None, None, None, v, None).stats;
        assert_eq!(stats(Some("250")), Some(250));
        assert_eq!(stats(Some(" 50 ")), Some(50), "trimmed like the others");
        assert_eq!(stats(Some("0")), None, "zero would busy-spin the sampler");
        assert_eq!(stats(Some("abc")), None);
        assert_eq!(stats(Some("-5")), None);
        assert_eq!(stats(None), None);
    }

    #[test]
    fn quick_flag_semantics_match_the_historical_parse() {
        // The bench binary historically treated any non-empty value except
        // "0" as on — including junk like "false".
        assert!(Knobs::parse(None, None, Some("1"), None, None, None, None, None).quick);
        assert!(Knobs::parse(None, None, Some("yes"), None, None, None, None, None).quick);
        assert!(Knobs::parse(None, None, Some("false"), None, None, None, None, None).quick);
        assert!(!Knobs::parse(None, None, Some("0"), None, None, None, None, None).quick);
        assert!(!Knobs::parse(None, None, Some(""), None, None, None, None, None).quick);
        assert!(!Knobs::parse(None, None, None, None, None, None, None, None).quick);
    }

    #[test]
    fn from_env_agrees_with_knobs_cache() {
        // Whatever the test environment holds, the cached view and a fresh
        // read must agree (no knob is set in CI, so both are defaults).
        assert_eq!(*knobs(), Knobs::from_env());
    }
}
