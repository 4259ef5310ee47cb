//! Parsed-once environment knobs for the whole workspace.
//!
//! This module is the single reader of the process environment: [`knobs`]
//! parses it exactly once (behind a `OnceLock`) into a plain [`Knobs`]
//! struct, and every consumer asks that struct. The parse rules are pure
//! functions of the raw strings ([`Knobs::parse`]), so malformed-value
//! behaviour is unit-testable without touching the process environment:
//!
//! | Variable | Accepted | Malformed / unset |
//! | --- | --- | --- |
//! | `MMDIAG_POOL_THREADS` | integer, clamped to `1..=64` | ignored (`None`) |
//! | `MMDIAG_QUICK` | any non-empty value except `"0"` | `false` |
//!
//! Neither knob changes what a run computes. The first sizes the global
//! pool, a deployment setting; the second shrinks the harnesses to their
//! smoke subsets. No variable changes a diagnosis, a batch's fan-out
//! decision or a session's instrumentation: tracing is
//! `Diagnoser::trace` or `Diagnoser::stats`, pool counters come from
//! [`crate::Pool::new_instrumented`] or [`crate::Pool::new_profiled`],
//! and the batch cutover is the constant `SEQUENTIAL_CUTOVER_NODES`.
//!
//! The other six arguments of [`Knobs::parse`] are retired and ignored:
//! the batch cutover, the spot-checker's samples per part, process-wide
//! tracing, the grow cutover, the stats interval and the epoch count.
//! They stay until the repository benchmark, which calls it with eight
//! arguments, is updated.

use std::sync::OnceLock;

/// The workspace's environment knobs, parsed once per process.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Knobs {
    /// `MMDIAG_POOL_THREADS` — worker count for the process-wide pool,
    /// clamped to `1..=64`. `None` when unset or unparsable.
    pub pool_threads: Option<usize>,
    /// `MMDIAG_QUICK` — shrink every harness to its smoke subset. Set and
    /// non-empty and not `"0"` means `true`.
    pub quick: bool,
}

impl Knobs {
    /// Parse raw variable values (as [`std::env::var`] would hand them
    /// over: `None` = unset) into a [`Knobs`]. Pure — the unit tests feed
    /// malformed strings here without mutating the process environment.
    /// The first and third arguments are `MMDIAG_POOL_THREADS` and
    /// `MMDIAG_QUICK`; the other six are retired and ignored (see the
    /// module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn parse(
        pool_threads: Option<&str>,
        _retired_cutover: Option<&str>,
        quick: Option<&str>,
        _retired_samples: Option<&str>,
        _retired_trace: Option<&str>,
        _retired_grow_cutover: Option<&str>,
        _retired_stats: Option<&str>,
        _retired_epochs: Option<&str>,
    ) -> Self {
        Knobs {
            pool_threads: pool_threads
                .and_then(|v| v.trim().parse::<usize>().ok())
                .map(|n| n.clamp(1, 64)),
            quick: quick.is_some_and(|v| !v.is_empty() && v != "0"),
        }
    }

    /// Read the process environment (uncached — [`knobs`] is the cached
    /// front door).
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        Knobs::parse(
            get("MMDIAG_POOL_THREADS").as_deref(),
            None,
            get("MMDIAG_QUICK").as_deref(),
            None,
            None,
            None,
            None,
            None,
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
        assert!(!k.quick);
    }

    #[test]
    fn well_formed_values_parse() {
        let k = Knobs::parse(Some("6"), None, Some("1"), None, None, None, None, None);
        assert_eq!(k.pool_threads, Some(6));
        assert!(k.quick);
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
            let k = Knobs::parse(Some(bad), None, None, None, None, None, None, None);
            assert_eq!(k.pool_threads, None, "pool_threads {bad:?}");
        }
    }

    #[test]
    fn retired_grow_cutover_argument_is_ignored() {
        // Every retired position, with any value, parses to the unset
        // knobs: no variable but the two live ones reaches a run.
        let unset = Knobs::parse(None, None, None, None, None, None, None, None);
        for value in ["7", " 1048576 ", "0", "1", "abc", ""] {
            let v = Some(value);
            let each = [
                Knobs::parse(None, v, None, None, None, None, None, None),
                Knobs::parse(None, None, None, v, None, None, None, None),
                Knobs::parse(None, None, None, None, v, None, None, None),
                Knobs::parse(None, None, None, None, None, v, None, None),
                Knobs::parse(None, None, None, None, None, None, v, None),
                Knobs::parse(None, None, None, None, None, None, None, v),
                Knobs::parse(None, v, None, v, v, v, v, v),
            ];
            for (position, k) in each.iter().enumerate() {
                assert_eq!(*k, unset, "retired argument {value:?} at case {position}");
            }
        }
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
        // read must agree.
        assert_eq!(*knobs(), Knobs::from_env());
    }
}
