//! The comparison (MM) diagnosis model of Malek and Maeng \[18, 19\], as
//! formalised in §2 of the paper.
//!
//! Every node `u` tests every pair `{v, w}` of its neighbours by sending
//! both a test message and comparing the replies. The recorded result
//! `s_u(v, w)` is:
//!
//! * for a **healthy** tester `u`: `0` iff both `v` and `w` are healthy.
//!   (The model assumes faults are permanent and that a faulty node always
//!   answers incorrectly, so two faulty nodes never produce identical
//!   replies and a faulty/healthy pair always differs.)
//! * for a **faulty** tester `u`: arbitrary — no reliance can be placed on
//!   it. [`TesterBehavior`] enumerates the adversarial conventions the
//!   generators support.

use crate::fault::FaultSet;
use crate::source::row_mask;
use mmdiag_topology::NodeId;

/// A single comparison outcome: `Agree` encodes `s_u(v,w) = 0`,
/// `Disagree` encodes `s_u(v,w) = 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestResult {
    /// Replies matched (`0`): a healthy tester proclaims both healthy.
    Agree,
    /// Replies differed (`1`): a healthy tester proclaims ≥ 1 faulty.
    Disagree,
}

impl TestResult {
    /// The `0`/`1` encoding used in the paper.
    pub fn as_bit(self) -> u8 {
        match self {
            TestResult::Agree => 0,
            TestResult::Disagree => 1,
        }
    }

    /// Inverse of [`TestResult::as_bit`].
    pub fn from_bit(b: u8) -> Self {
        if b == 0 {
            TestResult::Agree
        } else {
            TestResult::Disagree
        }
    }

    /// Whether this is `Agree` (`0`).
    pub fn is_agree(self) -> bool {
        matches!(self, TestResult::Agree)
    }
}

/// How a *faulty* tester fills in its (unreliable) comparison results.
///
/// The MM model leaves these results arbitrary, so a correct diagnosis
/// algorithm must work under every convention below; the test-suites sweep
/// all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TesterBehavior {
    /// Always report `0` ("everyone looks healthy") — the adversarial case
    /// for `Set_Builder`, which grows sets along `0`-results: faulty
    /// testers try to inflate fake healthy trees.
    AllZero,
    /// Always report `1` — tries to make healthy neighbourhoods look
    /// suspicious.
    AllOne,
    /// Report the *correct* result despite being faulty — legal under the
    /// model ("no reliance" cuts both ways) and a useful degenerate case.
    Truthful,
    /// Report the negation of the correct result.
    Inverted,
    /// Deterministic pseudo-random results keyed on `(seed, u, {v,w})`.
    Random {
        /// Seed mixed into the per-test hash.
        seed: u64,
    },
}

/// The ground-truth MM-model result of test `s_u(v, w)` given the fault
/// set. Symmetric in `v, w` by construction.
pub fn ground_truth(
    faults: &FaultSet,
    u: NodeId,
    v: NodeId,
    w: NodeId,
    behavior: TesterBehavior,
) -> TestResult {
    outcome_from_flags(
        faults.contains(u),
        faults.contains(v),
        faults.contains(w),
        u,
        v,
        w,
        behavior,
    )
}

/// [`ground_truth`] with the three fault-membership bits already resolved —
/// the shared kernel behind every syndrome generator. Factoring the MM
/// semantics out of [`crate::fault::FaultSet`] is what lets the streaming
/// [`crate::streaming::OnDemandOracle`] answer from `O(|F|)` state (a
/// sorted member list) while staying bit-identical to the bitmap-backed
/// oracle: both funnel through this one function, and their rows through
/// `row_from_flags`, which applies its honest case a row at a time.
pub fn outcome_from_flags(
    u_faulty: bool,
    v_faulty: bool,
    w_faulty: bool,
    u: NodeId,
    v: NodeId,
    w: NodeId,
    behavior: TesterBehavior,
) -> TestResult {
    debug_assert_ne!(v, w, "MM tests compare two distinct neighbours");
    let honest = if v_faulty || w_faulty {
        TestResult::Disagree
    } else {
        TestResult::Agree
    };
    if !u_faulty {
        return honest;
    }
    match behavior {
        TesterBehavior::AllZero => TestResult::Agree,
        TesterBehavior::AllOne => TestResult::Disagree,
        TesterBehavior::Truthful => honest,
        TesterBehavior::Inverted => {
            if honest.is_agree() {
                TestResult::Disagree
            } else {
                TestResult::Agree
            }
        }
        TesterBehavior::Random { seed } => {
            let (a, b) = if v < w { (v, w) } else { (w, v) };
            let h = mix(seed ^ mix(u as u64) ^ mix((a as u64) << 1) ^ mix((b as u64) << 2));
            TestResult::from_bit((h & 1) as u8)
        }
    }
}

/// [`outcome_from_flags`] over tester `u`'s row `s_u(v, ws[i])`, as the
/// disagreement mask of [`crate::SyndromeSource::read_row`], with the
/// flags of `u` and `v` resolved once. A healthy tester's row is the
/// mask of its faulty entries, all ones when `v` is faulty; a faulty
/// tester's takes the kernel per entry.
pub(crate) fn row_from_flags(
    is_faulty: impl Fn(NodeId) -> bool,
    u: NodeId,
    v: NodeId,
    ws: &[NodeId],
    behavior: TesterBehavior,
) -> u64 {
    let (u_faulty, v_faulty) = (is_faulty(u), is_faulty(v));
    if !u_faulty {
        return row_mask(ws, |w| v_faulty || is_faulty(w));
    }
    row_mask(ws, |w| {
        !outcome_from_flags(true, v_faulty, is_faulty(w), u, v, w, behavior).is_agree()
    })
}

/// SplitMix64 finaliser — a cheap, well-distributed 64-bit mixer used to
/// derandomise faulty-tester answers reproducibly.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// All deterministic behaviours plus one seeded random behaviour — the
/// sweep used by correctness tests.
pub fn behavior_sweep(seed: u64) -> [TesterBehavior; 5] {
    [
        TesterBehavior::AllZero,
        TesterBehavior::AllOne,
        TesterBehavior::Truthful,
        TesterBehavior::Inverted,
        TesterBehavior::Random { seed },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults() -> FaultSet {
        FaultSet::new(6, &[3, 4])
    }

    #[test]
    fn healthy_tester_reports_pair_health() {
        let f = faults();
        for b in behavior_sweep(1) {
            // u = 0 healthy; v = 1, w = 2 healthy -> Agree.
            assert_eq!(ground_truth(&f, 0, 1, 2, b), TestResult::Agree);
            // one faulty neighbour -> Disagree.
            assert_eq!(ground_truth(&f, 0, 1, 3, b), TestResult::Disagree);
            // both faulty -> Disagree (faulty replies never coincide).
            assert_eq!(ground_truth(&f, 0, 3, 4, b), TestResult::Disagree);
        }
    }

    #[test]
    fn faulty_tester_behaviours() {
        let f = faults();
        assert_eq!(
            ground_truth(&f, 3, 0, 1, TesterBehavior::AllZero),
            TestResult::Agree
        );
        assert_eq!(
            ground_truth(&f, 3, 0, 1, TesterBehavior::AllOne),
            TestResult::Disagree
        );
        assert_eq!(
            ground_truth(&f, 3, 0, 1, TesterBehavior::Truthful),
            TestResult::Agree
        );
        assert_eq!(
            ground_truth(&f, 3, 0, 1, TesterBehavior::Inverted),
            TestResult::Disagree
        );
    }

    #[test]
    fn random_behaviour_is_symmetric_and_deterministic() {
        let f = faults();
        let b = TesterBehavior::Random { seed: 99 };
        for v in 0..6 {
            for w in 0..6 {
                if v == w {
                    continue;
                }
                let r1 = ground_truth(&f, 3, v, w, b);
                let r2 = ground_truth(&f, 3, w, v, b);
                assert_eq!(r1, r2, "asymmetric result for ({v},{w})");
                assert_eq!(r1, ground_truth(&f, 3, v, w, b));
            }
        }
    }

    #[test]
    fn random_behaviour_actually_varies() {
        let f = FaultSet::new(64, &[0]);
        let b = TesterBehavior::Random { seed: 7 };
        let mut zeros = 0;
        let mut ones = 0;
        for v in 1..64 {
            for w in (v + 1)..64 {
                match ground_truth(&f, 0, v, w, b) {
                    TestResult::Agree => zeros += 1,
                    TestResult::Disagree => ones += 1,
                }
            }
        }
        assert!(zeros > 500 && ones > 500, "zeros={zeros} ones={ones}");
    }

    #[test]
    fn bit_roundtrip() {
        assert_eq!(TestResult::from_bit(0).as_bit(), 0);
        assert_eq!(TestResult::from_bit(1).as_bit(), 1);
        assert!(TestResult::Agree.is_agree());
        assert!(!TestResult::Disagree.is_agree());
    }
}
