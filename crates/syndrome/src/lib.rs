//! # mmdiag-syndrome
//!
//! The comparison (MM) diagnosis model machinery for the `mmdiag`
//! workspace: fault sets, test semantics, and syndrome representations.
//!
//! * [`fault::FaultSet`] — planted fault sets; [`fault::MemberSet`] — the
//!   same membership from `O(|F|)` state (sorted members behind a 1024-bit
//!   pre-filter);
//! * [`model`] — MM-model test semantics ([`model::ground_truth`]) and the
//!   adversarial faulty-tester conventions ([`model::TesterBehavior`]);
//! * [`source::SyndromeSource`] — how algorithms read syndromes: a source
//!   reads entries (one at a time, or a tester's row as a mask) and the
//!   reader counts them;
//! * [`table::SyndromeTable`] — the fully materialised syndrome (what
//!   Chiang–Tan-style algorithms consume);
//! * [`oracle::OracleSyndrome`] — the lazy per-test oracle (what
//!   `Set_Builder` drives, §6's minimise-the-tests setting);
//! * [`streaming::OnDemandOracle`] — the same oracle semantics from
//!   `O(|F|)` state (a `MemberSet`, no bitmap) for the 10⁶–10⁷-node
//!   implicit scale path.
#![forbid(unsafe_code)]

pub mod fault;
pub mod model;
pub mod oracle;
pub mod source;
pub mod streaming;
pub mod table;

pub use fault::{FaultSet, MemberSet};
pub use model::{behavior_sweep, ground_truth, outcome_from_flags, TestResult, TesterBehavior};
pub use oracle::OracleSyndrome;
pub use source::{row_mask, SyndromeSource, ROW};
pub use streaming::OnDemandOracle;
pub use table::SyndromeTable;
