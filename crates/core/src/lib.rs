//! # mmdiag-core
//!
//! The paper's primary contribution: a general `O(Δ·N)` algorithm for the
//! fault diagnosis problem under the comparison (MM) diagnosis model
//! (Stewart, IPDPS 2010).
//!
//! * [`mod@set_builder`] — the §4.1 `Set_Builder` procedure (unrestricted and
//!   part-restricted), with its spanning-tree artifact and contributor
//!   accounting;
//! * [`tree`] — the tree `T` described by the parent function `t`;
//! * [`memo`] — the last growth tree kept across syndromes
//!   ([`GrowthMemo`]): the next growth from the same seed re-witnesses it
//!   one entry per node and repairs it in place, bit-identical to a full
//!   walk (the epoch monitor's growth);
//! * [`driver`] — the Theorem-1 driver: probe part representatives, certify
//!   an all-healthy seed, grow `U_r`, output `N(U_r) = F`;
//! * [`session`] — the canonical, phase-instrumented implementation:
//!   per-phase telemetry, the §4.1 certificate artifact, batch
//!   submissions (the substrate of the umbrella crate's
//!   `mmdiag::Diagnoser` front door);
//! * [`backend`] — execution policy, a batch setting: every run executes
//!   on the calling thread, and batches run in order, fan out over a
//!   worker pool, or choose by size ([`BackendPolicy`], against per-run
//!   [`Cutovers`]).
//!
//! One session run returns the full [`session::DiagnosisReport`] — the
//! classic [`Diagnosis`] plus the certificate and per-phase telemetry:
//!
//! ```
//! use mmdiag_core::session::run_with;
//! use mmdiag_core::SessionOptions;
//! use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
//! use mmdiag_topology::families::Hypercube;
//!
//! // A 7-dimensional hypercube with three faulty processors.
//! let g = Hypercube::new(7);
//! let faults = FaultSet::new(128, &[3, 64, 90]);
//! let syndrome = OracleSyndrome::new(faults, TesterBehavior::Random { seed: 1 });
//!
//! // No workspace pool given: the run takes a transient workspace.
//! let report = run_with(&g, &syndrome, &SessionOptions::default(), None).unwrap();
//! assert_eq!(report.diagnosis.faults, vec![3, 64, 90]);
//! // The certificate is the restricted probe tree that certified.
//! assert_eq!(report.certificate.part, report.diagnosis.certified_part);
//! // Phase lookup accounting splits the classic total exactly.
//! assert_eq!(
//!     report.telemetry.probe_lookups + report.telemetry.grow_lookups,
//!     report.diagnosis.lookups_used,
//! );
//!
//! // The free function is a thin wrapper over the same sequential run:
//! let diagnosis = mmdiag_core::diagnose(&g, &syndrome).unwrap();
//! assert_eq!(diagnosis.faults, report.diagnosis.faults);
//! ```
#![forbid(unsafe_code)]

pub mod backend;
pub mod driver;
mod grow;
pub mod memo;
#[cfg(test)]
mod reference;
pub mod session;
pub mod set_builder;
pub mod tree;

pub use backend::{BackendPolicy, Cutovers, WorkspacePool, SEQUENTIAL_CUTOVER_NODES};
pub use driver::{diagnose, Diagnosis, DiagnosisError};
pub use memo::GrowthMemo;
pub use session::{
    grow_from_certificate, probe_part, Certificate, DiagnosisReport, GrowRound, PartProbe,
    PhaseTelemetry, SessionOptions, VerificationVerdict,
};
pub use set_builder::{
    lookup_bound, set_builder, set_builder_filtered, set_builder_in_part, SetBuilderOutcome,
    Workspace,
};
pub use tree::SpanningTree;
