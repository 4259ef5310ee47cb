//! Facade crate for the `mmdiag` workspace: the [`Diagnoser`] session
//! front door plus re-exports of every subsystem crate.
//!
//! ```
//! use mmdiag::Diagnoser;
//! use mmdiag::syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
//! use mmdiag::topology::families::Hypercube;
//!
//! let g = Hypercube::new(7);
//! let s = OracleSyndrome::new(FaultSet::new(128, &[3, 64]), TesterBehavior::AllZero);
//!
//! // The default session is `diagnose` — one builder call per
//! // policy turns on batch fan-out, verification, or simulation.
//! let report = Diagnoser::new(&g).auto().verify_full().run(&s).unwrap();
//! assert_eq!(report.diagnosis.faults, vec![3, 64]);
//! assert!(report.verification.agreed_or_unverified());
//! ```
#![forbid(unsafe_code)]

pub mod session;

pub use mmdiag_baselines as baselines;
pub use mmdiag_core as diagnosis;
pub use mmdiag_distsim as distsim;
pub use mmdiag_exec as exec;
pub use mmdiag_implicit as implicit;
pub use mmdiag_monitor as monitor;
pub use mmdiag_syndrome as syndrome;
pub use mmdiag_topology as topology;
pub use mmdiag_trace as trace;

pub use mmdiag_core::{
    BackendPolicy, Certificate, DiagnosisError, DiagnosisReport, PhaseTelemetry,
    VerificationVerdict,
};
pub use mmdiag_monitor::{EpochReport, EscalationReason, MonitorSession};
pub use session::{
    BatchJob, Diagnoser, RunError, RunMode, RunOutcome, TopologySource, VerificationPolicy,
};
