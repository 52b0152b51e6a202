//! # qismet-vqa
//!
//! The VQA (variational quantum algorithm) framework of the QISMET
//! reproduction (ASPLOS 2023): everything a VQE needs short of the QISMET
//! controller itself (which lives in the `qismet` core crate):
//!
//! * [`Ansatz`] — hardware-efficient `EfficientSU2` / `RealAmplitudes`
//!   circuit families with configurable repetitions and entanglement.
//! * [`Tfim`] — the paper's primary Hamiltonian (1-D transverse-field Ising
//!   model) with dense **and** free-fermion exact solutions.
//! * [`ExactObjective`] / [`NoisyObjective`] — the objective pipeline: exact
//!   expectation (through the pluggable `qismet_qsim::Backend` layer),
//!   static-noise attenuation, shot noise, and per-job transient injection
//!   per Section 6.2 of the paper.
//! * [`JobRequest`] / [`JobResult`] — one iteration's evaluations assembled
//!   into one job (the Fig. 7 job structure); the points the objective has
//!   not evaluated recently go to the backend as a single batch.
//! * [`run_tuning`] — the Baseline / Blocking tuning loops over any
//!   [`qismet_optim::Proposer`].
//! * [`AppSpec`] — the Table 1 application registry (App1-App6).
//! * Metrics ([`relative_expectation`], [`count_spikes`], ...) used by the
//!   evaluation harnesses.
//!
//! # Examples
//!
//! Running a short baseline VQE on App2:
//!
//! ```
//! use qismet_vqa::{run_tuning, AppSpec, TuningScheme};
//! use qismet_optim::{GainSchedule, Spsa};
//!
//! let mut app = AppSpec::by_id(2).unwrap().build(200, Some(0.1), 42);
//! let mut spsa = Spsa::new(app.theta0.len(), GainSchedule::spall_default(), 1);
//! let record = run_tuning(
//!     &mut spsa,
//!     &mut app.objective,
//!     app.theta0.clone(),
//!     50,
//!     TuningScheme::Baseline,
//! );
//! assert_eq!(record.measured.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ansatz;
mod apps;
mod history;
mod job;
mod objective;
mod qaoa;
mod runner;
mod tfim;

pub use ansatz::{Ansatz, AnsatzKind, CompiledAnsatz, Entanglement};
pub use apps::{AppInstance, AppSpec};
pub use history::{
    approximation_ratio, count_spikes, improvement_percent, relative_expectation, summarize,
    RunSummary,
};
pub use job::{JobLayout, JobRequest, JobResult};
pub use objective::{
    execute_lockstep, ExactObjective, NoisyObjective, NoisyObjectiveConfig, ObjectiveError,
};
pub use qaoa::{
    approximation_ratio as qaoa_approximation_ratio, maxcut_hamiltonian, qaoa_circuit, Graph,
};
pub use runner::{run_tuning, run_tuning_lockstep, RunRecord, TuningLane, TuningScheme};
pub use tfim::{Boundary, Tfim};
