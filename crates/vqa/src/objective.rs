//! VQE objective evaluators, from ideal to transient-noisy.
//!
//! The noisy evaluator mirrors the paper's simulation methodology
//! (Section 6.2): the ideal expectation is computed exactly, the **static**
//! device noise enters as a multiplicative attenuation of the traceless part
//! (the global-depolarizing contraction validated against the density-matrix
//! backend), finite shots add Gaussian estimator noise, and the **transient**
//! component is looked up from a [`TransientTrace`] keyed by the quantum-job
//! counter and applied as an extra attenuation of the signal, "normalized to
//! the magnitude of the VQA estimations".
//!
//! Evaluations within one job share the job's transient value up to a
//! within-job spread — the same physical event hits every circuit in the
//! job, but not perfectly identically (paper Fig. 6: individual candidates
//! are perturbed differently). QISMET's estimator feeds on exactly this
//! structure.

use crate::ansatz::{Ansatz, CompiledAnsatz};
use crate::job::{JobLayout, JobRequest, JobResult};
use qismet_mathkit::{normal, rng_from_seed};
use qismet_qnoise::{StaticNoiseModel, TransientTrace};
use qismet_qsim::{Backend, CachedStatevectorBackend, CompiledObservable, PauliSum};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::fmt;

/// Typed failure of a noisy measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectiveError {
    /// The transient trace has no slot for the requested quantum job.
    /// Allocate traces with headroom for QISMET retries (the harnesses use
    /// ~4x the iteration count) or stop the run when
    /// [`NoisyObjective::jobs_remaining`] hits zero.
    TraceExhausted {
        /// The job index that was requested.
        job: usize,
        /// The trace's capacity in jobs.
        capacity: usize,
    },
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::TraceExhausted { job, capacity } => write!(
                f,
                "transient trace exhausted: job {job} requested but the trace holds \
                 {capacity} slots (allocate headroom for retries)"
            ),
        }
    }
}

impl std::error::Error for ObjectiveError {}

/// Exact, noise-free objective (the paper's "Noise-free" reference).
///
/// The ansatz is lowered once into a [`CompiledAnsatz`] and the Hamiltonian
/// into a [`CompiledObservable`] at construction; each evaluation then
/// rebinds the plan in place and executes it through the pluggable
/// [`Backend`] — no circuit binding, no gate re-dispatch, no per-term state
/// sweeps, and (with the default buffer-reusing
/// [`CachedStatevectorBackend`]) no allocation at all per parameter point.
pub struct ExactObjective {
    ansatz: Ansatz,
    hamiltonian: PauliSum,
    compiled: RefCell<CompiledAnsatz>,
    observable: CompiledObservable,
    backend: RefCell<Box<dyn Backend>>,
}

impl Clone for ExactObjective {
    fn clone(&self) -> Self {
        ExactObjective {
            ansatz: self.ansatz.clone(),
            hamiltonian: self.hamiltonian.clone(),
            compiled: RefCell::new(self.compiled.borrow().clone()),
            observable: self.observable.clone(),
            backend: RefCell::new(self.backend.borrow().clone()),
        }
    }
}

impl fmt::Debug for ExactObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactObjective")
            .field("ansatz", &self.ansatz)
            .field("hamiltonian", &self.hamiltonian)
            .field("backend", &self.backend.borrow().name())
            .finish()
    }
}

impl ExactObjective {
    /// Creates the evaluator on the default cached statevector backend.
    ///
    /// # Panics
    ///
    /// Panics on qubit-width mismatch.
    pub fn new(ansatz: Ansatz, hamiltonian: PauliSum) -> Self {
        Self::with_backend(
            ansatz,
            hamiltonian,
            Box::new(CachedStatevectorBackend::new()),
        )
    }

    /// Creates the evaluator on an explicit execution backend.
    ///
    /// # Panics
    ///
    /// Panics on qubit-width mismatch.
    pub fn with_backend(ansatz: Ansatz, hamiltonian: PauliSum, backend: Box<dyn Backend>) -> Self {
        assert_eq!(
            ansatz.n_qubits(),
            hamiltonian.n_qubits(),
            "ansatz and Hamiltonian width"
        );
        let compiled = RefCell::new(ansatz.compile());
        let observable = CompiledObservable::compile(&hamiltonian);
        ExactObjective {
            ansatz,
            hamiltonian,
            compiled,
            observable,
            backend: RefCell::new(backend),
        }
    }

    /// The ansatz.
    pub fn ansatz(&self) -> &Ansatz {
        &self.ansatz
    }

    /// The Hamiltonian.
    pub fn hamiltonian(&self) -> &PauliSum {
        &self.hamiltonian
    }

    /// Name of the execution backend in use.
    pub fn backend_name(&self) -> &'static str {
        self.backend.borrow().name()
    }

    /// Evaluates `<psi(theta)| H |psi(theta)>` exactly, by rebinding the
    /// compiled plan in place — the allocation-free hot path.
    ///
    /// # Panics
    ///
    /// Panics if `params` is shorter than the ansatz requires.
    pub fn eval(&self, params: &[f64]) -> f64 {
        self.backend
            .borrow_mut()
            .evaluate_plan(
                self.compiled.borrow_mut().plan_mut(),
                params,
                &self.observable,
            )
            .expect("parameter count")
    }

    /// Evaluates many parameter vectors as **one backend batch**, in order
    /// (an empty list makes no backend call). Results are bitwise identical
    /// to calling [`ExactObjective::eval`] per point (the [`Backend`]
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics if any parameter vector is shorter than the ansatz requires.
    pub fn eval_batch(&self, params_list: &[Vec<f64>]) -> Vec<f64> {
        if params_list.is_empty() {
            return Vec::new();
        }
        self.backend
            .borrow_mut()
            .evaluate_plan_batch(
                self.compiled.borrow_mut().plan_mut(),
                params_list,
                &self.observable,
            )
            .expect("parameter count")
    }
}

/// Entries in a [`NoisyObjective`]'s ideal-energy memo. One job touches at
/// most five distinct points (a Resampling gradient's four plus the
/// candidate; for QISMET two SPSA points, the rerun and the candidate), and
/// the tracked parameters are used every iteration, so eight entries hold
/// one job and the incumbent with room to spare.
const IDEAL_MEMO_CAPACITY: usize = 8;

/// `true` when two parameter vectors are the same bit for bit (so `0.0` and
/// `-0.0` differ, and a NaN matches only its own bit pattern).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The [`IDEAL_MEMO_CAPACITY`] most recently used ideal energies of one
/// trajectory, keyed by the parameter vector's bits. A hit refreshes its
/// entry, so the tracked parameters (re-read every iteration by the exact
/// series) stay resident through any run of rejected candidates; the least
/// recently used entry is evicted.
///
/// A hit is bitwise what re-evaluating the point would return: plan
/// execution is deterministic and independent of batch grouping (the
/// [`Backend`] contract). The memo only skips the statevector run; the
/// noise stack, the RNG draws and the eval counter are unchanged.
#[derive(Debug, Clone, Default)]
struct IdealMemo {
    /// `(params, ideal)`, least recently used first.
    entries: Vec<(Vec<f64>, f64)>,
}

impl IdealMemo {
    fn get(&mut self, params: &[f64]) -> Option<f64> {
        let i = self
            .entries
            .iter()
            .rposition(|(k, _)| same_bits(k, params))?;
        self.entries[i..].rotate_left(1);
        self.entries.last().map(|&(_, v)| v)
    }

    /// Stores `params`' ideal energy as the most recently used entry,
    /// unless the memo already holds that key (a point a batch repeated).
    fn insert(&mut self, params: &[f64], ideal: f64) {
        if self.entries.iter().any(|(k, _)| same_bits(k, params)) {
            return;
        }
        if self.entries.len() < IDEAL_MEMO_CAPACITY {
            self.entries.push((params.to_vec(), ideal));
        } else {
            // Reuse the evicted entry's key buffer.
            self.entries.rotate_left(1);
            let (key, value) = self.entries.last_mut().expect("memo is full");
            key.clear();
            key.extend_from_slice(params);
            *value = ideal;
        }
    }

    /// Resolves `points` against the memo: each point's ideal energy if the
    /// memo holds it, else `None`, with the point appended to `misses`.
    fn lookup(&mut self, points: &[Vec<f64>], misses: &mut Vec<Vec<f64>>) -> Vec<Option<f64>> {
        points
            .iter()
            .map(|p| {
                let hit = self.get(p);
                if hit.is_none() {
                    misses.push(p.clone());
                }
                hit
            })
            .collect()
    }

    /// Fills a [`IdealMemo::lookup`]'s gaps from `ideals` (the evaluated
    /// misses, in order), stores them, and returns every point's ideal
    /// energy in submission order.
    fn settle(
        &mut self,
        points: &[Vec<f64>],
        known: Vec<Option<f64>>,
        ideals: &mut impl Iterator<Item = f64>,
    ) -> Vec<f64> {
        points
            .iter()
            .zip(known)
            .map(|(p, hit)| {
                hit.unwrap_or_else(|| {
                    let ideal = ideals.next().expect("one ideal per miss");
                    self.insert(p, ideal);
                    ideal
                })
            })
            .collect()
    }
}

/// Configuration for the noisy objective.
#[derive(Debug, Clone)]
pub struct NoisyObjectiveConfig {
    /// Static device model (drives the attenuation factor).
    pub static_model: StaticNoiseModel,
    /// Transient trace keyed by job index.
    pub trace: TransientTrace,
    /// Reference magnitude the trace is normalized to; typically the |exact
    /// ground energy| of the target Hamiltonian.
    pub magnitude_ref: f64,
    /// Standard deviation of shot (sampling) noise on each evaluation.
    pub shot_sigma: f64,
    /// Relative spread of the transient across evaluations within one job.
    pub within_job_spread: f64,
    /// RNG seed for shot noise and within-job spread.
    pub seed: u64,
}

/// The transient-noisy objective of the paper's simulator.
///
/// Ideal energies go through a small per-objective memo: a QISMET rerun, a
/// repeated job's optimizer points and the analysis-only exact series
/// re-read the value the trajectory already computed instead of running the
/// circuit again. Every noisy measurement still draws fresh noise and counts
/// in [`NoisyObjective::evals`].
///
/// # Examples
///
/// ```
/// use qismet_vqa::{Ansatz, AnsatzKind, Entanglement, NoisyObjective,
///                  NoisyObjectiveConfig, Tfim};
/// use qismet_qnoise::{StaticNoiseModel, TransientModel};
/// use qismet_mathkit::rng_from_seed;
///
/// let tfim = Tfim::paper_6q();
/// let h = tfim.hamiltonian();
/// let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
/// let trace = TransientModel::moderate(0.1).generate(&mut rng_from_seed(1), 100);
/// let cfg = NoisyObjectiveConfig {
///     static_model: StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3, 0.02),
///     trace,
///     magnitude_ref: tfim.exact_ground_energy().unwrap().abs(),
///     shot_sigma: 0.02,
///     within_job_spread: 0.25,
///     seed: 7,
/// };
/// let mut obj = NoisyObjective::new(ansatz, h, cfg);
/// let params = vec![0.0; obj.exact().ansatz().n_params()];
/// let noisy = obj.measure(&params);
/// assert!(noisy.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct NoisyObjective {
    exact: ExactObjective,
    attenuation: f64,
    identity_offset: f64,
    trace: TransientTrace,
    magnitude_ref: f64,
    shot_sigma: f64,
    within_job_spread: f64,
    rng: StdRng,
    job: usize,
    evals: u64,
    memo: RefCell<IdealMemo>,
}

impl NoisyObjective {
    /// Builds the noisy evaluator on the default cached statevector
    /// backend. The static attenuation factor is computed once from the
    /// ansatz shape (gate counts and durations do not depend on the bound
    /// angles).
    pub fn new(ansatz: Ansatz, hamiltonian: PauliSum, cfg: NoisyObjectiveConfig) -> Self {
        Self::with_backend(
            ansatz,
            hamiltonian,
            cfg,
            Box::new(CachedStatevectorBackend::new()),
        )
    }

    /// Like [`NoisyObjective::new`] but on an explicit circuit-execution
    /// [`Backend`].
    pub fn with_backend(
        ansatz: Ansatz,
        hamiltonian: PauliSum,
        cfg: NoisyObjectiveConfig,
        backend: Box<dyn Backend>,
    ) -> Self {
        let bound = ansatz
            .bind(&vec![0.0; ansatz.n_params()])
            .expect("zero binding");
        let attenuation = cfg.static_model.attenuation_factor(&bound);
        let identity_offset = hamiltonian.identity_coefficient();
        NoisyObjective {
            exact: ExactObjective::with_backend(ansatz, hamiltonian, backend),
            attenuation,
            identity_offset,
            trace: cfg.trace,
            magnitude_ref: cfg.magnitude_ref,
            shot_sigma: cfg.shot_sigma,
            within_job_spread: cfg.within_job_spread,
            rng: rng_from_seed(cfg.seed),
            job: 0,
            evals: 0,
            memo: RefCell::default(),
        }
    }

    /// The underlying exact evaluator.
    pub fn exact(&self) -> &ExactObjective {
        &self.exact
    }

    /// The static attenuation factor in effect.
    pub fn attenuation(&self) -> f64 {
        self.attenuation
    }

    /// The objective-magnitude reference the transient trace was normalized
    /// to (metadata; the multiplicative injection uses the instantaneous
    /// signal, which equals this scale near convergence).
    pub fn magnitude_ref(&self) -> f64 {
        self.magnitude_ref
    }

    /// Current job index (transient-trace key).
    pub fn job(&self) -> usize {
        self.job
    }

    /// Total objective evaluations performed (overhead accounting).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Advances to the next quantum job (next transient-trace slot).
    pub fn advance_job(&mut self) {
        self.job += 1;
    }

    /// The raw trace value for a job.
    ///
    /// # Panics
    ///
    /// Panics if the trace is exhausted.
    pub fn transient_at(&self, job: usize) -> f64 {
        self.trace.value(job)
    }

    /// Remaining trace capacity in jobs.
    pub fn jobs_remaining(&self) -> usize {
        self.trace.len().saturating_sub(self.job)
    }

    /// Noise-free expectation (for analysis plots; not available to tuners
    /// on real hardware).
    pub fn eval_exact(&self, params: &[f64]) -> f64 {
        let hit = self.memo.borrow_mut().get(params);
        hit.unwrap_or_else(|| {
            let ideal = self.exact.eval(params);
            self.memo.borrow_mut().insert(params, ideal);
            ideal
        })
    }

    /// Ideal energies of `points` in order; only the points the memo lacks
    /// reach the backend, as one batch.
    fn ideals(&mut self, points: &[Vec<f64>]) -> Vec<f64> {
        let mut misses = Vec::new();
        let memo = self.memo.get_mut();
        let known = memo.lookup(points, &mut misses);
        let ideals = self.exact.eval_batch(&misses);
        memo.settle(points, known, &mut ideals.into_iter())
    }

    /// Static-noise-only measurement (the paper's unrealistic "static only"
    /// blue line): attenuated signal plus shot noise, no transient term.
    pub fn measure_static_only(&mut self, params: &[f64]) -> f64 {
        self.evals += 1;
        let ideal = self.eval_exact(params);
        let signal = self.attenuation * (ideal - self.identity_offset);
        self.identity_offset + signal + normal(&mut self.rng, 0.0, self.shot_sigma)
    }

    /// Full measurement at the current job: static attenuation, transient
    /// attenuation from the trace, and shot noise.
    ///
    /// # Panics
    ///
    /// Panics if the transient trace is exhausted (allocate ~4x the
    /// iteration count to cover QISMET retries). Use
    /// [`NoisyObjective::try_measure`] to handle exhaustion as a typed
    /// error instead.
    pub fn measure(&mut self, params: &[f64]) -> f64 {
        self.try_measure(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`NoisyObjective::measure`], but reports trace exhaustion as
    /// [`ObjectiveError::TraceExhausted`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] when the current job index has no
    /// transient-trace slot; the measurement is not counted and no
    /// randomness is consumed.
    pub fn try_measure(&mut self, params: &[f64]) -> Result<f64, ObjectiveError> {
        let job = self.job;
        self.try_measure_at_job(params, job)
    }

    /// Full measurement pinned to an explicit job index (QISMET's executor
    /// uses this to evaluate reference reruns inside the current job).
    ///
    /// The transient acts as an **extra attenuation of the signal** — a
    /// temporary additional depolarization, exactly what a T1/T2 dip does to
    /// an expectation value. A trace value `v` (fraction of the objective
    /// magnitude, Section 6.2's normalization) multiplies the signal by
    /// `1 - v * wobble`, clamped to the physical band
    /// `[-0.25, 1.25]` (a transient cannot produce signal out of thin air;
    /// small overshoot accounts for readout artifacts).
    ///
    /// # Panics
    ///
    /// Panics if `job` exceeds the trace length; see
    /// [`NoisyObjective::try_measure_at_job`] for the typed variant.
    pub fn measure_at_job(&mut self, params: &[f64], job: usize) -> f64 {
        self.try_measure_at_job(params, job)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`NoisyObjective::measure_at_job`], but reports trace
    /// exhaustion as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] when `job` has no trace slot.
    pub fn try_measure_at_job(
        &mut self,
        params: &[f64],
        job: usize,
    ) -> Result<f64, ObjectiveError> {
        let ideal = self.eval_exact(params);
        self.noisy_from_ideal(ideal, job)
    }

    /// Applies the noise stack (static attenuation, transient attenuation,
    /// shot noise) to an ideal expectation at `job`. Shared by the per-call
    /// and batched paths so both consume the RNG identically.
    fn noisy_from_ideal(&mut self, ideal: f64, job: usize) -> Result<f64, ObjectiveError> {
        let v_job = self.trace.get(job).ok_or(ObjectiveError::TraceExhausted {
            job,
            capacity: self.trace.len(),
        })?;
        self.evals += 1;
        let signal = self.attenuation * (ideal - self.identity_offset);
        // Per-evaluation wobble of the shared job transient.
        let wobble = 1.0 + self.within_job_spread * qismet_mathkit::standard_normal(&mut self.rng);
        let tau = (1.0 - v_job * wobble).clamp(-0.25, 1.25);
        Ok(self.identity_offset + signal * tau + normal(&mut self.rng, 0.0, self.shot_sigma))
    }

    /// Executes a whole [`JobRequest`] — the unit the runners assemble per
    /// iteration (optimizer evaluations, plus the rerun circuit for
    /// QISMET) — as **one batched backend call** over the points the memo
    /// does not hold (no call when it holds them all), then applies the
    /// noise stack to each point in submission order.
    ///
    /// The RNG is consumed in exactly the order a sequence of
    /// [`NoisyObjective::measure`] calls would consume it, so batched and
    /// per-call execution produce bit-identical measured series.
    ///
    /// Under [`JobLayout::JobPerEval`] the job counter advances after every
    /// point; under [`JobLayout::SharedJob`] all points read the current
    /// job's transient slot and the caller advances the counter once the
    /// iteration concludes.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] if the trace runs out mid-batch
    /// (evaluations before the failing point are already accounted, exactly
    /// as the sequential path would have).
    pub fn execute(&mut self, request: &JobRequest) -> Result<JobResult, ObjectiveError> {
        let ideals = self.ideals(request.points());
        self.apply_noise_stack(ideals, request)
    }

    /// Applies this objective's noise stack to pre-computed ideal values in
    /// submission order — the back half of [`NoisyObjective::execute`],
    /// shared with the lockstep path so both consume the RNG and the job
    /// counter identically.
    fn apply_noise_stack(
        &mut self,
        ideals: Vec<f64>,
        request: &JobRequest,
    ) -> Result<JobResult, ObjectiveError> {
        let mut values = Vec::with_capacity(ideals.len());
        for ideal in ideals {
            let job = self.job;
            values.push(self.noisy_from_ideal(ideal, job)?);
            if request.layout() == JobLayout::JobPerEval {
                self.advance_job();
            }
        }
        Ok(JobResult::new(values, request.rerun_index()))
    }
}

/// Executes one [`JobRequest`] per independent trajectory (lane) as a
/// single cross-lane batched backend call: each lane resolves its points
/// against its own ideal-energy memo, the misses of every lane are
/// concatenated into one `evaluate_plan_batch` on lane 0's backend — where
/// the lane-batched statevector engine runs them in lockstep — and each
/// lane's noise stack is then applied in lane order.
///
/// Per-lane results, RNG streams, eval counters, and job counters are
/// **bitwise identical** to calling [`NoisyObjective::execute`] on each
/// lane sequentially: ideal evaluations are RNG-free and grouping-invariant
/// (the [`Backend`] batch contract), each lane's memo sees the same lookups
/// in the same order, and each lane's noise application consumes only that
/// lane's RNG in unchanged order.
///
/// All lanes must share one ansatz/Hamiltonian structure (independent
/// trajectories of the same scenario — each lane keeps its own angles,
/// seed, trace, and job counter).
///
/// # Errors
///
/// The first lane's [`ObjectiveError::TraceExhausted`], if any; earlier
/// lanes are already accounted, exactly as sequential execution would
/// leave them.
///
/// # Panics
///
/// Panics if `objectives` and `requests` differ in length or the lanes
/// disagree on ansatz width or parameter count.
pub fn execute_lockstep(
    objectives: &mut [&mut NoisyObjective],
    requests: &[JobRequest],
) -> Result<Vec<JobResult>, ObjectiveError> {
    assert_eq!(objectives.len(), requests.len(), "one request per lane");
    if objectives.is_empty() {
        return Ok(Vec::new());
    }
    let lead = objectives[0].exact.ansatz();
    let (n_qubits, n_params) = (lead.n_qubits(), lead.n_params());
    for obj in objectives.iter().skip(1) {
        assert_eq!(obj.exact.ansatz().n_qubits(), n_qubits, "lane ansatz width");
        assert_eq!(
            obj.exact.ansatz().n_params(),
            n_params,
            "lane parameter count"
        );
    }
    let mut misses = Vec::new();
    let lookups: Vec<Vec<Option<f64>>> = objectives
        .iter_mut()
        .zip(requests)
        .map(|(obj, req)| obj.memo.get_mut().lookup(req.points(), &mut misses))
        .collect();
    let mut ideals = objectives[0].exact.eval_batch(&misses).into_iter();
    let mut out = Vec::with_capacity(objectives.len());
    for ((obj, req), known) in objectives.iter_mut().zip(requests).zip(lookups) {
        let lane_ideals = obj.memo.get_mut().settle(req.points(), known, &mut ideals);
        out.push(obj.apply_noise_stack(lane_ideals, req)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{AnsatzKind, Entanglement};
    use crate::tfim::Tfim;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup(trace: TransientTrace, seed: u64) -> (NoisyObjective, f64) {
        setup_on(trace, seed, Box::new(CachedStatevectorBackend::new()))
    }

    fn setup_on(
        trace: TransientTrace,
        seed: u64,
        backend: Box<dyn Backend>,
    ) -> (NoisyObjective, f64) {
        let tfim = Tfim::paper_6q();
        let h = tfim.hamiltonian();
        let gs = tfim.exact_ground_energy().unwrap();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let cfg = NoisyObjectiveConfig {
            static_model: StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3, 0.02),
            trace,
            magnitude_ref: gs.abs(),
            shot_sigma: 0.02,
            within_job_spread: 0.25,
            seed,
        };
        (NoisyObjective::with_backend(ansatz, h, cfg, backend), gs)
    }

    #[test]
    fn exact_objective_reaches_ground_energy_bound() {
        let tfim = Tfim::paper_6q();
        let gs = tfim.exact_ground_energy().unwrap();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let obj = ExactObjective::new(ansatz, tfim.hamiltonian());
        let e0 = obj.eval(&vec![0.0; obj.ansatz().n_params()]);
        // Variational bound.
        assert!(e0 >= gs - 1e-9);
    }

    #[test]
    fn static_attenuation_contracts_toward_offset() {
        let trace = TransientTrace::zeros(10);
        let (mut obj, _) = setup(trace, 1);
        let params = obj.exact().ansatz().initial_params(5);
        let ideal = obj.eval_exact(&params);
        let mut noisy = Vec::new();
        for _ in 0..64 {
            noisy.push(obj.measure_static_only(&params));
        }
        let mean_noisy = qismet_mathkit::mean(&noisy);
        // TFIM identity offset is zero; attenuated |E| must shrink.
        assert!(mean_noisy.abs() < ideal.abs());
        assert!(
            (mean_noisy - obj.attenuation() * ideal).abs() < 0.05,
            "mean {mean_noisy} vs predicted {}",
            obj.attenuation() * ideal
        );
    }

    #[test]
    fn quiet_trace_measurement_matches_static_only() {
        let trace = TransientTrace::zeros(100);
        let (mut obj, _) = setup(trace, 2);
        let params = obj.exact().ansatz().initial_params(6);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..50 {
            a.push(obj.measure(&params));
            b.push(obj.measure_static_only(&params));
        }
        let ma = qismet_mathkit::mean(&a);
        let mb = qismet_mathkit::mean(&b);
        assert!((ma - mb).abs() < 0.02, "with-trace {ma} vs static {mb}");
    }

    #[test]
    fn adverse_transient_raises_energy_estimate() {
        // A trace pinned at +0.3 (30% of magnitude, adverse) on every job.
        let trace = TransientTrace::from_values(vec![0.3; 10]);
        let (mut obj, gs) = setup(trace, 3);
        // Use parameters that give a decently negative energy.
        let params = obj.exact().ansatz().initial_params(7);
        let ideal = obj.eval_exact(&params);
        let mut vals = Vec::new();
        for _ in 0..64 {
            vals.push(obj.measure(&params));
        }
        let mean = qismet_mathkit::mean(&vals);
        let static_pred = obj.attenuation() * ideal;
        assert!(
            mean > static_pred + 0.1,
            "transient should push energy up: {mean} vs {static_pred} (gs {gs})"
        );
    }

    #[test]
    fn job_advancement_changes_transient() {
        let mut values = vec![0.0; 10];
        values[3] = 0.5;
        let trace = TransientTrace::from_values(values);
        let (mut obj, _) = setup(trace, 4);
        let params = obj.exact().ansatz().initial_params(8);
        assert_eq!(obj.job(), 0);
        let quiet = obj.measure(&params);
        obj.advance_job();
        obj.advance_job();
        obj.advance_job();
        assert_eq!(obj.job(), 3);
        let burst: Vec<f64> = (0..32).map(|_| obj.measure(&params)).collect();
        let mean_burst = qismet_mathkit::mean(&burst);
        assert!(
            mean_burst > quiet + 0.2,
            "burst mean {mean_burst} vs quiet {quiet}"
        );
    }

    #[test]
    fn measure_at_job_pins_the_slot() {
        let mut values = vec![0.0; 10];
        values[5] = 0.8;
        let trace = TransientTrace::from_values(values);
        let (mut obj, _) = setup(trace, 5);
        let params = obj.exact().ansatz().initial_params(9);
        let at5: Vec<f64> = (0..32).map(|_| obj.measure_at_job(&params, 5)).collect();
        let at0: Vec<f64> = (0..32).map(|_| obj.measure_at_job(&params, 0)).collect();
        assert!(qismet_mathkit::mean(&at5) > qismet_mathkit::mean(&at0) + 0.2);
        // Pinning does not advance the job counter.
        assert_eq!(obj.job(), 0);
    }

    #[test]
    fn eval_counter_tracks_overhead() {
        let trace = TransientTrace::zeros(10);
        let (mut obj, _) = setup(trace, 6);
        let params = obj.exact().ansatz().initial_params(10);
        assert_eq!(obj.evals(), 0);
        let _ = obj.measure(&params);
        let _ = obj.measure_static_only(&params);
        assert_eq!(obj.evals(), 2);
    }

    #[test]
    fn exhausted_trace_is_a_typed_error_not_a_panic() {
        // Regression: trace exhaustion used to be an index-out-of-bounds
        // panic deep inside TransientTrace; it must surface as
        // ObjectiveError::TraceExhausted at the measure* boundary.
        let trace = TransientTrace::zeros(2);
        let (mut obj, _) = setup(trace, 8);
        let params = obj.exact().ansatz().initial_params(1);
        assert!(obj.try_measure(&params).is_ok());
        obj.advance_job();
        obj.advance_job();
        let evals_before = obj.evals();
        let err = obj.try_measure(&params).unwrap_err();
        assert_eq!(
            err,
            ObjectiveError::TraceExhausted {
                job: 2,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("transient trace exhausted"));
        // A failed measurement is not accounted as an evaluation.
        assert_eq!(obj.evals(), evals_before);
        // Pinned lookups report the requested job.
        assert_eq!(
            obj.try_measure_at_job(&params, 7),
            Err(ObjectiveError::TraceExhausted {
                job: 7,
                capacity: 2
            })
        );
        // Batched execution surfaces the same typed error.
        let req = JobRequest::shared_job(vec![params.clone()]);
        assert!(matches!(
            obj.execute(&req),
            Err(ObjectiveError::TraceExhausted { job: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "transient trace exhausted")]
    fn measure_still_panics_on_exhaustion_with_the_typed_message() {
        let trace = TransientTrace::zeros(1);
        let (mut obj, _) = setup(trace, 9);
        let params = obj.exact().ansatz().initial_params(2);
        obj.advance_job();
        let _ = obj.measure(&params);
    }

    #[test]
    fn batched_execution_matches_sequential_measures_bitwise() {
        let trace = TransientTrace::from_values(vec![0.0, 0.3, -0.1, 0.5, 0.0, 0.2]);
        let params: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                let (obj, _) = setup(TransientTrace::zeros(1), 1);
                obj.exact().ansatz().initial_params(40 + k)
            })
            .collect();

        // Sequential shared-job: measure each point at the current job.
        let (mut seq, _) = setup(trace.clone(), 11);
        let sequential: Vec<f64> = params.iter().map(|p| seq.measure(p)).collect();

        // Batched shared-job on an identically seeded objective.
        let (mut batched, _) = setup(trace.clone(), 11);
        let result = batched
            .execute(&JobRequest::shared_job(params.clone()))
            .unwrap();
        assert_eq!(result.values().len(), sequential.len());
        for (i, (a, b)) in sequential.iter().zip(result.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "shared-job point {i}: {a} vs {b}");
        }
        assert_eq!(batched.job(), seq.job());
        assert_eq!(batched.evals(), seq.evals());

        // Sequential job-per-eval: measure + advance per point.
        let (mut seq, _) = setup(trace.clone(), 11);
        let sequential: Vec<f64> = params
            .iter()
            .map(|p| {
                let e = seq.measure(p);
                seq.advance_job();
                e
            })
            .collect();
        let (mut batched, _) = setup(trace, 11);
        let result = batched
            .execute(&JobRequest::job_per_eval(params.clone()))
            .unwrap();
        for (i, (a, b)) in sequential.iter().zip(result.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "job-per-eval point {i}");
        }
        assert_eq!(batched.job(), seq.job());
    }

    #[test]
    fn explicit_backends_agree_with_the_default() {
        use qismet_qsim::StatevectorBackend;
        let tfim = Tfim::paper_6q();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let cached = ExactObjective::new(ansatz.clone(), tfim.hamiltonian());
        let fresh = ExactObjective::with_backend(
            ansatz,
            tfim.hamiltonian(),
            Box::new(StatevectorBackend::new()),
        );
        assert_eq!(cached.backend_name(), "cached-statevector");
        assert_eq!(fresh.backend_name(), "statevector");
        let params = cached.ansatz().initial_params(12);
        assert_eq!(
            cached.eval(&params).to_bits(),
            fresh.eval(&params).to_bits()
        );
        let batch = vec![params.clone(), cached.ansatz().initial_params(13)];
        let a = cached.eval_batch(&batch);
        let b = fresh.eval_batch(&batch);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Cloning an objective clones its backend.
        let cloned = cached.clone();
        assert_eq!(cloned.backend_name(), "cached-statevector");
        assert_eq!(
            cloned.eval(&params).to_bits(),
            cached.eval(&params).to_bits()
        );
    }

    /// Forwards to the cached statevector backend and counts the parameter
    /// points that reach it.
    #[derive(Clone)]
    struct CountingBackend {
        inner: CachedStatevectorBackend,
        points: Arc<AtomicUsize>,
    }

    impl CountingBackend {
        fn count(&self, n: usize) {
            self.points.fetch_add(n, Ordering::Relaxed);
        }
    }

    impl Backend for CountingBackend {
        fn evaluate(
            &mut self,
            circuit: &qismet_qsim::Circuit,
            observable: &PauliSum,
        ) -> Result<f64, qismet_qsim::GateError> {
            self.count(1);
            self.inner.evaluate(circuit, observable)
        }

        fn evaluate_plan(
            &mut self,
            plan: &mut qismet_qsim::CompiledCircuit,
            params: &[f64],
            observable: &CompiledObservable,
        ) -> Result<f64, qismet_qsim::GateError> {
            self.count(1);
            self.inner.evaluate_plan(plan, params, observable)
        }

        fn evaluate_plan_batch(
            &mut self,
            plan: &mut qismet_qsim::CompiledCircuit,
            points: &[Vec<f64>],
            observable: &CompiledObservable,
        ) -> Result<Vec<f64>, qismet_qsim::GateError> {
            self.count(points.len());
            self.inner.evaluate_plan_batch(plan, points, observable)
        }

        fn clone_box(&self) -> Box<dyn Backend> {
            Box::new(self.clone())
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// A noisy objective on a counting backend, the counter, and a fresh
    /// memo-free exact evaluator on the same ansatz and Hamiltonian.
    fn counted(
        trace: TransientTrace,
        seed: u64,
    ) -> (NoisyObjective, Arc<AtomicUsize>, ExactObjective) {
        let points = Arc::new(AtomicUsize::new(0));
        let backend = CountingBackend {
            inner: CachedStatevectorBackend::new(),
            points: Arc::clone(&points),
        };
        let (obj, _) = setup_on(trace, seed, Box::new(backend));
        let fresh = ExactObjective::new(
            obj.exact().ansatz().clone(),
            obj.exact().hamiltonian().clone(),
        );
        (obj, points, fresh)
    }

    fn backend_points(counter: &AtomicUsize) -> usize {
        counter.load(Ordering::Relaxed)
    }

    /// The memo-free oracle of [`NoisyObjective::execute`]: a fresh exact
    /// evaluation per point, then the same noise stack on a twin objective.
    fn oracle_execute(
        twin: &mut NoisyObjective,
        fresh: &ExactObjective,
        req: &JobRequest,
    ) -> Vec<f64> {
        req.points()
            .iter()
            .map(|p| {
                let job = twin.job();
                let v = twin.noisy_from_ideal(fresh.eval(p), job).unwrap();
                if req.layout() == JobLayout::JobPerEval {
                    twin.advance_job();
                }
                v
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} point {i}: {x} vs {y}");
        }
    }

    fn trace_for_memo() -> TransientTrace {
        TransientTrace::from_values(vec![0.0, 0.3, -0.1, 0.5, 0.0, 0.2, 0.1, 0.4, 0.0, 0.25])
    }

    #[test]
    fn memo_execute_mixes_hits_and_misses_bitwise() {
        let (mut obj, counter, fresh) = counted(trace_for_memo(), 21);
        let (mut twin, _) = setup(trace_for_memo(), 21);
        let p: Vec<Vec<f64>> = (0..4)
            .map(|k| fresh.ansatz().initial_params(60 + k))
            .collect();

        // A point repeated within one batch misses each time it appears.
        let req = JobRequest::shared_job(vec![p[0].clone(), p[1].clone(), p[0].clone()])
            .with_rerun(p[1].clone());
        let got = obj.execute(&req).unwrap();
        assert_bits_eq(
            got.values(),
            &oracle_execute(&mut twin, &fresh, &req),
            "batch 1",
        );
        assert_eq!(backend_points(&counter), 4);
        assert_eq!(obj.memo.borrow().entries.len(), 2);
        obj.advance_job();
        twin.advance_job();

        // A job-per-eval batch mixing memo hits (p1, p0) and misses (p2,
        // p3, p2).
        let req = JobRequest::job_per_eval(vec![
            p[1].clone(),
            p[2].clone(),
            p[0].clone(),
            p[3].clone(),
            p[2].clone(),
        ]);
        let got = obj.execute(&req).unwrap();
        assert_bits_eq(
            got.values(),
            &oracle_execute(&mut twin, &fresh, &req),
            "batch 2",
        );
        assert_eq!(backend_points(&counter), 7);

        // An all-hit batch never reaches the backend.
        let req = JobRequest::shared_job(p.clone());
        let got = obj.execute(&req).unwrap();
        assert_bits_eq(
            got.values(),
            &oracle_execute(&mut twin, &fresh, &req),
            "batch 3",
        );
        assert_eq!(backend_points(&counter), 7);

        // The single-point paths share the memo.
        for (k, q) in p.iter().enumerate() {
            assert_eq!(
                obj.eval_exact(q).to_bits(),
                fresh.eval(q).to_bits(),
                "exact {k}"
            );
        }
        let job = obj.job();
        let a = obj.measure_at_job(&p[3], job);
        let b = twin.noisy_from_ideal(fresh.eval(&p[3]), job).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(backend_points(&counter), 7);
        assert_eq!(obj.evals(), twin.evals());
        assert_eq!(obj.job(), twin.job());
        assert_eq!(obj.evals(), 4 + 5 + 4 + 1);
    }

    /// Whether the memo holds `q`, without refreshing it.
    fn held(obj: &NoisyObjective, q: &[f64]) -> bool {
        obj.memo
            .borrow()
            .entries
            .iter()
            .any(|(k, _)| same_bits(k, q))
    }

    #[test]
    fn memo_keys_are_bitwise() {
        let (obj, counter, fresh) = counted(TransientTrace::zeros(4), 22);
        let mut pos = fresh.ansatz().initial_params(70);
        pos[0] = 0.0;
        let mut neg = pos.clone();
        neg[0] = -0.0;
        assert_eq!(obj.eval_exact(&pos).to_bits(), fresh.eval(&pos).to_bits());
        assert_eq!(obj.eval_exact(&neg).to_bits(), fresh.eval(&neg).to_bits());
        // 0.0 == -0.0 numerically, but they are two keys.
        assert_eq!(backend_points(&counter), 2);
        assert_eq!(obj.memo.borrow().entries.len(), 2);
        // A vector of another length is another key too.
        let longer: Vec<f64> = pos.iter().copied().chain([1.0]).collect();
        assert!(!held(&obj, &longer));
    }

    #[test]
    fn memo_evicts_the_least_recently_used_entry_past_capacity() {
        let (obj, counter, fresh) = counted(TransientTrace::zeros(4), 23);
        let p: Vec<Vec<f64>> = (0..=IDEAL_MEMO_CAPACITY as u64 + 1)
            .map(|k| fresh.ansatz().initial_params(80 + k))
            .collect();
        for q in &p[..IDEAL_MEMO_CAPACITY] {
            obj.eval_exact(q);
        }
        // A hit refreshes p0, so the next miss evicts p1 instead.
        assert_eq!(obj.eval_exact(&p[0]).to_bits(), fresh.eval(&p[0]).to_bits());
        assert_eq!(backend_points(&counter), IDEAL_MEMO_CAPACITY);
        obj.eval_exact(&p[IDEAL_MEMO_CAPACITY]);
        assert!(held(&obj, &p[0]));
        assert!(!held(&obj, &p[1]));
        assert_eq!(obj.memo.borrow().entries.len(), IDEAL_MEMO_CAPACITY);
        // Re-evaluating the evicted point goes back to the backend, evicts
        // the next least recently used (p2), and returns the same bits.
        assert_eq!(obj.eval_exact(&p[1]).to_bits(), fresh.eval(&p[1]).to_bits());
        assert_eq!(backend_points(&counter), IDEAL_MEMO_CAPACITY + 2);
        assert!(!held(&obj, &p[2]));
        for q in &p[3..=IDEAL_MEMO_CAPACITY] {
            assert!(held(&obj, q));
            assert_eq!(obj.eval_exact(q).to_bits(), fresh.eval(q).to_bits());
        }
        assert_eq!(backend_points(&counter), IDEAL_MEMO_CAPACITY + 2);

        // One batch with more misses than the memo holds still returns
        // every point's own value.
        let (mut big, counter, _) = counted(TransientTrace::zeros(4), 24);
        let (mut twin, _) = setup(TransientTrace::zeros(4), 24);
        let mut points = p.clone();
        points.extend(
            p.iter()
                .map(|q| q.iter().map(|x| x + 0.5).collect::<Vec<f64>>()),
        );
        let req = JobRequest::shared_job(points.clone());
        let got = big.execute(&req).unwrap();
        assert_bits_eq(
            got.values(),
            &oracle_execute(&mut twin, &fresh, &req),
            "oversized batch",
        );
        assert_eq!(backend_points(&counter), points.len());
    }

    #[test]
    fn memo_lockstep_lanes_with_overlapping_points_match_the_oracle() {
        let seeds = [31u64, 32, 33];
        let mut lanes = Vec::new();
        let mut twins = Vec::new();
        for &s in &seeds {
            let (obj, counter, _) = counted(trace_for_memo(), s);
            lanes.push((obj, counter));
            twins.push(setup(trace_for_memo(), s).0);
        }
        let fresh = ExactObjective::new(
            lanes[0].0.exact().ansatz().clone(),
            lanes[0].0.exact().hamiltonian().clone(),
        );
        let p: Vec<Vec<f64>> = (0..4)
            .map(|k| fresh.ansatz().initial_params(90 + k))
            .collect();
        // Warm lane 1's memo with p2 (one backend point on lane 1's own
        // backend, outside the lockstep batch).
        lanes[1].0.eval_exact(&p[2]);
        twins[1].eval_exact(&p[2]);

        let rounds = [
            vec![
                JobRequest::shared_job(vec![p[0].clone(), p[1].clone()]).with_rerun(p[0].clone()),
                JobRequest::job_per_eval(vec![p[1].clone(), p[2].clone(), p[1].clone()]),
                JobRequest::shared_job(vec![p[0].clone()]),
            ],
            vec![
                JobRequest::job_per_eval(vec![p[1].clone(), p[3].clone()]),
                JobRequest::shared_job(vec![p[2].clone(), p[1].clone()]),
                JobRequest::job_per_eval(vec![p[3].clone(), p[0].clone()]),
            ],
        ];
        // Lane-0 backend points per round, each lane's misses (nothing is
        // shared across lanes): round 0 lane 0 [p0, p1, p0], lane 1 [p1,
        // p1], lane 2 [p0]; round 1 lane 0 [p3], lane 2 [p3].
        let expected_lead_points = [6, 2];
        let mut lead_total = 0;
        for (round, reqs) in rounds.iter().enumerate() {
            let mut objs: Vec<&mut NoisyObjective> = lanes.iter_mut().map(|(o, _)| o).collect();
            let results = execute_lockstep(&mut objs, reqs).unwrap();
            for (l, (res, req)) in results.iter().zip(reqs).enumerate() {
                let want = oracle_execute(&mut twins[l], &fresh, req);
                assert_bits_eq(res.values(), &want, &format!("round {round} lane {l}"));
                assert_eq!(lanes[l].0.evals(), twins[l].evals());
                assert_eq!(lanes[l].0.job(), twins[l].job());
            }
            lead_total += expected_lead_points[round];
            assert_eq!(backend_points(&lanes[0].1), lead_total, "round {round}");
        }
        assert_eq!(backend_points(&lanes[1].1), 1);
        assert_eq!(backend_points(&lanes[2].1), 0);
        for (l, (obj, _)) in lanes.iter().enumerate() {
            for q in &p {
                assert_eq!(
                    obj.eval_exact(q).to_bits(),
                    fresh.eval(q).to_bits(),
                    "lane {l}"
                );
            }
        }
    }

    #[test]
    fn extreme_trace_values_saturate() {
        // A pathological +5.0 trace value must not send the estimate to
        // -infinity or invert the landscape beyond the clamp.
        let trace = TransientTrace::from_values(vec![5.0; 4]);
        let (mut obj, _) = setup(trace, 7);
        let params = obj.exact().ansatz().initial_params(11);
        let ideal = obj.eval_exact(&params);
        let v = obj.measure(&params);
        assert!(v.is_finite());
        // Clamped to at most 1.5x the signal beyond the offset.
        assert!(v.abs() < 3.0 * ideal.abs().max(1.0) + 1.0);
    }
}
