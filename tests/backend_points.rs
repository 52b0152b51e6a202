//! Integration: how many parameter points each tuning loop sends to the
//! execution backend. `NoisyObjective` remembers the ideal energies its
//! trajectory already computed, so a QISMET rerun, a repeated job's
//! optimizer points and the exact analysis series never reach the backend,
//! while every noisy measurement still counts as device work in
//! `RunRecord::evals`.

use qismet::{run_qismet, QismetConfig};
use qismet_mathkit::rng_from_seed;
use qismet_optim::{BlockingPolicy, GainSchedule, Spsa};
use qismet_qnoise::{StaticNoiseModel, TransientModel, TransientTrace};
use qismet_qsim::{
    Backend, CachedStatevectorBackend, Circuit, CompiledCircuit, CompiledObservable, GateError,
    PauliSum,
};
use qismet_vqa::{
    run_tuning, run_tuning_lockstep, Ansatz, AnsatzKind, Entanglement, NoisyObjective,
    NoisyObjectiveConfig, Tfim, TuningLane, TuningScheme,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards to the cached statevector backend and counts the parameter
/// points (or bound circuits) that reach it.
#[derive(Clone)]
struct CountingBackend {
    inner: CachedStatevectorBackend,
    points: Arc<AtomicUsize>,
}

impl Backend for CountingBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        self.points.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(circuit, observable)
    }

    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        self.points.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate_plan(plan, params, observable)
    }

    fn evaluate_plan_batch(
        &mut self,
        plan: &mut CompiledCircuit,
        points: &[Vec<f64>],
        observable: &CompiledObservable,
    ) -> Result<Vec<f64>, GateError> {
        self.points.fetch_add(points.len(), Ordering::Relaxed);
        self.inner.evaluate_plan_batch(plan, points, observable)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

/// A noisy App2-style objective on a counting backend, and its counter.
fn counted_objective(trace: TransientTrace, seed: u64) -> (NoisyObjective, Arc<AtomicUsize>) {
    let tfim = Tfim::paper_6q();
    let gs = tfim.exact_ground_energy().unwrap();
    let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
    let cfg = NoisyObjectiveConfig {
        static_model: StaticNoiseModel::uniform(6, 120.0, 100.0, 2e-4, 5e-3, 0.02),
        trace,
        magnitude_ref: gs.abs(),
        shot_sigma: 0.03,
        within_job_spread: 0.25,
        seed,
    };
    let points = Arc::new(AtomicUsize::new(0));
    let backend = CountingBackend {
        inner: CachedStatevectorBackend::new(),
        points: Arc::clone(&points),
    };
    let obj = NoisyObjective::with_backend(ansatz, tfim.hamiltonian(), cfg, Box::new(backend));
    (obj, points)
}

fn count(points: &AtomicUsize) -> usize {
    points.load(Ordering::Relaxed)
}

const N: usize = 40;

/// Baseline: the initial incumbent, then two SPSA points and the candidate
/// per iteration. The exact series re-reads the accepted candidate.
#[test]
fn baseline_evaluates_one_plus_three_points_per_iteration() {
    let trace = TransientModel::moderate(0.25).generate(&mut rng_from_seed(3), 400);
    let (mut obj, points) = counted_objective(trace, 5);
    let theta0 = obj.exact().ansatz().initial_params(2);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
    let rec = run_tuning(&mut spsa, &mut obj, theta0, N, TuningScheme::Baseline);
    assert_eq!(count(&points), 1 + 3 * N);
    assert_eq!(rec.evals, (1 + 3 * N) as u64);
    assert_eq!(rec.exact.len(), N);
}

/// Resampling (two gradient samples): four SPSA points and the candidate.
#[test]
fn resampling_evaluates_one_plus_five_points_per_iteration() {
    let trace = TransientModel::moderate(0.25).generate(&mut rng_from_seed(4), 400);
    let (mut obj, points) = counted_objective(trace, 6);
    let theta0 = obj.exact().ansatz().initial_params(2);
    let mut spsa = Spsa::with_resampling(theta0.len(), GainSchedule::spall_default(), 3, 2);
    let rec = run_tuning(&mut spsa, &mut obj, theta0, N, TuningScheme::Baseline);
    assert_eq!(count(&points), 1 + 5 * N);
    assert_eq!(rec.evals, (1 + 5 * N) as u64);
}

/// Blocking: a rejected lane's fresh re-measurement of the retained
/// parameters is device work, but their ideal energy is already known.
#[test]
fn blocking_fresh_measurements_reuse_the_retained_ideal() {
    let trace = TransientModel::moderate(0.3).generate(&mut rng_from_seed(13), 800);
    let (mut obj, points) = counted_objective(trace, 6);
    let theta0 = obj.exact().ansatz().initial_params(2);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
    let rec = run_tuning(
        &mut spsa,
        &mut obj,
        theta0,
        200,
        TuningScheme::Blocking(BlockingPolicy::adaptive(0.05)),
    );
    assert!(rec.rejected > 0, "blocking never rejected");
    assert_eq!(count(&points), 1 + 3 * 200);
    assert_eq!(rec.evals, (1 + 3 * 200 + rec.rejected) as u64);
}

/// QISMET: each first attempt evaluates its two SPSA points and its
/// candidate; the rerun of the previous candidate, the exact series and a
/// retry's (frozen) SPSA points never reach the backend, so a retry costs
/// one point: its new candidate. Device work is unchanged: four
/// measurements per attempt.
#[test]
fn qismet_reruns_and_retries_reuse_known_ideals() {
    let trace = TransientModel::severe(0.35).generate(&mut rng_from_seed(21), 2000);
    let (mut obj, points) = counted_objective(trace, 31);
    let theta0 = obj.exact().ansatz().initial_params(4);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
    let iterations = 200;
    let rec = run_qismet(
        &mut spsa,
        &mut obj,
        theta0,
        iterations,
        QismetConfig::paper_default(),
    );
    assert!(rec.skips > 0, "no skips under severe transients");
    // A forced accept counts as a skip but is not followed by a retry.
    let retries = rec.skips - rec.forced_accepts;
    assert_eq!(count(&points), 1 + 3 * iterations + retries);
    assert_eq!(rec.record.evals, (1 + 4 * (iterations + retries)) as u64);
    assert_eq!(rec.record.jobs, 1 + iterations + retries);
}

/// Lockstep lanes send their misses through lane 0's backend as one batch;
/// the exact series reads each lane's own memo, so no other lane's backend
/// is ever called.
#[test]
fn lockstep_exact_series_never_reaches_a_backend() {
    let seeds = [9u64, 23, 57];
    let mut objs: Vec<(NoisyObjective, Arc<AtomicUsize>)> = seeds
        .iter()
        .map(|&s| {
            let trace = TransientModel::moderate(0.3).generate(&mut rng_from_seed(s ^ 7), 400);
            counted_objective(trace, s)
        })
        .collect();
    let theta0 = objs[0].0.exact().ansatz().initial_params(2);
    let mut spsas: Vec<Spsa> = seeds
        .iter()
        .map(|&s| Spsa::new(theta0.len(), GainSchedule::spall_default(), s + 1))
        .collect();
    let mut lanes: Vec<TuningLane<'_>> = objs
        .iter_mut()
        .zip(&mut spsas)
        .map(|((obj, _), spsa)| TuningLane {
            proposer: spsa,
            objective: obj,
            theta0: theta0.clone(),
        })
        .collect();
    let recs = run_tuning_lockstep(&mut lanes, N, TuningScheme::Baseline);
    drop(lanes);
    assert_eq!(count(&objs[0].1), seeds.len() * (1 + 3 * N));
    for (_, points) in &objs[1..] {
        assert_eq!(count(points), 0);
    }
    for rec in &recs {
        assert_eq!(rec.evals, (1 + 3 * N) as u64);
        assert_eq!(rec.exact.len(), N);
    }
}
