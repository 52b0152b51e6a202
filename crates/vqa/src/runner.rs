//! The VQA tuning loop (baseline and blocking schemes).
//!
//! Execution model: **every objective evaluation is its own quantum job**
//! (its own transient-trace slot), reflecting how a traditional VQA stack
//! submits work — each energy estimation goes to the device as a separate
//! submission, so the evaluations inside one gradient estimate can land in
//! *different* noise environments. This is precisely the assumption the
//! paper says breaks ("the VQA tuner works under the underlying assumption
//! that the noise landscape of the device is unchanged during this gradient
//! estimation process... This is often not the case", Section 1).
//!
//! QISMET's loop (in the `qismet` core crate) instead co-schedules each
//! iteration's circuits into a single job (paper Fig. 7) — which is what
//! makes its rerun-based transient estimate meaningful.

use crate::job::JobRequest;
use crate::objective::{execute_lockstep, NoisyObjective};
use qismet_optim::{BlockingPolicy, Proposer};

/// How candidate parameters are admitted each iteration.
#[derive(Debug, Clone)]
pub enum TuningScheme {
    /// Always accept the optimizer's candidate (paper "Baseline").
    Baseline,
    /// Accept only non-worsening candidates (paper "Blocking").
    Blocking(BlockingPolicy),
}

/// Complete record of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Machine-measured energy of the tracked parameters per iteration
    /// (what the paper's convergence plots show).
    pub measured: Vec<f64>,
    /// Transient-free exact energy of the tracked parameters per iteration
    /// (analysis only; unavailable on hardware).
    pub exact: Vec<f64>,
    /// Final parameter vector.
    pub final_params: Vec<f64>,
    /// Quantum jobs consumed.
    pub jobs: usize,
    /// Total objective evaluations (circuit executions).
    pub evals: u64,
    /// Candidates accepted.
    pub accepted: usize,
    /// Candidates rejected (blocking only).
    pub rejected: usize,
}

impl RunRecord {
    /// Mean measured energy over the trailing `window` iterations — the
    /// "end expectation value" the paper quotes.
    ///
    /// # Panics
    ///
    /// Panics if the record is empty or window is zero.
    pub fn final_energy(&self, window: usize) -> f64 {
        assert!(window > 0 && !self.measured.is_empty());
        let n = self.measured.len();
        let start = n.saturating_sub(window);
        qismet_mathkit::mean(&self.measured[start..])
    }

    /// Mean exact (transient-free) energy over the trailing `window`
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if the record is empty or window is zero.
    pub fn final_exact_energy(&self, window: usize) -> f64 {
        assert!(window > 0 && !self.exact.is_empty());
        let n = self.exact.len();
        let start = n.saturating_sub(window);
        qismet_mathkit::mean(&self.exact[start..])
    }
}

/// Runs `iterations` of VQA tuning under the given scheme.
///
/// # Panics
///
/// Panics if the transient trace inside `objective` is too short (allocate
/// at least `iterations + 1` job slots; QISMET-style retries need more).
pub fn run_tuning(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    scheme: TuningScheme,
) -> RunRecord {
    let mut theta = theta0;
    let mut measured = Vec::with_capacity(iterations);
    let mut exact = Vec::with_capacity(iterations);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut blocking = match scheme {
        TuningScheme::Baseline => None,
        TuningScheme::Blocking(p) => Some(p),
    };
    // Blocking compares candidates against the last accepted measurement.
    let mut incumbent_energy = objective.measure(&theta);
    objective.advance_job();

    for _ in 0..iterations {
        // One job per evaluation: the optimizer's evaluations land in
        // consecutive (independent) noise environments. When the optimizer
        // can name its query points up front, the whole gradient estimate
        // goes to the execution backend as one batch; the callback path is
        // the fallback for optimizers with value-dependent queries.
        let proposal = match proposer.eval_points(&theta) {
            Some(points) => {
                let request = JobRequest::job_per_eval(points);
                let result = objective
                    .execute(&request)
                    .unwrap_or_else(|e| panic!("{e}"));
                proposer.propose_from(&theta, result.values())
            }
            None => {
                let obj = &mut *objective;
                proposer.propose(&theta, &mut |p: &[f64]| {
                    let e = obj.measure(p);
                    obj.advance_job();
                    e
                })
            }
        };
        let candidate_energy = objective.measure(&proposal.candidate);
        objective.advance_job();
        let accept = match blocking.as_mut() {
            None => true,
            Some(policy) => policy.accepts(incumbent_energy, candidate_energy),
        };
        if accept {
            theta = proposal.candidate;
            incumbent_energy = candidate_energy;
            accepted += 1;
            measured.push(candidate_energy);
        } else {
            rejected += 1;
            // Record a *fresh* measurement of the retained parameters, not
            // the stale accepted value — otherwise the series acquires a
            // min-of-noise selection bias no hardware run would show.
            let fresh = objective.measure(&theta);
            objective.advance_job();
            measured.push(fresh);
        }
        exact.push(objective.eval_exact(&theta));
        proposer.advance();
    }

    RunRecord {
        measured,
        exact,
        final_params: theta,
        jobs: objective.job(),
        evals: objective.evals(),
        accepted,
        rejected,
    }
}

/// One independent trajectory of a lockstep tuning group: its own
/// optimizer, its own noisy objective (seed, trace, job counter), and its
/// own starting parameters. All lanes of a group must share one
/// ansatz/Hamiltonian structure.
pub struct TuningLane<'a> {
    /// The lane's optimizer state.
    pub proposer: &'a mut dyn Proposer,
    /// The lane's noisy objective (independent seed and transient trace).
    pub objective: &'a mut NoisyObjective,
    /// The lane's starting parameters.
    pub theta0: Vec<f64>,
}

/// Runs `iterations` of VQA tuning for B independent same-structure
/// trajectories in **lockstep**: the per-lane control flow is exactly
/// [`run_tuning`]'s, but every evaluation site — the initial incumbent
/// measurement, each iteration's gradient batch, the candidate
/// measurement, and rejected lanes' fresh re-measurements — executes all
/// lanes as one cross-lane batched backend call, which the lane-batched
/// statevector engine evaluates in one SoA state. The exact analysis series
/// reads each lane's own objective: its tracked parameters were measured
/// that iteration, so the ideal-energy memo answers without the backend.
///
/// Each lane's [`RunRecord`] is **bitwise identical** to running that lane
/// alone through [`run_tuning`]: per-lane RNG, job, and optimizer state
/// are self-contained, ideal evaluations are RNG-free, and the backend
/// batch contract makes values independent of the grouping. Lanes whose
/// optimizer cannot name its query points up front
/// (`eval_points() == None`) fall back to their own sequential callback
/// path for that iteration, still bitwise identical.
///
/// # Panics
///
/// Panics if the lanes disagree on parameter count, or if any lane's
/// transient trace is too short (same headroom rule as [`run_tuning`]).
pub fn run_tuning_lockstep(
    lanes: &mut [TuningLane<'_>],
    iterations: usize,
    scheme: TuningScheme,
) -> Vec<RunRecord> {
    let b = lanes.len();
    if b == 0 {
        return Vec::new();
    }
    let n_params = lanes[0].theta0.len();
    for lane in lanes.iter() {
        assert_eq!(lane.theta0.len(), n_params, "lane parameter count");
    }
    let mut theta: Vec<Vec<f64>> = lanes.iter().map(|l| l.theta0.clone()).collect();
    let mut measured: Vec<Vec<f64>> = vec![Vec::with_capacity(iterations); b];
    let mut exact: Vec<Vec<f64>> = vec![Vec::with_capacity(iterations); b];
    let mut accepted = vec![0usize; b];
    let mut rejected = vec![0usize; b];
    let mut blocking: Vec<Option<BlockingPolicy>> = (0..b)
        .map(|_| match &scheme {
            TuningScheme::Baseline => None,
            TuningScheme::Blocking(p) => Some(p.clone()),
        })
        .collect();

    // Cross-lane batched single-point measurement at each lane's current
    // job (the lockstep twin of per-lane `measure` + `advance_job`).
    fn measure_all(lanes: &mut [TuningLane<'_>], points: &[Vec<f64>]) -> Vec<f64> {
        let reqs: Vec<JobRequest> = points
            .iter()
            .map(|p| JobRequest::shared_job(vec![p.clone()]))
            .collect();
        let mut objs: Vec<&mut NoisyObjective> =
            lanes.iter_mut().map(|l| &mut *l.objective).collect();
        let results = execute_lockstep(&mut objs, &reqs).unwrap_or_else(|e| panic!("{e}"));
        for lane in lanes.iter_mut() {
            lane.objective.advance_job();
        }
        results.into_iter().map(|r| r.values()[0]).collect()
    }

    let mut incumbent = measure_all(lanes, &theta);

    for _ in 0..iterations {
        // Gradient estimates: lanes whose optimizer names its points up
        // front share one cross-lane job-per-eval batch; the rest take
        // their own callback path (independent RNG streams, so order
        // across lanes cannot change any lane's bits).
        let points_per_lane: Vec<Option<Vec<Vec<f64>>>> = lanes
            .iter_mut()
            .zip(&theta)
            .map(|(lane, th)| lane.proposer.eval_points(th))
            .collect();
        let batched_lanes: Vec<usize> = (0..b).filter(|&l| points_per_lane[l].is_some()).collect();
        let mut proposals: Vec<Option<qismet_optim::Proposal>> = (0..b).map(|_| None).collect();
        if !batched_lanes.is_empty() {
            let reqs: Vec<JobRequest> = batched_lanes
                .iter()
                .map(|&l| {
                    JobRequest::job_per_eval(points_per_lane[l].clone().expect("filtered Some"))
                })
                .collect();
            let mut objs: Vec<&mut NoisyObjective> = Vec::with_capacity(batched_lanes.len());
            let mut rest: &mut [TuningLane<'_>] = lanes;
            let mut prev = 0usize;
            for &l in &batched_lanes {
                let (skip, tail) = rest.split_at_mut(l - prev);
                let (head, tail) = tail.split_first_mut().expect("lane index in range");
                let _ = skip;
                objs.push(&mut *head.objective);
                rest = tail;
                prev = l + 1;
            }
            let results = execute_lockstep(&mut objs, &reqs).unwrap_or_else(|e| panic!("{e}"));
            for (&l, result) in batched_lanes.iter().zip(results) {
                proposals[l] = Some(lanes[l].proposer.propose_from(&theta[l], result.values()));
            }
        }
        for l in 0..b {
            if proposals[l].is_none() {
                let lane = &mut lanes[l];
                let obj = &mut *lane.objective;
                proposals[l] = Some(lane.proposer.propose(&theta[l], &mut |p: &[f64]| {
                    let e = obj.measure(p);
                    obj.advance_job();
                    e
                }));
            }
        }
        let proposals: Vec<qismet_optim::Proposal> = proposals
            .into_iter()
            .map(|p| p.expect("every lane proposed"))
            .collect();

        // Candidate measurements, one cross-lane batch.
        let candidates: Vec<Vec<f64>> = proposals.iter().map(|p| p.candidate.clone()).collect();
        let candidate_energy = measure_all(lanes, &candidates);

        // Accept/reject per lane, then re-measure every rejected lane's
        // retained parameters as one cross-lane batch.
        let mut fresh_lanes: Vec<usize> = Vec::new();
        for l in 0..b {
            let accept = match blocking[l].as_mut() {
                None => true,
                Some(policy) => policy.accepts(incumbent[l], candidate_energy[l]),
            };
            if accept {
                theta[l] = proposals[l].candidate.clone();
                incumbent[l] = candidate_energy[l];
                accepted[l] += 1;
                measured[l].push(candidate_energy[l]);
            } else {
                rejected[l] += 1;
                fresh_lanes.push(l);
            }
        }
        if !fresh_lanes.is_empty() {
            let retained: Vec<Vec<f64>> = fresh_lanes.iter().map(|&l| theta[l].clone()).collect();
            let reqs: Vec<JobRequest> = retained
                .iter()
                .map(|p| JobRequest::shared_job(vec![p.clone()]))
                .collect();
            let mut objs: Vec<&mut NoisyObjective> = Vec::with_capacity(fresh_lanes.len());
            let mut rest: &mut [TuningLane<'_>] = lanes;
            let mut prev = 0usize;
            for &l in &fresh_lanes {
                let (_, tail) = rest.split_at_mut(l - prev);
                let (head, tail) = tail.split_first_mut().expect("lane index in range");
                objs.push(&mut *head.objective);
                rest = tail;
                prev = l + 1;
            }
            let results = execute_lockstep(&mut objs, &reqs).unwrap_or_else(|e| panic!("{e}"));
            for (&l, result) in fresh_lanes.iter().zip(results) {
                lanes[l].objective.advance_job();
                measured[l].push(result.values()[0]);
            }
        }

        // Exact analysis series: each lane's tracked parameters were just
        // measured, so its own objective's memo already holds the value.
        for l in 0..b {
            exact[l].push(lanes[l].objective.eval_exact(&theta[l]));
            lanes[l].proposer.advance();
        }
    }

    (0..b)
        .map(|l| RunRecord {
            measured: std::mem::take(&mut measured[l]),
            exact: std::mem::take(&mut exact[l]),
            final_params: std::mem::take(&mut theta[l]),
            jobs: lanes[l].objective.job(),
            evals: lanes[l].objective.evals(),
            accepted: accepted[l],
            rejected: rejected[l],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{Ansatz, AnsatzKind, Entanglement};
    use crate::objective::NoisyObjectiveConfig;
    use crate::tfim::Tfim;
    use qismet_mathkit::rng_from_seed;
    use qismet_optim::{GainSchedule, Spsa};
    use qismet_qnoise::{StaticNoiseModel, TransientModel, TransientTrace};

    fn objective_with(trace: TransientTrace, seed: u64) -> (NoisyObjective, f64) {
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
        (NoisyObjective::new(ansatz, tfim.hamiltonian(), cfg), gs)
    }

    #[test]
    fn baseline_converges_without_transients() {
        let (mut obj, gs) = objective_with(TransientTrace::zeros(1400), 1);
        let theta0 = obj.exact().ansatz().initial_params(2);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
        let rec = run_tuning(&mut spsa, &mut obj, theta0, 400, TuningScheme::Baseline);
        assert_eq!(rec.measured.len(), 400);
        // The exact energy of the final parameters should be well below the
        // starting point and a decent fraction of the ground energy.
        let start = rec.exact[0];
        let end = rec.final_exact_energy(20);
        assert!(end < start, "no descent: start {start}, end {end}");
        assert!(end < -(0.55 * gs.abs()), "end {end} vs ground {gs}");
        assert_eq!(rec.accepted, 400);
        assert_eq!(rec.rejected, 0);
    }

    #[test]
    fn transients_hurt_baseline_convergence() {
        let quiet = TransientTrace::zeros(2400);
        let noisy = TransientModel::severe(0.35).generate(&mut rng_from_seed(11), 2400);
        let run = |trace: TransientTrace| {
            let (mut obj, _) = objective_with(trace, 5);
            let theta0 = obj.exact().ansatz().initial_params(2);
            let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
            run_tuning(&mut spsa, &mut obj, theta0, 700, TuningScheme::Baseline)
        };
        let quiet_rec = run(quiet);
        let noisy_rec = run(noisy);
        // The measured series under transients shows spikes: its worst
        // (max) late-phase value sits above the quiet one.
        let quiet_late = qismet_mathkit::max(&quiet_rec.measured[350..]);
        let noisy_late = qismet_mathkit::max(&noisy_rec.measured[350..]);
        assert!(
            noisy_late > quiet_late + 0.3,
            "transient spikes missing: {noisy_late} vs {quiet_late}"
        );
    }

    #[test]
    fn blocking_rejects_some_candidates() {
        let noisy = TransientModel::moderate(0.3).generate(&mut rng_from_seed(13), 1800);
        let (mut obj, _) = objective_with(noisy, 6);
        let theta0 = obj.exact().ansatz().initial_params(2);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
        let rec = run_tuning(
            &mut spsa,
            &mut obj,
            theta0,
            400,
            TuningScheme::Blocking(BlockingPolicy::adaptive(0.05)),
        );
        assert!(rec.rejected > 0, "blocking never rejected");
        assert_eq!(rec.accepted + rec.rejected, 400);
    }

    #[test]
    fn one_job_per_evaluation_for_baseline() {
        let (mut obj, _) = objective_with(TransientTrace::zeros(400), 7);
        let theta0 = obj.exact().ansatz().initial_params(2);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
        let rec = run_tuning(&mut spsa, &mut obj, theta0, 50, TuningScheme::Baseline);
        // Baseline evals: 1 initial + (2 gradient + 1 candidate) per iter,
        // and every evaluation is its own quantum job (separate submission).
        assert_eq!(rec.evals, 1 + 3 * 50);
        assert_eq!(rec.jobs, 1 + 3 * 50);
    }

    /// Forwards a proposer while hiding `eval_points`, forcing the runner
    /// onto the legacy one-measure-per-callback path.
    struct Unbatched<P: Proposer>(P);

    impl<P: Proposer> Proposer for Unbatched<P> {
        fn propose(
            &mut self,
            theta: &[f64],
            objective: &mut dyn FnMut(&[f64]) -> f64,
        ) -> qismet_optim::Proposal {
            self.0.propose(theta, objective)
        }
        fn advance(&mut self) {
            self.0.advance()
        }
        fn iteration(&self) -> usize {
            self.0.iteration()
        }
        fn evals_per_proposal(&self) -> usize {
            self.0.evals_per_proposal()
        }
        fn name(&self) -> &'static str {
            "unbatched"
        }
    }

    #[test]
    fn batched_and_callback_paths_produce_identical_records() {
        // The acceptance bar for the Backend refactor: same seeds => the
        // measured series (and everything else in the record) must match
        // bit-for-bit whether the iteration goes through one batched
        // JobRequest or through per-call evaluation.
        let trace = TransientModel::moderate(0.25).generate(&mut rng_from_seed(41), 1200);
        let run = |batched: bool| {
            let (mut obj, _) = objective_with(trace.clone(), 9);
            let theta0 = obj.exact().ansatz().initial_params(2);
            let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 3);
            if batched {
                run_tuning(&mut spsa, &mut obj, theta0, 120, TuningScheme::Baseline)
            } else {
                let mut hidden = Unbatched(spsa);
                run_tuning(&mut hidden, &mut obj, theta0, 120, TuningScheme::Baseline)
            }
        };
        let via_batch = run(true);
        let via_callback = run(false);
        assert_eq!(via_batch, via_callback);
        for (a, b) in via_batch.measured.iter().zip(&via_callback.measured) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lockstep_lanes_match_sequential_runs_bitwise() {
        // The acceptance bar for the lane-batched trials seam: running B
        // independent trajectories in lockstep (every evaluation site a
        // cross-lane batch through the SoA engine) must reproduce each
        // lane's sequential record bit-for-bit — including a lane whose
        // optimizer hides its eval points and takes the callback path.
        for scheme in [
            TuningScheme::Baseline,
            TuningScheme::Blocking(BlockingPolicy::adaptive(0.05)),
        ] {
            let seeds = [9u64, 23, 57];
            let traces: Vec<TransientTrace> = seeds
                .iter()
                .map(|&s| TransientModel::moderate(0.3).generate(&mut rng_from_seed(s ^ 7), 600))
                .collect();
            let sequential: Vec<RunRecord> = seeds
                .iter()
                .zip(&traces)
                .enumerate()
                .map(|(i, (&s, trace))| {
                    let (mut obj, _) = objective_with(trace.clone(), s);
                    let theta0 = obj.exact().ansatz().initial_params(2);
                    let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), s + 1);
                    if i == 2 {
                        let mut hidden = Unbatched(spsa);
                        run_tuning(&mut hidden, &mut obj, theta0, 60, scheme.clone())
                    } else {
                        run_tuning(&mut spsa, &mut obj, theta0, 60, scheme.clone())
                    }
                })
                .collect();

            let mut objs: Vec<NoisyObjective> = seeds
                .iter()
                .zip(&traces)
                .map(|(&s, trace)| objective_with(trace.clone(), s).0)
                .collect();
            let theta0 = objs[0].exact().ansatz().initial_params(2);
            let mut spsa0 = Spsa::new(theta0.len(), GainSchedule::spall_default(), seeds[0] + 1);
            let mut spsa1 = Spsa::new(theta0.len(), GainSchedule::spall_default(), seeds[1] + 1);
            let mut hidden2 = Unbatched(Spsa::new(
                theta0.len(),
                GainSchedule::spall_default(),
                seeds[2] + 1,
            ));
            let mut it = objs.iter_mut();
            let (o0, o1, o2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
            let mut lanes = vec![
                TuningLane {
                    proposer: &mut spsa0,
                    objective: o0,
                    theta0: theta0.clone(),
                },
                TuningLane {
                    proposer: &mut spsa1,
                    objective: o1,
                    theta0: theta0.clone(),
                },
                TuningLane {
                    proposer: &mut hidden2,
                    objective: o2,
                    theta0: theta0.clone(),
                },
            ];
            let lockstep = run_tuning_lockstep(&mut lanes, 60, scheme);
            assert_eq!(lockstep.len(), sequential.len());
            for (l, (a, b)) in lockstep.iter().zip(&sequential).enumerate() {
                assert_eq!(a, b, "lane {l} record");
                for (x, y) in a.measured.iter().zip(&b.measured) {
                    assert_eq!(x.to_bits(), y.to_bits(), "lane {l} measured");
                }
                for (x, y) in a.exact.iter().zip(&b.exact) {
                    assert_eq!(x.to_bits(), y.to_bits(), "lane {l} exact");
                }
                for (x, y) in a.final_params.iter().zip(&b.final_params) {
                    assert_eq!(x.to_bits(), y.to_bits(), "lane {l} params");
                }
            }
        }
    }

    #[test]
    fn final_energy_window() {
        let rec = RunRecord {
            measured: vec![0.0, -1.0, -2.0, -3.0],
            exact: vec![0.0; 4],
            final_params: vec![],
            jobs: 4,
            evals: 0,
            accepted: 4,
            rejected: 0,
        };
        assert_eq!(rec.final_energy(2), -2.5);
        assert_eq!(rec.final_energy(100), -1.5);
    }
}
