//! Per-layer attribution, measured from outside the program.
//!
//! The traced run replays a campaign through the program's public seams
//! with stopwatches around each call into a layer:
//!
//! * [`TimedBackend`] wraps the execution backend handed to
//!   `AppSpec::build_with_backend` and books qsim time, calls and points.
//! * [`TimedProposer`] wraps the optimizer and books its time, minus any
//!   qsim time spent inside it.
//! * [`run_unit`] mirrors the scheme runners (`run_scheme` and
//!   `run_scheme_lockstep`) over `run_tuning`, `run_tuning_lockstep` and
//!   `run_qismet_budgeted`, and times the app build and the whole tuning
//!   loop. Loop time not spent in qsim or optim is the loop's own time:
//!   `core.controller_ms` for QISMET loops, `vqa.loop_other_ms` otherwise.
//!
//! The replay must write a report byte-identical to the untraced run's;
//! `run.py` checks that on every invocation.

use qismet::{run_qismet_budgeted, QismetConfig};
use qismet_bench::{
    final_window, CampaignReport, ReportMeta, RunKind, RunRecord, RunSpec, Scheme, SweepExecutor,
};
use qismet_mathkit::derive_seed;
use qismet_optim::{BlockingPolicy, GainSchedule, Proposal, Proposer, Spsa};
use qismet_qsim::{
    Backend, BackendPool, Circuit, CompiledCircuit, CompiledObservable, GateError, PauliSum,
};
use qismet_vqa::{run_tuning, run_tuning_lockstep, AppInstance, Boundary, Tfim, TuningLane};
use qismet_vqa::{AppSpec, TuningScheme};
use std::cell::RefCell;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::workloads::CampaignWorkload;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// qsim and optim counters shared by every backend and proposer of one
/// campaign unit (a single run, or one lockstep group). A unit runs on one
/// executor thread, so its counters see only its own work.
#[derive(Debug, Default)]
pub struct Probe {
    qsim_ns: AtomicU64,
    qsim_calls: AtomicU64,
    qsim_points: AtomicU64,
    optim_ns: AtomicU64,
}

impl Probe {
    fn qsim(&self, points: usize, t: Instant) {
        self.qsim_ns.fetch_add(ns_since(t), Relaxed);
        self.qsim_calls.fetch_add(1, Relaxed);
        self.qsim_points.fetch_add(points as u64, Relaxed);
    }

    /// `(qsim ns, optim ns)` so far.
    fn snapshot(&self) -> (u64, u64) {
        (self.qsim_ns.load(Relaxed), self.optim_ns.load(Relaxed))
    }
}

/// A [`Backend`] that forwards every call and books its wall time.
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    probe: Arc<Probe>,
}

impl Backend for TimedBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate(circuit, observable);
        self.probe.qsim(1, t);
        r
    }

    fn evaluate_batch(
        &mut self,
        circuits: &[Circuit],
        observable: &PauliSum,
    ) -> Result<Vec<f64>, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_batch(circuits, observable);
        self.probe.qsim(circuits.len(), t);
        r
    }

    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_plan(plan, params, observable);
        self.probe.qsim(1, t);
        r
    }

    fn evaluate_plan_batch(
        &mut self,
        plan: &mut CompiledCircuit,
        points: &[Vec<f64>],
        observable: &CompiledObservable,
    ) -> Result<Vec<f64>, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_plan_batch(plan, points, observable);
        self.probe.qsim(points.len(), t);
        r
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(TimedBackend {
            inner: self.inner.clone_box(),
            probe: Arc::clone(&self.probe),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Proposer`] that forwards every call and books its self time.
pub struct TimedProposer {
    inner: Box<dyn Proposer>,
    probe: Arc<Probe>,
}

impl TimedProposer {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Proposer) -> R) -> R {
        let (q0, _) = self.probe.snapshot();
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let (q1, _) = self.probe.snapshot();
        // A callback-driven `propose` evaluates the objective itself; that
        // time is qsim's, not the optimizer's.
        let own = ns_since(t).saturating_sub(q1 - q0);
        self.probe.optim_ns.fetch_add(own, Relaxed);
        r
    }
}

impl Proposer for TimedProposer {
    fn propose(&mut self, theta: &[f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> Proposal {
        self.timed(|p| p.propose(theta, objective))
    }

    fn eval_points(&mut self, theta: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.timed(|p| p.eval_points(theta))
    }

    fn propose_from(&mut self, theta: &[f64], values: &[f64]) -> Proposal {
        self.timed(|p| p.propose_from(theta, values))
    }

    fn advance(&mut self) {
        self.timed(|p| p.advance())
    }

    fn iteration(&self) -> usize {
        self.inner.iteration()
    }

    fn evals_per_proposal(&self) -> usize {
        self.inner.evals_per_proposal()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Layer totals of one or more campaign units.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub build_ns: u64,
    pub qsim_ns: u64,
    pub qsim_calls: u64,
    pub qsim_points: u64,
    pub optim_ns: u64,
    /// Non-QISMET tuning-loop time outside qsim and optim.
    pub loop_other_ns: u64,
    /// QISMET tuning-loop time outside qsim and optim.
    pub controller_ns: u64,
    /// qsim and optim time inside QISMET loops (already in the totals).
    pub qismet_qsim_ns: u64,
    pub qismet_optim_ns: u64,
    /// Wall time the executor threads spent inside units.
    pub busy_ns: u64,
    /// QISMET controller decisions, and how many accepted.
    pub qismet_decisions: u64,
    pub qismet_accepts: u64,
    /// Blocking accept/reject decisions, and how many accepted.
    pub blocking_decisions: u64,
    pub blocking_accepts: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.build_ns += o.build_ns;
        self.qsim_ns += o.qsim_ns;
        self.qsim_calls += o.qsim_calls;
        self.qsim_points += o.qsim_points;
        self.optim_ns += o.optim_ns;
        self.loop_other_ns += o.loop_other_ns;
        self.controller_ns += o.controller_ns;
        self.qismet_qsim_ns += o.qismet_qsim_ns;
        self.qismet_optim_ns += o.qismet_optim_ns;
        self.busy_ns += o.busy_ns;
        self.qismet_decisions += o.qismet_decisions;
        self.qismet_accepts += o.qismet_accepts;
        self.blocking_decisions += o.blocking_decisions;
        self.blocking_accepts += o.blocking_accepts;
    }

    /// Time booked to named layers inside units.
    pub fn layer_ns(&self) -> u64 {
        self.build_ns + self.qsim_ns + self.optim_ns + self.loop_other_ns + self.controller_ns
    }
}

thread_local! {
    // One backend pool per executor thread, as the scheme runners keep.
    static POOL: RefCell<BackendPool> = RefCell::new(BackendPool::with_inner_threads(1));
}

fn build(spec: &RunSpec, probe: &Arc<Probe>, tally: &mut Tally) -> AppInstance {
    let t = Instant::now();
    // Trace capacity as the scheme runners size it.
    let capacity = spec.iterations * 7 + 16;
    let inner = POOL.with(|pool| pool.borrow_mut().backend_for(spec.app.n_qubits));
    let backend = Box::new(TimedBackend {
        inner,
        probe: Arc::clone(probe),
    });
    let app = spec
        .app
        .build_with_backend(capacity, spec.magnitude, spec.seed, backend);
    tally.build_ns += ns_since(t);
    app
}

fn scheme_of(spec: &RunSpec) -> Scheme {
    match spec.kind {
        RunKind::Scheme(
            s @ (Scheme::Baseline | Scheme::Blocking | Scheme::Resampling | Scheme::Qismet),
        ) => s,
        ref other => panic!("the benchmark does not mirror `{}`", other.name()),
    }
}

fn proposer(scheme: Scheme, dim: usize, seed: u64, probe: &Arc<Probe>) -> TimedProposer {
    let opt_seed = derive_seed(seed, 0xa11);
    let inner: Box<dyn Proposer> = match scheme {
        Scheme::Resampling => Box::new(Spsa::with_resampling(
            dim,
            GainSchedule::vqa_paper(),
            opt_seed,
            2,
        )),
        _ => Box::new(Spsa::new(dim, GainSchedule::vqa_paper(), opt_seed)),
    };
    TimedProposer {
        inner,
        probe: Arc::clone(probe),
    }
}

fn tuning(scheme: Scheme) -> TuningScheme {
    match scheme {
        Scheme::Blocking => TuningScheme::Blocking(BlockingPolicy::adaptive(0.05)),
        _ => TuningScheme::Baseline,
    }
}

fn record(spec: &RunSpec, series: Vec<f64>, jobs: usize, evals: u64, skips: usize) -> RunRecord {
    let n = series.len();
    let window = final_window(spec.iterations);
    RunRecord {
        label: spec.label.clone(),
        app: spec.app.name(),
        machine: spec.app.machine.name().to_string(),
        scheme: spec.kind.name(),
        scenario: spec.scenario,
        trial: spec.trial,
        iterations: spec.iterations,
        magnitude: spec.magnitude,
        seed: spec.seed,
        final_energy: qismet_mathkit::mean(&series[n.saturating_sub(window)..]),
        jobs,
        evals,
        skips,
        series,
    }
}

/// Books a finished tuning loop: its time outside qsim and optim goes to
/// the controller (QISMET) or the plain loop (everything else).
fn book_loop(tally: &mut Tally, probe: &Probe, before: (u64, u64), t: Instant, qismet: bool) {
    let loop_ns = ns_since(t);
    let (q1, o1) = probe.snapshot();
    let (dq, dopt) = (q1 - before.0, o1 - before.1);
    let own = loop_ns.saturating_sub(dq + dopt);
    if qismet {
        tally.controller_ns += own;
        tally.qismet_qsim_ns += dq;
        tally.qismet_optim_ns += dopt;
    } else {
        tally.loop_other_ns += own;
    }
}

/// Mirror of `run_scheme` for one spec.
fn run_single(spec: &RunSpec, probe: &Arc<Probe>, tally: &mut Tally) -> RunRecord {
    let scheme = scheme_of(spec);
    let iterations = spec.iterations;
    let mut app = build(spec, probe, tally);
    let mut opt = proposer(scheme, app.theta0.len(), spec.seed, probe);
    let before = probe.snapshot();
    let t = Instant::now();
    if scheme == Scheme::Qismet {
        // Job-budgeted, as the scheme runner accounts it.
        let rec = run_qismet_budgeted(
            &mut opt,
            &mut app.objective,
            app.theta0.clone(),
            iterations,
            iterations + 1,
            QismetConfig::paper_default(),
        );
        book_loop(tally, probe, before, t, true);
        let accepts = (rec.record.measured.len() - rec.forced_accepts) as u64;
        tally.qismet_accepts += accepts;
        tally.qismet_decisions += accepts + rec.skips as u64;
        let r = rec.record;
        return record(spec, r.measured, r.jobs, r.evals, rec.skips);
    }
    let rec = run_tuning(
        &mut opt,
        &mut app.objective,
        app.theta0.clone(),
        iterations,
        tuning(scheme),
    );
    book_loop(tally, probe, before, t, false);
    let skips = if scheme == Scheme::Blocking {
        tally.blocking_accepts += rec.accepted as u64;
        tally.blocking_decisions += (rec.accepted + rec.rejected) as u64;
        rec.rejected
    } else {
        0
    };
    record(spec, rec.measured, rec.jobs, rec.evals, skips)
}

/// Mirror of `run_scheme_lockstep` for one group of same-scenario specs.
fn run_lockstep(specs: &[RunSpec], probe: &Arc<Probe>, tally: &mut Tally) -> Vec<RunRecord> {
    let scheme = scheme_of(&specs[0]);
    let mut apps: Vec<AppInstance> = specs.iter().map(|s| build(s, probe, tally)).collect();
    let mut opts: Vec<TimedProposer> = specs
        .iter()
        .zip(&apps)
        .map(|(s, app)| proposer(scheme, app.theta0.len(), s.seed, probe))
        .collect();
    let before = probe.snapshot();
    let t = Instant::now();
    let mut lanes: Vec<TuningLane<'_>> = opts
        .iter_mut()
        .zip(apps.iter_mut())
        .map(|(p, app)| TuningLane {
            proposer: p,
            objective: &mut app.objective,
            theta0: app.theta0.clone(),
        })
        .collect();
    let records = run_tuning_lockstep(&mut lanes, specs[0].iterations, tuning(scheme));
    drop(lanes);
    book_loop(tally, probe, before, t, false);
    specs
        .iter()
        .zip(records)
        .map(|(spec, rec)| {
            let skips = if scheme == Scheme::Blocking {
                tally.blocking_accepts += rec.accepted as u64;
                tally.blocking_decisions += (rec.accepted + rec.rejected) as u64;
                rec.rejected
            } else {
                0
            };
            record(spec, rec.measured, rec.jobs, rec.evals, skips)
        })
        .collect()
}

/// Whether the scheme runners batch `scheme`'s trials into lanes.
fn lockstep_capable(kind: &RunKind) -> bool {
    matches!(
        kind,
        RunKind::Scheme(Scheme::Baseline | Scheme::Blocking | Scheme::Resampling)
    )
}

/// The executor's lockstep grouping: maximal runs of up to `lanes`
/// consecutive same-scenario specs of a lane-capable scheme.
pub fn lockstep_groups(specs: &[RunSpec], lanes: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < specs.len() {
        let mut j = i + 1;
        if lanes > 1 && lockstep_capable(&specs[i].kind) {
            while j < specs.len()
                && j - i < lanes
                && specs[j].scenario == specs[i].scenario
                && specs[j].kind == specs[i].kind
            {
                j += 1;
            }
        }
        groups.push(i..j);
        i = j;
    }
    groups
}

/// Runs one unit (a spec, or a lockstep group) with every layer timed.
pub fn run_unit(specs: &[RunSpec], group: Range<usize>) -> (Vec<RunRecord>, Tally) {
    let t = Instant::now();
    let probe = Arc::new(Probe::default());
    let mut tally = Tally::default();
    let records = if group.len() == 1 {
        vec![run_single(&specs[group.start], &probe, &mut tally)]
    } else {
        run_lockstep(&specs[group], &probe, &mut tally)
    };
    tally.qsim_ns = probe.qsim_ns.load(Relaxed);
    tally.qsim_calls = probe.qsim_calls.load(Relaxed);
    tally.qsim_points = probe.qsim_points.load(Relaxed);
    tally.optim_ns = probe.optim_ns.load(Relaxed);
    tally.busy_ns = ns_since(t);
    (records, tally)
}

/// One traced campaign: its report and where the time went.
pub struct TracedCampaign {
    pub report: CampaignReport,
    pub report_path: std::path::PathBuf,
    pub tally: Tally,
    /// First run start to report written.
    pub wall_ns: u64,
    pub expand_ns: u64,
    pub exec_ns: u64,
    pub report_ns: u64,
    /// Executor threads the campaign ran on.
    pub threads: usize,
}

impl TracedCampaign {
    /// Executor-thread time not spent inside a unit, counting the second
    /// thread as idle while the campaign is expanded and written.
    pub fn idle_ns(&self) -> u64 {
        let threads = self.threads as u64;
        let in_exec = (threads * self.exec_ns).saturating_sub(self.tally.busy_ns);
        in_exec + (threads - 1) * (self.wall_ns - self.exec_ns)
    }

    /// Share of `threads x wall` not booked to any layer or to idle time.
    pub fn unaccounted_frac(&self) -> f64 {
        let capacity = (self.threads as u64 * self.wall_ns) as f64;
        let booked = self.expand_ns + self.tally.layer_ns() + self.report_ns + self.idle_ns();
        (capacity - booked as f64) / capacity
    }
}

/// Runs `workload` through the traced runners on the workload's executor
/// shape and writes its report into `out_dir`.
pub fn run_traced(
    workload: &CampaignWorkload,
    out_dir: &Path,
) -> Result<TracedCampaign, Box<dyn std::error::Error>> {
    let campaign = &workload.campaign;
    let t0 = Instant::now();
    let specs = campaign.expand();
    let groups = lockstep_groups(&specs, workload.batch_lanes);
    let expand_ns = ns_since(t0);
    let executor = SweepExecutor::with_threads(workload.threads);
    let threads = executor.effective_threads(groups.len());
    let t_exec = Instant::now();
    let units = executor.try_run_specs(&groups, |g| run_unit(&specs, g.clone()))?;
    let exec_ns = ns_since(t_exec);
    let mut tally = Tally::default();
    let mut records = Vec::with_capacity(specs.len());
    for (unit_records, unit_tally) in units {
        records.extend(unit_records);
        tally.add(&unit_tally);
    }
    let t_report = Instant::now();
    let report = CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        meta: ReportMeta::current(),
        records,
    };
    let report_path = report.write_json_in(out_dir, None)?;
    let report_ns = ns_since(t_report);
    Ok(TracedCampaign {
        report,
        report_path,
        tally,
        wall_ns: ns_since(t0),
        expand_ns,
        exec_ns,
        report_ns,
        threads,
    })
}

/// Times the dense ground-energy solve that `AppSpec::build_with_backend`
/// performs, as separate calls: one per app in `apps`. The builds already
/// include this time; the separate calls only say how much of it is the
/// eigensolve.
pub fn ground_energy_ns<'a>(apps: impl IntoIterator<Item = &'a AppSpec>) -> u64 {
    let t = Instant::now();
    for app in apps {
        let tfim = Tfim {
            n: app.n_qubits,
            j: 1.0,
            h: 1.0,
            boundary: Boundary::Open,
        };
        std::hint::black_box(tfim.exact_ground_energy().expect("dense TFIM solve"));
    }
    ns_since(t)
}
