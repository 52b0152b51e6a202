//! Declarative sweep definitions: scenarios, campaigns, and grid expansion.
//!
//! A [`ScenarioSpec`] is one point-family of the evaluation space — an app
//! on a machine under a scheme, at a transient magnitude, for some number of
//! trials. A [`Campaign`] is an ordered list of scenarios (hand-assembled or
//! cross-producted from a [`CampaignGrid`]) that expands into a flat list of
//! independent [`RunSpec`]s. Each `RunSpec` carries its fully-resolved seed,
//! so execution order — sequential or parallel — cannot affect results.

use crate::{scaled, Scheme};
use qismet_filters::KalmanFilter;
use qismet_mathkit::derive_seed;
use qismet_qnoise::Machine;
use qismet_vqa::AppSpec;

/// What one run actually executes.
#[derive(Debug, Clone, PartialEq)]
pub enum RunKind {
    /// One of the comparison schemes of Section 6.3.
    Scheme(Scheme),
    /// A specific Kalman-filter hyper-parameter instance (Fig. 16 grid).
    Kalman(KalmanFilter),
}

impl RunKind {
    /// Display name (scheme name or Kalman instance label).
    pub fn name(&self) -> String {
        match self {
            RunKind::Scheme(s) => s.name(),
            RunKind::Kalman(k) => k.label(),
        }
    }
}

/// How per-run seeds are resolved at expansion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSpec {
    /// Explicit base seed; trial `t` runs with `base + t * 0x1000` (the
    /// convention the hand-rolled figure harnesses used, kept so refactored
    /// figures reproduce their historical series exactly).
    Fixed(u64),
    /// Derived deterministically from the campaign seed and this run's grid
    /// coordinates via [`derive_seed`]; collision-free across any grid.
    FromCampaign,
}

/// One declarative scenario: (app, machine, scheme, iterations, magnitude,
/// trials) plus a seed policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display label (defaults to the run kind's name).
    pub label: Option<String>,
    /// The application (already carrying its machine; see
    /// [`ScenarioSpec::on_machine`] to override).
    pub app: AppSpec,
    /// What to run.
    pub kind: RunKind,
    /// SPSA iterations granted to each trial.
    pub iterations: usize,
    /// Transient magnitude override (`None` = machine native).
    pub magnitude: Option<f64>,
    /// Independent repetitions of this scenario.
    pub trials: usize,
    /// Seed policy.
    pub seed: SeedSpec,
}

impl ScenarioSpec {
    /// A single-trial scenario for `scheme` on `app`, campaign-seeded.
    pub fn new(app: AppSpec, scheme: Scheme, iterations: usize) -> Self {
        ScenarioSpec {
            label: None,
            app,
            kind: RunKind::Scheme(scheme),
            iterations,
            magnitude: None,
            trials: 1,
            seed: SeedSpec::FromCampaign,
        }
    }

    /// A single-trial scenario running one Kalman filter instance.
    pub fn kalman(app: AppSpec, filter: KalmanFilter, iterations: usize) -> Self {
        ScenarioSpec {
            label: Some(filter.label()),
            app,
            kind: RunKind::Kalman(filter),
            iterations,
            magnitude: None,
            trials: 1,
            seed: SeedSpec::FromCampaign,
        }
    }

    /// Overrides the machine whose traces drive the noise.
    pub fn on_machine(mut self, machine: Machine) -> Self {
        self.app.machine = machine;
        self
    }

    /// Sets the transient magnitude (fraction of objective magnitude).
    pub fn with_magnitude(mut self, magnitude: f64) -> Self {
        self.magnitude = Some(magnitude);
        self
    }

    /// Sets an explicit base seed (see [`SeedSpec::Fixed`]).
    pub fn seeded(mut self, base: u64) -> Self {
        self.seed = SeedSpec::Fixed(base);
        self
    }

    /// Sets the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the display label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The effective display label.
    pub fn display_label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.kind.name())
    }
}

/// One fully-resolved, independent run: a scenario instance at a specific
/// trial with its seed already fixed. `RunSpec`s are pure data — two equal
/// specs always produce bit-identical [`crate::report::RunRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Flat index in campaign expansion order.
    pub index: usize,
    /// Index of the originating scenario.
    pub scenario: usize,
    /// Trial index within the scenario.
    pub trial: usize,
    /// Display label.
    pub label: String,
    /// The application to build (machine already resolved).
    pub app: AppSpec,
    /// What to run.
    pub kind: RunKind,
    /// Iterations granted.
    pub iterations: usize,
    /// Transient magnitude override.
    pub magnitude: Option<f64>,
    /// Fully-resolved seed.
    pub seed: u64,
}

/// A named, seeded, ordered collection of scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (used for artifact file names).
    pub name: String,
    /// Master seed for [`SeedSpec::FromCampaign`] scenarios.
    pub seed: u64,
    /// Scenarios, in expansion order.
    pub scenarios: Vec<ScenarioSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            scenarios: Vec::new(),
        }
    }

    /// Appends a scenario (builder form).
    #[must_use]
    pub fn with(mut self, scenario: ScenarioSpec) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Appends a scenario.
    pub fn push(&mut self, scenario: ScenarioSpec) {
        self.scenarios.push(scenario);
    }

    /// Expands every scenario x trial into a flat, ordered run list with
    /// fully-resolved seeds.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::new();
        for (si, scenario) in self.scenarios.iter().enumerate() {
            for trial in 0..scenario.trials.max(1) {
                let seed = match scenario.seed {
                    SeedSpec::Fixed(base) => base.wrapping_add(trial as u64 * 0x1000),
                    SeedSpec::FromCampaign => run_seed(self.seed, si, trial),
                };
                runs.push(RunSpec {
                    index: runs.len(),
                    scenario: si,
                    trial,
                    label: scenario.display_label(),
                    app: scenario.app.clone(),
                    kind: scenario.kind.clone(),
                    iterations: scenario.iterations,
                    magnitude: scenario.magnitude,
                    seed,
                });
            }
        }
        runs
    }

    /// Total run count after expansion.
    pub fn len(&self) -> usize {
        self.scenarios.iter().map(|s| s.trials.max(1)).sum()
    }

    /// A stable content hash of the fully-expanded campaign: name, master
    /// seed, and every run's complete identity (grid coordinates, app,
    /// kind, iterations, magnitude bits, resolved seed).
    ///
    /// This is the key the cluster layer uses end to end — the
    /// coordinator/worker `Hello` handshake rejects a worker that expanded
    /// a different campaign, and every checkpoint-journal entry carries the
    /// fingerprint so `--resume` can never replay records into a campaign
    /// they were not produced by. Any change to the campaign definition
    /// (or to the spec types' textual form across a code change) flips the
    /// fingerprint and conservatively invalidates old checkpoints.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = qismet_cluster::Fingerprint::new();
        fp.update_str(&self.name);
        fp.update_u64(self.seed);
        for spec in self.expand() {
            fp.update_u64(spec.index as u64);
            fp.update_u64(spec.scenario as u64);
            fp.update_u64(spec.trial as u64);
            fp.update_str(&spec.label);
            fp.update_str(&format!("{:?}", spec.app));
            fp.update_str(&format!("{:?}", spec.kind));
            fp.update_u64(spec.iterations as u64);
            fp.update_str(&format!("{:?}", spec.magnitude.map(f64::to_bits)));
            fp.update_u64(spec.seed);
        }
        fp.finish()
    }

    /// Whether the campaign has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Derives the seed of run (`scenario`, `trial`) from the campaign seed.
///
/// The grid coordinates are packed into a single stream label
/// (`scenario * 2^20 + trial`) and pushed through [`derive_seed`], whose
/// SplitMix64 finalization is a bijection for a fixed parent — so distinct
/// coordinates can never collide (for trials below `2^20`, far beyond any
/// real campaign).
pub fn run_seed(campaign_seed: u64, scenario: usize, trial: usize) -> u64 {
    debug_assert!(trial < (1 << 20), "trial index exceeds packing range");
    derive_seed(campaign_seed, ((scenario as u64) << 20) | trial as u64)
}

/// Cross-product grid specification: apps x machines x schemes (plus an
/// optional QISMET threshold-percentile axis) x magnitudes x trials,
/// expanded scenario-per-combination in that nesting order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignGrid {
    /// Applications to sweep.
    pub apps: Vec<AppSpec>,
    /// Machine overrides; empty = keep each app's native machine.
    pub machines: Vec<Machine>,
    /// Schemes to compare.
    pub schemes: Vec<Scheme>,
    /// QISMET |Tm| threshold percentiles (`1..=99`) to sweep in addition
    /// to `schemes`: each percentile `p` appends a
    /// [`Scheme::QismetAt`]`(p)` scenario to every grid cell, sharing the
    /// cell's seed so threshold variants stay pairable against the other
    /// schemes (the Fig. 19 sensitivity study, generalized to any grid).
    /// Empty = no extra axis.
    pub thresholds: Vec<u32>,
    /// Transient magnitudes; empty = one native-magnitude point.
    pub magnitudes: Vec<f64>,
    /// Iterations per run (already scaled).
    pub iterations: usize,
    /// Trials per grid point.
    pub trials: usize,
}

impl CampaignGrid {
    /// A one-app, scheme-comparison grid at native magnitude.
    pub fn new(app: AppSpec, schemes: Vec<Scheme>, iterations: usize) -> Self {
        CampaignGrid {
            apps: vec![app],
            machines: Vec::new(),
            schemes,
            thresholds: Vec::new(),
            magnitudes: Vec::new(),
            iterations,
            trials: 1,
        }
    }

    /// Expands into a campaign named `name` with master seed `seed`.
    ///
    /// Every scheme within one (app, machine, magnitude) grid cell shares
    /// the same per-trial seed — derived from the campaign seed and the
    /// *cell* coordinates, excluding the scheme axis — so cross-scheme
    /// comparisons see the same transient trace and starting parameters
    /// (the same-seed comparability convention of [`crate::run_scheme`]).
    pub fn into_campaign(self, name: impl Into<String>, seed: u64) -> Campaign {
        let mut campaign = Campaign::new(name, seed);
        let mut cell: u64 = 0;
        for app in &self.apps {
            let machines: Vec<Option<Machine>> = if self.machines.is_empty() {
                vec![None]
            } else {
                self.machines.iter().copied().map(Some).collect()
            };
            for machine in machines {
                let magnitudes: Vec<Option<f64>> = if self.magnitudes.is_empty() {
                    vec![None]
                } else {
                    self.magnitudes.iter().copied().map(Some).collect()
                };
                for magnitude in magnitudes {
                    let cell_seed = derive_seed(seed, cell);
                    cell += 1;
                    let cell_schemes = self
                        .schemes
                        .iter()
                        .copied()
                        .chain(self.thresholds.iter().map(|&p| Scheme::QismetAt(p)));
                    for scheme in cell_schemes {
                        let mut s = ScenarioSpec::new(app.clone(), scheme, self.iterations)
                            .with_trials(self.trials)
                            .seeded(cell_seed);
                        if let Some(m) = machine {
                            s = s.on_machine(m);
                        }
                        if let Some(mag) = magnitude {
                            s = s.with_magnitude(mag);
                        }
                        campaign.push(s);
                    }
                }
            }
        }
        campaign
    }
}

/// Parses a scheme from a CLI-friendly name (case-insensitive):
/// `baseline`, `qismet`, `qismet-conservative`, `qismet-aggressive`,
/// `blocking`, `resampling`, `second-order`, `kalman-best`,
/// `only-transients-<pct>`, `qismet-<pct>p` (threshold percentile in
/// `1..=99`).
pub fn parse_scheme(s: &str) -> Option<Scheme> {
    let lower = s.to_ascii_lowercase();
    Some(match lower.as_str() {
        "baseline" => Scheme::Baseline,
        "qismet" => Scheme::Qismet,
        "qismet-conservative" | "conservative" => Scheme::QismetConservative,
        "qismet-aggressive" | "aggressive" => Scheme::QismetAggressive,
        "blocking" => Scheme::Blocking,
        "resampling" => Scheme::Resampling,
        "second-order" | "2nd-order" => Scheme::SecondOrder,
        "kalman-best" | "kalman" => Scheme::KalmanBest,
        other => {
            if let Some(pct) = other.strip_prefix("only-transients-") {
                Scheme::OnlyTransients(pct.parse().ok()?)
            } else {
                let pct = other
                    .strip_prefix("qismet-")?
                    .strip_suffix('p')?
                    .parse()
                    .ok()
                    .filter(|p| (1..=99).contains(p))?;
                Scheme::QismetAt(pct)
            }
        }
    })
}

/// Parses a QISMET threshold percentile for [`CampaignGrid::thresholds`]
/// (`1..=99`, with or without a trailing `p`).
pub fn parse_threshold(s: &str) -> Option<u32> {
    s.trim_end_matches('p')
        .parse()
        .ok()
        .filter(|p| (1..=99).contains(p))
}

/// Checks a transient magnitude for [`CampaignGrid::magnitudes`]: a
/// fraction of the objective magnitude, so finite and non-negative.
pub(crate) fn check_magnitude(m: f64) -> Result<f64, String> {
    if m.is_finite() && m >= 0.0 {
        Ok(m)
    } else {
        Err(format!(
            "invalid magnitude `{m}`: must be finite and non-negative"
        ))
    }
}

/// The default scaled iteration count for ad-hoc campaigns.
pub fn default_iterations() -> usize {
    scaled(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppSpec {
        AppSpec::by_id(2).unwrap()
    }

    #[test]
    fn expansion_orders_and_indexes_runs() {
        let campaign = Campaign::new("t", 9)
            .with(ScenarioSpec::new(app(), Scheme::Baseline, 50).with_trials(2))
            .with(ScenarioSpec::new(app(), Scheme::Qismet, 50));
        let runs = campaign.expand();
        assert_eq!(runs.len(), 3);
        assert_eq!(campaign.len(), 3);
        assert_eq!(
            runs.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(runs[0].scenario, 0);
        assert_eq!(runs[1].trial, 1);
        assert_eq!(runs[2].scenario, 1);
        assert_eq!(runs[2].label, "QISMET");
    }

    #[test]
    fn fixed_seeds_follow_figure_convention() {
        let campaign = Campaign::new("t", 0).with(
            ScenarioSpec::new(app(), Scheme::Baseline, 50)
                .seeded(0xf13)
                .with_trials(3),
        );
        let seeds: Vec<u64> = campaign.expand().iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0xf13, 0xf13 + 0x1000, 0xf13 + 0x2000]);
    }

    #[test]
    fn fingerprint_tracks_campaign_identity() {
        let base = || {
            Campaign::new("t", 9)
                .with(ScenarioSpec::new(app(), Scheme::Baseline, 50).with_trials(2))
        };
        assert_eq!(base().fingerprint(), base().fingerprint());
        let renamed = Campaign::new("t2", 9)
            .with(ScenarioSpec::new(app(), Scheme::Baseline, 50).with_trials(2));
        assert_ne!(base().fingerprint(), renamed.fingerprint());
        let reseeded = Campaign::new("t", 10)
            .with(ScenarioSpec::new(app(), Scheme::Baseline, 50).with_trials(2));
        assert_ne!(base().fingerprint(), reseeded.fingerprint());
        let regridded =
            Campaign::new("t", 9).with(ScenarioSpec::new(app(), Scheme::Qismet, 50).with_trials(2));
        assert_ne!(base().fingerprint(), regridded.fingerprint());
        let remagnituded = Campaign::new("t", 9).with(
            ScenarioSpec::new(app(), Scheme::Baseline, 50)
                .with_trials(2)
                .with_magnitude(0.25),
        );
        assert_ne!(base().fingerprint(), remagnituded.fingerprint());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = run_seed(42, 0, 0);
        assert_eq!(a, run_seed(42, 0, 0));
        assert_ne!(a, run_seed(42, 0, 1));
        assert_ne!(a, run_seed(42, 1, 0));
        assert_ne!(run_seed(42, 1, 0), run_seed(43, 1, 0));
    }

    #[test]
    fn grid_cross_product_shape() {
        let grid = CampaignGrid {
            apps: vec![AppSpec::by_id(1).unwrap(), AppSpec::by_id(2).unwrap()],
            machines: vec![Machine::Sydney, Machine::Jakarta],
            schemes: vec![Scheme::Baseline, Scheme::Qismet],
            thresholds: Vec::new(),
            magnitudes: vec![0.1, 0.5],
            iterations: 50,
            trials: 3,
        };
        let campaign = grid.into_campaign("g", 7);
        assert_eq!(campaign.scenarios.len(), 2 * 2 * 2 * 2);
        assert_eq!(campaign.len(), 2 * 2 * 2 * 2 * 3);
        // Nesting order: scheme fastest, then magnitude, then machine.
        assert_eq!(
            campaign.scenarios[0].kind,
            RunKind::Scheme(Scheme::Baseline)
        );
        assert_eq!(campaign.scenarios[1].kind, RunKind::Scheme(Scheme::Qismet));
        assert_eq!(campaign.scenarios[0].magnitude, Some(0.1));
        assert_eq!(campaign.scenarios[2].magnitude, Some(0.5));
        assert_eq!(campaign.scenarios[0].app.machine, Machine::Sydney);
        assert_eq!(campaign.scenarios[4].app.machine, Machine::Jakarta);
        // Schemes within one (app, machine, magnitude) cell share a seed so
        // cross-scheme results stay directly comparable; adjacent cells do
        // not.
        assert_eq!(campaign.scenarios[0].seed, campaign.scenarios[1].seed);
        assert_ne!(campaign.scenarios[0].seed, campaign.scenarios[2].seed);
    }

    #[test]
    fn scheme_parsing_roundtrip() {
        for (text, want) in [
            ("baseline", Scheme::Baseline),
            ("QISMET", Scheme::Qismet),
            ("qismet-conservative", Scheme::QismetConservative),
            ("qismet-aggressive", Scheme::QismetAggressive),
            ("blocking", Scheme::Blocking),
            ("resampling", Scheme::Resampling),
            ("second-order", Scheme::SecondOrder),
            ("kalman-best", Scheme::KalmanBest),
            ("only-transients-90", Scheme::OnlyTransients(90)),
            ("qismet-85p", Scheme::QismetAt(85)),
            ("QISMET-99P", Scheme::QismetAt(99)),
        ] {
            assert_eq!(parse_scheme(text), Some(want), "{text}");
        }
        assert_eq!(parse_scheme("nope"), None);
        assert_eq!(parse_scheme("only-transients-x"), None);
        assert_eq!(parse_scheme("qismet-0p"), None);
        assert_eq!(parse_scheme("qismet-100p"), None);
        assert_eq!(parse_scheme("qismet-xp"), None);
    }

    #[test]
    fn threshold_axis_appends_qismet_at_scenarios_per_cell() {
        let grid = CampaignGrid {
            apps: vec![app()],
            machines: Vec::new(),
            schemes: vec![Scheme::Baseline],
            thresholds: vec![75, 90, 99],
            magnitudes: vec![0.1, 0.5],
            iterations: 50,
            trials: 2,
        };
        let campaign = grid.into_campaign("thr", 7);
        // 2 magnitude cells x (1 scheme + 3 thresholds).
        assert_eq!(campaign.scenarios.len(), 2 * 4);
        assert_eq!(
            campaign.scenarios[1].kind,
            RunKind::Scheme(Scheme::QismetAt(75))
        );
        assert_eq!(
            campaign.scenarios[3].kind,
            RunKind::Scheme(Scheme::QismetAt(99))
        );
        // Threshold variants share their cell's seed with the baseline so
        // paired cross-scheme comparisons stay valid.
        assert_eq!(campaign.scenarios[0].seed, campaign.scenarios[3].seed);
        assert_ne!(campaign.scenarios[0].seed, campaign.scenarios[4].seed);
        assert_eq!(campaign.scenarios[1].display_label(), "QISMET (75p)");
    }

    #[test]
    fn threshold_parsing_bounds() {
        assert_eq!(parse_threshold("90"), Some(90));
        assert_eq!(parse_threshold("85p"), Some(85));
        assert_eq!(parse_threshold("0"), None);
        assert_eq!(parse_threshold("100"), None);
        assert_eq!(parse_threshold("x"), None);
    }
}
