//! Iteration-level transient error traces.
//!
//! Section 6.2 of the paper: *"Per-iteration transient effects on VQA are
//! captured and normalized to the magnitude of the VQA estimations. These
//! transient effects are composed into a data structure and integrated into
//! Qiskit's VQA framework. In each simulated VQA iteration, an instance of
//! transient noise is accessed from the data structure."*
//!
//! This module is that data structure plus the generator that produces it.
//! A trace value is a **fraction of the objective magnitude** added to every
//! energy estimate taken in the corresponding quantum job. Values are keyed
//! by *job index* (execution time step), not VQA iteration index, because a
//! QISMET retry re-executes under fresh noise.
//!
//! The generative model is a quiet/burst regime-switching process matching
//! the device phenomenology of Figs. 3-5: long quiet stretches of small
//! jitter, with rare bursts whose amplitude is heavy-tailed, whose duration
//! is short (one to a few jobs), and whose sign is predominantly adverse
//! (pushing a minimization objective upward) but occasionally constructive.

use qismet_mathkit::{bernoulli, geometric, normal, pareto};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the quiet/burst transient process.
///
/// # Examples
///
/// ```
/// use qismet_qnoise::TransientModel;
/// use qismet_mathkit::rng_from_seed;
///
/// let model = TransientModel::moderate(0.125); // 12.5% of objective magnitude
/// let trace = model.generate(&mut rng_from_seed(7), 2000);
/// assert_eq!(trace.len(), 2000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientModel {
    /// Per-job probability of a burst starting while quiet.
    pub burst_rate: f64,
    /// Mean burst duration in jobs (geometric distribution).
    pub mean_burst_jobs: f64,
    /// Characteristic burst amplitude as a fraction of objective magnitude.
    pub burst_magnitude: f64,
    /// Pareto tail index for burst amplitudes (smaller = heavier tail).
    pub tail_alpha: f64,
    /// Cap on burst amplitude, as a multiple of `burst_magnitude`.
    pub amplitude_cap: f64,
    /// Probability that a burst is adverse (raises the objective).
    pub adverse_probability: f64,
    /// Standard deviation of quiet-regime jitter (fraction of magnitude).
    pub quiet_sigma: f64,
}

impl TransientModel {
    /// A moderate profile: bursts every ~25 jobs, 1-4 jobs long, on top of
    /// an always-present fluctuation floor.
    ///
    /// The floor reflects the paper's Fig. 4 zoom: even within one batch,
    /// per-circuit fidelity varies substantially at all times; the *extreme*
    /// transients are the exception, but the landscape is never still.
    pub fn moderate(burst_magnitude: f64) -> Self {
        TransientModel {
            burst_rate: 0.04,
            mean_burst_jobs: 2.5,
            burst_magnitude,
            tail_alpha: 2.5,
            amplitude_cap: 3.0,
            adverse_probability: 0.8,
            quiet_sigma: burst_magnitude * 0.12,
        }
    }

    /// A calm profile: rare short bursts (Fig. 12's "smooth with one sharp
    /// phase" behavior) over a gentler floor.
    pub fn calm(burst_magnitude: f64) -> Self {
        TransientModel {
            burst_rate: 0.006,
            mean_burst_jobs: 2.5,
            burst_magnitude,
            tail_alpha: 2.0,
            amplitude_cap: 4.0,
            adverse_probability: 0.85,
            quiet_sigma: burst_magnitude * 0.08,
        }
    }

    /// A severe profile: frequent large spikes (Fig. 5 Jakarta behavior)
    /// over a rough floor.
    pub fn severe(burst_magnitude: f64) -> Self {
        TransientModel {
            burst_rate: 0.07,
            mean_burst_jobs: 3.0,
            burst_magnitude,
            tail_alpha: 1.8,
            amplitude_cap: 4.0,
            adverse_probability: 0.82,
            quiet_sigma: burst_magnitude * 0.15,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.burst_rate) {
            return Err("burst_rate must be in [0, 1]".into());
        }
        if self.mean_burst_jobs < 1.0 {
            return Err("mean_burst_jobs must be >= 1".into());
        }
        if !(self.burst_magnitude.is_finite() && self.burst_magnitude >= 0.0) {
            return Err("burst_magnitude must be finite and non-negative".into());
        }
        if self.tail_alpha <= 0.0 {
            return Err("tail_alpha must be positive".into());
        }
        if self.amplitude_cap < 1.0 {
            return Err("amplitude_cap must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.adverse_probability) {
            return Err("adverse_probability must be in [0, 1]".into());
        }
        if self.quiet_sigma < 0.0 {
            return Err("quiet_sigma must be non-negative".into());
        }
        Ok(())
    }

    /// Generates a trace of `n_jobs` samples.
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid (call [`Self::validate`] first when
    /// handling untrusted input).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n_jobs: usize) -> TransientTrace {
        self.validate().expect("invalid transient model");
        let mut values = Vec::with_capacity(n_jobs);
        let mut burst_remaining = 0u64;
        let mut burst_amplitude = 0.0f64;
        for _ in 0..n_jobs {
            if burst_remaining == 0 && self.burst_magnitude > 0.0 && bernoulli(rng, self.burst_rate)
            {
                // Start a burst: duration and amplitude drawn once, so a
                // single physical event has a consistent footprint.
                burst_remaining = geometric(rng, 1.0 / self.mean_burst_jobs);
                let raw = pareto(rng, 1.0, self.tail_alpha).min(self.amplitude_cap);
                let sign = if bernoulli(rng, self.adverse_probability) {
                    1.0
                } else {
                    -1.0
                };
                burst_amplitude = sign * raw * self.burst_magnitude;
            }
            if burst_remaining > 0 {
                burst_remaining -= 1;
                // Small within-burst jitter on top of the event amplitude.
                let jitter = normal(rng, 0.0, 0.1 * burst_amplitude.abs());
                values.push(burst_amplitude + jitter);
            } else {
                values.push(normal(rng, 0.0, self.quiet_sigma));
            }
        }
        TransientTrace { values }
    }
}

/// A realized transient-error trace (the Section 6.2 data structure).
///
/// Values are fractions of the objective magnitude; index is the quantum-job
/// counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TransientTrace {
    values: Vec<f64>,
}

impl TransientTrace {
    /// Builds directly from values.
    pub fn from_values(values: Vec<f64>) -> Self {
        TransientTrace { values }
    }

    /// An all-zero (transient-free) trace.
    pub fn zeros(n: usize) -> Self {
        TransientTrace {
            values: vec![0.0; n],
        }
    }

    /// Number of job slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The trace value at a job index.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range — generate traces long enough for the
    /// retry overhead (the harnesses allocate ~4x the iteration count).
    /// Callers that need to handle exhaustion gracefully should use
    /// [`TransientTrace::get`] instead.
    pub fn value(&self, job: usize) -> f64 {
        self.values[job]
    }

    /// The trace value at a job index, or `None` when the trace is
    /// exhausted. The non-panicking lookup behind
    /// `qismet_vqa::NoisyObjective`'s typed exhaustion error.
    pub fn get(&self, job: usize) -> Option<f64> {
        self.values.get(job).copied()
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns a copy with every value multiplied by `k` — how the Fig. 10
    /// magnitude sweep rescales one base trace to 0-50%.
    pub fn scaled(&self, k: f64) -> TransientTrace {
        TransientTrace {
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }

    /// Fraction of slots whose |value| exceeds `threshold`.
    pub fn exceedance_fraction(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|v| v.abs() > threshold).count() as f64 / self.values.len() as f64
    }

    /// The |value| percentile (e.g. `90.0` for the paper's `90p` threshold).
    pub fn magnitude_percentile(&self, p: f64) -> f64 {
        let mags: Vec<f64> = self.values.iter().map(|v| v.abs()).collect();
        qismet_mathkit::percentile(&mags, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::rng_from_seed;

    #[test]
    fn trace_length_and_determinism() {
        let m = TransientModel::moderate(0.1);
        let a = m.generate(&mut rng_from_seed(1), 500);
        let b = m.generate(&mut rng_from_seed(1), 500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn quiet_majority_bursty_minority() {
        let m = TransientModel::moderate(0.2);
        let trace = m.generate(&mut rng_from_seed(2), 20_000);
        // Values near the burst magnitude should be rare.
        let burst_frac = trace.exceedance_fraction(0.1);
        assert!(
            burst_frac > 0.01 && burst_frac < 0.25,
            "burst fraction {burst_frac}"
        );
        // Quiet slots hug zero.
        let p50 = trace.magnitude_percentile(50.0);
        assert!(p50 < 0.02, "median magnitude {p50}");
    }

    #[test]
    fn bursts_are_mostly_adverse() {
        let m = TransientModel::moderate(0.2);
        let trace = m.generate(&mut rng_from_seed(3), 50_000);
        let big: Vec<f64> = trace
            .values()
            .iter()
            .copied()
            .filter(|v| v.abs() > 0.1)
            .collect();
        assert!(!big.is_empty());
        let adverse = big.iter().filter(|&&v| v > 0.0).count() as f64 / big.len() as f64;
        assert!((adverse - 0.8).abs() < 0.1, "adverse fraction {adverse}");
    }

    #[test]
    fn zero_magnitude_is_pure_jitter() {
        let mut m = TransientModel::moderate(0.0);
        m.quiet_sigma = 0.0;
        let trace = m.generate(&mut rng_from_seed(4), 100);
        assert!(trace.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_is_value_without_the_panic() {
        let trace = TransientTrace::from_values(vec![0.25, -0.5]);
        assert_eq!(trace.get(0), Some(0.25));
        assert_eq!(trace.get(1), Some(-0.5));
        assert_eq!(trace.get(2), None);
        assert_eq!(trace.get(usize::MAX), None);
    }

    #[test]
    fn scaling_preserves_shape() {
        let m = TransientModel::moderate(0.1);
        let base = m.generate(&mut rng_from_seed(5), 1000);
        let scaled = base.scaled(2.0);
        for (a, b) in base.values().iter().zip(scaled.values().iter()) {
            assert!((b - 2.0 * a).abs() < 1e-15);
        }
    }

    #[test]
    fn severity_ordering() {
        // Severe profiles should exceed a threshold more often than calm.
        let calm = TransientModel::calm(0.2).generate(&mut rng_from_seed(6), 50_000);
        let severe = TransientModel::severe(0.2).generate(&mut rng_from_seed(6), 50_000);
        assert!(severe.exceedance_fraction(0.1) > 2.0 * calm.exceedance_fraction(0.1));
    }

    #[test]
    fn percentile_thresholds_are_monotone() {
        let trace = TransientModel::moderate(0.15).generate(&mut rng_from_seed(7), 10_000);
        let p75 = trace.magnitude_percentile(75.0);
        let p90 = trace.magnitude_percentile(90.0);
        let p99 = trace.magnitude_percentile(99.0);
        assert!(p75 <= p90 && p90 <= p99);
        assert!(p99 > 0.0);
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut m = TransientModel::moderate(0.1);
        m.burst_rate = 1.5;
        assert!(m.validate().is_err());
        let mut m = TransientModel::moderate(0.1);
        m.mean_burst_jobs = 0.5;
        assert!(m.validate().is_err());
        let mut m = TransientModel::moderate(0.1);
        m.amplitude_cap = 0.5;
        assert!(m.validate().is_err());
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let mut m = TransientModel::moderate(0.1);
            m.burst_magnitude = bad;
            assert!(m.validate().is_err(), "burst_magnitude {bad}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let m = TransientModel::severe(0.25);
        let trace = m.generate(&mut rng_from_seed(8), 64);
        let json = serde_json::to_string(&trace).unwrap();
        let back: TransientTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
        let mjson = serde_json::to_string(&m).unwrap();
        let mback: TransientModel = serde_json::from_str(&mjson).unwrap();
        assert_eq!(m, mback);
    }

    #[test]
    fn burst_duration_clusters() {
        // Consecutive large values should appear (bursts last > 1 job on
        // average), i.e. autocorrelation of the burst indicator is positive.
        let trace = TransientModel::moderate(0.3).generate(&mut rng_from_seed(9), 50_000);
        let indicator: Vec<f64> = trace
            .values()
            .iter()
            .map(|v| if v.abs() > 0.15 { 1.0 } else { 0.0 })
            .collect();
        let shifted: Vec<f64> = indicator[1..].to_vec();
        let corr = qismet_mathkit::pearson(&indicator[..indicator.len() - 1], &shifted);
        assert!(corr > 0.2, "burst autocorrelation {corr}");
    }
}
