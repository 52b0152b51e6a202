//! Descriptive statistics used by the evaluation harnesses: means, variances,
//! percentiles (the `99p`/`90p`/`75p` thresholds of the paper), and the
//! geometric mean used in Figs. 13 and 17.

use std::collections::VecDeque;

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(qismet_mathkit::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (`n - 1` denominator). Returns `0.0` for fewer
/// than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Population variance (`n` denominator). Returns `0.0` for an empty slice.
pub fn variance_population(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Linearly interpolated percentile, `p` in `[0, 100]`.
///
/// Matches the common "linear" (NumPy default) definition. Returns `NaN` for
/// an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any element is NaN.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of a slice already in ascending order, shared by
/// [`percentile`] and [`SortedWindow`] so both give the same bits.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The last `capacity` values of a stream, kept both in arrival order (for
/// eviction) and in ascending order (for percentile reads).
///
/// A push costs a binary search plus a `Vec` insert (and, when full, one
/// remove): O(log n) comparisons and an O(n) memmove. A percentile read is
/// an O(1) interpolation, and equals [`percentile`] over the window's values
/// bit for bit as long as the window never holds both `-0.0` and `+0.0`
/// (those compare equal, so their order after a sort is not defined by
/// value; the result is then equal under `==` but may differ in sign).
///
/// # Examples
///
/// ```
/// use qismet_mathkit::{percentile, SortedWindow};
/// let mut w = SortedWindow::new(3);
/// for x in [4.0, 1.0, 3.0, 2.0] {
///     w.push(x);
/// }
/// // 4.0 was evicted: the window is [1.0, 3.0, 2.0].
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.percentile(50.0), percentile(&[1.0, 3.0, 2.0], 50.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortedWindow {
    arrivals: VecDeque<f64>,
    // Same values as `arrivals`, ascending under `f64::total_cmp`, so that
    // an evicted value is found by its exact bits. NaNs sort to the ends.
    sorted: Vec<f64>,
    capacity: usize,
}

impl SortedWindow {
    /// An empty window holding at most `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SortedWindow {
            arrivals: VecDeque::new(),
            sorted: Vec::new(),
            capacity,
        }
    }

    /// Appends `x`, evicting the oldest value once the window is full.
    ///
    /// NaN is accepted here; reading a percentile while it is still in the
    /// window panics, as [`percentile`] would.
    pub fn push(&mut self, x: f64) {
        if self.arrivals.len() == self.capacity {
            let old = self
                .arrivals
                .pop_front()
                .expect("a full window is non-empty");
            let at = self
                .sorted
                .binary_search_by(|v| v.total_cmp(&old))
                .expect("every window value is in the sorted copy");
            self.sorted.remove(at);
        }
        let at = self.sorted.partition_point(|v| v.total_cmp(&x).is_lt());
        self.sorted.insert(at, x);
        self.arrivals.push_back(x);
    }

    /// Number of values in the window.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Linearly interpolated percentile of the window, `p` in `[0, 100]`.
    /// Returns `NaN` for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the window holds a NaN.
    pub fn percentile(&self, p: f64) -> f64 {
        if let (Some(lo), Some(hi)) = (self.sorted.first(), self.sorted.last()) {
            assert!(!lo.is_nan() && !hi.is_nan(), "NaN in percentile input");
        }
        percentile_sorted(&self.sorted, p)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of strictly positive values. Returns `NaN` if any value is
/// non-positive or the slice is empty.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Minimum of a slice. Returns `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum of a slice. Returns `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// Running (cumulative) minimum — useful for "best objective so far" curves.
pub fn running_min(xs: &[f64]) -> Vec<f64> {
    let mut best = f64::INFINITY;
    xs.iter()
        .map(|&x| {
            best = best.min(x);
            best
        })
        .collect()
}

/// Simple trailing moving average with window `w` (window is clipped at the
/// start of the series).
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0.0;
    for i in 0..xs.len() {
        acc += xs[i];
        if i >= w {
            acc -= xs[i - w];
        }
        let n = (i + 1).min(w);
        out.push(acc / n as f64);
    }
    out
}

/// Pearson correlation of two equal-length series. Returns `NaN` when either
/// series is constant or the lengths differ.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance_population(&xs) - 4.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert!(geomean(&[]).is_nan());
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 50.0), 30.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_range_checked() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn sorted_window_matches_percentile_bitwise() {
        use rand::Rng;
        const PS: [f64; 6] = [0.0, 25.0, 75.0, 90.0, 99.0, 100.0];
        let mut rng = crate::rng_from_seed(11);
        for capacity in [1, 2, 7, 64] {
            let mut w = SortedWindow::new(capacity);
            let mut naive: VecDeque<f64> = VecDeque::new();
            // Few distinct values (duplicates, zeros) interleaved with
            // continuous ones; 20x capacity pushes so eviction runs often.
            let palette = [0.0, 0.5, 1.0, 1.0, 3.25];
            for step in 0..20 * capacity + 50 {
                let x = match rng.gen_range(0..3) {
                    0 => palette[rng.gen_range(0..palette.len())],
                    1 => crate::normal(&mut rng, 0.0, 1.0).abs(),
                    _ => crate::exponential(&mut rng, 0.1),
                };
                w.push(x);
                naive.push_back(x);
                if naive.len() > capacity {
                    naive.pop_front();
                }
                assert_eq!(w.len(), naive.len());
                let values: Vec<f64> = naive.iter().copied().collect();
                for p in PS {
                    let (got, want) = (w.percentile(p), percentile(&values, p));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "capacity {capacity}, step {step}, p {p}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_window_starts_empty() {
        let w = SortedWindow::new(4);
        assert!(w.is_empty());
        assert!(w.percentile(50.0).is_nan());
    }

    #[test]
    fn sorted_window_forgets_an_evicted_nan() {
        let mut w = SortedWindow::new(2);
        w.push(f64::NAN);
        w.push(1.0);
        w.push(2.0);
        assert_eq!(w.percentile(50.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn sorted_window_rejects_nan_on_read() {
        let mut w = SortedWindow::new(8);
        w.push(1.0);
        w.push(f64::NAN);
        w.push(2.0);
        w.percentile(50.0);
    }

    #[test]
    fn geomean_matches_paper_style_ratios() {
        // Fig. 13 style: per-machine improvement ratios.
        let ratios = [1.42, 1.50, 1.51, 1.29, 1.35, 1.27];
        let g = geomean(&ratios);
        assert!(g > 1.35 && g < 1.42, "geomean {g} out of expected band");
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert!(geomean(&[1.0, -1.0]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn running_min_is_monotone() {
        let xs = [3.0, 1.0, 2.0, 0.5, 4.0];
        assert_eq!(running_min(&xs), vec![3.0, 1.0, 1.0, 0.5, 0.5]);
    }

    #[test]
    fn moving_average_window() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(moving_average(&xs, 2), vec![1.0, 1.5, 2.5, 3.5]);
        assert_eq!(moving_average(&xs, 1), xs.to_vec());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
        assert!(pearson(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
