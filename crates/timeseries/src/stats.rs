//! Descriptive statistics over (possibly missing) time-series values.
//!
//! The paper uses the Pearson correlation (Section 5.1) to characterise how
//! "linearly correlated" a reference series is with the incomplete series,
//! and the experiments report root-mean-square errors.  These helpers are
//! shared by the analysis experiments, the dataset generators and the
//! baseline algorithms.

use crate::errors::TsError;

/// Arithmetic mean of a slice; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance (`1/n`) of a slice; `None` for an empty slice.
pub fn population_variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation; `None` for an empty slice.
pub fn population_std(values: &[f64]) -> Option<f64> {
    population_variance(values).map(f64::sqrt)
}

/// Pearson correlation coefficient between two equal-length slices
/// (Section 5.1, Eq. for ρ(s, r)).
///
/// Returns `0.0` when either series is constant (zero variance), matching the
/// interpretation "not linearly correlated".
pub fn pearson(s: &[f64], r: &[f64]) -> Result<f64, TsError> {
    if s.len() != r.len() {
        return Err(TsError::LengthMismatch {
            left: s.len(),
            right: r.len(),
            context: "pearson correlation",
        });
    }
    if s.is_empty() {
        return Err(TsError::invalid("values", "pearson of empty slices"));
    }
    let ms = mean(s).expect("non-empty");
    let mr = mean(r).expect("non-empty");
    let mut num = 0.0;
    let mut den_s = 0.0;
    let mut den_r = 0.0;
    for (a, b) in s.iter().zip(r.iter()) {
        let ds = a - ms;
        let dr = b - mr;
        num += ds * dr;
        den_s += ds * ds;
        den_r += dr * dr;
    }
    if den_s == 0.0 || den_r == 0.0 {
        return Ok(0.0);
    }
    Ok(num / (den_s.sqrt() * den_r.sqrt()))
}

/// Pearson correlation computed only over indices where both series are
/// observed. Returns `0.0` if fewer than two common points exist.
pub fn pearson_observed(s: &[Option<f64>], r: &[Option<f64>]) -> Result<f64, TsError> {
    if s.len() != r.len() {
        return Err(TsError::LengthMismatch {
            left: s.len(),
            right: r.len(),
            context: "pearson correlation (observed)",
        });
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (a, b) in s.iter().zip(r.iter()) {
        if let (Some(x), Some(y)) = (a, b) {
            xs.push(*x);
            ys.push(*y);
        }
    }
    if xs.len() < 2 {
        return Ok(0.0);
    }
    pearson(&xs, &ys)
}

/// Five-number style summary of a slice of observed values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observed values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of a dense slice. Returns `None` if empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mean = mean(values)?;
        let std = population_std(values)?;
        let mut min = values[0];
        let mut max = values[0];
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Some(Summary {
            count: values.len(),
            mean,
            std,
            min,
            max,
        })
    }

    /// Value range (max - min).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Simple rolling mean with a fixed window, used for smoothing diagnostics.
///
/// Missing inputs are skipped (they neither contribute to the numerator nor
/// to the denominator).
#[derive(Clone, Debug)]
pub struct RollingMean {
    window: usize,
    values: std::collections::VecDeque<Option<f64>>,
}

impl RollingMean {
    /// Creates a rolling mean over the last `window` samples.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling window must be positive");
        RollingMean {
            window,
            values: std::collections::VecDeque::with_capacity(window),
        }
    }

    /// Pushes the next sample and returns the current mean of the window
    /// (ignoring missing entries), or `None` if all entries are missing.
    pub fn push(&mut self, value: Option<f64>) -> Option<f64> {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(value);
        let observed: Vec<f64> = self.values.iter().flatten().copied().collect();
        mean(&observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(population_variance(&[1.0, 1.0, 1.0]), Some(0.0));
        assert_eq!(population_variance(&[2.0, 4.0]), Some(1.0));
        assert_eq!(population_std(&[2.0, 4.0]), Some(1.0));
    }

    #[test]
    fn pearson_of_perfectly_correlated_series_is_one() {
        // Example 5 of the paper: r1 = 1.5 * s + 1 is perfectly linearly
        // correlated with s even though amplitude and offset differ.
        let s: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let r: Vec<f64> = s.iter().map(|v| 1.5 * v + 1.0).collect();
        let rho = pearson(&s, &r).unwrap();
        assert!((rho - 1.0).abs() < 1e-12, "rho = {rho}");
        let rneg: Vec<f64> = s.iter().map(|v| -2.0 * v + 0.3).collect();
        assert!((pearson(&s, &rneg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_quarter_shifted_sine_is_near_zero() {
        // Example 6: a 90° phase shift drives the Pearson correlation to ~0.
        let n = 1440usize;
        let period = 360.0;
        let s: Vec<f64> = (0..n)
            .map(|t| (t as f64 / period * std::f64::consts::TAU).sin())
            .collect();
        let r: Vec<f64> = (0..n)
            .map(|t| ((t as f64 - 90.0) / period * std::f64::consts::TAU).sin())
            .collect();
        let rho = pearson(&s, &r).unwrap();
        assert!(rho.abs() < 0.05, "rho = {rho}");
    }

    #[test]
    fn pearson_error_cases() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson(&[], &[]).is_err());
        // constant series => 0 by convention
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_observed_skips_missing_pairs() {
        let s = vec![Some(1.0), None, Some(3.0), Some(4.0)];
        let r = vec![Some(2.0), Some(9.0), None, Some(8.0)];
        // Only indices 0 and 3 are commonly observed -> perfect correlation
        let rho = pearson_observed(&s, &r).unwrap();
        assert!((rho - 1.0).abs() < 1e-12);
        // fewer than 2 common points -> 0
        let rho = pearson_observed(&[Some(1.0), None], &[None, Some(1.0)]).unwrap();
        assert_eq!(rho, 0.0);
        assert!(pearson_observed(&[None], &[None, None]).is_err());
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.range(), 3.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn rolling_mean_window_behaviour() {
        let mut rm = RollingMean::new(3);
        assert_eq!(rm.push(Some(3.0)), Some(3.0));
        assert_eq!(rm.push(Some(5.0)), Some(4.0));
        assert_eq!(rm.push(None), Some(4.0));
        assert_eq!(rm.push(Some(1.0)), Some(3.0)); // window = [5, None, 1]
        assert_eq!(rm.push(None), Some(1.0)); // window = [None, 1, None]
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rolling_mean_zero_window_panics() {
        let _ = RollingMean::new(0);
    }
}
