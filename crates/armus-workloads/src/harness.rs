//! Measurement harness following the paper's methodology (§6): start-up
//! performance per Georges et al. — take `k+1` samples, discard the first
//! (warm-up), report the mean of the rest with a 95% confidence interval
//! using the standard normal z-statistic.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Samples of one benchmark configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Wall-clock samples (warm-up already discarded).
    pub samples: Vec<f64>,
}

impl Measurement {
    /// Measures `f` with `samples` kept samples after one discarded
    /// warm-up run (the paper takes 31 samples and discards the first).
    pub fn take(samples: usize, mut f: impl FnMut()) -> Measurement {
        f(); // warm-up, discarded
        let mut out = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            f();
            out.push(t0.elapsed().as_secs_f64());
        }
        Measurement { samples: out }
    }

    /// Builds a measurement from raw seconds (tests, aggregation).
    pub fn from_samples(samples: Vec<f64>) -> Measurement {
        Measurement { samples }
    }

    /// Sample mean, in seconds.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (unbiased).
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var =
            self.samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n as f64 - 1.0);
        var.sqrt()
    }

    /// Half-width of the 95% confidence interval with the z-statistic
    /// (`z₀.₉₇₅ = 1.96`), as in the paper's methodology.
    pub fn ci95(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        1.96 * self.std_dev() / (n as f64).sqrt()
    }

    /// Do the 95% intervals of `self` and `other` overlap? When they do,
    /// the paper reads the difference as "no statistical evidence of an
    /// execution overhead" (§6.2).
    pub fn overlaps(&self, other: &Measurement) -> bool {
        let (a_lo, a_hi) = (self.mean() - self.ci95(), self.mean() + self.ci95());
        let (b_lo, b_hi) = (other.mean() - other.ci95(), other.mean() + other.ci95());
        a_lo <= b_hi && b_lo <= a_hi
    }
}

/// Relative execution overhead of `checked` versus `base`, as printed in
/// Tables 1–3: `(checked - base) / base`. Returns a fraction (0.13 = 13%).
pub fn overhead(base: &Measurement, checked: &Measurement) -> f64 {
    let b = base.mean();
    if b == 0.0 {
        return 0.0;
    }
    (checked.mean() - b) / b
}

/// Formats a fraction as the paper's percent cells (`-4%`, `0%`, `13%`).
pub fn percent(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_of_known_samples() {
        let m = Measurement::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((m.mean() - 2.5).abs() < 1e-12);
        let sd = m.std_dev();
        assert!((sd - 1.2909944487).abs() < 1e-6);
        assert!(m.ci95() > 0.0);
    }

    #[test]
    fn degenerate_measurements_are_safe() {
        let empty = Measurement::from_samples(vec![]);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.ci95(), 0.0);
        let single = Measurement::from_samples(vec![2.0]);
        assert_eq!(single.mean(), 2.0);
        assert_eq!(single.std_dev(), 0.0);
    }

    #[test]
    fn overhead_is_relative() {
        let base = Measurement::from_samples(vec![1.0; 5]);
        let checked = Measurement::from_samples(vec![1.13; 5]);
        assert!((overhead(&base, &checked) - 0.13).abs() < 1e-9);
        assert_eq!(percent(overhead(&base, &checked)), "13%");
        let faster = Measurement::from_samples(vec![0.95; 5]);
        assert_eq!(percent(overhead(&base, &faster)), "-5%");
    }

    #[test]
    fn take_discards_warmup_and_keeps_n() {
        let mut calls = 0;
        let m = Measurement::take(3, || calls += 1);
        assert_eq!(calls, 4, "one warm-up plus three samples");
        assert_eq!(m.samples.len(), 3);
    }

    #[test]
    fn overlap_is_symmetric_and_sane() {
        let a = Measurement::from_samples(vec![1.0, 1.1, 0.9, 1.05]);
        let b = Measurement::from_samples(vec![1.02, 1.08, 0.95, 1.0]);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        let far = Measurement::from_samples(vec![9.0, 9.1, 8.9, 9.05]);
        assert!(!a.overlaps(&far));
    }
}
