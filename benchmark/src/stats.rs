//! Order statistics the harness reports: medians, percentiles under the
//! "at least ten samples beyond it" rule, and the quartile spread the
//! acceptance run judges steadiness by.

/// Samples a reported percentile must leave beyond itself.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every caller has a minimum sample count upstream.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile (`p` in `(0, 100)`).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest-rank index of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile, refused unless at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a tail read off fewer
/// samples is one or two outliers, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Err("percentile of no samples".into());
    }
    let beyond = samples_beyond(values.len(), p);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {} samples leaves {beyond} beyond it, need {MIN_SAMPLES_BEYOND}",
            values.len()
        ));
    }
    Ok(sorted(values)[nearest_rank(values.len(), p) - 1])
}

/// The smallest sample: what a time costs while the host leaves the run
/// alone. The sandbox the benchmark gates PRs on has slow phases — seconds
/// to minutes in which the same code runs 20-45 % slower — and
/// interference only ever adds time, so of samples that span a run the
/// fastest is the code and the rest is the code plus the host. Over ten
/// runs on a restless host the minimum of a run's turn times spread
/// 1-7 %, their first decile 2-9 %, first quartile 3-18 %, median 5-23 %.
/// Each sample is itself a mean over at least 0.2 s of work (a turn), or a
/// percentile of a hundred trials (a block), so this is the best sustained
/// stretch, not the luckiest operation.
pub fn calm(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples per block of [`blockwise_percentile`]: the fewest of which a
/// p90 still leaves [`MIN_SAMPLES_BEYOND`] beyond it.
const BLOCK: usize = 100;
/// Blocks [`blockwise_percentile`] cuts the samples into at most.
const MAX_BLOCKS: usize = 100;

/// The `p`-th percentile of a long series taken in time order: the series
/// is cut into up to [`MAX_BLOCKS`] consecutive blocks of at least
/// [`BLOCK`] samples, and the [`calm`]est block's percentile is reported.
/// A tail percentile of the whole series is set by whatever interference
/// the host added during a tenth of it; the calmest block's stands as
/// long as one block went undisturbed. A series shorter than two blocks
/// is one block.
pub fn blockwise_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Err("percentile of no samples".into());
    }
    let n = values.len();
    let blocks = (n / BLOCK).clamp(1, MAX_BLOCKS);
    let each: Result<Vec<f64>, String> =
        (0..blocks).map(|i| percentile(&values[i * n / blocks..(i + 1) * n / blocks], p)).collect();
    each.map(|each| calm(&each))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the driver's acceptance rule is stated in those
/// terms, so `compare` must agree with it digit for digit.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let v = sorted(values);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median: the run-to-run spread.
/// `0` for fewer than two runs (nothing to spread).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).unwrap(), 100.0);
        assert_eq!(percentile(&v, 90.0).unwrap(), 180.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(percentile(&v, 90.0).unwrap(), 90.0);
        // 99 samples leave only nine beyond p90; p99 of 100 leaves one.
        assert!(percentile(&v[..99], 90.0).is_err());
        assert!(percentile(&v, 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn calm_is_the_fastest_sample() {
        assert_eq!(calm(&[5.0]), 5.0);
        assert_eq!(calm(&[4.0, 1.5, 3.0, 2.0]), 1.5);
    }

    #[test]
    fn blockwise_percentile_reads_the_calmest_block() {
        // 1000 samples cycling 1..=100; all but three blocks are late.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut v[300..] {
            *x += 1000.0;
        }
        assert_eq!(blockwise_percentile(&v, 90.0).unwrap(), 90.0);
        assert!(percentile(&v, 90.0).unwrap() > 1000.0);
        // No block is shorter than a hundred, whatever the count.
        for n in [199, 200, 507, 2599, 9999, 10_000, 10_099, 123_457] {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            assert!(blockwise_percentile(&v, 90.0).is_ok(), "{n} samples");
        }
        // Fewer than two blocks: the plain percentile, with its rule.
        let short: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(blockwise_percentile(&short, 90.0), percentile(&short, 90.0));
        assert!(blockwise_percentile(&short[..50], 90.0).is_err());
        assert!(blockwise_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap(), [1.5, 4.0, 12.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
