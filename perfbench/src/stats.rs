//! Order statistics and aggregates over measured samples. Everything the
//! benchmark reports goes through these few functions, so they carry
//! the unit tests.

use std::collections::BTreeMap;

/// One in ten thousand: quantiles are given in basis points so that the
/// rank arithmetic is exact (`0.99 * 100.0` is not `99.0` in floating
/// point).
pub const BP: u64 = 10_000;

/// Zero-based index of the nearest-rank quantile `q_bp / BP` in a sorted
/// sample of `n` values: the smallest index with at least `q·n` values
/// at or below it.
pub fn quantile_index(n: usize, q_bp: u64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!(q_bp <= BP, "quantile above 1");
    let rank = (n as u128 * q_bp as u128).div_ceil(BP as u128) as usize;
    rank.clamp(1, n) - 1
}

/// An exact quantile with the sample it was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantile {
    pub value: u64,
    /// Sample size.
    pub samples: usize,
    /// Samples strictly after the quantile's rank (the tail it stands on).
    pub beyond: usize,
}

/// An integer sample kept as value → count, so that memory grows with
/// the number of distinct values, not with the run length.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl Counts {
    pub fn add(&mut self, v: u64) {
        *self.counts.entry(v).or_default() += 1;
        self.n += 1;
    }

    /// Values added.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The nearest-rank quantile `q_bp / BP` of the sample.
    pub fn quantile(&self, q_bp: u64) -> Quantile {
        let samples = usize::try_from(self.n).expect("sample fits in memory");
        let i = quantile_index(samples, q_bp) as u64;
        let mut below = 0u64;
        for (&value, &c) in &self.counts {
            if i < below + c {
                return Quantile {
                    value,
                    samples,
                    beyond: samples - 1 - i as usize,
                };
            }
            below += c;
        }
        unreachable!("rank {i} within {samples} samples")
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank lower quartile of `xs`.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[quantile_index(v.len(), 2_500)]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Failed ÷ attempted; a run that attempted nothing has failed outright.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `x / per`, or 0 when nothing was counted.
pub fn per(x: f64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        x / per as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_index_is_nearest_rank() {
        assert_eq!(quantile_index(1, 5_000), 0);
        assert_eq!(quantile_index(1, 9_900), 0);
        assert_eq!(quantile_index(2, 5_000), 0);
        assert_eq!(quantile_index(3, 5_000), 1);
        assert_eq!(quantile_index(100, 5_000), 49);
        // 0.99 × 100 is exactly rank 99, not 100 as f64 rounding gives.
        assert_eq!(quantile_index(100, 9_900), 98);
        assert_eq!(quantile_index(101, 9_900), 99);
        assert_eq!(quantile_index(100_000, 9_900), 98_999);
        assert_eq!(quantile_index(7, 0), 0);
        assert_eq!(quantile_index(7, BP), 6);
    }

    fn counts(values: impl IntoIterator<Item = u64>) -> Counts {
        let mut c = Counts::default();
        for v in values {
            c.add(v);
        }
        c
    }

    #[test]
    fn quantile_counts_the_tail() {
        let c = counts((1..=1000).rev());
        assert_eq!(c.count(), 1000);
        let p50 = c.quantile(5_000);
        assert_eq!((p50.value, p50.samples, p50.beyond), (500, 1000, 500));
        let p99 = c.quantile(9_900);
        assert_eq!((p99.value, p99.beyond), (990, 10));
        let max = c.quantile(BP);
        assert_eq!((max.value, max.beyond), (1000, 0));
    }

    #[test]
    fn quantile_of_counts_matches_the_sorted_sample() {
        // Many repeats, as session latencies in whole microseconds have.
        let values: Vec<u64> = (0..5_000u64).map(|i| (i * 7_919) % 613 / 5).collect();
        let c = counts(values.iter().copied());
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0, 1, 5_000, 9_000, 9_900, 9_999, BP] {
            let i = quantile_index(sorted.len(), q);
            let got = c.quantile(q);
            assert_eq!(got.value, sorted[i], "q {q}");
            assert_eq!(got.beyond, sorted.len() - 1 - i, "q {q}");
        }
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[9.0, 1.0, 8.0, 2.0, 7.0]), 2.0);
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&ten), 3.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn fail_ratio_counts_against_attempts() {
        assert_eq!(fail_ratio(0, 10), 0.0);
        assert_eq!(fail_ratio(1, 4), 0.25);
        assert_eq!(fail_ratio(0, 0), 1.0);
    }

    #[test]
    fn per_guards_zero() {
        assert_eq!(per(10.0, 4), 2.5);
        assert_eq!(per(10.0, 0), 0.0);
    }
}
