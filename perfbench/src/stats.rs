//! Order statistics for reported timings.
//!
//! A timing is reported as its median and a tail percentile. A tail
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it; asked for a tail the sample cannot support, the helpers
//! refuse (`None`) rather than report the maximum under another name.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for "the highest supported tail", in permille,
/// highest first.
const LADDER_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last under `total_cmp`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of ascending-sorted samples (mean of the two middle samples
/// for an even count). `None` for an empty sample.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile of ascending-sorted samples, by the
/// same "exclusive" interpolation as Python's
/// `statistics.quantiles(values, n=4)`. `None` below two samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..=3i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative or > 4 after clamping at the ends, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// 1-based nearest rank of the `permille`-th percentile in `n` samples:
/// `ceil(permille · n / 1000)`, computed in integers so that e.g. p90 of
/// 100 samples is rank 90 exactly.
fn nearest_rank(permille: u32, n: usize) -> usize {
    (permille as usize * n).div_ceil(1000).max(1)
}

/// The `permille`-th percentile (nearest rank) of ascending-sorted
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn tail_percentile(sorted: &[f64], permille: u32) -> Option<f64> {
    let n = sorted.len();
    let rank = nearest_rank(permille, n);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile (in permille) of the ladder 99.9 / 99 / 95 /
/// 90 / 75 / 50 that `n` samples support, or `None` when not even the
/// median has [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported_permille(n: usize) -> Option<u32> {
    LADDER_PERMILLE
        .into_iter()
        .find(|&pm| n >= nearest_rank(pm, n) + MIN_BEYOND)
}

/// Samples needed before the p90 of a timing may be reported.
pub const P90_MIN_SAMPLES: usize = 100;

/// Median and p90 of a timing, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
}

impl Timing {
    /// Summarizes `values`; `None` when the sample is too small for its
    /// p90 (fewer than [`P90_MIN_SAMPLES`]).
    pub fn of(values: &[f64]) -> Option<Self> {
        let s = sorted(values);
        Some(Self {
            n: s.len(),
            p50: median(&s)?,
            p90: tail_percentile(&s, 900)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&sorted(&[3.0, 1.0, 2.0])), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] after
        // clamping j into [1, n-1].
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is rank 90, only 9 samples beyond — refused.
        assert_eq!(tail_percentile(&ramp(99), 900), None);
        // 100 samples: rank 90, exactly 10 beyond — reported.
        assert_eq!(tail_percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(tail_percentile(&ramp(250), 900), Some(225.0));
        assert!(Timing::of(&ramp(99)).is_none());
        let t = Timing::of(&ramp(100)).expect("100 samples support p90");
        assert_eq!((t.n, t.p50, t.p90), (100, 50.5, 90.0));
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported_permille(19), None);
        assert_eq!(highest_supported_permille(20), Some(500));
        assert_eq!(highest_supported_permille(39), Some(500));
        assert_eq!(highest_supported_permille(40), Some(750));
        assert_eq!(highest_supported_permille(100), Some(900));
        assert_eq!(highest_supported_permille(199), Some(900));
        assert_eq!(highest_supported_permille(200), Some(950));
        assert_eq!(highest_supported_permille(1_000), Some(990));
        assert_eq!(highest_supported_permille(10_000), Some(999));
        // Whatever the ladder picks is itself reportable.
        for n in 20..600 {
            let pm = highest_supported_permille(n).expect("n >= 20");
            assert!(tail_percentile(&ramp(n), pm).is_some(), "n={n} pm={pm}");
        }
    }
}
