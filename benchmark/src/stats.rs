//! Order statistics behind every reported number.
//!
//! Every gated timing is a median; the quartiles travel with it so `compare` can
//! tell a shift from spread, and p90 is printed (never gated) because with a few
//! dozen samples it is the highest percentile that still has samples beyond it.

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation between the
/// two nearest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample; NaN for an empty one (every job of a kind
/// failed), which the runner reports as a failed operation.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        Summary::of(values).p50
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample count, quartiles and p90 of one metric's samples, and how well they pin
/// the median down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    /// Distribution-free 95 % confidence interval of the median, from order
    /// statistics: the samples at ranks `(n ∓ 1.96·√n) / 2`. Unlike the quartiles
    /// it stays narrow when the samples are tight around the median but
    /// multi-modal further out (job times pooled over three kinds). Fewer than six
    /// samples support no 95 % interval — even [min, max] covers less — so there
    /// the quartiles stand in (three set-ups, the first of them cold).
    pub ci_lo: f64,
    pub ci_hi: f64,
}

impl Summary {
    /// Summarize an unsorted, non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (p25, p75) = (percentile(&sorted, 25.0), percentile(&sorted, 75.0));
        let (ci_lo, ci_hi) = if n < 6 {
            (p25, p75)
        } else {
            let half_width = 0.98 * (n as f64).sqrt();
            let lo = ((n as f64 / 2.0 - half_width).floor().max(1.0)) as usize;
            let hi = ((n as f64 / 2.0 + half_width).ceil() as usize + 1).min(n);
            (sorted[lo - 1], sorted[hi - 1])
        };
        Summary {
            n,
            p25,
            p50: percentile(&sorted, 50.0),
            p75,
            p90: percentile(&sorted, 90.0),
            ci_lo,
            ci_hi,
        }
    }

    /// A value with no samples behind it (a count or a model output): no spread.
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            p25: value,
            p50: value,
            p75: value,
            p90: value,
            ci_lo: value,
            ci_hi: value,
        }
    }
}

/// Median over episodes of each episode's own statistic: one slow episode moves
/// the result by at most one rank.
pub fn median_of_episodes<T>(episodes: &[T], stat: impl Fn(&T) -> f64) -> Summary {
    let per_episode: Vec<f64> = episodes.iter().map(stat).collect();
    Summary::of(&per_episode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn summary_sorts_and_orders_its_quantiles() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!((s.p25, s.p50, s.p75), (2.0, 3.0, 4.0));
        assert!(s.p75 <= s.p90 && s.p90 <= 5.0);
        // Too few samples for a 95 % interval: the quartiles stand in.
        assert_eq!((s.ci_lo, s.ci_hi), (2.0, 4.0));
        // Eight episodes: nothing narrower than [min, max] reaches 95 %.
        let e = Summary::of(&[3.0, 1.0, 2.0, 8.0, 5.0, 4.0, 7.0, 6.0]);
        assert_eq!((e.ci_lo, e.ci_hi), (1.0, 8.0));
        let e = Summary::exact(0.25);
        assert_eq!((e.ci_lo, e.ci_hi), (0.25, 0.25));
    }

    #[test]
    fn median_interval_ignores_far_modes_the_quartiles_straddle() {
        // 27 rounds of three kinds pooled: quartiles sit in the outer clusters, the
        // median and its interval inside the middle one.
        let pooled: Vec<f64> = (0..27)
            .flat_map(|i| {
                [
                    0.084 + 1e-5 * i as f64,
                    0.124 + 1e-5 * i as f64,
                    0.243 + 1e-5 * i as f64,
                ]
            })
            .collect();
        let s = Summary::of(&pooled);
        assert!(s.p25 < 0.09 && s.p75 > 0.24);
        assert!(s.ci_lo >= 0.124 && s.ci_hi < 0.125, "{s:?}");
        assert!(s.ci_lo <= s.p50 && s.p50 <= s.ci_hi);
    }

    #[test]
    fn median_of_episodes_ignores_one_outlier_episode() {
        // Seven drain episodes, one of them disturbed by a neighbour.
        let episodes: Vec<Vec<f64>> = vec![
            vec![1.0, 1.1, 0.9],
            vec![1.0, 1.0, 1.0],
            vec![9.0, 9.0, 9.0],
            vec![1.1, 1.0, 0.9],
            vec![1.0, 1.2, 0.8],
            vec![1.0, 1.0, 1.1],
            vec![0.9, 1.0, 1.0],
        ];
        let s = median_of_episodes(&episodes, |e| median(e));
        assert_eq!(s.n, 7);
        assert_eq!(s.p50, 1.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(median(&[]).is_nan());
    }
}
