//! Poisson job-arrival process for the multi-tenant service layer.
//!
//! [`crate::sdc`] models Poisson *fault* arrivals by sampling a count per exposure
//! window; a service queue needs the complementary view — the arrival *times*
//! themselves — so this module samples the exponential inter-arrival gaps of the
//! same process: for rate λ, gaps are i.i.d. `Exp(λ)` and the number of arrivals in
//! any window of `T` seconds is `Poisson(λT)`, which keeps the two modules'
//! statistics mutually consistent (asserted in the tests below).
//!
//! Everything is deterministic given the caller's RNG: the service layer pre-samples
//! a whole arrival trace from a seeded ChaCha8 stream, so a benchmark or test replays
//! the identical traffic at any thread count.

use rand::Rng;

/// One exponential inter-arrival gap (seconds) for a Poisson process of rate
/// `rate_per_s` arrivals/second, by inversion: `-ln(1 - u) / λ` with `u ∈ [0, 1)`.
pub fn exp_gap_s<R: Rng + ?Sized>(rng: &mut R, rate_per_s: f64) -> f64 {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let u: f64 = rng.gen();
    -(-u).ln_1p() / rate_per_s
}

/// A Poisson arrival process: owns its RNG and a running clock, yielding the
/// absolute arrival offset (seconds since the process started) of each next job.
#[derive(Debug, Clone)]
pub struct PoissonArrivals<R: Rng> {
    rng: R,
    rate_per_s: f64,
    clock_s: f64,
}

impl<R: Rng> PoissonArrivals<R> {
    /// A process of `rate_per_s` arrivals/second drawing gaps from `rng`.
    pub fn new(rng: R, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        PoissonArrivals { rng, rate_per_s, clock_s: 0.0 }
    }

    /// Advance to the next arrival; returns its offset in seconds from process
    /// start. Offsets are nondecreasing.
    pub fn next_arrival_s(&mut self) -> f64 {
        self.clock_s += exp_gap_s(&mut self.rng, self.rate_per_s);
        self.clock_s
    }

    /// Pre-sample a trace of `n` arrival offsets (nondecreasing, seconds from
    /// process start) — the form the service dispatcher consumes.
    pub fn take_offsets(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_arrival_s()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdc::sample_poisson;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gaps_have_the_right_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        for rate in [0.5, 2.0, 40.0] {
            let n = 20_000;
            let mean: f64 =
                (0..n).map(|_| exp_gap_s(&mut rng, rate)).sum::<f64>() / n as f64;
            let expect = 1.0 / rate;
            assert!(
                (mean - expect).abs() < 0.05 * expect,
                "rate {rate}: mean gap {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn traces_are_deterministic_and_nondecreasing() {
        let trace = |seed| {
            PoissonArrivals::new(ChaCha8Rng::seed_from_u64(seed), 3.0).take_offsets(64)
        };
        let a = trace(7);
        assert_eq!(a, trace(7), "same seed must replay the same traffic");
        assert_ne!(a, trace(8), "different seeds should differ");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets must be nondecreasing");
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn window_counts_match_the_sdc_poisson_view() {
        // The number of arrivals in [0, T) must match Poisson(λT) in mean — the
        // same statistic sdc::sample_poisson draws directly. Compare both against
        // the analytic mean over many windows.
        let lambda = 4.0;
        let t = 2.5;
        let windows = 4_000;
        let mut arr_rng = ChaCha8Rng::seed_from_u64(11);
        let mut count_total = 0usize;
        for _ in 0..windows {
            let mut p = PoissonArrivals::new(&mut arr_rng, lambda);
            while p.next_arrival_s() < t {
                count_total += 1;
            }
        }
        let arrival_mean = count_total as f64 / windows as f64;
        let mut sdc_rng = ChaCha8Rng::seed_from_u64(12);
        let sdc_mean: f64 = (0..windows)
            .map(|_| sample_poisson(&mut sdc_rng, lambda * t) as f64)
            .sum::<f64>()
            / windows as f64;
        let expect = lambda * t;
        assert!(
            (arrival_mean - expect).abs() < 0.05 * expect,
            "arrival-gap view drifted: {arrival_mean} vs {expect}"
        );
        assert!(
            (sdc_mean - expect).abs() < 0.05 * expect,
            "sdc count view drifted: {sdc_mean} vs {expect}"
        );
    }
}
