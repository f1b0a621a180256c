//! Mean ± 95% confidence-interval estimation over sampled windows.
//!
//! Windows are treated as (approximately) independent draws from the
//! program's steady-state behaviour; the interval is the classic
//! Student-t construction `mean ± t(df) * s / sqrt(n)` with the
//! two-sided 95% quantile. Degenerate cases are explicit rather than
//! silent: fewer than two windows cannot bound anything (`reliable()`
//! is false and the half-width is 0), and zero-variance windows yield
//! a zero-width interval. The [`Estimate`] record itself, with its
//! accuracy rule, lives beside its writer, `cfir_sim::SampledRun`.

use cfir_sim::Estimate;

/// Two-sided 95% Student-t quantiles for 1..=30 degrees of freedom;
/// beyond that the normal approximation (1.96) is used.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 95% quantile for `df` degrees of freedom.
fn t95(df: usize) -> f64 {
    if df == 0 {
        f64::NAN
    } else if df <= T95.len() {
        T95[df - 1]
    } else {
        1.96
    }
}

/// Mean ± 95% CI of `samples` (Student-t; see the module docs for the
/// degenerate cases).
pub fn mean_ci95(samples: &[f64]) -> Estimate {
    let n = samples.len();
    if n == 0 {
        return Estimate {
            n: 0,
            mean: 0.0,
            half_width: 0.0,
        };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return Estimate {
            n,
            mean,
            half_width: 0.0,
        };
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let half_width = t95(n - 1) * (var / n as f64).sqrt();
    Estimate {
        n,
        mean,
        half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_interval() {
        // samples: 1, 2, 3, 4, 5 -> mean 3, s^2 = 2.5, s = 1.5811,
        // se = s/sqrt(5) = 0.70711, t(4) = 2.776 -> hw = 1.96294...
        let e = mean_ci95(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(e.n, 5);
        assert!((e.mean - 3.0).abs() < 1e-12);
        let expected_hw = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!(
            (e.half_width - expected_hw).abs() < 1e-9,
            "{} vs {expected_hw}",
            e.half_width
        );
        assert!(e.contains(3.5));
        assert!(!e.contains(5.5));
    }

    #[test]
    fn two_sample_interval_uses_t_one_df() {
        // samples 10, 14: mean 12, s^2 = 8, se = 2, t(1) = 12.706.
        let e = mean_ci95(&[10.0, 14.0]);
        assert!((e.mean - 12.0).abs() < 1e-12);
        assert!((e.half_width - 12.706 * 2.0).abs() < 1e-9);
        assert!(e.reliable());
    }

    #[test]
    fn degenerate_single_window_is_flagged() {
        let e = mean_ci95(&[42.0]);
        assert_eq!(e.n, 1);
        assert_eq!(e.mean, 42.0);
        assert_eq!(e.half_width, 0.0);
        assert!(!e.reliable());
        assert!(
            !e.contains(42.0),
            "an unbounded interval must not claim coverage"
        );
    }

    #[test]
    fn degenerate_empty_is_flagged() {
        let e = mean_ci95(&[]);
        assert_eq!((e.n, e.mean, e.half_width), (0, 0.0, 0.0));
        assert!(!e.reliable());
    }

    #[test]
    fn zero_variance_gives_zero_width() {
        let e = mean_ci95(&[7.0; 10]);
        assert_eq!(e.mean, 7.0);
        assert_eq!(e.half_width, 0.0);
        assert!(e.reliable());
        assert!(e.contains(7.0));
        assert!(!e.contains(7.0001));
    }

    #[test]
    fn interval_narrows_monotonically_with_more_windows() {
        // Repeat an alternating +/-1 pattern so the sample std stays
        // constant while n grows: hw = t(n-1)/sqrt(n) * s must shrink.
        let mut prev = f64::INFINITY;
        for n in [2usize, 4, 8, 16, 32, 64] {
            let samples: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 9.0 } else { 11.0 })
                .collect();
            let e = mean_ci95(&samples);
            assert!((e.mean - 10.0).abs() < 1e-12);
            assert!(
                e.half_width < prev,
                "hw {} at n={n} did not narrow (prev {prev})",
                e.half_width
            );
            prev = e.half_width;
        }
    }
}
