//! Order statistics over raw samples.
//!
//! Quantiles are computed here from every sample, never from the obs
//! crate's log2 `Histogram`, whose p50/p99 are bucket upper bounds and can
//! be up to 2x off.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// the closest ranks. `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The interquartile range as a share of the median (0 for fewer than two
/// samples).
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

/// How many samples lie strictly above the `q`-quantile: the count that
/// says whether a reported tail percentile rests on enough data.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_counts_and_spread() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.95), 10);
        assert!((iqr_share(&s) - 99.5 / 100.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
