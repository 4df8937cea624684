//! Order statistics the benchmark reports: percentiles, medians and
//! geometric means.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolating linearly
/// between the two nearest order statistics (the "type 7" estimator), so
/// a small sample's tail moves smoothly instead of jumping between
/// samples. `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The geometric mean of strictly positive `values` (`None` when empty or
/// when any value is not positive, where the mean is undefined).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The quantile a run's typical fast time is read at. On a shared host a
/// run's median moves with how much of the run the host spent slow; its
/// 10th percentile stays with the runs the host did not slow down.
pub const FAST_QUANTILE: f64 = 0.1;

/// The [`FAST_QUANTILE`] and 90th percentile of samples drawn from several
/// programs, so that neither depends on how many samples each program
/// contributed: each is the geometric mean of the programs' medians scaled
/// by that percentile of every sample divided by its own program's median.
/// Empty groups are skipped; `None` when no group has samples or a median
/// is not positive.
pub fn pooled_p10_p90(groups: &[Vec<f64>]) -> Option<(f64, f64)> {
    let groups: Vec<&Vec<f64>> = groups.iter().filter(|g| !g.is_empty()).collect();
    let medians: Vec<f64> = groups
        .iter()
        .map(|g| median(g).expect("non-empty"))
        .collect();
    let p50 = geomean(&medians)?;
    let relative: Vec<f64> = groups
        .iter()
        .zip(&medians)
        .flat_map(|(g, m)| g.iter().map(move |x| x / m))
        .collect();
    Some((
        p50 * percentile(&relative, FAST_QUANTILE)?,
        p50 * percentile(&relative, 0.9)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(percentile(&s, 0.5), Some(2.5));
        // 0.9 * 3 = 2.7: 70 % of the way from 3.0 to 4.0.
        let p90 = percentile(&s, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&[7.5], q), Some(7.5));
        }
    }

    #[test]
    fn empty_samples_have_no_statistics() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[10.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "outside 0..=1")]
    fn percentile_rejects_quantiles_outside_the_unit_interval() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[5.0, 5.0, 5.0]).unwrap();
        assert!((g - 5.0).abs() < 1e-12, "{g}");
    }

    #[test]
    fn pooled_percentiles_do_not_depend_on_group_sizes() {
        // Two programs ten times apart, each with the same relative spread.
        let fast: Vec<f64> = (1..=10).map(|i| 10.0 + i as f64).collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        let (p10, p90) = pooled_p10_p90(&[fast.clone(), slow.clone()]).unwrap();
        let p50 = (median(&fast).unwrap() * median(&slow).unwrap()).sqrt();
        // Both programs' samples sit at the same ratios to their medians,
        // so the pooled p10 is the geometric mean of their own p10s.
        let want10 = (percentile(&fast, 0.1).unwrap() * percentile(&slow, 0.1).unwrap()).sqrt();
        assert!((p10 - want10).abs() / want10 < 0.01, "{p10} vs {want10}");
        // Doubling one program's sample count changes nothing.
        let twice: Vec<f64> = slow.iter().chain(&slow).copied().collect();
        let (q10, q90) = pooled_p10_p90(&[fast, twice, Vec::new()]).unwrap();
        assert!((q10 - p10).abs() / p10 < 0.01, "{q10} vs {p10}");
        assert!((q90 - p90).abs() / p90 < 0.01, "{q90} vs {p90}");
        assert!(p10 < p50 && p50 < p90);
    }

    #[test]
    fn pooled_percentiles_of_nothing() {
        assert_eq!(pooled_p10_p90(&[]), None);
        assert_eq!(pooled_p10_p90(&[Vec::new()]), None);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
