//! The benchmark's own statistics. Every end-to-end figure is a median
//! of many samples taken inside one run: hypervisor steal on a shared
//! host arrives in bursts, and a median ignores a burst that a mean
//! would average in.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty set.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Geometric mean of each class's median. Classes differ in cost by
/// orders of magnitude, so the geometric mean weighs a 10% change in any
/// class equally; a pooled median would jump between class modes.
/// `None` when any class is empty or any median is not positive.
#[must_use]
pub fn geomean_of_medians(classes: &[Vec<f64>]) -> Option<f64> {
    if classes.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for class in classes {
        let m = median(class)?;
        if m <= 0.0 {
            return None;
        }
        log_sum += m.ln();
    }
    Some((log_sum / classes.len() as f64).exp())
}

/// Items per second of the median round: `per_round` items over the
/// median of `round_secs`. `None` when there are no rounds.
#[must_use]
pub fn per_median_round(per_round: usize, round_secs: &[f64]) -> Option<f64> {
    let m = median(round_secs)?;
    (m > 0.0).then(|| per_round as f64 / m)
}

/// Nearest-rank percentile of an ascending-sorted sample set: the
/// smallest value with at least `q` of the samples at or below it.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Samples a reported tail must leave beyond it, so that one outlier
/// cannot set it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// p99, or where the sample is too small for it the highest of p90 and
/// p50, that leaves at least [`TAIL_MIN_BEYOND`] samples beyond its
/// rank, as `(quantile, value)`.
#[must_use]
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.99, 0.9, 0.5].into_iter().find_map(|q| {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        (sorted.len().saturating_sub(rank) >= TAIL_MIN_BEYOND)
            .then(|| nearest_rank(&sorted, q).map(|v| (q, v)))
            .flatten()
    })
}

/// Steal share a measurement block may see and still count as quiet:
/// one host tick in fifty, the resolution of the shortest block.
pub const QUIET_STEAL: f64 = 0.02;

/// Indices, in time order, of the measurement blocks the hypervisor
/// disturbed least: every block whose steal share is at most
/// [`QUIET_STEAL`] or the blocks' median steal, whichever is higher.
/// Steal comes in stretches of seconds that slow every call they cover;
/// on a quiet host this keeps every block, on a noisy one the quieter
/// half (at least).
#[must_use]
pub fn quiet_blocks(steal: &[f64]) -> Vec<usize> {
    let limit = median(steal).unwrap_or(0.0).max(QUIET_STEAL);
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weighs_each_class_median_equally() {
        // Medians 1 ms and 100 ms: the geometric mean is 10 ms, and
        // the outliers inside each class do not move it.
        let classes = vec![vec![1.0, 1.0, 50.0], vec![100.0, 0.5, 100.0]];
        let g = geomean_of_medians(&classes).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean_of_medians(&[vec![1.0], vec![]]), None);
        assert_eq!(geomean_of_medians(&[vec![0.0]]), None);
        assert_eq!(geomean_of_medians(&[]), None);
    }

    #[test]
    fn throughput_uses_the_median_round() {
        // 12 inferences per round; rounds of 3 ms, 4 ms and one 40 ms
        // stall: the stall does not count, 12 / 4 ms = 3000/s.
        let t = per_median_round(12, &[0.003, 0.040, 0.004]).unwrap();
        assert!((t - 3000.0).abs() < 1e-9, "{t}");
        assert_eq!(per_median_round(12, &[]), None);
    }

    #[test]
    fn quiet_blocks_drop_the_stolen_ones_in_order() {
        // Median steal 0.10: the two blocks above it go.
        assert_eq!(quiet_blocks(&[0.10, 0.0, 0.30, 0.20, 0.05]), vec![0, 1, 4]);
        // A quiet host keeps every block, however they rank.
        assert_eq!(quiet_blocks(&[0.0, 0.02, 0.01, 0.0]), vec![0, 1, 2, 3]);
        assert_eq!(quiet_blocks(&[0.5]), vec![0]);
        assert!(quiet_blocks(&[]).is_empty());
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&sorted, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples support p99 (10 beyond); more never go past p99.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(supported_tail(&samples), Some((0.99, 990.0)));
        let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&many), Some((0.99, 99_000.0)));
        // 999 samples leave only 9 beyond p99, so p90 is reported.
        let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported_tail(&fewer), Some((0.9, 900.0)));
        // 19 samples support no tail at all.
        let tiny: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&tiny), None);
        assert_eq!(supported_tail(&[1.0; 20]), Some((0.5, 1.0)));
    }
}
