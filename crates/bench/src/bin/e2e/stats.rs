//! The benchmark's own arithmetic: medians, percentiles, the
//! slice-median rate and the cross-thread coordination join. Pure
//! functions over plain numbers so they can be unit-tested without a
//! server.

/// Percentiles the reports choose from, lowest first, each with the
/// share of samples beyond it in parts per 10 000 (integers, so that
/// 10 000 samples support p99.9 exactly).
const PERCENTILES: [(f64, u64); 6] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (95.0, 500),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// Samples that must lie beyond a reported percentile for it to be
/// more than one outlier's position.
const MIN_BEYOND: u64 = 10;

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (`None` below 20 samples, where not even the
/// median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rfind(|(_, beyond)| n as u64 * beyond >= MIN_BEYOND * 10_000)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the slice for [`percentile`].
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median (mean of the middle two for even counts; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Submits per second as the median over equal-count slices, each
/// given as `(submits completed, seconds they took)`. The slices are
/// the run's epochs: the same stream from the same starting state, so
/// they differ by what the host did meanwhile, and a stall that hits
/// half of them moves the result. Slices without time are skipped.
pub fn slice_median_rate(slices: &[(usize, f64)]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .filter(|(_, seconds)| *seconds > 0.0)
        .map(|(count, seconds)| *count as f64 / seconds)
        .collect();
    median(&rates)
}

/// Interquartile range over the median — the spread the driver gates
/// on. Quartiles follow Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method), so `--repeat` prints what the driver computes.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let m = median(&s);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / m
}

/// One waiting member's push, as its session's thread saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushSeen {
    /// Unit the pushed query belongs to (resolved from the push's qid).
    pub unit: u32,
    /// When the `Done` push was read, ns on the shared base.
    pub read_ns: u64,
}

/// One closing submit, as the closer's thread saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloseSent {
    /// Unit whose group this submit completed.
    pub unit: u32,
    /// When the closing `Submit` frame was written, ns on the shared
    /// base.
    pub sent_ns: u64,
}

/// Coordination latencies in ms: for every push, the time from its
/// unit's closing submit (recorded by the other thread) to the push
/// read. Pushes whose unit has no closer, or that precede it, are
/// returned as the second value — they count as failures.
pub fn join_coord(pushes: &[PushSeen], closers: &[CloseSent]) -> (Vec<f64>, usize) {
    let by_unit: std::collections::HashMap<u32, u64> =
        closers.iter().map(|c| (c.unit, c.sent_ns)).collect();
    let mut latencies = Vec::with_capacity(pushes.len());
    let mut unmatched = 0;
    for push in pushes {
        match by_unit.get(&push.unit) {
            Some(&sent) if push.read_ns >= sent => {
                latencies.push((push.read_ns - sent) as f64 / 1e6);
            }
            _ => unmatched += 1,
        }
    }
    (latencies, unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        // pair_idle's ~250 pushes: p95 is the last supported tail
        assert_eq!(highest_supported_percentile(250), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slice_median_rate_is_the_middle_slice() {
        // ten slices of 2000 submits; four ran in a slow phase of the host
        let mut slices = vec![(2_000, 0.25); 6];
        slices.extend([(2_000, 0.4); 4]);
        assert_eq!(slice_median_rate(&slices), 8_000.0);
        // ... and when six did, the median reads the slow ones
        slices.extend([(2_000, 0.4); 3]);
        assert_eq!(slice_median_rate(&slices), 5_000.0);
        // even count: mean of the middle two; empty slices are skipped
        assert_eq!(
            slice_median_rate(&[(100, 1.0), (100, 0.5), (0, 0.0)]),
            150.0
        );
        assert_eq!(slice_median_rate(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0]), 0.0);
    }

    #[test]
    fn coord_join_pairs_pushes_with_the_other_threads_closers() {
        let closers = [
            CloseSent {
                unit: 0,
                sent_ns: 1_000_000,
            },
            CloseSent {
                unit: 2,
                sent_ns: 5_000_000,
            },
        ];
        let pushes = [
            // a group of three: both waiting members join unit 2's closer
            PushSeen {
                unit: 2,
                read_ns: 7_000_000,
            },
            PushSeen {
                unit: 2,
                read_ns: 8_500_000,
            },
            PushSeen {
                unit: 0,
                read_ns: 1_250_000,
            },
            // no closer recorded for unit 1; unit 0 push before its closer
            PushSeen {
                unit: 1,
                read_ns: 9_000_000,
            },
            PushSeen {
                unit: 0,
                read_ns: 900_000,
            },
        ];
        let (latencies, unmatched) = join_coord(&pushes, &closers);
        assert_eq!(latencies, vec![2.0, 3.5, 0.25]);
        assert_eq!(unmatched, 2);
    }
}
