//! The benchmark's own arithmetic: medians, tail percentiles, failure
//! accounting and the Fig. 14 geomean overhead.

/// The smallest number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples (the
/// small epsilon keeps exact products such as 95% of 200 from rounding up).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(samples.len(), p) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Percentile `p` smoothed over its neighbourhood: the mean of the sorted
/// samples ranked within `h` of it, `h` being 5% of the samples or half
/// the tail beyond `p`, whichever is less. A single order statistic jumps
/// when the samples come in clusters with a gap at that rank (a sweep's
/// launches come in a few sizes); the band mean moves smoothly. `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond a tail `p`.
pub fn smoothed_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || (p > 50.0 && n - rank(n, p) < MIN_TAIL_SAMPLES) {
        return None;
    }
    let (q, h) = (p / 100.0, (0.05f64).min((1.0 - p / 100.0) / 2.0));
    let lo = (((q - h) * n as f64).floor() as usize).min(n - 1);
    let hi = (((q + h) * n as f64).ceil() as usize).clamp(lo + 1, n);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64)
}

/// The highest of the usual tail percentiles that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, for `n` samples.
pub fn highest_tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// A uniform random sample of a stream, held in at most `cap` entries
/// (reservoir sampling with a fixed-seed generator, so a run's sample
/// depends only on its stream). A run's operation times go here, so the
/// benchmark's own memory stops growing with the run's length and
/// `peak_rss_mb` measures the program. A random sample, unlike every n-th
/// item, cannot fall into step with a pass's fixed order of operations.
pub struct Sample<T> {
    kept: Vec<T>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl<T> Sample<T> {
    /// An empty sample of at most `cap` (at least 1) entries.
    pub fn new(cap: usize) -> Self {
        Sample {
            kept: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers the next item of the stream: the i-th item (from 1) replaces
    /// a random entry with probability `cap / i`.
    pub fn push(&mut self, x: T) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(x);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if let Some(slot) = self.kept.get_mut(j as usize) {
            *slot = x;
        }
    }

    /// The kept items, in no particular order.
    pub fn kept(&self) -> &[T] {
        &self.kept
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Fig. 14's overhead: geomean over workloads of protected/baseline
/// cycles, minus one, in percent.
pub fn geomean_overhead_pct(pairs: &[(u64, u64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(shield, base)| shield as f64 / base as f64)
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

/// Attempted/failed operation counts, with the failure reasons kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `failure` names what went wrong, if anything.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.fail(why);
        }
    }

    /// Marks a failure on an already counted operation (or on the run).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak and current resident set size of this process, in KiB, from
/// `/proc/self/status` (`VmHWM`, `VmRSS`); zeros where unavailable.
pub fn rss_kb() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothed_percentile_averages_the_band_around_the_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p50: ranks 450..550, values 451..=550.
        assert_eq!(smoothed_percentile(&xs, 50.0), Some(500.5));
        // p99: half the 1% tail, ranks 985..995, values 986..=995.
        assert_eq!(smoothed_percentile(&xs, 99.0), Some(990.5));
        // A p99 needs ten samples beyond it: 999 samples leave 9.
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(smoothed_percentile(&few, 99.0), None);
        // Two clusters split at the median: the band mean sits between
        // them instead of jumping to either.
        let mut split = vec![5.0; 500];
        split.extend(vec![8.0; 500]);
        assert_eq!(smoothed_percentile(&split, 50.0), Some(6.5));
        assert_eq!(smoothed_percentile(&[7.0], 50.0), Some(7.0));
    }

    #[test]
    fn median_of_small_and_unsorted_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_tail_percentile_keeps_ten_beyond() {
        assert_eq!(highest_tail_percentile(10_000), Some(99.9));
        assert_eq!(highest_tail_percentile(1_443), Some(99.0));
        assert_eq!(highest_tail_percentile(200), Some(95.0));
        assert_eq!(highest_tail_percentile(100), Some(90.0));
        assert_eq!(highest_tail_percentile(99), None);
    }

    #[test]
    fn sample_stays_within_its_cap_and_out_of_step_with_the_stream() {
        let mut s = Sample::new(4);
        (0..4).for_each(|i| s.push(i));
        assert_eq!(s.kept(), &[0, 1, 2, 3]);
        // A stream of 400-item passes whose item 3 is heavy: every n-th
        // item would keep all heavy items or none; a uniform sample keeps
        // about 1 in 400.
        let mut s = Sample::new(2_000);
        (0..400_000).for_each(|i| s.push(u32::from(i % 400 == 3)));
        let heavy: u32 = s.kept().iter().sum();
        assert_eq!(s.kept().len(), 2_000);
        assert!((2..=10).contains(&heavy), "{heavy} heavy items kept");
        assert_eq!(s.kept.capacity(), 2_000);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(None);
        t.record(Some("false fault".into()));
        t.record(None);
        t.record(Some("hang".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_share(), 0.5);
        assert_eq!(t.reasons, vec!["false fault", "hang"]);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }

    #[test]
    fn geomean_overhead_matches_hand_computation() {
        // Ratios 1.0 and 1.21: geomean 1.1, overhead 10%.
        let pct = geomean_overhead_pct(&[(100, 100), (121, 100)]);
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert!(geomean_overhead_pct(&[(50, 50)]).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
