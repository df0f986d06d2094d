//! Response-time statistics with the paper's CDF buckets.

use crate::request::Completion;
use serde::{Deserialize, Serialize};
use units::Seconds;

/// The bucket edges (in milliseconds) of the Figure 4 CDF plots:
/// 5, 10, 20, 40, 60, 90, 120, 150, 200, and "200+".
pub const CDF_BUCKETS_MS: [f64; 9] = [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0];

/// Aggregated response-time statistics.
///
/// # Examples
///
/// ```
/// use disksim::ResponseStats;
/// use units::Seconds;
///
/// let mut stats = ResponseStats::new();
/// for ms in [2.0, 8.0, 15.0, 300.0] {
///     stats.record(Seconds::from_millis(ms));
/// }
/// assert_eq!(stats.count(), 4);
/// assert!((stats.mean().to_millis() - 81.25).abs() < 1e-9);
/// // 3 of 4 requests finished within 20 ms.
/// let cdf = stats.cdf();
/// assert!((cdf[2].1 - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResponseStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    max: f64,
    /// Count of samples ≤ each bucket edge, plus a final overflow count.
    bucket_counts: [u64; CDF_BUCKETS_MS.len() + 1],
    /// Reservoir of samples for percentile estimation.
    samples: Vec<f64>,
}

/// Reservoir size for percentile estimation.
const RESERVOIR: usize = 65_536;

/// The splitmix64 mixer: a full-period bijection on `u64` used as the
/// reservoir's deterministic random source.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl ResponseStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one response time.
    pub fn record(&mut self, response: Seconds) {
        let ms = response.to_millis();
        self.count += 1;
        self.sum += ms;
        self.sum_sq += ms * ms;
        self.max = self.max.max(ms);
        let idx = CDF_BUCKETS_MS
            .iter()
            .position(|&edge| ms <= edge)
            .unwrap_or(CDF_BUCKETS_MS.len());
        self.bucket_counts[idx] += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(ms);
        } else {
            // Vitter's Algorithm R: sample number `count` replaces a
            // uniformly-drawn slot in 0..count, surviving only when the
            // slot lands inside the reservoir — so every sample ends up
            // retained with equal probability RESERVOIR/count. The
            // "random" draw is splitmix64 keyed on the running count,
            // keeping equal runs bit-identical regardless of threading.
            let j = (splitmix64(self.count) % self.count) as usize;
            if j < RESERVOIR {
                self.samples[j] = ms;
            }
        }
    }

    /// Folds a batch of completions in.
    pub fn record_all<'a>(&mut self, completions: impl IntoIterator<Item = &'a Completion>) {
        for c in completions {
            self.record(c.response_time());
        }
    }

    /// Builds statistics from a completion slice.
    pub fn from_completions(completions: &[Completion]) -> Self {
        let mut s = Self::new();
        s.record_all(completions);
        s
    }

    /// Folds another statistics object into this one, deterministically.
    ///
    /// Counts, moments, the max, and the CDF buckets merge exactly.
    /// While the combined reservoirs fit under the cap they hold every
    /// sample either side saw, so appending keeps percentiles *exact*
    /// (the sorted multiset equals the global stream's). Past the cap,
    /// each side keeps a share of the reservoir proportional to the
    /// population it represents, chosen by a partial Fisher–Yates
    /// shuffle keyed on splitmix64 over the two counts — a pure
    /// function of the inputs, so folding per-enclosure statistics in
    /// enclosure order gives bit-identical results at any shard count.
    pub fn merge(&mut self, other: &ResponseStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n_self, n_other) = (self.count, other.count);
        let mut state = splitmix64(n_self.rotate_left(32) ^ n_other);
        self.count += n_other;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.bucket_counts.iter_mut().zip(&other.bucket_counts) {
            *mine += theirs;
        }
        if self.samples.len() + other.samples.len() <= RESERVOIR {
            self.samples.extend_from_slice(&other.samples);
            return;
        }
        // Proportional allocation, with either side's unused slack
        // granted to the other so the reservoir stays as full as it can.
        let total = (n_self + n_other) as f64;
        let keep_self = ((RESERVOIR as f64 * n_self as f64 / total).round() as usize)
            .min(self.samples.len());
        let keep_other = (RESERVOIR - keep_self).min(other.samples.len());
        let keep_self = (RESERVOIR - keep_other).min(self.samples.len());
        let mut draw = |bound: usize| {
            state = splitmix64(state);
            (state % bound as u64) as usize
        };
        for i in 0..keep_self {
            let j = i + draw(self.samples.len() - i);
            self.samples.swap(i, j);
        }
        self.samples.truncate(keep_self);
        let mut theirs = other.samples.clone();
        for i in 0..keep_other {
            let j = i + draw(theirs.len() - i);
            theirs.swap(i, j);
        }
        theirs.truncate(keep_other);
        self.samples.extend_from_slice(&theirs);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean response time.
    pub fn mean(&self) -> Seconds {
        if self.count == 0 {
            Seconds::ZERO
        } else {
            Seconds::from_millis(self.sum / self.count as f64)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Seconds {
        if self.count < 2 {
            return Seconds::ZERO;
        }
        let n = self.count as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        Seconds::from_millis(var.max(0.0).sqrt())
    }

    /// Largest observed response time.
    pub fn max(&self) -> Seconds {
        Seconds::from_millis(self.max)
    }

    /// Cumulative distribution at the Figure 4 bucket edges: pairs of
    /// `(edge_ms, fraction_at_or_below)`. A final `(f64::INFINITY, 1.0)`
    /// entry closes the distribution ("200+").
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(CDF_BUCKETS_MS.len() + 1);
        let total = self.count.max(1) as f64;
        let mut acc = 0u64;
        for (i, &edge) in CDF_BUCKETS_MS.iter().enumerate() {
            acc += self.bucket_counts[i];
            out.push((edge, acc as f64 / total));
        }
        out.push((f64::INFINITY, 1.0));
        out
    }

    /// Approximate percentile (0–100) from the sample reservoir.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Seconds {
        let mut scratch = Vec::new();
        self.percentile_with(&mut scratch, p)
    }

    /// Like [`ResponseStats::percentile`], but sorts the reservoir into
    /// a caller-provided scratch buffer — repeated percentile queries
    /// (per-epoch fleet tail-latency tracking) reuse one sort buffer
    /// instead of cloning up to 64 K samples per call.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_with(&self, scratch: &mut Vec<f64>, p: f64) -> Seconds {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return Seconds::ZERO;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.samples);
        scratch.sort_unstable_by(f64::total_cmp);
        let idx = ((p / 100.0) * (scratch.len() - 1) as f64).round() as usize;
        Seconds::from_millis(scratch[idx])
    }

    /// The retained reservoir samples, in milliseconds. A uniform
    /// subsample of the full response stream (exact below the reservoir
    /// cap), suitable for re-bucketing into coarser structures such as
    /// `diskobs::LogHistogram` without another pass over completions.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples
    }
}

impl core::fmt::Display for ResponseStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requests, mean {:.2} ms, p95 {:.2} ms, max {:.2} ms",
            self.count,
            self.mean().to_millis(),
            self.percentile(95.0).to_millis(),
            self.max().to_millis()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(values_ms: &[f64]) -> ResponseStats {
        let mut s = ResponseStats::new();
        for &v in values_ms {
            s.record(Seconds::from_millis(v));
        }
        s
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Seconds::ZERO);
        assert_eq!(s.percentile(50.0), Seconds::ZERO);
    }

    #[test]
    fn mean_and_std() {
        let s = stats_of(&[10.0, 20.0, 30.0]);
        assert!((s.mean().to_millis() - 20.0).abs() < 1e-12);
        assert!((s.std_dev().to_millis() - 10.0).abs() < 1e-9);
        assert!((s.max().to_millis() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = stats_of(&[1.0, 7.0, 15.0, 55.0, 500.0]);
        let cdf = s.cdf();
        let mut prev = 0.0;
        for &(_, frac) in &cdf {
            assert!(frac >= prev);
            prev = frac;
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        // 1/5 <= 5ms, 2/5 <= 10ms, 3/5 <= 20ms.
        assert!((cdf[0].1 - 0.2).abs() < 1e-12);
        assert!((cdf[1].1 - 0.4).abs() < 1e-12);
        assert!((cdf[2].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bucket_edges_match_figure4() {
        assert_eq!(
            CDF_BUCKETS_MS,
            [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0]
        );
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = stats_of(&values);
        assert!((s.percentile(50.0).to_millis() - 50.0).abs() <= 1.0);
        assert!((s.percentile(95.0).to_millis() - 95.0).abs() <= 1.0);
        assert!((s.percentile(0.0).to_millis() - 1.0).abs() < 1e-9);
        assert!((s.percentile(100.0).to_millis() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn nan_samples_sort_last_instead_of_panicking() {
        // Reports query percentiles over whatever was recorded; one bad
        // sample must not abort them. Under the total order a NaN sorts
        // after every number.
        let s = stats_of(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(s.percentile(0.0).to_millis(), 1.0);
        assert_eq!(s.percentile(50.0).to_millis(), 3.0);
        assert!(s.percentile(100.0).to_millis().is_nan());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        let _ = stats_of(&[1.0]).percentile(150.0);
    }

    #[test]
    fn percentiles_stay_unbiased_past_the_reservoir_cap() {
        // Three times the reservoir size, fed as an increasing ramp: the
        // worst case for the old scheme, which stopped admitting late
        // (large) samples and so dragged every percentile low. Algorithm R
        // keeps each sample with equal probability, so the reservoir
        // percentiles must track the true ramp percentiles within a few
        // percent even well past the cap.
        let n = 3 * RESERVOIR as u64;
        let mut s = ResponseStats::new();
        for i in 1..=n {
            s.record(Seconds::from_millis(i as f64));
        }
        for p in [25.0, 50.0, 75.0, 90.0, 99.0] {
            let truth = p / 100.0 * n as f64;
            let got = s.percentile(p).to_millis();
            let err = (got - truth).abs() / n as f64;
            assert!(
                err < 0.02,
                "p{p}: reservoir said {got}, truth {truth} ({:.1}% off)",
                err * 100.0
            );
        }
        // And the draw sequence is a pure function of the count, so a
        // second identical run reproduces the reservoir exactly.
        let mut again = ResponseStats::new();
        for i in 1..=n {
            again.record(Seconds::from_millis(i as f64));
        }
        assert_eq!(s, again);
    }

    #[test]
    fn merge_below_the_cap_is_exact() {
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64 * 7.3) % 211.0 + 0.5).collect();
        let global = stats_of(&values);
        let mut merged = ResponseStats::new();
        for chunk in values.chunks(137) {
            merged.merge(&stats_of(chunk));
        }
        assert_eq!(merged.count(), global.count());
        assert_eq!(merged.bucket_counts, global.bucket_counts);
        assert_eq!(merged.max(), global.max());
        // Below the cap the merged reservoir is the whole stream, so
        // every percentile is exactly the global stream's.
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), global.percentile(p), "p{p}");
        }
        assert!((merged.mean().to_millis() - global.mean().to_millis()).abs() < 1e-9);
    }

    #[test]
    fn merge_past_the_cap_is_deterministic_and_proportional() {
        let ramp = |n: u64, scale: f64| {
            let mut s = ResponseStats::new();
            for i in 1..=n {
                s.record(Seconds::from_millis(i as f64 * scale));
            }
            s
        };
        let big = ramp(2 * RESERVOIR as u64, 1.0);
        let small = ramp(RESERVOIR as u64 / 2, 1.0);
        let mut once = big.clone();
        once.merge(&small);
        let mut again = big.clone();
        again.merge(&small);
        assert_eq!(once, again, "merge must be a pure function of its inputs");
        assert_eq!(once.samples.len(), RESERVOIR);
        assert_eq!(once.count(), big.count() + small.count());
        // The combined multiset holds 2.5R values; its median m solves
        // m + R/2 = 1.25R, i.e. m = 0.75R. The subsampled reservoir
        // should land within a few percent.
        let truth = 0.75 * RESERVOIR as f64;
        let got = once.percentile(50.0).to_millis();
        assert!(
            (got - truth).abs() / truth < 0.05,
            "median {got} vs truth {truth}"
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = stats_of(&[3.0, 9.0, 27.0]);
        let mut left = s.clone();
        left.merge(&ResponseStats::new());
        assert_eq!(left, s);
        let mut right = ResponseStats::new();
        right.merge(&s);
        assert_eq!(right, s);
    }

    #[test]
    fn display_is_informative() {
        let s = stats_of(&[5.0, 10.0]);
        let text = s.to_string();
        assert!(text.contains("2 requests"));
        assert!(text.contains("mean 7.50 ms"));
    }
}
