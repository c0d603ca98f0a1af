//! Latency recorder and the estimators every gated timing goes through.
//!
//! Raw samples of one segment are kept as they come (a `Vec` push is the
//! only thing the timed loop does with them); after the segment they give
//! an exact per-segment median and are folded into a log-linear
//! [`Recorder`] for the whole-run diagnostics.
//!
//! The gated value of a timing is the **quiet decile over segments**
//! ([`quiet_low`] for latencies and CPU per transaction, [`quiet_high`] for
//! rates). Interference on a shared host only ever slows a segment down, so
//! the fast tail of the per-segment values is the program's own speed; PR
//! 12 measured it to repeat about twice as well as the median over segments
//! or the whole-run figure.

/// Sub-buckets per power of two: relative error ≤ 2^-7 < 1 %.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns ≈ 18 min; larger ones land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Log-linear histogram of nanosecond values (exact below 256 ns).
#[derive(Clone)]
pub struct Recorder {
    buckets: Vec<u32>,
    count: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let idx = ((shift as usize + 1) << SUB_BITS) + ((v >> shift) - SUB) as usize;
    idx.min(BUCKETS - 1)
}

/// Midpoint of the bucket's value range.
fn value_of(idx: usize) -> f64 {
    if idx < 2 * SUB as usize {
        return idx as f64;
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    let lo = (SUB + (idx as u64 & (SUB - 1))) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl Recorder {
    pub fn record(&mut self, nanos: u64) {
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Rank of the sample that has a share `q` of the others below it.
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen > rank {
                return value_of(idx);
            }
        }
        value_of(BUCKETS - 1)
    }

    /// A tail percentile is reported only with at least ten samples beyond
    /// it; otherwise it is one or two outliers, not a percentile.
    pub fn tail(&self, q: f64) -> Option<f64> {
        (self.count as f64 * (1.0 - q) >= 10.0).then(|| self.quantile(q))
    }
}

/// Exact median of one segment's raw samples (reorders them).
pub fn median_u32(samples: &mut [u32]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mid = (samples.len() - 1) / 2;
    let (_, m, _) = samples.select_nth_unstable(mid);
    Some(f64::from(*m))
}

/// The `q`-quantile of a small series, linear between ranks; 0 for an
/// empty one (a run that failed before its first segment).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    if lo + 1 < v.len() {
        v[lo] + (v[lo + 1] - v[lo]) * frac
    } else {
        v[lo]
    }
}

/// Quiet estimate of a cost (latency, CPU per transaction, set-up time):
/// the 10th percentile of its per-segment values.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// Quiet estimate of a rate: the 90th percentile of its per-segment values.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(values, 0.90)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).floor() as usize] as f64
    }

    #[test]
    fn percentiles_are_within_one_percent_of_the_sorted_samples() {
        let mut rng = Rng::new(11);
        // Log-uniform from 50 ns to ≈50 ms: every octave the benchmark sees.
        let mut raw: Vec<u64> = (0..200_000)
            .map(|_| (50.0 * (rng.unit() * 20.0).exp2()) as u64)
            .collect();
        let mut rec = Recorder::default();
        raw.iter().for_each(|&v| rec.record(v));
        raw.sort_unstable();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999] {
            let (got, want) = (rec.quantile(q), exact(&raw, q));
            assert!(
                (got / want - 1.0).abs() <= 0.01,
                "q={q}: recorder {got}, sorted samples {want}"
            );
        }
        assert_eq!(rec.count(), 200_000);
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_saturate() {
        let mut rec = Recorder::default();
        for v in [0, 1, 17, 255] {
            assert_eq!(value_of(bucket_of(v)), v as f64);
        }
        rec.record(u64::MAX);
        assert!(rec.quantile(0.5) > 1e12);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let mut rec = Recorder::default();
        (0..999).for_each(|v| rec.record(1_000 + v));
        assert!(rec.tail(0.99).is_none(), "9.99 samples beyond p99");
        rec.record(5_000);
        assert!(rec.tail(0.99).is_some(), "1000 samples: 10 beyond p99");
        assert!(rec.tail(0.999).is_none());
        assert!(rec.tail(0.50).is_some());
    }

    #[test]
    fn median_of_raw_samples() {
        assert_eq!(median_u32(&mut []), None);
        assert_eq!(median_u32(&mut [9, 1, 5]), Some(5.0));
        assert_eq!(median_u32(&mut [4, 1, 3, 2]), Some(2.0));
    }

    /// 120 segments of a 100 µs operation with ±1 % jitter, a share of them
    /// slowed 2× by a neighbour.
    fn series(inflated_share: f64) -> Vec<f64> {
        let mut rng = Rng::new(5);
        (0..120)
            .map(|_| {
                let base = 100.0 * (0.99 + 0.02 * rng.unit());
                if rng.unit() < inflated_share {
                    base * 2.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn quiet_decile_returns_the_uninflated_value() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // 30 % of the segments disturbed: the mean is off by ≈30 %, the
        // quiet decile is not.
        let s = series(0.30);
        assert!((quiet_low(&s) / 100.0 - 1.0).abs() < 0.01);
        assert!(mean(&s) > 120.0);
        // A slow phase covering most of a run (PR 12 saw ones lasting
        // minutes) takes the median with it; the quiet decile still holds.
        let s = series(0.60);
        assert!((quiet_low(&s) / 100.0 - 1.0).abs() < 0.01);
        assert!(quantile(&s, 0.5) > 190.0);
        assert!(mean(&s) > 150.0);
        // Rates mirror it: disturbed segments are the slow ones.
        let rates: Vec<f64> = series(0.30).iter().map(|us| 1e6 / us).collect();
        assert!((quiet_high(&rates) / 10_000.0 - 1.0).abs() < 0.01);
    }
}
