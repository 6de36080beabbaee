//! Log-bucketed (HDR-style) histograms with exact merge.
//!
//! A [`Histogram`] buckets `u64` samples log-linearly: values below
//! 2³ get one exact bucket each; above that, each power-of-two octave
//! is split into 2³ equal sub-buckets, so relative bucket error is
//! bounded by 1/8 everywhere while the whole `u64` range needs at most
//! 496 buckets. Bucket placement is a pure function of the value, so
//! merging two histograms (element-wise bucket addition plus
//! min/max/sum/count combination) is *exact*: the merge of two
//! recorded streams equals the histogram of their concatenation,
//! bit-for-bit. That property is what lets per-channel histograms be
//! folded into whole-machine totals without losing determinism.

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "float leaf: report values derived from finished integer counters; never feeds simulated timing"
)]

use gsdram_core::stats::{ReportStats, StatsNode};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: usize = 3;
/// Buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;

/// A log-linear histogram of `u64` samples. See the [module
/// docs](self) for the bucketing scheme.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    /// Saturating sum of all samples.
    sum: u64,
    min: u64,
    max: u64,
    /// Bucket counts, grown on demand to the highest touched index —
    /// identical streams always produce identical vectors.
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < (1 << SUB_BITS) {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as usize;
            let octave = msb - SUB_BITS + 1;
            let sub = ((value >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
            octave * SUB_COUNT + sub
        }
    }

    /// The inclusive `(low, high)` value range of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        if index < SUB_COUNT {
            (index as u64, index as u64)
        } else {
            let octave = index / SUB_COUNT;
            let sub = (index % SUB_COUNT) as u64;
            let msb = octave + SUB_BITS - 1;
            let width = 1u64 << (msb - SUB_BITS);
            let lo = (1u64 << msb) + sub * width;
            // `lo + (width - 1)` never overflows (the top bucket ends
            // exactly at `u64::MAX`), but `lo + width` would.
            (lo, lo + (width - 1))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
    }

    /// Folds `other` into this histogram. Exact: the result equals the
    /// histogram of the two underlying sample streams concatenated.
    pub fn merge(&mut self, other: &Histogram) {
        // Exhaustive on purpose (rule D9): a new field does not compile
        // until this fold handles it.
        let Histogram {
            count,
            sum,
            min,
            max,
            ref buckets,
        } = *other;
        if count == 0 {
            return;
        }
        if self.buckets.len() < buckets.len() {
            self.buckets.resize(buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(buckets) {
            *b += o;
        }
        self.sum = self.sum.saturating_add(sum);
        if self.count == 0 {
            self.min = min;
            self.max = max;
        } else {
            self.min = self.min.min(min);
            self.max = self.max.max(max);
        }
        self.count += count;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as an upper bound: the inclusive
    /// high bound of the bucket holding the sample of that rank,
    /// clamped to the recorded maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets in ascending value order as
    /// `(low, high, count)` with inclusive bounds.
    pub fn nonempty(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

impl ReportStats for Histogram {
    /// Summary counters (`count`/`sum`/`min`/`max`), derived gauges
    /// (`mean`/`p50`/`p95`/`p99`) and one `le_<high>` counter per
    /// non-empty bucket under a `buckets` child, ascending.
    fn stats_node(&self, name: &str) -> StatsNode {
        let mut buckets = StatsNode::new("buckets");
        for (_, hi, c) in self.nonempty() {
            buckets = buckets.counter(format!("le_{hi}"), c);
        }
        StatsNode::new(name)
            .counter("count", self.count)
            .counter("sum", self.sum)
            .counter("min", self.min)
            .counter("max", self.max)
            .gauge("mean", self.mean())
            .gauge("p50", self.quantile(0.50) as f64)
            .gauge("p95", self.quantile(0.95) as f64)
            .gauge("p99", self.quantile(0.99) as f64)
            .child(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_below_eight_get_exact_buckets() {
        for v in 0..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn first_octave_is_still_exact() {
        // msb = 3 buckets have width 1: 8..=15 map to indices 8..=15.
        for v in 8..16u64 {
            let i = Histogram::bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(Histogram::bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        // Every power of two starts its bucket; neighbours share or
        // split buckets exactly as the bounds say.
        let probes = [
            0u64,
            1,
            7,
            8,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            4096,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo},{hi}]");
        }
        // 16 and 17 share one width-2 bucket; 15 and 16 do not.
        assert_eq!(Histogram::bucket_index(16), Histogram::bucket_index(17));
        assert_ne!(Histogram::bucket_index(15), Histogram::bucket_index(16));
        // Powers of two open their bucket.
        for k in 3..=63u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_bounds(Histogram::bucket_index(v)).0, v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous() {
        // Consecutive buckets tile the value space with no gap/overlap.
        let mut prev_hi = None;
        for i in 0..Histogram::bucket_index(1 << 12) {
            let (lo, hi) = Histogram::bucket_bounds(i);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            assert!(lo <= hi);
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.min(), h.max(), h.mean() as u64), (0, 0, 0));
        for v in [5u64, 100, 9, 3000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 3114);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 3000);
        assert!((h.mean() - 778.5).abs() < 1e-9);
    }

    #[test]
    fn merge_is_exact() {
        // merge(a, b) must equal recording the concatenated stream.
        let xs: Vec<u64> = (0..200).map(|i| (i * i * 37) % 5000).collect();
        let (left, right) = xs.split_at(77);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in left {
            a.record(v);
        }
        for &v in right {
            b.record(v);
        }
        for &v in &xs {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram is the identity, either way round.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to the 1st sample
        let p50 = h.quantile(0.5);
        assert!((450..=575).contains(&p50), "p50 {p50} out of range");
        assert!(h.quantile(0.99) >= p50);
    }

    #[test]
    fn stats_node_lists_nonempty_buckets_ascending() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(20);
        let node = h.stats_node("lat");
        assert_eq!(node.counter_at("count"), Some(3));
        assert_eq!(node.counter_at("buckets/le_3"), Some(2));
        let buckets = node.descend("buckets").unwrap();
        assert_eq!(buckets.values().len(), 2);
        let keys: Vec<&str> = buckets.values().iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted_by_value: Vec<u64> = keys
            .iter()
            .map(|k| k.strip_prefix("le_").unwrap().parse().unwrap())
            .collect();
        let orig = sorted_by_value.clone();
        sorted_by_value.sort_unstable();
        assert_eq!(orig, sorted_by_value);
    }
}
