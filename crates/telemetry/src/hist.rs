//! Streaming log-bucketed histograms with O(1) record and mergeable
//! snapshots.
//!
//! # Bucket layout and error bound
//!
//! Values below [`EXACT_BELOW`] (= 2^[`SUB_BUCKET_BITS`] = 32) get one
//! bucket each and are recovered exactly. Above that, every power-of-two
//! octave is split into 32 sub-buckets of equal width, so a value `v`
//! lands in a bucket of width `2^(msb(v) - 5)` whose lower bound is at
//! least `32 * 2^(msb(v) - 5)`. Quantile estimates return the midpoint
//! of the selected bucket, so the absolute error is at most half a
//! bucket width and the *relative* error is bounded by
//! [`RELATIVE_ERROR`] = 1/64 (~1.6%):
//!
//! ```text
//! |estimate - exact| <= width / 2 <= lower / 64 <= exact / 64
//! ```
//!
//! Because the value -> bucket map is monotone, the nearest-rank walk
//! over bucket counts selects exactly the bucket containing the
//! nearest-rank sample, so the bound holds against the exact
//! nearest-rank percentile (property-tested against the local
//! `nearest_rank` oracle in `tests/telemetry.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of sub-bucket bits per octave (32 sub-buckets).
pub const SUB_BUCKET_BITS: u32 = 5;

/// Values strictly below this are recorded exactly (one bucket each).
pub const EXACT_BELOW: u64 = 1 << SUB_BUCKET_BITS;

/// Documented bound on the relative error of quantile estimates for
/// values `>= EXACT_BELOW` (values below are exact).
pub const RELATIVE_ERROR: f64 = 1.0 / 64.0;

/// Total bucket count: 32 exact buckets + 59 octaves x 32 sub-buckets.
pub(crate) const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) << SUB_BUCKET_BITS;

/// Bucket index for a value (monotone in `v`).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < EXACT_BELOW {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        (((shift + 1) as usize) << SUB_BUCKET_BITS) + ((v >> shift) as usize - EXACT_BELOW as usize)
    }
}

/// Inclusive lower bound and width of a bucket.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    let octave = index >> SUB_BUCKET_BITS;
    if octave == 0 {
        (index as u64, 1)
    } else {
        let sub = (index & (EXACT_BELOW as usize - 1)) as u64;
        let shift = (octave - 1) as u32;
        ((EXACT_BELOW + sub) << shift, 1u64 << shift)
    }
}

/// Midpoint estimate for a bucket (exact for width-1 buckets).
fn bucket_estimate(index: usize) -> u64 {
    let (lower, width) = bucket_bounds(index);
    lower + (width >> 1)
}

/// Shared lock-free histogram storage: a fixed array of relaxed atomic
/// bucket counters plus running `count` and `sum`.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> Self {
        HistCore {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Handle to a named streaming histogram registered in a
/// [`Telemetry`](crate::Telemetry) instance.
///
/// [`record`](Histogram::record) is O(1) — one bucket index computation
/// and three relaxed atomic adds — and a single relaxed load when the
/// owning instance is disabled. Clones share the same storage.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) enabled: Arc<std::sync::atomic::AtomicBool>,
    pub(crate) core: Arc<HistCore>,
}

impl Histogram {
    /// Records one value (no-op while the owning instance is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.record(v);
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// Immutable point-in-time copy of a [`Histogram`], supporting quantile
/// queries and lossless merging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dense bucket counts with trailing zeros trimmed.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from sparse `(index, count)` pairs plus the
    /// recorded `count` and `sum` (the wire decode path).
    pub(crate) fn from_sparse(count: u64, sum: u64, pairs: &[(usize, u64)]) -> Self {
        let len = pairs.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let mut buckets = vec![0u64; len.min(NUM_BUCKETS)];
        for &(i, c) in pairs {
            if i < buckets.len() {
                buckets[i] += c;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `q` in `(0, 1]`.
    ///
    /// Returns the midpoint of the bucket containing the nearest-rank
    /// sample: exact for values below [`EXACT_BELOW`], within
    /// [`RELATIVE_ERROR`] of the exact sample otherwise. `None` when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_estimate(i));
            }
        }
        // Relaxed reads can observe `count` ahead of the bucket counters;
        // fall back to the highest populated bucket.
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_estimate)
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    ///
    /// Merging is associative and commutative, so per-shard snapshots
    /// can be combined in any order with the same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// True when every bucket count is `>=` the corresponding count in
    /// `earlier` — i.e. this snapshot could have been taken later on
    /// the same histogram (monotone consistency).
    pub fn dominates(&self, earlier: &HistogramSnapshot) -> bool {
        if earlier.buckets.len() > self.buckets.len() || earlier.count > self.count {
            return false;
        }
        self.buckets
            .iter()
            .zip(earlier.buckets.iter())
            .all(|(l, e)| l >= e)
    }

    /// What was recorded after `earlier` (bucket-wise subtraction):
    /// `late.since(&early)` describes exactly the values recorded
    /// between the two snapshots. `None` when this snapshot does not
    /// [`dominate`](HistogramSnapshot::dominates) `earlier`, i.e. it
    /// cannot be a later view of the same histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        if !self.dominates(earlier) {
            return None;
        }
        let mut buckets = self.buckets.clone();
        for (dst, &e) in buckets.iter_mut().zip(earlier.buckets.iter()) {
            *dst -= e;
        }
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Some(HistogramSnapshot {
            buckets,
            count: self.count - earlier.count,
            sum: self.sum.wrapping_sub(earlier.sum),
        })
    }

    /// Sparse `(bucket index, count)` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_monotone_and_contiguous() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..4096u64 {
            let i = bucket_index(v);
            assert!(i == prev || i == prev + 1, "gap at {v}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bounds_invert_index() {
        for v in [0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let (lower, width) = bucket_bounds(i);
            assert!(lower <= v, "lower {lower} > v {v}");
            assert!(v - lower < width, "v {v} outside bucket {i}");
        }
    }

    #[test]
    fn small_values_exact() {
        let core = HistCore::new();
        for v in 0..32 {
            core.record(v);
        }
        let snap = core.snapshot();
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(snap.quantile(q), Some(v));
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let (a, b, both) = (HistCore::new(), HistCore::new(), HistCore::new());
        for v in 0..1000u64 {
            let h = if v % 2 == 0 { &a } else { &b };
            h.record(v * 17);
            both.record(v * 17);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn dominates_tracks_history() {
        let core = HistCore::new();
        core.record(5);
        core.record(77);
        let early = core.snapshot();
        core.record(5);
        core.record(100_000);
        let late = core.snapshot();
        assert!(late.dominates(&early));
        assert!(!early.dominates(&late));
        assert!(late.dominates(&late));
    }

    #[test]
    fn since_undoes_merge() {
        let (a, b) = (HistCore::new(), HistCore::new());
        for v in 0..500u64 {
            a.record(v * 3);
            b.record(v * v + 40_000);
        }
        let (a, b) = (a.snapshot(), b.snapshot());
        let mut both = a.clone();
        both.merge(&b);
        assert_eq!(both.since(&a), Some(b.clone()), "bucket for bucket");
        assert_eq!(both.since(&b), Some(a));
        assert_eq!(both.since(&both), Some(HistogramSnapshot::default()));
    }

    #[test]
    fn since_refuses_an_earlier_that_is_not_dominated() {
        let core = HistCore::new();
        core.record(5);
        let early = core.snapshot();
        core.record(77);
        let late = core.snapshot();
        assert_eq!(early.since(&late), None);
        // Same count, different buckets: not a history of one histogram.
        let other = HistCore::new();
        other.record(6);
        assert_eq!(early.since(&other.snapshot()), None);
    }
}
