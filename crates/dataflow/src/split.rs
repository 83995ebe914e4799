//! Reuse splits across the hierarchy and the Eq. (3)/(4) access counting.
//!
//! Section VI-C: a datum whose total reuse is `a x b x c x d` is read `a`
//! times from DRAM, `a·b` times from the buffer, `a·b·c` times across the
//! array and `a·b·c·d` times from the RF. Input data energy follows
//! Eq. (3); psum accumulation follows Eq. (4) with reads *and* writes at
//! DRAM/buffer/RF (the factor of 2) and single transfers at the array.
//!
//! Footnote 1's bypass optimization is applied structurally: a trailing run
//! of factor-1 levels (starting from the RF) is skipped, since the datum is
//! delivered directly from the deepest level that still provides reuse.

use eyeriss_arch::access::AccessCounts;

/// A reuse split `(a, b, c, d)` across DRAM, buffer, array and RF.
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::ReuseSplit;
///
/// // Fig. 8's example: total reuse 24 split as 1 x 2 x 3 x 4.
/// let s = ReuseSplit::new(1.0, 2.0, 3.0, 4.0);
/// assert_eq!(s.total(), 24.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseSplit {
    /// DRAM-level reuse (times fetched from DRAM).
    pub a: f64,
    /// Buffer-level reuse (buffer reads per DRAM fetch).
    pub b: f64,
    /// Array-level reuse (array deliveries per buffer read; multicast width).
    pub c: f64,
    /// RF-level reuse (ALU reads per array delivery).
    pub d: f64,
}

impl ReuseSplit {
    /// Creates a split.
    ///
    /// # Panics
    ///
    /// Panics if any factor is not finite or is below 1 (every level passes
    /// a datum through at least once while it is live).
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        for (name, v) in [("a", a), ("b", b), ("c", c), ("d", d)] {
            assert!(
                v.is_finite() && v >= 1.0,
                "reuse factor {name} = {v} must be >= 1"
            );
        }
        ReuseSplit { a, b, c, d }
    }

    /// Total reuse `a·b·c·d`.
    pub fn total(&self) -> f64 {
        self.a * self.b * self.c * self.d
    }

    /// Access counts for `unique` input data values under Eq. (3).
    ///
    /// Charges, per datum: `a` DRAM reads, `a·b` buffer reads, `a·b·c`
    /// array hops and `a·b·c·d` RF reads — suppressing a trailing run of
    /// factor-1 levels (bypass). The DRAM term is always charged: every
    /// datum enters the chip at least `a` times.
    pub fn input_counts(&self, unique: f64) -> AccessCounts {
        assert!(unique >= 0.0 && unique.is_finite(), "invalid unique count");
        let mut out = AccessCounts::new();
        out.dram_reads = unique * self.a;
        // Deepest level (towards RF) with factor > 1 stays on the delivery
        // path; everything past it is bypassed.
        let use_rf = self.d > 1.0;
        let use_array = use_rf || self.c > 1.0;
        let use_buffer = use_array || self.b > 1.0;
        if use_buffer {
            out.buffer_reads = unique * self.a * self.b;
        }
        if use_array {
            out.array_hops = unique * self.a * self.b * self.c;
        }
        if use_rf {
            out.rf_reads = unique * self.a * self.b * self.c * self.d;
        }
        out
    }

    /// Access counts for `unique` output values whose accumulation chain is
    /// split as this reuse split, under Eq. (4).
    ///
    /// Charges, per ofmap value: `2a - 1` DRAM accesses (the paper's
    /// experiments pin `a = 1`: one final write), `2a(b-1)` buffer accesses,
    /// `ab(c-1)` array hops and `2abc(d-1)` RF accesses. Reads and writes
    /// are split evenly where the factor of 2 applies.
    pub fn psum_counts(&self, unique: f64) -> AccessCounts {
        assert!(unique >= 0.0 && unique.is_finite(), "invalid unique count");
        let mut out = AccessCounts::new();
        // 2a - 1: a writes and a - 1 read-backs; with a = 1 this is the
        // single final ofmap write.
        out.dram_writes = unique * self.a;
        out.dram_reads = unique * (self.a - 1.0);
        let buf = unique * self.a * (self.b - 1.0);
        out.buffer_writes = buf;
        out.buffer_reads = buf;
        out.array_hops = unique * self.a * self.b * (self.c - 1.0);
        let rf = unique * self.a * self.b * self.c * (self.d - 1.0);
        out.rf_writes = rf;
        out.rf_reads = rf;
        out
    }
}

/// Exact psum accounting for mappings whose fold counts have ceiling
/// slack (`b·c·d >= total` but not equal).
///
/// `total` is the exact accumulation chain length per output value
/// (`C·R²`), `b` the buffer-level folds (channel-group rounds) and `c` the
/// spatial chain length per round. Each output sees `min(b·c, total)` PE
/// residencies; every residency after the first in a round is one array
/// transfer, the remaining `total - residencies` accumulations are RF
/// read-modify-writes, and `b - 1` rounds spill through the buffer.
/// Degenerates to Eq. (4) with `a = 1` when `b·c·d = total` exactly.
pub fn psum_counts_exact(unique: f64, total: f64, b: f64, c: f64) -> AccessCounts {
    assert!(unique >= 0.0 && unique.is_finite(), "invalid unique count");
    assert!(total >= 1.0 && b >= 1.0 && c >= 1.0, "invalid psum split");
    let residencies = (b * c).min(total);
    let mut out = AccessCounts::new();
    out.dram_writes = unique;
    let buf = unique * (b - 1.0);
    out.buffer_writes = buf;
    out.buffer_reads = buf;
    out.array_hops = unique * (residencies - b).max(0.0);
    let rf = unique * (total - residencies).max(0.0);
    out.rf_reads = rf;
    out.rf_writes = rf;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::access::LayerAccessProfile;
    use eyeriss_arch::cost::TableIv;
    use proptest::prelude::*;

    /// Table IV energy of one data type's counts.
    fn energy(counts: AccessCounts) -> f64 {
        let mut p = LayerAccessProfile::new();
        p.ifmap = counts;
        TableIv.energy_of(&p)
    }

    #[test]
    fn fig8_example_input_energy() {
        // Fig. 8: reuse 24 = 1 x 2 x 3 x 4. Eq. (3):
        // 1*200 + 2*6 + 6*2 + 24*1 = 248 per datum.
        let s = ReuseSplit::new(1.0, 2.0, 3.0, 4.0);
        let e = energy(s.input_counts(1.0));
        assert_eq!(e, 200.0 + 12.0 + 12.0 + 24.0);
    }

    #[test]
    fn fig9_example_psum_energy() {
        // Fig. 9: accumulation 36 = 2 x 3 x 3 x 2. Eq. (4):
        // (2*2-1)*200 + 2*2*(3-1)*6 + 2*3*(3-1)*2 + 2*2*3*3*(2-1)*1
        // = 600 + 48 + 24 + 36 = 708.
        let s = ReuseSplit::new(2.0, 3.0, 3.0, 2.0);
        let e = energy(s.psum_counts(1.0));
        assert_eq!(e, 708.0);
    }

    #[test]
    fn bypass_drops_trailing_levels() {
        // d = 1: data goes straight from the array to the ALU (footnote 1).
        let s = ReuseSplit::new(1.0, 2.0, 3.0, 1.0);
        let c = s.input_counts(10.0);
        assert_eq!(c.rf_reads, 0.0);
        assert_eq!(c.array_hops, 60.0);

        // c = d = 1: straight from the buffer.
        let s = ReuseSplit::new(1.0, 2.0, 1.0, 1.0);
        let c = s.input_counts(10.0);
        assert_eq!(c.array_hops, 0.0);
        assert_eq!(c.buffer_reads, 20.0);

        // b = c = d = 1: DRAM only.
        let s = ReuseSplit::new(3.0, 1.0, 1.0, 1.0);
        let c = s.input_counts(10.0);
        assert_eq!(c.buffer_reads, 0.0);
        assert_eq!(c.dram_reads, 30.0);
    }

    #[test]
    fn inner_ones_are_not_bypassed() {
        // b = 1 but d > 1: buffer and array are still on the delivery path.
        let s = ReuseSplit::new(1.0, 1.0, 1.0, 5.0);
        let c = s.input_counts(2.0);
        assert_eq!(c.buffer_reads, 2.0);
        assert_eq!(c.array_hops, 2.0);
        assert_eq!(c.rf_reads, 10.0);
    }

    #[test]
    fn psum_with_all_ones_is_single_write() {
        let s = ReuseSplit::new(1.0, 1.0, 1.0, 1.0);
        let c = s.psum_counts(7.0);
        assert_eq!(c.dram_writes, 7.0);
        assert_eq!(c.dram_reads, 0.0);
        assert_eq!(c.buffer_reads + c.buffer_writes, 0.0);
        assert_eq!(c.array_hops, 0.0);
        assert_eq!(c.rf_reads + c.rf_writes, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_factor() {
        let _ = ReuseSplit::new(1.0, 0.5, 1.0, 1.0);
    }

    #[test]
    fn exact_psum_matches_eq4_without_slack() {
        // b*c*d = total exactly -> identical to ReuseSplit::psum_counts.
        let (b, c, d) = (3.0, 11.0, 11.0);
        let total = b * c * d;
        let via_eq4 = ReuseSplit::new(1.0, b, c, d).psum_counts(5.0);
        let exact = psum_counts_exact(5.0, total, b, c);
        assert_eq!(via_eq4, exact);
    }

    #[test]
    fn exact_psum_caps_phantom_accumulations() {
        // Ceil slack: b*c = 44 residencies but only 363 real accumulations.
        let exact = psum_counts_exact(1.0, 363.0, 2.0, 22.0);
        assert_eq!(exact.rf_reads, 363.0 - 44.0);
        assert_eq!(exact.array_hops, 42.0);
        // Degenerate: more residencies than accumulations never goes
        // negative.
        let degenerate = psum_counts_exact(1.0, 10.0, 4.0, 100.0);
        assert_eq!(degenerate.rf_reads, 0.0);
        assert!(degenerate.is_valid());
    }

    proptest! {
        #[test]
        fn prop_exact_psum_valid(total in 1.0f64..5000.0, b in 1.0f64..60.0,
                                 c in 1.0f64..400.0, u in 0.0f64..1e6) {
            prop_assert!(psum_counts_exact(u, total, b, c).is_valid());
        }

        #[test]
        fn prop_input_counts_valid(a in 1.0f64..10.0, b in 1.0f64..10.0,
                                   c in 1.0f64..10.0, d in 1.0f64..10.0,
                                   u in 0.0f64..1e6) {
            let s = ReuseSplit::new(a, b, c, d);
            prop_assert!(s.input_counts(u).is_valid());
            prop_assert!(s.psum_counts(u).is_valid());
        }

        #[test]
        fn prop_more_rf_reuse_less_energy(d1 in 2.0f64..50.0, d2 in 2.0f64..50.0) {
            // Holding total reuse fixed, moving reuse from the buffer level
            // into the RF level can never increase energy (once the RF is
            // on the delivery path at all, i.e. d > 1; right at the bypass
            // boundary adding the RF/array hop costs more than it saves).
            prop_assume!(d1 < d2);
            let total = 100.0;
            let hi = energy(ReuseSplit::new(1.0, total / d1, 1.0, d1).input_counts(1.0));
            let lo = energy(ReuseSplit::new(1.0, total / d2, 1.0, d2).input_counts(1.0));
            prop_assert!(lo <= hi + 1e-9);
        }
    }
}
