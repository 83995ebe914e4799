//! The processing engine: scratchpads, the 1-D convolution primitive of
//! Fig. 5, and zero-gating (Section V-E).
//!
//! Each PE owns three scratchpads, sized like the fabricated chip's
//! (224-word filter spad, 12-word ifmap window, 24-word psum spad scale
//! with the configured RF): filter rows stay stationary, ifmap pixels
//! stream through an R-deep sliding window, and psums accumulate locally
//! before being passed up the column.
//!
//! [`Pe`] models one engine on its own. The chip does not drive a pool of
//! them: it computes a layer's psums with this module's windowed MAC
//! kernel reading the weight tensor in place, and sets the PE counters
//! from the same closed forms [`Pe`] uses (see [`crate::chip`]).

use eyeriss_nn::Fix16;

/// Per-PE access counters, split by data type so the simulator can build
/// a [`eyeriss_arch::access::LayerAccessProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// MACs actually executed.
    pub macs: u64,
    /// MACs skipped by zero-gating (ifmap operand was zero).
    pub skipped_macs: u64,
    /// Ifmap window reads.
    pub ifmap_reads: u64,
    /// Filter scratchpad reads.
    pub filter_reads: u64,
    /// Filter scratchpad fills.
    pub filter_writes: u64,
    /// Psum scratchpad reads.
    pub psum_reads: u64,
    /// Psum scratchpad writes.
    pub psum_writes: u64,
}

impl PeStats {
    /// Merges another PE's counters into this one.
    pub fn merge(&mut self, other: &PeStats) {
        self.macs += other.macs;
        self.skipped_macs += other.skipped_macs;
        self.ifmap_reads += other.ifmap_reads;
        self.filter_reads += other.filter_reads;
        self.filter_writes += other.filter_writes;
        self.psum_reads += other.psum_reads;
        self.psum_writes += other.psum_writes;
    }

    /// All scratchpad reads.
    pub fn rf_reads(&self) -> u64 {
        self.ifmap_reads + self.filter_reads + self.psum_reads
    }

    /// All scratchpad writes.
    pub fn rf_writes(&self) -> u64 {
        self.filter_writes + self.psum_writes
    }
}

/// One processing engine.
///
/// # Example
///
/// ```
/// use eyeriss_sim::pe::Pe;
/// use eyeriss_nn::Fix16;
///
/// let mut pe = Pe::new(224, 24);
/// pe.load_filter_row(&[Fix16::ONE; 3]).unwrap();
/// let ifmap = [Fix16::ONE; 5];
/// let mut psums = vec![0i32; 3];
/// pe.run_primitive(0, &ifmap, 1, true, &mut psums);
/// assert!(psums.iter().all(|&p| p == Fix16::ONE.wide_mul(Fix16::ONE) * 3));
/// ```
#[derive(Debug, Clone)]
pub struct Pe {
    filter_spad: Vec<Fix16>,
    filter_capacity: usize,
    psum_capacity: usize,
    /// Whether zero-valued ifmap pixels gate the datapath.
    zero_gating: bool,
    /// Access counters.
    pub stats: PeStats,
}

impl Pe {
    /// Creates a PE with the given scratchpad capacities (in words).
    pub fn new(filter_capacity: usize, psum_capacity: usize) -> Self {
        Pe {
            filter_spad: Vec::new(),
            filter_capacity,
            psum_capacity,
            zero_gating: false,
            stats: PeStats::default(),
        }
    }

    /// Enables or disables zero-gating of the MAC datapath.
    pub fn set_zero_gating(&mut self, on: bool) {
        self.zero_gating = on;
    }

    /// Psum scratchpad capacity in words.
    pub fn psum_capacity(&self) -> usize {
        self.psum_capacity
    }

    /// Loads one filter row into the stationary scratchpad, returning its
    /// starting index.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the overflow amount if the spad capacity would be
    /// exceeded — the mapping should have prevented this.
    pub fn load_filter_row(&mut self, row: &[Fix16]) -> Result<usize, usize> {
        if self.filter_spad.len() + row.len() > self.filter_capacity {
            return Err(self.filter_spad.len() + row.len() - self.filter_capacity);
        }
        let start = self.filter_spad.len();
        self.filter_spad.extend_from_slice(row);
        self.stats.filter_writes += row.len() as u64;
        Ok(start)
    }

    /// Number of filter words currently resident.
    pub fn filter_words(&self) -> usize {
        self.filter_spad.len()
    }

    /// Runs one 1-D convolution primitive (Fig. 5): slides the filter row
    /// at `row_index` over `ifmap_row` with `stride`, accumulating into
    /// `psums` (one accumulator per output position).
    ///
    /// `accumulate_locally` marks whether the psum updates happen in this
    /// PE's scratchpad (true for interleaved primitives) — it only affects
    /// the access counting, not the arithmetic.
    ///
    /// The arithmetic is the windowed MAC kernel the chip computes every
    /// psum with, unrolled over the taps for the (taps, stride) pairs the
    /// published networks use and a scalar loop for every other
    /// geometry; accumulation wraps, like the chip's adder. Zero-gating
    /// runs the **same** kernel — a gated MAC would have added `0 x w`,
    /// so the psums cannot differ — and its counters are closed forms of
    /// the row's zero taps (the zero pixels each output window covers,
    /// summed), not a per-tap tally.
    ///
    /// # Panics
    ///
    /// Panics if `row_index` does not address a loaded row, the psum row is
    /// empty, `stride` is zero, or the ifmap row is shorter than the slide
    /// span.
    pub fn run_primitive(
        &mut self,
        row_index: usize,
        ifmap_row: &[Fix16],
        stride: usize,
        accumulate_locally: bool,
        psums: &mut [i32],
    ) {
        let (rows, outputs) = (FilterRows::one(row_index), psums.len());
        self.run_group(rows, ifmap_row, stride, accumulate_locally, psums, outputs);
    }

    /// The PE's interleaved primitives (Section V-B): each of the filter
    /// `rows` slides over the one `ifmap_row`, the `k`-th accumulating
    /// into `psums[k * outputs..][..outputs]`. Arithmetic and counters
    /// equal one [`Pe::run_primitive`] per filter row; the ifmap row's
    /// zero taps are counted once for the group.
    ///
    /// # Panics
    ///
    /// Panics under [`Pe::run_primitive`]'s conditions, or if `psums` is
    /// not one `outputs`-wide row per filter row.
    pub(crate) fn run_group(
        &mut self,
        rows: FilterRows,
        ifmap_row: &[Fix16],
        stride: usize,
        accumulate_locally: bool,
        psums: &mut [i32],
        outputs: usize,
    ) {
        let taps = slide_group(&self.filter_spad, rows, ifmap_row, stride, psums, outputs);
        let ops = (rows.count * outputs * taps) as u64;
        // The ifmap pixel is always read to be inspected; the filter
        // read, multiply and psum update are gated when it is zero
        // (Section V-E).
        let skipped = if self.zero_gating {
            rows.count as u64 * zero_taps(ifmap_row, taps, stride, outputs)
        } else {
            0
        };
        let performed = ops - skipped;
        self.stats.ifmap_reads += ops;
        self.stats.filter_reads += performed;
        self.stats.macs += performed;
        self.stats.skipped_macs += skipped;
        if accumulate_locally {
            self.stats.psum_reads += performed;
            self.stats.psum_writes += performed;
        }
    }

    /// [`Pe::run_primitive`] over a CSC-encoded ifmap row (the Eyeriss v2
    /// sparse PE): iterates the row's nonzeros and scatters each into the
    /// output windows it participates in, so zero MACs are never issued.
    /// Psums are **bit-exact** against the dense primitive — the wrapping
    /// i32 accumulations commute — and the counter invariant
    /// `macs + skipped_macs == dense taps` is preserved; only
    /// `ifmap_reads` differs (one read per *nonzero*, since CSC storage
    /// holds no zeros to inspect).
    ///
    /// `values`/`indices` are the row's CSC form (see
    /// [`crate::csc::encode_row_into`]) and `row_len` its dense length.
    ///
    /// # Panics
    ///
    /// Panics under the dense primitive's conditions, or if an index is
    /// outside `row_len`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_primitive_csc(
        &mut self,
        row_index: usize,
        values: &[Fix16],
        indices: &[u16],
        row_len: usize,
        stride: usize,
        accumulate_locally: bool,
        psums: &mut [i32],
    ) {
        let slides = psums
            .len()
            .checked_sub(1)
            .expect("psum row must be non-empty");
        let r = row_len
            .checked_sub(slides * stride)
            .expect("ifmap row shorter than slide span");
        let filter_row = filter_row(&self.filter_spad, row_index, r);
        let mut performed = 0u64;
        for (v, &j) in values.iter().zip(indices) {
            let j = j as usize;
            assert!(j < row_len, "CSC index {j} outside row of {row_len}");
            // Output positions x whose window covers pixel j:
            // x*stride <= j <= x*stride + r - 1, clamped to the row.
            let x_min = if j >= r {
                (j - r + 1).div_ceil(stride)
            } else {
                0
            };
            let x_max = (j / stride).min(slides);
            for x in x_min..=x_max {
                psums[x] = psums[x].wrapping_add(v.wide_mul(filter_row[j - x * stride]));
                performed += 1;
            }
        }
        let taps = (psums.len() * r) as u64;
        self.stats.ifmap_reads += values.len() as u64;
        self.stats.filter_reads += performed;
        self.stats.macs += performed;
        self.stats.skipped_macs += taps - performed;
        if accumulate_locally {
            self.stats.psum_reads += performed;
            self.stats.psum_writes += performed;
        }
    }
}

/// The filter rows slid against a single ifmap row: `count` rows of a
/// filter store (a PE's scratchpad, or the whole weight tensor), `step`
/// words apart from `first`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FilterRows {
    pub(crate) first: usize,
    pub(crate) step: usize,
    pub(crate) count: usize,
}

impl FilterRows {
    /// The single filter row of a lone primitive.
    fn one(row_index: usize) -> Self {
        FilterRows {
            first: row_index,
            step: 0,
            count: 1,
        }
    }

    /// Filter taps of primitives that slide `outputs` windows, `stride`
    /// apart, over exactly `row_len` pixels into the `psums` strip.
    #[inline(always)]
    fn taps(&self, row_len: usize, stride: usize, psums: &[i32], outputs: usize) -> usize {
        assert!(stride > 0, "stride must be positive");
        let slides = outputs.checked_sub(1).expect("psum row must be non-empty");
        assert_eq!(
            psums.len(),
            self.count * outputs,
            "psum strip must hold one row per filter row"
        );
        row_len
            .checked_sub(slides * stride)
            .expect("ifmap row shorter than slide span")
    }
}

/// The windowed MAC kernel of the PE and of the chip's layer kernel:
/// each of the filter `rows` of `filters` slides over
/// `ifmap_row` with `stride`, the `k`-th accumulating into
/// `psums[k * outputs..][..outputs]`, wrapping. Returns the taps of one
/// window.
///
/// The kernel is picked by the primitive's own geometry: the (taps,
/// stride) pairs of AlexNet, VGG, MobileNet's point- and depthwise layers
/// and the served network are unrolled; anything else (FC rows, odd
/// shapes) takes the scalar loop.
///
/// It is `#[inline(always)]`, as are the loops under it, so that each
/// copy of the layer kernel (`chip::kernel`: the portable one and the
/// one built with AVX2, where these loops vectorise with 32-bit
/// multiplies) gets its own build of them. The AVX2 copy slides only
/// the geometries its stride-1 pair-MAC loop does not cover: strided
/// layers, `R` other than 1, 3 and 5, 1x1 layers of one channel, and
/// FC shapes.
///
/// # Panics
///
/// Panics under [`Pe::run_group`]'s conditions, or if a filter row lies
/// outside `filters`.
#[inline(always)]
pub(crate) fn slide_group(
    filters: &[Fix16],
    rows: FilterRows,
    ifmap_row: &[Fix16],
    stride: usize,
    psums: &mut [i32],
    outputs: usize,
) -> usize {
    let taps = rows.taps(ifmap_row.len(), stride, psums, outputs);
    let (w, row) = (filters, ifmap_row);
    match (taps, stride) {
        (1, 1) => slide::<1, 1>(w, rows, row, psums, outputs),
        (3, 1) => slide::<3, 1>(w, rows, row, psums, outputs),
        (3, 2) => slide::<3, 2>(w, rows, row, psums, outputs),
        (5, 1) => slide::<5, 1>(w, rows, row, psums, outputs),
        (11, 4) => slide::<11, 4>(w, rows, row, psums, outputs),
        _ => slide_scalar(w, rows, taps, row, stride, psums, outputs),
    }
    taps
}

/// The `taps` resident filter words starting at `row_index`.
#[inline(always)]
fn filter_row(spad: &[Fix16], row_index: usize, taps: usize) -> &[Fix16] {
    assert!(
        row_index + taps <= spad.len(),
        "filter row {row_index}+{taps} not resident ({} loaded)",
        spad.len()
    );
    &spad[row_index..row_index + taps]
}

/// [`slide_group`] with taps and stride known at compile time: for each
/// filter row `w` of the group, `psums[x] += sum_k row[x * S + k] * w[k]`,
/// wrapping. The tap loop unrolls into one expression per output and the
/// output loop vectorises, which a runtime-length tap loop of 3 to 11
/// does not.
#[inline(always)]
fn slide<const R: usize, const S: usize>(
    spad: &[Fix16],
    rows: FilterRows,
    row: &[Fix16],
    psums: &mut [i32],
    outputs: usize,
) {
    for f in 0..rows.count {
        let w = filter_row(spad, rows.first + f * rows.step, R);
        let w: [Fix16; R] = w.try_into().expect("R taps");
        let psums = &mut psums[f * outputs..(f + 1) * outputs];
        for (psum, window) in psums.iter_mut().zip(row.windows(R).step_by(S)) {
            let mut acc = *psum;
            // Indexed so both operands have the constant length R.
            #[allow(clippy::needless_range_loop)]
            for k in 0..R {
                acc = acc.wrapping_add(window[k].wide_mul(w[k]));
            }
            *psum = acc;
        }
    }
}

/// [`slide`] for any geometry, one tap at a time: the fallback for the
/// shapes without an unrolled kernel.
#[inline(always)]
fn slide_scalar(
    spad: &[Fix16],
    rows: FilterRows,
    taps: usize,
    row: &[Fix16],
    stride: usize,
    psums: &mut [i32],
    outputs: usize,
) {
    for f in 0..rows.count {
        let w = filter_row(spad, rows.first + f * rows.step, taps);
        let psums = &mut psums[f * outputs..(f + 1) * outputs];
        for (x, psum) in psums.iter_mut().enumerate() {
            let window = &row[x * stride..x * stride + taps];
            for (w, i) in w.iter().zip(window) {
                *psum = psum.wrapping_add(i.wide_mul(*w));
            }
        }
    }
}

/// The taps of one primitive whose ifmap operand is zero: the zero
/// pixels each of the `outputs` windows covers, summed over the windows.
///
/// Counted by tap instead, visiting each pixel about once: tap `k` meets
/// pixels `k, k + stride, ...`, one per output, so the `m`-th run of
/// `stride` consecutive taps meets the contiguous pixels
/// `m * stride..(m + outputs) * stride` — its predecessor's, less the
/// `stride` pixels that one started on, plus the `stride` past its end.
/// The fewer than `stride` taps left over each stride the row alone.
pub(crate) fn zero_taps(row: &[Fix16], taps: usize, stride: usize, outputs: usize) -> u64 {
    let zeros = |pixels: &[Fix16]| pixels.iter().filter(|p| p.is_zero()).count() as u64;
    if outputs == 1 {
        // An FC row is its one window; taken a tap at a time below, a
        // zero-gated FC layer simulates 1.6x slower.
        return zeros(row);
    }
    let (runs, span) = (taps / stride, outputs * stride);
    let mut total = 0;
    if runs > 0 {
        let mut met = zeros(&row[..span]);
        total = met;
        for left in (0..runs - 1).map(|m| m * stride) {
            let entered = zeros(&row[left + span..][..stride]);
            met = met + entered - zeros(&row[left..][..stride]);
            total += met;
        }
    }
    (runs * stride..taps)
        .flat_map(|k| row[k..].iter().step_by(stride).take(outputs))
        .fold(total, |n, pixel| n + u64::from(pixel.is_zero()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_nn::synth;
    use eyeriss_nn::LayerShape;

    fn f(v: f32) -> Fix16 {
        Fix16::from_f32(v)
    }

    #[test]
    fn primitive_matches_direct_1d_conv() {
        let shape = LayerShape::conv(1, 1, 9, 3, 2).unwrap();
        let input = synth::ifmap(&shape, 1, 7);
        let weights = synth::filters(&shape, 8);
        let mut pe = Pe::new(64, 8);
        pe.load_filter_row(weights.row(0, 0, 0)).unwrap();
        let mut psums = vec![0i32; shape.e];
        pe.run_primitive(0, input.row(0, 0, 0), shape.u, true, &mut psums);
        for x in 0..shape.e {
            let mut acc = 0i32;
            for j in 0..3 {
                acc += input[(0, 0, 0, 2 * x + j)].wide_mul(weights[(0, 0, 0, j)]);
            }
            assert_eq!(psums[x], acc, "at {x}");
        }
    }

    #[test]
    fn zero_gating_preserves_results() {
        let mut gated = Pe::new(16, 8);
        gated.set_zero_gating(true);
        let mut plain = Pe::new(16, 8);
        let row = [f(1.0), f(-2.0), f(0.5)];
        gated.load_filter_row(&row).unwrap();
        plain.load_filter_row(&row).unwrap();
        let ifmap = [f(1.0), Fix16::ZERO, f(3.0), Fix16::ZERO, f(-1.0)];
        let mut a = vec![0i32; 3];
        let mut b = vec![0i32; 3];
        gated.run_primitive(0, &ifmap, 1, true, &mut a);
        plain.run_primitive(0, &ifmap, 1, true, &mut b);
        assert_eq!(a, b);
        assert!(gated.stats.skipped_macs > 0);
        assert_eq!(
            gated.stats.macs + gated.stats.skipped_macs,
            plain.stats.macs
        );
        // Gated MACs read neither the filter nor the psum.
        assert!(gated.stats.filter_reads < plain.stats.filter_reads);
    }

    #[test]
    fn filter_spad_capacity_enforced() {
        let mut pe = Pe::new(4, 8);
        assert!(pe.load_filter_row(&[Fix16::ZERO; 3]).is_ok());
        assert_eq!(pe.load_filter_row(&[Fix16::ZERO; 3]), Err(2));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let mut pe = Pe::new(4, 4);
        pe.set_zero_gating(true);
        pe.load_filter_row(&[Fix16::ONE; 3]).unwrap();
        pe.run_primitive(0, &[Fix16::ONE; 3], 0, true, &mut [0i32; 2]);
    }

    #[test]
    fn mac_counting_is_exact() {
        let mut pe = Pe::new(8, 8);
        pe.load_filter_row(&[f(1.0), f(1.0), f(1.0)]).unwrap();
        let ifmap = [f(1.0); 7];
        let mut psums = vec![0i32; 5];
        pe.run_primitive(0, &ifmap, 1, true, &mut psums);
        assert_eq!(pe.stats.macs, 15); // E=5 slides x R=3 taps
        assert_eq!(pe.stats.ifmap_reads, 15);
        assert_eq!(pe.stats.filter_reads, 15);
        assert_eq!(pe.stats.psum_reads, 15);
        assert_eq!(pe.stats.psum_writes, 15);
        assert_eq!(pe.stats.filter_writes, 3);
    }

    #[test]
    fn csc_primitive_matches_dense_bit_exactly() {
        for (stride, len, psum_len) in [(1usize, 7usize, 5usize), (2, 9, 4), (3, 9, 3)] {
            let mut dense = Pe::new(16, 16);
            let mut sparse = Pe::new(16, 16);
            let row: Vec<Fix16> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        Fix16::ZERO
                    } else {
                        f(i as f32 * 0.25 - 1.0)
                    }
                })
                .collect();
            let filt = [f(1.5), f(-0.5), f(2.0)];
            dense.load_filter_row(&filt).unwrap();
            sparse.load_filter_row(&filt).unwrap();
            let mut a = vec![0i32; psum_len];
            let mut b = vec![0i32; psum_len];
            dense.run_primitive(0, &row, stride, true, &mut a);
            let (mut vals, mut idxs) = (Vec::new(), Vec::new());
            crate::csc::encode_row_into(&row, &mut vals, &mut idxs);
            sparse.run_primitive_csc(0, &vals, &idxs, len, stride, true, &mut b);
            assert_eq!(a, b, "stride {stride}");
            // Work invariant: performed + skipped covers every dense tap.
            assert_eq!(
                sparse.stats.macs + sparse.stats.skipped_macs,
                dense.stats.macs,
                "stride {stride}"
            );
            assert!(sparse.stats.ifmap_reads < dense.stats.ifmap_reads);
        }
    }

    #[test]
    fn csc_all_zero_row_performs_no_macs() {
        let mut pe = Pe::new(8, 8);
        pe.load_filter_row(&[f(1.0); 3]).unwrap();
        let mut psums = vec![0i32; 3];
        pe.run_primitive_csc(0, &[], &[], 5, 1, true, &mut psums);
        assert_eq!(psums, vec![0; 3]);
        assert_eq!(pe.stats.macs, 0);
        assert_eq!(pe.stats.skipped_macs, 9);
        assert_eq!(pe.stats.ifmap_reads, 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_csc_primitive_is_bit_exact_at_any_sparsity(
            raw in proptest::collection::vec(-300i16..300, 1..64),
            stride in 1usize..4,
            r in 1usize..6,
            density in 0u8..5,
        ) {
            // Derive a geometrically valid primitive from the raw pool:
            // len = slides*stride + r, clamped to the data we drew.
            // density 0 zeroes every pixel (the all-zero edge); higher
            // values keep roughly 1/1 .. 1/4 of them.
            let max_slides = (raw.len().saturating_sub(r)) / stride;
            let psum_len = max_slides + 1;
            let len = max_slides * stride + r;
            proptest::prop_assume!(len <= raw.len());
            let row: Vec<Fix16> = raw[..len]
                .iter()
                .map(|&v| {
                    if density == 0 || v.rem_euclid(density as i16) != 0 {
                        Fix16::ZERO
                    } else {
                        Fix16::from_raw(v)
                    }
                })
                .collect();
            let filt: Vec<Fix16> = (0..r).map(|i| f(i as f32 * 0.5 - 1.0)).collect();

            let mut dense = Pe::new(r, psum_len);
            let mut gated = Pe::new(r, psum_len);
            gated.set_zero_gating(true);
            let mut sparse = Pe::new(r, psum_len);
            dense.load_filter_row(&filt).unwrap();
            gated.load_filter_row(&filt).unwrap();
            sparse.load_filter_row(&filt).unwrap();

            let mut a = vec![0i32; psum_len];
            let mut b = vec![0i32; psum_len];
            let mut c = vec![0i32; psum_len];
            dense.run_primitive(0, &row, stride, true, &mut a);
            gated.run_primitive(0, &row, stride, true, &mut b);
            let (mut vals, mut idxs) = (Vec::new(), Vec::new());
            crate::csc::encode_row_into(&row, &mut vals, &mut idxs);
            sparse.run_primitive_csc(0, &vals, &idxs, len, stride, true, &mut c);

            // Psums are bit-exact across all three datapaths.
            proptest::prop_assert_eq!(&a, &b);
            proptest::prop_assert_eq!(&a, &c);
            // CSC performs exactly the MACs the gated datapath performs
            // and accounts for every dense tap it skipped.
            proptest::prop_assert_eq!(sparse.stats.macs, gated.stats.macs);
            proptest::prop_assert_eq!(sparse.stats.skipped_macs, gated.stats.skipped_macs);
            proptest::prop_assert_eq!(
                sparse.stats.macs + sparse.stats.skipped_macs,
                dense.stats.macs
            );
            // CSC storage never inspects zeros: one read per nonzero.
            proptest::prop_assert_eq!(sparse.stats.ifmap_reads, vals.len() as u64);
        }
    }

    /// The zero-gated datapath as it ran before the shared kernel, one
    /// tap at a time: every tap inspects its pixel and a zero one gates
    /// the filter read, the multiply and the psum update. The oracle for
    /// the kernels' psums and for the closed-form counters.
    fn per_tap_gated(
        filter_row: &[Fix16],
        ifmap_row: &[Fix16],
        stride: usize,
        accumulate_locally: bool,
        psums: &mut [i32],
    ) -> PeStats {
        let mut stats = PeStats::default();
        for (x, psum) in psums.iter_mut().enumerate() {
            let window = &ifmap_row[x * stride..x * stride + filter_row.len()];
            for (w, i) in filter_row.iter().zip(window) {
                stats.ifmap_reads += 1;
                if i.is_zero() {
                    stats.skipped_macs += 1;
                    continue;
                }
                stats.filter_reads += 1;
                if accumulate_locally {
                    stats.psum_reads += 1;
                    stats.psum_writes += 1;
                }
                *psum = psum.wrapping_add(i.wide_mul(*w));
                stats.macs += 1;
            }
        }
        stats
    }

    /// `pool` as pixels, zeroed where `mask` (values 0..4) falls under the
    /// sparsity's threshold: 0 zeroes none, 1 half, 2 three quarters, 3
    /// every one.
    fn sparsify(pool: &[i16], mask: &[u8], sparsity: u8) -> Vec<Fix16> {
        let zeroed_below = [0u8, 2, 3, 4][sparsity as usize];
        pool.iter()
            .zip(mask)
            .map(|(&v, &m)| {
                if m < zeroed_below {
                    Fix16::ZERO
                } else {
                    Fix16::from_raw(v)
                }
            })
            .collect()
    }

    /// Longest row the kernel properties slide over: 40 outputs, stride
    /// 4, 12 taps.
    const POOL: usize = 39 * 4 + 12;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every (taps, stride) in 1..=12 x 1..=4 — the five unrolled
        /// kernels and 43 fallback geometries, all of them in every
        /// case — on full-range operands and accumulators: dense, gated
        /// and CSC psums equal the per-tap oracle's, and the gated
        /// path's closed-form counters equal its per-tap tally.
        #[test]
        fn prop_kernels_and_closed_form_counters_match_the_per_tap_oracle(
            pool in proptest::collection::vec(proptest::arbitrary::any::<i16>(), POOL..POOL + 1),
            mask in proptest::collection::vec(0u8..4, POOL..POOL + 1),
            weights in proptest::collection::vec(proptest::arbitrary::any::<i16>(), 12..13),
            carried in proptest::arbitrary::any::<i32>(),
            outputs in 1usize..=40,
            sparsity in 0u8..4,
            local in proptest::arbitrary::any::<bool>(),
        ) {
            let pixels = sparsify(&pool, &mask, sparsity);
            let weights: Vec<Fix16> = weights.into_iter().map(Fix16::from_raw).collect();
            // Psums arrive already carrying a (possibly full-scale) sum.
            let carried: Vec<i32> = (0..outputs as i32).map(|x| carried.wrapping_mul(x + 1)).collect();
            for taps in 1..=12usize {
                for stride in 1..=4usize {
                    let row = &pixels[..(outputs - 1) * stride + taps];
                    let filt = &weights[..taps];
                    let mut want = carried.clone();
                    let mut tally = per_tap_gated(filt, row, stride, local, &mut want);
                    tally.filter_writes = taps as u64;

                    let mut dense = Pe::new(taps, outputs);
                    let mut gated = Pe::new(taps, outputs);
                    gated.set_zero_gating(true);
                    let mut sparse = Pe::new(taps, outputs);
                    for pe in [&mut dense, &mut gated, &mut sparse] {
                        pe.load_filter_row(filt).unwrap();
                    }
                    let (mut a, mut b, mut c) = (carried.clone(), carried.clone(), carried.clone());
                    dense.run_primitive(0, row, stride, local, &mut a);
                    gated.run_primitive(0, row, stride, local, &mut b);
                    let (mut vals, mut idxs) = (Vec::new(), Vec::new());
                    crate::csc::encode_row_into(row, &mut vals, &mut idxs);
                    sparse.run_primitive_csc(0, &vals, &idxs, row.len(), stride, local, &mut c);

                    let at = format!("taps {taps} stride {stride} outputs {outputs}");
                    proptest::prop_assert_eq!(&a, &want, "dense psums, {}", at);
                    proptest::prop_assert_eq!(&b, &want, "gated psums, {}", at);
                    proptest::prop_assert_eq!(&c, &want, "CSC psums, {}", at);
                    proptest::prop_assert_eq!(gated.stats, tally, "gated counters, {}", at);
                    // Dense performs every tap; CSC performs the gated
                    // path's MACs but only ever reads nonzeros.
                    let ops = (outputs * taps) as u64;
                    let moved = if local { ops } else { 0 };
                    let every_tap = PeStats {
                        macs: ops,
                        skipped_macs: 0,
                        ifmap_reads: ops,
                        filter_reads: ops,
                        filter_writes: taps as u64,
                        psum_reads: moved,
                        psum_writes: moved,
                    };
                    proptest::prop_assert_eq!(dense.stats, every_tap, "dense counters, {}", at);
                    let nonzeros = PeStats { ifmap_reads: vals.len() as u64, ..tally };
                    proptest::prop_assert_eq!(sparse.stats, nonzeros, "CSC counters, {}", at);
                }
            }
        }

        /// A group of interleaved filter rows is one primitive per row:
        /// same psums, same counters — dense or gated.
        #[test]
        fn prop_group_equals_one_primitive_per_filter_row(
            pool in proptest::collection::vec(proptest::arbitrary::any::<i16>(), POOL..POOL + 1),
            mask in proptest::collection::vec(0u8..4, POOL..POOL + 1),
            weights in proptest::collection::vec(proptest::arbitrary::any::<i16>(), 72..73),
            outputs in 1usize..=40,
            taps in 1usize..=12,
            stride in 1usize..=4,
            filters in 1usize..=3,
            gating in proptest::arbitrary::any::<bool>(),
        ) {
            let pixels = sparsify(&pool, &mask, 1);
            let row = &pixels[..(outputs - 1) * stride + taps];
            // Two channels' rows per filter, as `run_pass` lays them out:
            // the group takes every other row.
            let spad: Vec<Fix16> = weights[..2 * filters * taps].iter().map(|&w| Fix16::from_raw(w)).collect();
            let mut grouped = Pe::new(spad.len(), outputs);
            grouped.set_zero_gating(gating);
            grouped.load_filter_row(&spad).unwrap();
            let mut single = grouped.clone();

            let mut strip = vec![0i32; filters * outputs];
            let (first, step) = (taps, 2 * taps);
            let rows = FilterRows { first, step, count: filters };
            grouped.run_group(rows, row, stride, true, &mut strip, outputs);
            let mut want = vec![0i32; filters * outputs];
            for (k, psums) in want.chunks_exact_mut(outputs).enumerate() {
                single.run_primitive(first + k * step, row, stride, true, psums);
            }
            proptest::prop_assert_eq!(&strip, &want);
            proptest::prop_assert_eq!(grouped.stats, single.stats);
        }
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = PeStats {
            macs: 1,
            skipped_macs: 2,
            ifmap_reads: 3,
            filter_reads: 4,
            filter_writes: 5,
            psum_reads: 6,
            psum_writes: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.macs, 2);
        assert_eq!(a.rf_reads(), 2 * (3 + 4 + 6));
        assert_eq!(a.rf_writes(), 2 * (5 + 7));
    }
}
