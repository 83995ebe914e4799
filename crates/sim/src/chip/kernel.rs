//! The layer kernel: one body, compiled twice.
//!
//! [`GroupSlice::convolve`] picks a copy once per layer. On an x86-64
//! host with AVX2 (`is_x86_feature_detected!`) it runs the copy built
//! with `#[target_feature(enable = "avx2")]`; anywhere else it runs the
//! portable copy, built for the workspace's baseline target. Everything
//! under the body — [`pe::slide_group`] with its unrolled `slide::<R, S>`
//! cases, the scalar fallback and the FC dot product — is inlined into
//! both, so the AVX2 copy vectorises with 32-bit multiplies that
//! baseline x86-64 lacks.
//!
//! The AVX2 copy also has a loop of its own for the stride-1 layers with
//! `R` = 1, 3 or 5 (see [`pair`]): `vpmaddwd` multiplies two 16-bit
//! operand pairs into one 32-bit lane, as a 2-MAC PE would. The portable
//! copy slides every geometry, as the chip's PEs do, and is the oracle
//! the AVX2 copy is checked against (`==`) in tests.

use super::GroupSlice;
use crate::pe::{self, FilterRows};
use crate::scratch::SimScratch;
use eyeriss_nn::{Fix16, LayerShape, Tensor4};

impl GroupSlice<'_> {
    /// The layer kernel: writes the group's psums into `out`, through
    /// the AVX2 copy of [`GroupSlice::convolve_with`] where the host has
    /// AVX2 and the portable copy elsewhere. Every add wraps, so both
    /// copies produce the same bits.
    pub(super) fn convolve(
        &self,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2, checked just above.
            return unsafe { self.convolve_avx2(input, weights, scratch, out) };
        }
        self.convolve_portable(input, weights, scratch, out);
    }

    /// [`GroupSlice::convolve_with`] built for the baseline target.
    pub(super) fn convolve_portable(
        &self,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        self.convolve_with::<false>(input, weights, scratch, out);
    }

    /// [`GroupSlice::convolve_with`] built with AVX2, pair-MAC loop on.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn convolve_avx2(
        &self,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        self.convolve_with::<true>(input, weights, scratch, out);
    }

    /// The kernel's one body. Per (image, ofmap row), each of the `R`
    /// ifmap rows of each channel slides under all `M` filters in one
    /// [`pe::slide_group`] call, into the `M x E` psum strip. An FC
    /// layer has one window per filter, so each filter is one dot
    /// product of the image's `C x R x R` words. With `AVX2`, a stride-1
    /// layer whose `R` the pair-MAC loop covers takes that loop instead.
    #[inline(always)]
    fn convolve_with<const AVX2: bool>(
        &self,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        let LayerShape { m, c, r, u, e, .. } = *self.shape;
        let filter_words = c * r * r;
        let w = weights.as_slice();
        let strip = &mut scratch.row_acc;
        if self.shape.is_fc_shaped() {
            strip.clear();
            strip.resize(m, 0);
            let rows = FilterRows {
                first: self.filt_base * filter_words,
                step: filter_words,
                count: m,
            };
            for z in 0..self.n_batch {
                let first = (z * input.dims()[1] + self.chan_base) * r * r;
                let image = &input.as_slice()[first..first + filter_words];
                strip.fill(0);
                pe::slide_group(w, rows, image, 1, strip, 1);
                for (f, &acc) in strip.iter().enumerate() {
                    out.row_mut(z, self.filt_base + f, 0)[0] = acc;
                }
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if AVX2 && pair::covers(self.shape) {
            // SAFETY: `AVX2` is set only by `convolve_avx2`, whose caller
            // checked the host for AVX2.
            return unsafe { pair::convolve(self, input, w, scratch, out) };
        }
        strip.clear();
        strip.resize(m * e, 0);
        for z in 0..self.n_batch {
            for y in 0..e {
                strip.fill(0);
                for ch in 0..c {
                    for i in 0..r {
                        let row = input.row(z, self.chan_base + ch, u * y + i);
                        let rows = FilterRows {
                            first: ((self.filt_base * c + ch) * r + i) * r,
                            step: filter_words,
                            count: m,
                        };
                        pe::slide_group(w, rows, row, u, strip, e);
                    }
                }
                for (f, acc) in strip.chunks_exact(e).enumerate() {
                    out.row_mut(z, self.filt_base + f, y).copy_from_slice(acc);
                }
            }
        }
    }
}

/// The stride-1 pair-MAC loop of the AVX2 copy.
///
/// Each 32-bit lane holds one output `x` and takes two MACs per
/// `vpmaddwd`: `psum[x] += a * w_a + b * w_b`, the pair summed first and
/// then added, all wrapping, so the bits equal one MAC at a time.
///
/// * `R` = 3 and 5 pair adjacent taps of one filter row: operands
///   `(row[x + k], row[x + k + 1])` against `(w[k], w[k + 1])`, the odd
///   last tap against `(w[R - 1], 0)`.
/// * `R` = 1 pairs adjacent channels: `(row_c[x], row_c+1[x])` against
///   `(w[c], w[c + 1])`, an odd last channel against `(w[C - 1], 0)`.
///
/// Either way a weight pair is two adjacent words of the weight tensor,
/// broadcast to every lane, and the operand pairs of 8 consecutive
/// outputs are 32 contiguous bytes of the band buffer
/// ([`SimScratch::pairs`]). A block of up to 4 filters by 2 vectors of
/// 8 outputs is held in registers, so each load feeds up to 4
/// accumulators and each weight broadcast 2.
#[cfg(target_arch = "x86_64")]
mod pair {
    use super::GroupSlice;
    use crate::scratch::SimScratch;
    use eyeriss_nn::{Fix16, LayerShape, Tensor4};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_srli_epi32, _mm256_storeu_si256,
    };

    /// Outputs per vector: 8 lanes of 32 bits.
    const LANES: usize = 8;

    /// Whether the pair-MAC loop computes `shape`: stride 1 and `R` of
    /// 3 or 5, or a 1x1 layer of at least 2 channels. Every other
    /// geometry slides.
    pub(super) fn covers(shape: &LayerShape) -> bool {
        shape.u == 1 && (matches!(shape.r, 3 | 5) || shape.r == 1 && shape.c >= 2)
    }

    /// Computes the group's psums for a layer [`covers`] accepts.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline(always)]
    pub(super) unsafe fn convolve(
        g: &GroupSlice,
        input: &Tensor4<Fix16>,
        w: &[Fix16],
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        match g.shape.r {
            1 => layer::<1>(g, input, w, scratch, out),
            3 => layer::<3>(g, input, w, scratch, out),
            5 => layer::<5>(g, input, w, scratch, out),
            r => unreachable!("no pair-MAC loop for R = {r}"),
        }
    }

    /// One layer, band by band. `R` > 1 keeps each channel's last `R`
    /// ifmap rows as operand-pair rows in a ring, row `h` in slot
    /// `h % R`, so a band converts only the row it adds; `R` = 1
    /// converts its band's `C` rows into `C / 2` rows of channel pairs.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline(always)]
    unsafe fn layer<const R: usize>(
        g: &GroupSlice,
        input: &Tensor4<Fix16>,
        w: &[Fix16],
        scratch: &mut SimScratch,
        out: &mut Tensor4<i32>,
    ) {
        let LayerShape { m, c, e, .. } = *g.shape;
        // A lone weight is read with the word before it, which a 1x1
        // filter of one channel does not have.
        assert!(R > 1 || c >= 2, "the 1x1 pair loop needs two channels");
        // Outputs per strip row, padded to whole vectors; the pads'
        // psums are computed and never copied out.
        let padded = e.div_ceil(LANES) * LANES;
        // Pairs per band-buffer row: the last vector of the last tap
        // pair reads `R - 1` pairs past the padded outputs.
        let len = padded + R - 1;
        let rows = if R == 1 { c.div_ceil(2) } else { c * R };
        let SimScratch { row_acc, pairs, .. } = scratch;
        row_acc.clear();
        row_acc.resize(m * padded, 0);
        // Grown to exactly what this layer needs, the old buffer freed
        // first: a scratch holds one band buffer, its largest layer's.
        pairs.clear();
        if pairs.capacity() < rows * len {
            pairs.shrink_to_fit();
            pairs.reserve_exact(rows * len);
        }
        pairs.resize(rows * len, [0; 2]);
        let band = Band {
            w,
            filter_words: c * R * R,
            filt_base: g.filt_base,
            c,
            rows,
            len,
            padded,
        };
        for z in 0..g.n_batch {
            let plane = |ch: usize, h: usize| input.row(z, g.chan_base + ch, h);
            for y in 0..e {
                if R == 1 {
                    for (cp, dst) in pairs.chunks_exact_mut(len).enumerate() {
                        let a = plane(2 * cp, y);
                        let b = (2 * cp + 1 < c).then(|| plane(2 * cp + 1, y));
                        for (x, pair) in dst[..e].iter_mut().enumerate() {
                            *pair = [a[x].raw(), b.map_or(0, |b| b[x].raw())];
                        }
                    }
                } else {
                    // The rows this band adds: all `R` in an image's
                    // first band, then its last one.
                    let fresh = if y == 0 { 0..R } else { R - 1..R };
                    for ch in 0..c {
                        for i in fresh.clone() {
                            let h = y + i;
                            let dst = &mut pairs[(ch * R + h % R) * len..][..len];
                            let row = plane(ch, h);
                            for (j, pair) in dst.iter_mut().enumerate() {
                                let at = |j: usize| row.get(j).map_or(0, |p| p.raw());
                                *pair = [at(j), at(j + 1)];
                            }
                        }
                    }
                }
                band.run::<R>(y, pairs, row_acc);
                for f in 0..m {
                    let acc = &row_acc[f * padded..][..e];
                    out.row_mut(z, g.filt_base + f, y).copy_from_slice(acc);
                }
            }
        }
    }

    /// What one band's loops read besides the band buffer.
    struct Band<'a> {
        /// The whole weight tensor.
        w: &'a [Fix16],
        /// Words per filter: `C x R x R`.
        filter_words: usize,
        /// The group's first filter.
        filt_base: usize,
        /// Channels of the group.
        c: usize,
        /// Rows of the band buffer.
        rows: usize,
        /// Pairs per band-buffer row.
        len: usize,
        /// Strip row length, a whole number of vectors.
        padded: usize,
    }

    impl Band<'_> {
        /// The band's `M x padded` psums into `strip`: blocks of 4
        /// filters, then 2, then 1, each over blocks of 2 vectors of
        /// outputs, then 1.
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        #[inline(always)]
        unsafe fn run<const R: usize>(&self, y: usize, pairs: &[[i16; 2]], strip: &mut [i32]) {
            let m = strip.len() / self.padded;
            let mut f = 0;
            while f + 4 <= m {
                self.filters::<R, 4>(y, f, pairs, strip);
                f += 4;
            }
            if f + 2 <= m {
                self.filters::<R, 2>(y, f, pairs, strip);
                f += 2;
            }
            if f < m {
                self.filters::<R, 1>(y, f, pairs, strip);
            }
        }

        /// Filters `f..f + FB` over every output.
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        #[inline(always)]
        unsafe fn filters<const R: usize, const FB: usize>(
            &self,
            y: usize,
            f: usize,
            pairs: &[[i16; 2]],
            strip: &mut [i32],
        ) {
            let vectors = self.padded / LANES;
            let mut v = 0;
            while v + 2 <= vectors {
                self.block::<R, FB, 2>(y, f, v * LANES, pairs, strip);
                v += 2;
            }
            if v < vectors {
                self.block::<R, FB, 1>(y, f, v * LANES, pairs, strip);
            }
        }

        /// Filters `f..f + FB` at outputs `x..x + XB * 8`, accumulated
        /// in registers over every pair of the band and stored once.
        ///
        /// # Safety
        ///
        /// The host must support AVX2. Every memory read is checked by
        /// the asserts at the top.
        #[inline(always)]
        unsafe fn block<const R: usize, const FB: usize, const XB: usize>(
            &self,
            y: usize,
            f: usize,
            x: usize,
            pairs: &[[i16; 2]],
            strip: &mut [i32],
        ) {
            // The reads below stay inside these bounds: a weight word and
            // its neighbour lie in one of the block's filters (a lone
            // word is at least the second of its filter), and an operand
            // row is below `rows`, read from at most `x + R - 1` for
            // `XB * 8` pairs, which ends inside its `len`.
            let first = (self.filt_base + f) * self.filter_words;
            assert!(first + FB * self.filter_words <= self.w.len());
            assert!(x + XB * LANES <= self.padded && self.rows * self.len <= pairs.len());
            let w = self.w.as_ptr().add(first);
            let ops = pairs.as_ptr();
            let mut acc = [[_mm256_setzero_si256(); XB]; FB];
            let mut mac = |row: usize, at: usize, word: usize, lone: bool| {
                let src = ops.add(row * self.len + at);
                let v: [__m256i; XB] =
                    std::array::from_fn(|v| _mm256_loadu_si256(src.add(v * LANES).cast()));
                for (k, acc) in acc.iter_mut().enumerate() {
                    let wp = weight_pair(w.add(k * self.filter_words + word), lone);
                    for (acc, &v) in acc.iter_mut().zip(&v) {
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(v, wp));
                    }
                }
            };
            if R == 1 {
                for cp in 0..self.c.div_ceil(2) {
                    mac(cp, x, 2 * cp, 2 * cp + 1 == self.c);
                }
            } else {
                for ch in 0..self.c {
                    for i in 0..R {
                        let row = ch * R + (y + i) % R;
                        for k in (0..R).step_by(2) {
                            mac(row, x + k, (ch * R + i) * R + k, k + 1 == R);
                        }
                    }
                }
            }
            for (k, acc) in acc.iter().enumerate() {
                let dst = &mut strip[(f + k) * self.padded + x..][..XB * LANES];
                for (v, acc) in acc.iter().enumerate() {
                    _mm256_storeu_si256(dst[v * LANES..].as_mut_ptr().cast(), *acc);
                }
            }
        }
    }

    /// The weight pair `(w[0], w[1])` broadcast to every lane, or
    /// `(w[0], 0)` when `lone`: then read as `(w[-1], w[0])` and shifted
    /// down, so it never reads past the filter.
    ///
    /// # Safety
    ///
    /// `w[0]` and `w[1]` (`w[-1]` and `w[0]` when `lone`) must be
    /// readable. Two adjacent [`Fix16`]s are one unaligned 32-bit word,
    /// the first in its low half (`Fix16` is a transparent `i16`, and
    /// x86 is little-endian).
    #[inline(always)]
    unsafe fn weight_pair(w: *const Fix16, lone: bool) -> __m256i {
        if lone {
            let pair = w.sub(1).cast::<i32>().read_unaligned();
            _mm256_srli_epi32::<16>(_mm256_set1_epi32(pair))
        } else {
            _mm256_set1_epi32(w.cast::<i32>().read_unaligned())
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use eyeriss_nn::reference;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Whether the host can run the AVX2 copy; says once that the
    /// comparisons are skipped when it cannot.
    fn host_has_avx2() -> bool {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        if !avx2 {
            NOTE.call_once(|| {
                eprintln!("host has no AVX2: AVX2-vs-portable kernel checks skipped")
            });
        }
        avx2
    }

    /// Seeded words, a quarter of them `i16::MIN` and a quarter
    /// `i16::MAX` when `extremes`: a pair of `MIN x MIN` products sums
    /// to 2^31, the one pair sum that wraps.
    fn words(dims: [usize; 4], seed: u64, extremes: bool) -> Tensor4<Fix16> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Tensor4::from_fn(dims, |_, _, _, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let raw = match state % 4 {
                0 if extremes => i16::MIN,
                1 if extremes => i16::MAX,
                _ => (state >> 16) as i16,
            };
            Fix16::from_raw(raw)
        })
    }

    /// One layer's psums through the AVX2 or the portable copy, group by
    /// group as `run_conv` drives them.
    fn psums(
        shape: &LayerShape,
        n: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        avx2: bool,
    ) -> Tensor4<i32> {
        let per_group = shape.per_group();
        let mut out = Tensor4::zeros([n, shape.m, shape.e, shape.e]);
        let mut scratch = SimScratch::new();
        for g in 0..shape.groups {
            let group = GroupSlice {
                shape: &per_group,
                n_batch: n,
                chan_base: g * per_group.c,
                filt_base: g * per_group.m,
            };
            if avx2 {
                // SAFETY: every caller checks `host_has_avx2` first.
                unsafe { group.convolve_avx2(input, weights, &mut scratch, &mut out) };
            } else {
                group.convolve_portable(input, weights, &mut scratch, &mut out);
            }
        }
        out
    }

    /// Checks the two copies against each other and the golden model.
    fn check(shape: &LayerShape, n: usize, seed: u64, extremes: bool) -> Result<(), TestCaseError> {
        let input = words([n, shape.in_channels(), shape.h, shape.h], seed, extremes);
        let weights = words(
            [shape.m, shape.c, shape.r, shape.r],
            seed ^ 0xf11e,
            extremes,
        );
        let portable = psums(shape, n, &input, &weights, false);
        let golden =
            reference::conv_accumulate(shape, n, &input, &weights, &vec![Fix16::ZERO; shape.m]);
        prop_assert_eq!(&portable, &golden, "portable copy diverged on {:?}", shape);
        let avx2 = psums(shape, n, &input, &weights, true);
        prop_assert_eq!(&avx2, &portable, "AVX2 copy diverged on {:?}", shape);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The AVX2 copy equals the portable copy bit for bit over
        /// random layers: every `R` from 1 to 6 at strides 1 to 3 (the
        /// pair-MAC geometries, the unrolled slides and the scalar
        /// fallback), odd and even channel and filter counts, grouped
        /// layers, FC shapes, and operands at `i16::MIN` / `i16::MAX`.
        #[test]
        fn prop_avx2_copy_equals_the_portable_copy(
            dims in (1usize..=9, 1usize..=7, 1usize..=6, 1usize..=3, 1usize..=19),
            n in 1usize..=2,
            kind in 0u8..3,
            seed in any::<u64>(),
            extremes in any::<bool>(),
        ) {
            if !host_has_avx2() {
                return Ok(());
            }
            let (m, c, r, u, e) = dims;
            let h = (e - 1) * u + r;
            let shape = match kind {
                0 => LayerShape::conv(m, c, h, r, u),
                1 => LayerShape::depthwise(c, h, r, u),
                _ => LayerShape::fully_connected(m, c, r),
            }
            .unwrap();
            check(&shape, n, seed, extremes)?;
        }
    }

    /// Every covered geometry with every operand at `i16::MIN`: each
    /// `vpmaddwd` pair sums to 2^31 and wraps, as two wrapping MACs do.
    #[test]
    fn pair_sums_wrap_like_single_macs() {
        if !host_has_avx2() {
            return;
        }
        for (m, c, r, e) in [
            (5, 3, 1, 9),
            (4, 2, 1, 17),
            (6, 3, 3, 13),
            (3, 2, 5, 11),
            (1, 1, 3, 8),
        ] {
            let shape = LayerShape::conv(m, c, e - 1 + r, r, 1).unwrap();
            let min = |dims| Tensor4::from_fn(dims, |_, _, _, _| Fix16::MIN);
            let input = min([1, c, shape.h, shape.h]);
            let weights = min([m, c, r, r]);
            let avx2 = psums(&shape, 1, &input, &weights, true);
            assert_eq!(avx2, psums(&shape, 1, &input, &weights, false), "{shape:?}");
            // `C R R` products of 2^30 each, summed mod 2^32.
            let expect = ((c * r * r) as u32).wrapping_mul(1 << 30) as i32;
            assert!(avx2.as_slice().iter().all(|&p| p == expect), "{shape:?}");
        }
    }
}
