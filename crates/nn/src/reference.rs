//! Golden layer references: a direct implementation of Eq. (1).
//!
//! The simulator in `eyeriss-sim` must reproduce these outputs bit-exactly.
//! Accumulation happens at full Q16.16 precision in `i32` and the result is
//! quantized once per ofmap value, exactly as the simulator does.

use crate::fixed::Fix16;
use crate::shape::{LayerKind, LayerShape};
use crate::tensor::Tensor4;

/// Computes a CONV/FC layer per Eq. (1), returning full-precision psums.
///
/// * `input` — ifmaps `[N][G·C][H][H]` (already padded per Table II;
///   `G = 1` for dense layers)
/// * `weights` — filters `[M][C][R][R]` (`C` is per-group for grouped
///   layers; filter `f` reads channels `(f / (M/G))·C ..` of the ifmap)
/// * `bias` — one Q8.8 bias per ofmap channel (`M` entries)
///
/// The returned tensor is `[N][M][E][E]` of Q16.16 accumulators; use
/// [`quantize`] to obtain the Q8.8 ofmap.
///
/// # Panics
///
/// Panics if tensor dimensions disagree with `shape` or `bias.len() != M`.
///
/// # Example
///
/// ```
/// use eyeriss_nn::{reference, LayerShape, Fix16, Tensor4};
///
/// let shape = LayerShape::conv(1, 1, 3, 3, 1)?;
/// let input = Tensor4::from_fn([1, 1, 3, 3], |_, _, _, _| Fix16::ONE);
/// let weights = Tensor4::from_fn([1, 1, 3, 3], |_, _, _, _| Fix16::ONE);
/// let out = reference::conv_accumulate(&shape, 1, &input, &weights, &[Fix16::ZERO]);
/// // 9 x (1.0 * 1.0) = 9.0
/// assert_eq!(Fix16::from_accum(out[(0, 0, 0, 0)]).to_f32(), 9.0);
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub fn conv_accumulate(
    shape: &LayerShape,
    n: usize,
    input: &Tensor4<Fix16>,
    weights: &Tensor4<Fix16>,
    bias: &[Fix16],
) -> Tensor4<i32> {
    check_dims(shape, n, input, weights, bias);
    let (m, c, e, r, u) = (shape.m, shape.c, shape.e, shape.r, shape.u);
    let mpg = shape.filters_per_group();
    let mut out: Tensor4<i32> = Tensor4::zeros([n, m, e, e]);
    for z in 0..n {
        for f in 0..m {
            // Grouped conv: filter f reads its group's channel slice only.
            let c0 = (f / mpg) * c;
            let b = bias[f].to_accum();
            for x in 0..e {
                for y in 0..e {
                    let mut acc = b;
                    for k in 0..c {
                        for i in 0..r {
                            let irow = input.row(z, c0 + k, u * x + i);
                            let wrow = weights.row(f, k, i);
                            for j in 0..r {
                                acc = acc.wrapping_add(irow[u * y + j].wide_mul(wrow[j]));
                            }
                        }
                    }
                    out[(z, f, x, y)] = acc;
                }
            }
        }
    }
    out
}

/// Quantizes a Q16.16 psum tensor to the Q8.8 ofmap, optionally applying
/// the ReLU activation layer that follows every CONV/FC layer (§III-A).
pub fn quantize(psums: &Tensor4<i32>, relu: bool) -> Tensor4<Fix16> {
    let mut out = Tensor4::zeros(psums.dims());
    for (dst, &src) in out.as_mut_slice().iter_mut().zip(psums.iter()) {
        let q = Fix16::from_accum(src);
        *dst = if relu { q.relu() } else { q };
    }
    out
}

/// Convenience wrapper: convolution, quantization and ReLU in one call.
pub fn conv_forward(
    shape: &LayerShape,
    n: usize,
    input: &Tensor4<Fix16>,
    weights: &Tensor4<Fix16>,
    bias: &[Fix16],
) -> Tensor4<Fix16> {
    quantize(&conv_accumulate(shape, n, input, weights, bias), true)
}

/// Max-pooling layer: Eq. (1) with MAC swapped for MAX (Section V-D).
///
/// Operates per channel plane; `shape.kind` must be [`LayerKind::Pool`].
///
/// # Panics
///
/// Panics if `shape` is not a pooling shape or dimensions disagree.
pub fn max_pool(shape: &LayerShape, n: usize, input: &Tensor4<Fix16>) -> Tensor4<Fix16> {
    assert_eq!(shape.kind, LayerKind::Pool, "shape must be a POOL layer");
    let dims = input.dims();
    assert_eq!(dims, [n, shape.c, shape.h, shape.h], "ifmap dims mismatch");
    let (c, e, r, u) = (shape.c, shape.e, shape.r, shape.u);
    let mut out = Tensor4::zeros([n, c, e, e]);
    for z in 0..n {
        for k in 0..c {
            for x in 0..e {
                for y in 0..e {
                    let mut best = Fix16::MIN;
                    for i in 0..r {
                        for j in 0..r {
                            let v = input[(z, k, u * x + i, u * y + j)];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out[(z, k, x, y)] = best;
                }
            }
        }
    }
    out
}

/// Applies ReLU elementwise (the ACT layer of Section III-A).
pub fn relu(input: &Tensor4<Fix16>) -> Tensor4<Fix16> {
    let mut out = Tensor4::zeros(input.dims());
    for (dst, &src) in out.as_mut_slice().iter_mut().zip(input.iter()) {
        *dst = src.relu();
    }
    out
}

fn check_dims(
    shape: &LayerShape,
    n: usize,
    input: &Tensor4<Fix16>,
    weights: &Tensor4<Fix16>,
    bias: &[Fix16],
) {
    assert_eq!(
        input.dims(),
        [n, shape.in_channels(), shape.h, shape.h],
        "ifmap dims mismatch"
    );
    assert_eq!(
        weights.dims(),
        [shape.m, shape.c, shape.r, shape.r],
        "filter dims mismatch"
    );
    assert_eq!(bias.len(), shape.m, "bias length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn tiny_shape() -> LayerShape {
        LayerShape::conv(2, 2, 5, 3, 1).unwrap()
    }

    #[test]
    fn identity_filter_copies_input() {
        // A single 1x1 filter of value 1.0 must reproduce the input plane.
        let shape = LayerShape::conv(1, 1, 4, 1, 1).unwrap();
        let input = synth::ifmap(&shape, 1, 7);
        let weights = Tensor4::from_vec([1, 1, 1, 1], vec![Fix16::ONE]);
        let out = conv_accumulate(&shape, 1, &input, &weights, &[Fix16::ZERO]);
        for x in 0..4 {
            for y in 0..4 {
                assert_eq!(
                    Fix16::from_accum(out[(0, 0, x, y)]),
                    input[(0, 0, x, y)],
                    "at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn bias_offsets_every_output() {
        let shape = tiny_shape();
        let input = synth::ifmap(&shape, 1, 1);
        let weights = synth::filters(&shape, 2);
        let zero_b = conv_accumulate(&shape, 1, &input, &weights, &[Fix16::ZERO; 2]);
        let bias = [Fix16::ONE, Fix16::from_f32(-1.0)];
        let with_b = conv_accumulate(&shape, 1, &input, &weights, &bias);
        for f in 0..2 {
            for x in 0..shape.e {
                for y in 0..shape.e {
                    assert_eq!(
                        with_b[(0, f, x, y)] - zero_b[(0, f, x, y)],
                        bias[f].to_accum()
                    );
                }
            }
        }
    }

    #[test]
    fn stride_two_subsamples() {
        let shape = LayerShape::conv(1, 1, 5, 1, 2).unwrap();
        assert_eq!(shape.e, 3);
        let input = Tensor4::from_fn([1, 1, 5, 5], |_, _, h, w| Fix16::from((h * 5 + w) as i16));
        let weights = Tensor4::from_vec([1, 1, 1, 1], vec![Fix16::ONE]);
        let out = conv_forward(&shape, 1, &input, &weights, &[Fix16::ZERO]);
        assert_eq!(out[(0, 0, 1, 1)], input[(0, 0, 2, 2)]);
        assert_eq!(out[(0, 0, 2, 0)], input[(0, 0, 4, 0)]);
    }

    #[test]
    fn fc_layer_is_dot_product() {
        let shape = LayerShape::fully_connected(3, 2, 2).unwrap();
        let input = synth::ifmap(&shape, 1, 11);
        let weights = synth::filters(&shape, 12);
        let out = conv_accumulate(&shape, 1, &input, &weights, &[Fix16::ZERO; 3]);
        assert_eq!(out.dims(), [1, 3, 1, 1]);
        // Manual dot product for filter 0.
        let mut acc = 0i32;
        for k in 0..2 {
            for i in 0..2 {
                for j in 0..2 {
                    acc += input[(0, k, i, j)].wide_mul(weights[(0, k, i, j)]);
                }
            }
        }
        assert_eq!(out[(0, 0, 0, 0)], acc);
    }

    #[test]
    fn depthwise_matches_per_plane_conv() {
        let dw = LayerShape::depthwise(3, 7, 3, 2).unwrap();
        let input = synth::ifmap(&dw, 2, 21);
        let weights = synth::filters(&dw, 22);
        let bias = synth::biases(&dw, 23);
        let out = conv_accumulate(&dw, 2, &input, &weights, &bias);
        // Each plane independently equals a dense 1-channel convolution.
        let single = LayerShape::conv(1, 1, 7, 3, 2).unwrap();
        for k in 0..3 {
            let plane = Tensor4::from_fn([2, 1, 7, 7], |z, _, x, y| input[(z, k, x, y)]);
            let w = Tensor4::from_fn([1, 1, 3, 3], |_, _, i, j| weights[(k, 0, i, j)]);
            let solo = conv_accumulate(&single, 2, &plane, &w, &bias[k..k + 1]);
            for z in 0..2 {
                for x in 0..dw.e {
                    for y in 0..dw.e {
                        assert_eq!(out[(z, k, x, y)], solo[(z, 0, x, y)]);
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_conv_ignores_other_groups() {
        // Two groups: zeroing group 1's input channels must not change
        // group 0's outputs.
        let s = LayerShape::conv_grouped(4, 2, 6, 3, 1, 2).unwrap();
        let input = synth::ifmap(&s, 1, 31);
        let weights = synth::filters(&s, 32);
        let bias = synth::biases(&s, 33);
        let full = conv_accumulate(&s, 1, &input, &weights, &bias);
        let masked = Tensor4::from_fn([1, 4, 6, 6], |z, k, x, y| {
            if k >= 2 {
                Fix16::ZERO
            } else {
                input[(z, k, x, y)]
            }
        });
        let half = conv_accumulate(&s, 1, &masked, &weights, &bias);
        for f in 0..2 {
            for x in 0..s.e {
                for y in 0..s.e {
                    assert_eq!(full[(0, f, x, y)], half[(0, f, x, y)]);
                }
            }
        }
    }

    #[test]
    fn max_pool_finds_maximum() {
        let shape = LayerShape::pool(1, 4, 2, 2).unwrap();
        let input = Tensor4::from_fn([1, 1, 4, 4], |_, _, h, w| Fix16::from((h * 4 + w) as i16));
        let out = max_pool(&shape, 1, &input);
        assert_eq!(out.dims(), [1, 1, 2, 2]);
        assert_eq!(out[(0, 0, 0, 0)], input[(0, 0, 1, 1)]);
        assert_eq!(out[(0, 0, 1, 1)], input[(0, 0, 3, 3)]);
    }

    #[test]
    fn relu_zeroes_negatives_only() {
        let t = Tensor4::from_vec(
            [1, 1, 1, 3],
            vec![Fix16::from_f32(-2.0), Fix16::ZERO, Fix16::from_f32(2.0)],
        );
        let r = relu(&t);
        assert_eq!(r.as_slice()[0], Fix16::ZERO);
        assert_eq!(r.as_slice()[2], Fix16::from_f32(2.0));
    }

    #[test]
    #[should_panic(expected = "filter dims mismatch")]
    fn wrong_filter_dims_panic() {
        let shape = tiny_shape();
        let input = synth::ifmap(&shape, 1, 1);
        let weights: Tensor4<Fix16> = Tensor4::zeros([1, 2, 3, 3]);
        let _ = conv_accumulate(&shape, 1, &input, &weights, &[Fix16::ZERO; 2]);
    }
}
