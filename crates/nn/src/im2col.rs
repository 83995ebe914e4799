//! Independent im2col + GEMM convolution, used to cross-check the golden
//! direct convolution in [`crate::reference`].
//!
//! This is also the computation model of the MOC-MOP OS dataflow variant in
//! \[20\] that "simply treats the convolutions as a matrix multiplication"
//! (Section IV-B), so having it around documents what that baseline computes.

use crate::fixed::Fix16;
use crate::shape::LayerShape;
use crate::tensor::Tensor4;

/// A dense row-major matrix of Q8.8 values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<Fix16>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Fix16::ZERO; rows * cols],
        }
    }

    /// Reads element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Fix16 {
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Fix16) {
        self.data[r * self.cols + c] = v;
    }
}

/// Lowers one image of the ifmap into the im2col matrix.
///
/// The result has `C·R²` rows and `E²` columns; column `(x·E + y)` holds the
/// receptive field of ofmap position `(x, y)`.
pub fn im2col(shape: &LayerShape, input: &Tensor4<Fix16>, image: usize) -> Matrix {
    let (c, e, r, u) = (shape.c, shape.e, shape.r, shape.u);
    let mut m = Matrix::zeros(c * r * r, e * e);
    for k in 0..c {
        for i in 0..r {
            for j in 0..r {
                let row = (k * r + i) * r + j;
                for x in 0..e {
                    for y in 0..e {
                        m.set(row, x * e + y, input[(image, k, u * x + i, u * y + j)]);
                    }
                }
            }
        }
    }
    m
}

/// Flattens the filter bank into an `M x C·R²` matrix.
pub fn filters_as_matrix(shape: &LayerShape, weights: &Tensor4<Fix16>) -> Matrix {
    let (m, c, r) = (shape.m, shape.c, shape.r);
    let mut out = Matrix::zeros(m, c * r * r);
    for f in 0..m {
        for k in 0..c {
            for i in 0..r {
                for j in 0..r {
                    out.set(f, (k * r + i) * r + j, weights[(f, k, i, j)]);
                }
            }
        }
    }
    out
}

/// Full-precision GEMM: returns `a x b` as Q16.16 accumulators.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_accumulate(a: &Matrix, b: &Matrix) -> Vec<i32> {
    assert_eq!(a.cols, b.rows, "inner dimensions disagree");
    let mut out = vec![0i32; a.rows * b.cols];
    for i in 0..a.rows {
        for k in 0..a.cols {
            let av = a.get(i, k);
            if av.is_zero() {
                continue;
            }
            for j in 0..b.cols {
                let o = &mut out[i * b.cols + j];
                *o = o.wrapping_add(av.wide_mul(b.get(k, j)));
            }
        }
    }
    out
}

/// Convolution by lowering: im2col per image, then GEMM.
///
/// Produces the identical Q16.16 psums as [`crate::reference::conv_accumulate`];
/// the equivalence is enforced by property tests.
pub fn conv_accumulate(
    shape: &LayerShape,
    n: usize,
    input: &Tensor4<Fix16>,
    weights: &Tensor4<Fix16>,
    bias: &[Fix16],
) -> Tensor4<i32> {
    let (m, e) = (shape.m, shape.e);
    let wmat = filters_as_matrix(shape, weights);
    let mut out: Tensor4<i32> = Tensor4::zeros([n, m, e, e]);
    for z in 0..n {
        let cols = im2col(shape, input, z);
        let prod = matmul_accumulate(&wmat, &cols);
        for f in 0..m {
            let b = bias[f].to_accum();
            for x in 0..e {
                for y in 0..e {
                    out[(z, f, x, y)] = prod[f * e * e + x * e + y].wrapping_add(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, synth};
    use proptest::prelude::*;

    #[test]
    fn im2col_matches_direct_on_alexnet_like_shape() {
        let shape = LayerShape::conv(4, 3, 15, 3, 1).unwrap();
        let input = synth::ifmap(&shape, 2, 5);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let direct = reference::conv_accumulate(&shape, 2, &input, &weights, &bias);
        let lowered = conv_accumulate(&shape, 2, &input, &weights, &bias);
        assert_eq!(direct, lowered);
    }

    #[test]
    fn im2col_matrix_dims() {
        let shape = LayerShape::conv(2, 3, 7, 3, 2).unwrap();
        let input = synth::ifmap(&shape, 1, 0);
        let m = im2col(&shape, &input, 0);
        assert_eq!(m.rows, 3 * 9);
        assert_eq!(m.cols, shape.e * shape.e);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul_accumulate(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_lowered_equals_direct(
            m in 1usize..4, c in 1usize..4, extra in 0usize..6,
            r in 1usize..4, u in 1usize..3, n in 1usize..3,
            seed in 0u64..1000,
        ) {
            let h = r + extra * u;
            let shape = LayerShape::conv(m, c, h, r, u).unwrap();
            let input = synth::ifmap(&shape, n, seed);
            let weights = synth::filters(&shape, seed + 1);
            let bias = synth::biases(&shape, seed + 2);
            let direct = reference::conv_accumulate(&shape, n, &input, &weights, &bias);
            let lowered = conv_accumulate(&shape, n, &input, &weights, &bias);
            prop_assert_eq!(direct, lowered);
        }
    }
}
