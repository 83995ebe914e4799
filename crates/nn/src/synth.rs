//! Deterministic synthetic tensor generation.
//!
//! The paper's energy results depend only on layer *shapes* (all R/W counts
//! are exact functions of Table II), so trained AlexNet weights are not
//! required. For functional verification of the simulator any values work;
//! we generate small, seeded, reproducible fixed-point values. Sparsity can
//! be injected to exercise the chip's zero-gating/RLC path (Section V-E) —
//! ReLU layers make real activation maps highly sparse.

use crate::fixed::Fix16;
use crate::shape::LayerShape;
use crate::tensor::Tensor4;

/// Raw magnitude bound for generated values (~±0.5 in Q8.8), chosen so
/// AlexNet-sized accumulations stay far from `i32` overflow.
const RAW_BOUND: i16 = 128;

/// SplitMix64 (Steele, Lea and Flood, 2014): a tiny, well-mixed seeded
/// generator with the two draws synthesis needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `p`: 53 uniform bits as a fraction of one.
    fn gen_bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// A uniform raw value in `-RAW_BOUND..=RAW_BOUND`: the high word of a
    /// widening multiply, rejecting the draws that would bias it.
    fn raw_value(&mut self) -> Fix16 {
        let span = 2 * RAW_BOUND as u64 + 1;
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if wide as u64 >= threshold {
                return Fix16::from_raw((wide >> 64) as i16 - RAW_BOUND);
            }
        }
    }
}

fn gen_tensor(dims: [usize; 4], seed: u64, sparsity: f64) -> Tensor4<Fix16> {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity {sparsity} outside [0, 1]"
    );
    let mut rng = SplitMix64(seed);
    let len: usize = dims.iter().product();
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        if sparsity > 0.0 && rng.gen_bool(sparsity) {
            data.push(Fix16::ZERO);
        } else {
            data.push(rng.raw_value());
        }
    }
    Tensor4::from_vec(dims, data)
}

/// Generates a dense ifmap batch `[n][G·C][H][H]` for `shape` (all groups
/// of a grouped layer; `G = 1` for dense layers).
///
/// # Example
///
/// ```
/// use eyeriss_nn::{synth, LayerShape};
/// let s = LayerShape::conv(4, 3, 9, 3, 1)?;
/// let a = synth::ifmap(&s, 2, 42);
/// let b = synth::ifmap(&s, 2, 42);
/// assert_eq!(a, b); // seeded => reproducible
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub fn ifmap(shape: &LayerShape, n: usize, seed: u64) -> Tensor4<Fix16> {
    gen_tensor([n, shape.in_channels(), shape.h, shape.h], seed, 0.0)
}

/// Generates an ifmap batch where roughly `sparsity` of values are zero,
/// mimicking post-ReLU activation sparsity.
pub fn sparse_ifmap(shape: &LayerShape, n: usize, seed: u64, sparsity: f64) -> Tensor4<Fix16> {
    gen_tensor([n, shape.in_channels(), shape.h, shape.h], seed, sparsity)
}

/// Generates a filter bank `[M][C][R][R]` for `shape`.
pub fn filters(shape: &LayerShape, seed: u64) -> Tensor4<Fix16> {
    gen_tensor([shape.m, shape.c, shape.r, shape.r], seed, 0.0)
}

/// Generates one bias per ofmap channel.
pub fn biases(shape: &LayerShape, seed: u64) -> Vec<Fix16> {
    let mut rng = SplitMix64(seed ^ 0x00b1_a5e5);
    (0..shape.m).map(|_| rng.raw_value()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> LayerShape {
        LayerShape::conv(4, 3, 11, 3, 2).unwrap()
    }

    #[test]
    fn seeds_are_deterministic() {
        let s = shape();
        assert_eq!(ifmap(&s, 2, 1), ifmap(&s, 2, 1));
        assert_eq!(filters(&s, 2), filters(&s, 2));
        assert_eq!(biases(&s, 3), biases(&s, 3));
    }

    #[test]
    fn different_seeds_differ() {
        let s = shape();
        assert_ne!(ifmap(&s, 1, 1), ifmap(&s, 1, 2));
    }

    #[test]
    fn sparsity_injects_zeros() {
        let s = shape();
        let t = sparse_ifmap(&s, 1, 9, 0.7);
        let zeros = t.iter().filter(|v| v.is_zero()).count();
        let frac = zeros as f64 / t.len() as f64;
        assert!((0.55..0.85).contains(&frac), "zero fraction {frac}");
    }

    #[test]
    fn dense_has_few_zeros() {
        let s = shape();
        let t = ifmap(&s, 1, 9);
        let zeros = t.iter().filter(|v| v.is_zero()).count();
        // 1/257 chance per element; allow generous slack.
        assert!(zeros < t.len() / 20);
    }

    /// FNV-1a over the raw 16-bit values, in storage order.
    fn fingerprint<'a>(values: impl IntoIterator<Item = &'a Fix16>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ u64::from(v.raw() as u16)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The generated values themselves, pinned: every test, example and
    /// benchmark golden downstream is computed from these tensors, so a
    /// change to the generator fails here first.
    #[test]
    fn seeded_tensors_are_pinned() {
        let s = shape();
        let fc = LayerShape::fully_connected(10, 6, 4).unwrap();
        for (name, t, want) in [
            ("ifmap", ifmap(&s, 2, 1), 0x909798f35bea0570),
            ("sparse", sparse_ifmap(&s, 1, 9, 0.7), 0x635e409d32e9127f),
            (
                "sparse_fc",
                sparse_ifmap(&fc, 3, 21, 0.5),
                0xeb1af4c1dfefd074,
            ),
            ("filters", filters(&s, 2), 0x12c7d6d90d853272),
            ("fc_filters", filters(&fc, 12), 0x433021f44b388af0),
        ] {
            assert_eq!(fingerprint(t.iter()), want, "{name}");
        }
        let head: Vec<i16> = ifmap(&s, 2, 1).iter().take(6).map(|v| v.raw()).collect();
        assert_eq!(head, [17, 63, 121, -14, -14, 68]);
        let raw = |b: Vec<Fix16>| b.iter().map(|v| v.raw()).collect::<Vec<_>>();
        assert_eq!(raw(biases(&s, 3)), [113, -67, 126, 44]);
        assert_eq!(
            raw(biases(&fc, 13)),
            [96, -20, -86, 95, -18, -103, 60, 128, 84, -11]
        );
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn sparsity_out_of_range_panics() {
        let s = shape();
        let _ = sparse_ifmap(&s, 1, 0, 1.5);
    }
}
