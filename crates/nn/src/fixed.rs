//! 16-bit fixed-point arithmetic (Q8.8).
//!
//! The fabricated Eyeriss chip computes in 16-bit fixed point (Fig. 4 of the
//! paper). We model values as Q8.8: 1 sign + 7 integer bits + 8 fractional
//! bits. Multiplication of two Q8.8 values produces a Q16.16 value held in a
//! 32-bit accumulator; partial sums are accumulated in `i32` and quantized
//! back to Q8.8 with saturation when an ofmap value is finalized, mirroring
//! the chip's psum datapath.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits in the Q8.8 representation.
pub const FRAC_BITS: u32 = 8;

/// Scale factor between the integer representation and the real value.
pub const SCALE: f32 = (1 << FRAC_BITS) as f32;

/// A 16-bit fixed-point number in Q8.8 format.
///
/// All arithmetic saturates rather than wraps, matching hardware datapaths
/// that clamp on overflow.
///
/// # Example
///
/// ```
/// use eyeriss_nn::Fix16;
///
/// let a = Fix16::from_f32(1.5);
/// let b = Fix16::from_f32(-2.25);
/// assert_eq!((a * b).to_f32(), -3.375);
/// assert_eq!((a + b).to_f32(), -0.75);
/// ```
///
/// Laid out as its raw `i16`, so a slice of values is a slice of raw
/// words (the simulator's vector kernel reads two adjacent weights as one
/// 32-bit word).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Fix16(i16);

impl Fix16 {
    /// The additive identity.
    pub const ZERO: Fix16 = Fix16(0);
    /// The multiplicative identity (1.0 in Q8.8).
    pub const ONE: Fix16 = Fix16(1 << FRAC_BITS);
    /// Largest representable value (~127.996).
    pub const MAX: Fix16 = Fix16(i16::MAX);
    /// Smallest representable value (-128.0).
    pub const MIN: Fix16 = Fix16(i16::MIN);

    /// Creates a value from its raw Q8.8 bit pattern.
    ///
    /// # Example
    ///
    /// ```
    /// use eyeriss_nn::Fix16;
    /// assert_eq!(Fix16::from_raw(256), Fix16::ONE);
    /// ```
    #[inline]
    pub const fn from_raw(raw: i16) -> Self {
        Fix16(raw)
    }

    /// Returns the raw Q8.8 bit pattern.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating.
    ///
    /// # Example
    ///
    /// ```
    /// use eyeriss_nn::Fix16;
    /// assert_eq!(Fix16::from_f32(1e9), Fix16::MAX);
    /// assert_eq!(Fix16::from_f32(-1e9), Fix16::MIN);
    /// ```
    pub fn from_f32(v: f32) -> Self {
        let scaled = (v * SCALE).round();
        if scaled >= i16::MAX as f32 {
            Fix16::MAX
        } else if scaled <= i16::MIN as f32 {
            Fix16::MIN
        } else {
            Fix16(scaled as i16)
        }
    }

    /// Converts to `f32` exactly (every Q8.8 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE
    }

    /// Returns `true` if the value is exactly zero.
    ///
    /// Zero detection is what the Eyeriss chip uses for sparsity gating
    /// (Section V-E): MACs with a zero ifmap operand are skipped entirely.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Widening multiply: returns the full Q16.16 product as `i32`.
    ///
    /// This is the MAC input path: products are accumulated at full
    /// precision and only quantized when an ofmap pixel completes.
    #[inline]
    pub const fn wide_mul(self, rhs: Fix16) -> i32 {
        self.0 as i32 * rhs.0 as i32
    }

    /// Quantizes a Q16.16 accumulator back to Q8.8 with saturation.
    ///
    /// # Example
    ///
    /// ```
    /// use eyeriss_nn::Fix16;
    /// let acc = Fix16::from_f32(3.0).wide_mul(Fix16::from_f32(2.0));
    /// assert_eq!(Fix16::from_accum(acc).to_f32(), 6.0);
    /// ```
    pub fn from_accum(acc: i32) -> Self {
        let shifted = acc >> FRAC_BITS;
        if shifted > i16::MAX as i32 {
            Fix16::MAX
        } else if shifted < i16::MIN as i32 {
            Fix16::MIN
        } else {
            Fix16(shifted as i16)
        }
    }

    /// Widens the value into accumulator (Q16.16) domain.
    ///
    /// Used to add biases into the psum accumulation of Eq. (1).
    #[inline]
    pub const fn to_accum(self) -> i32 {
        (self.0 as i32) << FRAC_BITS
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Fix16) -> Fix16 {
        Fix16(self.0.saturating_add(rhs.0))
    }

    /// The rectified-linear activation of the value (ACT layer).
    ///
    /// # Example
    ///
    /// ```
    /// use eyeriss_nn::Fix16;
    /// assert_eq!(Fix16::from_f32(-1.0).relu(), Fix16::ZERO);
    /// assert_eq!(Fix16::from_f32(2.0).relu().to_f32(), 2.0);
    /// ```
    #[inline]
    pub fn relu(self) -> Fix16 {
        if self.0 < 0 {
            Fix16::ZERO
        } else {
            self
        }
    }
}

impl Add for Fix16 {
    type Output = Fix16;
    #[inline]
    fn add(self, rhs: Fix16) -> Fix16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Fix16 {
    type Output = Fix16;
    #[inline]
    fn sub(self, rhs: Fix16) -> Fix16 {
        Fix16(self.0.saturating_sub(rhs.0))
    }
}

impl Mul for Fix16 {
    type Output = Fix16;
    #[inline]
    fn mul(self, rhs: Fix16) -> Fix16 {
        Fix16::from_accum(self.wide_mul(rhs))
    }
}

impl Neg for Fix16 {
    type Output = Fix16;
    #[inline]
    fn neg(self) -> Fix16 {
        Fix16(self.0.saturating_neg())
    }
}

impl fmt::Display for Fix16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<i16> for Fix16 {
    /// Interprets the integer as a whole number (not a raw bit pattern),
    /// saturating at the Q8.8 range.
    fn from(v: i16) -> Self {
        if v >= 128 {
            Fix16::MAX
        } else if v < -128 {
            Fix16::MIN
        } else {
            Fix16(v << FRAC_BITS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_exact_values() {
        for raw in [-32768i16, -256, -1, 0, 1, 255, 256, 32767] {
            let v = Fix16::from_raw(raw);
            assert_eq!(Fix16::from_f32(v.to_f32()), v);
        }
    }

    #[test]
    fn one_times_one_is_one() {
        assert_eq!(Fix16::ONE * Fix16::ONE, Fix16::ONE);
    }

    #[test]
    fn add_saturates() {
        assert_eq!(Fix16::MAX + Fix16::ONE, Fix16::MAX);
        assert_eq!(Fix16::MIN + (-Fix16::ONE), Fix16::MIN);
    }

    #[test]
    fn from_accum_saturates() {
        assert_eq!(Fix16::from_accum(i32::MAX), Fix16::MAX);
        assert_eq!(Fix16::from_accum(i32::MIN), Fix16::MIN);
    }

    #[test]
    fn from_whole_integer() {
        assert_eq!(Fix16::from(2i16), Fix16::from_f32(2.0));
        assert_eq!(Fix16::from(127i16).to_f32(), 127.0);
        assert_eq!(Fix16::from(1000i16), Fix16::MAX);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Fix16::from_f32(-0.004).relu(), Fix16::ZERO);
        assert_eq!(Fix16::MAX.relu(), Fix16::MAX);
    }

    #[test]
    fn to_accum_then_from_accum_is_identity() {
        for raw in [-1000i16, -1, 0, 1, 1000] {
            let v = Fix16::from_raw(raw);
            assert_eq!(Fix16::from_accum(v.to_accum()), v);
        }
    }

    proptest! {
        #[test]
        fn prop_wide_mul_matches_float(a in -500i16..500, b in -500i16..500) {
            let fa = Fix16::from_raw(a);
            let fb = Fix16::from_raw(b);
            let exact = fa.to_f32() as f64 * fb.to_f32() as f64;
            let wide = fa.wide_mul(fb) as f64 / (SCALE as f64 * SCALE as f64);
            prop_assert!((exact - wide).abs() < 1e-9);
        }

        #[test]
        fn prop_add_commutative(a in any::<i16>(), b in any::<i16>()) {
            let fa = Fix16::from_raw(a);
            let fb = Fix16::from_raw(b);
            prop_assert_eq!(fa + fb, fb + fa);
        }

        #[test]
        fn prop_mul_commutative(a in any::<i16>(), b in any::<i16>()) {
            let fa = Fix16::from_raw(a);
            let fb = Fix16::from_raw(b);
            prop_assert_eq!(fa * fb, fb * fa);
        }

        #[test]
        fn prop_zero_is_absorbing(a in any::<i16>()) {
            let fa = Fix16::from_raw(a);
            prop_assert_eq!(fa * Fix16::ZERO, Fix16::ZERO);
            prop_assert_eq!(fa + Fix16::ZERO, fa);
        }
    }
}
