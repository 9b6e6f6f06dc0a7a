//! Bit-level IEEE 754 binary16.
//!
//! The BBAL paper defines BFP/BBFP conversion directly on "FP16 with an
//! 11-bit mantissa and implicit leading one" (Eq. 4), so the block encoders
//! in this crate operate on the exact binary16 bit pattern rather than on
//! `f32` approximations. [`Fp16`] stores the raw 16 bits and exposes the
//! `(significand, exponent)` pair that block alignment consumes.

use std::fmt;

/// Number of explicit fraction bits in binary16.
pub const FRACTION_BITS: u32 = 10;
/// Number of exponent bits in binary16 (also the shared-exponent width the
/// paper fixes for all BBFP configurations).
pub const EXPONENT_BITS: u32 = 5;
/// Exponent bias of binary16.
pub const EXPONENT_BIAS: i32 = 15;
/// Width of the significand including the implicit leading one.
pub const SIGNIFICAND_BITS: u32 = FRACTION_BITS + 1;

const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;
const SIGN_MASK: u16 = 0x8000;

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// Equality and hashing are **bitwise**: `-0.0 != +0.0` numerically compares
/// equal in IEEE arithmetic but the two `Fp16` values are distinct, and two
/// NaNs with the same payload compare equal. This is the appropriate
/// semantics for a type whose purpose is to feed bit-exact hardware models.
///
/// # Examples
///
/// ```
/// use bbal_core::Fp16;
///
/// let x = Fp16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// let (m, e) = x.significand();
/// // 1.5 = 0b110_0000_0000 x 2^(15-15-10)
/// assert_eq!(m, 0b110_0000_0000);
/// assert_eq!(e, 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp16(u16);

impl Fp16 {
    /// Positive zero.
    pub const ZERO: Fp16 = Fp16(0);
    /// One.
    pub const ONE: Fp16 = Fp16(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: Fp16 = Fp16(0x7BFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: Fp16 = Fp16(0x0400);
    /// Positive infinity.
    pub const INFINITY: Fp16 = Fp16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Fp16 = Fp16(0xFC00);
    /// A quiet NaN.
    pub const NAN: Fp16 = Fp16(0x7E00);

    /// Builds a value from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Fp16 {
        Fp16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, overflowing to
    /// infinity exactly as IEEE narrowing conversion does.
    pub fn from_f32(value: f32) -> Fp16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if frac == 0 {
                Fp16(sign | EXP_MASK)
            } else {
                // Preserve a NaN, force quiet bit.
                Fp16(sign | EXP_MASK | 0x0200 | ((frac >> 13) as u16 & FRAC_MASK))
            };
        }

        // Full significand with implicit bit (zero/subnormal f32 handled
        // naturally: exp 0 means no implicit bit, value is tiny and will
        // flush below).
        let sig = if exp == 0 { frac } else { frac | 0x80_0000 };
        let unbiased = if exp == 0 { -126 } else { exp - 127 };
        // value = sig * 2^(unbiased - 23)
        let target = unbiased + EXPONENT_BIAS; // prospective biased f16 exponent

        if target >= 31 {
            return Fp16(sign | EXP_MASK); // overflow -> inf
        }
        if target <= 0 {
            // Subnormal (or zero) result: shift significand so weight matches
            // 2^(1 - 15 - 10).
            let shift = (13 + 1 - target) as u32;
            if shift >= 64 {
                return Fp16(sign);
            }
            let q = round_ne_u64(sig as u64, shift);
            // q may round up into the normal range (q == 1<<10): the bit
            // pattern arithmetic handles that transparently because
            // subnormal-max + 1 is normal-min.
            return Fp16(sign | (q as u16));
        }

        // Normal result: keep top 11 of 24 significand bits.
        let q = round_ne_u64(sig as u64, 13);
        // q in [1<<10, 1<<11]; q == 1<<11 means mantissa carried out.
        let (q, target) = if q == (1 << 11) {
            (1 << 10, target + 1)
        } else {
            (q, target)
        };
        if target >= 31 {
            return Fp16(sign | EXP_MASK);
        }
        Fp16(sign | ((target as u16) << FRACTION_BITS) | (q as u16 & FRAC_MASK))
    }

    /// Converts from `f32` but saturates overflow to the largest finite
    /// value instead of producing infinity.
    ///
    /// Block quantisers reject non-finite inputs, so pipelines that may
    /// produce values beyond ±65504 should narrow through this method.
    pub fn from_f32_saturating(value: f32) -> Fp16 {
        if value.is_nan() {
            return Fp16::NAN;
        }
        let v = Fp16::from_f32(value);
        if v.is_infinite() {
            if v.is_sign_negative() {
                Fp16(Fp16::MAX.0 | SIGN_MASK)
            } else {
                Fp16::MAX
            }
        } else {
            v
        }
    }

    /// Widens to `f32` (always exact).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & SIGN_MASK) as u32) << 16;
        let exp = ((self.0 & EXP_MASK) >> FRACTION_BITS) as u32;
        let frac = (self.0 & FRAC_MASK) as u32;
        let bits = if exp == 0 {
            if frac == 0 {
                sign
            } else {
                // Subnormal: renormalise. frac = 2^p + r with MSB at p, so
                // the value frac * 2^-24 becomes 1.r * 2^(p-24).
                let p = 31 - frac.leading_zeros();
                let exp32 = 127 + p - 24;
                let frac32 = (frac ^ (1 << p)) << (23 - p);
                sign | (exp32 << 23) | frac32
            }
        } else if exp == 31 {
            if frac == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (frac << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// True if the sign bit is set.
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    /// True for ±∞.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.0 & 0x7FFF == EXP_MASK
    }

    /// True for NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// True for zero, subnormal or normal values.
    #[inline]
    pub const fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Raw 5-bit biased exponent field.
    #[inline]
    pub const fn biased_exponent(self) -> u8 {
        ((self.0 & EXP_MASK) >> FRACTION_BITS) as u8
    }

    /// Raw 10-bit fraction field.
    #[inline]
    pub const fn fraction(self) -> u16 {
        self.0 & FRAC_MASK
    }

    /// The `(M, E)` pair used by block alignment: the value equals
    /// `±M × 2^(E − 25)` with `M < 2^11`.
    ///
    /// Normal numbers return the 11-bit significand (implicit one made
    /// explicit) and the raw biased exponent; subnormals return the bare
    /// fraction with `E = 1`, which keeps the identity exact. Zero returns
    /// `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if called on NaN or infinity; the block
    /// encoders narrow every input to a finite value first.
    #[inline]
    pub fn significand(self) -> (u16, i32) {
        debug_assert!(self.is_finite(), "significand() requires a finite value");
        let e = self.biased_exponent();
        if e == 0 {
            (self.fraction(), 1)
        } else {
            (self.fraction() | (1 << FRACTION_BITS), e as i32)
        }
    }
}

impl Fp16 {
    /// Correctly rounded FP16 addition (round-to-nearest-even).
    ///
    /// Computed exactly in `f64` (whose 53-bit significand holds any sum
    /// of two binary16 values exactly) and rounded once — bit-identical
    /// to a hardware FP16 adder.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Fp16) -> Fp16 {
        Fp16::from_f32(((self.to_f32() as f64) + (rhs.to_f32() as f64)) as f32)
    }

    /// Correctly rounded FP16 multiplication.
    ///
    /// The 22-bit exact product fits `f32`'s significand, so one `f32`
    /// rounding plus the narrowing rounding is the hardware behaviour.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Fp16) -> Fp16 {
        Fp16::from_f32(((self.to_f32() as f64) * (rhs.to_f32() as f64)) as f32)
    }

    /// Correctly rounded FP16 division.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Fp16) -> Fp16 {
        Fp16::from_f32(((self.to_f32() as f64) / (rhs.to_f32() as f64)) as f32)
    }

    /// Negation (sign-bit flip; exact).
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Fp16 {
        Fp16(self.0 ^ SIGN_MASK)
    }
}

#[inline]
fn round_ne_u64(value: u64, shift: u32) -> u64 {
    crate::rounding::RoundingMode::NearestEven.shift_right(value, shift)
}

impl From<Fp16> for f32 {
    fn from(v: Fp16) -> f32 {
        v.to_f32()
    }
}

impl fmt::Display for Fp16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl fmt::LowerHex for Fp16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Fp16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants_round_trip() {
        assert_eq!(Fp16::ONE.to_f32(), 1.0);
        assert_eq!(Fp16::ZERO.to_f32(), 0.0);
        assert_eq!(Fp16::MAX.to_f32(), 65504.0);
        assert_eq!(Fp16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert!(Fp16::INFINITY.to_f32().is_infinite());
        assert!(Fp16::NAN.to_f32().is_nan());
    }

    #[test]
    fn from_f32_basic_values() {
        assert_eq!(Fp16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(Fp16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(Fp16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(Fp16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Fp16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Fp16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_behaviour() {
        assert!(Fp16::from_f32(1.0e6).is_infinite());
        assert_eq!(Fp16::from_f32_saturating(1.0e6), Fp16::MAX);
        assert_eq!(Fp16::from_f32_saturating(-1.0e6).to_f32(), -65504.0);
        // 65520 is the rounding boundary: rounds to inf.
        assert!(Fp16::from_f32(65520.0).is_infinite());
        assert_eq!(Fp16::from_f32(65519.0).to_bits(), 0x7BFF);
    }

    #[test]
    fn subnormals() {
        let tiny = 2.0f32.powi(-24); // smallest positive subnormal
        assert_eq!(Fp16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(Fp16::from_bits(0x0001).to_f32(), tiny);
        // Underflow to zero below half the smallest subnormal.
        assert_eq!(Fp16::from_f32(tiny / 4.0).to_bits(), 0x0000);
        // Ties round to even: exactly half the smallest subnormal -> 0.
        assert_eq!(Fp16::from_f32(tiny / 2.0).to_bits(), 0x0000);
    }

    #[test]
    fn significand_identity() {
        for bits in [0x3C00u16, 0x0400, 0x0001, 0x7BFF, 0x0000, 0xBC00, 0x03FF] {
            let v = Fp16::from_bits(bits);
            let (m, e) = v.significand();
            let rebuilt =
                m as f32 * 2.0f32.powi(e - 25) * if v.is_sign_negative() { -1.0 } else { 1.0 };
            assert_eq!(rebuilt, v.to_f32(), "bits {bits:#06x}");
        }
    }

    #[test]
    fn all_finite_bit_patterns_round_trip_through_f32() {
        for bits in 0u16..=0xFFFF {
            let v = Fp16::from_bits(bits);
            if !v.is_finite() {
                continue;
            }
            let back = Fp16::from_f32(v.to_f32());
            assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10:
        // must round to even (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(Fp16::from_f32(halfway).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway to the next: rounds up to even mantissa 2.
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(Fp16::from_f32(halfway2).to_bits(), 0x3C02);
        // Slightly above half rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(Fp16::from_f32(above).to_bits(), 0x3C01);
    }

    #[test]
    fn nan_propagates() {
        assert!(Fp16::from_f32(f32::NAN).is_nan());
        assert!(Fp16::from_f32_saturating(f32::NAN).is_nan());
    }

    #[test]
    fn display_formats_value() {
        assert_eq!(Fp16::ONE.to_string(), "1");
        assert_eq!(format!("{:x}", Fp16::ONE), "3c00");
    }

    #[test]
    fn arithmetic_identities() {
        let x = Fp16::from_f32(1.5);
        assert_eq!(x.add(Fp16::ZERO), x);
        assert_eq!(x.mul(Fp16::ONE), x);
        assert_eq!(x.div(Fp16::ONE), x);
        assert_eq!(x.neg().neg(), x);
        assert_eq!(x.add(x.neg()).to_f32(), 0.0);
    }

    #[test]
    fn addition_is_correctly_rounded() {
        // 1 + 2^-11 must round to even (1.0): the sticky bits survive the
        // f64 intermediate.
        let one = Fp16::ONE;
        let tiny = Fp16::from_f32(2.0f32.powi(-11));
        assert_eq!(one.add(tiny), one);
        // 1 + 2^-11 + 2^-24-ish rounds up: emulate with 3*2^-12.
        let above = Fp16::from_f32(2.0f32.powi(-11) + 2.0f32.powi(-12));
        assert_eq!(one.add(above).to_bits(), 0x3C01);
    }

    #[test]
    fn multiplication_commutes_on_sample() {
        for (a, b) in [
            (1.5f32, -2.25f32),
            (0.125, 8.0),
            (3.0, 0.333),
            (-7.5, -0.06),
        ] {
            let (x, y) = (Fp16::from_f32(a), Fp16::from_f32(b));
            assert_eq!(x.mul(y), y.mul(x));
        }
    }

    #[test]
    fn arithmetic_saturates_to_infinity() {
        let big = Fp16::from_f32(60000.0);
        assert!(big.add(big).is_infinite());
        assert!(big.mul(big).is_infinite());
    }
}
