//! Vanilla block floating point (paper §II-B, Eq. 2).
//!
//! A block of `N` FP16 values is re-expressed as one shared exponent (the
//! block maximum) and `N` sign-magnitude mantissas produced by right-
//! shifting each 11-bit significand by its exponent deficit and keeping the
//! top `m` bits. This is the baseline the paper improves upon: elements far
//! below the block maximum lose most or all of their mantissa bits.

use crate::algebra::{narrow_block, restore_nans};
use crate::error::FormatError;
use crate::format::BfpConfig;
use crate::fp16::{Fp16, SIGNIFICAND_BITS};
use crate::rounding::RoundingMode;

/// A block of values in `BFPm` format.
///
/// # Examples
///
/// ```
/// use bbal_core::{BfpBlock, BfpConfig};
///
/// let cfg = BfpConfig::new(6).unwrap();
/// let data: Vec<f32> = (0..32).map(|i| i as f32 * 0.25).collect();
/// let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
/// let back = block.to_f32_vec();
/// assert!((back[4] - 1.0).abs() < 0.26); // coarse but bounded
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BfpBlock {
    config: BfpConfig,
    shared_exponent: i32,
    signs: Vec<bool>,
    mantissas: Vec<u16>,
}

impl BfpBlock {
    /// Encodes a slice of FP16 values with round-to-nearest-even.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::LengthMismatch`] if the slice length differs
    /// from the configured block size, or [`FormatError::NonFinite`] if any
    /// element is NaN or infinite.
    pub fn from_fp16_slice(values: &[Fp16], config: BfpConfig) -> Result<BfpBlock, FormatError> {
        BfpBlock::from_fp16_slice_with(values, config, RoundingMode::NearestEven)
    }

    /// Encodes a slice of FP16 values with an explicit rounding mode.
    ///
    /// # Errors
    ///
    /// As [`BfpBlock::from_fp16_slice`].
    pub fn from_fp16_slice_with(
        values: &[Fp16],
        config: BfpConfig,
        rounding: RoundingMode,
    ) -> Result<BfpBlock, FormatError> {
        if values.len() != config.block_size() {
            return Err(FormatError::LengthMismatch {
                got: values.len(),
                expected: config.block_size(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(FormatError::NonFinite(i));
            }
        }

        let shared_exponent = max_exponent(values);
        let m = config.mantissa_bits() as u32;
        let max_mantissa = (1u16 << m) - 1;

        let mut signs = Vec::with_capacity(values.len());
        let mut mantissas = Vec::with_capacity(values.len());
        for v in values {
            let (sig, exp) = v.significand();
            signs.push(v.is_sign_negative());
            // Right-align: the significand's top bit (weight 2^(E-15)) must
            // land at mantissa bit m-1 (weight 2^(S-15)) after the shift.
            // shift >= 0 always: non-zero elements have exp <= shared, and
            // zero elements (exp recorded as 1, shared possibly 0) have a
            // zero significand so the shift amount is irrelevant.
            let shift = (SIGNIFICAND_BITS - m) as i32 + (shared_exponent - exp);
            debug_assert!(shift >= 0, "BFP alignment never left-shifts");
            let q = rounding.shift_right(sig as u64, shift as u32);
            mantissas.push((q as u16).min(max_mantissa));
        }
        Ok(BfpBlock {
            config,
            shared_exponent,
            signs,
            mantissas,
        })
    }

    /// Encodes a slice of `f32` values (narrowed to FP16 with saturation
    /// first, matching the paper's FP16-input pipeline).
    ///
    /// # Errors
    ///
    /// As [`BfpBlock::from_fp16_slice`].
    pub fn from_f32_slice(values: &[f32], config: BfpConfig) -> Result<BfpBlock, FormatError> {
        let fp16: Vec<Fp16> = values
            .iter()
            .map(|&v| Fp16::from_f32_saturating(v))
            .collect();
        BfpBlock::from_fp16_slice(&fp16, config)
    }

    /// The configuration this block was encoded with.
    #[inline]
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// The shared (maximum) biased exponent of the block.
    #[inline]
    pub fn shared_exponent(&self) -> i32 {
        self.shared_exponent
    }

    /// Sign bits, one per element (`true` = negative).
    #[inline]
    pub fn signs(&self) -> &[bool] {
        &self.signs
    }

    /// Mantissa magnitudes, one per element.
    #[inline]
    pub fn mantissas(&self) -> &[u16] {
        &self.mantissas
    }

    /// The power-of-two scale of one mantissa unit:
    /// value = `±mantissa × 2^scale_exponent()`.
    #[inline]
    pub fn scale_exponent(&self) -> i32 {
        // S - 25 + (11 - m) = S - 14 - m
        self.shared_exponent - 14 - self.config.mantissa_bits() as i32
    }

    /// Decodes one element back to `f32`.
    pub fn element_to_f32(&self, index: usize) -> f32 {
        let mag = self.mantissas[index] as f32 * exp2i(self.scale_exponent());
        if self.signs[index] {
            -mag
        } else {
            mag
        }
    }

    /// Decodes the whole block.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.mantissas.len())
            .map(|i| self.element_to_f32(i))
            .collect()
    }
}

/// Maximum biased exponent over the non-zero elements of a block (0 if the
/// block is entirely zero).
pub(crate) fn max_exponent(values: &[Fp16]) -> i32 {
    values
        .iter()
        .filter(|v| {
            let (m, _) = v.significand();
            m != 0
        })
        .map(|v| v.significand().1)
        .max()
        .unwrap_or(0)
}

#[inline]
pub(crate) fn exp2i(e: i32) -> f32 {
    // Exact for the exponent ranges block formats produce (|e| < 64).
    (e as f64).exp2() as f32
}

/// Quantise-dequantise an arbitrary-length slice through `BFPm`, block by
/// block, writing the reconstruction into `out`.
///
/// The final partial block (if `values.len()` is not a multiple of the block
/// size) is treated as a smaller block with its own shared exponent, which
/// is how tiled hardware handles ragged edges. Infinities saturate through
/// FP16 narrowing first; a NaN quantises to NaN, and its block's shared
/// exponent comes from the other elements.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn bfp_quantize_slice(
    values: &[f32],
    config: BfpConfig,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    assert_eq!(values.len(), out.len(), "output buffer length mismatch");
    let n = config.block_size();
    let m = config.mantissa_bits() as u32;
    let max_mantissa = (1u64 << m) - 1;
    let mut fp16 = vec![Fp16::ZERO; n.min(values.len())];
    for (chunk, out_chunk) in values.chunks(n).zip(out.chunks_mut(n)) {
        let fp16 = &mut fp16[..chunk.len()];
        let nan = narrow_block(fp16, chunk);
        let shared = max_exponent(fp16);
        let scale = exp2i(shared - 14 - m as i32);
        for (v, o) in fp16.iter().zip(out_chunk.iter_mut()) {
            let (sig, exp) = v.significand();
            let shift = (SIGNIFICAND_BITS - m) as i32 + (shared - exp);
            let q = rounding
                .shift_right(sig as u64, shift as u32)
                .min(max_mantissa);
            let mag = q as f32 * scale;
            *o = if v.is_sign_negative() { -mag } else { mag };
        }
        if nan {
            restore_nans(chunk, out_chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / a.len() as f64
    }

    #[test]
    fn uniform_block_is_near_exact() {
        // All values share an exponent: only m-bit truncation error remains.
        let cfg = BfpConfig::new(8).unwrap();
        let data: Vec<f32> = (0..32).map(|i| 1.0 + i as f32 / 64.0).collect();
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        let back = block.to_f32_vec();
        // Step is 2^(S-14-m) = 2^(15-22) = 2^-7; error <= step/2.
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 2.0f32.powi(-8) + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn small_values_lose_precision_next_to_outlier() {
        let cfg = BfpConfig::new(4).unwrap();
        let mut data = vec![0.01f32; 32];
        data[0] = 100.0; // outlier drives the shared exponent
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        let back = block.to_f32_vec();
        // The outlier survives...
        assert!((back[0] - 100.0).abs() / 100.0 < 0.07);
        // ...but the small values are crushed to zero.
        assert_eq!(back[1], 0.0);
    }

    #[test]
    fn shared_exponent_is_block_max() {
        let cfg = BfpConfig::new(6).unwrap();
        let mut data = vec![0.5f32; 32];
        data[7] = 13.0; // exponent 15+3 = 18
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        assert_eq!(block.shared_exponent(), 18);
    }

    #[test]
    fn zero_block_encodes_cleanly() {
        let cfg = BfpConfig::new(6).unwrap();
        let data = vec![0.0f32; 32];
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        assert!(block.to_f32_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn signs_preserved() {
        let cfg = BfpConfig::new(6).unwrap();
        let data: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        let back = block.to_f32_vec();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn rejects_wrong_length_and_nan() {
        let cfg = BfpConfig::new(6).unwrap();
        assert!(matches!(
            BfpBlock::from_f32_slice(&[1.0; 16], cfg),
            Err(FormatError::LengthMismatch {
                got: 16,
                expected: 32
            })
        ));
        let mut data = vec![1.0f32; 32];
        data[5] = f32::NAN;
        // NaN saturates... no: from_f32_slice narrows with saturation, NaN
        // stays NaN and must be rejected.
        assert!(matches!(
            BfpBlock::from_f32_slice(&data, cfg),
            Err(FormatError::NonFinite(5))
        ));
    }

    #[test]
    fn wider_mantissa_never_increases_error() {
        let data: Vec<f32> = (0..32)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) * 0.11)
            .collect();
        let mut prev = f64::INFINITY;
        for m in [2u8, 4, 6, 8] {
            let cfg = BfpConfig::new(m).unwrap();
            let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
            let e = mse(&data, &block.to_f32_vec());
            assert!(e <= prev + 1e-12, "m={m}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    fn slice_quantiser_matches_block_encoder() {
        let cfg = BfpConfig::new(5).unwrap();
        let data: Vec<f32> = (0..96).map(|i| (i as f32 * 0.713).sin() * 4.0).collect();
        let mut out = vec![0.0f32; 96];
        bfp_quantize_slice(&data, cfg, RoundingMode::NearestEven, &mut out);
        for chunk in 0..3 {
            let s = chunk * 32;
            let block = BfpBlock::from_f32_slice(&data[s..s + 32], cfg).unwrap();
            assert_eq!(&out[s..s + 32], block.to_f32_vec().as_slice());
        }
    }

    #[test]
    fn slice_quantiser_handles_ragged_tail() {
        let cfg = BfpConfig::new(5).unwrap();
        let data: Vec<f32> = (0..40).map(|i| i as f32 * 0.1).collect();
        let mut out = vec![0.0f32; 40];
        bfp_quantize_slice(&data, cfg, RoundingMode::NearestEven, &mut out);
        // Tail block of 8 values gets its own (smaller) exponent, so its
        // reconstruction must be at least as good as if merged.
        for i in 32..40 {
            assert!((out[i] - data[i]).abs() < 0.05, "i={i}");
        }
    }
}
