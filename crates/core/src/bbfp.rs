//! Bidirectional block floating point (paper §III).
//!
//! BBFP(`m`,`o`) stores, per element, a sign, a 1-bit *flag* and an `m`-bit
//! mantissa, plus one 5-bit shared exponent per block. The shared exponent
//! defaults to `max(E) − (m − o)` (Eq. 9). Elements whose exponent exceeds
//! the shared exponent are *left-shifted* into the high mantissa window and
//! flagged (`f = 2^(m−o)`, Eq. 6); everything else is right-shifted into the
//! low window like vanilla BFP — but against a smaller shared exponent, so
//! far fewer bits are lost. The two windows overlap by `o` bits, which is
//! what bounds the truncation error of flagged elements (paper §III-D).
//!
//! Window layout for BBFP(4,2), mirroring the paper's Eq. (4) on an 11-bit
//! FP16 significand (bit 11 = implicit one):
//!
//! ```text
//!   bit:      13 12 11 10  9  8  7 ...
//!   high:     [ h3 h2 h1 h0 ]             = Clip(x << n)₁₃,₁₀  (flag = 1)
//!   low:            [ l3 l2 l1 l0 ]       = Clip(x >> n)₁₁,₈   (flag = 0)
//!                    `--,--'
//!                 o = 2 overlap bits
//! ```

use crate::algebra::{narrow_block, restore_nans};
use crate::bfp::{exp2i, max_exponent};
use crate::error::FormatError;
use crate::format::BbfpConfig;
use crate::fp16::{Fp16, SIGNIFICAND_BITS};
use crate::policy::ExponentPolicy;
use crate::rounding::RoundingMode;

/// One encoded BBFP element: sign, high/low-window flag, and `m`-bit
/// mantissa magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BbfpElement {
    /// Sign bit (`true` = negative).
    pub sign: bool,
    /// Window flag: `true` means the mantissa lives in the high window and
    /// the decoded value scales by `2^(m−o)`.
    pub flag: bool,
    /// Mantissa magnitude, `< 2^m`.
    pub mantissa: u16,
}

/// A block of values in `BBFP(m, o)` format.
///
/// # Examples
///
/// ```
/// use bbal_core::{BbfpBlock, BbfpConfig};
///
/// // A block with one outlier: BBFP keeps both the outlier and the body.
/// let cfg = BbfpConfig::new(4, 2).unwrap();
/// let mut data = vec![0.11f32; 32];
/// data[0] = 3.4;
/// let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
/// let back = block.to_f32_vec();
/// assert!((back[0] - 3.4).abs() / 3.4 < 0.1);   // outlier captured
/// assert!((back[1] - 0.11).abs() / 0.11 < 0.2); // body not crushed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BbfpBlock {
    config: BbfpConfig,
    shared_exponent: i32,
    elements: Vec<BbfpElement>,
}

impl BbfpBlock {
    /// Encodes FP16 values with the paper-default policy (Eq. 9) and
    /// round-to-nearest-even.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::LengthMismatch`] if the slice length differs
    /// from the configured block size, or [`FormatError::NonFinite`] if any
    /// element is NaN or infinite.
    pub fn from_fp16_slice(values: &[Fp16], config: BbfpConfig) -> Result<BbfpBlock, FormatError> {
        BbfpBlock::from_fp16_slice_with(
            values,
            config,
            ExponentPolicy::paper_default(config),
            RoundingMode::NearestEven,
        )
    }

    /// Encodes FP16 values with explicit policy and rounding mode.
    ///
    /// Policies more aggressive than the paper default (larger offsets)
    /// saturate elements whose left shift exceeds the high window — exactly
    /// the failure mode Fig. 3 shows for "Max−3".
    ///
    /// # Errors
    ///
    /// As [`BbfpBlock::from_fp16_slice`].
    pub fn from_fp16_slice_with(
        values: &[Fp16],
        config: BbfpConfig,
        policy: ExponentPolicy,
        rounding: RoundingMode,
    ) -> Result<BbfpBlock, FormatError> {
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
        let shared_exponent = policy.shared_exponent(max_exponent(values));
        let (m, o) = (config.mantissa_bits(), config.overlap_bits());
        let elements = values
            .iter()
            .map(|v| encode_element(*v, m, o, shared_exponent, rounding))
            .collect();
        Ok(BbfpBlock {
            config,
            shared_exponent,
            elements,
        })
    }

    /// Encodes `f32` values (narrowed to FP16 with saturation first).
    ///
    /// # Errors
    ///
    /// As [`BbfpBlock::from_fp16_slice`].
    pub fn from_f32_slice(values: &[f32], config: BbfpConfig) -> Result<BbfpBlock, FormatError> {
        let fp16: Vec<Fp16> = values
            .iter()
            .map(|&v| Fp16::from_f32_saturating(v))
            .collect();
        BbfpBlock::from_fp16_slice(&fp16, config)
    }

    /// The configuration this block was encoded with.
    #[inline]
    pub fn config(&self) -> BbfpConfig {
        self.config
    }

    /// The shared biased exponent selected by the policy.
    #[inline]
    pub fn shared_exponent(&self) -> i32 {
        self.shared_exponent
    }

    /// Encoded elements.
    #[inline]
    pub fn elements(&self) -> &[BbfpElement] {
        &self.elements
    }

    /// Number of elements with the high-window flag set.
    pub fn flag_count(&self) -> usize {
        self.elements.iter().filter(|e| e.flag).count()
    }

    /// The power-of-two scale of one low-window mantissa unit:
    /// value = `±mantissa × f × 2^scale_exponent()` with `f` from Eq. 6.
    #[inline]
    pub fn scale_exponent(&self) -> i32 {
        self.shared_exponent - 14 - self.config.mantissa_bits() as i32
    }

    /// Decodes one element back to `f32`.
    pub fn element_to_f32(&self, index: usize) -> f32 {
        let e = self.elements[index];
        let f = if e.flag { self.config.flag_scale() } else { 1 };
        let mag = (e.mantissa as u64 * f as u64) as f32 * exp2i(self.scale_exponent());
        if e.sign {
            -mag
        } else {
            mag
        }
    }

    /// Decodes the whole block.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.elements.len())
            .map(|i| self.element_to_f32(i))
            .collect()
    }
}

/// Encodes a single FP16 value into `BBFP(m, o)` against a given shared
/// exponent.
pub(crate) fn encode_element(
    v: Fp16,
    mantissa_bits: u8,
    overlap_bits: u8,
    shared: i32,
    rounding: RoundingMode,
) -> BbfpElement {
    let m = mantissa_bits as i32;
    let o = overlap_bits as i32;
    let max_mantissa = (1u64 << m) - 1;
    let (sig, exp) = v.significand();
    let sign = v.is_sign_negative();
    if sig == 0 {
        return BbfpElement {
            sign,
            flag: false,
            mantissa: 0,
        };
    }

    if exp > shared {
        // High window (flag = 1): the significand's top bit must land at
        // high-window bit m-1, whose weight is 2^(shared-15+(m-o)) in units
        // of the element's own 2^(exp-15) leading weight. Net right shift:
        let shift = (SIGNIFICAND_BITS as i32 - o) - (exp - shared);
        let q = if shift >= 0 {
            rounding.shift_right(sig as u64, shift as u32)
        } else {
            // Policy offset beyond the window gap: the MSB escapes the
            // window (paper's "Max−3" pathology); saturate below.
            (sig as u64) << (-shift).min(32)
        };
        BbfpElement {
            sign,
            flag: true,
            mantissa: q.min(max_mantissa) as u16,
        }
    } else {
        // Low window (flag = 0): vanilla BFP alignment against `shared`.
        let shift = (SIGNIFICAND_BITS as i32 - m) + (shared - exp);
        debug_assert!(shift >= 1);
        let q = rounding.shift_right(sig as u64, shift as u32);
        BbfpElement {
            sign,
            flag: false,
            mantissa: q.min(max_mantissa) as u16,
        }
    }
}

/// Quantise-dequantise an arbitrary-length slice through `BBFP(m, o)` with
/// the paper-default policy, block by block, writing the reconstruction into
/// `out`.
///
/// The final partial block is treated as a smaller block with its own shared
/// exponent. Infinities saturate through FP16 narrowing first; a NaN
/// quantises to NaN, and its block's shared exponent comes from the other
/// elements.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn bbfp_quantize_slice(
    values: &[f32],
    config: BbfpConfig,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    bbfp_quantize_slice_with(
        values,
        config,
        ExponentPolicy::paper_default(config),
        rounding,
        out,
    );
}

/// As [`bbfp_quantize_slice`] but with an explicit shared-exponent policy
/// (used by the Fig. 3 policy sweep).
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn bbfp_quantize_slice_with(
    values: &[f32],
    config: BbfpConfig,
    policy: ExponentPolicy,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    assert_eq!(values.len(), out.len(), "output buffer length mismatch");
    let n = config.block_size();
    let mut fp16 = vec![Fp16::ZERO; n.min(values.len())];
    for (chunk, out_chunk) in values.chunks(n).zip(out.chunks_mut(n)) {
        let fp16 = &mut fp16[..chunk.len()];
        let nan = narrow_block(fp16, chunk);
        let shared = policy.shared_exponent(max_exponent(fp16));
        let scale = exp2i(shared - 14 - config.mantissa_bits() as i32);
        let flag_scale = config.flag_scale();
        let (m, overlap) = (config.mantissa_bits(), config.overlap_bits());
        for (v, o) in fp16.iter().zip(out_chunk.iter_mut()) {
            let e = encode_element(*v, m, overlap, shared, rounding);
            let f = if e.flag { flag_scale } else { 1 };
            let mag = (e.mantissa as u64 * f as u64) as f32 * scale;
            *o = if e.sign { -mag } else { mag };
        }
        if nan {
            restore_nans(chunk, out_chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfp::bfp_quantize_slice;
    use crate::format::BfpConfig;

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / a.len() as f64
    }

    /// Pseudo-random but deterministic test vector with outliers, shaped
    /// like the paper's Fig. 1(a) activation distribution.
    fn outlier_data(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let u = next();
                let body = (next() - 0.5) as f32 * 0.4;
                if u < 0.02 {
                    body * 40.0 // ~2% outliers, 10-100x the body
                } else {
                    body
                }
            })
            .collect()
    }

    #[test]
    fn shared_exponent_follows_eq9() {
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let mut data = vec![0.5f32; 32];
        data[3] = 13.0; // max exponent 18
        let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
        assert_eq!(block.shared_exponent(), 18 - 2);
    }

    #[test]
    fn outliers_are_flagged_and_preserved() {
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let mut data = vec![0.11f32; 32];
        data[0] = 3.4;
        let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
        assert!(block.elements()[0].flag, "outlier should use high window");
        assert!(!block.elements()[1].flag);
        assert_eq!(block.flag_count(), 1);
        let back = block.to_f32_vec();
        assert!((back[0] - 3.4).abs() / 3.4 < 0.1);
        assert!((back[1] - 0.11).abs() / 0.11 < 0.2);
    }

    #[test]
    fn bbfp_beats_bfp_on_outlier_distributions() {
        // The paper's core claim: at equal mantissa width, BBFP's shared-
        // exponent choice yields lower quantisation error on LLM-like data.
        let data = outlier_data(4096, 7);
        let bbfp_cfg = BbfpConfig::new(4, 2).unwrap();
        let bfp_cfg = BfpConfig::new(4).unwrap();
        let mut bbfp_out = vec![0.0; data.len()];
        let mut bfp_out = vec![0.0; data.len()];
        bbfp_quantize_slice(&data, bbfp_cfg, RoundingMode::NearestEven, &mut bbfp_out);
        bfp_quantize_slice(&data, bfp_cfg, RoundingMode::NearestEven, &mut bfp_out);
        let e_bbfp = mse(&data, &bbfp_out);
        let e_bfp = mse(&data, &bfp_out);
        assert!(
            e_bbfp < e_bfp,
            "BBFP(4,2) mse {e_bbfp} should beat BFP4 mse {e_bfp}"
        );
    }

    #[test]
    fn max_policy_degenerates_to_bfp_low_window() {
        // With offset 0 nothing is flagged and BBFP == BFP numerically.
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let data = outlier_data(32, 3);
        let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
        let block = BbfpBlock::from_fp16_slice_with(
            &fp16,
            cfg,
            ExponentPolicy::Max,
            RoundingMode::NearestEven,
        )
        .unwrap();
        assert_eq!(block.flag_count(), 0);
        let bfp_cfg = BfpConfig::new(4).unwrap();
        let bfp = crate::bfp::BfpBlock::from_fp16_slice(&fp16, bfp_cfg).unwrap();
        assert_eq!(block.to_f32_vec(), bfp.to_f32_vec());
    }

    #[test]
    fn aggressive_policy_saturates_like_fig3_max3() {
        // Offset (m-o)+1 pushes the top element's MSB out of the window:
        // error must be much larger than the paper default.
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let data = outlier_data(4096, 11);
        let mut out_default = vec![0.0; data.len()];
        let mut out_aggressive = vec![0.0; data.len()];
        bbfp_quantize_slice_with(
            &data,
            cfg,
            ExponentPolicy::MaxMinus(2),
            RoundingMode::NearestEven,
            &mut out_default,
        );
        bbfp_quantize_slice_with(
            &data,
            cfg,
            ExponentPolicy::MaxMinus(3),
            RoundingMode::NearestEven,
            &mut out_aggressive,
        );
        assert!(mse(&data, &out_aggressive) > 2.0 * mse(&data, &out_default));
    }

    #[test]
    fn mantissa_range_matches_fig2b() {
        // Fig 2(b): with a 4-bit mantissa + sign, BFP covers ±1.875 units
        // while BBFP(4,2) covers ±7.5 units (4x via the flag scale).
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let max_low = (1 << 4) - 1; // 15 -> 1.875 in units of 2^-3
        let max_high = max_low * cfg.flag_scale() as i32; // 60 -> 7.5
        assert_eq!(max_high as f32 / max_low as f32, 4.0);
    }

    #[test]
    fn zero_and_negative_zero() {
        let cfg = BbfpConfig::new(6, 3).unwrap();
        let mut data = vec![0.0f32; 32];
        data[1] = -0.0;
        data[2] = 1.0;
        let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
        let back = block.to_f32_vec();
        assert_eq!(back[0], 0.0);
        assert_eq!(back[1], 0.0); // -0.0 == 0.0 numerically
        assert!(back[1].is_sign_negative());
    }

    #[test]
    fn rejects_wrong_length_and_nan() {
        let cfg = BbfpConfig::new(4, 2).unwrap();
        assert!(matches!(
            BbfpBlock::from_f32_slice(&[1.0; 8], cfg),
            Err(FormatError::LengthMismatch {
                got: 8,
                expected: 32
            })
        ));
        let mut data = vec![1.0f32; 32];
        data[9] = f32::INFINITY;
        // infinity saturates to MAX through from_f32_saturating, so this
        // encodes fine...
        assert!(BbfpBlock::from_f32_slice(&data, cfg).is_ok());
        // ...but NaN is rejected.
        data[9] = f32::NAN;
        assert!(matches!(
            BbfpBlock::from_f32_slice(&data, cfg),
            Err(FormatError::NonFinite(9))
        ));
    }

    #[test]
    fn reconstruction_error_bounded_by_step() {
        // Unflagged elements: |err| <= step/2 (round-to-nearest); flagged:
        // |err| <= step * 2^(m-o) / 2.
        let cfg = BbfpConfig::new(6, 3).unwrap();
        let data = outlier_data(1024, 23);
        for chunk in data.chunks(32) {
            let block = BbfpBlock::from_f32_slice(chunk, cfg).unwrap();
            let step = 2.0f64.powi(block.scale_exponent());
            for (i, (&orig, el)) in chunk.iter().zip(block.elements()).enumerate() {
                // FP16 narrowing itself contributes error; bound loosely.
                let fp16 = Fp16::from_f32_saturating(orig).to_f32();
                let back = block.element_to_f32(i);
                let f = if el.flag {
                    cfg.flag_scale() as f64
                } else {
                    1.0
                };
                let sat = el.mantissa as u32 == (1u32 << cfg.mantissa_bits()) - 1;
                if !sat {
                    assert!(
                        ((fp16 - back).abs() as f64) <= step * f * 0.5 + 1e-12,
                        "i={i} orig={orig} back={back} step={step} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn flags_partition_by_exponent_threshold() {
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let data = outlier_data(32, 5);
        let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
        let block = BbfpBlock::from_fp16_slice(&fp16, cfg).unwrap();
        for (v, el) in fp16.iter().zip(block.elements()) {
            let (sig, exp) = v.significand();
            if sig == 0 {
                assert!(!el.flag);
            } else {
                assert_eq!(el.flag, exp > block.shared_exponent());
            }
        }
    }
}
