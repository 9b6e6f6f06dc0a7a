//! Reference slice quantisers: the BFP and BBFP quantise-dequantise loops
//! the format layer started from, kept only as the oracle the parity
//! tests of the algebra's block encoder and of the packed store compare
//! against. Every caller quantises through the algebra.

use crate::algebra::{encode_element, exp2i, max_exponent, narrow_block, restore_nans};
use crate::format::{BbfpConfig, BfpConfig};
use crate::fp16::{Fp16, SIGNIFICAND_BITS};
use crate::policy::ExponentPolicy;
use crate::rounding::RoundingMode;

/// Quantise-dequantise `values` through `BFPm` into `out`, block by block
/// (a ragged tail is its own block; a NaN stays NaN). Panics if the
/// lengths differ.
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

/// As [`bfp_quantize_slice`], through `BBFP(m, o)` with the paper's Eq. 9
/// policy.
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

/// As [`bbfp_quantize_slice`], with an explicit shared-exponent policy.
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
