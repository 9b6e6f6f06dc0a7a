//! Bidirectional BFP (paper §III) through the algebra's `bbfp(m, o)`
//! point: the element encoder's flags and windows, the Eq. 9 shared
//! exponent and the Fig. 3 policy sweep.

use crate::algebra::{
    algebra_quantize_slice, algebra_quantize_slice_with, encode_elements, BbfpElement,
    FormatAlgebra,
};
use crate::fp16::Fp16;
use crate::policy::ExponentPolicy;
use crate::rounding::RoundingMode;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn mse(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        / a.len() as f64
}

fn bbfp(m: u8, o: u8) -> FormatAlgebra {
    FormatAlgebra::bbfp(m, o).unwrap()
}

fn quantise(data: &[f32], alg: &FormatAlgebra) -> Vec<f32> {
    let mut out = vec![0.0; data.len()];
    algebra_quantize_slice(data, alg, RNE, &mut out);
    out
}

fn quantise_with(data: &[f32], alg: &FormatAlgebra, policy: ExponentPolicy) -> Vec<f32> {
    let mut out = vec![0.0; data.len()];
    algebra_quantize_slice_with(data, alg, policy, RNE, &mut out);
    out
}

fn narrow(data: &[f32]) -> Vec<Fp16> {
    data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect()
}

/// The block's shared exponent and elements under `policy`.
fn encode_with(
    data: &[f32],
    alg: &FormatAlgebra,
    policy: ExponentPolicy,
) -> (i32, Vec<BbfpElement>) {
    let mut elements = vec![BbfpElement::default(); data.len()];
    let shared = encode_elements(&narrow(data), alg, policy, RNE, &mut elements);
    (shared, elements)
}

fn encode(data: &[f32], alg: &FormatAlgebra) -> (i32, Vec<BbfpElement>) {
    encode_with(data, alg, alg.exponent_policy())
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
    let mut data = vec![0.5f32; 32];
    data[3] = 13.0; // max exponent 18
    assert_eq!(encode(&data, &bbfp(4, 2)).0, 18 - 2);
}

#[test]
fn outliers_are_flagged_and_preserved() {
    let alg = bbfp(4, 2);
    let mut data = vec![0.11f32; 32];
    data[0] = 3.4;
    let (_, elements) = encode(&data, &alg);
    assert!(elements[0].flag, "outlier should use high window");
    assert!(!elements[1].flag);
    assert_eq!(elements.iter().filter(|e| e.flag).count(), 1);
    let back = quantise(&data, &alg);
    assert!((back[0] - 3.4).abs() / 3.4 < 0.1);
    assert!((back[1] - 0.11).abs() / 0.11 < 0.2);
}

#[test]
fn bbfp_beats_bfp_on_outlier_distributions() {
    // The paper's core claim: at equal mantissa width, BBFP's shared-
    // exponent choice yields lower quantisation error on LLM-like data.
    let data = outlier_data(4096, 7);
    let e_bbfp = mse(&data, &quantise(&data, &bbfp(4, 2)));
    let e_bfp = mse(&data, &quantise(&data, &FormatAlgebra::bfp(4).unwrap()));
    assert!(
        e_bbfp < e_bfp,
        "BBFP(4,2) mse {e_bbfp} should beat BFP4 mse {e_bfp}"
    );
}

#[test]
fn max_policy_degenerates_to_bfp_low_window() {
    // With offset 0 nothing is flagged and BBFP == BFP numerically.
    let alg = bbfp(4, 2);
    let data = outlier_data(32, 3);
    let (_, elements) = encode_with(&data, &alg, ExponentPolicy::Max);
    assert_eq!(elements.iter().filter(|e| e.flag).count(), 0);
    let bfp = quantise(&data, &FormatAlgebra::bfp(4).unwrap());
    assert_eq!(quantise_with(&data, &alg, ExponentPolicy::Max), bfp);
}

#[test]
fn aggressive_policy_saturates_like_fig3_max3() {
    // Offset (m-o)+1 pushes the top element's MSB out of the window:
    // error must be much larger than the paper default.
    let alg = bbfp(4, 2);
    let data = outlier_data(4096, 11);
    let out_default = quantise_with(&data, &alg, ExponentPolicy::MaxMinus(2));
    let out_aggressive = quantise_with(&data, &alg, ExponentPolicy::MaxMinus(3));
    assert!(mse(&data, &out_aggressive) > 2.0 * mse(&data, &out_default));
    // The point's own policy is Eq. 9's, so the default sweep entry is
    // the plain quantiser.
    assert_eq!(out_default, quantise(&data, &alg));
}

#[test]
fn mantissa_range_matches_fig2b() {
    // Fig 2(b): with a 4-bit mantissa + sign, BFP covers ±1.875 units
    // while BBFP(4,2) covers ±7.5 units (4x via the flag scale).
    let gap = bbfp(4, 2).window_gap().unwrap();
    let max_low = (1 << 4) - 1; // 15 -> 1.875 in units of 2^-3
    let max_high = max_low << gap; // 60 -> 7.5
    assert_eq!(max_high as f32 / max_low as f32, 4.0);
}

#[test]
fn zero_and_negative_zero() {
    let mut data = vec![0.0f32; 32];
    data[1] = -0.0;
    data[2] = 1.0;
    let back = quantise(&data, &bbfp(6, 3));
    assert_eq!(back[0], 0.0);
    assert_eq!(back[1], 0.0); // -0.0 == 0.0 numerically
    assert!(back[1].is_sign_negative());
}

/// An output buffer of the wrong length is rejected; infinity saturates
/// through FP16 narrowing and encodes; a NaN is kept out of the block: it
/// quantises to NaN and leaves the shared exponent to the rest.
#[test]
fn rejects_wrong_length_and_nan() {
    let alg = bbfp(4, 2);
    let short = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f32; 32];
        algebra_quantize_slice(&[1.0; 8], &alg, RNE, &mut out);
    });
    assert!(short.is_err(), "an 8-value slice into a 32-value buffer");
    let mut data = vec![1.0f32; 32];
    data[9] = f32::INFINITY;
    let back = quantise(&data, &alg);
    assert!(back.iter().all(|v| v.is_finite()));
    data[9] = f32::NAN;
    let back = quantise(&data, &alg);
    assert!(back[9].is_nan());
    data[9] = 0.0;
    assert_eq!(encode(&data, &alg).0, 15 - 2, "the block max of the rest");
    assert!(back.iter().enumerate().all(|(i, v)| i == 9 || *v == 1.0));
}

#[test]
fn reconstruction_error_bounded_by_step() {
    // Unflagged elements: |err| <= step/2 (round-to-nearest); flagged:
    // |err| <= step * 2^(m-o) / 2.
    let alg = bbfp(6, 3);
    let flag_scale = (1u32 << alg.window_gap().unwrap()) as f64;
    let data = outlier_data(1024, 23);
    for chunk in data.chunks(32) {
        let (shared, elements) = encode(chunk, &alg);
        let back = quantise(chunk, &alg);
        let step = 2.0f64.powi(shared - 14 - 6);
        for (i, (&orig, el)) in chunk.iter().zip(&elements).enumerate() {
            // FP16 narrowing itself contributes error; bound loosely.
            let fp16 = Fp16::from_f32_saturating(orig).to_f32();
            let f = if el.flag { flag_scale } else { 1.0 };
            let sat = el.mantissa as u32 == (1u32 << 6) - 1;
            if !sat {
                assert!(
                    ((fp16 - back[i]).abs() as f64) <= step * f * 0.5 + 1e-12,
                    "i={i} orig={orig} back={} step={step} f={f}",
                    back[i]
                );
            }
        }
    }
}

#[test]
fn flags_partition_by_exponent_threshold() {
    let data = outlier_data(32, 5);
    let (shared, elements) = encode(&data, &bbfp(4, 2));
    for (v, el) in narrow(&data).iter().zip(&elements) {
        let (sig, exp) = v.significand();
        if sig == 0 {
            assert!(!el.flag);
        } else {
            assert_eq!(el.flag, exp > shared);
        }
    }
}
