//! Vanilla BFP (paper §II-B, Eq. 2) through the algebra's `bfp(m)` point.

use crate::algebra::{algebra_quantize_slice, encode_elements, BbfpElement, FormatAlgebra};
use crate::format::BfpConfig;
use crate::fp16::Fp16;
use crate::reference::bfp_quantize_slice;
use crate::rounding::RoundingMode;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn mse(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        / a.len() as f64
}

fn bfp(m: u8) -> FormatAlgebra {
    FormatAlgebra::bfp(m).unwrap()
}

fn quantise(data: &[f32], alg: &FormatAlgebra) -> Vec<f32> {
    let mut out = vec![0.0; data.len()];
    algebra_quantize_slice(data, alg, RNE, &mut out);
    out
}

/// The block's shared exponent and elements from the element encoder.
fn encode(data: &[f32], alg: &FormatAlgebra) -> (i32, Vec<BbfpElement>) {
    let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
    let mut elements = vec![BbfpElement::default(); data.len()];
    let shared = encode_elements(&fp16, alg, alg.exponent_policy(), RNE, &mut elements);
    (shared, elements)
}

#[test]
fn uniform_block_is_near_exact() {
    // All values share an exponent: only m-bit truncation error remains.
    let data: Vec<f32> = (0..32).map(|i| 1.0 + i as f32 / 64.0).collect();
    let back = quantise(&data, &bfp(8));
    // Step is 2^(S-14-m) = 2^(15-22) = 2^-7; error <= step/2.
    for (a, b) in data.iter().zip(&back) {
        assert!((a - b).abs() <= 2.0f32.powi(-8) + 1e-9, "{a} vs {b}");
    }
}

#[test]
fn small_values_lose_precision_next_to_outlier() {
    let mut data = vec![0.01f32; 32];
    data[0] = 100.0; // outlier drives the shared exponent
    let back = quantise(&data, &bfp(4));
    // The outlier survives...
    assert!((back[0] - 100.0).abs() / 100.0 < 0.07);
    // ...but the small values are crushed to zero.
    assert_eq!(back[1], 0.0);
}

#[test]
fn shared_exponent_is_block_max() {
    let mut data = vec![0.5f32; 32];
    data[7] = 13.0; // exponent 15+3 = 18
    let (shared, elements) = encode(&data, &bfp(6));
    assert_eq!(shared, 18);
    assert!(elements.iter().all(|e| !e.flag), "BFP never flags");
}

#[test]
fn zero_block_encodes_cleanly() {
    let data = vec![0.0f32; 32];
    assert!(quantise(&data, &bfp(6)).iter().all(|&v| v == 0.0));
}

#[test]
fn signs_preserved() {
    let data: Vec<f32> = (0..32)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let back = quantise(&data, &bfp(6));
    for (a, b) in data.iter().zip(&back) {
        assert_eq!(a.signum(), b.signum());
    }
}

/// An output buffer of the wrong length is rejected; a NaN is kept out of
/// the block: it quantises to NaN and leaves the shared exponent to the
/// other elements.
#[test]
fn rejects_wrong_length_and_nan() {
    let alg = bfp(6);
    let short = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f32; 32];
        algebra_quantize_slice(&[1.0; 16], &alg, RNE, &mut out);
    });
    assert!(short.is_err(), "a 16-value slice into a 32-value buffer");
    let mut data = vec![1.0f32; 32];
    data[5] = f32::NAN;
    let back = quantise(&data, &alg);
    assert!(back[5].is_nan());
    let mut zeroed = data.clone();
    zeroed[5] = 0.0;
    assert_eq!(encode(&zeroed, &alg).0, 15, "the block max of the rest");
    let want = quantise(&zeroed, &alg);
    for (i, (b, w)) in back.iter().zip(&want).enumerate() {
        if i != 5 {
            assert_eq!(b.to_bits(), w.to_bits(), "idx {i}");
        }
    }
}

#[test]
fn wider_mantissa_never_increases_error() {
    let data: Vec<f32> = (0..32)
        .map(|i| ((i * 37 % 100) as f32 - 50.0) * 0.11)
        .collect();
    let mut prev = f64::INFINITY;
    for m in [2u8, 4, 6, 8] {
        let e = mse(&data, &quantise(&data, &bfp(m)));
        assert!(e <= prev + 1e-12, "m={m}: {e} > {prev}");
        prev = e;
    }
}

#[test]
fn slice_quantiser_matches_block_encoder() {
    let alg = bfp(5);
    let data: Vec<f32> = (0..96).map(|i| (i as f32 * 0.713).sin() * 4.0).collect();
    let out = quantise(&data, &alg);
    for chunk in 0..3 {
        let s = chunk * 32;
        assert_eq!(&out[s..s + 32], quantise(&data[s..s + 32], &alg).as_slice());
    }
    let mut reference = vec![0.0f32; 96];
    bfp_quantize_slice(&data, BfpConfig::new(5).unwrap(), RNE, &mut reference);
    assert_eq!(out, reference);
}

#[test]
fn slice_quantiser_handles_ragged_tail() {
    let data: Vec<f32> = (0..40).map(|i| i as f32 * 0.1).collect();
    let out = quantise(&data, &bfp(5));
    // Tail block of 8 values gets its own (smaller) exponent, so its
    // reconstruction must be at least as good as if merged.
    for i in 32..40 {
        assert!((out[i] - data[i]).abs() < 0.05, "i={i}");
    }
}
