//! Quickstart: encode LLM-like data into BBFP, compare against BFP, and
//! run a bit-exact fixed-point dot product on the integer codes — the paper's §III in thirty
//! lines. The formats are named by their [`SchemeSpec`] strings, the same
//! identifiers `SessionBuilder` takes.
//!
//! Run with: `cargo run --release --example quickstart`

use bbal::core::{
    algebra_encode_slice, algebra_quantize_slice, encode_elements, BbfpElement, FormatAlgebra,
    Fp16, RoundingMode,
};
use bbal::SchemeSpec;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A block shaped like an LLM activation tile: a small-valued body with
    // one 40x outlier (paper Fig. 1(a)).
    let mut activations = vec![0.0f32; 32];
    for (i, a) in activations.iter_mut().enumerate() {
        *a = ((i as f32 * 0.7).sin()) * 0.15;
    }
    activations[5] = 6.0;

    // The two formats under comparison, by scheme string: each lowers to
    // a point of the block-format algebra.
    let point = |id: &str| -> Result<FormatAlgebra, Box<dyn std::error::Error>> {
        Ok(id.parse::<SchemeSpec>()?.algebra()?.expect("block scheme"))
    };
    let (bfp, bbfp) = (point("bfp4")?, point("bbfp:4,2")?);

    // Vanilla BFP4: everything aligns to the outlier's exponent.
    // BBFP(4,2): shared exponent sits max-(m-o) below; the outlier is
    // flagged into the high window instead (paper Eq. 9).
    let quantise = |alg: &FormatAlgebra, xs: &[f32]| {
        let mut out = vec![0.0; xs.len()];
        algebra_quantize_slice(xs, alg, RNE, &mut out);
        out
    };
    let bfp_rec = quantise(&bfp, &activations);
    let bbfp_rec = quantise(&bbfp, &activations);

    let mse = |rec: &[f32]| -> f64 {
        activations
            .iter()
            .zip(rec)
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / 32.0
    };

    println!("original[5] (outlier) = {:.3}", activations[5]);
    println!(
        "  BFP4  -> {:.3}   BBFP(4,2) -> {:.3}",
        bfp_rec[5], bbfp_rec[5]
    );
    println!("original[2] (body)    = {:.4}", activations[2]);
    println!(
        "  BFP4  -> {:.4}   BBFP(4,2) -> {:.4}",
        bfp_rec[2], bbfp_rec[2]
    );
    println!(
        "block MSE: BFP4 = {:.6}, BBFP(4,2) = {:.6}",
        mse(&bfp_rec),
        mse(&bbfp_rec)
    );

    // The element encoder shows where each value landed: the shared
    // exponent, and which elements took the high window.
    let fp16: Vec<Fp16> = activations
        .iter()
        .map(|&v| Fp16::from_f32_saturating(v))
        .collect();
    let mut elements = vec![BbfpElement::default(); 32];
    let bfp_shared = encode_elements(&fp16, &bfp, bfp.exponent_policy(), RNE, &mut elements);
    let bbfp_shared = encode_elements(&fp16, &bbfp, bbfp.exponent_policy(), RNE, &mut elements);
    println!(
        "shared exponents: BFP = {bfp_shared}, BBFP = {bbfp_shared} (flagged elements: {})",
        elements.iter().filter(|e| e.flag).count()
    );

    // The dot product stays fixed-point (paper Eq. 7/10): multiply the
    // integer codes (the flag's shift folded in), add the block exponents
    // once.
    let weights = vec![0.05f32; 32];
    let (mut a, mut w) = (vec![0.0; 32], vec![0.0; 32]);
    let ea = algebra_encode_slice(&activations, &bbfp, &mut a)[0];
    let ew = algebra_encode_slice(&weights, &bbfp, &mut w)[0];
    let acc: i64 = a.iter().zip(&w).map(|(x, y)| *x as i64 * *y as i64).sum();
    let fixed = acc as f64 * ((ea + ew) as f64).exp2();
    let reference: f64 = bbfp_rec
        .iter()
        .zip(quantise(&bbfp, &weights))
        .map(|(a, b)| *a as f64 * b as f64)
        .sum();
    println!(
        "fixed-point dot = {fixed:.6} (acc {acc} x 2^{}), dequantised reference = {reference:.6}",
        ea + ew
    );
    Ok(())
}
