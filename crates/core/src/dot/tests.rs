//! Bit-exact block dot products (paper Eqs. 3, 7 and 10) on the algebra's
//! integer codes: both BFP and BBFP reduce a floating-point dot product
//! to integer multiply-accumulate plus one exponent addition, and BBFP's
//! flag-controlled left shift (Eq. 10) is already folded into its codes.

use crate::algebra::{algebra_encode_slice, algebra_quantize_slice, encode_elements};
use crate::algebra::{BbfpElement, FormatAlgebra};
use crate::fp16::Fp16;
use crate::rounding::RoundingMode;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn data(n: usize, seed: u64, outliers: bool) -> Vec<f32> {
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
            let body = (next() - 0.5) as f32;
            if outliers && u < 0.05 {
                body * 30.0
            } else {
                body
            }
        })
        .collect()
}

/// One block's codes and exponent.
fn codes(block: &[f32], alg: &FormatAlgebra) -> (Vec<f32>, i32) {
    let mut codes = vec![0.0; block.len()];
    let e = algebra_encode_slice(block, alg, &mut codes);
    assert_eq!(e.len(), 1, "one block");
    (codes, e[0])
}

/// The PE array's block dot: `Σ code_a·code_b` in `i64`, scaled once by
/// `2^(e_a + e_b)`.
fn block_dot(a: &[f32], b: &[f32], alg: &FormatAlgebra) -> f64 {
    let ((ca, ea), (cb, eb)) = (codes(a, alg), codes(b, alg));
    let acc: i64 = ca.iter().zip(&cb).map(|(x, y)| *x as i64 * *y as i64).sum();
    acc as f64 * ((ea + eb) as f64).exp2()
}

/// The f64 dot of the two dequantised blocks.
fn dequantised_dot(a: &[f32], b: &[f32], alg: &FormatAlgebra) -> f64 {
    let (mut qa, mut qb) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    algebra_quantize_slice(a, alg, RNE, &mut qa);
    algebra_quantize_slice(b, alg, RNE, &mut qb);
    qa.iter().zip(&qb).map(|(x, y)| *x as f64 * *y as f64).sum()
}

fn elements(block: &[f32], alg: &FormatAlgebra) -> Vec<BbfpElement> {
    let fp16: Vec<Fp16> = block
        .iter()
        .map(|&v| Fp16::from_f32_saturating(v))
        .collect();
    let mut out = vec![BbfpElement::default(); block.len()];
    encode_elements(&fp16, alg, alg.exponent_policy(), RNE, &mut out);
    out
}

#[test]
fn bfp_dot_matches_dequantised_reference() {
    let alg = FormatAlgebra::bfp(6).unwrap();
    let (a, b) = (data(32, 1, true), data(32, 2, false));
    let fixed = block_dot(&a, &b, &alg);
    let reference = dequantised_dot(&a, &b, &alg);
    assert!((fixed - reference).abs() < 1e-9, "{fixed} vs {reference}");
}

#[test]
fn bbfp_dot_matches_dequantised_reference() {
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let (a, b) = (data(32, 3, true), data(32, 4, true));
    let fixed = block_dot(&a, &b, &alg);
    let reference = dequantised_dot(&a, &b, &alg);
    assert!((fixed - reference).abs() < 1e-9, "{fixed} vs {reference}");
}

/// Eq. 10 for BBFP(4,2): a product of two codes is the product of the
/// mantissas shifted left by 0, 2 or 4 bits, as zero, one or both
/// operands are flagged; every shift occurs on outlier data.
#[test]
fn product_format_matches_eq10() {
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let (a, b) = (data(32, 5, true), data(32, 6, true));
    let (ca, cb) = (codes(&a, &alg).0, codes(&b, &alg).0);
    let (ea, eb) = (elements(&a, &alg), elements(&b, &alg));
    let mut shifts = [false; 3];
    for i in 0..32 {
        // Each a[i] against b[i], and against itself, so that both
        // operands of some product are flagged.
        for (x, y, cx, cy) in [(ea[i], eb[i], ca[i], cb[i]), (ea[i], ea[i], ca[i], ca[i])] {
            let flag_code = x.flag as usize + y.flag as usize;
            shifts[flag_code] = true;
            let widened = (x.mantissa as i64 * y.mantissa as i64) << (2 * flag_code);
            assert_eq!((cx as i64 * cy as i64).abs(), widened, "idx {i}");
        }
    }
    assert_eq!(shifts, [true; 3], "flag codes 0, 1 and 2 all occur");
}

#[test]
fn product_mantissa_fits_2m_bits() {
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let (a, b) = (data(32, 5, true), data(32, 6, true));
    let (ca, cb) = (codes(&a, &alg).0, codes(&b, &alg).0);
    for (i, (x, y)) in elements(&a, &alg)
        .iter()
        .zip(elements(&b, &alg))
        .enumerate()
    {
        let mantissa = x.mantissa as u32 * y.mantissa as u32;
        assert!(mantissa < 1 << 8, "4-bit x 4-bit fits in 8 bits");
        assert!(x.flag as u8 + y.flag as u8 <= 2);
        // Widened product fits 12 bits for (4,2), as Fig 5(a) shows.
        assert!((ca[i] as i64 * cb[i] as i64).abs() < 1 << 12);
    }
}

#[test]
fn sign_is_xor_of_operand_signs() {
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let a = vec![1.0f32; 32];
    let mut b = vec![1.0f32; 32];
    b[0] = -1.0;
    let (ca, cb) = (codes(&a, &alg).0, codes(&b, &alg).0);
    let (xa, xb) = (elements(&a, &alg), elements(&b, &alg));
    assert!(xa[0].sign ^ xb[0].sign);
    assert!(!(xa[1].sign ^ xb[1].sign));
    assert!(ca[0] * cb[0] < 0.0);
    assert!(ca[1] * cb[1] > 0.0);
}

#[test]
fn bbfp_dot_more_accurate_than_bfp_dot_on_outlier_data() {
    // Accumulated over many blocks, the BBFP dot should track the exact
    // f64 dot better than BFP at equal mantissa width.
    let a = data(1024, 8, true);
    let b = data(1024, 9, true);
    let exact: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();

    let bbfp = FormatAlgebra::bbfp(4, 2).unwrap();
    let bfp = FormatAlgebra::bfp(4).unwrap();
    let mut bbfp_sum = 0.0;
    let mut bfp_sum = 0.0;
    for i in (0..1024).step_by(32) {
        let (sa, sb) = (&a[i..i + 32], &b[i..i + 32]);
        bbfp_sum += block_dot(sa, sb, &bbfp);
        bfp_sum += block_dot(sa, sb, &bfp);
    }
    assert!(
        (bbfp_sum - exact).abs() < (bfp_sum - exact).abs(),
        "bbfp err {} vs bfp err {}",
        (bbfp_sum - exact).abs(),
        (bfp_sum - exact).abs()
    );
}
