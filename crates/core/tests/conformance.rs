//! Golden-vector conformance tests: the BBFP(4,2) encoding of paper
//! Eq. (4), worked bit by bit.
//!
//! Eq. (4) on an 11-bit FP16 significand (bit 11 = implicit one):
//!
//! ```text
//!   x_BBFP(4,2) = Clip(x << n)₁₃,₁₀  if Flag = 1   (take bits 13..10)
//!               = Clip(x >> n)₁₁,₈   if Flag = 0   (take bits 11..8)
//! ```

use bbal_core::{
    algebra_encode_slice, algebra_quantize_slice, encode_elements, BbfpElement, FormatAlgebra,
    Fp16, RoundingMode,
};

const RNE: RoundingMode = RoundingMode::NearestEven;

/// One block through the algebra's element encoder: its shared exponent,
/// elements, and the values the quantiser decodes them to.
struct Encoded {
    shared: i32,
    elements: Vec<BbfpElement>,
    values: Vec<f32>,
}

fn encode(data: &[f32], alg: &FormatAlgebra) -> Encoded {
    let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
    let mut elements = vec![BbfpElement::default(); data.len()];
    let shared = encode_elements(&fp16, alg, alg.exponent_policy(), RNE, &mut elements);
    let mut values = vec![0.0; data.len()];
    algebra_quantize_slice(data, alg, RNE, &mut values);
    Encoded {
        shared,
        elements,
        values,
    }
}

/// The power-of-two scale of one low-window mantissa unit.
fn scale_exponent(e: &Encoded, alg: &FormatAlgebra) -> i32 {
    e.shared - 14 - alg.mantissa_bits as i32
}

/// Builds a 32-block whose first elements are the probes and the rest a
/// constant filler that fixes the block maximum exponent.
fn probe_block(probes: &[f32], max_driver: f32) -> Vec<f32> {
    let mut v = vec![0.0f32; 32];
    v[0] = max_driver;
    v[1..1 + probes.len()].copy_from_slice(probes);
    v
}

#[test]
fn eq4_low_window_golden_vector() {
    // Block max = 8.0 (biased exp 18) -> shared = 18 - 2 = 16 (Eq. 9).
    // Probe 3.0 = 1.5 x 2^1: M = 0b110_0000_0000, exp 15.
    // Flag = 0 (15 <= 16); shift = (11-4) + (16-15) = 8:
    //   q = round(0b110_0000_0000 >> 8) = 0b110 = 6.
    // Low-window step = 2^(S-14-m) = 2^-2, so 3.0 = 12 x 0.25 -> q = 12
    // exactly (no rounding needed):
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let data = probe_block(&[3.0], 8.0);
    let block = encode(&data, &alg);
    assert_eq!(block.shared, 18 - 2);
    let el = block.elements[1];
    assert!(!el.flag, "3.0 sits below the shared exponent");
    // 3.0 / 2^(16-14-4) = 3.0 / 0.25 = 12.
    assert_eq!(el.mantissa, 12);
    assert_eq!(block.values[1], 3.0);
}

#[test]
fn eq4_high_window_golden_vector() {
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    // Block max 8.0 -> shared 16. Probe 8.0 itself: exp 18 > 16 -> Flag=1.
    // Window scale: q x f x 2^(S-14-m) with f = 2^(m-o) = 4:
    // 8.0 / (4 x 0.25) = 8 -> mantissa 8 = 0b1000.
    let data = probe_block(&[], 8.0);
    let block = encode(&data, &alg);
    let el = block.elements[0];
    assert!(el.flag);
    assert_eq!(el.mantissa, 8);
    assert_eq!(block.values[0], 8.0);
    // Its integer code folds the flag in: 8 << (m - o) = 32 units of 2^-2.
    let mut codes = vec![0.0; 32];
    let e = algebra_encode_slice(&data, &alg, &mut codes);
    assert_eq!((codes[0], e[0]), (32.0, scale_exponent(&block, &alg)));
}

#[test]
fn eq4_overlap_preserves_three_bits() {
    // The paper: "with the addition of two overlap bits, truncation starts
    // from the 10th bit of the original mantissa, preserving 3 bits".
    // Probe 7.5 = 1.875 x 2^2 (M = 0b111_1000_0000, exp 17 > shared 16):
    // flagged, q = round(M >> (11-2-1)) = round(M/256) = round(7.5) -> 8?
    // M = 0b111_1000_0000 = 1920; shift = (11-o) - (e-S) = 9 - 1 = 8;
    // q = round(1920/256) = round(7.5) -> 8 (ties to even).
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let data = probe_block(&[7.5], 8.0);
    let block = encode(&data, &alg);
    let el = block.elements[1];
    assert!(el.flag);
    assert_eq!(el.mantissa, 8);
    // Decoded 8 x 4 x 0.25 = 8.0: within one flagged step of 7.5.
    assert_eq!(block.values[1], 8.0);

    // Without overlap (BBFP(4,0)): shared = 18-4 = 14; 7.5's shift =
    // (11-0) - (17-14) = 8 -> q = round(1920/256) = 8 again but the step
    // is 2^(m-o)=16x coarser: decoded 8 x 16 x 2^(14-18) = 8.0. The
    // difference shows on a finer probe:
    let alg0 = FormatAlgebra::bbfp(4, 0).unwrap();
    let fine = probe_block(&[6.5], 8.0);
    let b2 = encode(&fine, &alg0);
    let b1 = encode(&fine, &alg);
    let err0 = (b2.values[1] - 6.5).abs();
    let err2 = (b1.values[1] - 6.5).abs();
    assert!(
        err2 <= err0,
        "overlap bits reduce flagged truncation: {err2} vs {err0}"
    );
}

#[test]
fn bfp_matches_max_aligned_reference_on_all_exponents() {
    // Sweep one probe across every binade against a fixed max: the BFP
    // mantissa must equal round(value / step) for the max exponent's step.
    let alg = FormatAlgebra::bfp(6).unwrap();
    for p in -8i32..4 {
        let probe = (2.0f32).powi(p) * 1.25;
        let data = probe_block(&[probe], 8.0);
        let block = encode(&data, &alg);
        let step = 2.0f64.powi(scale_exponent(&block, &alg));
        let exact = probe as f64 / step;
        let got = block.elements[1].mantissa as f64;
        // Round-to-nearest-even: the stored mantissa is within half a unit
        // of the exact ratio (ties may go either way of f64's `round`).
        assert!(
            (got - exact).abs() <= 0.5 + 1e-9,
            "probe 2^{p}: mantissa {got} vs exact {exact}"
        );
    }
}

#[test]
fn all_fp16_values_survive_their_own_block() {
    // Any single finite value, in a block by itself (others zero), must
    // decode to within one low-window step of its FP16 value for every
    // configuration.
    for (m, o) in [(3u8, 1u8), (4, 2), (6, 3), (10, 5)] {
        let alg = FormatAlgebra::bbfp(m, o).unwrap();
        for bits in (0u16..0x7C00).step_by(197) {
            let v = Fp16::from_bits(bits).to_f32();
            let mut data = vec![0.0f32; 32];
            data[0] = v;
            let block = encode(&data, &alg);
            let el = block.elements[0];
            // Top-of-range rounding can saturate the mantissa (documented
            // behaviour); the bound applies to unsaturated encodings.
            if el.mantissa == (1u16 << m) - 1 {
                continue;
            }
            let back = block.values[0];
            let step = 2.0f64.powi(scale_exponent(&block, &alg))
                * if el.flag {
                    (1u32 << (m - o)) as f64
                } else {
                    1.0
                };
            assert!(
                ((back - v) as f64).abs() <= step * 0.5 + 1e-12,
                "BBFP({m},{o}) bits {bits:#06x}: {v} -> {back}"
            );
        }
    }
}

#[test]
fn product_format_bits_match_fig5a() {
    // Fig 5(a): BBFP(4,2) products are stored as 2-bit flag + sign +
    // 8-bit mantissa, widening to 12 bits with the shift applied: the
    // PE array's product of two codes.
    let alg = FormatAlgebra::bbfp(4, 2).unwrap();
    let data = probe_block(&[3.0, -2.0, 0.5], 8.0);
    let a = encode(&data, &alg);
    let b = encode(&data, &alg);
    let mut codes = vec![0.0; 32];
    algebra_encode_slice(&data, &alg, &mut codes);
    for ((x, y), c) in a.elements.iter().zip(&b.elements).zip(&codes) {
        let mantissa = x.mantissa as u32 * y.mantissa as u32;
        let flag_code = x.flag as u32 + y.flag as u32;
        assert!(mantissa <= 0xFF);
        assert!(flag_code <= 2);
        let widened = (c * c) as u32;
        assert_eq!(widened, mantissa << (2 * flag_code));
        assert!(widened < (1 << 12));
    }
}
