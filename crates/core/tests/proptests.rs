//! Property-based tests for the BBFP/BFP format layer.

use bbal_core::{
    algebra_encode_slice, algebra_quantize_slice, algebra_quantize_slice_with, analysis,
    encode_elements, BbfpElement, ExponentPolicy, FormatAlgebra, Fp16, RoundingMode,
};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Spread across many binades including subnormal-f16 territory.
    prop_oneof![
        -1000.0f32..1000.0,
        -1.0f32..1.0,
        -1e-5f32..1e-5,
        Just(0.0f32),
        Just(-0.0f32),
        Just(65504.0f32),
        Just(-65504.0f32),
    ]
}

fn block32() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(finite_f32(), 32)
}

fn bbfp_config() -> impl Strategy<Value = FormatAlgebra> {
    (1u8..=10)
        .prop_flat_map(|m| (Just(m), 0..m))
        .prop_map(|(m, o)| FormatAlgebra::bbfp(m, o).unwrap())
}

fn bfp_config() -> impl Strategy<Value = FormatAlgebra> {
    (1u8..=10).prop_map(|m| FormatAlgebra::bfp(m).unwrap())
}

const RNE: RoundingMode = RoundingMode::NearestEven;

fn quantise(data: &[f32], alg: &FormatAlgebra) -> Vec<f32> {
    let mut out = vec![0.0; data.len()];
    algebra_quantize_slice(data, alg, RNE, &mut out);
    out
}

/// One block's shared exponent and elements from the element encoder.
fn encode(data: &[f32], alg: &FormatAlgebra) -> (i32, Vec<BbfpElement>) {
    let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
    let mut elements = vec![BbfpElement::default(); data.len()];
    let shared = encode_elements(&fp16, alg, alg.exponent_policy(), RNE, &mut elements);
    (shared, elements)
}

/// The PE array's block dot on the algebra's codes, and the f64 dot of
/// the dequantised blocks it must equal.
fn dots(a: &[f32], b: &[f32], alg: &FormatAlgebra) -> (f64, f64) {
    let (mut ca, mut cb) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    let ea = algebra_encode_slice(a, alg, &mut ca)[0];
    let eb = algebra_encode_slice(b, alg, &mut cb)[0];
    let acc: i64 = ca.iter().zip(&cb).map(|(x, y)| *x as i64 * *y as i64).sum();
    let fixed = acc as f64 * ((ea + eb) as f64).exp2();
    let reference = quantise(a, alg)
        .iter()
        .zip(&quantise(b, alg))
        .map(|(x, y)| *x as f64 * *y as f64)
        .sum();
    (fixed, reference)
}

proptest! {
    /// FP16 -> f32 -> FP16 is the identity on every finite bit pattern.
    #[test]
    fn fp16_round_trip(bits in 0u16..=0xFFFF) {
        let v = Fp16::from_bits(bits);
        prop_assume!(v.is_finite());
        prop_assert_eq!(Fp16::from_f32(v.to_f32()).to_bits(), bits);
    }

    /// f32 -> FP16 never moves a value by more than half a ULP of the
    /// magnitude (or the subnormal step for tiny values).
    #[test]
    fn fp16_narrowing_error_bounded(v in -60000.0f32..60000.0) {
        let h = Fp16::from_f32(v).to_f32();
        let ulp = (v.abs().max(2.0f32.powi(-14))) * 2.0f32.powi(-11);
        let step = ulp.max(2.0f32.powi(-25));
        prop_assert!((h - v).abs() <= step, "{v} -> {h}");
    }

    /// The significand identity v = ±M × 2^(E−25) holds for all finite
    /// bit patterns (tested exhaustively in unit tests for key values;
    /// here on random patterns).
    #[test]
    fn significand_identity(bits in 0u16..0x7C00u16) {
        let v = Fp16::from_bits(bits);
        let (m, e) = v.significand();
        let rebuilt = m as f64 * 2f64.powi(e - 25);
        prop_assert_eq!(rebuilt as f32, v.to_f32());
    }

    /// BFP reconstruction error per element is bounded by half the block
    /// step (plus FP16 narrowing error), except where saturated.
    #[test]
    fn bfp_error_bound(data in block32(), cfg in bfp_config()) {
        let (shared, elements) = encode(&data, &cfg);
        let values = quantise(&data, &cfg);
        let step = 2f64.powi(shared - 14 - cfg.mantissa_bits as i32);
        let max_m = (1u32 << cfg.mantissa_bits) - 1;
        for (i, &orig) in data.iter().enumerate() {
            let h = Fp16::from_f32_saturating(orig).to_f32() as f64;
            let back = values[i] as f64;
            if elements[i].mantissa as u32 != max_m {
                prop_assert!((h - back).abs() <= step * 0.5 + 1e-12,
                    "i={i} orig={orig} back={back} step={step}");
            }
        }
    }

    /// BBFP reconstruction error per element is bounded by half the step
    /// times the element's flag scale, except where saturated.
    #[test]
    fn bbfp_error_bound(data in block32(), cfg in bbfp_config()) {
        let (shared, elements) = encode(&data, &cfg);
        let values = quantise(&data, &cfg);
        let step = 2f64.powi(shared - 14 - cfg.mantissa_bits as i32);
        let max_m = (1u32 << cfg.mantissa_bits) - 1;
        let flag_scale = (1u32 << cfg.window_gap().unwrap()) as f64;
        for (i, &orig) in data.iter().enumerate() {
            let h = Fp16::from_f32_saturating(orig).to_f32() as f64;
            let back = values[i] as f64;
            let el = elements[i];
            let f = if el.flag { flag_scale } else { 1.0 };
            if el.mantissa as u32 != max_m {
                prop_assert!((h - back).abs() <= step * f * 0.5 + 1e-12,
                    "i={i} orig={orig} back={back} step={step} f={f}");
            }
        }
    }

    /// The fixed-point BBFP dot product exactly equals the dequantised
    /// floating-point dot product.
    #[test]
    fn bbfp_dot_exactness(a in block32(), b in block32(), cfg in bbfp_config()) {
        let (fixed, reference) = dots(&a, &b, &cfg);
        let tol = reference.abs().max(1.0) * 1e-6;
        prop_assert!((fixed - reference).abs() <= tol, "{fixed} vs {reference}");
    }

    /// Same exactness for BFP.
    #[test]
    fn bfp_dot_exactness(a in block32(), b in block32(), cfg in bfp_config()) {
        let (fixed, reference) = dots(&a, &b, &cfg);
        let tol = reference.abs().max(1.0) * 1e-6;
        prop_assert!((fixed - reference).abs() <= tol, "{fixed} vs {reference}");
    }

    /// Quantisation is idempotent: re-quantising a reconstruction returns
    /// the same values.
    #[test]
    fn bbfp_idempotent(data in block32(), cfg in bbfp_config()) {
        let once = quantise(&data, &cfg);
        let twice = quantise(&once, &cfg);
        for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
            prop_assert_eq!(a, b, "index {}", i);
        }
    }

    /// The Max policy with offset 0 makes BBFP numerically identical to
    /// BFP at equal mantissa width.
    #[test]
    fn max_policy_equals_bfp(data in block32(), m in 1u8..=10) {
        let o = m.saturating_sub(1);
        prop_assume!(o < m);
        let bbfp = FormatAlgebra::bbfp(m, o).unwrap();
        let mut bb = vec![0.0; data.len()];
        algebra_quantize_slice_with(&data, &bbfp, ExponentPolicy::Max, RNE, &mut bb);
        let bf = quantise(&data, &FormatAlgebra::bfp(m).unwrap());
        prop_assert_eq!(bb, bf);
    }

    /// MSE through the analysis helpers is non-negative and zero only for
    /// identical slices.
    #[test]
    fn mse_properties(data in block32()) {
        prop_assert_eq!(analysis::mse(&data, &data), 0.0);
        let mut shifted = data.clone();
        shifted[0] += 1.0;
        prop_assert!(analysis::mse(&data, &shifted) > 0.0);
    }

    /// Truncation rounding never produces a larger mantissa than
    /// nearest-even (so truncate-mode error is one-sided).
    #[test]
    fn truncate_le_nearest(data in block32(), cfg in bfp_config()) {
        let mut t = vec![0.0; data.len()];
        let mut n = vec![0.0; data.len()];
        algebra_quantize_slice(&data, &cfg, RoundingMode::Truncate, &mut t);
        algebra_quantize_slice(&data, &cfg, RoundingMode::NearestEven, &mut n);
        for (a, b) in t.iter().zip(&n) {
            prop_assert!(a.abs() <= b.abs() + 1e-12);
        }
    }
}

// --- SchemeSpec round-tripping -------------------------------------------

use bbal_core::{SchemeError, SchemeSpec};

fn scheme() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        Just(SchemeSpec::Fp32),
        Just(SchemeSpec::Fp16),
        Just(SchemeSpec::Olive),
        Just(SchemeSpec::Oltron),
        Just(SchemeSpec::OmniQuant),
        (2u8..=16).prop_map(SchemeSpec::Int),
        (1u8..=10).prop_map(SchemeSpec::Bfp),
        (1u8..=10)
            .prop_flat_map(|m| (Just(m), 0..m))
            .prop_map(|(m, o)| SchemeSpec::Bbfp(m, o)),
        (5u8..=8, 1u8..=10, 0u8..=4).prop_map(|(e, m, s)| SchemeSpec::Mx(e, m, 1u8 << s)),
        (1u8..=10, 2u8..=7).prop_map(|(m, b)| SchemeSpec::Msfp(m, 1u8 << b)),
        (2u8..=6, 1u8..=10, 2u8..=8).prop_map(|(e, m, w)| SchemeSpec::BlockMf(e, m, w)),
    ]
}

proptest! {
    /// `parse(display(s)) == s` over every valid scheme — the canonical
    /// string form is a lossless serialisation.
    #[test]
    fn scheme_spec_round_trips(s in scheme()) {
        prop_assert_eq!(s.to_string().parse::<SchemeSpec>().unwrap(), s);
    }

    /// The paper display names parse back to the same scheme too.
    #[test]
    fn scheme_paper_names_round_trip(s in scheme()) {
        prop_assert_eq!(s.paper_name().parse::<SchemeSpec>().unwrap(), s);
    }

    /// Every scheme the generator produces validates, and its derived
    /// block configurations (when applicable) echo its widths.
    #[test]
    fn generated_schemes_are_valid(s in scheme()) {
        prop_assert!(s.is_valid());
        s.validate().unwrap();
        if let SchemeSpec::Bbfp(m, o) = s {
            let cfg = s.bbfp_config().unwrap().unwrap();
            prop_assert_eq!((cfg.mantissa_bits(), cfg.overlap_bits()), (m, o));
        }
    }

    /// Every block-format scheme lowers to a format-algebra point whose
    /// storage cost is finite and whose payload fits the scheme's widths.
    #[test]
    fn block_schemes_lower_to_valid_algebra_points(s in scheme()) {
        if let Some(alg) = s.algebra().unwrap() {
            alg.validate().unwrap();
            let cost = alg.cost();
            prop_assert!(cost.equivalent_bit_width > 0.0);
            prop_assert!(cost.equivalent_bit_width <= 32.0);
        }
    }
}

#[test]
fn malformed_scheme_strings_are_typed_errors() {
    assert_eq!("".parse::<SchemeSpec>(), Err(SchemeError::Empty));
    assert!(matches!(
        "bfp".parse::<SchemeSpec>(),
        Err(SchemeError::BadParams { scheme: "bfp", .. })
    ));
    assert!(matches!(
        "bbfp:9,9".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    // The algebra families fail the same ways: missing params are
    // `BadParams` with the family's grammar, bad widths are typed
    // `FormatError`s, trailing garbage never parses.
    assert!(matches!(
        "mx:".parse::<SchemeSpec>(),
        Err(SchemeError::BadParams { scheme: "mx", .. })
    ));
    assert!(matches!(
        "msfp:0,32".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    assert!(matches!(
        "blockmf:9,9,9".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    for garbage in ["mx:8,4,2,9", "mx:8,4,2x", "msfp:4,16junk", "blockmf:4,3,"] {
        assert!(
            matches!(
                garbage.parse::<SchemeSpec>(),
                Err(SchemeError::BadParams { .. })
            ),
            "{garbage}"
        );
    }
}
