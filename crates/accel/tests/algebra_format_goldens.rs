//! Storage-width goldens for the accelerator's block formats: the
//! amortised bits per weight and activation element that
//! `FormatSpec::from_scheme` derives, pinned with exact `f64` equality
//! to the values the hand-written BFP/BBFP specifications produced.

use bbal_accel::FormatSpec;
use bbal_core::SchemeSpec;

#[test]
fn algebra_format_spec_bits_match_goldens() {
    let golden = [
        (SchemeSpec::Bfp(8), 9.15625),
        (SchemeSpec::Bfp(6), 7.15625),
        (SchemeSpec::Bfp(4), 5.15625),
        (SchemeSpec::Bbfp(8, 4), 10.15625),
        (SchemeSpec::Bbfp(3, 1), 5.15625),
        (SchemeSpec::Bbfp(3, 2), 5.15625),
        (SchemeSpec::Bbfp(4, 2), 6.15625),
        (SchemeSpec::Bbfp(4, 3), 6.15625),
        (SchemeSpec::Bbfp(6, 0), 8.15625),
        (SchemeSpec::Bbfp(6, 1), 8.15625),
        (SchemeSpec::Bbfp(6, 2), 8.15625),
        (SchemeSpec::Bbfp(6, 3), 8.15625),
        (SchemeSpec::Bbfp(6, 4), 8.15625),
        (SchemeSpec::Bbfp(6, 5), 8.15625),
    ];
    for (scheme, bits) in golden {
        let spec = FormatSpec::from_scheme(scheme).unwrap();
        assert_eq!(spec.weight_bits, bits, "{scheme} weight bits");
        assert_eq!(spec.activation_bits, bits, "{scheme} activation bits");
    }
}
