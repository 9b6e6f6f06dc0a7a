//! BFP and BBFP are plain points of the format algebra.
//!
//! BBFP(m, o) is BFP(m) plus a window flag and an `o`-bit overlap, and
//! `o = 0` is a valid member of the family: it is Algorithm 1's first
//! candidate and the row Fig. 4 normalises to. Its algebra point must
//! therefore keep the flag — the same storage cost, the same
//! quantiser output, the same name, a packed block layout and the same
//! KV footprint as every other BBFP point — rather than collapsing into
//! the unflagged BFP(m) point.

use bbal::core::{
    algebra_quantize_slice, bbfp_quantize_slice, BbfpConfig, LayoutKind, PackedMatrix,
    RoundingMode, SchemeSpec,
};
use bbal::mem::kv_bits_per_element;

/// 100 values (three full 32-blocks and a ragged tail) with a few
/// outliers, so both BBFP windows are exercised.
fn outlier_data() -> Vec<f32> {
    (0..100)
        .map(|i| {
            let body = ((i * 37 % 101) as f32 - 50.0) * 0.013;
            if i % 29 == 0 {
                body * 23.0
            } else {
                body
            }
        })
        .collect()
}

#[test]
fn algebra_bbfp_points_match_their_reference_format_including_zero_overlap() {
    let raw = outlier_data();
    let mut seen_zero_overlap = 0;
    for scheme in SchemeSpec::enumerate() {
        let SchemeSpec::Bbfp(m, o) = scheme else {
            continue;
        };
        seen_zero_overlap += usize::from(o == 0);
        let alg = scheme.algebra().unwrap().unwrap();
        let cfg = BbfpConfig::new(m, o).unwrap();
        assert_eq!(alg.cost(), cfg.cost(), "{scheme} storage cost");
        assert_eq!(alg.display_name(), scheme.paper_name(), "{scheme} name");

        let mut got = vec![0.0; raw.len()];
        algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut got);
        let mut want = vec![0.0; raw.len()];
        bbfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{scheme} idx {i}: {g} vs {w}");
        }

        // The reference quantiser's output packs natively, exactly.
        let packed = PackedMatrix::pack(&want, 4, 25, scheme);
        assert_eq!(packed.layout_kind(), LayoutKind::Block, "{scheme} layout");
        assert_eq!(packed.decode(), want, "{scheme} packed round trip");
    }
    assert_eq!(seen_zero_overlap, 10, "every BBFP(m,0) is enumerated");

    let bbfp60: SchemeSpec = "bbfp:6,0".parse().unwrap();
    assert_eq!(kv_bits_per_element(bbfp60), 8.15625);
}
