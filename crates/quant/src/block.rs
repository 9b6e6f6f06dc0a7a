//! The block-format quantiser as an inference hook — the thin adapter
//! that carries every `bbal-core` block format (BFP, BBFP, MX, MSFP,
//! block minifloat) into the transformer forward pass.

use bbal_core::{algebra_quantize_in_place, FormatAlgebra, RoundingMode, SchemeSpec};
use bbal_llm::{InferenceHooks, StatsSpan};

/// Block-format quantiser for any packable point of the
/// [`FormatAlgebra`] — the single hook set behind every block scheme
/// family. The adapter is *derived*: the algebra point fixes the codec,
/// the stats span, and the display name with no per-family code.
///
/// ```
/// use bbal_core::SchemeSpec;
/// use bbal_llm::InferenceHooks;
/// use bbal_quant::AlgebraQuantizer;
///
/// let q = AlgebraQuantizer::from_scheme(SchemeSpec::Bbfp(4, 2))?;
/// let mut acts = vec![0.1f32; 64];
/// acts[0] = 12.5; // an outlier
/// q.transform_activations(&mut acts);
/// assert!((acts[0] - 12.5).abs() < 1.0); // outlier survives
/// # Ok::<(), bbal_core::SchemeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgebraQuantizer {
    /// The format-algebra point this quantiser encodes to.
    pub algebra: FormatAlgebra,
    /// Rounding mode (RNE, matching every other block quantiser).
    pub rounding: RoundingMode,
    scheme: SchemeSpec,
}

impl AlgebraQuantizer {
    /// Creates the quantiser for a block-format scheme.
    ///
    /// # Errors
    ///
    /// Propagates the scheme's [`bbal_core::SchemeError`] for invalid
    /// width parameters, and `NoHardwareMapping` for schemes that are
    /// not packable block formats.
    pub fn from_scheme(scheme: SchemeSpec) -> Result<AlgebraQuantizer, bbal_core::SchemeError> {
        scheme.validate()?;
        let algebra = scheme
            .block_algebra()
            .ok_or(bbal_core::SchemeError::NoHardwareMapping(scheme))?;
        Ok(AlgebraQuantizer {
            algebra,
            rounding: RoundingMode::NearestEven,
            scheme,
        })
    }

    fn apply(&self, data: &mut [f32]) {
        algebra_quantize_in_place(data, &self.algebra, self.rounding);
    }
}

impl InferenceHooks for AlgebraQuantizer {
    fn transform_weights(&self, weights: &mut [f32]) {
        self.apply(weights);
    }

    fn transform_activations(&self, activations: &mut [f32]) {
        self.apply(activations);
    }

    fn activation_stats_span(&self) -> StatsSpan {
        StatsSpan::Blocks(self.algebra.block_size)
    }

    fn name(&self) -> String {
        self.scheme.paper_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_core::reference::{bbfp_quantize_slice, bfp_quantize_slice};
    use bbal_core::{BbfpConfig, BfpConfig};

    fn outlier_data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let body = ((i * 37 % 101) as f32 - 50.0) * 0.005;
                if i % 53 == 0 {
                    body * 40.0
                } else {
                    body
                }
            })
            .collect()
    }

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / a.len() as f64
    }

    fn quantizer(scheme: SchemeSpec) -> AlgebraQuantizer {
        AlgebraQuantizer::from_scheme(scheme).unwrap()
    }

    #[test]
    fn bbfp_beats_bfp_at_equal_width() {
        let data = outlier_data(2048);
        let mut bfp = data.clone();
        let mut bbfp = data.clone();
        quantizer(SchemeSpec::Bfp(4)).apply(&mut bfp);
        quantizer(SchemeSpec::Bbfp(4, 2)).apply(&mut bbfp);
        assert!(mse(&data, &bbfp) < mse(&data, &bfp));
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(quantizer(SchemeSpec::Bfp(6)).name(), "BFP6");
        assert_eq!(quantizer(SchemeSpec::Bbfp(6, 3)).name(), "BBFP(6,3)");
        assert_eq!(quantizer(SchemeSpec::Bbfp(6, 0)).name(), "BBFP(6,0)");
    }

    #[test]
    fn weights_and_activations_use_same_format() {
        let q = quantizer(SchemeSpec::Bbfp(4, 2));
        let data = outlier_data(256);
        let mut w = data.clone();
        let mut a = data.clone();
        q.transform_weights(&mut w);
        q.transform_activations(&mut a);
        assert_eq!(w, a);
    }

    #[test]
    fn invalid_configs_propagate_errors() {
        assert!(AlgebraQuantizer::from_scheme(SchemeSpec::Bfp(0)).is_err());
        assert!(AlgebraQuantizer::from_scheme(SchemeSpec::Bbfp(4, 4)).is_err());
        assert!(AlgebraQuantizer::from_scheme(SchemeSpec::Mx(9, 4, 2)).is_err());
        assert!(AlgebraQuantizer::from_scheme(SchemeSpec::Oltron).is_err());
        assert!(AlgebraQuantizer::from_scheme(SchemeSpec::Fp16).is_err());
    }

    #[test]
    fn algebra_quantizer_matches_reference_encoders() {
        // The reference slice encoders stay in bbal-core; the hook must
        // reproduce them bit for bit on every BFP/BBFP point, NaN included:
        // a NaN quantises to NaN and its block scales by the rest.
        let clean = outlier_data(300);
        let mut nan = clean.clone();
        nan[3] = f32::NAN;
        nan[40] = -f32::NAN;
        for (scheme, data) in SchemeSpec::enumerate()
            .into_iter()
            .flat_map(|s| [(s, &clean), (s, &nan)])
        {
            let mut expect = vec![0.0; data.len()];
            match scheme {
                SchemeSpec::Bfp(m) => bfp_quantize_slice(
                    data,
                    BfpConfig::new(m).unwrap(),
                    RoundingMode::NearestEven,
                    &mut expect,
                ),
                SchemeSpec::Bbfp(m, o) => bbfp_quantize_slice(
                    data,
                    BbfpConfig::new(m, o).unwrap(),
                    RoundingMode::NearestEven,
                    &mut expect,
                ),
                _ => continue,
            }
            let mut got = data.clone();
            quantizer(scheme).transform_activations(&mut got);
            let same = got
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{scheme}");
            let nan_where_nan = |i: usize| data[i].is_nan() != expect[i].is_finite();
            assert!((0..data.len()).all(nan_where_nan), "{scheme}");
        }
    }

    #[test]
    fn algebra_quantizer_derives_name_span_and_idempotence() {
        for scheme in [
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let q = AlgebraQuantizer::from_scheme(scheme).unwrap();
            assert_eq!(q.name(), scheme.paper_name());
            assert_eq!(
                q.activation_stats_span(),
                StatsSpan::Blocks(q.algebra.block_size)
            );
            let data = outlier_data(256);
            let mut once = data.clone();
            q.transform_weights(&mut once);
            let mut twice = once.clone();
            q.transform_weights(&mut twice);
            assert_eq!(once, twice, "{scheme}");
        }
    }

    #[test]
    fn msfp_matches_bfp_quantizer_at_same_point() {
        // MSFP with a 32-wide block is numerically plain BFP; at other
        // block sizes it is the same encoder over a different tile.
        let q = AlgebraQuantizer::from_scheme(SchemeSpec::Msfp(4, 16)).unwrap();
        let data = outlier_data(512);
        let mut a = data.clone();
        q.transform_weights(&mut a);
        let mut b = data.clone();
        bfp_quantize_slice(
            &b.clone(),
            BfpConfig::with_block_size(4, 16).unwrap(),
            RoundingMode::NearestEven,
            &mut b,
        );
        assert_eq!(a, b);
    }
}
