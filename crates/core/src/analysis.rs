//! Quantisation-error analysis (paper §III-B, Eq. 8).
//!
//! For round-to-nearest block floating point the roundoff error is zero-
//! mean with variance
//!
//! ```text
//!   σ² = (2^(−2·Lm) / 12) · Σᵢ p(γᵢ) · 2^(2·γᵢ)           (Eq. 8)
//! ```
//!
//! where `p(γ)` is the probability mass function of the *block exponent*.
//! At equal mantissa width the only lever is `p(γ)`: BBFP's Eq. 9 policy
//! shifts the whole pmf down by `m − o`, multiplying the unflagged-element
//! variance by `2^(−2(m−o))`. Flagged elements quantise on a coarser grid
//! (step × `2^(m−o)`), so the net variance interpolates between the two —
//! this module computes both the analytic prediction and empirical error
//! statistics so the trade-off can be measured.

use crate::format::{BbfpConfig, BfpConfig};
use crate::fp16::Fp16;
use crate::policy::ExponentPolicy;

/// Probability mass function over shared-exponent values, with the flagged
/// fraction recorded per exponent level (always 0 for BFP).
#[derive(Debug, Clone, PartialEq)]
pub struct ExponentPmf {
    /// `(shared_exponent, probability, flagged_fraction)` triples, sorted
    /// by exponent.
    pub levels: Vec<(i32, f64, f64)>,
}

impl ExponentPmf {
    /// Mean shared exponent.
    pub fn mean_exponent(&self) -> f64 {
        self.levels.iter().map(|(e, p, _)| *e as f64 * p).sum()
    }

    /// Overall flagged fraction.
    pub fn flagged_fraction(&self) -> f64 {
        self.levels.iter().map(|(_, p, f)| p * f).sum()
    }
}

/// Empirical pmf of the BFP shared exponent (block maxima) over a slice.
pub fn bfp_exponent_pmf(values: &[f32], config: BfpConfig) -> ExponentPmf {
    exponent_pmf(values, config.block_size(), ExponentPolicy::Max)
}

/// Empirical pmf of the BBFP shared exponent under a policy, with flagged
/// fractions.
pub fn bbfp_exponent_pmf(
    values: &[f32],
    config: BbfpConfig,
    policy: ExponentPolicy,
) -> ExponentPmf {
    exponent_pmf(values, config.block_size(), policy)
}

fn exponent_pmf(values: &[f32], block_size: usize, policy: ExponentPolicy) -> ExponentPmf {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<i32, (u64, u64, u64)> = BTreeMap::new(); // blocks, elems, flagged
    for chunk in values.chunks(block_size) {
        let fp16: Vec<Fp16> = chunk
            .iter()
            .map(|&v| Fp16::from_f32_saturating(v))
            .collect();
        let max_e = crate::algebra::max_exponent(&fp16);
        let shared = policy.shared_exponent(max_e);
        let entry = counts.entry(shared).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += chunk.len() as u64;
        for v in &fp16 {
            let (sig, exp) = v.significand();
            if sig != 0 && exp > shared {
                entry.2 += 1;
            }
        }
    }
    let total_blocks: u64 = counts.values().map(|(b, _, _)| *b).sum();
    let levels = counts
        .into_iter()
        .map(|(e, (b, n, f))| {
            (
                e,
                b as f64 / total_blocks.max(1) as f64,
                if n == 0 { 0.0 } else { f as f64 / n as f64 },
            )
        })
        .collect();
    ExponentPmf { levels }
}

/// Analytic error variance for an `m`-bit block format given a shared-
/// exponent pmf (Eq. 8 generalised with per-level flagged fractions).
///
/// The low-window quantisation step at shared exponent `S` is
/// `Δ(S) = 2^(S − 14 − m)`; flagged elements use `Δ(S) · 2^gap`. Round-to-
/// nearest contributes `Δ²/12` per element.
pub fn predicted_error_variance(pmf: &ExponentPmf, mantissa_bits: u8, window_gap: u8) -> f64 {
    let m = mantissa_bits as i32;
    pmf.levels
        .iter()
        .map(|(s, p, flagged)| {
            let step = ((s - 14 - m) as f64).exp2();
            let low = step * step / 12.0;
            let high_scale = (2.0f64).powi(2 * window_gap as i32);
            p * ((1.0 - flagged) * low + flagged * low * high_scale)
        })
        .sum()
}

/// Mean squared error between an original slice and its reconstruction.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(original: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(original.len(), reconstructed.len());
    assert!(!original.is_empty());
    original
        .iter()
        .zip(reconstructed)
        .map(|(a, b)| ((a - b) as f64).powi(2))
        .sum::<f64>()
        / original.len() as f64
}

/// Signal-to-quantisation-noise ratio in dB.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn sqnr_db(original: &[f32], reconstructed: &[f32]) -> f64 {
    let signal: f64 =
        original.iter().map(|a| (*a as f64).powi(2)).sum::<f64>() / original.len() as f64;
    let noise = mse(original, reconstructed);
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{algebra_quantize_slice, FormatAlgebra};
    use crate::rounding::RoundingMode;

    fn gaussian_with_outliers(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                // Box-Muller-ish via sum of uniforms (Irwin-Hall, good enough).
                let g: f64 = (0..6).map(|_| next()).sum::<f64>() - 3.0;
                let u = next();
                let v = g * 0.2;
                (if u < 0.01 { v * 50.0 } else { v }) as f32
            })
            .collect()
    }

    #[test]
    fn bbfp_pmf_sits_below_bfp_pmf() {
        let data = gaussian_with_outliers(8192, 1);
        let bfp = bfp_exponent_pmf(&data, BfpConfig::new(4).unwrap());
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let bbfp = bbfp_exponent_pmf(&data, cfg, ExponentPolicy::paper_default(cfg));
        assert!(
            bbfp.mean_exponent() < bfp.mean_exponent(),
            "{} vs {}",
            bbfp.mean_exponent(),
            bfp.mean_exponent()
        );
        // The shift is exactly m-o where no clamping occurs.
        assert!((bfp.mean_exponent() - bbfp.mean_exponent() - 2.0).abs() < 0.1);
    }

    #[test]
    fn predicted_variance_lower_for_bbfp() {
        let data = gaussian_with_outliers(8192, 2);
        let bfp_pmf = bfp_exponent_pmf(&data, BfpConfig::new(4).unwrap());
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let bbfp_pmf = bbfp_exponent_pmf(&data, cfg, ExponentPolicy::paper_default(cfg));
        let v_bfp = predicted_error_variance(&bfp_pmf, 4, 0);
        let v_bbfp = predicted_error_variance(&bbfp_pmf, 4, 2);
        assert!(v_bbfp < v_bfp, "{v_bbfp} vs {v_bfp}");
    }

    #[test]
    fn prediction_tracks_empirical_mse() {
        let data = gaussian_with_outliers(16384, 3);

        let bfp_cfg = BfpConfig::new(6).unwrap();
        let mut out = vec![0.0; data.len()];
        let bfp = FormatAlgebra::bfp(6).unwrap();
        algebra_quantize_slice(&data, &bfp, RoundingMode::NearestEven, &mut out);
        let empirical = mse(&data, &out);
        let predicted = predicted_error_variance(&bfp_exponent_pmf(&data, bfp_cfg), 6, 0);
        // The model assumes uniformly distributed roundoff; real data gives
        // agreement within a small constant factor.
        assert!(
            empirical < predicted * 4.0 && predicted < empirical * 4.0,
            "empirical {empirical} vs predicted {predicted}"
        );

        let bbfp_cfg = BbfpConfig::new(6, 3).unwrap();
        let bbfp = FormatAlgebra::bbfp(6, 3).unwrap();
        algebra_quantize_slice(&data, &bbfp, RoundingMode::NearestEven, &mut out);
        let empirical_b = mse(&data, &out);
        let predicted_b = predicted_error_variance(
            &bbfp_exponent_pmf(&data, bbfp_cfg, ExponentPolicy::paper_default(bbfp_cfg)),
            6,
            3,
        );
        assert!(
            empirical_b < predicted_b * 4.0 && predicted_b < empirical_b * 4.0,
            "empirical {empirical_b} vs predicted {predicted_b}"
        );
    }

    #[test]
    fn sqnr_improves_with_mantissa_width() {
        let data = gaussian_with_outliers(4096, 4);
        let mut prev = -f64::INFINITY;
        for m in [3u8, 4, 6, 8] {
            let bfp = FormatAlgebra::bfp(m).unwrap();
            let mut out = vec![0.0; data.len()];
            algebra_quantize_slice(&data, &bfp, RoundingMode::NearestEven, &mut out);
            let s = sqnr_db(&data, &out);
            assert!(s > prev, "m={m}: {s} <= {prev}");
            prev = s;
        }
    }

    #[test]
    fn pmf_probabilities_sum_to_one() {
        let data = gaussian_with_outliers(4096, 5);
        let pmf = bfp_exponent_pmf(&data, BfpConfig::new(4).unwrap());
        let total: f64 = pmf.levels.iter().map(|(_, p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flagged_fraction_is_small_under_paper_policy() {
        // Only elements within m-o of the block max get flagged; for a
        // bell-shaped body this is a minority.
        let data = gaussian_with_outliers(8192, 6);
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let pmf = bbfp_exponent_pmf(&data, cfg, ExponentPolicy::paper_default(cfg));
        let f = pmf.flagged_fraction();
        assert!(f > 0.0 && f < 0.5, "flagged fraction {f}");
    }
}
