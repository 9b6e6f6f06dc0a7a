//! Oltron-style outlier-aware quantisation (Xue et al., DAC 2024),
//! re-implemented at the mechanism level.
//!
//! Mechanism: a *fixed hardware budget* of outlier slots per group holds
//! the largest-magnitude values at higher precision (INT8 with their own
//! scale); everything else is INT4 against a body scale computed after
//! excluding the budgeted outliers. Inter/intra-layer adaptation shifts
//! budget between layers, but the total is fixed — so a model with *more*
//! outliers than the budget (the paper's Llama case) sees the excess
//! clipped into the body range, while a model with fewer (OPT) is covered.

use bbal_llm::{InferenceHooks, StatsSpan};

/// Oltron-style dual-precision quantiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OltronQuantizer {
    /// Body bit width (4 in the paper's comparison — 3-bit multipliers plus
    /// sign in hardware).
    pub body_bits: u8,
    /// Outlier bit width (8).
    pub outlier_bits: u8,
    /// Group size sharing scales.
    pub group_size: usize,
    /// Outlier slots per group (the fixed budget).
    pub outlier_budget: usize,
}

impl OltronQuantizer {
    /// The configuration used in the paper's comparison: 4-bit body,
    /// 8-bit outliers, 1 slot per 64-element group (≈1.6% — enough for
    /// the OPT profile, not for the Llama profile).
    pub fn new() -> OltronQuantizer {
        OltronQuantizer {
            body_bits: 4,
            outlier_bits: 8,
            group_size: 64,
            outlier_budget: 1,
        }
    }

    /// Quantise-dequantise a slice in place.
    ///
    /// Each group ranks its magnitudes as a stable descending sort would
    /// (equal magnitudes in index order) but keeps only the top
    /// `outlier_budget + 1`, in one linear scan: the body scale is the
    /// largest magnitude past the budgeted slots, a slot is used only by
    /// a value strictly above it (so equal maxima use none), and the
    /// outlier scale covers the largest value. A NaN takes no slot and
    /// sets no scale — the group ranks as if it were absent — and
    /// quantises to NaN.
    pub fn quantize(&self, data: &mut [f32]) {
        let body_qmax = ((1i32 << (self.body_bits - 1)) - 1) as f32;
        let out_qmax = ((1i32 << (self.outlier_bits - 1)) - 1) as f32;
        let keep = self.outlier_budget.saturating_add(1).min(self.group_size);
        let mut top: Vec<(f32, usize)> = Vec::with_capacity(keep);
        for group in data.chunks_mut(self.group_size) {
            let ranked = rank_top(group, keep, &mut top);
            // Body scale excludes the budgeted slots...
            let body_slot = self.outlier_budget.min(ranked.saturating_sub(1));
            let body_max = top.get(body_slot).map_or(0.0, |t| t.0).max(1e-30);
            let body_scale = body_max / body_qmax;

            // ...and a budgeted slot is only *used* for a value that
            // actually exceeds the body range (the budget is a cap, not a
            // quota).
            let outliers = &top[..body_slot];
            let is_outlier = |i: usize| outliers.iter().any(|&(m, at)| at == i && m > body_max);

            // Outlier scale covers the single largest value.
            let out_max = top.first().map_or(0.0, |t| t.0).max(1e-30);
            let out_scale = out_max / out_qmax;

            for (i, v) in group.iter_mut().enumerate() {
                if is_outlier(i) {
                    *v = (*v / out_scale).round().clamp(-out_qmax, out_qmax) * out_scale;
                } else {
                    // Excess outliers (beyond budget) clip into the body.
                    *v = (*v / body_scale).round().clamp(-body_qmax, body_qmax) * body_scale;
                }
            }
        }
    }
}

/// Fills `top` with the `keep` largest magnitudes of `group` (and their
/// indices), largest first, ties in index order — the head of a stable
/// descending sort — skipping NaNs, and returns how many values were
/// ranked (the group's non-NaN count).
fn rank_top(group: &[f32], keep: usize, top: &mut Vec<(f32, usize)>) -> usize {
    top.clear();
    let mut ranked = 0;
    for (i, v) in group.iter().enumerate() {
        let m = v.abs();
        if m.is_nan() {
            continue;
        }
        ranked += 1;
        if top.len() == keep && top.last().is_none_or(|&(last, _)| m <= last) {
            continue;
        }
        // After every entry at least as large: ties keep index order.
        let at = top.partition_point(|&(t, _)| t >= m);
        if top.len() == keep {
            top.pop();
        }
        top.insert(at, (m, i));
    }
    ranked
}

impl Default for OltronQuantizer {
    fn default() -> Self {
        OltronQuantizer::new()
    }
}

impl InferenceHooks for OltronQuantizer {
    fn transform_weights(&self, weights: &mut [f32]) {
        self.quantize(weights);
    }

    fn transform_activations(&self, activations: &mut [f32]) {
        self.quantize(activations);
    }

    fn activation_stats_span(&self) -> StatsSpan {
        StatsSpan::Blocks(self.group_size)
    }

    fn name(&self) -> String {
        "Oltron".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgeted_outliers_survive_at_high_precision() {
        let q = OltronQuantizer::new();
        let mut data = vec![0.1f32; 128];
        data[5] = 30.0;
        data[70] = -25.0;
        q.quantize(&mut data);
        assert!((data[5] - 30.0).abs() / 30.0 < 0.02);
        assert!((data[70] + 25.0).abs() / 25.0 < 0.02);
        // Body survives because the scale excluded the outliers.
        assert!((data[0] - 0.1).abs() < 0.05);
    }

    #[test]
    fn excess_outliers_destroy_the_body() {
        // More outliers than budget: the excess outliers inflate the body
        // scale, crushing the body — the paper's Llama failure mode
        // ("outlier-aware quantisation methods, which capture a fixed
        // proportion of outliers, perform poorly on the Llama").
        let q = OltronQuantizer::new();
        let mut data = vec![0.1f32; 128];
        for i in 0..8 {
            data[i * 16] = 30.0 + i as f32;
        }
        q.quantize(&mut data);
        // A body value not adjacent to any outlier slot:
        assert_eq!(data[1], 0.0, "body crushed by inflated scale");
    }

    #[test]
    fn within_budget_body_is_clean() {
        // With outliers within budget the body keeps full resolution —
        // the paper's OPT success mode.
        let q = OltronQuantizer::new();
        let mut data = vec![0.1f32; 128];
        data[0] = 30.0;
        data[64] = -40.0;
        q.quantize(&mut data);
        assert!((data[1] - 0.1).abs() < 0.02, "body clean: {}", data[1]);
    }

    #[test]
    fn body_resolution_unaffected_by_outliers() {
        // Unlike plain INT4, the body scale ignores budgeted outliers.
        let q = OltronQuantizer::new();
        let mut with_outlier = vec![0.5f32; 128];
        with_outlier[0] = 100.0;
        q.quantize(&mut with_outlier);
        assert!((with_outlier[1] - 0.5).abs() < 0.1);
    }

    /// The stable-sort ranking the linear scan replaced, kept as the
    /// scan's oracle.
    fn quantize_by_sort(q: &OltronQuantizer, data: &mut [f32]) {
        let body_qmax = ((1i32 << (q.body_bits - 1)) - 1) as f32;
        let out_qmax = ((1i32 << (q.outlier_bits - 1)) - 1) as f32;
        for group in data.chunks_mut(q.group_size) {
            let mut order: Vec<usize> = (0..group.len()).collect();
            order.sort_by(|&a, &b| group[b].abs().partial_cmp(&group[a].abs()).unwrap());
            let body_max = order[q.outlier_budget.min(order.len() - 1)..]
                .iter()
                .map(|&i| group[i].abs())
                .fold(0.0f32, f32::max)
                .max(1e-30);
            let body_scale = body_max / body_qmax;
            let outlier_idx: Vec<usize> = order[..q.outlier_budget.min(order.len())]
                .iter()
                .copied()
                .filter(|&i| group[i].abs() > body_max)
                .collect();
            let out_scale = group[order[0]].abs().max(1e-30) / out_qmax;
            for (i, v) in group.iter_mut().enumerate() {
                if outlier_idx.contains(&i) {
                    *v = (*v / out_scale).round().clamp(-out_qmax, out_qmax) * out_scale;
                } else {
                    *v = (*v / body_scale).round().clamp(-body_qmax, body_qmax) * body_scale;
                }
            }
        }
    }

    /// The top-(budget+1) scan equals the stable sort bit for bit on
    /// random groups drawn from a few magnitudes (so maxima and runners-up
    /// tie often, ±0 included), full and ragged, at every budget 0..=3,
    /// and with groups shorter than the budget.
    #[test]
    fn scan_matches_the_stable_sort_with_ties_at_every_budget() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let levels = [0.0f32, -0.0, 0.1, -0.1, 0.5, 2.0, -2.0, 30.0, -30.0];
        for budget in 0..=3 {
            for group_size in [64, 3, 1] {
                let q = OltronQuantizer {
                    outlier_budget: budget,
                    group_size,
                    ..OltronQuantizer::new()
                };
                for trial in 0..200 {
                    let len = 1 + (next() % 200) as usize;
                    let data: Vec<f32> = (0..len)
                        .map(|_| {
                            let r = next();
                            let level = levels[(r % levels.len() as u64) as usize];
                            if r % 7 == 0 {
                                level * (1.0 + (r >> 40) as f32 / (1u64 << 24) as f32)
                            } else {
                                level
                            }
                        })
                        .collect();
                    let (mut scan, mut sort) = (data.clone(), data.clone());
                    q.quantize(&mut scan);
                    quantize_by_sort(&q, &mut sort);
                    for (i, (a, b)) in scan.iter().zip(&sort).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "budget {budget} group {group_size} trial {trial} idx {i}: {data:?}"
                        );
                    }
                }
            }
        }
    }

    /// A NaN takes no slot and sets no scale: it quantises to NaN and
    /// the rest of its group quantises as if it were absent. An all-NaN
    /// group stays NaN. Neither panics.
    #[test]
    fn nan_groups_rank_as_if_the_nan_were_absent() {
        let q = OltronQuantizer::new();
        let mut with_nan = vec![0.1f32; 64];
        with_nan[3] = 30.0;
        with_nan[9] = f32::NAN;
        let mut without: Vec<f32> = with_nan.iter().copied().filter(|v| !v.is_nan()).collect();
        q.quantize(&mut with_nan);
        q.quantize(&mut without);
        assert!(with_nan[9].is_nan());
        let kept: Vec<u32> = with_nan
            .iter()
            .filter(|v| !v.is_nan())
            .map(|v| v.to_bits())
            .collect();
        let expect: Vec<u32> = without.iter().map(|v| v.to_bits()).collect();
        assert_eq!(kept, expect);
        assert!(
            (with_nan[3] - 30.0).abs() / 30.0 < 0.02,
            "the outlier keeps its slot"
        );

        let mut all_nan = vec![f32::NAN; 5];
        q.quantize(&mut all_nan);
        assert!(all_nan.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn name_reports_method() {
        assert_eq!(OltronQuantizer::new().name(), "Oltron");
    }
}
