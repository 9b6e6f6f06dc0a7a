//! Distribution statistics — the data behind the paper's Fig. 1(a)
//! (weight and activation value distributions of OPT-6.7B).

use crate::hooks::InferenceHooks;
use crate::model::TransformerModel;
use std::cell::RefCell;

/// A fixed-range histogram of absolute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub lo: f32,
    /// Exclusive upper edge of the last bin (values above land in the last
    /// bin).
    pub hi: f32,
    /// Bin counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of `|values|` over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn of_magnitudes(values: &[f32], lo: f32, hi: f32, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo);
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f32;
        for &v in values {
            let m = v.abs();
            let idx = (((m - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// Total sample count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of samples at or above `threshold`.
    pub fn tail_fraction(&self, threshold: f32) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        let start = (((threshold - self.lo) / width) as usize).min(self.counts.len());
        let tail: u64 = self.counts[start..].iter().sum();
        tail as f64 / self.total().max(1) as f64
    }
}

/// Summary statistics of a value population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Mean of absolute values.
    pub mean_abs: f64,
    /// Maximum absolute value.
    pub max_abs: f64,
    /// Ratio `max_abs / mean_abs` — the paper's "average vs extreme
    /// outliers" gap (10–100× for activations).
    pub outlier_ratio: f64,
}

/// Computes magnitude moments of a slice.
pub fn moments(values: &[f32]) -> Moments {
    let n = values.len().max(1) as f64;
    let mean_abs = values.iter().map(|v| v.abs() as f64).sum::<f64>() / n;
    let max_abs = values.iter().map(|v| v.abs() as f64).fold(0.0, f64::max);
    Moments {
        mean_abs,
        max_abs,
        outlier_ratio: if mean_abs > 0.0 {
            max_abs / mean_abs
        } else {
            0.0
        },
    }
}

/// Hooks that record every pre-linear activation tensor flowing through a
/// forward pass (used to measure real activation distributions).
///
/// Each `transform_activations` call is kept as its own segment; in the
/// decoder's call order these are, per layer: attention input (feeds
/// Query/Key/Value), attention context (feeds Proj), FFN input (feeds
/// FC1/Gate) and the gate join (feeds FC2) — the layer labels of the
/// paper's Fig. 3.
#[derive(Debug, Default)]
pub struct RecordingHooks {
    segments: RefCell<Vec<Vec<f32>>>,
}

impl RecordingHooks {
    /// Creates an empty recorder.
    pub fn new() -> RecordingHooks {
        RecordingHooks::default()
    }

    /// Consumes the recorder, returning every recorded activation value.
    pub fn into_values(self) -> Vec<f32> {
        self.segments.into_inner().into_iter().flatten().collect()
    }

    /// Consumes the recorder, returning one vector per
    /// `transform_activations` call site, in call order.
    pub fn into_segments(self) -> Vec<Vec<f32>> {
        self.segments.into_inner()
    }
}

impl InferenceHooks for RecordingHooks {
    fn transform_activations(&self, activations: &mut [f32]) {
        self.segments.borrow_mut().push(activations.to_vec());
    }

    fn name(&self) -> String {
        "recorder".to_owned()
    }
}

/// Collects all linear-layer input activations of a forward pass.
pub fn collect_activations(model: &TransformerModel, tokens: &[usize]) -> Vec<f32> {
    let recorder = RecordingHooks::new();
    let _ = model.forward(tokens, &recorder);
    recorder.into_values()
}

/// The linear layers of the paper's Fig. 3, in recorder call order.
pub const FIG3_LAYER_LABELS: [&str; 4] = ["Query/Key/Value", "Proj", "FC1", "FC2"];

/// Collects pre-linear activations grouped by Fig. 3 layer label,
/// aggregated over all decoder layers.
pub fn collect_activations_by_layer(
    model: &TransformerModel,
    tokens: &[usize],
) -> Vec<(&'static str, Vec<f32>)> {
    let recorder = RecordingHooks::new();
    let _ = model.forward(tokens, &recorder);
    let segments = recorder.into_segments();
    let mut grouped: Vec<(&'static str, Vec<f32>)> =
        FIG3_LAYER_LABELS.iter().map(|&l| (l, Vec::new())).collect();
    for (i, seg) in segments.into_iter().enumerate() {
        grouped[i % 4].1.extend(seg);
    }
    grouped
}

/// Collects all linear weights of the model into one flat vector.
pub fn collect_weights(model: &TransformerModel) -> Vec<f32> {
    let mut out = Vec::new();
    for layer in model.layers().iter() {
        let mut layer = layer.clone();
        layer.for_each_weight_mut(&mut |w| out.extend_from_slice(w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransformerModel;
    use crate::zoo::tiny_test_model;

    #[test]
    fn histogram_counts_and_tail() {
        let values = vec![0.1f32, -0.2, 0.3, 5.0, -7.0];
        let h = Histogram::of_magnitudes(&values, 0.0, 8.0, 8);
        assert_eq!(h.total(), 5);
        // Two values >= 4.0.
        assert!((h.tail_fraction(4.0) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn activations_show_outlier_ratio_like_fig1a() {
        // Fig 1(a): activations carry outliers 10-100x the average.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let acts = collect_activations(&model, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!acts.is_empty());
        let m = moments(&acts);
        assert!(
            m.outlier_ratio > 10.0,
            "activation outlier ratio {} too small",
            m.outlier_ratio
        );
    }

    #[test]
    fn weights_are_tighter_than_activations() {
        // Fig 1(a): the weight distribution is much tighter.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let weights = collect_weights(&model);
        let acts = collect_activations(&model, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let wm = moments(&weights);
        let am = moments(&acts);
        assert!(am.max_abs > 3.0 * wm.max_abs, "act {am:?} vs weight {wm:?}");
    }

    #[test]
    fn recorder_accumulates_all_linear_inputs() {
        let spec = tiny_test_model();
        let model = TransformerModel::synthesize(&spec);
        let acts = collect_activations(&model, &[1, 2, 3, 4]);
        // 1 layer, seq 4: attention input, ctx and ffn input are seq x
        // hidden; the gate-join (FC2 input) is seq x ffn_width.
        let expected = 3 * 4 * spec.hidden + 4 * spec.ffn_width();
        assert_eq!(acts.len(), expected);
    }
}
