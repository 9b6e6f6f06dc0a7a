//! The perplexity proxy.
//!
//! **What the paper measures:** WikiText2 perplexity of real checkpoints
//! under each quantisation scheme (Tables II and IV).
//!
//! **What we measure instead** (no checkpoints, no dataset): the
//! Kullback–Leibler divergence between the *reference* (exact) model's
//! next-token distribution and the *quantised* model's, averaged over a
//! deterministic synthetic token stream, mapped to a perplexity through
//! the paper's own FP16/FP32 anchor:
//!
//! ```text
//!   PPL_proxy = anchor_ppl · exp(kl_scale · KL(teacher ‖ student))
//! ```
//!
//! This preserves exactly what the paper's comparisons rely on: the
//! *ordering* and *relative degradation* of quantisation schemes on the
//! same tensors through the same forward pass. `KL = 0` reproduces the
//! paper's baseline row identically; any distortion a scheme introduces
//! raises PPL monotonically.

use crate::hooks::InferenceHooks;
use crate::kv::KvArena;
use crate::model::{KvCache, TransformerModel};
use crate::ops;
use crate::rng::Stream;
use crate::zoo::ModelSpec;

/// Logit scale target: teacher rows are normalised to this standard
/// deviation before softmax so synthetic models produce distributions of
/// natural-language-like entropy.
const TARGET_LOGIT_STD: f32 = 2.5;

/// A deterministic synthetic evaluation set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalSet {
    /// Token sequences.
    pub sequences: Vec<Vec<usize>>,
}

impl EvalSet {
    /// Generates `n_sequences` Zipf-distributed token streams of
    /// `seq_len` tokens each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn generate(spec: &ModelSpec, n_sequences: usize, seq_len: usize, seed: u64) -> EvalSet {
        assert!(n_sequences > 0 && seq_len > 1);
        let mut rng = Stream::new(seed ^ spec.seed.rotate_left(17));
        let sequences = (0..n_sequences)
            .map(|_| (0..seq_len).map(|_| rng.zipf_token(spec.vocab)).collect())
            .collect();
        EvalSet { sequences }
    }
}

/// Result of one perplexity-proxy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PplResult {
    /// Name of the evaluated hook set.
    pub scheme: String,
    /// Model evaluated.
    pub model: &'static str,
    /// Measured mean KL divergence (nats) of the student against the
    /// teacher.
    pub kl: f64,
    /// The proxy perplexity.
    pub ppl: f64,
}

/// Evaluates a quantisation scheme's perplexity proxy on one model.
///
/// `reference` must be the untransformed model; the student is derived by
/// applying `hooks` to both weights (once) and the forward pass. The
/// student runs every sequence as one segment of a single forward, so
/// each weight matrix is quantised once, when its GEMM runs, and no
/// quantised copy of the model is built.
pub fn evaluate_ppl(
    reference: &TransformerModel,
    hooks: &impl InferenceHooks,
    eval: &EvalSet,
) -> PplResult {
    let spec = reference.spec();
    let student_logits = {
        let arena = KvArena::default();
        let mut caches: Vec<KvCache> = eval
            .sequences
            .iter()
            .map(|_| reference.kv_cache_in(&arena))
            .collect();
        let mut segments: Vec<(&mut KvCache, &[usize])> = caches
            .iter_mut()
            .zip(&eval.sequences)
            .map(|(cache, seq)| (cache, seq.as_slice()))
            .collect();
        (!segments.is_empty()).then(|| reference.forward_segments_ptq(&mut segments, hooks))
    };
    let mut total_kl = 0.0f64;
    let mut positions = 0usize;

    for seq in &eval.sequences {
        let teacher_logits = reference.forward(seq, &crate::hooks::ExactHooks);
        let student_logits = student_logits.as_ref().expect("one segment per sequence");
        for pos in 0..seq.len() {
            let t_row = teacher_logits.row(pos);
            // The student rows run on across the sequences' segments.
            let s_row = student_logits.row(positions);
            // Common scale derived from the teacher only (fair to both).
            let std = row_std(t_row).max(1e-3);
            let gain = TARGET_LOGIT_STD / std;
            let t_scaled: Vec<f32> = t_row.iter().map(|v| v * gain).collect();
            let s_scaled: Vec<f32> = s_row.iter().map(|v| v * gain).collect();
            let mut p = t_scaled.clone();
            ops::softmax_in_place(&mut p);
            let ce = ops::cross_entropy(&p, &s_scaled);
            let h = ops::entropy(&p);
            total_kl += (ce - h).max(0.0);
            positions += 1;
        }
    }

    let kl = total_kl / positions as f64;
    PplResult {
        scheme: hooks.name(),
        model: spec.name,
        kl,
        ppl: spec.anchor_ppl * (spec.kl_scale * kl).exp(),
    }
}

fn row_std(row: &[f32]) -> f32 {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    (row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{ExactHooks, Fp16Hooks, InferenceHooks};
    use crate::zoo::tiny_test_model;

    fn setup() -> (TransformerModel, EvalSet) {
        let spec = tiny_test_model();
        let model = TransformerModel::synthesize(&spec);
        let eval = EvalSet::generate(&spec, 2, 8, 7);
        (model, eval)
    }

    #[test]
    fn exact_hooks_reproduce_anchor() {
        let (model, eval) = setup();
        let r = evaluate_ppl(&model, &ExactHooks, &eval);
        // Student and teacher run the same code path; only f32 summation
        // noise separates them.
        assert!(r.kl < 1e-6, "kl {}", r.kl);
        assert!((r.ppl - model.spec().anchor_ppl).abs() < 1e-4);
    }

    #[test]
    fn fp16_is_nearly_lossless() {
        let (model, eval) = setup();
        let r = evaluate_ppl(&model, &Fp16Hooks, &eval);
        assert!(r.kl < 0.01, "kl {}", r.kl);
        assert!(r.ppl < model.spec().anchor_ppl * 1.02);
    }

    #[test]
    fn heavy_distortion_raises_ppl() {
        struct Crush;
        impl InferenceHooks for Crush {
            fn transform_weights(&self, w: &mut [f32]) {
                // 1-bit-ish quantisation: sign times mean magnitude.
                let mean = w.iter().map(|v| v.abs()).sum::<f32>() / w.len() as f32;
                for v in w {
                    *v = v.signum() * mean;
                }
            }
            fn name(&self) -> String {
                "crush".into()
            }
        }
        let (model, eval) = setup();
        let exact = evaluate_ppl(&model, &ExactHooks, &eval);
        let crushed = evaluate_ppl(&model, &Crush, &eval);
        assert!(crushed.kl > 0.01, "kl {}", crushed.kl);
        assert!(crushed.ppl > exact.ppl * 1.05);
    }

    #[test]
    fn eval_set_is_deterministic() {
        let spec = tiny_test_model();
        let a = EvalSet::generate(&spec, 3, 16, 1);
        let b = EvalSet::generate(&spec, 3, 16, 1);
        assert_eq!(a, b);
        let c = EvalSet::generate(&spec, 3, 16, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn monotone_in_distortion_magnitude() {
        struct Noise(f32);
        impl InferenceHooks for Noise {
            fn transform_weights(&self, w: &mut [f32]) {
                // Deterministic pseudo-noise proportional to self.0.
                for (i, v) in w.iter_mut().enumerate() {
                    let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                    *v += sign * self.0 * 0.02;
                }
            }
        }
        let (model, eval) = setup();
        let small = evaluate_ppl(&model, &Noise(0.3), &eval);
        let large = evaluate_ppl(&model, &Noise(3.0), &eval);
        assert!(large.kl > small.kl);
        assert!(large.ppl > small.ppl);
    }
}
