//! The matrix-at-a-time PTQ paths equal the dense compositions they
//! replace, bit for bit:
//!
//! * [`TransformerModel::with_prepared_weights`] equals
//!   [`TransformerModel::with_transformed_weights`] followed by a
//!   [`PackedMatrix::pack`] of every matrix — layout, decoded bits and
//!   packed bits — for every Table II scheme and one member of each
//!   algebra family, on both model families;
//! * [`evaluate_ppl`], whose student quantises each weight when its GEMM
//!   runs, equals the student-model composition (a
//!   `with_transformed_weights` model run sequence by sequence) for every
//!   Table II scheme, on one-sequence and multi-sequence eval sets.

use bbal_core::{PackedMatrix, SchemeSpec};
use bbal_llm::{
    evaluate_ppl, ops, zoo, EvalSet, ExactHooks, Family, InferenceHooks, PplResult,
    TransformerModel,
};
use bbal_quant::registry::{hooks_for, TABLE2_SCHEMES};

/// One member of each algebra family.
const ALGEBRA_SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::Mx(8, 4, 2),
    SchemeSpec::Msfp(4, 16),
    SchemeSpec::BlockMf(4, 3, 8),
];

/// The two-layer Tiny model of `family`.
fn model(family: Family) -> TransformerModel {
    let mut spec = zoo::tiny_test_model();
    spec.layers = 2;
    spec.family = family;
    TransformerModel::synthesize(&spec)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn prepared_weights_equal_ptq_then_per_matrix_pack() {
    for family in [Family::Llama, Family::Opt] {
        let reference = model(family);
        for &scheme in TABLE2_SCHEMES.iter().chain(&ALGEBRA_SCHEMES) {
            let hooks = hooks_for(scheme).expect("every swept scheme has hooks");
            let prepared = reference.with_prepared_weights(scheme, &hooks.as_ref());
            let ptq = reference.with_transformed_weights(&hooks.as_ref());
            assert_eq!(prepared.packed_scheme(), Some(scheme));

            let mut want = Vec::new();
            for layer in ptq.layers().iter() {
                let mut layer = layer.clone();
                layer.for_each_weight_mut(&mut |w| want.push(w.to_vec()));
            }
            let got = prepared.packed_matrices();
            assert_eq!(got.len(), want.len() + 1, "{scheme} matrix count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let packed = PackedMatrix::pack(w, g.rows(), g.cols(), scheme);
                assert_eq!(g.scheme(), scheme, "{scheme} matrix {i}");
                assert_eq!(g.layout_kind(), packed.layout_kind(), "{scheme} matrix {i}");
                assert_eq!(
                    bits(&g.decode()),
                    bits(&packed.decode()),
                    "{scheme} matrix {i}"
                );
                assert_eq!(g.packed_bits(), packed.packed_bits(), "{scheme} matrix {i}");
            }

            // The unembedding stays full precision: the prepared model's
            // logits equal the dense PTQ model's.
            let unembedding = got.last().expect("the unembedding comes last");
            assert_eq!(unembedding.scheme(), SchemeSpec::Fp32);
            let tokens = [3usize, 1, 4, 1, 5];
            let packed = prepared.forward(&tokens, &hooks.as_ref());
            let dense = ptq.forward(&tokens, &hooks.as_ref());
            assert_eq!(bits(packed.data()), bits(dense.data()), "{scheme} logits");
        }
    }
}

/// The perplexity proxy as composed before the student quantised its
/// weights in the GEMMs: a whole `with_transformed_weights` student model,
/// run one sequence at a time.
fn student_model_ppl(
    reference: &TransformerModel,
    hooks: &impl InferenceHooks,
    eval: &EvalSet,
) -> PplResult {
    const TARGET_LOGIT_STD: f32 = 2.5;
    let student_model = reference.with_transformed_weights(hooks);
    let spec = reference.spec();
    let mut total_kl = 0.0f64;
    let mut positions = 0usize;
    for seq in &eval.sequences {
        let teacher_logits = reference.forward(seq, &ExactHooks);
        let student_logits = student_model.forward(seq, hooks);
        for pos in 0..seq.len() {
            let t_row = teacher_logits.row(pos);
            let s_row = student_logits.row(pos);
            let n = t_row.len() as f32;
            let mean = t_row.iter().sum::<f32>() / n;
            let var = t_row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let gain = TARGET_LOGIT_STD / var.sqrt().max(1e-3);
            let t_scaled: Vec<f32> = t_row.iter().map(|v| v * gain).collect();
            let s_scaled: Vec<f32> = s_row.iter().map(|v| v * gain).collect();
            let mut p = t_scaled.clone();
            ops::softmax_in_place(&mut p);
            total_kl += (ops::cross_entropy(&p, &s_scaled) - ops::entropy(&p)).max(0.0);
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

#[test]
fn evaluate_ppl_equals_the_student_model_composition() {
    for family in [Family::Llama, Family::Opt] {
        let reference = model(family);
        let spec = reference.spec();
        let sets = [
            EvalSet::generate(spec, 1, 12, 5),
            EvalSet::generate(spec, 3, 9, 6),
        ];
        for &scheme in TABLE2_SCHEMES {
            let hooks = hooks_for(scheme).expect("every Table II scheme has hooks");
            for eval in &sets {
                let got = evaluate_ppl(&reference, &hooks.as_ref(), eval);
                let want = student_model_ppl(&reference, &hooks.as_ref(), eval);
                let n = eval.sequences.len();
                assert_eq!(got.kl.to_bits(), want.kl.to_bits(), "{scheme} {n} seqs kl");
                assert_eq!(got, want, "{scheme} {n} seqs");
            }
        }
    }
}
