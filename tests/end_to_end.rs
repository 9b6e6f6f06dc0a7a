//! Integration tests spanning the whole stack: formats → quantisers →
//! transformer → accelerator, driven through the `Session` facade.

use bbal::accel::BbalGemm;
use bbal::core::BbfpConfig;
use bbal::llm::Tensor;
use bbal::llm::{evaluate_ppl, zoo, EvalSet, ExactHooks, TransformerModel};
use bbal::nonlinear::{NonlinearScope, NonlinearUnitConfig, NonlinearUnitHooks};
use bbal::{SessionBuilder, SessionError};

fn tiny_ppl(scheme: &str) -> f64 {
    SessionBuilder::new()
        .model("Tiny")
        .scheme(scheme)
        .eval_set(2, 12, 99)
        .build()
        .expect("tiny session builds")
        .evaluate()
        .ppl
}

#[test]
fn quantised_inference_preserves_anchor_ordering() {
    // FP16 ~= exact; block formats degrade monotonically with width.
    let exact = tiny_ppl("fp32");
    let fp16 = tiny_ppl("fp16");
    let bbfp63 = tiny_ppl("bbfp:6,3");
    let bbfp42 = tiny_ppl("bbfp:4,2");
    let bbfp31 = tiny_ppl("bbfp:3,1");

    assert!(
        (fp16 - exact).abs() / exact < 0.02,
        "fp16 {fp16} vs exact {exact}"
    );
    assert!(
        bbfp63 < bbfp42,
        "BBFP(6,3) {bbfp63} should beat BBFP(4,2) {bbfp42}"
    );
    assert!(
        bbfp42 < bbfp31,
        "BBFP(4,2) {bbfp42} should beat BBFP(3,1) {bbfp31}"
    );
}

#[test]
fn bbfp_beats_bfp_through_the_full_model() {
    // The paper's central Table II claim, end to end.
    let bbfp = tiny_ppl("bbfp:4,2");
    let bfp = tiny_ppl("bfp4");
    assert!(bbfp < bfp, "BBFP(4,2) {bbfp} should beat BFP4 {bfp}");
}

#[test]
fn outlier_aware_baselines_run_end_to_end() {
    for scheme in ["olive", "oltron"] {
        let session = SessionBuilder::new()
            .model("Tiny")
            .scheme(scheme)
            .eval_set(2, 12, 99)
            .build()
            .expect("session builds");
        let r = session.evaluate();
        assert!(r.ppl.is_finite() && r.ppl >= session.model_spec().anchor_ppl * 0.99);
    }
}

#[test]
fn nonlinear_unit_plugs_into_the_transformer() {
    let spec = zoo::tiny_test_model();
    let model = TransformerModel::synthesize(&spec);
    let eval = EvalSet::generate(&spec, 2, 12, 99);
    let exact = evaluate_ppl(&model, &ExactHooks, &eval).ppl;
    let bbfp = NonlinearUnitHooks::new(NonlinearUnitConfig::paper(), NonlinearScope::Altogether);
    let bfp = NonlinearUnitHooks::new(NonlinearUnitConfig::bfp10(), NonlinearScope::Altogether);
    let bbfp_ppl = evaluate_ppl(&model, &bbfp, &eval).ppl;
    let bfp_ppl = evaluate_ppl(&model, &bfp, &eval).ppl;
    // BBFP(10,5) nonlinear ~ lossless; BFP10 worse (Table IV shape).
    assert!(
        bbfp_ppl < exact * 1.05,
        "bbfp nonlinear {bbfp_ppl} vs exact {exact}"
    );
    assert!(bfp_ppl >= bbfp_ppl, "bfp10 {bfp_ppl} vs bbfp {bbfp_ppl}");
}

#[test]
fn hardware_gemm_agrees_with_software_quantiser() {
    // The functional datapath (bbal-accel) and the hook-based quantiser
    // (bbal-quant) implement the same numerics: a model whose weights are
    // BBFP-quantised should produce outputs consistent with the hardware
    // GEMM on quantised tiles, up to activation-encode differences.
    let cfg = BbfpConfig::new(6, 3).unwrap();
    let gemm = BbalGemm::new(cfg);
    let a = Tensor::from_vec(
        4,
        32,
        (0..128).map(|i| ((i % 13) as f32 - 6.0) * 0.11).collect(),
    );
    let b = Tensor::from_vec(
        32,
        4,
        (0..128).map(|i| ((i % 7) as f32 - 3.0) * 0.21).collect(),
    );
    let hw = gemm.matmul(&a, &b);
    let exact = a.matmul(&b);
    for (x, y) in hw.data().iter().zip(exact.data()) {
        assert!((x - y).abs() < 0.08 * y.abs().max(1.0), "{x} vs {y}");
    }
}

#[test]
fn deterministic_across_runs() {
    let build = || {
        SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .eval_set(2, 12, 99)
            .build()
            .expect("session builds")
    };
    let ra = build().evaluate();
    let rb = build().evaluate();
    assert_eq!(ra.ppl, rb.ppl);
    assert_eq!(ra.kl, rb.kl);
}

#[test]
fn session_serving_agrees_with_session_engine_numerics() -> Result<(), SessionError> {
    // The session's KV-cached decode path and the engine's one-row cross
    // attention (a decode step through the hardware numerics) must both
    // run end to end from one builder.
    let mut session = SessionBuilder::new()
        .model("Tiny")
        .scheme("bbfp:4,2")
        .build()?;
    let logits = session.prefill(&[1, 2, 3, 4])?;
    assert_eq!(logits.rows(), 4);
    let step = session.decode_step(5)?;
    assert_eq!(step.len(), session.model_spec().vocab);
    assert_eq!(session.kv_len(), 5);

    let mut engine = session.engine()?;
    let dh = 16;
    let k = Tensor::from_vec(
        8,
        dh,
        (0..8 * dh).map(|i| (i as f32 * 0.07).sin()).collect(),
    );
    let v = Tensor::from_vec(
        8,
        dh,
        (0..8 * dh).map(|i| (i as f32 * 0.05).cos()).collect(),
    );
    let q = Tensor::from_vec(1, dh, (0..dh).map(|i| (i as f32 * 0.11).sin()).collect());
    let out = engine.cross_attention(&q, &k, &v);
    assert!(out.data().iter().all(|x| x.is_finite()));
    Ok(())
}

#[test]
fn one_builder_covers_accuracy_and_hardware() -> Result<(), SessionError> {
    // The tentpole claim: accuracy proxy, cycle simulation and hardware
    // config all flow from the same two-line builder call.
    let session = SessionBuilder::new()
        .model("Tiny")
        .scheme("bbfp:6,3")
        .build()?;
    let ppl = session.evaluate();
    assert!(ppl.ppl.is_finite());
    let sim = session.simulate_prefill(32)?;
    assert!(sim.total_cycles() > 0);
    let cfg = session.accelerator_config()?;
    assert_eq!(cfg.pe_count(), 256);
    Ok(())
}
