//! Long-context decode serving: the regime where the nonlinear bottleneck
//! bites hardest. In autoregressive decode the linear work per token is
//! constant (`O(h²)` per layer) while softmax work grows with the KV
//! cache — exactly the trend the paper's Fig. 1(b) motivates, pushed to
//! its sharpest form. This example sweeps KV length through the session's
//! simulator, comparing a scalar-FP32 nonlinear baseline against BBAL's
//! segmented-LUT unit, then decodes real tokens through the session's
//! KV-cached serving path and one decode attention step through the
//! engine's hardware numerics.
//!
//! Run with: `cargo run --release --example decode_serving`

use bbal::accel::NonlinearTiming;
use bbal::llm::Tensor;
use bbal::{SessionBuilder, SessionError};

fn main() -> Result<(), SessionError> {
    let mut session = SessionBuilder::new()
        .model("Llama-7B")
        .scheme("bbfp:4,2")
        .build()?;

    println!("Llama-7B decode step (one token) vs KV-cache length:\n");
    println!(
        "{:>8} {:>14} {:>18} {:>16}",
        "kv len", "linear (us)", "FP32 nonlin (us)", "BBAL nonlin (us)"
    );
    let clock_ghz = session.accelerator_config()?.clock_ghz;
    for kv in [512usize, 1024, 2048, 4096, 8192] {
        let fp32 = session.simulate_decode_with(
            kv,
            NonlinearTiming::ScalarFp32 {
                cycles_per_elem: 8.0,
            },
        )?;
        let bbal = session.simulate_decode_with(kv, NonlinearTiming::BbalUnit)?;
        let us = |c: u64| c as f64 / (clock_ghz * 1.0e3);
        println!(
            "{:>8} {:>14.1} {:>18.1} {:>16.1}",
            kv,
            us(fp32.linear_cycles),
            us(fp32.nonlinear_cycles),
            us(bbal.nonlinear_cycles),
        );
    }

    // Token-level serving through the session: generate() prefills the
    // prompt, then greedy-decodes against the owned KV cache.
    let continuation = session.generate(&[3, 14, 15, 92, 65], 8)?;
    println!("\ngreedy continuation of a 5-token prompt: {continuation:?}");
    println!("KV cache now holds {} tokens", session.kv_len());

    // One decode attention step through the full hardware numerics: the
    // newest query row attending over every cached key is a one-row
    // cross attention.
    let (kv_len, dh) = (256usize, 64usize);
    let mut engine = session.engine()?;
    let q = Tensor::from_vec(1, dh, (0..dh).map(|i| ((i as f32) * 0.3).sin()).collect());
    let k = Tensor::from_vec(
        kv_len,
        dh,
        (0..kv_len * dh)
            .map(|i| ((i as f32) * 0.017).cos() * 0.5)
            .collect(),
    );
    let v = Tensor::from_vec(
        kv_len,
        dh,
        (0..kv_len * dh)
            .map(|i| ((i as f32) * 0.011).sin() * 0.5)
            .collect(),
    );
    let out = engine.cross_attention(&q, &k, &v);
    println!(
        "\nquantised decode attention over a {kv_len}-token cache: out[0..4] = {:?}",
        &out.row(0)[..4]
    );
    println!("(scores on the BBFP(4,2) PE array, softmax through the BBFP(10,5) LUT unit)");
    Ok(())
}
