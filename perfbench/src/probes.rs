//! Layer probes for the traced run: host time of single kernel and
//! layer calls at the shapes a workload actually runs.
//!
//! Kernel costs are reported per call together with the operation
//! count and the bytes the call touches, both *computed* from the
//! tensor sizes (packed operand bytes plus f32 inputs and outputs), not
//! measured bandwidth: a CPU run has no counter for either.

use crate::metrics::Outcome;
use crate::recorder::Recorder;
use crate::stats;
use bbal_core::{attn_dot_packed, attn_weighted_sum_packed, PackedMatrix, PackedRows, SchemeSpec};
use bbal_fleet::{ReplicaSignals, RoutePolicy, Router};
use bbal_llm::rng::Stream;
use bbal_llm::KvStore;
use bbal_session::Session;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of a probe's batch; the median batch is reported.
const BATCHES: usize = 7;
/// Least host time one batch runs for, nanoseconds.
const BATCH_NS: u128 = 2_000_000;

/// Median host time of one `f` call, nanoseconds: `f` runs in batches
/// long enough to dwarf the timer, inside one span named `name`.
pub fn time_per_call(rec: &Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let _span = rec.span(name, 0);
    f(); // warm caches and lazy state
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let mut calls = 0u32;
        while start.elapsed().as_nanos() < BATCH_NS || calls == 0 {
            f();
            calls += 1;
        }
        per_call.push(start.elapsed().as_nanos() as f64 / f64::from(calls));
    }
    stats::median(&per_call).expect("BATCHES > 0")
}

/// The shapes a serving workload's kernels run at.
#[derive(Debug, Clone, Copy)]
pub struct KernelShapes {
    /// Model hidden width (GEMM contraction and output width).
    pub hidden: usize,
    /// Attention head width.
    pub head_dim: usize,
    /// Token rows of a decode GEMM (the batch budget).
    pub decode_rows: usize,
    /// Token rows of a prefill GEMM (the prefill chunk).
    pub prefill_rows: usize,
    /// Cached rows attention reads (the workload's mean context).
    pub context: usize,
}

fn values(rng: &mut Stream, n: usize, scale: f64) -> Vec<f32> {
    (0..n).map(|_| (rng.gaussian() * scale) as f32).collect()
}

/// Times the packed GEMM at decode and prefill row counts and the
/// packed attention kernels at the mean context, for `session`'s scheme
/// (its hooks quantise the probe weights and KV rows exactly as the
/// served model's are).
pub fn kernels(rec: &Recorder, session: &Session, shapes: KernelShapes, out: &mut Outcome) {
    let mut rng = Stream::new(0x4B45_524E);
    let scheme = session.scheme();
    let hooks = session.hooks();
    let h = shapes.hidden;
    let mut w = values(&mut rng, h * h, 0.05);
    hooks.transform_weights(&mut w);
    let weights = PackedMatrix::pack(&w, h, h, scheme);
    let weight_bytes = (weights.packed_bits() / 8) as f64;
    for (rows, name_ns, name_ops, name_bytes) in [
        (
            shapes.decode_rows,
            "core.gemm_packed_decode_ns",
            "core.gemm_packed_decode.ops",
            "core.gemm_packed_decode.bytes",
        ),
        (
            shapes.prefill_rows,
            "core.gemm_packed_prefill_ns",
            "core.gemm_packed_prefill.ops",
            "core.gemm_packed_prefill.bytes",
        ),
    ] {
        let mut x = values(&mut rng, rows * h, 1.0);
        hooks.transform_activations(&mut x);
        let mut y = vec![0.0f32; rows * h];
        let ns = time_per_call(rec, "core.gemm_packed", || {
            weights.gemm(black_box(&x), rows, &mut y);
            black_box(&y);
        });
        out.set(name_ns, ns);
        out.set(name_ops, (2 * rows * h * h) as f64);
        out.set(name_bytes, weight_bytes + (2 * rows * h * 4) as f64);
    }

    let store = KvStore {
        scheme,
        quantize: true,
        packed: true,
    };
    let mut kv = PackedRows::new(store.storage_scheme(), h);
    for _ in 0..shapes.context {
        let mut row = values(&mut rng, h, 1.0);
        store.quantize_row(&mut row);
        kv.push_row(&row);
    }
    let dh = shapes.head_dim;
    let ctx = shapes.context;
    // Packed bytes of one head's slice of every cached row.
    let head_bytes = kv.packed_bytes() as f64 * dh as f64 / h as f64;
    let q = values(&mut rng, dh, 1.0);
    let ns = time_per_call(rec, "core.attn_dot_packed", || {
        let mut acc = 0.0f32;
        for j in 0..ctx {
            acc += attn_dot_packed(black_box(&q), &kv, j, 0);
        }
        black_box(acc);
    });
    out.set("core.attn_dot_packed_ns", ns);
    out.set("core.attn_dot_packed.ops", (2 * ctx * dh) as f64);
    out.set(
        "core.attn_dot_packed.bytes",
        head_bytes + ((dh + ctx) * 4) as f64,
    );
    let probs: Vec<f32> = vec![1.0 / ctx as f32; ctx];
    let mut acc = vec![0.0f32; dh];
    let ns = time_per_call(rec, "core.attn_weighted_sum_packed", || {
        acc.fill(0.0);
        attn_weighted_sum_packed(black_box(&probs), &kv, 0, &mut acc);
        black_box(&acc);
    });
    out.set("core.attn_weighted_sum_packed_ns", ns);
    out.set("core.attn_weighted_sum_packed.ops", (2 * ctx * dh) as f64);
    out.set(
        "core.attn_weighted_sum_packed.bytes",
        head_bytes + ((dh + ctx) * 4) as f64,
    );
}

/// Times one activation transform of `rows × hidden` values and one
/// softmax over a `context`-long score row through `session`'s hooks.
pub fn hooks(
    rec: &Recorder,
    session: &Session,
    rows: usize,
    hidden: usize,
    context: usize,
    out: &mut Outcome,
) {
    let mut rng = Stream::new(0x484F_4F4B);
    let hooks = session.hooks();
    let acts = values(&mut rng, rows * hidden, 1.0);
    let mut buf = acts.clone();
    let ns = time_per_call(rec, "quant.transform_activations", || {
        buf.copy_from_slice(&acts);
        hooks.transform_activations(black_box(&mut buf));
    });
    out.set("quant.transform_activations_ns", ns);
    let scores = values(&mut rng, context, 2.0);
    let mut row = scores.clone();
    let ns = time_per_call(rec, "nonlinear.softmax_row", || {
        row.copy_from_slice(&scores);
        hooks.softmax_row(black_box(&mut row));
    });
    out.set("nonlinear.softmax_row_ns", ns);
}

/// Times one simulated prefill of `prompt` tokens and one decode step
/// at `context` cached tokens on `session`'s accelerator, recording
/// their host time and simulated cycles.
pub fn accel(
    rec: &Recorder,
    session: &Session,
    prompt: usize,
    context: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let prefill = session
        .simulate_prefill(prompt)
        .map_err(|e| e.to_string())?;
    let decode = session
        .simulate_decode(context)
        .map_err(|e| e.to_string())?;
    let ns = time_per_call(rec, "accel.simulate_prefill", || {
        black_box(session.simulate_prefill(black_box(prompt)).ok());
    });
    out.set("accel.simulate_prefill_ms", ns / 1.0e6);
    let ns = time_per_call(rec, "accel.simulate_decode", || {
        black_box(session.simulate_decode(black_box(context)).ok());
    });
    out.set("accel.simulate_decode_us", ns / 1.0e3);
    out.set("accel.prefill_cycles", prefill.total_cycles() as f64);
    out.set("accel.decode_cycles", decode.total_cycles() as f64);
    Ok(())
}

/// Times one least-loaded routing decision over `replicas` replicas.
pub fn route(rec: &Recorder, replicas: usize, out: &mut Outcome) {
    let mut router = Router::new(RoutePolicy::LeastLoaded, replicas);
    let mut rng = Stream::new(0x524F_5554);
    let signals: Vec<Vec<ReplicaSignals>> = (0..64)
        .map(|_| {
            (0..replicas)
                .map(|_| ReplicaSignals {
                    queue_depth: rng.below(8),
                    active: rng.below(9),
                    free_kv_pages: None,
                })
                .collect()
        })
        .collect();
    let mut i = 0;
    let ns = time_per_call(rec, "fleet.route", || {
        black_box(router.route(
            SchemeSpec::Bbfp(4, 2),
            black_box(&signals[i % signals.len()]),
        ));
        i += 1;
    });
    out.set("fleet.route_ns", ns);
}
