//! Criterion benchmarks for the packed weight-storage GEMM kernels:
//! scalar f32 `Tensor::matmul` (the pre-packing serving path) against
//! [`PackedMatrix::gemm`] per scheme, at the row counts the serving
//! stack runs. A decode step fuses the rows of every running request,
//! about 8 under load (`serve.fused_rows_per_gemm` reads 7.6 on
//! perfbench's `decode_long`, whose probe runs `max_batch` = 8), so the
//! 8-row group is the decode traffic, and it cycles over
//! [`CYCLED`] matrices so the weights come from L2/L3 as a served
//! model's do. One row is a lone request's decode step; 16 rows a
//! chunked prefill.
//!
//! The packed kernels are bit-identical to the scalar path (pinned by
//! `tests/packed_kernels.rs`); these groups measure what that identity
//! costs or saves per scheme and storage layout.

use bbal_core::{PackedMatrix, SchemeSpec};
use bbal_llm::Tensor;
use bbal_quant::registry::hooks_for;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

/// Outlier-structured weight data quantised through the scheme's own
/// PTQ hook — the values `TransformerModel::with_prepared_weights` stores;
/// `seed` shifts the pattern, so matrices of one shape differ.
fn quantised_weights(scheme: SchemeSpec, n: usize, seed: usize) -> Vec<f32> {
    let mut w: Vec<f32> = (0..n)
        .map(|i| {
            let body = (((i + seed * 13) * 37 % 101) as f32 - 50.0) * 0.01;
            if i % 61 == 0 {
                body * 30.0
            } else {
                body
            }
        })
        .collect();
    hooks_for(scheme)
        .expect("scheme has hooks")
        .transform_weights(&mut w);
    w
}

fn activations(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 13 % 63) as f32 - 31.0) * 0.03125)
        .collect()
}

/// The scheme lineup: the paper config, a second BBFP width, a vanilla
/// BFP, the fp16 bit store and the dense f32 fallback — at least one
/// per storage layout.
const SCHEMES: &[(&str, SchemeSpec)] = &[
    ("bbfp_4_2", SchemeSpec::Bbfp(4, 2)),
    ("bbfp_6_3", SchemeSpec::Bbfp(6, 3)),
    ("bfp_4", SchemeSpec::Bfp(4)),
    ("fp16", SchemeSpec::Fp16),
    ("fp32_dense", SchemeSpec::Fp32),
];

/// Matrices the decode-traffic group cycles through: 16 BBFP(4,2)
/// matrices of 192 × 192 hold 1.1 MiB of `i16` codes, far past L1.
const CYCLED: usize = 16;

/// One token row against a hidden×ffn projection: a lone request's
/// decode step.
fn bench_one_row_gemm(c: &mut Criterion) {
    let (k, n) = (192, 512);
    let mut group = c.benchmark_group("packed_gemm/rows_1x192x512");
    group.throughput(Throughput::Elements((k * n) as u64));
    group.measurement_time(Duration::from_secs(3));

    let x = activations(k);
    for &(label, scheme) in SCHEMES {
        let w = quantised_weights(scheme, k * n, 0);
        let wt = Tensor::from_vec(k, n, w.clone());
        let xt = Tensor::from_vec(1, k, x.clone());
        group.bench_with_input(BenchmarkId::new("scalar_f32", label), &(), |b, ()| {
            b.iter(|| xt.matmul(&wt));
        });
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let mut out = vec![0.0f32; n];
        group.bench_with_input(BenchmarkId::new("packed", label), &(), |b, ()| {
            b.iter(|| p.gemm(&x, 1, &mut out));
        });
    }
    group.finish();
}

/// The decode traffic: 8 token rows, one per running request, through
/// a hidden×hidden projection, a different one of [`CYCLED`] matrices
/// each call.
fn bench_decode_gemm(c: &mut Criterion) {
    let (rows, k, n) = (8, 192, 192);
    let mut group = c.benchmark_group("packed_gemm/decode_8x192x192_cycled");
    group.throughput(Throughput::Elements((rows * k * n) as u64));
    group.measurement_time(Duration::from_secs(3));

    let x = activations(rows * k);
    let xt = Tensor::from_vec(rows, k, x.clone());
    for &(label, scheme) in SCHEMES {
        let ws: Vec<Vec<f32>> = (0..CYCLED)
            .map(|m| quantised_weights(scheme, k * n, m))
            .collect();
        let wts: Vec<Tensor> = ws
            .iter()
            .map(|w| Tensor::from_vec(k, n, w.clone()))
            .collect();
        let mut next = 0;
        group.bench_with_input(BenchmarkId::new("scalar_f32", label), &(), |b, ()| {
            b.iter(|| {
                next = (next + 1) % CYCLED;
                xt.matmul(&wts[next])
            });
        });
        let ps: Vec<PackedMatrix> = ws
            .iter()
            .map(|w| PackedMatrix::pack(w, k, n, scheme))
            .collect();
        let mut out = vec![0.0f32; rows * n];
        group.bench_with_input(BenchmarkId::new("packed", label), &(), |b, ()| {
            b.iter(|| {
                next = (next + 1) % CYCLED;
                ps[next].gemm(&x, rows, &mut out)
            });
        });
    }
    group.finish();
}

/// Chunked-prefill shape: 16 token rows through the same projection.
fn bench_prefill_gemm(c: &mut Criterion) {
    let (rows, k, n) = (16, 192, 512);
    let mut group = c.benchmark_group("packed_gemm/prefill_16x192x512");
    group.throughput(Throughput::Elements((rows * k * n) as u64));
    group.measurement_time(Duration::from_secs(3));

    let x = activations(rows * k);
    for &(label, scheme) in SCHEMES {
        let w = quantised_weights(scheme, k * n, 0);
        let wt = Tensor::from_vec(k, n, w.clone());
        let xt = Tensor::from_vec(rows, k, x.clone());
        group.bench_with_input(BenchmarkId::new("scalar_f32", label), &(), |b, ()| {
            b.iter(|| xt.matmul(&wt));
        });
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let mut out = vec![0.0f32; rows * n];
        group.bench_with_input(BenchmarkId::new("packed", label), &(), |b, ()| {
            b.iter(|| p.gemm(&x, rows, &mut out));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_one_row_gemm,
    bench_decode_gemm,
    bench_prefill_gemm
);
criterion_main!(benches);
