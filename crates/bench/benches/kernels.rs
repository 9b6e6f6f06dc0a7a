//! Criterion benchmarks for the hot kernels of the reproduction stack:
//! block encoding (the reference BFP/BBFP slices and the format-algebra
//! quantiser side by side), block dot products, the functional BBAL
//! GEMM, the segmented-LUT nonlinear unit, and the cycle simulator.

use bbal_accel::{simulate, AcceleratorConfig, BbalEngine, BbalGemm};
use bbal_arith::GateLibrary;
use bbal_core::{
    algebra_quantize_slice, bbfp_dot, bbfp_quantize_slice, bfp_quantize_slice, BbfpBlock,
    BbfpConfig, BfpConfig, FormatAlgebra, RoundingMode,
};
use bbal_llm::graph::{decoder_ops, paper_dims};
use bbal_llm::Tensor;
use bbal_nonlinear::{NonlinearUnit, NonlinearUnitConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn test_data(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let body = ((i * 37 % 101) as f32 - 50.0) * 0.01;
            if i % 61 == 0 {
                body * 30.0
            } else {
                body
            }
        })
        .collect()
}

fn bench_block_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_encode");
    let data = test_data(4096);
    let mut out = vec![0.0f32; 4096];
    // Formats and rounding arrive as runtime values in the quantiser
    // hooks; `black_box` keeps every encoder from specialising on
    // constants the hooks never see.
    let rne = black_box(RoundingMode::NearestEven);
    group.throughput(Throughput::Elements(4096));
    group.bench_function("bbfp_4_2", |b| {
        let cfg = black_box(BbfpConfig::new(4, 2).unwrap());
        b.iter(|| bbfp_quantize_slice(&data, cfg, rne, &mut out));
    });
    group.bench_function("bbfp_6_3", |b| {
        let cfg = black_box(BbfpConfig::new(6, 3).unwrap());
        b.iter(|| bbfp_quantize_slice(&data, cfg, rne, &mut out));
    });
    group.bench_function("bfp_4", |b| {
        let cfg = black_box(BfpConfig::new(4).unwrap());
        b.iter(|| bfp_quantize_slice(&data, cfg, rne, &mut out));
    });
    // The format-algebra block quantiser (every block scheme's hook) on
    // the same points, for parity with the reference slices above.
    group.bench_function("algebra_bbfp_4_2", |b| {
        let alg = black_box(FormatAlgebra::bbfp(4, 2).unwrap());
        b.iter(|| algebra_quantize_slice(&data, &alg, rne, &mut out));
    });
    group.bench_function("algebra_bfp_4", |b| {
        let alg = black_box(FormatAlgebra::bfp(4).unwrap());
        b.iter(|| algebra_quantize_slice(&data, &alg, rne, &mut out));
    });
    group.finish();
}

fn bench_block_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_dot");
    let cfg = BbfpConfig::new(4, 2).unwrap();
    let a = BbfpBlock::from_f32_slice(&test_data(32), cfg).expect("finite");
    let b = BbfpBlock::from_f32_slice(&test_data(32)[..32], cfg).expect("finite");
    group.throughput(Throughput::Elements(32));
    group.bench_function("bbfp_dot_32", |bch| {
        bch.iter(|| bbfp_dot(&a, &b).expect("same config"));
    });
    group.finish();
}

fn bench_bbal_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("bbal_gemm");
    group.sample_size(10);
    let gemm = BbalGemm::new(BbfpConfig::new(4, 2).unwrap());
    let a = Tensor::from_vec(16, 128, test_data(16 * 128));
    let b = Tensor::from_vec(128, 16, test_data(128 * 16));
    group.throughput(Throughput::Elements((16 * 128 * 16) as u64));
    group.bench_function("quantised_16x128x16", |bch| {
        bch.iter(|| gemm.matmul(&a, &b));
    });
    group.bench_function("exact_16x128x16", |bch| {
        bch.iter(|| a.matmul(&b));
    });
    group.finish();
}

fn bench_nonlinear_unit(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonlinear_unit");
    let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
    let row = test_data(64);
    group.throughput(Throughput::Elements(64));
    group.bench_function("lut_softmax_64", |b| {
        b.iter_batched(
            || row.clone(),
            |mut r| unit.softmax_row(&mut r),
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("exact_softmax_64", |b| {
        b.iter_batched(
            || row.clone(),
            |mut r| bbal_llm::ops::softmax_in_place(&mut r),
            criterion::BatchSize::SmallInput,
        );
    });
    let xs = test_data(1024);
    group.bench_function("lut_silu_1024", |b| {
        b.iter_batched(
            || xs.clone(),
            |mut v| unit.silu(&mut v),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_decode_attention(c: &mut Criterion) {
    // The satellite measurement for the KV-state redesign: one decode
    // step over a long cache, (a) re-encoding K from scratch every call
    // (the old `attention` path, which materialised kᵀ per call) vs
    // (b) attending against the pre-encoded `KvState` serving layout.
    let (kv_len, dh) = (256usize, 64usize);
    let q = Tensor::from_vec(1, dh, test_data(dh));
    let k = Tensor::from_vec(kv_len, dh, test_data(kv_len * dh));
    let v = Tensor::from_vec(kv_len, dh, test_data(kv_len * dh));

    let mut group = c.benchmark_group("decode_attention");
    group.sample_size(10);
    group.throughput(Throughput::Elements(kv_len as u64));
    group.bench_function("reencode_kv_per_step", |b| {
        let mut engine = BbalEngine::paper();
        b.iter(|| engine.cross_attention(&q, &k, &v));
    });
    group.bench_function("cached_kv_state", |b| {
        let mut engine = BbalEngine::paper();
        let cache = engine.cache_kv(&k, &v);
        b.iter(|| engine.decode_attention(&q, &cache));
    });
    group.finish();
}

fn bench_cycle_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_sim");
    let lib = GateLibrary::default();
    let cfg = AcceleratorConfig::bbal_paper();
    let dims = paper_dims("Llama-7B").expect("known");
    for seq in [128usize, 1024] {
        let ops = decoder_ops(&dims, seq);
        group.bench_with_input(BenchmarkId::new("llama7b_decoder", seq), &ops, |b, ops| {
            b.iter(|| simulate(&cfg, ops, &lib));
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_block_encode, bench_block_dot, bench_bbal_gemm, bench_nonlinear_unit, bench_decode_attention, bench_cycle_sim
}
criterion_main!(benches);
