//! Criterion benchmarks for the hot kernels of the reproduction stack:
//! block encoding (the format-algebra quantiser), the PE array's block
//! dot product, the functional BBAL GEMM, the segmented-LUT nonlinear
//! unit, the host attention page kernel, and the cycle simulator.

use bbal_accel::{simulate, AcceleratorConfig, BbalEngine, BbalGemm};
use bbal_arith::GateLibrary;
use bbal_core::{
    algebra_quantize_slice, attn_dot_packed, attn_scores_packed, BbfpConfig, FormatAlgebra,
    PackedRows, RoundingMode, SchemeSpec,
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
    // The format-algebra block quantiser, every block scheme's hook.
    for (name, alg) in [
        ("bbfp_4_2", FormatAlgebra::bbfp(4, 2)),
        ("bbfp_6_3", FormatAlgebra::bbfp(6, 3)),
        ("bfp_4", FormatAlgebra::bfp(4)),
    ] {
        let alg = black_box(alg.unwrap());
        group.bench_function(name, |b| {
            b.iter(|| algebra_quantize_slice(&data, &alg, rne, &mut out));
        });
    }
    group.finish();
}

fn bench_block_dot(c: &mut Criterion) {
    // The PE array's block dot, as `BbalGemm` runs it: integer codes
    // multiplied and summed in i64, scaled once per block.
    let mut group = c.benchmark_group("block_dot");
    let gemm = BbalGemm::new(BbfpConfig::new(4, 2).unwrap());
    let data = test_data(64);
    let a = gemm.encode_row(&data[..32]);
    let b = gemm.encode_row(&data[32..]);
    group.throughput(Throughput::Elements(32));
    group.bench_function("code_dot_32", |bch| {
        bch.iter(|| gemm.dot_encoded(&a, &b));
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
    // One decode step over a long cache: a one-row cross attention,
    // which encodes K into BBFP blocks once per call.
    let (kv_len, dh) = (256usize, 64usize);
    let q = Tensor::from_vec(1, dh, test_data(dh));
    let k = Tensor::from_vec(kv_len, dh, test_data(kv_len * dh));
    let v = Tensor::from_vec(kv_len, dh, test_data(kv_len * dh));

    let mut group = c.benchmark_group("decode_attention");
    group.sample_size(10);
    group.throughput(Throughput::Elements(kv_len as u64));
    group.bench_function("one_row_cross_attention", |b| {
        let mut engine = BbalEngine::paper();
        b.iter(|| engine.cross_attention(&q, &k, &v));
    });
    group.finish();
}

fn bench_attn_page_scores(c: &mut Criterion) {
    // One head's scores over one 16-token KV page of BBFP(4,2) keys, 192
    // wide, as the serving decoder runs them: the page kernel over a
    // key-minor page, against one `attn_dot_packed` per key over a
    // row-major page.
    let (tokens, width, dh) = (16usize, 192usize, 48usize);
    let alg = FormatAlgebra::bbfp(4, 2).expect("a valid point");
    let mut rows = vec![0.0f32; tokens * width];
    algebra_quantize_slice(
        &test_data(tokens * width),
        &alg,
        RoundingMode::NearestEven,
        &mut rows,
    );
    let scheme = SchemeSpec::Bbfp(4, 2);
    let mut key_minor = PackedRows::key_minor(scheme, width, tokens);
    let mut row_major = PackedRows::new(scheme, width);
    for row in rows.chunks(width) {
        key_minor.push_row(row);
        row_major.push_row(row);
    }
    let q = test_data(dh);
    let mut scores = vec![0.0f32; tokens];
    let mut group = c.benchmark_group("attn_page_scores");
    group.throughput(Throughput::Elements((tokens * dh) as u64));
    group.bench_function("key_minor_page_kernel", |b| {
        b.iter(|| attn_scores_packed(black_box(&q), &key_minor, 0..tokens, 48, &mut scores));
    });
    group.bench_function("row_major_per_key", |b| {
        b.iter(|| {
            for (j, s) in scores.iter_mut().enumerate() {
                *s = attn_dot_packed(black_box(&q), &row_major, j, 48);
            }
        });
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
    targets = bench_block_encode, bench_block_dot, bench_bbal_gemm, bench_nonlinear_unit, bench_decode_attention, bench_attn_page_scores, bench_cycle_sim
}
criterion_main!(benches);
