//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! carry-chain vs dense adders, shared-exponent policy, and overlap
//! width. These measure the *model's* software cost and print the
//! corresponding hardware deltas as context.

use bbal_arith::{GateLibrary, RippleCarryAdder, SparseAdder};
use bbal_core::{
    algebra_quantize_slice, algebra_quantize_slice_with, ExponentPolicy, FormatAlgebra,
    RoundingMode,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn data(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let body = ((i * 53 % 107) as f32 - 53.0) * 0.02;
            if i % 47 == 0 {
                body * 25.0
            } else {
                body
            }
        })
        .collect()
}

/// Carry-chain sparse adder vs dense ripple adder (bit-level simulation).
fn bench_carry_chain(c: &mut Criterion) {
    let lib = GateLibrary::default();
    let sparse = SparseAdder::new(8, 4);
    let dense = RippleCarryAdder::new(12);
    println!(
        "[ablation] sparse 8+4 adder area saving vs dense 12-bit: {:.1}%",
        sparse.area_saving(&lib) * 100.0
    );
    let mut group = c.benchmark_group("carry_chain");
    group.bench_function("sparse_8_plus_4", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for a in 0..256u64 {
                let (s, _) = sparse.simulate(a * 13 % 4096, a % 256);
                acc ^= s;
            }
            acc
        });
    });
    group.bench_function("dense_12", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for a in 0..256u64 {
                let (s, _) = dense.simulate(a * 13 % 4096, a % 256, false);
                acc ^= s;
            }
            acc
        });
    });
    group.finish();
}

/// Shared-exponent policy sweep (the Fig. 3 knob) on the encode path.
fn bench_policy(c: &mut Criterion) {
    let bbfp = FormatAlgebra::bbfp(4, 2).unwrap();
    let xs = data(4096);
    let mut out = vec![0.0f32; 4096];
    let mut group = c.benchmark_group("exponent_policy");
    for offset in [0u8, 1, 2, 3] {
        group.bench_with_input(BenchmarkId::new("max_minus", offset), &offset, |b, &o| {
            let policy = ExponentPolicy::MaxMinus(o);
            b.iter(|| {
                algebra_quantize_slice_with(&xs, &bbfp, policy, RoundingMode::NearestEven, &mut out)
            });
        });
    }
    group.finish();
}

/// Overlap width sweep (the Fig. 4 / Algorithm 1 knob) on the encode path.
fn bench_overlap(c: &mut Criterion) {
    let xs = data(4096);
    let mut out = vec![0.0f32; 4096];
    let mut group = c.benchmark_group("overlap_width");
    for o in [0u8, 2, 4, 5] {
        let bbfp = FormatAlgebra::bbfp(6, o).unwrap();
        group.bench_with_input(BenchmarkId::new("bbfp6", o), &bbfp, |b, bbfp| {
            b.iter(|| algebra_quantize_slice(&xs, bbfp, RoundingMode::NearestEven, &mut out));
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
    targets = bench_carry_chain, bench_policy, bench_overlap
}
criterion_main!(benches);
