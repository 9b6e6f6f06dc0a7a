//! Bit-level goldens for the block codec's hardware-facing callers: the
//! functional PE model (`BbalGemm::matmul`), the nonlinear unit
//! (softmax, SILU and GELU under BBFP(10,5) and BFP10) and the Fig. 3
//! policy sweep. Each digest is FNV-1a over the outputs' f32 bit
//! patterns, so any change to a single output bit fails the test.

use bbal::accel::BbalGemm;
use bbal::core::BbfpConfig;
use bbal::llm::Tensor;
use bbal::nonlinear::{NonlinearUnit, NonlinearUnitConfig};

/// FNV-1a over the bit patterns of every value, row by row; each row's
/// length is folded in first so rows cannot run into one another.
fn digest<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        eat(row.len() as u64);
        for v in row {
            eat(v.to_bits() as u64);
        }
    }
    h
}

/// Deterministic values in `[-0.5, 0.5)`, about 5% of them 30× outliers,
/// with exact zeros, an FP16 subnormal and a value beyond FP16's range
/// planted at fixed indices.
fn values(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v: Vec<f32> = (0..n)
        .map(|_| {
            let outlier = next() < 0.05;
            let body = (next() - 0.5) as f32;
            if outlier {
                body * 30.0
            } else {
                body
            }
        })
        .collect();
    for (i, planted) in [(3, 0.0), (11, -0.0), (17, 3.0e-5), (29, -7.0e4)] {
        if i < n {
            v[i] = planted;
        }
    }
    v
}

#[test]
fn bbal_gemm_matmul_bits_are_pinned() {
    // K = 40: one whole 32-wide block plus a ragged 8-wide tail.
    let a = Tensor::from_vec(5, 40, values(5 * 40, 1));
    let b = Tensor::from_vec(40, 6, values(40 * 6, 2));
    let got: Vec<u64> = [(4u8, 2u8), (6, 3), (10, 5)]
        .into_iter()
        .map(|(m, o)| {
            let out = BbalGemm::new(BbfpConfig::new(m, o).unwrap()).matmul(&a, &b);
            digest([out.data()])
        })
        .collect();
    let want = [
        0xefc3_2734_b4d7_aa67u64,
        0x415f_1ac5_4632_5a53,
        0x089a_a106_3bbf_f45a,
    ];
    assert_eq!(got, want, "BBFP(4,2), (6,3), (10,5) digests {got:#018x?}");
}

/// Softmax rows: an ordinary row, the subnormal near-tie row (after the
/// max subtraction the LUT sees `[0, -3e-5, -5e-4]`: shared exponent 0,
/// and `-3e-5` encodes as a flagged mantissa of 16, whose code equals a
/// low-window mantissa of 512), a row wider than any stored block, a
/// masked-style row and a single element.
fn softmax_rows() -> Vec<Vec<f32>> {
    vec![
        (0..32).map(|i| (i as f32 * 0.37).sin() * 4.0).collect(),
        vec![0.0, -3.0e-5, -5.0e-4],
        (0..5000)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.13)
            .collect(),
        (0..48)
            .map(|i| {
                if i % 5 == 0 {
                    -60000.0
                } else {
                    -(i as f32) * 0.3
                }
            })
            .collect(),
        vec![3.2],
    ]
}

/// Activation inputs: a smooth ramp, the subnormal near-tie pair, an
/// outlier-laden row with a ragged 128-chunk tail and a 5,000-wide row.
fn activation_rows() -> Vec<Vec<f32>> {
    vec![
        (0..64).map(|i| (i as f32 - 32.0) * 0.2).collect(),
        vec![-3.0e-5, -5.0e-4],
        values(300, 7).iter().map(|v| v * 0.5).collect(),
        (0..5000)
            .map(|i| ((i * 53 % 211) as f32 - 105.0) * 0.05)
            .collect(),
    ]
}

fn run_unit(config: NonlinearUnitConfig) -> [u64; 3] {
    let mut unit = NonlinearUnit::new(config);
    let mut softmax = softmax_rows();
    for row in &mut softmax {
        unit.softmax_row(row);
    }
    let mut silu = activation_rows();
    for row in &mut silu {
        unit.silu(row);
    }
    let mut gelu = activation_rows();
    for row in &mut gelu {
        unit.gelu(row);
    }
    let d = |rows: &[Vec<f32>]| digest(rows.iter().map(Vec::as_slice));
    [d(&softmax), d(&silu), d(&gelu)]
}

#[test]
fn nonlinear_unit_bits_are_pinned() {
    // One row per configuration (BBFP(10,5), BFP10); columns are
    // softmax, SILU and GELU.
    let got = [
        run_unit(NonlinearUnitConfig::paper()),
        run_unit(NonlinearUnitConfig::bfp10()),
    ];
    let want = [
        [
            0x7727_f948_4332_d476u64,
            0x0b92_ded9_745d_b5aa,
            0x89f1_6f9f_e69a_6808,
        ],
        [
            0x5f9a_e654_9b8d_1e56,
            0x3882_53f7_5c35_aa8e,
            0x071f_e599_5aa8_ee5f,
        ],
    ];
    assert_eq!(got, want, "digests {got:#018x?}");
}

#[test]
fn fig3_table_text_is_pinned() {
    let mut out = Vec::new();
    bbal_bench::experiments::fig3::run(&mut out).unwrap();
    let got = String::from_utf8(out).unwrap();
    assert_eq!(got, include_str!("golden/fig3.txt"));
}
