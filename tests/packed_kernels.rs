//! Bit-identity proptest battery for the packed quantised weight
//! storage and the GEMM and attention kernels that read it.
//!
//! Every property here pins the same invariant from a different angle:
//! **the packed path never changes a single output bit** relative to the
//! scalar f32 path (`Tensor::matmul` / an in-order `Σ fl(aⱼ·wⱼ)`
//! reference / the dense attention loops). The battery sweeps all
//! `TABLE2_SCHEMES` plus the algebra-derived MX / MSFP / block-minifloat
//! families × matrix shapes (including ragged dimensions not divisible
//! by the scheme's block size) × seeds.
//!
//! Run with `PROPTEST_CASES=128` (CI does) for the full sweep.

use bbal::core::packed::{
    attn_dot_packed, attn_scores_packed, attn_weighted_sum_packed, PackedRows,
};
use bbal::core::{
    algebra_quantize_slice, Fp16, LayoutKind, PackedMatrix, RoundingMode, SchemeSpec,
};
use bbal::llm::{KvStore, Tensor};
use bbal::quant::registry::{hooks_for, FIG8_SCHEMES, TABLE2_SCHEMES};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Deterministic fixtures
// ---------------------------------------------------------------------

/// Small xorshift generator so every case is reproducible from its seed
/// without dragging a full RNG dependency into the property bodies.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Raw (pre-quantisation) weight values: exact multiples of 2⁻⁵ in
/// [-4, 4], with exact zeros mixed in. Staying on a coarse power-of-two
/// grid keeps every product far away from the subnormal range, where
/// once-per-block scaling genuinely differs from per-element scaling.
fn raw_values(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let r = xorshift(&mut s);
            if r.is_multiple_of(13) {
                0.0
            } else {
                ((r % 257) as f32 - 128.0) * 0.03125
            }
        })
        .collect()
}

/// Activations on the same grid, with exact ±0.0 lanes to exercise the
/// scalar path's zero-skip branch (which the packed kernels replicate).
fn activations(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15 | 1;
    (0..n)
        .map(|_| {
            let r = xorshift(&mut s);
            match r % 17 {
                0 => 0.0,
                1 => -0.0,
                _ => ((r % 129) as f32 - 64.0) * 0.0625,
            }
        })
        .collect()
}

/// Weights as the model stores them: raw values pushed through the
/// scheme's own PTQ hook (`transform_weights`), i.e. exactly the values
/// `TransformerModel::with_prepared_weights` packs.
fn quantised_weights(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
    let mut w = raw_values(n, seed);
    let hooks = hooks_for(scheme).expect("every Table II scheme has hooks");
    hooks.transform_weights(&mut w);
    w
}

/// The other algebra families (MX / MSFP / block minifloat) and the
/// flagged zero-overlap BBFP(6,0) point ride the same battery as the
/// Table II lineup, including a non-32 block size.
const ALGEBRA_SCHEMES: [SchemeSpec; 4] = [
    SchemeSpec::Mx(8, 4, 2),
    SchemeSpec::Msfp(4, 16),
    SchemeSpec::BlockMf(4, 3, 8),
    SchemeSpec::Bbfp(6, 0),
];

/// Every scheme the battery sweeps: the Table II lineup followed by the
/// algebra families (so indices 4.. are all block formats).
fn sweep_schemes() -> Vec<SchemeSpec> {
    TABLE2_SCHEMES
        .iter()
        .copied()
        .chain(ALGEBRA_SCHEMES)
        .collect()
}

/// A sweep scheme picked by index (proptest shrinks towards index 0).
fn sweep_scheme() -> impl Strategy<Value = SchemeSpec> {
    (0..TABLE2_SCHEMES.len() + ALGEBRA_SCHEMES.len()).prop_map(|i| sweep_schemes()[i])
}

/// The expected storage layout for a scheme.
fn expected_layout(scheme: SchemeSpec) -> LayoutKind {
    match scheme {
        SchemeSpec::Bfp(_)
        | SchemeSpec::Bbfp(_, _)
        | SchemeSpec::Mx(..)
        | SchemeSpec::Msfp(..)
        | SchemeSpec::BlockMf(..) => LayoutKind::Block,
        SchemeSpec::Fp16 => LayoutKind::Fp16,
        _ => LayoutKind::Dense,
    }
}

/// The scalar reference: `x · W` exactly as `Tensor::matmul` computes it.
fn reference_matmul(x: &[f32], x_rows: usize, w: &[f32], k: usize, n: usize) -> Vec<f32> {
    let xt = Tensor::from_vec(x_rows, k, x.to_vec());
    let wt = Tensor::from_vec(k, n, w.to_vec());
    xt.matmul(&wt).data().to_vec()
}

/// Asserts two f32 buffers are identical *bitwise* (so NaN payloads and
/// signed zeros count too), reporting the first mismatch.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: index {} packed {} vs scalar {}",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    /// Encode → decode over the whole matrix is exact for every scheme's
    /// layout: the packed form is storage, never re-quantisation.
    #[test]
    fn packed_roundtrip_is_bit_exact(
        scheme in sweep_scheme(),
        rows in 1usize..7,
        cols in 1usize..70,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, rows * cols, seed);
        let p = PackedMatrix::pack(&w, rows, cols, scheme);
        prop_assert_eq!(p.rows(), rows);
        prop_assert_eq!(p.cols(), cols);
        prop_assert_eq!(p.scheme(), scheme);
        assert_bits_eq(&p.decode(), &w, "decode")?;
    }

    /// Block-format schemes actually land in the packed `Block` layout
    /// (shared exponent + mantissa payloads), and its footprint beats the
    /// dense f32 fallback — i.e. the fast path is really taken, not the
    /// self-verification fallback.
    #[test]
    fn block_schemes_take_the_block_layout(
        rows in 1usize..6,
        cols in 1usize..70,
        seed in any::<u64>(),
    ) {
        for scheme in sweep_schemes() {
            let w = quantised_weights(scheme, rows * cols, seed);
            let p = PackedMatrix::pack(&w, rows, cols, scheme);
            prop_assert_eq!(
                p.layout_kind(),
                expected_layout(scheme),
                "scheme {:?}",
                scheme
            );
            if p.layout_kind() == LayoutKind::Block {
                prop_assert!(
                    p.packed_bits() < 32 * rows * cols,
                    "{:?}: packed {} bits vs dense {}",
                    scheme,
                    p.packed_bits(),
                    32 * rows * cols
                );
            }
        }
    }

    /// One block in the real store — a `len × 1` matrix, whose one
    /// block (ragged when shorter than the scheme's block size) runs
    /// down the contraction axis — decodes exactly, and `gemm` off its
    /// codes equals the in-order f32 dot `Σ fl(aⱼ·wⱼ)` bit for bit.
    #[test]
    fn block_dot_is_bit_identical(
        scheme_idx in 4usize..TABLE2_SCHEMES.len() + ALGEBRA_SCHEMES.len(),
        len in 1usize..=32,
        seed in any::<u64>(),
    ) {
        let scheme = sweep_schemes()[scheme_idx]; // indices 4.. are block formats
        let format = scheme
            .block_algebra()
            .expect("indices 4.. are block formats");
        // One block holds at most `block_size` values (16 for MSFP(4,16)).
        let len = len.min(format.block_size);
        let w = quantised_weights(scheme, len, seed);
        let block = PackedMatrix::pack(&w, len, 1, scheme);
        prop_assert_eq!(block.layout_kind(), LayoutKind::Block);
        assert_bits_eq(&block.decode(), &w, "block decode")?;

        let acts = activations(len, seed);
        let mut want = 0.0f32;
        for (a, wv) in acts.iter().zip(&w) {
            want += a * wv;
        }
        let mut got = [f32::NAN];
        block.gemm(&acts, 1, &mut got);
        prop_assert_eq!(
            got[0].to_bits(),
            want.to_bits(),
            "block dot {} vs reference {}",
            got[0],
            want
        );
    }

    /// The headline invariant: packed GEMM == `Tensor::matmul` bitwise
    /// for every scheme, including ragged inner/outer dimensions where
    /// quantisation blocks straddle row boundaries.
    #[test]
    fn packed_gemm_matches_scalar_bitwise(
        scheme in sweep_scheme(),
        x_rows in 1usize..4,
        k in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, k * n, seed);
        let x = activations(x_rows * k, seed.rotate_left(17));
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let mut got = vec![f32::NAN; x_rows * n];
        p.gemm(&x, x_rows, &mut got);
        let want = reference_matmul(&x, x_rows, &w, k, n);
        assert_bits_eq(&got, &want, "gemm")?;
    }
}

// ---------------------------------------------------------------------
// Deterministic spot checks (run even when PROPTEST_CASES is tiny)
// ---------------------------------------------------------------------

/// Paper-shaped dims (multiples of every sweep block size, the aligned
/// fast path) for every sweep scheme at a fixed seed — the exact
/// configuration the model runs, as one plain test that never shrinks
/// away.
#[test]
fn paper_shape_gemm_is_bit_identical_for_every_scheme() {
    let (k, n) = (64, 96);
    for scheme in sweep_schemes() {
        let w = quantised_weights(scheme, k * n, 0xB1D5);
        let x = activations(3 * k, 0xACC5);
        let p = PackedMatrix::pack(&w, k, n, scheme);
        assert_eq!(p.layout_kind(), expected_layout(scheme), "{scheme:?}");
        let mut got = vec![f32::NAN; 3 * n];
        p.gemm(&x, 3, &mut got);
        let want = reference_matmul(&x, 3, &w, k, n);
        for (i, (g, wv)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), wv.to_bits(), "{scheme:?} index {i}");
        }
    }
}

/// The Fp32 scheme must fall through to the dense layout and still be
/// exact — the identity case of the whole construction.
#[test]
fn fp32_dense_layout_is_the_identity() {
    let w = raw_values(5 * 33, 7);
    let p = PackedMatrix::pack(&w, 5, 33, SchemeSpec::Fp32);
    assert_eq!(p.layout_kind(), LayoutKind::Dense);
    assert_eq!(p.decode(), w);
}

// ---------------------------------------------------------------------
// Adversarial-range battery
// ---------------------------------------------------------------------

/// Weights of magnitude ~1e-3, quantised by the scheme's own PTQ hook:
/// small enough that every block scale `2^s` sits well below 1, so a
/// tiny activation folded into it (`a·2^s`) drops out of the normal f32
/// range.
fn milli_weights(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
    let mut w: Vec<f32> = raw_values(n, seed).iter().map(|v| v * 2.5e-4).collect();
    let hooks = hooks_for(scheme).expect("every sweep scheme has hooks");
    hooks.transform_weights(&mut w);
    w
}

/// One activation row per adversarial class, each `k` long: values near
/// 1e-36, subnormals, values near `f32::MAX`, rows carrying ±inf or NaN
/// among ordinary values, all-zero blocks next to tiny values, an
/// all-zero row, and ordinary values interleaved with 1e-36.
fn adversarial_rows(k: usize, seed: u64) -> Vec<(&'static str, Vec<f32>)> {
    let mut s = seed | 1;
    let mut draw = move || {
        let r = xorshift(&mut s);
        let sign = if r & 1 == 0 { 1.0f32 } else { -1.0 };
        (sign, r)
    };
    let mut row = |f: &mut dyn FnMut(usize, f32, u64) -> f32| -> Vec<f32> {
        (0..k)
            .map(|j| {
                let (sign, r) = draw();
                f(j, sign, r)
            })
            .collect()
    };
    let unit = |r: u64| 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
    vec![
        ("near 1e-36", row(&mut |_, sg, r| sg * 1e-36 * unit(r))),
        (
            "subnormal",
            row(&mut |_, sg, r| sg * f32::from_bits((r % 0x7f_ffff) as u32 + 1)),
        ),
        (
            "near f32::MAX",
            row(&mut |_, sg, r| sg * f32::MAX * 0.499 * unit(r)),
        ),
        (
            "±inf",
            row(&mut |j, sg, r| match j % 11 {
                3 => sg * f32::INFINITY,
                _ => sg * 0.25 * unit(r),
            }),
        ),
        (
            "NaN",
            row(&mut |j, sg, r| {
                if j % 13 == 5 {
                    f32::NAN
                } else {
                    sg * 0.5 * unit(r)
                }
            }),
        ),
        (
            "zero blocks",
            row(&mut |j, sg, r| {
                if (j / 32) % 2 == 0 {
                    0.0
                } else {
                    sg * 3e-37 * unit(r)
                }
            }),
        ),
        ("all zero", row(&mut |_, _, _| 0.0)),
        (
            "mixed",
            row(&mut |j, sg, r| {
                if j % 3 == 0 {
                    sg * 1e-36 * unit(r)
                } else {
                    sg * unit(r)
                }
            }),
        ),
    ]
}

/// Bitwise equality with NaN matched by class: which NaN payload an IEEE
/// operation returns is a platform detail, so a NaN must meet a NaN.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(same, "{what}: index {i} packed {g:e} vs scalar {w:e}");
    }
}

/// The weight GEMM equals the scalar `a·w` reference bit for bit on
/// every adversarial activation class, for BFP4, BBFP(4,2), BFP6, every
/// Table II scheme and the algebra families, on aligned and ragged
/// shapes.
#[test]
fn weight_gemms_match_scalar_on_adversarial_activations() {
    let mut schemes = vec![
        SchemeSpec::Bfp(4),
        SchemeSpec::Bbfp(4, 2),
        SchemeSpec::Bfp(6),
    ];
    schemes.extend(sweep_schemes());
    for scheme in schemes {
        for (k, n) in [(64, 96), (37, 45)] {
            let seed = (k * 1000 + n) as u64;
            let rows = adversarial_rows(k, seed);
            let x_rows = rows.len();
            let x: Vec<f32> = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
            let w = milli_weights(scheme, k * n, seed);
            let p = PackedMatrix::pack(&w, k, n, scheme);
            assert_eq!(p.layout_kind(), expected_layout(scheme), "{scheme:?}");
            let want = reference_matmul(&x, x_rows, &w, k, n);

            let mut got = vec![f32::NAN; x_rows * n];
            p.gemm(&x, x_rows, &mut got);
            for (c, (name, _)) in rows.iter().enumerate() {
                let r = c * n..(c + 1) * n;
                let what = format!("{scheme:?} {k}x{n} {name}");
                assert_same_bits(&got[r.clone()], &want[r], &format!("gemm {what}"));
            }
        }
    }
}

/// Softmax-tail probabilities or queries: magnitudes 1e-36 down to
/// 3e-39 (subnormal), which a block scale below 1 takes out of the
/// normal range when folded in.
fn softmax_tail(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|j| {
            let r = xorshift(&mut s);
            let mag = 1e-36 * (3e-3f32).powf((r % 1001) as f32 / 1000.0);
            if j % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// K/V rows at the extremes the encoder meets: ~1e-3 rows (block scales
/// far below 1), and rows mixing values near FP16's top, FP16 subnormals,
/// all-zero blocks and ordinary values.
fn extreme_kv_rows(rows: usize, width: usize, seed: u64) -> Vec<(&'static str, Vec<f32>)> {
    let milli: Vec<f32> = raw_values(rows * width, seed)
        .iter()
        .map(|v| v * 2.5e-4)
        .collect();
    let mut s = seed | 1;
    let wide: Vec<f32> = (0..rows * width)
        .map(|i| {
            let r = xorshift(&mut s);
            let sign = if r & 1 == 0 { 1.0f32 } else { -1.0 };
            match (i % width / 32, i % 5) {
                (1, _) => 0.0,
                (_, 0) => sign * 6.0e4,
                (_, 1) => sign * 3.0e-7 * (1 + r % 7) as f32,
                _ => sign * ((r % 257) as f32 - 128.0) * 0.03125,
            }
        })
        .collect();
    vec![("~1e-3 rows", milli), ("extreme rows", wide)]
}

/// The attention kernels equal the dense loops bit for bit when the
/// fold of a block scale into the query or probability is inexact:
/// queries and probabilities from every adversarial class (1e-36,
/// subnormal, near `f32::MAX`, ±inf, NaN, zero blocks, all zero, mixed)
/// and the 1e-36…3e-39 softmax tail, against K/V pages of ~1e-3 rows and
/// of extreme rows, on every sweep scheme (BFP4, BBFP(4,2) and BFP6
/// among them), over aligned head spans and one that starts and ends
/// inside a block — on a row-major page and on the key-minor page a KV
/// arena stores keys in, through the one-key `attn_dot_packed`, the
/// page kernel `attn_scores_packed` over every key and `attn_weighted_sum_packed`.
#[test]
fn attention_kernels_match_dense_on_adversarial_ranges() {
    let (n_rows, width) = (12usize, 192usize);
    let mut schemes = vec![
        SchemeSpec::Bfp(4),
        SchemeSpec::Bbfp(4, 2),
        SchemeSpec::Bfp(6),
    ];
    schemes.extend(sweep_schemes());
    for scheme in schemes {
        let store = KvStore {
            scheme,
            quantize: true,
            packed: true,
        };
        let storage = store.storage_scheme();
        for (page_name, raw_rows) in extreme_kv_rows(n_rows, width, 0xA77) {
            let mut pages = [
                PackedRows::new(storage, width),
                PackedRows::key_minor(storage, width, n_rows),
            ];
            for row in raw_rows.chunks(width) {
                let mut q = row.to_vec();
                store.quantize_row(&mut q);
                for page in &mut pages {
                    page.push_row(&q);
                }
            }
            let dense = pages[0].to_dense();
            assert_same_bits(
                &pages[1].to_dense(),
                &dense,
                &format!("{scheme:?} key-minor rows"),
            );
            for page in &pages {
                let order = if page.is_key_minor() {
                    "key-minor"
                } else {
                    "row-major"
                };
                for (c0, dh) in [(0usize, 64usize), (64, 64), (128, 64), (8, 48)] {
                    let v = |j: usize, d: usize| dense[j * width + c0 + d];
                    let what = |kind: &str, class: &str| {
                        format!("{scheme:?} {order} {page_name} c0={c0} dh={dh} {kind} {class}")
                    };
                    let mut queries = adversarial_rows(dh, (c0 * 31 + dh) as u64);
                    queries.push(("softmax tail", softmax_tail(dh, c0 as u64 + 5)));
                    for (class, q) in &queries {
                        let want: Vec<f32> = (0..n_rows)
                            .map(|j| {
                                let mut acc = 0.0f32;
                                for (d, qv) in q.iter().enumerate() {
                                    acc += qv * v(j, d);
                                }
                                acc
                            })
                            .collect();
                        let got: Vec<f32> = (0..n_rows)
                            .map(|j| attn_dot_packed(q, page, j, c0))
                            .collect();
                        assert_same_bits(&got, &want, &what("attn_dot_packed", class));
                        let mut scores = vec![f32::NAN; n_rows];
                        attn_scores_packed(q, page, 0..n_rows, c0, &mut scores);
                        assert_same_bits(&scores, &want, &what("attn_scores_packed", class));
                    }
                    let mut probs = adversarial_rows(n_rows, (c0 * 17 + dh) as u64);
                    probs.push(("softmax tail", softmax_tail(n_rows, c0 as u64 + 9)));
                    for (class, p) in &probs {
                        let mut got = vec![0.0f32; dh];
                        attn_weighted_sum_packed(p, page, c0, &mut got);
                        let mut want = vec![0.0f32; dh];
                        for (j, &pj) in p.iter().enumerate() {
                            for (d, o) in want.iter_mut().enumerate() {
                                *o += pj * v(j, d);
                            }
                        }
                        assert_same_bits(&got, &want, &what("attn_weighted_sum_packed", class));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Key-minor pages: the attention page kernel
// ---------------------------------------------------------------------

/// Query classes for the page kernel: ordinary FP16-grid values, `-0`
/// entries, subnormals, values near `f32::MAX`, and one `+inf`, `-inf`
/// or NaN among ordinary values.
fn page_queries(dh: usize, seed: u64) -> Vec<(&'static str, Vec<f32>)> {
    let ordinary = activations(dh, seed);
    let with = |f: &dyn Fn(usize, f32) -> f32| -> Vec<f32> {
        ordinary.iter().enumerate().map(|(d, &v)| f(d, v)).collect()
    };
    vec![
        ("ordinary", ordinary.clone()),
        ("-0", with(&|d, v| if d % 2 == 0 { -0.0 } else { v })),
        (
            "subnormal",
            with(&|d, _| f32::from_bits(1 + d as u32 * 977) * if d % 3 == 0 { -1.0 } else { 1.0 }),
        ),
        (
            "huge",
            with(&|d, v| if d % 4 == 1 { f32::MAX * 0.75 } else { v }),
        ),
        (
            "+inf",
            with(&|d, v| if d == dh / 2 { f32::INFINITY } else { v }),
        ),
        (
            "-inf",
            with(&|d, v| if d == dh / 3 { f32::NEG_INFINITY } else { v }),
        ),
        ("NaN", with(&|d, v| if d == dh - 1 { f32::NAN } else { v })),
    ]
}

/// `q · row` for every row of `dense` (`width` wide) at columns
/// `c0..c0 + q.len()`, summed left to right: the dense QKᵀ loop.
fn dense_scores(q: &[f32], dense: &[f32], width: usize, c0: usize) -> Vec<f32> {
    dense
        .chunks(width)
        .map(|row| {
            let mut acc = 0.0f32;
            for (qv, kv) in q.iter().zip(&row[c0..]) {
                acc += qv * kv;
            }
            acc
        })
        .collect()
}

/// Checks every run of keys of `page` — every key count from 1 to its
/// rows and every start — through `attn_scores_packed`, and each key
/// through `attn_dot_packed`, against the dense loop over `dense`, for
/// every query class at two head spans (one inside a block, one across
/// a block edge).
fn check_page(page: &PackedRows, dense: &[f32], what: &str) {
    let width = page.width();
    assert_same_bits(&page.to_dense(), dense, &format!("{what} rows"));
    for (c0, dh) in [(0usize, 48usize), (24, 48)] {
        for (class, q) in page_queries(dh, (c0 + dh) as u64) {
            let want = dense_scores(&q, dense, width, c0);
            let what = format!("{what} c0={c0} {class}");
            for j1 in 1..=page.rows() {
                for j0 in 0..j1 {
                    let mut got = vec![f32::NAN; j1 - j0];
                    attn_scores_packed(&q, page, j0..j1, c0, &mut got);
                    assert_same_bits(&got, &want[j0..j1], &format!("{what} keys {j0}..{j1}"));
                }
            }
            for (j, w) in want.iter().enumerate() {
                let got = attn_dot_packed(&q, page, j, c0);
                assert_same_bits(&[got], &[*w], &format!("{what} key {j}"));
            }
        }
    }
}

/// Key-minor pages of 1, 3 and 16 tokens, as a KV arena fills them: the
/// rows of a sequence split into pages with a ragged last page, every
/// key count and start scored against the dense loop, on block schemes
/// with `i16` and `f32` codes and on dense lanes; then a page that an
/// unquantised row demotes to a dense lane, and a copy-on-write copy of
/// a partly filled page that both the copy and the original keep
/// filling.
#[test]
fn key_minor_pages_match_dense_at_every_page_size() {
    let width = 96;
    let schemes = [
        SchemeSpec::Bbfp(4, 2),
        SchemeSpec::Bfp(4),
        SchemeSpec::Bbfp(10, 1),
        SchemeSpec::BlockMf(4, 3, 8),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::Fp32,
        SchemeSpec::Oltron,
    ];
    for scheme in schemes {
        let store = KvStore {
            scheme,
            quantize: true,
            packed: true,
        };
        let storage = store.storage_scheme();
        for page_tokens in [1usize, 3, 16] {
            let n = 2 * page_tokens + page_tokens.div_ceil(2);
            let mut rows = raw_values(n * width, (page_tokens * 7 + width) as u64);
            for row in rows.chunks_mut(width) {
                store.quantize_row(row);
            }
            for (p, page_rows) in rows.chunks(page_tokens * width).enumerate() {
                let mut page = PackedRows::key_minor(storage, width, page_tokens);
                for row in page_rows.chunks(width) {
                    page.push_row(row);
                }
                assert!(page.is_key_minor());
                check_page(
                    &page,
                    page_rows,
                    &format!("{scheme:?} page_tokens={page_tokens} page {p}"),
                );
            }
        }

        // Demotion: a row the block layout cannot hold turns the page
        // into a dense lane, still key-minor, still exact.
        let mut rows = raw_values(5 * width, 0xD3);
        for row in rows.chunks_mut(width) {
            store.quantize_row(row);
        }
        rows[2 * width..3 * width].copy_from_slice(
            &raw_values(width, 0xD4)
                .iter()
                .map(|v| v + 1e-3)
                .collect::<Vec<f32>>(),
        );
        let mut page = PackedRows::key_minor(storage, width, 8);
        for row in rows.chunks(width) {
            page.push_row(row);
        }
        assert_eq!(page.layout_kind(), LayoutKind::Dense, "{scheme:?} demoted");
        assert!(
            page.is_key_minor() && page.capacity() == 8,
            "{scheme:?} demoted page keeps its order and size"
        );
        check_page(&page, &rows, &format!("{scheme:?} demoted"));

        // Copy on write: a partly filled page copied at its page size;
        // both keep filling, neither sees the other's rows.
        let mut rows = raw_values(7 * width, 0xC0);
        for row in rows.chunks_mut(width) {
            store.quantize_row(row);
        }
        let mut shared = PackedRows::key_minor(storage, width, 5);
        for row in rows[..3 * width].chunks(width) {
            shared.push_row(row);
        }
        let mut copy = shared.copy_with_capacity(5);
        assert!(
            copy.is_key_minor() && copy.capacity() == 5,
            "{scheme:?} copy"
        );
        for row in rows[3 * width..5 * width].chunks(width) {
            copy.push_row(row);
        }
        shared.push_row(&rows[5 * width..6 * width]);
        check_page(&copy, &rows[..5 * width], &format!("{scheme:?} copy"));
        let mut original = rows[..3 * width].to_vec();
        original.extend_from_slice(&rows[5 * width..6 * width]);
        check_page(&shared, &original, &format!("{scheme:?} original"));
    }
}

// ---------------------------------------------------------------------
// Multi-row battery: the row tile
// ---------------------------------------------------------------------

/// One activation row of `x_rows`, `k` long: a class the exact-product
/// guard rejects (1e-36, subnormal, ±inf, NaN) when `kind` picks one, an
/// ordinary activation row otherwise.
fn mixed_row(kind: u64, k: usize, seed: u64) -> Vec<f32> {
    let classes = ["near 1e-36", "subnormal", "±inf", "NaN"];
    match kind % 8 {
        c @ 0..=3 => adversarial_rows(k, seed)
            .into_iter()
            .find(|(name, _)| *name == classes[c as usize])
            .map(|(_, row)| row)
            .expect("a named adversarial class"),
        _ => activations(k, seed),
    }
}

/// The first index where two buffers differ in bits (a NaN meets any
/// NaN: its payload is a platform detail), if any.
fn first_mismatch(got: &[f32], want: &[f32]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
}

proptest! {
    /// `gemm` over 1..=17 activation rows — every row takes the row
    /// tile — equals row-by-row `gemm` and the scalar
    /// `a·w` reference bit for bit: every sweep scheme (the FP16 and
    /// Oltron dense lanes included), ragged and block-aligned widths, and
    /// guard-failing rows interleaved with ordinary rows in one tile,
    /// against ordinary and ~1e-3 weights.
    #[test]
    fn multi_row_gemm_matches_row_by_row_and_scalar(
        scheme in sweep_scheme(),
        x_rows in 1usize..=17,
        k in 1usize..80,
        n in prop_oneof![1usize..100, (1usize..5).prop_map(|b| b * 32)],
        milli: bool,
        kinds in proptest::collection::vec(any::<u64>(), 17),
        seed in any::<u64>(),
    ) {
        let w = if milli {
            milli_weights(scheme, k * n, seed)
        } else {
            quantised_weights(scheme, k * n, seed)
        };
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let rows: Vec<Vec<f32>> = (0..x_rows)
            .map(|i| mixed_row(kinds[i], k, seed.rotate_left(i as u32 + 1)))
            .collect();
        let x: Vec<f32> = rows.concat();

        let want = reference_matmul(&x, x_rows, &w, k, n);
        let mut got = vec![f32::NAN; x_rows * n];
        p.gemm(&x, x_rows, &mut got);
        let mut by_row = Vec::with_capacity(x_rows * n);
        for row in &rows {
            let mut out = vec![f32::NAN; n];
            p.gemm(row, 1, &mut out);
            by_row.extend(out);
        }
        prop_assert!(first_mismatch(&by_row, &want).is_none(), "row-by-row gemm vs scalar");
        let bad = first_mismatch(&got, &want);
        prop_assert!(bad.is_none(), "{:?} {}x{}x{}: gemm vs scalar at {:?}", scheme, x_rows, k, n, bad);
    }
}

/// The paper's decoder shapes at every row count the runtime fuses:
/// 1..=17 rows of ordinary activations with one guard-failing row
/// dropped into the middle of the first tile, for every sweep scheme.
#[test]
fn multi_row_paper_shapes_match_scalar_for_every_scheme() {
    let (k, n) = (64, 96);
    for scheme in sweep_schemes() {
        let w = quantised_weights(scheme, k * n, 0x7117);
        let p = PackedMatrix::pack(&w, k, n, scheme);
        for x_rows in 1..=17 {
            let mut x = activations(x_rows * k, 0x5EED + x_rows as u64);
            if x_rows >= 3 {
                x[k..2 * k].fill(f32::from_bits(1)); // a subnormal row
            }
            let want = reference_matmul(&x, x_rows, &w, k, n);
            let mut got = vec![f32::NAN; x_rows * n];
            p.gemm(&x, x_rows, &mut got);
            assert_same_bits(&got, &want, &format!("{scheme:?} {x_rows} rows"));
        }
    }
}

// ---------------------------------------------------------------------
// Exact-product guard battery: the fused accumulate
// ---------------------------------------------------------------------

/// Activation rows `k` long on both sides of the GEMM's exact-product
/// guard, for weights whose largest magnitude is `w_max`: hook-quantised
/// BBFP(4,2) rows and FP16 rows (few significand bits: they pass),
/// 24-bit-significand rows (they fail), rows whose products come near
/// `f32::MAX` and rows whose products pass it, hook-quantised rows with
/// `-0` entries, an all-`+0` and an all-`-0` row.
fn guard_rows(k: usize, w_max: f32, seed: u64) -> Vec<(&'static str, Vec<f32>)> {
    let mut s = seed | 1;
    let mut next = move || xorshift(&mut s);
    let mut draws =
        |f: &mut dyn FnMut(u64) -> f32| -> Vec<f32> { (0..k).map(|_| f(next())).collect() };
    let sign = |r: u64| if r & 1 == 0 { 1.0f32 } else { -1.0 };
    let gaussianish = |r: u64| sign(r) * ((r >> 8) % 4001) as f32 / 1000.0;
    let mut hooked = draws(&mut |r| gaussianish(r));
    hooks_for(SchemeSpec::Bbfp(4, 2))
        .expect("bbfp:4,2 has hooks")
        .transform_activations(&mut hooked);
    let fp16 = draws(&mut |r| Fp16::from_f32_saturating(gaussianish(r)).to_f32());
    let full =
        draws(&mut |r| sign(r) * f32::from_bits(0x3F80_0001 | ((r >> 20) as u32 & 0x7F_FFFF)));
    // The largest power of two whose products with every weight stay
    // finite, and rows of 1- and 2-bit significands just under and over
    // it.
    let limit = 2f32.powi((f32::MAX / w_max).log2().floor() as i32 - 1);
    let near = draws(&mut |r| sign(r) * limit * if r % 3 == 0 { 1.5 } else { 0.5 });
    let past = draws(&mut |r| sign(r) * limit * if r % 3 == 0 { 6.0 } else { 0.5 });
    let signed_zeros: Vec<f32> = hooked
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 3 == 0 { -0.0 } else { v })
        .collect();
    vec![
        ("hook-quantised bbfp:4,2", hooked),
        ("fp16", fp16),
        ("24-bit significands", full),
        ("near f32::MAX products", near),
        ("past f32::MAX products", past),
        ("-0 entries", signed_zeros),
        ("all +0", vec![0.0; k]),
        ("all -0", vec![-0.0; k]),
    ]
}

/// The weight GEMM equals the scalar reference bit for bit on rows
/// that pass the exact-product guard (which the FMA builds accumulate
/// with one fused multiply-add) and on rows that fail it (separate
/// multiply and add), mixed in one call so fused and split rows share
/// the row tile: BFP/BBFP `i16` codes, the `f32` codes of `bbfp:10,1`
/// and `blockmf:4,3,8`, MX and MSFP codes, the FP16 lane and the dense
/// lane, on tiled and ragged shapes.
#[test]
fn fused_gemm_matches_reference_on_both_sides_of_the_guard() {
    let schemes = [
        SchemeSpec::Bbfp(4, 2),
        SchemeSpec::Bfp(4),
        SchemeSpec::Bbfp(6, 3),
        SchemeSpec::Bbfp(10, 1),
        SchemeSpec::BlockMf(4, 3, 8),
        SchemeSpec::Mx(8, 4, 2),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::Fp16,
        SchemeSpec::Fp32,
    ];
    for scheme in schemes {
        for (k, n) in [(192, 192), (64, 96), (37, 45)] {
            let seed = (k * 1000 + n) as u64;
            let w = quantised_weights(scheme, k * n, seed);
            let w_max = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let rows = guard_rows(k, w_max, seed);
            let x_rows = rows.len();
            let x: Vec<f32> = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
            let p = PackedMatrix::pack(&w, k, n, scheme);
            assert_eq!(p.layout_kind(), expected_layout(scheme), "{scheme:?}");
            let want = reference_matmul(&x, x_rows, &w, k, n);
            let mut got = vec![f32::NAN; x_rows * n];
            p.gemm(&x, x_rows, &mut got);
            for (i, (name, _)) in rows.iter().enumerate() {
                let r = i * n..(i + 1) * n;
                let what = format!("{scheme:?} {k}x{n} {name}");
                assert_same_bits(&got[r.clone()], &want[r], &format!("gemm {what}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Code-lane battery: block weights stored as element codes
// ---------------------------------------------------------------------

/// The code-lane battery. A block-layout matrix keeps one element code
/// per weight (`i16`, or `f32` where codes outgrow it) in flat row-major
/// order, and its row tile covers every column when its blocks start
/// rows and are a multiple of 16 wide.
/// For every Table II and Fig. 8 block scheme, `mx:8,4,2` (code shift
/// 1), `msfp:4,16` (16-wide blocks), `blockmf:4,3,8` (f32 codes) and
/// `bbfp:10,1` (codes past `i16`), on aligned and ragged shapes: the
/// layout is `Block`, `decode()` returns the input bit for bit, and
/// `gemm` at 1..=17 rows equals the scalar reference, with guard-failing
/// rows (1e-36, subnormal, ±inf, NaN) mixed into the tiles.
#[test]
fn code_lane_battery() {
    let mut schemes: Vec<SchemeSpec> = TABLE2_SCHEMES
        .iter()
        .chain(FIG8_SCHEMES)
        .copied()
        .filter(|s| s.block_algebra().is_some())
        .collect();
    schemes.extend([
        SchemeSpec::Mx(8, 4, 2),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::BlockMf(4, 3, 8),
        SchemeSpec::Bbfp(10, 1),
    ]);
    schemes.sort();
    schemes.dedup();
    for scheme in schemes {
        for (k, n) in [(64, 96), (20, 160), (37, 45), (9, 20)] {
            let seed = (k * 1000 + n) as u64;
            let w = quantised_weights(scheme, k * n, seed);
            let p = PackedMatrix::pack(&w, k, n, scheme);
            assert_eq!(p.layout_kind(), LayoutKind::Block, "{scheme:?} {k}x{n}");
            let decoded = p.decode();
            for (i, (d, v)) in decoded.iter().zip(&w).enumerate() {
                assert_eq!(d.to_bits(), v.to_bits(), "{scheme:?} {k}x{n} decode at {i}");
            }
            for x_rows in 1..=17 {
                let row_seed = |i: usize| seed ^ (x_rows * 31 + i) as u64;
                let kind = |i: usize| (x_rows * 5 + i * 3) as u64;
                let x: Vec<f32> = (0..x_rows)
                    .flat_map(|i| mixed_row(kind(i), k, row_seed(i)))
                    .collect();
                let what = format!("{scheme:?} {k}x{n} {x_rows} rows");
                let want = reference_matmul(&x, x_rows, &w, k, n);
                let mut got = vec![f32::NAN; x_rows * n];
                p.gemm(&x, x_rows, &mut got);
                assert_same_bits(&got, &want, &format!("gemm {what}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Encode-once battery: raw values to block codes in one pass
// ---------------------------------------------------------------------

/// Every Table II and Fig. 8 block scheme, `mx:8,4,2` (code shift 1),
/// `msfp:4,16` (16-wide blocks), `blockmf:4,3,8` (f32 codes) and
/// `bbfp:10,1` (codes past `i16`).
fn encode_once_schemes() -> Vec<SchemeSpec> {
    let mut schemes: Vec<SchemeSpec> = TABLE2_SCHEMES
        .iter()
        .chain(FIG8_SCHEMES)
        .copied()
        .filter(|s| s.block_algebra().is_some())
        .collect();
    schemes.extend([
        SchemeSpec::Mx(8, 4, 2),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::BlockMf(4, 3, 8),
        SchemeSpec::Bbfp(10, 1),
    ]);
    schemes.sort();
    schemes.dedup();
    schemes
}

/// Raw (unquantised) values of each class the encoder must treat as the
/// quantiser does, `n` long: ordinary weights; a mix cycling through
/// `+0`, `-0`, ~1e-36, f32 subnormals, FP16 subnormals, ±65504 and values
/// beyond it (which saturate); and ordinary weights with ±inf or NaN
/// dropped in.
fn raw_classes(n: usize, seed: u64) -> Vec<(&'static str, Vec<f32>)> {
    let ordinary = raw_values(n, seed);
    let mut s = seed | 1;
    let specials: Vec<f32> = ordinary
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            let r = xorshift(&mut s);
            let sign = if r & 1 == 0 { 1.0f32 } else { -1.0 };
            let unit = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
            match j % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => sign * 1e-36 * unit,
                3 => sign * f32::from_bits((r % 0x7f_ffff) as u32 + 1),
                4 => sign * 2e-6 * unit,
                5 => sign * 1e5 * unit,
                6 => sign * 65504.0,
                _ => v,
            }
        })
        .collect();
    let with = |every: usize, at: usize, bad: f32| -> Vec<f32> {
        ordinary
            .iter()
            .enumerate()
            .map(|(j, &v)| if j % every == at { bad.copysign(v) } else { v })
            .collect()
    };
    vec![
        ("ordinary", ordinary.clone()),
        ("specials", specials),
        ("±inf", with(11, 3, f32::INFINITY)),
        ("NaN", with(13, 5, f32::NAN)),
    ]
}

/// `raw` through `scheme`'s block quantiser.
fn block_quantised(scheme: SchemeSpec, raw: &[f32]) -> Vec<f32> {
    let alg = scheme.block_algebra().expect("a block scheme");
    let mut q = vec![0.0; raw.len()];
    algebra_quantize_slice(raw, &alg, RoundingMode::NearestEven, &mut q);
    q
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A matrix encoded from raw weights in one pass equals packing the
/// quantiser's output: same layout kind, `decode()` bits and
/// `packed_bits()`, for every encode-once scheme, on aligned and ragged
/// shapes, over every raw class, in debug and release builds alike.
/// Every class free of NaN takes the block layout (the one-pass path,
/// not the dense fallback). A NaN weight quantises to NaN while the
/// rest of its block keeps the scale of its finite elements, so the
/// matrix keeps those values as a dense lane.
#[test]
fn encode_once_matrices_equal_quantise_then_pack() {
    for scheme in encode_once_schemes() {
        for (k, n) in [(64, 96), (20, 160), (37, 45), (9, 20)] {
            for (class, raw) in raw_classes(k * n, (k * 1000 + n) as u64) {
                let what = format!("{scheme:?} {k}x{n} {class}");
                let once = PackedMatrix::encode(&raw, k, n, scheme).expect("a block scheme");
                let twice = PackedMatrix::pack(&block_quantised(scheme, &raw), k, n, scheme);
                assert_eq!(once.layout_kind(), twice.layout_kind(), "{what} layout");
                assert_eq!(bits(&once.decode()), bits(&twice.decode()), "{what} decode");
                assert_eq!(
                    once.packed_bits(),
                    twice.packed_bits(),
                    "{what} packed bits"
                );
                if class != "NaN" {
                    assert_eq!(once.layout_kind(), LayoutKind::Block, "{what} one pass");
                }
            }
        }
    }
    assert!(PackedMatrix::encode(&[1.0; 4], 2, 2, SchemeSpec::Oltron).is_none());
}

/// A one-pass page and a page fed `quantize_row` + `push_row` after
/// pushing the same raw rows, row by row: same layout kind, rows and
/// `to_dense()` bits after every push, so the same demotion row.
fn assert_pages_agree(
    scheme: SchemeSpec,
    width: usize,
    raw_rows: &[Vec<f32>],
    what: &str,
) -> PackedRows {
    let alg = scheme.block_algebra().expect("a block scheme");
    let store = KvStore {
        scheme,
        quantize: true,
        packed: true,
    };
    let (mut once, mut twice) = (
        PackedRows::new(store.storage_scheme(), width),
        PackedRows::new(store.storage_scheme(), width),
    );
    for (r, row) in raw_rows.iter().enumerate() {
        once.push_quantized_row(row, &alg);
        let mut q = row.clone();
        store.quantize_row(&mut q);
        twice.push_row(&q);
        let what = format!("{what} after row {r}");
        assert_eq!(once.layout_kind(), twice.layout_kind(), "{what} layout");
        assert_eq!(once.rows(), twice.rows(), "{what} rows");
        assert_eq!(
            bits(&once.to_dense()),
            bits(&twice.to_dense()),
            "{what} to_dense"
        );
        assert_eq!(once.packed_bytes(), twice.packed_bytes(), "{what} bytes");
    }
    once
}

/// A one-pass KV page equals `quantize_row` + `push_row` row for row on
/// every encode-once scheme: pages whose width is whole blocks (the
/// block layout) and a ragged width (dense pages, quantised in the
/// lane), over rows of every raw class. Finite rows keep the block
/// layout; the first row with ±inf/NaN demotes both pages at the same
/// row.
#[test]
fn encode_once_kv_pages_equal_quantise_then_push() {
    for scheme in encode_once_schemes() {
        for width in [192usize, 45] {
            let classes = raw_classes(width, width as u64);
            let finite: Vec<Vec<f32>> = classes
                .iter()
                .filter(|(class, _)| *class == "ordinary" || *class == "specials")
                .flat_map(|(_, row)| [row.clone(), row.iter().map(|v| v * 0.5).collect()])
                .collect();
            let what = format!("{scheme:?} width {width}");
            let page = assert_pages_agree(scheme, width, &finite, &what);
            let block = width % scheme.block_algebra().unwrap().block_size == 0;
            let kind = if block {
                LayoutKind::Block
            } else {
                LayoutKind::Dense
            };
            assert_eq!(page.layout_kind(), kind, "{what} finite rows");
            for (class, bad) in classes.iter().filter(|(c, _)| *c == "±inf" || *c == "NaN") {
                let mut rows = finite.clone();
                rows.insert(2, bad.clone());
                let page = assert_pages_agree(scheme, width, &rows, &format!("{what} {class}"));
                assert_eq!(
                    page.layout_kind(),
                    LayoutKind::Dense,
                    "{what} {class} demotes"
                );
            }
        }
    }
}

/// Demotion case: a row holding ±inf/NaN is not quantised (the
/// quantiser skips it), so it is stored raw, and the page demotes to a
/// dense lane holding the earlier rows exactly.
#[test]
fn encode_once_non_finite_row_stays_raw_and_demotes_the_page() {
    let scheme = SchemeSpec::Bbfp(4, 2);
    let alg = scheme.block_algebra().unwrap();
    let width = 64;
    let first = raw_values(width, 3);
    let mut bad = raw_values(width, 4);
    bad[7] = f32::NEG_INFINITY;
    bad[40] = f32::NAN;
    let mut page = PackedRows::new(scheme, width);
    page.push_quantized_row(&first, &alg);
    assert_eq!(page.layout_kind(), LayoutKind::Block);
    page.push_quantized_row(&bad, &alg);
    assert_eq!(page.layout_kind(), LayoutKind::Dense);
    let dense = page.to_dense();
    assert_eq!(
        bits(&dense[..width]),
        bits(&block_quantised(scheme, &first))
    );
    assert_eq!(
        bits(&dense[width..]),
        bits(&bad),
        "the non-finite row stays raw"
    );
}

/// Demotion case: a chunk the store refuses leaves the *quantised* row
/// in the demoted lane. A BFP4 page handed a row quantised through
/// BBFP(4,2) refuses the chunk holding its high-window element: the page
/// demotes, and its lane holds the BBFP(4,2)-quantised row, as quantising
/// and then `push_row` would leave it — not the raw row.
#[test]
fn encode_once_refused_chunk_leaves_the_quantised_row() {
    let bfp4 = SchemeSpec::Bfp(4).block_algebra().unwrap();
    let bbfp42 = SchemeSpec::Bbfp(4, 2).block_algebra().unwrap();
    let width = 64;
    let first = raw_values(width, 5);
    let mut outlier = raw_values(width, 6);
    outlier[3] = 3.9;
    outlier[4] = 0.06;
    let mut page = PackedRows::new(SchemeSpec::Bfp(4), width);
    page.push_quantized_row(&first, &bfp4);
    assert_eq!(page.layout_kind(), LayoutKind::Block);
    page.push_quantized_row(&outlier, &bbfp42);
    assert_eq!(
        page.layout_kind(),
        LayoutKind::Dense,
        "a refused chunk demotes"
    );
    let quantised = block_quantised(SchemeSpec::Bbfp(4, 2), &outlier);
    let dense = page.to_dense();
    assert_eq!(
        bits(&dense[..width]),
        bits(&block_quantised(SchemeSpec::Bfp(4), &first))
    );
    assert_eq!(bits(&dense[width..]), bits(&quantised), "the quantised row");
    assert_ne!(bits(&quantised), bits(&outlier));
    let mut two_step = PackedRows::new(SchemeSpec::Bfp(4), width);
    two_step.push_row(&block_quantised(SchemeSpec::Bfp(4), &first));
    two_step.push_row(&quantised);
    assert_eq!(bits(&two_step.to_dense()), bits(&dense));
}

/// Demotion case that is not one: a `bbfp:10,1` page's flagged codes
/// outgrow `i16`, so the page widens its codes to `f32` part way (after
/// rows of zeros) and keeps the block layout, equal row for row to
/// `quantize_row` + `push_row`.
#[test]
fn encode_once_bbfp_10_1_page_widens_and_stays_block() {
    let scheme = SchemeSpec::Bbfp(10, 1);
    let width = 64;
    let mut rows = vec![vec![0.0f32; width], vec![-0.0f32; width]];
    rows.extend((0..4).map(|r| raw_values(width, 70 + r)));
    let page = assert_pages_agree(scheme, width, &rows, "bbfp:10,1");
    assert_eq!(page.layout_kind(), LayoutKind::Block);
}
