//! The full BBAL functional engine: quantised GEMMs *and* the segmented-
//! LUT nonlinear unit wired together, so a complete attention block runs
//! through the hardware numerics end to end (Fig. 7's computation flow:
//! PE array → FP encoder/adder → max unit → nonlinear unit → output
//! encoder).

use crate::bbal::{BbalGemm, EncodedRow};
use bbal_core::{BbfpConfig, SchemeError, SchemeSpec};
use bbal_llm::Tensor;
use bbal_nonlinear::{NonlinearUnit, NonlinearUnitConfig};

/// A functional BBAL engine: linear path + nonlinear unit.
#[derive(Debug)]
pub struct BbalEngine {
    gemm: BbalGemm,
    nonlinear: NonlinearUnit,
}

impl BbalEngine {
    /// The paper's configuration: BBFP(4,2) linear path, BBFP(10,5)
    /// nonlinear unit.
    pub fn paper() -> BbalEngine {
        BbalEngine::for_scheme(SchemeSpec::BBAL_PAPER)
            .unwrap_or_else(|_| unreachable!("the paper scheme is valid"))
    }

    /// An engine whose linear path implements `scheme`, with the paper's
    /// nonlinear unit.
    ///
    /// # Errors
    ///
    /// [`SchemeError::NoHardwareMapping`] unless the scheme is a BBFP
    /// scheme (the functional datapath models the BBFP PE array).
    pub fn for_scheme(scheme: SchemeSpec) -> Result<BbalEngine, SchemeError> {
        match scheme.bbfp_config()? {
            Some(config) => Ok(BbalEngine::new(config, NonlinearUnitConfig::paper())),
            None => Err(SchemeError::NoHardwareMapping(scheme)),
        }
    }

    /// An engine with explicit linear/nonlinear configurations.
    pub fn new(linear: BbfpConfig, nonlinear: NonlinearUnitConfig) -> BbalEngine {
        BbalEngine {
            gemm: BbalGemm::new(linear),
            nonlinear: NonlinearUnit::new(nonlinear),
        }
    }

    /// The linear path's block format.
    pub fn linear_config(&self) -> BbfpConfig {
        self.gemm.config
    }

    /// Quantised GEMM through the PE array (see [`BbalGemm::matmul`]).
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.gemm.matmul(a, b)
    }

    /// Scaled-dot-product attention with a causal mask, entirely through
    /// the hardware numerics: scores on the PE array, softmax through the
    /// nonlinear unit, context on the PE array.
    ///
    /// `q`, `k`, `v` are `[seq, dh]`; the result is `[seq, dh]`.
    ///
    /// # Panics
    ///
    /// Panics if `q.rows() != k.rows()` (use
    /// [`BbalEngine::cross_attention`] for unaligned shapes), or as
    /// [`BbalEngine::attention_masked`].
    pub fn attention(&mut self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        assert_eq!(
            q.rows(),
            k.rows(),
            "causal attention needs aligned q/k; use cross_attention"
        );
        self.attention_masked(q, k, v, |i, j| j <= i)
    }

    /// Full (unmasked) attention of `q.rows()` queries over `k.rows()`
    /// keys — the cross-attention shape, where the two lengths may
    /// differ. A decode step is the one-row case: the newest query
    /// attending over every cached key.
    ///
    /// # Panics
    ///
    /// As [`BbalEngine::attention_masked`].
    pub fn cross_attention(&mut self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        self.attention_masked(q, k, v, |_, _| true)
    }

    /// Attention with an arbitrary visibility mask: `mask(i, j)` decides
    /// whether query row `i` may attend to key row `j`. A query row whose
    /// mask admits no key at all produces a zero context row — the
    /// fully-masked convention (a padding row contributes nothing).
    ///
    /// # Panics
    ///
    /// Panics if `q`, `k` and `v` widths or `k`/`v` lengths disagree.
    pub fn attention_masked(
        &mut self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        mask: impl Fn(usize, usize) -> bool,
    ) -> Tensor {
        assert_eq!(q.cols(), k.cols(), "q/k head width mismatch");
        assert_eq!(k.rows(), v.rows(), "k/v length mismatch");
        assert_eq!(k.cols(), v.cols(), "k/v width mismatch");
        let scale = 1.0 / (q.cols() as f32).sqrt();
        let len = k.rows();
        // The weight buffer holds K transposed: each key row is encoded
        // into BBFP blocks once, then scored against every query.
        let k_blocks: Vec<EncodedRow> = (0..len).map(|j| self.gemm.encode_row(k.row(j))).collect();

        let mut probs = Tensor::zeros(q.rows(), len);
        for i in 0..q.rows() {
            let visible: Vec<usize> = (0..len).filter(|&j| mask(i, j)).collect();
            if visible.is_empty() {
                continue; // fully masked: zero context row
            }
            // Scores = q · kᵀ on the PE array; gather the visible ones,
            // softmax them through the nonlinear unit, scatter back.
            let q_blocks = self.gemm.encode_row(q.row(i));
            let mut gathered: Vec<f32> = visible
                .iter()
                .map(|&j| self.gemm.dot_encoded(&q_blocks, &k_blocks[j]) * scale)
                .collect();
            self.nonlinear.softmax_row(&mut gathered);
            let row = probs.row_mut(i);
            for (&j, p) in visible.iter().zip(gathered) {
                row[j] = p;
            }
        }
        // Context = probs · v on the PE array.
        self.matmul(&probs, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_llm::ops;

    fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32 * 2.0
        };
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    fn exact_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        let seq = q.rows();
        let scale = 1.0 / (q.cols() as f32).sqrt();
        let mut scores = q.matmul_transposed(k);
        scores.scale(scale);
        for i in 0..seq {
            let row = scores.row_mut(i);
            for s in row.iter_mut().skip(i + 1) {
                *s = f32::NEG_INFINITY;
            }
            ops::softmax_in_place(row);
        }
        scores.matmul(v)
    }

    #[test]
    fn hardware_attention_tracks_exact_attention() {
        let (seq, dh) = (8, 32);
        let q = tensor(seq, dh, 3);
        let k = tensor(seq, dh, 5);
        let v = tensor(seq, dh, 7);
        let mut engine = BbalEngine::paper();
        let hw = engine.attention(&q, &k, &v);
        let exact = exact_attention(&q, &k, &v);
        let mut worst = 0.0f32;
        for (a, b) in hw.data().iter().zip(exact.data()) {
            worst = worst.max((a - b).abs());
        }
        // BBFP(4,2) linear + BBFP(10,5) softmax: small bounded error.
        assert!(worst < 0.25, "worst abs err {worst}");
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With a causal mask, row i of the output is a convex combination
        // of the first i+1 value rows: it must stay within their bounds.
        let (seq, dh) = (6, 32);
        let q = tensor(seq, dh, 11);
        let k = tensor(seq, dh, 13);
        let v = tensor(seq, dh, 17);
        let mut engine = BbalEngine::paper();
        let out = engine.attention(&q, &k, &v);
        for c in 0..dh {
            let lo = (0..seq).map(|r| v.get(r, c)).fold(f32::MAX, f32::min);
            let hi = (0..seq).map(|r| v.get(r, c)).fold(f32::MIN, f32::max);
            for r in 0..seq {
                let val = out.get(r, c);
                assert!(
                    val >= lo - 0.3 && val <= hi + 0.3,
                    "out[{r}][{c}] = {val} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn first_row_attends_only_to_itself() {
        let (seq, dh) = (4, 32);
        let q = tensor(seq, dh, 19);
        let k = tensor(seq, dh, 23);
        let v = tensor(seq, dh, 29);
        let mut engine = BbalEngine::paper();
        let out = engine.attention(&q, &k, &v);
        // Row 0's softmax is over one element -> output ~ v[0] through the
        // quantised matmul.
        for c in 0..dh {
            assert!(
                (out.get(0, c) - v.get(0, c)).abs() < 0.2,
                "col {c}: {} vs {}",
                out.get(0, c),
                v.get(0, c)
            );
        }
    }

    #[test]
    fn one_row_cross_attention_matches_causal_last_row() {
        // A decode step — the newest query over every cached key — is a
        // one-row cross attention, and agrees bit for bit with the batch
        // causal path's last row.
        let (seq, dh) = (12, 32);
        let q = tensor(seq, dh, 31);
        let k = tensor(seq, dh, 37);
        let v = tensor(seq, dh, 41);
        let mut engine = BbalEngine::paper();
        let batch = engine.attention(&q, &k, &v);
        let q_last = Tensor::from_vec(1, dh, q.row(seq - 1).to_vec());
        let last = engine.cross_attention(&q_last, &k, &v);
        assert_eq!(last.data(), batch.row(seq - 1));
    }

    #[test]
    fn single_token_attention_returns_its_own_value() {
        // seq = 1: the causal softmax is over one element, so the output
        // is v[0] through the quantised matmul.
        let dh = 32;
        let q = tensor(1, dh, 43);
        let k = tensor(1, dh, 47);
        let v = tensor(1, dh, 53);
        let mut engine = BbalEngine::paper();
        let out = engine.attention(&q, &k, &v);
        assert_eq!(out.rows(), 1);
        for c in 0..dh {
            assert!(
                (out.get(0, c) - v.get(0, c)).abs() < 0.2,
                "col {c}: {} vs {}",
                out.get(0, c),
                v.get(0, c)
            );
        }
    }

    #[test]
    fn fully_masked_row_produces_zero_context() {
        // A padding query that may attend to nothing contributes nothing:
        // its context row is exactly zero, and other rows are unaffected.
        let (seq, dh) = (4, 32);
        let q = tensor(seq, dh, 59);
        let k = tensor(seq, dh, 61);
        let v = tensor(seq, dh, 67);
        let mut engine = BbalEngine::paper();
        let masked = engine.attention_masked(&q, &k, &v, |i, _| i != 2);
        assert!(masked.row(2).iter().all(|&x| x == 0.0), "row 2 not zeroed");
        let unmasked = engine.attention_masked(&q, &k, &v, |_, _| true);
        for r in [0usize, 1, 3] {
            assert_eq!(masked.row(r), unmasked.row(r), "row {r} changed");
        }
    }

    #[test]
    fn causal_mask_via_attention_masked_matches_attention() {
        let (seq, dh) = (5, 32);
        let q = tensor(seq, dh, 71);
        let k = tensor(seq, dh, 73);
        let v = tensor(seq, dh, 79);
        let mut engine = BbalEngine::paper();
        let causal = engine.attention(&q, &k, &v);
        let masked = engine.attention_masked(&q, &k, &v, |i, j| j <= i);
        assert_eq!(causal.data(), masked.data());
        let cross = engine.cross_attention(&q, &k, &v);
        let all = engine.attention_masked(&q, &k, &v, |_, _| true);
        assert_eq!(cross.data(), all.data());
    }

    #[test]
    fn cross_attention_handles_unaligned_shapes() {
        // q.rows() != k.rows(): three queries over a seven-entry memory,
        // no mask — every row is a convex combination of all values.
        let (m, n, dh) = (3, 7, 32);
        let q = tensor(m, dh, 83);
        let k = tensor(n, dh, 89);
        let v = tensor(n, dh, 97);
        let mut engine = BbalEngine::paper();
        let out = engine.cross_attention(&q, &k, &v);
        assert_eq!((out.rows(), out.cols()), (m, dh));

        // Exact reference: unmasked softmax(q·kᵀ/√dh)·v.
        let scale = 1.0 / (dh as f32).sqrt();
        let mut scores = q.matmul_transposed(&k);
        scores.scale(scale);
        for i in 0..m {
            ops::softmax_in_place(scores.row_mut(i));
        }
        let exact = scores.matmul(&v);
        for (a, b) in out.data().iter().zip(exact.data()) {
            assert!((a - b).abs() < 0.25, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "use cross_attention")]
    fn causal_attention_rejects_unaligned_shapes() {
        let mut engine = BbalEngine::paper();
        let q = tensor(2, 32, 3);
        let k = tensor(4, 32, 5);
        let v = tensor(4, 32, 7);
        let _ = engine.attention(&q, &k, &v);
    }

    #[test]
    fn for_scheme_requires_a_bbfp_linear_path() {
        assert!(BbalEngine::for_scheme(SchemeSpec::Bbfp(6, 3)).is_ok());
        assert!(matches!(
            BbalEngine::for_scheme(SchemeSpec::Fp16),
            Err(SchemeError::NoHardwareMapping(SchemeSpec::Fp16))
        ));
        assert!(BbalEngine::for_scheme(SchemeSpec::Bbfp(9, 9)).is_err());
    }
}
