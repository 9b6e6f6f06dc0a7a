//! The functional BBAL datapath: a bit-faithful model of the Fig. 7
//! computation flow used to validate that the hardware's quantised GEMM
//! matches the format semantics of `bbal-core`.
//!
//! Flow (paper §IV-C "Computation Flow"): operand tiles are encoded into
//! BBFP blocks by the input encoder, multiplied block-against-block on the
//! PE array (fixed-point, Eq. 7/10), passed through the FP encoder into
//! FP32 partial sums, accumulated by the FP adder, and optionally routed
//! through the max unit into the nonlinear unit.

use bbal_core::{algebra_encode_slice, BbfpConfig, FormatAlgebra};
use bbal_llm::Tensor;

/// Functional model of the BBAL GEMM path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BbalGemm {
    /// Block format used by the input encoder.
    pub config: BbfpConfig,
}

/// One contraction-dimension vector as the input encoder writes it: the
/// algebra's signed integer code per element, zero-padded to whole
/// blocks, and one exponent per block, so element `i` is
/// `codes[i] × 2^exponents[i / block_size]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRow {
    /// Element codes, a BBFP flag's window shift folded in.
    pub codes: Vec<i32>,
    /// The exponent of one code unit, per block.
    pub exponents: Vec<i32>,
    /// Whether the vector held a NaN: the encoder gave it the code 0 and
    /// left its block's exponent to the other elements, and every dot
    /// product it takes part in is NaN.
    pub nan: bool,
}

impl BbalGemm {
    /// A GEMM unit with the given block format.
    pub fn new(config: BbfpConfig) -> BbalGemm {
        BbalGemm { config }
    }

    /// Encodes one contraction-dimension vector into the input encoder's
    /// BBFP blocks (zero-padded to the block size; zeros never set a
    /// block's exponent) — the serving layout the weight buffer holds
    /// tiles in. ±∞ saturates through FP16 narrowing, as in the
    /// quantisers.
    pub fn encode_row(&self, row: &[f32]) -> EncodedRow {
        let (m, o) = (self.config.mantissa_bits(), self.config.overlap_bits());
        let point = FormatAlgebra {
            block_size: self.config.block_size(),
            ..FormatAlgebra::bbfp(m, o).expect("a BbfpConfig holds valid widths")
        };
        let mut padded = row.to_vec();
        padded.resize(row.len().next_multiple_of(point.block_size), 0.0);
        let mut codes = vec![0.0; padded.len()];
        let exponents = algebra_encode_slice(&padded, &point, &mut codes);
        EncodedRow {
            codes: codes.iter().map(|&c| c as i32).collect(),
            exponents,
            nan: row.iter().any(|v| v.is_nan()),
        }
    }

    /// Fixed-point dot product of two encoded rows (paper Eq. 7/10): per
    /// block, the PE array sums `code_a·code_b` exactly in `i64`; the FP
    /// encoder scales it by `2^(e_a + e_b)` and the FP adder accumulates
    /// the blocks in order. NaN if either row held a NaN.
    ///
    /// # Panics
    ///
    /// Panics if the rows were encoded with different block counts.
    pub fn dot_encoded(&self, a: &EncodedRow, b: &EncodedRow) -> f32 {
        assert_eq!(
            a.exponents.len(),
            b.exponents.len(),
            "encoded row block-count mismatch"
        );
        if a.nan || b.nan {
            return f32::NAN;
        }
        let bs = self.config.block_size();
        let mut acc = 0.0f64;
        for ((ca, cb), (ea, eb)) in a
            .codes
            .chunks(bs)
            .zip(b.codes.chunks(bs))
            .zip(a.exponents.iter().zip(&b.exponents))
        {
            let block: i64 = ca.iter().zip(cb).map(|(x, y)| *x as i64 * *y as i64).sum();
            acc += block as f64 * ((ea + eb) as f64).exp2();
        }
        acc as f32
    }

    /// Computes `a · b` through the quantised datapath: every
    /// `block_size`-long stripe of the contraction dimension is encoded to
    /// BBFP, multiplied in fixed point, and accumulated in FP32 by the FP
    /// adder.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows(), "GEMM shape mismatch");
        let mut out = Tensor::zeros(a.rows(), b.cols());

        // Pre-encode the B operand columns (weight-stationary: the
        // weight blocks are encoded once and preloaded).
        let b_blocks: Vec<EncodedRow> = (0..b.cols())
            .map(|j| {
                let col: Vec<f32> = (0..b.rows()).map(|kk| b.get(kk, j)).collect();
                self.encode_row(&col)
            })
            .collect();

        for i in 0..a.rows() {
            // Input encoder: encode the activation row stripes.
            let a_blocks = self.encode_row(a.row(i));
            for (j, bb) in b_blocks.iter().enumerate() {
                // PE array: fixed-point block dot products; FP adder:
                // accumulate the FP-encoded block results.
                out.set(i, j, self.dot_encoded(&a_blocks, bb));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        };
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    #[test]
    fn quantised_gemm_tracks_exact_gemm() {
        let gemm = BbalGemm::new(BbfpConfig::new(6, 3).unwrap());
        let a = tensor(8, 64, 3);
        let b = tensor(64, 8, 5);
        let exact = a.matmul(&b);
        let quant = gemm.matmul(&a, &b);
        for (x, y) in exact.data().iter().zip(quant.data()) {
            assert!((x - y).abs() < 0.05 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn hardware_gemm_matches_dequantised_reference() {
        // The datapath result must equal the software quantise-dequantise
        // matmul exactly (same blocks, exact fixed-point dot, FP32 sum).
        let cfg = BbfpConfig::new(4, 2).unwrap();
        let gemm = BbalGemm::new(cfg);
        let a = tensor(4, 32, 7);
        let b = tensor(32, 4, 9);
        let hw = gemm.matmul(&a, &b);

        // Software reference: quantise rows/cols then f64 dot.
        let bbfp = FormatAlgebra::bbfp(4, 2).unwrap();
        let rne = bbal_core::RoundingMode::NearestEven;
        for i in 0..4 {
            for j in 0..4 {
                let col: Vec<f32> = (0..32).map(|kk| b.get(kk, j)).collect();
                let (mut stripe_a, mut stripe_b) = (vec![0.0; 32], vec![0.0; 32]);
                bbal_core::algebra_quantize_slice(a.row(i), &bbfp, rne, &mut stripe_a);
                bbal_core::algebra_quantize_slice(&col, &bbfp, rne, &mut stripe_b);
                let reference: f64 = stripe_a
                    .iter()
                    .zip(&stripe_b)
                    .map(|(x, y)| *x as f64 * *y as f64)
                    .sum();
                let got = hw.get(i, j) as f64;
                assert!((got - reference).abs() < 1e-6, "{got} vs {reference}");
            }
        }
    }

    /// A NaN poisons exactly the outputs whose A row or B column holds
    /// it; ±∞ saturates like any other out-of-range value.
    #[test]
    fn nan_operands_give_nan_outputs() {
        let gemm = BbalGemm::new(BbfpConfig::new(4, 2).unwrap());
        let mut a = tensor(3, 40, 21);
        let mut b = tensor(40, 3, 23);
        let clean = gemm.matmul(&a, &b);
        a.set(1, 35, f32::NAN);
        b.set(2, 0, f32::NAN);
        a.set(2, 3, f32::INFINITY);
        let out = gemm.matmul(&a, &b);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(out.get(i, j).is_nan(), i == 1 || j == 0, "({i},{j})");
                if i == 0 && j != 0 {
                    assert_eq!(out.get(i, j).to_bits(), clean.get(i, j).to_bits());
                }
            }
        }
        assert!(out.get(2, 1).is_finite());
    }

    #[test]
    #[should_panic(expected = "block-count mismatch")]
    fn dot_rejects_rows_of_different_block_counts() {
        let gemm = BbalGemm::new(BbfpConfig::new(4, 2).unwrap());
        let (a, b) = (gemm.encode_row(&[1.0; 40]), gemm.encode_row(&[1.0; 32]));
        gemm.dot_encoded(&a, &b);
    }

    #[test]
    fn ragged_contraction_is_zero_padded() {
        let gemm = BbalGemm::new(BbfpConfig::new(6, 3).unwrap());
        let a = tensor(2, 40, 11); // 40 = 32 + 8 (ragged)
        let b = tensor(40, 2, 13);
        let exact = a.matmul(&b);
        let quant = gemm.matmul(&a, &b);
        for (x, y) in exact.data().iter().zip(quant.data()) {
            assert!((x - y).abs() < 0.1 * x.abs().max(1.0), "{x} vs {y}");
        }
    }
}
