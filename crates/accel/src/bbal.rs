//! The functional BBAL datapath: a bit-faithful model of the Fig. 7
//! computation flow used to validate that the hardware's quantised GEMM
//! matches the format semantics of `bbal-core`.
//!
//! Flow (paper §IV-C "Computation Flow"): operand tiles are encoded into
//! BBFP blocks by the input encoder, multiplied block-against-block on the
//! PE array (fixed-point, Eq. 7/10), passed through the FP encoder into
//! FP32 partial sums, accumulated by the FP adder, and optionally routed
//! through the max unit into the nonlinear unit.

use bbal_core::{bbfp_dot, BbfpBlock, BbfpConfig};
use bbal_llm::Tensor;

/// Functional model of the BBAL GEMM path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BbalGemm {
    /// Block format used by the input encoder.
    pub config: BbfpConfig,
}

impl BbalGemm {
    /// A GEMM unit with the given block format.
    pub fn new(config: BbfpConfig) -> BbalGemm {
        BbalGemm { config }
    }

    /// Encodes one contraction-dimension vector into the input encoder's
    /// BBFP blocks (zero-padded to the block size) — the serving layout
    /// the weight buffer holds tiles in.
    ///
    /// # Panics
    ///
    /// Panics if the vector contains non-finite values.
    pub fn encode_row(&self, row: &[f32]) -> Vec<BbfpBlock> {
        let bs = self.config.block_size();
        let mut blocks = Vec::with_capacity(row.len().div_ceil(bs));
        for k0 in (0..row.len()).step_by(bs) {
            let end = (k0 + bs).min(row.len());
            let mut stripe = vec![0.0f32; bs];
            stripe[..end - k0].copy_from_slice(&row[k0..end]);
            blocks.push(BbfpBlock::from_f32_slice(&stripe, self.config).expect("finite inputs"));
        }
        blocks
    }

    /// Fixed-point dot product of two encoded rows, accumulated in FP32
    /// by the FP adder (paper Eq. 7/10).
    ///
    /// # Panics
    ///
    /// Panics if the rows were encoded with different configurations or
    /// block counts.
    pub fn dot_encoded(&self, a: &[BbfpBlock], b: &[BbfpBlock]) -> f32 {
        assert_eq!(a.len(), b.len(), "encoded row block-count mismatch");
        let mut acc = 0.0f64;
        for (ab, bb) in a.iter().zip(b) {
            acc += bbfp_dot(ab, bb)
                .expect("rows share the engine's config")
                .to_f64();
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
        let b_blocks: Vec<Vec<BbfpBlock>> = (0..b.cols())
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
        for i in 0..4 {
            for j in 0..4 {
                let mut stripe_a = a.row(i).to_vec();
                let mut stripe_b: Vec<f32> = (0..32).map(|kk| b.get(kk, j)).collect();
                let ba = BbfpBlock::from_f32_slice(&stripe_a, cfg).unwrap();
                let bb = BbfpBlock::from_f32_slice(&stripe_b, cfg).unwrap();
                stripe_a = ba.to_f32_vec();
                stripe_b = bb.to_f32_vec();
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
