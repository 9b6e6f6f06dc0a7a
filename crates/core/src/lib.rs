//! # bbal-core — Bidirectional Block Floating Point
//!
//! This crate implements the data-format layer of the BBAL paper
//! (*"BBAL: A Bidirectional Block Floating Point-Based Quantisation
//! Accelerator for Large Language Models"*, DAC 2025):
//!
//! * [`Fp16`] — a bit-level IEEE 754 binary16 type; block conversion starts
//!   from its 11-bit significand exactly as the paper's Eq. (4) does.
//! * [`algebra`] — the block-format algebra: BFP, the paper's BBFP
//!   (a 1-bit *flag* per element selects a high or low mantissa window,
//!   `o` overlap bits wide, against a shared exponent of
//!   `max(E) − (m − o)`, paper Eq. 9), MX, MSFP and block minifloat as
//!   points of one space, with one block encoder that every quantiser,
//!   the packed store and the hardware models share.
//! * [`policy`] — shared-exponent selection strategies (paper §III-C, Fig 3).
//! * [`analysis`] — the roundoff-variance model of paper Eq. 8 plus
//!   empirical error statistics (MSE, SQNR).
//! * [`overlap`] — Algorithm 1: overlap-width selection by normalised
//!   PPL/overhead scoring.
//!
//! ## Quick example
//!
//! ```
//! use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode};
//!
//! let bbfp = FormatAlgebra::bbfp(4, 2).unwrap(); // BBFP(4,2), block size 32
//! let data: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.37).collect();
//! let mut restored = vec![0.0; 32];
//! algebra_quantize_slice(&data, &bbfp, RoundingMode::NearestEven, &mut restored);
//! let mse: f32 = data.iter().zip(&restored)
//!     .map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / 32.0;
//! assert!(mse < 0.05);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod analysis;
pub mod error;
pub mod format;
pub mod fp16;
pub mod overlap;
pub mod packed;
pub mod policy;
#[doc(hidden)]
pub mod reference;
pub mod rounding;
pub mod scheme;

pub use algebra::{
    algebra_encode_slice, algebra_quantize_in_place, algebra_quantize_slice,
    algebra_quantize_slice_with, encode_elements, BbfpElement, ElementKind, FormatAlgebra,
    ScaleKind,
};
pub use error::FormatError;
pub use format::{BbfpConfig, BfpConfig, FormatCost, DEFAULT_BLOCK_SIZE, SHARED_EXPONENT_BITS};
pub use fp16::Fp16;
pub use overlap::{select_overlap_width, OverlapScore, OverlapSearch};
pub use packed::{
    attn_dot_packed, attn_scores_packed, attn_weighted_sum_packed, packed_rows_capacity_bytes,
    LayoutKind, PackedMatrix, PackedRows,
};
pub use policy::ExponentPolicy;
pub use rounding::RoundingMode;
pub use scheme::{SchemeError, SchemeSpec};

// The unit tests of the retired BFP and BBFP block types and of their
// dot products, retargeted to the algebra's encoder; the modules keep
// their names so the tests keep theirs.
#[cfg(test)]
mod bfp {
    mod tests;
}
#[cfg(test)]
mod bbfp {
    mod tests;
}
#[cfg(test)]
mod dot {
    mod tests;
}
