//! # bbal-core — Bidirectional Block Floating Point
//!
//! This crate implements the data-format layer of the BBAL paper
//! (*"BBAL: A Bidirectional Block Floating Point-Based Quantisation
//! Accelerator for Large Language Models"*, DAC 2025):
//!
//! * [`Fp16`] — a bit-level IEEE 754 binary16 type; block conversion starts
//!   from its 11-bit significand exactly as the paper's Eq. (4) does.
//! * [`BfpBlock`] — vanilla block floating point: one shared (maximum)
//!   exponent per block, sign-magnitude mantissas.
//! * [`BbfpBlock`] — the paper's bidirectional BFP: a 1-bit *flag* per
//!   element selects a high (left-shifted) or low (right-shifted) mantissa
//!   window, `o` overlap bits wide, and the shared exponent defaults to
//!   `max(E) − (m − o)` (paper Eq. 9).
//! * [`policy`] — shared-exponent selection strategies (paper §III-C, Fig 3).
//! * [`dot`] — bit-exact fixed-point dot products (paper Eqs. 7 and 10),
//!   including the 2-bit-flag product format of Fig 5(a).
//! * [`analysis`] — the roundoff-variance model of paper Eq. 8 plus
//!   empirical error statistics (MSE, SQNR).
//! * [`overlap`] — Algorithm 1: overlap-width selection by normalised
//!   PPL/overhead scoring.
//!
//! ## Quick example
//!
//! ```
//! use bbal_core::{BbfpConfig, BbfpBlock};
//!
//! let cfg = BbfpConfig::new(4, 2).unwrap(); // BBFP(4,2), block size 32
//! let data: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.37).collect();
//! let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
//! let restored = block.to_f32_vec();
//! let mse: f32 = data.iter().zip(&restored)
//!     .map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / 32.0;
//! assert!(mse < 0.05);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod analysis;
pub mod bbfp;
pub mod bfp;
pub mod dot;
pub mod error;
pub mod format;
pub mod fp16;
pub mod overlap;
pub mod packed;
pub mod policy;
pub mod rounding;
pub mod scheme;

pub use algebra::{
    algebra_quantize_in_place, algebra_quantize_slice, ElementKind, FormatAlgebra, ScaleKind,
};
pub use bbfp::{bbfp_quantize_slice, bbfp_quantize_slice_with, BbfpBlock, BbfpElement};
pub use bfp::{bfp_quantize_slice, BfpBlock};
pub use dot::{bbfp_dot, bbfp_products, bfp_dot, BbfpProduct, FixedPointDot};
pub use error::FormatError;
pub use format::{BbfpConfig, BfpConfig, FormatCost, DEFAULT_BLOCK_SIZE, SHARED_EXPONENT_BITS};
pub use fp16::Fp16;
pub use overlap::{select_overlap_width, OverlapScore, OverlapSearch};
pub use packed::{
    attn_dot_packed, attn_weighted_sum_packed, packed_rows_capacity_bytes, LayoutKind,
    PackedMatrix, PackedRows,
};
pub use policy::ExponentPolicy;
pub use rounding::RoundingMode;
pub use scheme::{SchemeError, SchemeSpec};
