//! Error types for format construction.

use std::fmt;

/// Errors produced when constructing format configurations and algebra
/// points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormatError {
    /// The mantissa width is outside the supported `1..=10` range.
    ///
    /// The upper limit comes from FP16's 11-bit significand: a block
    /// mantissa wider than 10 bits cannot be produced by right-shifting an
    /// 11-bit significand by at least one bit, which the paper's Eq. (4)
    /// window layout requires.
    MantissaWidth(u8),
    /// The overlap width must satisfy `o < m`.
    OverlapWidth {
        /// Mantissa width `m` of the offending configuration.
        mantissa_bits: u8,
        /// Overlap width `o` of the offending configuration.
        overlap_bits: u8,
    },
    /// Block size must be a positive power of two (hardware blocks are).
    BlockSize(usize),
    /// A shared-scale field width is outside the supported `5..=8`
    /// range (it must hold any biased FP16 exponent, and silicon caps
    /// it at a byte).
    ScaleWidth(u8),
    /// A two-level sub-block does not evenly tile the block (it must be
    /// a power of two between 1 and 16 that divides the block size).
    SubBlock {
        /// Offending sub-block length.
        sub_block: usize,
        /// Block size the sub-blocks must tile.
        block_size: usize,
    },
    /// A per-element minifloat exponent width is outside the supported
    /// `2..=6` range.
    ExponentWidth(u8),
    /// A shared-bias field width is outside the supported `2..=8`
    /// range.
    BiasWidth(u8),
    /// The combination of scale kind, element kind, and overlap bits is
    /// not a point of the format algebra the codec supports.
    UnsupportedCombination(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::MantissaWidth(m) => {
                write!(f, "mantissa width {m} outside supported range 1..=10")
            }
            FormatError::OverlapWidth {
                mantissa_bits,
                overlap_bits,
            } => write!(
                f,
                "overlap width {overlap_bits} must be smaller than mantissa width {mantissa_bits}"
            ),
            FormatError::BlockSize(n) => {
                write!(f, "block size {n} is not a positive power of two")
            }
            FormatError::ScaleWidth(b) => {
                write!(f, "shared-scale width {b} outside supported range 5..=8")
            }
            FormatError::SubBlock {
                sub_block,
                block_size,
            } => write!(
                f,
                "sub-block {sub_block} must be a power of two in 1..=16 dividing the block size {block_size}"
            ),
            FormatError::ExponentWidth(e) => {
                write!(
                    f,
                    "minifloat exponent width {e} outside supported range 2..=6"
                )
            }
            FormatError::BiasWidth(b) => {
                write!(f, "shared-bias width {b} outside supported range 2..=8")
            }
            FormatError::UnsupportedCombination(what) => {
                write!(f, "unsupported format-algebra combination: {what}")
            }
        }
    }
}

impl std::error::Error for FormatError {}
