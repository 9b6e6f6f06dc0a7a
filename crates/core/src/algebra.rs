//! The composable block-format algebra.
//!
//! Every block format this crate knows — the paper's BBFP, vanilla BFP,
//! Microsoft MX-style two-level vectors, MSFP's wide-block shared
//! exponents, block minifloat's shared-bias element floats — is a point
//! in one small parameter space:
//!
//! ```text
//!   FormatAlgebra {
//!       block_size,                       // elements per shared scale
//!       scale: SharedExponent { bits }    // one max-exponent per block
//!            | SharedBias     { bits }    // one exponent *bias* per block
//!            | TwoLevel { bits,           // block exponent plus a tiny
//!                         sub_block,      //   micro-exponent per sub-block
//!                         sub_scale_bits },
//!       mantissa_bits,                    // magnitude bits per element
//!       element: Fixed                    // sign-magnitude integer lanes
//!              | Flagged { overlap_bits } // BBFP: lanes plus a window flag
//!              | Minifloat { exp_bits },  // per-element tiny floats
//!   }
//! ```
//!
//! [`crate::scheme::SchemeSpec`] variants *lower* into this space
//! (`SchemeSpec::algebra`), the quantisers and the packed codec are
//! *generic* over it, and the accelerator layers derive MAC kinds, PE
//! areas, and KV footprints from [`FormatAlgebra::cost`] instead of
//! per-scheme match arms. New families therefore flow from a parsed id
//! string all the way to the serving fleet without touching any layer
//! in between.
//!
//! ## Supported points
//!
//! The codec (encode/decode/pack) supports exactly three families of
//! points, which cover every named scheme:
//!
//! 1. `SharedExponent × Fixed` — BFP, and MSFP (wide blocks, 8-bit
//!    exponent field). `SharedExponent × Flagged { o }` with `o < m` —
//!    BBFP(m,o), `o = 0` included: the flag bit is part of the element
//!    kind, so a zero-overlap BBFP point is still a flagged format.
//! 2. `TwoLevel × Fixed` with a 1-bit sub-scale — MX: the block stores
//!    `max-exponent` and each sub-block a 1-bit offset below it, so
//!    small sub-blocks keep one extra bit of alignment.
//! 3. `SharedBias × Minifloat` — block minifloat: each element is a
//!    tiny `e`-bit-exponent float and the block stores a shared
//!    exponent *bias* picked so the block maximum lands on the top
//!    exponent code.
//!
//! Scalar FP16 and INTx also lower (block size 1, zero shared bits) so
//! that storage-cost accounting is uniform, but they use their own
//! storage layouts rather than the block codec.
//!
//! ## Bit-identity
//!
//! All three families share the property the packed GEMM kernels rely
//! on: every scale is a power of two, so a block factors into an exact
//! integer-valued (or exactly-representable) f32 *lane* times one
//! power-of-two scale per block, and `fl(a·(lane·2^s)) =
//! fl((a·2^s)·lane)`. [`algebra_quantize_in_place`] and the packed
//! encoder share the per-block scale choice and the per-element
//! encoders, so packing a quantised matrix is the identity and the
//! self-verify fallback never fires on honest input.

use crate::bbfp::encode_element;
use crate::bfp::{exp2i, max_exponent};
use crate::bitpack::{BitReader, BitWriter};
use crate::error::FormatError;
use crate::format::{FormatCost, DEFAULT_BLOCK_SIZE, SHARED_EXPONENT_BITS};
use crate::fp16::{Fp16, SIGNIFICAND_BITS};
use crate::policy::ExponentPolicy;
use crate::rounding::RoundingMode;

/// How a block's shared scale is stored and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleKind {
    /// One biased maximum exponent per block (BFP/BBFP/MSFP). `bits`
    /// is the stored field width; 5 holds any FP16 exponent, MSFP
    /// ships 8.
    SharedExponent {
        /// Stored width of the exponent field.
        bits: u8,
    },
    /// One signed exponent *bias* per block, added to every element's
    /// own exponent code (block minifloat).
    SharedBias {
        /// Stored width of the bias field (two's-complement).
        bits: u8,
    },
    /// A block exponent plus a small per-sub-block offset below it
    /// (MX-style two-level scaling).
    TwoLevel {
        /// Stored width of the block-level exponent field.
        bits: u8,
        /// Elements per sub-block (must divide the block size).
        sub_block: usize,
        /// Stored width of each sub-block's offset code (currently 1).
        sub_scale_bits: u8,
    },
}

/// What one element's payload encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// A sign-magnitude integer aligned against the shared scale.
    Fixed,
    /// BBFP's bidirectional element: a sign-magnitude integer plus a
    /// 1-bit window flag. A flagged mantissa sits in the high window,
    /// worth `×2^(m − overlap_bits)`; the two windows overlap by
    /// `overlap_bits` bits (`0` means adjacent windows, still flagged).
    Flagged {
        /// Bits shared by the low and high mantissa windows.
        overlap_bits: u8,
    },
    /// A tiny float: sign, `exp_bits` of exponent, `m` of mantissa,
    /// interpreted against the shared bias.
    Minifloat {
        /// Per-element exponent width.
        exp_bits: u8,
    },
}

/// A point in the block-format design space. See the module docs for
/// the supported combinations.
///
/// ```
/// use bbal_core::FormatAlgebra;
///
/// // MX(8,4,2): 32-wide blocks, 8-bit shared exponent, 1-bit
/// // micro-exponent per 2-element sub-block, 4-bit mantissas.
/// let mx = FormatAlgebra::mx(8, 4, 2)?;
/// assert!((mx.cost().equivalent_bit_width - 5.75).abs() < 1e-9);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatAlgebra {
    /// Elements sharing one scale.
    pub block_size: usize,
    /// How the shared scale is stored and applied.
    pub scale: ScaleKind,
    /// Mantissa magnitude bits per element.
    pub mantissa_bits: u8,
    /// Per-element payload interpretation.
    pub element: ElementKind,
}

/// Largest block size the algebra accepts (MSFP row tiles top out well
/// below this).
const MAX_ALGEBRA_BLOCK: usize = 4096;

impl FormatAlgebra {
    /// The vanilla BFP point: `m`-bit mantissas, 5-bit shared exponent,
    /// 32-wide blocks.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`.
    pub fn bfp(mantissa_bits: u8) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedExponent {
                bits: SHARED_EXPONENT_BITS as u8,
            },
            mantissa_bits,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The paper's BBFP point: as [`FormatAlgebra::bfp`], with flagged
    /// elements whose windows overlap by `o` bits (`o = 0` included).
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] / [`FormatError::OverlapWidth`]
    /// on invalid widths.
    pub fn bbfp(mantissa_bits: u8, overlap_bits: u8) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedExponent {
                bits: SHARED_EXPONENT_BITS as u8,
            },
            mantissa_bits,
            element: ElementKind::Flagged { overlap_bits },
        }
        .validated()
    }

    /// The MX point `mx:<e>,<m>,<sub>`: 32-wide blocks, an `e`-bit
    /// block exponent, a 1-bit micro-exponent per `sub`-element
    /// sub-block, `m`-bit fixed mantissas.
    ///
    /// # Errors
    ///
    /// [`FormatError::ScaleWidth`] unless `5 <= e <= 8`,
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`, and
    /// [`FormatError::SubBlock`] unless `sub` is a power of two in
    /// `1..=16`.
    pub fn mx(
        exp_bits: u8,
        mantissa_bits: u8,
        sub_block: usize,
    ) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::TwoLevel {
                bits: exp_bits,
                sub_block,
                sub_scale_bits: 1,
            },
            mantissa_bits,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The MSFP point `msfp:<m>,<block>`: an 8-bit shared exponent over
    /// a `block`-wide tile of `m`-bit fixed mantissas.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10` and
    /// [`FormatError::BlockSize`] unless `block` is a power of two in
    /// `4..=128`.
    pub fn msfp(mantissa_bits: u8, block_size: usize) -> Result<FormatAlgebra, FormatError> {
        if !(4..=128).contains(&block_size) || !block_size.is_power_of_two() {
            return Err(FormatError::BlockSize(block_size));
        }
        FormatAlgebra {
            block_size,
            scale: ScaleKind::SharedExponent { bits: 8 },
            mantissa_bits,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The block-minifloat point `blockmf:<e>,<m>,<bias>`: 32-wide
    /// blocks of per-element floats (`e` exponent bits, `m` mantissa
    /// bits) sharing one `bias`-bit exponent bias.
    ///
    /// # Errors
    ///
    /// [`FormatError::ExponentWidth`] unless `2 <= e <= 6`,
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`, and
    /// [`FormatError::BiasWidth`] unless `2 <= bias <= 8`.
    pub fn blockmf(
        exp_bits: u8,
        mantissa_bits: u8,
        bias_bits: u8,
    ) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedBias { bits: bias_bits },
            mantissa_bits,
            element: ElementKind::Minifloat { exp_bits },
        }
        .validated()
    }

    /// Scalar FP16 as a degenerate point (block size 1, constant bias):
    /// used for uniform cost accounting, not the block codec.
    pub fn scalar_fp16() -> FormatAlgebra {
        FormatAlgebra {
            block_size: 1,
            scale: ScaleKind::SharedBias { bits: 0 },
            mantissa_bits: 10,
            element: ElementKind::Minifloat { exp_bits: 5 },
        }
    }

    /// A scalar fixed-point format of `bits` total width as a
    /// degenerate point (block size 1, no shared field): cost
    /// accounting only.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `2 <= bits <= 16`.
    pub fn scalar_int(bits: u8) -> Result<FormatAlgebra, FormatError> {
        if !(2..=16).contains(&bits) {
            return Err(FormatError::MantissaWidth(bits));
        }
        FormatAlgebra {
            block_size: 1,
            scale: ScaleKind::SharedExponent { bits: 0 },
            mantissa_bits: bits - 1,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    fn validated(self) -> Result<FormatAlgebra, FormatError> {
        self.validate()?;
        Ok(self)
    }

    /// Checks that this point is one the codec and cost model support.
    ///
    /// # Errors
    ///
    /// A [`FormatError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), FormatError> {
        let scalar = self.block_size == 1;
        if self.block_size == 0
            || !self.block_size.is_power_of_two()
            || self.block_size > MAX_ALGEBRA_BLOCK
        {
            return Err(FormatError::BlockSize(self.block_size));
        }
        // Scalar degenerate points (block 1, zero shared bits) may use
        // wide fixed mantissas (INT16 = 1 + 15); block formats are
        // bounded by FP16's 11-bit significand.
        let max_m = if scalar { 15 } else { 10 };
        if self.mantissa_bits == 0 || self.mantissa_bits > max_m {
            return Err(FormatError::MantissaWidth(self.mantissa_bits));
        }
        match self.element {
            ElementKind::Fixed => {}
            ElementKind::Flagged { overlap_bits } => {
                if overlap_bits >= self.mantissa_bits {
                    return Err(FormatError::OverlapWidth {
                        mantissa_bits: self.mantissa_bits,
                        overlap_bits,
                    });
                }
            }
            ElementKind::Minifloat { exp_bits } => {
                if !((2..=6).contains(&exp_bits) || (scalar && exp_bits == 5)) {
                    return Err(FormatError::ExponentWidth(exp_bits));
                }
                if !matches!(self.scale, ScaleKind::SharedBias { .. }) {
                    return Err(FormatError::UnsupportedCombination(
                        "minifloat elements require a shared bias",
                    ));
                }
            }
        }
        match self.scale {
            ScaleKind::SharedExponent { bits } => {
                if !((5..=8).contains(&bits) || (scalar && bits == 0)) {
                    return Err(FormatError::ScaleWidth(bits));
                }
            }
            ScaleKind::SharedBias { bits } => {
                if !((2..=8).contains(&bits) || (scalar && bits == 0)) {
                    return Err(FormatError::BiasWidth(bits));
                }
                if !matches!(self.element, ElementKind::Minifloat { .. }) {
                    return Err(FormatError::UnsupportedCombination(
                        "a shared bias requires minifloat elements",
                    ));
                }
            }
            ScaleKind::TwoLevel {
                bits,
                sub_block,
                sub_scale_bits,
            } => {
                if !(5..=8).contains(&bits) {
                    return Err(FormatError::ScaleWidth(bits));
                }
                if sub_block == 0
                    || sub_block > 16
                    || !sub_block.is_power_of_two()
                    || sub_block >= self.block_size
                    || !self.block_size.is_multiple_of(sub_block)
                {
                    return Err(FormatError::SubBlock {
                        sub_block,
                        block_size: self.block_size,
                    });
                }
                if sub_scale_bits != 1 {
                    return Err(FormatError::UnsupportedCombination(
                        "two-level sub-scales are currently 1 bit wide",
                    ));
                }
                if self.element != ElementKind::Fixed {
                    return Err(FormatError::UnsupportedCombination(
                        "two-level scaling requires fixed-point elements",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Payload bits stored per element: sign + mantissa, plus the BBFP
    /// flag for flagged elements or the exponent field for minifloats.
    pub fn payload_bits_per_element(&self) -> u32 {
        let extra = match self.element {
            ElementKind::Fixed => 0,
            ElementKind::Flagged { .. } => 1,
            ElementKind::Minifloat { exp_bits } => exp_bits as u32,
        };
        1 + self.mantissa_bits as u32 + extra
    }

    /// BBFP's window gap `m − o` — a set flag scales the mantissa by
    /// `2^gap` — for flagged elements; `None` for every other kind.
    pub fn window_gap(&self) -> Option<u32> {
        match self.element {
            ElementKind::Flagged { overlap_bits } => {
                Some(u32::from(self.mantissa_bits.saturating_sub(overlap_bits)))
            }
            _ => None,
        }
    }

    /// Shared bits stored per block: the scale field, plus every
    /// sub-block's offset code for two-level scaling.
    pub fn shared_bits_per_block(&self) -> u32 {
        match self.scale {
            ScaleKind::SharedExponent { bits } | ScaleKind::SharedBias { bits } => bits as u32,
            ScaleKind::TwoLevel {
                bits,
                sub_block,
                sub_scale_bits,
            } => bits as u32 + (self.block_size / sub_block) as u32 * sub_scale_bits as u32,
        }
    }

    /// Storage cost in Table I units (equivalent bit-width, memory
    /// efficiency vs FP16).
    pub fn cost(&self) -> FormatCost {
        FormatCost::new(
            self.block_size,
            self.payload_bits_per_element(),
            self.shared_bits_per_block(),
        )
    }

    /// Whether the packed block codec covers this point (scalar
    /// degenerate points store themselves, they are not block-packed).
    pub fn packable(&self) -> bool {
        self.block_size > 1
    }

    /// A human-readable family name, e.g. `MX(8,4,2)` — the inverse of
    /// the lowering from [`crate::scheme::SchemeSpec`], used by
    /// hardware-model tables.
    pub fn display_name(&self) -> String {
        let m = self.mantissa_bits;
        match (self.scale, self.element) {
            (
                ScaleKind::TwoLevel {
                    bits, sub_block, ..
                },
                _,
            ) => {
                format!("MX({bits},{m},{sub_block})")
            }
            (ScaleKind::SharedBias { bits }, ElementKind::Minifloat { exp_bits }) => {
                if self.block_size == 1 {
                    "FP16".to_owned()
                } else {
                    format!("BlockMF({exp_bits},{m},{bits})")
                }
            }
            (ScaleKind::SharedExponent { .. }, _) if self.block_size == 1 => {
                format!("INT{}", m + 1)
            }
            (ScaleKind::SharedExponent { .. }, ElementKind::Flagged { overlap_bits }) => {
                format!("BBFP({m},{overlap_bits})")
            }
            (ScaleKind::SharedExponent { bits }, _) => {
                if bits == 8 || self.block_size != DEFAULT_BLOCK_SIZE {
                    format!("MSFP({m},{})", self.block_size)
                } else {
                    format!("BFP{m}")
                }
            }
            (ScaleKind::SharedBias { .. }, _) => {
                // validate() rejects this combination; name it anyway.
                format!("SharedBias({m})")
            }
        }
    }
}

// ---------------------------------------------------------------------
// The generic chunk codec
// ---------------------------------------------------------------------

/// One encoded element of an algebra chunk. `exp` is the minifloat
/// exponent code (0 otherwise), `flag` the BBFP high-window flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlgElement {
    pub(crate) sign: bool,
    pub(crate) flag: bool,
    pub(crate) exp: u8,
    pub(crate) mantissa: u16,
}

/// One encoded chunk (a full block or a ragged tail): the shared scale
/// code, the two-level sub-block offsets (empty otherwise), and the
/// element payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AlgChunk {
    /// `SharedExponent`/`TwoLevel`: the biased block exponent.
    /// `SharedBias`: the signed bias `w` (stored excess-`2^(bits−1)`).
    pub(crate) scale_code: i32,
    /// One offset code per sub-block (two-level scaling only).
    pub(crate) sub: Vec<u8>,
    pub(crate) elements: Vec<AlgElement>,
}

impl AlgChunk {
    /// The power-of-two exponent of the chunk's single kernel-facing
    /// scale: every element's value is `lane × 2^scale_exponent`.
    pub(crate) fn scale_exponent(&self, alg: &FormatAlgebra) -> i32 {
        let m = alg.mantissa_bits as i32;
        match alg.scale {
            ScaleKind::SharedExponent { .. } | ScaleKind::TwoLevel { .. } => {
                self.scale_code - 14 - m
            }
            ScaleKind::SharedBias { .. } => -self.scale_code - 14 - m,
        }
    }

    /// The element's lane value: an exactly-representable f32 such that
    /// `value = lane × 2^scale_exponent`. Signed zeros survive.
    pub(crate) fn lane_value(&self, idx: usize, alg: &FormatAlgebra) -> f32 {
        let e = &self.elements[idx];
        let mag = match alg.element {
            ElementKind::Fixed => match alg.scale {
                ScaleKind::TwoLevel { sub_block, .. } => {
                    e.mantissa as f32 * exp2i(-(self.sub[idx / sub_block] as i32))
                }
                _ => e.mantissa as f32,
            },
            ElementKind::Flagged { .. } if e.flag => {
                e.mantissa as f32 * exp2i(alg.window_gap().unwrap_or(0) as i32)
            }
            ElementKind::Flagged { .. } => e.mantissa as f32,
            ElementKind::Minifloat { .. } => minifloat_lane(e, alg.mantissa_bits),
        };
        if e.sign {
            -mag
        } else {
            mag
        }
    }

    /// Decodes element `idx` back to its f32 value.
    pub(crate) fn decode_value(&self, idx: usize, alg: &FormatAlgebra) -> f32 {
        self.lane_value(idx, alg) * exp2i(self.scale_exponent(alg))
    }
}

/// The MSB position of a nonzero FP16 significand (0-based).
fn msb(sig: u16) -> i32 {
    15 - sig.leading_zeros() as i32
}

/// The maximum *normalised* biased exponent over nonzero elements
/// (`value = 1.x × 2^(E−15)`), or `None` if every element is zero.
/// Differs from [`max_exponent`] for FP16 subnormals, whose recorded
/// exponent is 1 but whose leading bit sits lower.
fn max_true_exponent(values: impl Iterator<Item = Fp16>) -> Option<i32> {
    values
        .filter_map(|v| {
            let (sig, exp) = v.significand();
            (sig != 0).then(|| exp + msb(sig) - 10)
        })
        .max()
}

/// A fixed-point element's `m`-bit mantissa aligned against `shared`
/// (the BFP/MSFP/MX right shift), saturating at `2^m − 1`.
#[inline]
fn fixed_mantissa(v: Fp16, shared: i32, m: u32, rounding: RoundingMode) -> u64 {
    let (sig, exp) = v.significand();
    let shift = (SIGNIFICAND_BITS - m) as i32 + (shared - exp);
    rounding
        .shift_right(sig as u64, shift as u32)
        .min((1u64 << m) - 1)
}

/// The shared exponent of a flagged (BBFP) chunk: the block maximum
/// lowered by the window gap (the paper's Eq. 9 policy).
fn flagged_shared_exponent(values: &[Fp16], gap: u32) -> i32 {
    ExponentPolicy::MaxMinus(gap as u8).shared_exponent(max_exponent(values))
}

/// A two-level sub-block's offset below the block exponent `e1`: 1 when
/// the whole sub-block sits below `e1`, granting it an extra bit.
fn sub_block_offset(e1: i32, values: &[Fp16]) -> i32 {
    (e1 - max_exponent(values)).clamp(0, 1)
}

/// Encodes one chunk of values (a full block or a ragged tail, each
/// with its own shared scale) at this algebra point: the packed
/// encoder's view of the block, built from the same scale choices and
/// element encoders as [`algebra_quantize_in_place`], so re-encoding a
/// quantised chunk is the identity.
pub(crate) fn encode_chunk(
    values: &[Fp16],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
) -> AlgChunk {
    let m = alg.mantissa_bits as u32;
    let fixed = |v: &Fp16, shared: i32| AlgElement {
        sign: v.is_sign_negative(),
        flag: false,
        exp: 0,
        mantissa: fixed_mantissa(*v, shared, m, rounding) as u16,
    };
    match (alg.scale, alg.element) {
        (ScaleKind::SharedExponent { .. }, ElementKind::Flagged { overlap_bits }) => {
            let shared = flagged_shared_exponent(values, alg.window_gap().unwrap_or(0));
            AlgChunk {
                scale_code: shared,
                sub: Vec::new(),
                elements: values
                    .iter()
                    .map(|&v| {
                        let e =
                            encode_element(v, alg.mantissa_bits, overlap_bits, shared, rounding);
                        AlgElement {
                            sign: e.sign,
                            flag: e.flag,
                            exp: 0,
                            mantissa: e.mantissa,
                        }
                    })
                    .collect(),
            }
        }
        (ScaleKind::SharedExponent { .. }, _) => {
            let shared = max_exponent(values);
            AlgChunk {
                scale_code: shared,
                sub: Vec::new(),
                elements: values.iter().map(|v| fixed(v, shared)).collect(),
            }
        }
        (ScaleKind::TwoLevel { sub_block, .. }, _) => {
            let e1 = max_exponent(values);
            let mut sub = Vec::with_capacity(values.len().div_ceil(sub_block));
            let mut elements = Vec::with_capacity(values.len());
            for part in values.chunks(sub_block) {
                let d = sub_block_offset(e1, part);
                sub.push(d as u8);
                elements.extend(part.iter().map(|v| fixed(v, e1 - d)));
            }
            AlgChunk {
                scale_code: e1,
                sub,
                elements,
            }
        }
        (ScaleKind::SharedBias { bits }, _) => {
            let grid = MinifloatGrid::new(alg, bits);
            let mut decoded = vec![0.0; values.len()];
            let w = grid.settle_bias(values, rounding, &mut decoded);
            AlgChunk {
                scale_code: w,
                sub: Vec::new(),
                elements: values
                    .iter()
                    .map(|&v| grid.encode(v, w, rounding))
                    .collect(),
            }
        }
    }
}

/// A minifloat element's lane magnitude: `mant` (subnormal, `exp = 0`)
/// or `(2^m + mant) × 2^(exp − 1)`.
#[inline]
fn minifloat_lane(e: &AlgElement, mantissa_bits: u8) -> f32 {
    if e.exp == 0 {
        e.mantissa as f32
    } else {
        (((1u32 << mantissa_bits) + e.mantissa as u32) as f32) * exp2i(e.exp as i32 - 1)
    }
}

/// The fixed parameters of a block-minifloat point's element grid.
struct MinifloatGrid {
    m: i32,
    /// The top exponent code, `2^e − 1`.
    top: i32,
    w_min: i32,
    w_max: i32,
}

impl MinifloatGrid {
    fn new(alg: &FormatAlgebra, bias_bits: u8) -> MinifloatGrid {
        let exp_bits = match alg.element {
            ElementKind::Minifloat { exp_bits } => exp_bits as i32,
            _ => unreachable!("validate() pairs SharedBias with Minifloat"),
        };
        let m = alg.mantissa_bits as i32;
        MinifloatGrid {
            m,
            top: (1i32 << exp_bits) - 1,
            w_min: -(1i32 << (bias_bits - 1)),
            // Upper clamp: the stored field, and the finest step FP16
            // itself can represent (2^(−w−14−m) >= 2^−24) so quantised
            // values stay exactly FP16-representable and the packed
            // round trip is exact.
            w_max: ((1i32 << (bias_bits - 1)) - 1).min(10 - m),
        }
    }

    /// The bias that puts the block maximum on the top exponent code,
    /// clamped to the stored field and to FP16's finest step.
    fn pick_w(&self, values: impl Iterator<Item = Fp16>) -> i32 {
        max_true_exponent(values).map_or(0, |e| (self.top - e).clamp(self.w_min, self.w_max))
    }

    /// Block minifloat's bias search: pick `w`, round every element to
    /// its own `e`-bit-exponent float (decoded into `out`), and repeat
    /// until `w` is stable. Rounding can carry the block maximum into
    /// the next binade; the max only moves up and `w` only down, so
    /// this terminates, and re-encoding `out` is the identity.
    fn settle_bias(&self, values: &[Fp16], rounding: RoundingMode, out: &mut [f32]) -> i32 {
        let mut w = self.pick_w(values.iter().copied());
        loop {
            let scale = exp2i(-w - 14 - self.m);
            for (v, o) in values.iter().zip(out.iter_mut()) {
                let e = self.encode(*v, w, rounding);
                let mag = minifloat_lane(&e, self.m as u8) * scale;
                *o = if e.sign { -mag } else { mag };
            }
            let w_next = self.pick_w(out.iter().map(|&v| Fp16::from_f32_saturating(v)));
            if w_next == w {
                return w;
            }
            w = w_next;
        }
    }

    /// Rounds one FP16 value to the minifloat grid `±(2^m + mant) ×
    /// 2^(ee − w − 15 − m)` (normal, `ee >= 1`) / `±mant × 2^(1 − w − 15
    /// − m)` (subnormal, `ee = 0`), saturating at the top code.
    fn encode(&self, v: Fp16, w: i32, rounding: RoundingMode) -> AlgElement {
        let m = self.m;
        // When w is clamped at the stored-field (or FP16-step) maximum,
        // the grid's nominal top can exceed FP16's largest finite value;
        // cap the usable exponent code so every decoded magnitude stays
        // <= 2^16 − ulp (code `w + 30` decodes to the 2^15 binade, which
        // FP16 still holds).
        let top = self.top.min(w + 30);
        let (sig, exp) = v.significand();
        let sign = v.is_sign_negative();
        let element = |exp: i32, mantissa: u64| AlgElement {
            sign,
            flag: false,
            exp: exp as u8,
            mantissa: mantissa as u16,
        };
        if sig == 0 {
            return element(0, 0);
        }
        let p = msb(sig);
        let mut ee = (exp + p - 10) + w;
        if ee >= 1 {
            // Normal target: round the significand to m+1 bits.
            let mut q = if m >= p {
                (sig as u64) << (m - p)
            } else {
                rounding.shift_right(sig as u64, (p - m) as u32)
            };
            if q == 1u64 << (m + 1) {
                // Round-up carry into the next binade.
                ee += 1;
                q = 1u64 << m;
            }
            if ee > top {
                // Saturate (only reachable when w was clamped, or by the
                // carry above on the block maximum itself).
                return element(top, (1u64 << m) - 1);
            }
            element(ee, q - (1u64 << m))
        } else {
            // Subnormal target: round in units of the smallest step.
            let t = exp + w + m - 11;
            let q = if t >= 0 {
                (sig as u64) << t
            } else {
                rounding.shift_right(sig as u64, (-t) as u32)
            };
            if q >= 1u64 << m {
                // Rounded up across the normal boundary (q == 2^m exactly).
                element(1, q - (1u64 << m))
            } else {
                element(0, q)
            }
        }
    }
}

/// Bit width of the stored scale field.
fn scale_field_bits(alg: &FormatAlgebra) -> u32 {
    match alg.scale {
        ScaleKind::SharedExponent { bits }
        | ScaleKind::SharedBias { bits }
        | ScaleKind::TwoLevel { bits, .. } => bits as u32,
    }
}

/// The per-element field widths `(flag, exp)` after the sign bit.
fn element_field_bits(alg: &FormatAlgebra) -> (u32, u32) {
    match alg.element {
        ElementKind::Fixed => (0, 0),
        ElementKind::Flagged { .. } => (1, 0),
        ElementKind::Minifloat { exp_bits } => (0, exp_bits as u32),
    }
}

/// Writes one chunk into `w`: scale field, sub-block offsets, element
/// payloads (`sign [flag] [exp] mantissa`, in that order).
pub(crate) fn write_chunk(w: &mut BitWriter, chunk: &AlgChunk, alg: &FormatAlgebra) {
    let bits = scale_field_bits(alg);
    let stored = match alg.scale {
        ScaleKind::SharedBias { bits } => chunk.scale_code + (1i32 << (bits - 1)),
        _ => chunk.scale_code,
    };
    w.push(stored as u32, bits);
    if let ScaleKind::TwoLevel { sub_scale_bits, .. } = alg.scale {
        for &d in &chunk.sub {
            w.push(d as u32, sub_scale_bits as u32);
        }
    }
    let m = alg.mantissa_bits as u32;
    let (flag_bits, exp_bits) = element_field_bits(alg);
    for e in &chunk.elements {
        w.push(e.sign as u32, 1);
        if flag_bits > 0 {
            w.push(e.flag as u32, flag_bits);
        }
        if exp_bits > 0 {
            w.push(e.exp as u32, exp_bits);
        }
        w.push(e.mantissa as u32, m);
    }
}

/// Reads one chunk of `len` elements from `r` — the exact inverse of
/// [`write_chunk`].
pub(crate) fn read_chunk(r: &mut BitReader<'_>, len: usize, alg: &FormatAlgebra) -> AlgChunk {
    let bits = scale_field_bits(alg);
    let raw = r.read(bits).expect("packed buffer intact") as i32;
    let scale_code = match alg.scale {
        ScaleKind::SharedBias { bits } => raw - (1i32 << (bits - 1)),
        _ => raw,
    };
    let mut sub = Vec::new();
    if let ScaleKind::TwoLevel {
        sub_block,
        sub_scale_bits,
        ..
    } = alg.scale
    {
        for _ in 0..len.div_ceil(sub_block) {
            sub.push(r.read(sub_scale_bits as u32).expect("packed buffer intact") as u8);
        }
    }
    let m = alg.mantissa_bits as u32;
    let (flag_bits, exp_bits) = element_field_bits(alg);
    let mut elements = Vec::with_capacity(len);
    for _ in 0..len {
        let sign = r.read(1).expect("packed buffer intact") == 1;
        let flag = flag_bits > 0 && r.read(flag_bits).expect("packed buffer intact") == 1;
        let exp = if exp_bits > 0 {
            r.read(exp_bits).expect("packed buffer intact") as u8
        } else {
            0
        };
        let mantissa = r.read(m).expect("packed buffer intact") as u16;
        elements.push(AlgElement {
            sign,
            flag,
            exp,
            mantissa,
        });
    }
    AlgChunk {
        scale_code,
        sub,
        elements,
    }
}

/// Writes `±mantissa(v) × scale` for every fixed-point element of one
/// (sub-)block aligned against `shared`.
#[inline]
fn quantize_fixed(values: &[Fp16], shared: i32, m: u32, rounding: RoundingMode, out: &mut [f32]) {
    let scale = exp2i(shared - 14 - m as i32);
    for (v, o) in values.iter().zip(out.iter_mut()) {
        let mag = fixed_mantissa(*v, shared, m, rounding) as f32 * scale;
        *o = if v.is_sign_negative() { -mag } else { mag };
    }
}

/// Quantise-dequantise `data` in place through any packable algebra
/// point, block by block. The final partial block gets its own shared
/// scale; non-finite inputs saturate through FP16 narrowing first.
/// Idempotent: the packed encoder re-encodes this output bit-for-bit.
///
/// This is the block quantiser every block scheme runs through. It
/// picks the point's encoder once per block, reuses one FP16 buffer for
/// the whole slice, and allocates nothing per block.
///
/// ```
/// use bbal_core::{algebra_quantize_in_place, FormatAlgebra, RoundingMode};
///
/// let alg = FormatAlgebra::bbfp(4, 2)?;
/// let mut data: Vec<f32> = (0..40).map(|i| (i as f32 - 20.0) * 0.07).collect();
/// algebra_quantize_in_place(&mut data, &alg, RoundingMode::NearestEven);
/// let once = data.clone();
/// algebra_quantize_in_place(&mut data, &alg, RoundingMode::NearestEven);
/// assert_eq!(data, once);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// Panics if the point is not packable.
pub fn algebra_quantize_in_place(data: &mut [f32], alg: &FormatAlgebra, rounding: RoundingMode) {
    let mut fp16 = block_buffer(alg, data.len());
    for chunk in data.chunks_mut(alg.block_size) {
        narrow_into(&mut fp16, chunk);
        quantize_block(&fp16, alg, rounding, chunk);
    }
}

/// The FP16 staging buffer both quantiser entry points reuse for every
/// block of one call.
fn block_buffer(alg: &FormatAlgebra, len: usize) -> Vec<Fp16> {
    assert!(alg.packable(), "scalar points have no block quantiser");
    Vec::with_capacity(alg.block_size.min(len))
}

/// Narrows one block into `fp16` (saturating, as the paper's FP16-input
/// pipeline does).
#[inline]
fn narrow_into(fp16: &mut Vec<Fp16>, values: &[f32]) {
    fp16.clear();
    fp16.extend(values.iter().map(|&v| Fp16::from_f32_saturating(v)));
}

/// Quantise-dequantises one FP16 block into `out`: the point's encoder
/// is chosen once here, then runs over the block without per-element
/// dispatch.
#[inline]
fn quantize_block(fp16: &[Fp16], alg: &FormatAlgebra, rounding: RoundingMode, out: &mut [f32]) {
    let m = alg.mantissa_bits as u32;
    match (alg.scale, alg.element) {
        (ScaleKind::SharedExponent { .. }, ElementKind::Flagged { overlap_bits }) => {
            let gap = alg.window_gap().unwrap_or(0);
            let shared = flagged_shared_exponent(fp16, gap);
            let low = exp2i(shared - 14 - m as i32);
            let high = low * exp2i(gap as i32);
            for (v, o) in fp16.iter().zip(out.iter_mut()) {
                let e = encode_element(*v, alg.mantissa_bits, overlap_bits, shared, rounding);
                let mag = e.mantissa as f32 * if e.flag { high } else { low };
                *o = if e.sign { -mag } else { mag };
            }
        }
        (ScaleKind::SharedExponent { .. }, _) => {
            quantize_fixed(fp16, max_exponent(fp16), m, rounding, out);
        }
        (ScaleKind::TwoLevel { sub_block, .. }, _) => {
            let e1 = max_exponent(fp16);
            for (part, out) in fp16.chunks(sub_block).zip(out.chunks_mut(sub_block)) {
                quantize_fixed(part, e1 - sub_block_offset(e1, part), m, rounding, out);
            }
        }
        (ScaleKind::SharedBias { bits }, _) => {
            MinifloatGrid::new(alg, bits).settle_bias(fp16, rounding, out);
        }
    }
}

/// As [`algebra_quantize_in_place`], reading `values` and writing the
/// reconstruction into `out`.
///
/// ```
/// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode};
///
/// let alg = FormatAlgebra::mx(8, 4, 2)?;
/// let raw: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
/// let mut q = vec![0.0; 32];
/// algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
/// let mut again = vec![0.0; 32];
/// algebra_quantize_slice(&q, &alg, RoundingMode::NearestEven, &mut again);
/// assert_eq!(q, again);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// Panics if `out.len() != values.len()` or the point is not packable.
pub fn algebra_quantize_slice(
    values: &[f32],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    assert_eq!(out.len(), values.len(), "output length mismatch");
    let mut fp16 = block_buffer(alg, values.len());
    for (block, chunk) in values
        .chunks(alg.block_size)
        .zip(out.chunks_mut(alg.block_size))
    {
        narrow_into(&mut fp16, block);
        quantize_block(&fp16, alg, rounding, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbfp::bbfp_quantize_slice;
    use crate::bfp::bfp_quantize_slice;
    use crate::format::{BbfpConfig, BfpConfig};

    fn wavy(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * scale * (1.0 + (i % 7) as f32))
            .collect()
    }

    #[test]
    fn named_points_validate_and_cost() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // MX(8,4,2): 5 payload + (8 + 16·1)/32 shared.
        assert!(close(
            FormatAlgebra::mx(8, 4, 2)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            5.75
        ));
        // MSFP(4,16): 5 payload + 8/16 shared.
        assert!(close(
            FormatAlgebra::msfp(4, 16)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            5.5
        ));
        // BlockMF(4,3,8): 1+4+3 payload + 8/32 shared.
        assert!(close(
            FormatAlgebra::blockmf(4, 3, 8)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            8.25
        ));
    }

    #[test]
    fn lowered_points_reproduce_legacy_costs() {
        for m in 1..=10u8 {
            assert_eq!(
                FormatAlgebra::bfp(m).unwrap().cost().equivalent_bit_width,
                BfpConfig::new(m).unwrap().cost().equivalent_bit_width,
                "bfp{m}"
            );
            for o in 0..m {
                assert_eq!(
                    FormatAlgebra::bbfp(m, o)
                        .unwrap()
                        .cost()
                        .equivalent_bit_width,
                    BbfpConfig::new(m, o).unwrap().cost().equivalent_bit_width,
                    "bbfp({m},{o})"
                );
            }
        }
        assert_eq!(
            FormatAlgebra::scalar_fp16().cost().equivalent_bit_width,
            16.0
        );
        assert_eq!(
            FormatAlgebra::scalar_int(8)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            8.0
        );
    }

    #[test]
    fn invalid_points_are_typed_errors() {
        assert!(matches!(
            FormatAlgebra::mx(9, 4, 2),
            Err(FormatError::ScaleWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::mx(8, 4, 3),
            Err(FormatError::SubBlock { sub_block: 3, .. })
        ));
        assert!(matches!(
            FormatAlgebra::msfp(0, 32),
            Err(FormatError::MantissaWidth(0))
        ));
        assert!(matches!(
            FormatAlgebra::msfp(4, 3),
            Err(FormatError::BlockSize(3))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(9, 9, 9),
            Err(FormatError::ExponentWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(4, 3, 9),
            Err(FormatError::BiasWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(4, 3, 1),
            Err(FormatError::BiasWidth(1))
        ));
        assert!(matches!(
            FormatAlgebra::bbfp(4, 4),
            Err(FormatError::OverlapWidth { .. })
        ));
        // A window flag only exists on shared-exponent lanes.
        for mut alg in [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
        ] {
            alg.element = ElementKind::Flagged { overlap_bits: 1 };
            assert!(matches!(
                alg.validate(),
                Err(FormatError::UnsupportedCombination(_))
            ));
        }
    }

    #[test]
    fn shared_exponent_points_match_legacy_quantisers() {
        let raw = wavy(70, 0.013);
        // The algebra's BFP point == bfp_quantize_slice.
        for m in [2u8, 4, 6, 8] {
            let alg = FormatAlgebra::bfp(m).unwrap();
            let mut a = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
            let mut b = vec![0.0; raw.len()];
            bfp_quantize_slice(
                &raw,
                BfpConfig::new(m).unwrap(),
                RoundingMode::NearestEven,
                &mut b,
            );
            assert_eq!(a, b, "bfp{m}");
        }
        // The algebra's BBFP point == bbfp_quantize_slice.
        for (m, o) in [(4u8, 2u8), (6, 3), (4, 3), (6, 0), (1, 0)] {
            let alg = FormatAlgebra::bbfp(m, o).unwrap();
            let mut a = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
            let mut b = vec![0.0; raw.len()];
            bbfp_quantize_slice(
                &raw,
                BbfpConfig::new(m, o).unwrap(),
                RoundingMode::NearestEven,
                &mut b,
            );
            assert_eq!(a, b, "bbfp({m},{o})");
        }
        // MSFP == BFP at the same mantissa width and block size.
        let alg = FormatAlgebra::msfp(4, 16).unwrap();
        let mut a = vec![0.0; raw.len()];
        algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
        let mut b = vec![0.0; raw.len()];
        bfp_quantize_slice(
            &raw,
            BfpConfig::with_block_size(4, 16).unwrap(),
            RoundingMode::NearestEven,
            &mut b,
        );
        assert_eq!(a, b, "msfp(4,16)");
    }

    #[test]
    fn mx_refines_bfp_on_small_sub_blocks() {
        // A block whose second half is much smaller than its first:
        // the micro-exponent gives those elements one extra bit.
        let mut raw = vec![0.0f32; 32];
        for (i, r) in raw.iter_mut().enumerate() {
            *r = if i < 16 {
                1.0 + i as f32 * 0.06
            } else {
                0.011 + i as f32 * 0.0007
            };
        }
        let mx = FormatAlgebra::mx(8, 4, 16).unwrap();
        let bfp = FormatAlgebra::bfp(4).unwrap();
        let mut qm = vec![0.0; 32];
        algebra_quantize_slice(&raw, &mx, RoundingMode::NearestEven, &mut qm);
        let mut qb = vec![0.0; 32];
        algebra_quantize_slice(&raw, &bfp, RoundingMode::NearestEven, &mut qb);
        let mse = |q: &[f32]| {
            raw.iter()
                .zip(q)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
        };
        assert!(mse(&qm) < mse(&qb), "mx {} vs bfp {}", mse(&qm), mse(&qb));
    }

    #[test]
    fn quantisers_are_idempotent() {
        let raws = [wavy(70, 0.013), wavy(64, 300.0), wavy(40, 1.7e-6)];
        let points = [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::mx(5, 3, 4).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::msfp(6, 64).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::blockmf(2, 1, 8).unwrap(),
            FormatAlgebra::blockmf(5, 2, 4).unwrap(),
            FormatAlgebra::blockmf(6, 5, 8).unwrap(),
        ];
        for raw in &raws {
            for alg in &points {
                let mut once = vec![0.0; raw.len()];
                algebra_quantize_slice(raw, alg, RoundingMode::NearestEven, &mut once);
                let mut twice = vec![0.0; raw.len()];
                algebra_quantize_slice(&once, alg, RoundingMode::NearestEven, &mut twice);
                for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} idx {i}: {a} vs {b}",
                        alg.display_name()
                    );
                }
            }
        }
    }

    #[test]
    fn quantised_values_stay_fp16_exact() {
        // The packed encoder narrows through FP16 first; the quantiser
        // must therefore only emit FP16-exact values.
        for alg in [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::blockmf(6, 5, 8).unwrap(),
        ] {
            for scale in [1.0e-6f32, 0.013, 250.0] {
                let raw = wavy(64, scale);
                let mut q = vec![0.0; raw.len()];
                algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
                for (i, v) in q.iter().enumerate() {
                    let back = Fp16::from_f32_saturating(*v).to_f32();
                    assert_eq!(
                        back.to_bits(),
                        v.to_bits(),
                        "{} idx {i}: {v} not fp16-exact",
                        alg.display_name()
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_codec_round_trips_bits() {
        let points = [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::bfp(6).unwrap(),
            FormatAlgebra::bbfp(4, 2).unwrap(),
            FormatAlgebra::bbfp(6, 0).unwrap(),
        ];
        for alg in &points {
            for len in [alg.block_size, 5, 1] {
                let raw = wavy(len, 0.03);
                let fp16: Vec<Fp16> = raw.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
                let chunk = encode_chunk(&fp16, alg, RoundingMode::NearestEven);
                let mut w = BitWriter::new();
                write_chunk(&mut w, &chunk, alg);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                let back = read_chunk(&mut r, len, alg);
                assert_eq!(chunk, back, "{} len {len}", alg.display_name());
            }
        }
    }

    #[test]
    fn signed_zeros_survive() {
        let raw = [0.0f32, -0.0, 1.5, -0.0, 0.0, -2.5, 0.0, -0.0];
        for alg in [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
        ] {
            let mut q = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
            for (i, (a, b)) in raw.iter().zip(&q).enumerate() {
                if *a == 0.0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "idx {i} zero sign lost");
                }
            }
        }
    }

    #[test]
    fn display_names_are_reversible_labels() {
        assert_eq!(
            FormatAlgebra::mx(8, 4, 2).unwrap().display_name(),
            "MX(8,4,2)"
        );
        assert_eq!(
            FormatAlgebra::msfp(4, 16).unwrap().display_name(),
            "MSFP(4,16)"
        );
        assert_eq!(
            FormatAlgebra::blockmf(4, 3, 8).unwrap().display_name(),
            "BlockMF(4,3,8)"
        );
        assert_eq!(FormatAlgebra::bfp(6).unwrap().display_name(), "BFP6");
        assert_eq!(
            FormatAlgebra::bbfp(4, 2).unwrap().display_name(),
            "BBFP(4,2)"
        );
        assert_eq!(
            FormatAlgebra::bbfp(6, 0).unwrap().display_name(),
            "BBFP(6,0)"
        );
        assert_eq!(FormatAlgebra::scalar_fp16().display_name(), "FP16");
        assert_eq!(FormatAlgebra::scalar_int(8).unwrap().display_name(), "INT8");
    }
}
