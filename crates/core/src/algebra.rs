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
//! (`SchemeSpec::algebra`), the quantisers and the packed store are
//! *generic* over it, and the accelerator layers derive MAC kinds, PE
//! areas, and KV footprints from [`FormatAlgebra::cost`] instead of
//! per-scheme match arms. New families therefore flow from a parsed id
//! string all the way to the serving fleet without touching any layer
//! in between.
//!
//! ## Supported points
//!
//! The block encoder and the packed store support exactly three
//! families of points, which cover every named scheme:
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
//! storage layouts rather than the block store.
//!
//! ## Bit-identity
//!
//! All three families share the property the packed GEMM kernels rely
//! on: every scale is a power of two, so a block factors into an exact
//! integer-valued (or exactly-representable) f32 *lane* times one
//! power-of-two scale per block, and `fl(a·(lane·2^s)) =
//! fl((a·2^s)·lane)`. One block encoder (`encode_block`) writes a
//! block's dequantised values and, on demand, its integer codes and
//! folded scale: [`algebra_quantize_in_place`] is that encoder with the
//! codes dropped, and the packed store keeps them, so packing a
//! quantised matrix is the identity, quantising and packing raw values
//! is one pass, and the self-verify fallback never fires on honest
//! input.
//!
//! The hardware models read the same encoder: the functional PE array
//! multiplies the codes of [`algebra_encode_slice`], the nonlinear
//! unit's LUT addresses each element by the flag and mantissa of
//! [`encode_elements`], and the Fig. 3 sweep moves the flagged shared
//! exponent with [`algebra_quantize_slice_with`].

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

    /// The shared-exponent policy the block encoder applies at this
    /// point: the paper's Eq. 9, `MaxMinus(m − o)`, for flagged elements
    /// and `Max` for every other kind.
    pub fn exponent_policy(&self) -> ExponentPolicy {
        match self.window_gap() {
            Some(gap) => ExponentPolicy::MaxMinus(gap as u8),
            None => ExponentPolicy::Max,
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
// The block encoder
// ---------------------------------------------------------------------

/// One element as BBFP's element encoder writes it: sign, high/low-window
/// flag and `m`-bit mantissa magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BbfpElement {
    /// Sign bit (`true` = negative).
    pub sign: bool,
    /// Window flag: `true` means the mantissa lives in the high window and
    /// the decoded value scales by `2^(m−o)`.
    pub flag: bool,
    /// Mantissa magnitude, `< 2^m`.
    pub mantissa: u16,
}

/// Maximum biased exponent over the non-zero elements of a block (0 if the
/// block is entirely zero).
pub(crate) fn max_exponent(values: &[Fp16]) -> i32 {
    values
        .iter()
        .filter(|v| {
            let (m, _) = v.significand();
            m != 0
        })
        .map(|v| v.significand().1)
        .max()
        .unwrap_or(0)
}

#[inline]
pub(crate) fn exp2i(e: i32) -> f32 {
    // Exact for the exponent ranges block formats produce (|e| < 64).
    (e as f64).exp2() as f32
}

/// Encodes a single FP16 value into `BBFP(m, o)` against a given shared
/// exponent.
pub(crate) fn encode_element(
    v: Fp16,
    mantissa_bits: u8,
    overlap_bits: u8,
    shared: i32,
    rounding: RoundingMode,
) -> BbfpElement {
    let m = mantissa_bits as i32;
    let o = overlap_bits as i32;
    let max_mantissa = (1u64 << m) - 1;
    let (sig, exp) = v.significand();
    let sign = v.is_sign_negative();
    if sig == 0 {
        return BbfpElement {
            sign,
            flag: false,
            mantissa: 0,
        };
    }

    if exp > shared {
        // High window (flag = 1): the significand's top bit must land at
        // high-window bit m-1, whose weight is 2^(shared-15+(m-o)) in units
        // of the element's own 2^(exp-15) leading weight. Net right shift:
        let shift = (SIGNIFICAND_BITS as i32 - o) - (exp - shared);
        let q = if shift >= 0 {
            rounding.shift_right(sig as u64, shift as u32)
        } else {
            // Policy offset beyond the window gap: the MSB escapes the
            // window (paper's "Max−3" pathology); saturate below.
            (sig as u64) << (-shift).min(32)
        };
        BbfpElement {
            sign,
            flag: true,
            mantissa: q.min(max_mantissa) as u16,
        }
    } else {
        // Low window (flag = 0): vanilla BFP alignment against `shared`.
        let shift = (SIGNIFICAND_BITS as i32 - m) + (shared - exp);
        debug_assert!(shift >= 1);
        let q = rounding.shift_right(sig as u64, shift as u32);
        BbfpElement {
            sign,
            flag: false,
            mantissa: q.min(max_mantissa) as u16,
        }
    }
}

/// The overlap width a policy-driven encode runs with: a flagged point's
/// own. Any other point takes only an offset-0 (`Max`) policy, under
/// which no element reaches the high window, so its overlap is never read.
fn policy_overlap(alg: &FormatAlgebra, policy: ExponentPolicy) -> u8 {
    match alg.element {
        ElementKind::Flagged { overlap_bits } => overlap_bits,
        _ => {
            assert_eq!(
                policy.offset(),
                0,
                "{} has no flagged elements: only the Max exponent policy applies",
                alg.display_name()
            );
            0
        }
    }
}

/// BBFP's element encoder over one block of a shared-exponent point (BFP,
/// MSFP or BBFP), the shared exponent picked by `policy`: writes each
/// element's sign, window flag and mantissa into `out` and returns the
/// shared biased exponent. `values` is one block whatever its length, and
/// must be finite (narrow a NaN to `+0` first, as the quantisers do). Read
/// flags here, not from codes: BBFP(10,5)'s flagged mantissa 16 and
/// low-window mantissa 512 share the code 512.
///
/// ```
/// use bbal_core::{encode_elements, BbfpElement, FormatAlgebra, Fp16, RoundingMode};
///
/// let alg = FormatAlgebra::bbfp(4, 2)?;
/// let block = [8.0f32, 3.0].map(Fp16::from_f32);
/// let mut elements = [BbfpElement::default(); 2];
/// let policy = alg.exponent_policy();
/// let shared = encode_elements(&block, &alg, policy, RoundingMode::NearestEven, &mut elements);
/// assert_eq!(shared, 18 - 2); // Eq. 9: the block maximum's exponent less m − o
/// assert!(elements[0].flag && !elements[1].flag);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// Panics if the point's scale is not one shared exponent, if `policy`
/// has a nonzero offset at a point without flagged elements, or if `out`
/// is shorter than `values`.
pub fn encode_elements(
    values: &[Fp16],
    alg: &FormatAlgebra,
    policy: ExponentPolicy,
    rounding: RoundingMode,
    out: &mut [BbfpElement],
) -> i32 {
    assert!(
        matches!(alg.scale, ScaleKind::SharedExponent { .. }),
        "{} has no shared exponent",
        alg.display_name()
    );
    assert!(out.len() >= values.len(), "element buffer too short");
    let overlap_bits = policy_overlap(alg, policy);
    let shared = policy.shared_exponent(max_exponent(values));
    for (v, e) in values.iter().zip(out.iter_mut()) {
        *e = encode_element(*v, alg.mantissa_bits, overlap_bits, shared, rounding);
    }
    shared
}

/// The code shift `c` of a point: a code is `lane·2^c`, where the lane is
/// what the element decodes to against its block's top scale. Two-level
/// lanes are multiples of `2^−(largest sub-block offset)`, so `c` is that
/// offset there (1 for 1-bit sub-scales); every other lane is an integer
/// and `c = 0`.
fn code_shift(alg: &FormatAlgebra) -> i32 {
    match alg.scale {
        ScaleKind::TwoLevel { sub_scale_bits, .. } => (1i32 << sub_scale_bits) - 1,
        _ => 0,
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

/// A two-level sub-block's offset below the block exponent `e1`: 1 when
/// the whole sub-block sits below `e1`, granting it an extra bit.
fn sub_block_offset(e1: i32, values: &[Fp16]) -> i32 {
    (e1 - max_exponent(values)).clamp(0, 1)
}

/// `±magnitude`, the sign taken from `negative` (so a zero keeps it).
#[inline(always)]
fn signed(negative: bool, magnitude: f32) -> f32 {
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// The block encoder: quantises one FP16 block (a full block or a
/// ragged tail, with its own shared scale) at any packable point. It
/// writes each element's dequantised value into `out` and, when
/// `CODES`, the element's signed integer code into `codes`, and returns
/// the exponent `e` of the block's one folded scale, so that every value
/// is exactly `code × 2^e`. A code folds in the element's flag,
/// sub-block offset or minifloat exponent and the point's
/// [`code_shift`]; a `-0` value has the code `-0`.
///
/// Quantise-dequantise ([`algebra_quantize_in_place`]) is this encoder
/// with the codes dropped, and the packed block store
/// ([`crate::packed`]) is it with the codes kept, so both see the same
/// scale choice and element encoders. The point's encoder is picked once
/// per block, then runs over it with no per-element dispatch and no
/// allocation.
#[inline(always)]
pub(crate) fn encode_block<const CODES: bool>(
    fp16: &[Fp16],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
    out: &mut [f32],
    codes: &mut [f32],
) -> i32 {
    let m = alg.mantissa_bits as u32;
    match (alg.scale, alg.element) {
        (ScaleKind::SharedExponent { .. }, ElementKind::Flagged { overlap_bits }) => {
            let policy = alg.exponent_policy();
            encode_flagged::<CODES>(fp16, alg, overlap_bits, policy, rounding, out, codes)
        }
        (ScaleKind::SharedExponent { .. }, _) => {
            let shared = max_exponent(fp16);
            quantize_fixed::<CODES>(fp16, shared, m, rounding, 1.0, out, codes);
            shared - 14 - m as i32
        }
        (ScaleKind::TwoLevel { sub_block, .. }, _) => {
            let (e1, c) = (max_exponent(fp16), code_shift(alg));
            for (p, (part, out)) in fp16
                .chunks(sub_block)
                .zip(out.chunks_mut(sub_block))
                .enumerate()
            {
                let d = sub_block_offset(e1, part);
                let (unit, codes) = if CODES {
                    let at = p * sub_block;
                    ((1u32 << (c - d)) as f32, &mut codes[at..at + part.len()])
                } else {
                    (0.0, &mut [][..])
                };
                quantize_fixed::<CODES>(part, e1 - d, m, rounding, unit, out, codes);
            }
            e1 - 14 - m as i32 - c
        }
        (ScaleKind::SharedBias { bits }, _) => {
            let w = MinifloatGrid::new(alg, bits).settle_bias::<CODES>(fp16, rounding, out, codes);
            -w - 14 - m as i32
        }
    }
}

/// The flagged (BBFP) arm of the block encoder, with the shared exponent
/// `policy` picks from the block maximum: [`encode_block`] passes the
/// point's own Eq. 9 policy, the Fig. 3 sweep
/// ([`algebra_quantize_slice_with`]) any other.
#[inline(always)]
fn encode_flagged<const CODES: bool>(
    fp16: &[Fp16],
    alg: &FormatAlgebra,
    overlap_bits: u8,
    policy: ExponentPolicy,
    rounding: RoundingMode,
    out: &mut [f32],
    codes: &mut [f32],
) -> i32 {
    let m = alg.mantissa_bits as u32;
    let gap = alg.window_gap().unwrap_or(0);
    let shared = policy.shared_exponent(max_exponent(fp16));
    let low = exp2i(shared - 14 - m as i32);
    let high = low * exp2i(gap as i32);
    let wide = (1u32 << gap) as f32;
    for (i, (v, o)) in fp16.iter().zip(out.iter_mut()).enumerate() {
        let e = encode_element(*v, alg.mantissa_bits, overlap_bits, shared, rounding);
        let mag = e.mantissa as f32 * if e.flag { high } else { low };
        *o = signed(e.sign, mag);
        if CODES {
            let code = e.mantissa as f32 * if e.flag { wide } else { 1.0 };
            codes[i] = signed(e.sign, code);
        }
    }
    shared - 14 - m as i32
}

/// Writes `±mantissa(v) × scale` for every fixed-point element of one
/// (sub-)block aligned against `shared` and, when `CODES`, the code
/// `±mantissa × unit`.
#[inline]
fn quantize_fixed<const CODES: bool>(
    values: &[Fp16],
    shared: i32,
    m: u32,
    rounding: RoundingMode,
    unit: f32,
    out: &mut [f32],
    codes: &mut [f32],
) {
    let scale = exp2i(shared - 14 - m as i32);
    for (i, (v, o)) in values.iter().zip(out.iter_mut()).enumerate() {
        let mantissa = fixed_mantissa(*v, shared, m, rounding) as f32;
        *o = signed(v.is_sign_negative(), mantissa * scale);
        if CODES {
            codes[i] = signed(v.is_sign_negative(), mantissa * unit);
        }
    }
}

/// One encoded minifloat element: `exp` is its exponent code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MiniElement {
    sign: bool,
    exp: u8,
    mantissa: u16,
}

/// A minifloat element's lane magnitude: `mant` (subnormal, `exp = 0`)
/// or `(2^m + mant) × 2^(exp − 1)`.
#[inline]
fn minifloat_lane(exp: u8, mantissa: u16, mantissa_bits: u8) -> f32 {
    if exp == 0 {
        mantissa as f32
    } else {
        (((1u32 << mantissa_bits) + mantissa as u32) as f32) * exp2i(exp as i32 - 1)
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
    /// its own `e`-bit-exponent float (decoded into `out`, its lane into
    /// `codes` when `CODES`), and repeat until `w` is stable. Rounding
    /// can carry the block maximum into the next binade; the max only
    /// moves up and `w` only down, so this terminates, and re-encoding
    /// `out` is the identity.
    fn settle_bias<const CODES: bool>(
        &self,
        values: &[Fp16],
        rounding: RoundingMode,
        out: &mut [f32],
        codes: &mut [f32],
    ) -> i32 {
        let mut w = self.pick_w(values.iter().copied());
        loop {
            let scale = exp2i(-w - 14 - self.m);
            for (i, (v, o)) in values.iter().zip(out.iter_mut()).enumerate() {
                let e = self.encode(*v, w, rounding);
                let lane = minifloat_lane(e.exp, e.mantissa, self.m as u8);
                *o = signed(e.sign, lane * scale);
                if CODES {
                    codes[i] = signed(e.sign, lane);
                }
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
    fn encode(&self, v: Fp16, w: i32, rounding: RoundingMode) -> MiniElement {
        let m = self.m;
        // When w is clamped at the stored-field (or FP16-step) maximum,
        // the grid's nominal top can exceed FP16's largest finite value;
        // cap the usable exponent code so every decoded magnitude stays
        // <= 2^16 − ulp (code `w + 30` decodes to the 2^15 binade, which
        // FP16 still holds).
        let top = self.top.min(w + 30);
        let (sig, exp) = v.significand();
        let sign = v.is_sign_negative();
        let element = |exp: i32, mantissa: u64| MiniElement {
            sign,
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

// ---------------------------------------------------------------------
// Quantise-dequantise
// ---------------------------------------------------------------------

/// Quantise-dequantise `data` in place through any packable algebra
/// point, block by block. The final partial block gets its own shared
/// scale; ±inf saturates through FP16 narrowing first, and a NaN element
/// quantises to NaN while its block's scale comes from the other
/// elements, in debug and release builds alike.
/// Idempotent: the packed encoder re-encodes this output bit-for-bit.
///
/// This is the block quantiser every block scheme runs through: the
/// block encoder with its codes dropped. It reuses one FP16 buffer for
/// the whole slice and allocates nothing per block, except a copy of a
/// block that holds a NaN.
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
        let fp16 = &mut fp16[..chunk.len()];
        let nans = narrow_block(fp16, chunk).then(|| chunk.to_vec());
        encode_block::<false>(fp16, alg, rounding, chunk, &mut []);
        if let Some(raw) = nans {
            restore_nans(&raw, chunk);
        }
    }
}

/// The FP16 staging buffer both quantiser entry points reuse for every
/// block of one call.
fn block_buffer(alg: &FormatAlgebra, len: usize) -> Vec<Fp16> {
    assert!(alg.packable(), "scalar points have no block quantiser");
    vec![Fp16::ZERO; alg.block_size.min(len)]
}

/// Narrows one block into `fp16` (saturating, as the paper's FP16-input
/// pipeline does), ready for [`encode_block`]. A NaN narrows to `+0`, so
/// the block's scale comes from its other elements alone; returns
/// whether any value was NaN, so the caller can put the NaNs back over
/// the encoder's output with [`restore_nans`]. Finite values narrow as
/// they always did, and every narrowed value is finite.
#[inline]
pub(crate) fn narrow_block(fp16: &mut [Fp16], values: &[f32]) -> bool {
    let mut nan = false;
    for (h, &v) in fp16.iter_mut().zip(values) {
        nan |= v.is_nan();
        *h = Fp16::from_f32_saturating(if v.is_nan() { 0.0 } else { v });
    }
    nan
}

/// Writes each NaN of `values` over `out` at its own index: a NaN
/// element quantises to NaN.
pub(crate) fn restore_nans(values: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(values) {
        if v.is_nan() {
            *o = v;
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
    quantize_blocks(values, alg, out, |fp16, chunk| {
        encode_block::<false>(fp16, alg, rounding, chunk, &mut []);
    });
}

/// As [`algebra_quantize_slice`], with the shared exponent of a flagged
/// point picked by `policy` instead of the point's own Eq. 9 offset: the
/// paper's Fig. 3 sweep of `Max−1/−2/−3`. `Max` turns BBFP(m,o) into
/// BFP(m). At the point's own policy this is [`algebra_quantize_slice`].
///
/// ```
/// use bbal_core::{algebra_quantize_slice, algebra_quantize_slice_with};
/// use bbal_core::{ExponentPolicy, FormatAlgebra, RoundingMode};
///
/// let raw: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
/// let (mut max, mut bfp) = (vec![0.0; 32], vec![0.0; 32]);
/// let rne = RoundingMode::NearestEven;
/// algebra_quantize_slice_with(&raw, &FormatAlgebra::bbfp(4, 2)?, ExponentPolicy::Max, rne, &mut max);
/// algebra_quantize_slice(&raw, &FormatAlgebra::bfp(4)?, rne, &mut bfp);
/// assert_eq!(max, bfp);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// As [`algebra_quantize_slice`], and if `policy` has a nonzero offset at
/// a point without flagged elements.
pub fn algebra_quantize_slice_with(
    values: &[f32],
    alg: &FormatAlgebra,
    policy: ExponentPolicy,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    let overlap_bits = policy_overlap(alg, policy);
    if alg.window_gap().is_none() {
        return algebra_quantize_slice(values, alg, rounding, out);
    }
    quantize_blocks(values, alg, out, |fp16, chunk| {
        encode_flagged::<false>(fp16, alg, overlap_bits, policy, rounding, chunk, &mut []);
    });
}

/// The block loop of the slice quantisers: narrows each block of `values`
/// into one reused FP16 buffer, runs `encode` over it into the matching
/// chunk of `out`, and puts any NaN back at its own index.
fn quantize_blocks(
    values: &[f32],
    alg: &FormatAlgebra,
    out: &mut [f32],
    mut encode: impl FnMut(&[Fp16], &mut [f32]),
) {
    assert_eq!(out.len(), values.len(), "output length mismatch");
    let mut fp16 = block_buffer(alg, values.len());
    for (block, chunk) in values
        .chunks(alg.block_size)
        .zip(out.chunks_mut(alg.block_size))
    {
        let fp16 = &mut fp16[..block.len()];
        let nan = narrow_block(fp16, block);
        encode(fp16, chunk);
        if nan {
            restore_nans(block, chunk);
        }
    }
}

/// The block encoder's integer view of `values`, rounding to nearest
/// even: writes each element's signed integer code into `codes` and
/// returns one exponent per block (the final partial block included), so
/// that every non-NaN element quantises to exactly
/// `codes[i] × 2^exponents[i / block_size]`, the value
/// [`algebra_quantize_slice`] writes. The packed store keeps these codes;
/// the functional PE model multiplies them. A NaN element takes no part
/// in its block's exponent and gets the code 0.
///
/// ```
/// use bbal_core::{algebra_encode_slice, algebra_quantize_slice, FormatAlgebra, RoundingMode};
///
/// let alg = FormatAlgebra::bbfp(4, 2)?;
/// let raw: Vec<f32> = (0..40).map(|i| (i as f32 - 20.0) * 0.07).collect();
/// let mut codes = vec![0.0; 40];
/// let exps = algebra_encode_slice(&raw, &alg, &mut codes);
/// assert_eq!(exps.len(), 2); // one whole block and a ragged tail
/// let mut q = vec![0.0; 40];
/// algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
/// for (i, (c, v)) in codes.iter().zip(&q).enumerate() {
///     assert_eq!(c * (exps[i / 32] as f32).exp2(), *v);
/// }
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// Panics if `codes.len() != values.len()` or the point is not packable.
pub fn algebra_encode_slice(values: &[f32], alg: &FormatAlgebra, codes: &mut [f32]) -> Vec<i32> {
    assert_eq!(codes.len(), values.len(), "code length mismatch");
    let mut fp16 = block_buffer(alg, values.len());
    let mut out = vec![0.0; fp16.len()];
    values
        .chunks(alg.block_size)
        .zip(codes.chunks_mut(alg.block_size))
        .map(|(block, codes)| {
            let n = block.len();
            encode_chunk(block, alg, &mut fp16[..n], &mut out[..n], codes).0
        })
        .collect()
}

/// Narrows one chunk of `values` into `fp16` and runs the block encoder
/// over it, writing the dequantised values into `out` and the codes into
/// `codes`, exactly as the quantiser does: a NaN value takes no part in
/// the scale and is written back into `out` as itself. Returns the
/// exponent of the chunk's folded scale and whether `values` held a NaN.
pub(crate) fn encode_chunk(
    values: &[f32],
    alg: &FormatAlgebra,
    fp16: &mut [Fp16],
    out: &mut [f32],
    codes: &mut [f32],
) -> (i32, bool) {
    let nan = narrow_block(fp16, values);
    let e = encode_block::<true>(fp16, alg, RoundingMode::NearestEven, out, codes);
    if nan {
        restore_nans(values, out);
    }
    (e, nan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BbfpConfig, BfpConfig};
    use crate::reference::{bbfp_quantize_slice, bbfp_quantize_slice_with, bfp_quantize_slice};

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

    /// The policy entry is the reference sweep at every Fig. 3 offset, on
    /// ragged tails and NaN blocks alike; at a point's own policy it is
    /// the plain quantiser.
    #[test]
    fn policy_sweep_matches_reference_quantiser() {
        let mut raw = wavy(70, 0.013);
        raw[40] = f32::NAN;
        for (m, o) in [(4u8, 2u8), (6, 3), (10, 5), (3, 0)] {
            let alg = FormatAlgebra::bbfp(m, o).unwrap();
            let cfg = BbfpConfig::new(m, o).unwrap();
            for policy in [0, 1, 2, 3, m - o + 1].map(ExponentPolicy::MaxMinus) {
                let mut a = vec![0.0; raw.len()];
                algebra_quantize_slice_with(&raw, &alg, policy, RoundingMode::NearestEven, &mut a);
                let mut b = vec![0.0; raw.len()];
                bbfp_quantize_slice_with(&raw, cfg, policy, RoundingMode::NearestEven, &mut b);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "bbfp({m},{o}) {policy:?}");
            }
            let mut own = vec![0.0; raw.len()];
            let policy = alg.exponent_policy();
            algebra_quantize_slice_with(&raw, &alg, policy, RoundingMode::NearestEven, &mut own);
            let mut plain = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut plain);
            assert_eq!(own[..40], plain[..40]);
            assert_eq!(own[41..], plain[41..]);
        }
        // A point without flagged elements takes `Max`, as itself.
        let bfp = FormatAlgebra::bfp(4).unwrap();
        let (mut a, mut b) = (vec![0.0; 32], vec![0.0; 32]);
        let rne = RoundingMode::NearestEven;
        algebra_quantize_slice_with(&raw[..32], &bfp, ExponentPolicy::Max, rne, &mut a);
        algebra_quantize_slice(&raw[..32], &bfp, rne, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "only the Max exponent policy applies")]
    fn offset_policy_on_unflagged_point_is_rejected() {
        let bfp = FormatAlgebra::bfp(4).unwrap();
        let mut out = vec![0.0; 32];
        let policy = ExponentPolicy::MaxMinus(2);
        algebra_quantize_slice_with(
            &[1.0; 32],
            &bfp,
            policy,
            RoundingMode::NearestEven,
            &mut out,
        );
    }

    /// A flag is read from the element encoder, never from a code's size:
    /// BBFP(10,5) on `[-3e-5, -5e-4]` clamps the shared exponent to 0 and
    /// flags the FP16 subnormal `-3e-5` with mantissa 16, whose code 512
    /// is also the code of an unflagged mantissa 512.
    #[test]
    fn subnormal_near_tie_is_flagged_with_a_small_code() {
        let alg = FormatAlgebra::bbfp(10, 5).unwrap();
        let raw = [-3.0e-5f32, -5.0e-4];
        let fp16 = raw.map(Fp16::from_f32_saturating);
        let mut elements = [BbfpElement::default(); 2];
        let rne = RoundingMode::NearestEven;
        let shared = encode_elements(&fp16, &alg, alg.exponent_policy(), rne, &mut elements);
        assert_eq!(shared, 0);
        let e = elements[0];
        assert!(e.sign && e.flag && e.mantissa == 16, "{e:?}");
        let mut codes = [0.0; 2];
        let exps = algebra_encode_slice(&raw, &alg, &mut codes);
        assert_eq!(codes[0], -512.0);
        assert!(
            codes[0].abs() < (1 << 10) as f32,
            "a flagged code below 2^m"
        );
        assert_eq!(exps, [-24]);
    }

    /// The integer view writes the codes the packed store keeps: times the
    /// block's exponent they are the quantiser's values, and a NaN gets
    /// the code 0 and no say in its block's exponent.
    #[test]
    fn encoded_codes_give_the_quantised_values() {
        let mut raw = wavy(72, 0.013);
        raw[5] = f32::NAN;
        for alg in [
            FormatAlgebra::bfp(4).unwrap(),
            FormatAlgebra::bbfp(4, 2).unwrap(),
            FormatAlgebra::bbfp(10, 0).unwrap(),
            FormatAlgebra::mx(8, 4, 2).unwrap(),
        ] {
            let rne = RoundingMode::NearestEven;
            let mut codes = vec![0.0; raw.len()];
            let exps = algebra_encode_slice(&raw, &alg, &mut codes);
            assert_eq!(exps.len(), 3, "{alg:?}: two blocks and a tail");
            let mut q = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, rne, &mut q);
            for (i, (c, v)) in codes.iter().zip(&q).enumerate() {
                if i == 5 {
                    assert_eq!(*c, 0.0);
                    assert!(v.is_nan());
                } else {
                    let decoded = c * exp2i(exps[i / alg.block_size]);
                    assert_eq!(decoded.to_bits(), v.to_bits(), "{alg:?} idx {i}");
                }
            }
        }
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

    /// One pass of the block encoder over a chunk (full blocks, ragged
    /// tails, a tiny scale) gives the quantiser's values, and codes that
    /// times the returned scale `2^e` equal those values bit for bit.
    #[test]
    fn chunk_codec_round_trips_bits() {
        let points = [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::bfp(6).unwrap(),
            FormatAlgebra::bbfp(4, 2).unwrap(),
            FormatAlgebra::bbfp(6, 0).unwrap(),
            FormatAlgebra::bbfp(10, 1).unwrap(),
        ];
        for alg in &points {
            for (len, scale) in [(alg.block_size, 0.03), (5, 0.03), (1, 0.03), (7, 2e-7)] {
                let len = len.min(alg.block_size);
                let raw = wavy(len, scale);
                let fp16: Vec<Fp16> = raw.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
                let (mut values, mut codes) = (vec![0.0; len], vec![0.0; len]);
                let e = encode_block::<true>(
                    &fp16,
                    alg,
                    RoundingMode::NearestEven,
                    &mut values,
                    &mut codes,
                );
                // The encoder's values are the quantiser's, and its codes
                // times its scale give them back bit for bit.
                let mut q = vec![0.0; len];
                algebra_quantize_slice(&raw, alg, RoundingMode::NearestEven, &mut q);
                for (i, ((c, v), value)) in codes.iter().zip(&q).zip(&values).enumerate() {
                    assert_eq!(value.to_bits(), v.to_bits(), "{alg:?} idx {i} value");
                    assert_eq!((c * exp2i(e)).to_bits(), v.to_bits(), "{alg:?} idx {i}");
                }
            }
        }
    }

    /// A NaN element quantises to NaN and takes no part in its block's
    /// scale: every other element quantises as if the NaN were `+0`, in
    /// debug and release builds alike, through both quantiser entry
    /// points. A block of NaNs alone stays NaN.
    #[test]
    fn nan_elements_stay_nan_and_leave_the_scale_to_the_rest() {
        for alg in [
            FormatAlgebra::bfp(4).unwrap(),
            FormatAlgebra::bbfp(4, 2).unwrap(),
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
        ] {
            let mut raw = wavy(72, 0.013);
            raw[3] = f32::NAN;
            raw[35] = -f32::NAN;
            raw[64..].fill(f32::NAN);
            let zeroed: Vec<f32> = raw
                .iter()
                .map(|v| if v.is_nan() { 0.0 } else { *v })
                .collect();
            let mut want = vec![0.0; raw.len()];
            algebra_quantize_slice(&zeroed, &alg, RoundingMode::NearestEven, &mut want);
            for (w, r) in want.iter_mut().zip(&raw) {
                if r.is_nan() {
                    *w = *r;
                }
            }
            let mut got = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut got);
            let mut in_place = raw.clone();
            algebra_quantize_in_place(&mut in_place, &alg, RoundingMode::NearestEven);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let what = alg.display_name();
            assert_eq!(bits(&got), bits(&want), "{what} slice");
            assert_eq!(bits(&in_place), bits(&want), "{what} in place");
            let finite = got
                .iter()
                .zip(&raw)
                .all(|(g, r)| r.is_nan() || g.is_finite());
            assert!(finite, "{what}: every other element stays finite");
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
