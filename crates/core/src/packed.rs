//! Packed quantised storage and the GEMM and attention kernels that
//! read it.
//!
//! A block-format point's bit layout is one shared scale field per block
//! (5-bit exponent for BFP/BBFP, 8-bit for MX/MSFP, a signed bias for
//! block minifloat), any per-sub-block offset codes, then the packed
//! element payloads (`sign|mantissa`, `sign|flag|mantissa`, or
//! `sign|exp|mantissa`), with no padding between fields. That layout is
//! what a store is *charged*: one count from the algebra (`chunk_bits`)
//! sizes [`PackedMatrix::packed_bits`], [`PackedRows::packed_bits`] and
//! [`packed_rows_capacity_bytes`]. What a store *holds* is the form its
//! kernels read: that layout factored into one integer element code per
//! value and one power-of-two scale per block. A [`PackedMatrix`] holds
//! a weight matrix, a [`PackedRows`] a KV-cache page.
//!
//! ```text
//!   charged:   [ e₄e₃e₂e₁e₀ | s f m₃m₂m₁m₀ | s f m₃m₂m₁m₀ | … ]
//!               `────┬────'   `─────┬─────'
//!            shared exponent   one element (BBFP: flag picks the
//!                              high window, worth ×2^(m−o))
//!
//!   held:
//!   weight[j] = code[j] × scale(b)      code = lane·2^c,  scale = 2^(e(b)−c)
//!               `──┬──'   `───┬───'
//!      signed integer:    one power-of-two scale per block,
//!      flags, micro-      with the matrix's one shift c folded in
//!      exponents and      (c = 1 for two-level MX lanes, which are
//!      minifloat exps     half-integers; 0 otherwise)
//!      folded in
//! ```
//!
//! Codes are `i16` whenever every code of the matrix fits, which holds
//! for every BFP/BBFP point of the paper (the widest, BBFP(6,3), reaches
//! |code| = 504); a matrix whose codes outgrow `i16` (block minifloat,
//! whose lanes reach `15·2^14`) keeps the same layout with `f32` codes.
//! An `i16` holds `2·code`, plus one for a negative-zero weight, so
//! [`PackedMatrix::decode`] gives every stored weight back bit for bit
//! (an integer has no `-0`); the kernels read `code` and so see a `-0`
//! weight as `+0` (see the invariant below).
//!
//! A matrix keeps its codes in the flat row-major order of its values,
//! and one scale per block of that flat buffer, whatever its shape.
//!
//! A [`PackedRows`] buffer (a KV-cache page) is the same store: element
//! codes plus one folded scale per block, written by the same chunk
//! encoder as each row is appended. One addressing function places
//! element `(row, col)` in one of two orders, recorded with the buffer
//! and never re-derived from the shape: **row-major** (`row·width +
//! col`, growing without bound — V pages, whose weighted sum runs along
//! a row, and every page of the classic dense KV store) or
//! **key-minor** (`col·tokens + row` in a buffer fixed at `tokens` rows,
//! scales `[block][row]` — the K pages of a packed KV store, so 16 keys
//! at one column are one vector load for the attention page kernel,
//! [`attn_scores_packed`]). Both hold the same codes and are charged the
//! same bits.
//!
//! ```text
//!   row-major  V page:  [k0: c0 c1 … c191][k1: c0 c1 … c191] …
//!   key-minor  K page:  [c0: k0 k1 … k15][c1: k0 k1 … k15] …
//!                        `── one 16-lane load: 16 keys at one column
//! ```
//!
//! The kernels exploit the factoring: the row tile of
//! [`PackedMatrix::gemm`] widens each code to f32 in registers and
//! multiplies it by its block's broadcast scale, which rebuilds the
//! stored weight exactly (a power-of-two scale only shifts the
//! exponent), so its inner loop is a plain multiply-accumulate of the
//! activation by the weight. No per-element f32 re-quantisation happens
//! anywhere on the hot path.
//!
//! The register kernels (the GEMM row tile, the attention page kernel
//! and the weighted sum) are one body each, compiled once per vector
//! unit and picked per call by `is_x86_feature_detected!`: AVX-512F
//! with FMA first (16-lane registers, 8 × 32 row tiles), then AVX2 with
//! FMA (8 lanes, 4 × 16), then a portable build that never fuses a
//! multiply and an add. CPU features are the only choice; there is no
//! knob.
//!
//! ## The bit-identity invariant
//!
//! Every kernel here is **bit-identical** to the scalar f32 reference
//! path (`Tensor::matmul` over the decoded weights) by construction:
//!
//! * decoding is exact: `code × scale` is a representable f32 (it *is*
//!   the stored weight), and `pack()` checks that for every element;
//! * the tile multiplies the exact weight: it forms `a·(code·2^s)`, the
//!   reference's own product `a·w`, for every activation — 1e-36,
//!   subnormal, near `f32::MAX`, ±inf and NaN alike — so the weight GEMM
//!   needs no activation range guard;
//! * accumulation order is preserved: the GEMM accumulates each output
//!   element in ascending-`k` order with the same `a == 0.0` skip as the
//!   reference i-k-j loop, and the attention page kernel sums each key's
//!   terms in ascending column order, one accumulator lane per key;
//! * a fused multiply-add rounds once where the reference rounds twice,
//!   so the GEMM uses one only where the product is exact — a `p`-bit
//!   significand times a `q`-bit one has at most `p + q` bits, so
//!   `fl(a·w + acc) = fl(fl(a·w) + acc)` when the row's significand bits
//!   plus the weights' come to at most 24 and every product stays
//!   normal and finite ([`PackedMatrix`]'s per-row exact-product guard;
//!   hook-quantised BFP/BBFP rows pass, arbitrary f32 rows do not); the
//!   attention kernels, whose queries and probabilities are arbitrary,
//!   never fuse;
//! * signed zeros cannot show: every sum starts at `+0`, and adding a
//!   `±0` term to a sum that is not `-0` leaves its bits unchanged. So
//!   reading a `-0` weight as `+0` changes nothing, and neither does the
//!   row tile of [`PackedMatrix::gemm`], which adds a zero activation's
//!   `±0·w` instead of skipping it (every weight it reads is finite). A
//!   `±inf`/NaN activation is not skipped on either side, so `inf·±0` is
//!   the same invalid-operation NaN in the tile and in the reference.
//!
//! Schemes whose scales are *not* powers of two (olive, oltron,
//! omniquant, int) cannot use the block layout; [`PackedMatrix::pack`]
//! stores them as a dense f32 lane instead ([`LayoutKind::Dense`]), and
//! FP16 keeps its raw bits next to an exact f32 lane
//! ([`LayoutKind::Fp16`]). Packing *verifies* itself: the stored codes
//! are decoded and compared bit-for-bit against the input, falling back
//! to the dense layout on any mismatch or on a folded scale outside the
//! normal range.
//!
//! Only the weighted sum folds a scale into its other operand. The score
//! kernels ([`attn_scores_packed`], [`attn_dot_packed`]) multiply the
//! exact key value, like the weight GEMM: their `x` varies per term, so
//! `x·(code·2^s)` costs the same two multiplies as a fold. The fold guard
//! belongs to [`attn_weighted_sum_packed`] alone: it folds the scale into
//! each broadcast probability only for a run where `p·2^s` is exact (`p`
//! zero, or the exact `p·2^s` a normal f32, checked in f64, since an f32
//! product just below the normal range rounds up to `f32::MIN_POSITIVE`)
//! — power-of-two scaling commutes with rounding there, `fl(p·(code·2^s))
//! = fl((p·2^s)·code)`, as both sides round the same real product — and
//! takes the `p·(code·2^s)` order elsewhere. It also adds into the
//! caller's output, which may hold a `-0`, and a call that finds one
//! takes the exact order throughout, since there a `-0` value read as
//! `+0` would flip the sum's sign.

use crate::algebra::{
    algebra_quantize_in_place, algebra_quantize_slice, encode_chunk, exp2i, FormatAlgebra,
    ScaleKind,
};
use crate::fp16::Fp16;
use crate::rounding::RoundingMode;
use crate::scheme::SchemeSpec;
use std::borrow::Cow;

/// Which storage layout a [`PackedMatrix`] ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Plain f32 — schemes without power-of-two block scales, or the
    /// verified fallback.
    Dense,
    /// Raw IEEE binary16 bits plus an exact f32 lane.
    Fp16,
    /// Native block layout: one integer element code per value (`i16`,
    /// or `f32` where a store's codes outgrow it) plus one power-of-two
    /// scale per block.
    Block,
}

/// The element codes of a block-layout store, in its storage order.
#[derive(Debug, Clone)]
enum Codes {
    /// `2·code`, or 1 for a negative-zero value (see [`Code`]).
    I16(Vec<i16>),
    /// The code itself, for stores whose codes do not fit `i16`.
    F32(Vec<f32>),
}

impl Codes {
    /// Appends `new`, widening the whole buffer to `f32` codes at the
    /// first code `i16` cannot hold — so a store holds `i16` codes
    /// exactly when every code fits. Widening keeps the room reserved.
    fn extend(&mut self, new: &[f32]) {
        if let Codes::I16(narrow) = self {
            let start = narrow.len();
            narrow.extend(new.iter().map_while(|&c| i16_code(c)));
            if narrow.len() - start == new.len() {
                return;
            }
            narrow.truncate(start);
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(|c| c.weight(1.0)));
            *self = Codes::F32(wide);
        }
        if let Codes::F32(wide) = self {
            wide.extend_from_slice(new);
        }
    }

    /// Writes `new[i]` at index `at(i)` of a buffer already that long,
    /// widening the whole buffer to `f32` codes if one of `new` does not
    /// fit `i16`.
    fn put(&mut self, new: &[f32], at: impl Fn(usize) -> usize) {
        if let Codes::I16(narrow) = self {
            let mut codes = [0i16; MAX_STORE_BLOCK];
            let fits = new
                .iter()
                .zip(&mut codes)
                .all(|(&c, slot)| i16_code(c).map(|n| *slot = n).is_some());
            if fits {
                for (i, &c) in codes[..new.len()].iter().enumerate() {
                    narrow[at(i)] = c;
                }
                return;
            }
            *self = Codes::F32(narrow.iter().map(|c| c.weight(1.0)).collect());
        }
        if let Codes::F32(wide) = self {
            for (i, &c) in new.iter().enumerate() {
                wide[at(i)] = c;
            }
        }
    }

    /// How many codes fit without growing the buffer.
    fn capacity(&self) -> usize {
        match self {
            Codes::I16(codes) => codes.capacity(),
            Codes::F32(codes) => codes.capacity(),
        }
    }
}

/// The folded scale `2^e` of a chunk whose `codes` the block encoder
/// gave, when they give `values` back bit for bit and the scale is
/// normal.
fn verified_scale(codes: &[f32], e: i32, values: &[f32]) -> Option<f32> {
    let scale = exp2i(e);
    let exact = codes
        .iter()
        .zip(values)
        .all(|(c, v)| c.weight(scale).to_bits() == v.to_bits());
    (scale.is_normal() && exact).then_some(scale)
}

/// An element code type of the block layout: what the kernels multiply,
/// and the stored weight it decodes to.
trait Code: Copy {
    /// The code as the kernels read it; a negative-zero weight reads
    /// `+0`, which no sum can tell apart (module docs).
    fn widen(self) -> f32;

    /// The stored weight, bit for bit: `code·scale`, signed zero
    /// included.
    fn weight(self, scale: f32) -> f32;

    /// The first `L::N` codes of `codes`, widened into one register.
    ///
    /// # Safety
    ///
    /// As [`Lanes`]: the CPU must have `L`'s extension.
    unsafe fn lanes<L: Lanes>(codes: &[Self]) -> L;
}

impl Code for i16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        (self >> 1) as f32
    }

    fn weight(self, scale: f32) -> f32 {
        if self == 1 {
            -0.0
        } else {
            self.widen() * scale
        }
    }

    #[inline(always)]
    unsafe fn lanes<L: Lanes>(codes: &[i16]) -> L {
        L::load_i16(codes)
    }
}

impl Code for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    fn weight(self, scale: f32) -> f32 {
        self * scale
    }

    #[inline(always)]
    unsafe fn lanes<L: Lanes>(codes: &[f32]) -> L {
        L::load(codes)
    }
}

/// The `i16` form of an f32 code: `2·code` (1 for `-0`), or `None` if
/// the code is not an integer of at most `i16::MAX / 2`.
fn i16_code(code: f32) -> Option<i16> {
    if code == 0.0 && code.is_sign_negative() {
        return Some(1);
    }
    let half_range = f32::from(i16::MAX / 2);
    (code.fract() == 0.0 && code.abs() <= half_range).then(|| code as i16 * 2)
}

#[derive(Debug, Clone)]
enum Layout {
    Dense {
        lane: Vec<f32>,
        /// Whether every lane value is finite — the condition under which
        /// the row tile may add a zero activation's `±0` product instead
        /// of skipping it ([`PackedMatrix::tiled_cols`]). Only matrices
        /// read it; a [`PackedRows`] lane leaves it `false` unscanned.
        finite: bool,
    },
    Fp16 {
        bits: Vec<u16>,
        lane: Vec<f32>,
    },
    Block(Blocks),
}

impl Layout {
    fn kind(&self) -> LayoutKind {
        match self {
            Layout::Dense { .. } => LayoutKind::Dense,
            Layout::Fp16 { .. } => LayoutKind::Fp16,
            Layout::Block(_) => LayoutKind::Block,
        }
    }

    /// Bits `n` flat values take in this layout: 32 each dense, 16 each
    /// FP16, and for the block layout what its scheme's bit layout
    /// ([`chunk_bits`]) takes for `group`-element chunks of the flat
    /// buffer, ragged tail included. The one bit count behind
    /// [`PackedMatrix::packed_bits`], [`PackedRows::packed_bits`] and
    /// [`packed_rows_capacity_bytes`].
    fn bits(&self, n: usize) -> usize {
        match self {
            Layout::Dense { .. } => n * 32,
            Layout::Fp16 { .. } => n * 16,
            Layout::Block(blocks) => {
                let (alg, group) = (&blocks.alg, blocks.group());
                let tail = n % group;
                let tail_bits = if tail > 0 { chunk_bits(alg, tail) } else { 0 };
                n / group * chunk_bits(alg, group) + tail_bits
            }
        }
    }

    /// The `rows × cols` values of the store, row-major, bit for bit —
    /// for the block layout, `code·scale` per element. Codes past the
    /// last row (of a row whose encoding stopped part way) are not read.
    fn decode(&self, rows: usize, cols: usize) -> Vec<f32> {
        match self {
            Layout::Dense { lane, .. } => lane[..rows * cols].to_vec(),
            Layout::Fp16 { bits, .. } => bits[..rows * cols]
                .iter()
                .map(|&b| Fp16::from_bits(b).to_f32())
                .collect(),
            Layout::Block(blocks) => match &blocks.codes {
                Codes::I16(codes) => blocks.decode(codes, rows, cols),
                Codes::F32(codes) => blocks.decode(codes, rows, cols),
            },
        }
    }
}

/// The block layout's store, one form for weights ([`PackedMatrix`])
/// and KV pages ([`PackedRows`]): one element code per value and one
/// power-of-two scale per block, nothing else.
#[derive(Debug, Clone)]
struct Blocks {
    /// The block-format point the codes come from.
    alg: FormatAlgebra,
    /// One element code per value, in the store's order (flat
    /// row-major, or key-minor for a [`PackedRows`] K page).
    codes: Codes,
    /// One power-of-two scale (with the code shift folded in) per
    /// `group`-element block of the flat row-major buffer (final block
    /// may be ragged), in the same order as the codes.
    scale: Vec<f32>,
}

impl Blocks {
    /// An empty flat store of `alg`'s codes, `i16` until one does not
    /// fit, with room for `values` codes and their blocks' scales.
    fn with_capacity(alg: FormatAlgebra, values: usize) -> Blocks {
        Blocks {
            alg,
            codes: Codes::I16(Vec::with_capacity(values)),
            scale: Vec::with_capacity(values.div_ceil(alg.block_size)),
        }
    }

    /// The scheme's block size.
    fn group(&self) -> usize {
        self.alg.block_size
    }

    /// [`Layout::decode`] over this store's `codes`.
    fn decode<C: Code>(&self, codes: &[C], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows * cols);
        let (scale, log2) = self.scales();
        for k in 0..rows {
            for run in runs(log2, cols, k, 0, cols) {
                let s = scale[run.scale];
                out.extend(run.codes(codes).iter().map(|c| c.weight(s)));
            }
        }
        out
    }

    /// The chunk encoder over raw values: one pass of the block encoder
    /// over one chunk (a full block or a ragged tail) writes its
    /// dequantised values into `out` and its codes into `codes`, and
    /// gives its folded scale. `None` for a chunk holding a NaN (its
    /// values keep the NaN, which no code holds) or a chunk the store
    /// refuses ([`verified_scale`]); `out` is written either way.
    fn encode_raw(&self, raw: &[f32], out: &mut [f32], codes: &mut [f32]) -> Option<f32> {
        let mut fp16 = [Fp16::ZERO; MAX_STORE_BLOCK];
        let (e, nan) = encode_chunk(raw, &self.alg, &mut fp16[..raw.len()], out, codes);
        if nan {
            return None;
        }
        verified_scale(codes, e, out)
    }

    /// The chunk encoder over **already quantised** values (what `pack`
    /// and `push_row` are given): re-encodes one chunk into `codes` and
    /// gives its folded scale if the codes give the values back. `None`
    /// for a non-finite value or a chunk the store refuses.
    fn encode_quantised(&self, values: &[f32], codes: &mut [f32]) -> Option<f32> {
        if values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = values.len();
        let mut fp16 = [Fp16::ZERO; MAX_STORE_BLOCK];
        let mut requantised = [0.0f32; MAX_STORE_BLOCK];
        let (e, _) = encode_chunk(
            values,
            &self.alg,
            &mut fp16[..n],
            &mut requantised[..n],
            codes,
        );
        verified_scale(codes, e, values)
    }

    /// [`Blocks::encode_raw`], appending the chunk; `false`, appending
    /// nothing, where that gives `None`.
    fn push_raw(&mut self, raw: &[f32], out: &mut [f32]) -> bool {
        let mut codes = [0.0f32; MAX_STORE_BLOCK];
        let codes = &mut codes[..raw.len()];
        self.encode_raw(raw, out, codes)
            .map(|scale| self.push(codes, scale))
            .is_some()
    }

    /// [`Blocks::encode_quantised`], appending the chunk; `false`,
    /// appending nothing, where that gives `None`.
    fn push_quantised(&mut self, values: &[f32]) -> bool {
        let mut codes = [0.0f32; MAX_STORE_BLOCK];
        let codes = &mut codes[..values.len()];
        self.encode_quantised(values, codes)
            .map(|scale| self.push(codes, scale))
            .is_some()
    }

    /// Appends one chunk's codes and folded scale.
    fn push(&mut self, codes: &[f32], scale: f32) {
        self.codes.extend(codes);
        self.scale.push(scale);
    }

    /// The block scales and the log2 block size, as the kernels read
    /// them.
    fn scales(&self) -> (&[f32], u32) {
        (&self.scale, self.group().trailing_zeros())
    }
}

/// A weight matrix stored in its quantisation scheme's packed layout,
/// with GEMM kernels that are bit-identical to the scalar f32 reference
/// path (see the module docs for the invariant and its proof sketch).
///
/// Blocks run along the **flat row-major buffer** — the same geometry
/// the slice quantisers use — so packing the output of
/// `transform_weights` is the identity and every decoder dimension that
/// is a multiple of the block size gets row-aligned blocks for free.
///
/// ```
/// use bbal_core::packed::{LayoutKind, PackedMatrix};
/// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode, SchemeSpec};
///
/// let bbfp = FormatAlgebra::bbfp(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.07).collect();
/// let mut q = vec![0.0; 64];
/// algebra_quantize_slice(&raw, &bbfp, RoundingMode::NearestEven, &mut q);
///
/// let packed = PackedMatrix::pack(&q, 2, 32, SchemeSpec::Bbfp(4, 2));
/// assert_eq!(packed.layout_kind(), LayoutKind::Block);
/// assert_eq!(packed.decode(), q); // exact round trip from the codes
///
/// // x · W, bit-identical to the f32 reference.
/// let x = vec![0.5f32, -1.0];
/// let mut out = vec![0.0; 32];
/// packed.gemm(&x, 1, &mut out);
/// let mut reference = vec![0.0f32; 32];
/// for (k, &a) in x.iter().enumerate() {
///     if a == 0.0 { continue; }
///     for j in 0..32 {
///         reference[j] += a * q[k * 32 + j];
///     }
/// }
/// assert_eq!(out, reference);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    scheme: SchemeSpec,
    layout: Layout,
    /// Bounds on the stored weights, for the fused-accumulate guard
    /// ([`PackedMatrix::fuses_exactly`]).
    weights: ValueRange,
}

impl PackedMatrix {
    /// Packs an **already quantised** `rows × cols` row-major matrix
    /// into `scheme`'s native layout.
    ///
    /// Block schemes ([`SchemeSpec::block_algebra`]) get the block
    /// layout, FP16 the binary16 layout; every other scheme — and any
    /// input the block layout cannot reproduce bit-for-bit (e.g.
    /// values that did not come from this scheme's quantiser) — falls
    /// back to a dense f32 lane, so the GEMM bit-identity invariant
    /// never depends on the encoder.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or a dimension is zero.
    pub fn pack(values: &[f32], rows: usize, cols: usize, scheme: SchemeSpec) -> PackedMatrix {
        PackedMatrix::pack_values(Cow::Borrowed(values), rows, cols, scheme)
    }

    /// [`PackedMatrix::pack`] over an owned buffer: a layout that keeps
    /// the f32 values (the dense lane, the FP16 lane) keeps `values`
    /// itself, so packing a freshly quantised matrix copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or a dimension is zero.
    pub fn pack_owned(
        values: Vec<f32>,
        rows: usize,
        cols: usize,
        scheme: SchemeSpec,
    ) -> PackedMatrix {
        PackedMatrix::pack_values(Cow::Owned(values), rows, cols, scheme)
    }

    fn pack_values(
        values: Cow<'_, [f32]>,
        rows: usize,
        cols: usize,
        scheme: SchemeSpec,
    ) -> PackedMatrix {
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        assert_eq!(values.len(), rows * cols, "data length mismatch");
        let layout = match scheme {
            SchemeSpec::Fp16 => match fp16_bits(&values) {
                Some(bits) => {
                    let weights = ValueRange::of(values.iter().copied());
                    let layout = Layout::Fp16 {
                        bits,
                        lane: values.into_owned(),
                    };
                    return PackedMatrix {
                        rows,
                        cols,
                        scheme,
                        layout,
                        weights,
                    };
                }
                None => None,
            },
            _ => store_algebra(scheme).and_then(|alg| {
                let mut blocks = Blocks::with_capacity(alg, values.len());
                let stored = values
                    .chunks(alg.block_size)
                    .all(|chunk| blocks.push_quantised(chunk));
                stored.then_some(Layout::Block(blocks))
            }),
        };
        PackedMatrix::verified(rows, cols, scheme, layout, values)
    }

    /// Quantises a **raw** `rows × cols` row-major matrix through
    /// `scheme`'s block quantiser and packs it in the same pass: each
    /// chunk goes through the block encoder once, which yields both the
    /// quantised values and the codes the matrix stores, so no dense
    /// quantised copy is made. The result equals
    /// `pack(algebra_quantize_slice(raw))` — layout, decoded bits and
    /// packed bits — and is self-verified the same way: the layout must
    /// decode to the encoder's own values, or the matrix keeps those
    /// values as a dense lane. `None` when `scheme` has no block layout.
    ///
    /// ```
    /// use bbal_core::packed::PackedMatrix;
    /// use bbal_core::{algebra_quantize_slice, RoundingMode, SchemeSpec};
    ///
    /// let scheme = SchemeSpec::Bbfp(4, 2);
    /// let raw: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.07).collect();
    /// let once = PackedMatrix::encode(&raw, 2, 32, scheme).expect("a block scheme");
    ///
    /// let alg = scheme.block_algebra().expect("a block scheme");
    /// let mut q = vec![0.0; 64];
    /// algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
    /// let twice = PackedMatrix::pack(&q, 2, 32, scheme);
    /// assert_eq!(once.layout_kind(), twice.layout_kind());
    /// assert_eq!(once.decode(), q);
    /// assert!(PackedMatrix::encode(&raw, 2, 32, SchemeSpec::Oltron).is_none());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows * cols` or a dimension is zero.
    pub fn encode(
        raw: &[f32],
        rows: usize,
        cols: usize,
        scheme: SchemeSpec,
    ) -> Option<PackedMatrix> {
        let alg = store_algebra(scheme)?;
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        assert_eq!(raw.len(), rows * cols, "data length mismatch");
        let group = alg.block_size;
        let mut values = vec![0.0; raw.len()];
        let mut blocks = Blocks::with_capacity(alg, raw.len());
        let mut stored = true;
        for (chunk, out) in raw.chunks(group).zip(values.chunks_mut(group)) {
            if stored {
                stored = blocks.push_raw(chunk, out);
            } else {
                algebra_quantize_slice(chunk, &alg, RoundingMode::NearestEven, out);
            }
        }
        let layout = stored.then_some(Layout::Block(blocks));
        Some(PackedMatrix::verified(
            rows,
            cols,
            scheme,
            layout,
            Cow::Owned(values),
        ))
    }

    /// The matrix over `layout`, self-verified: a block layout must
    /// decode to `values` bit for bit, and a matrix with no layout or a
    /// failing one keeps `values` as a dense lane. Either way it holds
    /// `values`, whose bounds it records once.
    fn verified(
        rows: usize,
        cols: usize,
        scheme: SchemeSpec,
        layout: Option<Layout>,
        values: Cow<'_, [f32]>,
    ) -> PackedMatrix {
        let same = |layout: &Layout| {
            let decoded = layout.decode(rows, cols);
            decoded
                .iter()
                .zip(values.iter())
                .all(|(d, v)| d.to_bits() == v.to_bits())
        };
        let weights = ValueRange::of(values.iter().copied());
        let layout = match layout {
            Some(layout) if !matches!(layout, Layout::Block(_)) || same(&layout) => layout,
            _ => Layout::Dense {
                finite: weights.finite,
                lane: values.into_owned(),
            },
        };
        PackedMatrix {
            rows,
            cols,
            scheme,
            layout,
            weights,
        }
    }

    /// Number of rows (the GEMM contraction length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the GEMM output width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scheme this matrix was packed for.
    pub fn scheme(&self) -> SchemeSpec {
        self.scheme
    }

    /// Which layout the matrix ended up in.
    pub fn layout_kind(&self) -> LayoutKind {
        self.layout.kind()
    }

    /// Exact storage size of the packed representation in bits
    /// (`rows·cols·32` for the dense fallback — the honesty metric the
    /// memory-density tests pin). The block layout is charged what its
    /// scheme's bit layout takes for the flat buffer's chunks, ragged
    /// tail included (see the module docs).
    pub fn packed_bits(&self) -> usize {
        self.layout.bits(self.rows * self.cols)
    }

    /// Decodes the storage back to the full f32 matrix, bit for bit —
    /// for the block layout, `code·scale` per element.
    pub fn decode(&self) -> Vec<f32> {
        self.layout.decode(self.rows, self.cols)
    }

    /// `x · W` for row-major `x` of shape `x_rows × self.rows`, writing
    /// the full `x_rows × self.cols` product over `out`. Bit-identical
    /// to the reference i-k-j f32 loop (ascending-`k` accumulation per
    /// output element, `a == 0.0` rows skipped) for every input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.rows` or
    /// `out.len() != x_rows * self.cols`.
    pub fn gemm(&self, x: &[f32], x_rows: usize, out: &mut [f32]) {
        assert_eq!(x.len(), x_rows * self.rows, "x shape mismatch");
        assert_eq!(out.len(), x_rows * self.cols, "out shape mismatch");
        match &self.layout {
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                self.gemm_codes(lane, None, x, x_rows, out)
            }
            Layout::Block(blocks) => {
                let scale = Some(blocks.scales());
                match &blocks.codes {
                    Codes::I16(codes) => self.gemm_codes(codes, scale, x, x_rows, out),
                    Codes::F32(codes) => self.gemm_codes(codes, scale, x, x_rows, out),
                }
            }
        }
    }

    /// [`PackedMatrix::gemm`] over `codes` (a lane's values, or block
    /// codes with their scales): [`GEMM_ROWS`] activation rows at a time,
    /// sorted on the stack into the rows the exact-product guard passes
    /// and the rest, run through the row tile and the walk
    /// ([`RowTile::run_on`]).
    fn gemm_codes<C: Code>(
        &self,
        codes: &[C],
        scale: Option<(&[f32], u32)>,
        x: &[f32],
        x_rows: usize,
        out: &mut [f32],
    ) {
        let (simd, k_len) = (Simd::detect(), self.rows);
        for i0 in (0..x_rows).step_by(GEMM_ROWS) {
            let count = GEMM_ROWS.min(x_rows - i0);
            // Fused rows fill `order` from the front, split rows from
            // the back.
            let mut order = [0usize; GEMM_ROWS];
            let (mut fused, mut split) = (0, count);
            for i in i0..i0 + count {
                let row = ValueRange::of(x[i * k_len..(i + 1) * k_len].iter().copied());
                if self.fuses_exactly(&row) {
                    order[fused] = i;
                    fused += 1;
                } else {
                    split -= 1;
                    order[split] = i;
                }
            }
            let (fused, split) = order[..count].split_at(fused);
            self.row_tile(codes, scale, x, [fused, split])
                .run_on(simd, out);
        }
    }

    /// The row tile of `rows` (rows the exact-product guard passes, then
    /// the rest) of `x` over this matrix's `codes` and block `scale`s.
    fn row_tile<'a, C>(
        &self,
        codes: &'a [C],
        scale: Option<(&'a [f32], u32)>,
        x: &'a [f32],
        rows: [&'a [usize]; 2],
    ) -> RowTile<'a, C> {
        RowTile {
            x,
            k_len: self.rows,
            n: self.cols,
            rows,
            codes,
            scale,
            tiled_cols: self.tiled_cols(),
        }
    }

    /// How many output columns, from the first, the row tile covers in
    /// whole [`TILE_COLS`]-wide tiles; the walk takes the rest. All of a
    /// block layout whose blocks start rows and are whole tiles wide, so
    /// every register lies inside one block of its weight row; the whole
    /// tiles of a dense or FP16 lane, but only when every weight is
    /// finite (the tile adds a zero activation's `±0` product rather than
    /// skipping it, which is exact only against a finite weight); none of
    /// any other layout.
    fn tiled_cols(&self) -> usize {
        match &self.layout {
            Layout::Dense { finite: true, .. } | Layout::Fp16 { .. } => {
                self.cols / TILE_COLS * TILE_COLS
            }
            Layout::Block(blocks)
                if self.cols.is_multiple_of(blocks.group())
                    && blocks.group().is_multiple_of(TILE_COLS) =>
            {
                self.cols
            }
            Layout::Dense { finite: false, .. } | Layout::Block(_) => 0,
        }
    }

    /// The exact-product guard of the fused accumulate: true when every
    /// product `a·w` the row tile forms for the row `x` ranges over is
    /// exact, so one fused multiply-add `fl(a·w + acc)` equals the
    /// separate `fl(fl(a·w) + acc)`. A product of a `p`-bit and a `q`-bit
    /// significand has at most `p + q` bits, so it is exact when
    /// `p + q ≤ 24` and its magnitude lies in the normal range: the row's
    /// significand bits plus the stored weights' ([`ValueRange`]) must
    /// fit, and the row's smallest and largest magnitudes times the
    /// smallest and largest nonzero weight must stay normal and finite
    /// (checked in f64, where those products are exact). Hook-quantised
    /// BFP/BBFP rows pass; arbitrary f32 rows (24 significand bits) and
    /// rows holding ±inf or NaN do not.
    fn fuses_exactly(&self, x: &ValueRange) -> bool {
        let w = self.weights;
        let wide = |a: f32, b: f32| f64::from(a) * f64::from(b);
        x.finite
            && x.bits + w.bits <= f32::MANTISSA_DIGITS
            && (x.max == 0.0
                || (wide(x.min, w.min) >= f64::from(f32::MIN_POSITIVE)
                    && wide(x.max, w.max) <= f64::from(f32::MAX)))
    }
}

/// Whether `a·s`, for a power-of-two block scale `s`, is an exact,
/// normal f32, so folding `s` into `a` rounds nothing. Checked on the
/// exact product in f64: an f32 product just below the normal range can
/// round up to `f32::MIN_POSITIVE` and pass as normal.
fn folds_normal(a: f32, s: f32) -> bool {
    let p = (f64::from(a) * f64::from(s)).abs();
    p >= f64::from(f32::MIN_POSITIVE) && p <= f64::from(f32::MAX)
}

/// What the exact-product guard reads off a run of values in one pass:
/// an activation row, or a matrix's stored weights.
#[derive(Debug, Clone, Copy)]
struct ValueRange {
    /// The smallest nonzero magnitude (`inf` when every value is zero).
    min: f32,
    /// The largest magnitude (NaN when a value is NaN).
    max: f32,
    /// Whether every value is finite.
    finite: bool,
    /// A bound on the significand bits of every value
    /// ([`significand_bits`]).
    bits: u32,
}

impl ValueRange {
    fn of(values: impl IntoIterator<Item = f32>) -> ValueRange {
        // Magnitude bit patterns order like the magnitudes (NaNs above
        // +inf), so the scan runs on integers, which vectorise.
        let (mut min, mut max, mut pattern) = (u32::MAX, 0u32, 0u32);
        for v in values {
            let bits = v.to_bits();
            let m = bits & !(1 << 31);
            max = max.max(m);
            min = min.min(if m == 0 { u32::MAX } else { m });
            pattern |= bits;
        }
        ValueRange {
            min: if min == u32::MAX {
                f32::INFINITY
            } else {
                f32::from_bits(min)
            },
            max: f32::from_bits(max),
            finite: max < f32::INFINITY.to_bits(),
            bits: significand_bits(pattern),
        }
    }
}

/// A bound on the significand bits of every finite f32 whose bit
/// patterns OR to `pattern`: from the implicit bit down to the lowest
/// mantissa bit any of them sets (a subnormal has fewer, a zero none).
fn significand_bits(pattern: u32) -> u32 {
    let mantissa = (1u32 << (f32::MANTISSA_DIGITS - 1)) - 1;
    f32::MANTISSA_DIGITS - ((pattern & mantissa) | (mantissa + 1)).trailing_zeros()
}

/// Columns `[j0, j1)` of one row of a block store: they share the
/// scale at index `scale` and their codes start at index `code`.
struct Run {
    j0: usize,
    j1: usize,
    code: usize,
    scale: usize,
}

impl Run {
    fn codes<'c, C>(&self, codes: &'c [C]) -> &'c [C] {
        &codes[self.code..self.code + (self.j1 - self.j0)]
    }
}

/// Row `k`'s columns `[c0, c1)` of a flat block store `cols` wide with
/// blocks of `2^log2` values, as runs that share one block scale and lie
/// contiguous in the code buffer. Block sizes are powers of two
/// ([`FormatAlgebra::validate`]), so block indices are shifts and masks,
/// not divisions.
fn runs(log2: u32, cols: usize, k: usize, c0: usize, c1: usize) -> impl Iterator<Item = Run> {
    let group = 1 << log2;
    let mut j = c0;
    std::iter::from_fn(move || {
        if j >= c1 {
            return None;
        }
        let (j0, flat) = (j, k * cols + j);
        j = c1.min(j0 + group - (flat & (group - 1)));
        Some(Run {
            j0,
            j1: j,
            code: flat,
            scale: flat >> log2,
        })
    })
}

/// The raw binary16 bits of FP16-packed values, which stay the layout's
/// exact f32 lane; `None` if any value is not an exact binary16 (then
/// the dense fallback keeps bit-identity).
fn fp16_bits(values: &[f32]) -> Option<Vec<u16>> {
    let mut bits = Vec::with_capacity(values.len());
    for &v in values {
        let h = Fp16::from_f32_saturating(v);
        if h.to_f32().to_bits() != v.to_bits() {
            return None;
        }
        bits.push(h.to_bits());
    }
    Some(bits)
}

/// Largest block the block store encodes. Every scheme's block fits
/// (MSFP tops out at 128), so a chunk is encoded in stack scratch with no
/// allocation; a point with wider blocks would take the dense layout.
const MAX_STORE_BLOCK: usize = 128;

/// The point whose blocks a `scheme` store holds, if it has a block
/// layout.
fn store_algebra(scheme: SchemeSpec) -> Option<FormatAlgebra> {
    scheme
        .block_algebra()
        .filter(|alg| alg.block_size <= MAX_STORE_BLOCK)
}

/// Sequential dot product (the dense QKᵀ reference order).
fn dot_plain(x_row: &[f32], w_row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in x_row.iter().zip(w_row) {
        acc += x * y;
    }
    acc
}

/// Sequential dot of `x` with the codes of `runs`, which walk one code
/// row from the column `x[0]` meets: each term multiplies `x` by the
/// stored value rebuilt as `code·2^s`, which is exact, so every term is
/// the reference `fl(xⱼ·wⱼ)` for every `x` and the sum is the reference
/// `Σ` in order. (Folding the scale into `x` instead would cost the same
/// two multiplies per term — `x` is not shared across terms — and is
/// inexact where `x·2^s` leaves the normal range.)
fn runs_dot<C: Code>(
    x: &[f32],
    codes: &[C],
    scale: &[f32],
    runs: impl Iterator<Item = Run>,
) -> f32 {
    // Terms land in a stack buffer run by run (independent, so they
    // vectorise) and the buffer is summed in order when full and at the
    // end, which keeps the per-run bookkeeping off the add chain.
    const TERMS: usize = 64;
    let mut acc = 0.0f32;
    let mut terms = [0.0f32; TERMS];
    let mut filled = 0;
    let mut rest = x;
    for run in runs {
        let (mut xs, tail) = rest.split_at(run.j1 - run.j0);
        rest = tail;
        let s = scale[run.scale];
        let mut cs = run.codes(codes);
        while !xs.is_empty() {
            let n = xs.len().min(TERMS - filled);
            for ((t, &xv), &cv) in terms[filled..filled + n]
                .iter_mut()
                .zip(&xs[..n])
                .zip(&cs[..n])
            {
                *t = xv * (cv.widen() * s);
            }
            filled += n;
            xs = &xs[n..];
            cs = &cs[n..];
            if filled == TERMS {
                for t in terms {
                    acc += t;
                }
                filled = 0;
            }
        }
    }
    for &t in &terms[..filled] {
        acc += t;
    }
    acc
}

/// Columns of one row-tile strip: one AVX-512 register, or two AVX2
/// registers, of f32. The AVX-512 build of the row tile reads two
/// adjacent strips per tile.
const TILE_COLS: usize = 16;

/// Activation rows [`PackedMatrix::gemm`] sorts on the stack per pass of
/// the row tile: a decode step's rows in one pass, with no allocation.
const GEMM_ROWS: usize = 64;

/// The vector unit a kernel is compiled for ([`dispatch`]), widest
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Simd {
    /// AVX-512F with FMA: 16-lane registers, two-strip row tiles.
    Avx512,
    /// AVX2 with FMA: 8-lane registers, one-strip row tiles.
    Avx2,
    /// The baseline build: no fused multiply-add at all (without
    /// hardware FMA, `f32::mul_add` is a library call).
    Portable,
}

impl Simd {
    /// The widest build this CPU runs.
    fn detect() -> Simd {
        [Simd::Avx512, Simd::Avx2]
            .into_iter()
            .find(|simd| simd.supported())
            .unwrap_or(Simd::Portable)
    }

    /// Whether this CPU has the features of this build.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let fma = std::is_x86_feature_detected!("fma");
            match self {
                Simd::Avx512 => fma && std::is_x86_feature_detected!("avx512f"),
                Simd::Avx2 => fma && std::is_x86_feature_detected!("avx2"),
                Simd::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Simd::Portable
        }
    }
}

/// How a kernel adds one product `a·w` into an accumulator.
trait Accumulate {
    /// Whether the product and the sum round once, as one fused
    /// multiply-add.
    const FUSED: bool;

    fn step(acc: f32, a: f32, w: f32) -> f32;
}

/// A separate multiply and add, `fl(fl(a·w) + acc)`: the scalar
/// reference order.
enum MulAdd {}

impl Accumulate for MulAdd {
    const FUSED: bool = false;

    #[inline(always)]
    fn step(acc: f32, a: f32, w: f32) -> f32 {
        acc + a * w
    }
}

/// One fused multiply-add, `fl(a·w + acc)`: equal to [`MulAdd`] whenever
/// `a·w` is exact ([`PackedMatrix::fuses_exactly`]). Only the FMA builds
/// of [`dispatch`] instantiate it.
enum Fma {}

impl Accumulate for Fma {
    const FUSED: bool = true;

    #[inline(always)]
    fn step(acc: f32, a: f32, w: f32) -> f32 {
        a.mul_add(w, acc)
    }
}

/// One register of f32 lanes, the unit the row tile computes in: an
/// AVX-512 or AVX2 register in those builds, a plain array in the
/// portable one.
///
/// # Safety
///
/// Every method may run the instructions of the register's extension:
/// call them only on a CPU that has it, which [`dispatch_on`] checks
/// before it runs a [`Kernel`] in a build.
trait Lanes: Copy {
    /// Lanes per register.
    const N: usize;

    /// Activation rows per row tile: each code register is loaded once
    /// per this many rows, whose two-register accumulators stay in
    /// registers (16 of AVX-512's 32, 8 of AVX2's 16).
    const ROWS: usize;

    unsafe fn zero() -> Self;

    unsafe fn splat(v: f32) -> Self;

    /// The first `N` values of `src`.
    unsafe fn load(src: &[f32]) -> Self;

    /// The first `N` `i16` codes of `src`, widened as [`Code::widen`].
    unsafe fn load_i16(src: &[i16]) -> Self;

    /// `self·other`, lane by lane.
    unsafe fn mul(self, other: Self) -> Self;

    /// `self + a·w`, accumulated as `S` does.
    unsafe fn step<S: Accumulate>(self, a: Self, w: Self) -> Self;

    /// Writes the lanes over the first `N` values of `out`.
    unsafe fn store(self, out: &mut [f32]);
}

/// The portable build's register: eight lanes the compiler vectorises
/// for the baseline target.
impl Lanes for [f32; 8] {
    const N: usize = 8;
    const ROWS: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; 8]
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; 8]
    }

    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        src[..8].try_into().expect("eight lanes")
    }

    #[inline(always)]
    unsafe fn load_i16(src: &[i16]) -> Self {
        let codes: &[i16; 8] = src[..8].try_into().expect("eight lanes");
        codes.map(Code::widen)
    }

    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        std::array::from_fn(|l| self[l] * other[l])
    }

    #[inline(always)]
    unsafe fn step<S: Accumulate>(self, a: Self, w: Self) -> Self {
        std::array::from_fn(|l| S::step(self[l], a[l], w[l]))
    }

    #[inline(always)]
    unsafe fn store(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self);
    }
}

/// The vector registers of the AVX-512 and AVX2 builds, which only
/// [`run_avx512`] and [`run_avx2`] instantiate.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Accumulate, Lanes};
    use std::arch::x86_64::*;

    impl Lanes for __m512 {
        const N: usize = 16;
        const ROWS: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY (every method here): the caller guarantees
            // AVX-512F ([`Lanes`]); each access stays inside its slice,
            // whose length is checked first.
            unsafe { _mm512_setzero_ps() }
        }

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            unsafe { _mm512_set1_ps(v) }
        }

        #[inline(always)]
        unsafe fn load(src: &[f32]) -> Self {
            let src = &src[..16];
            unsafe { _mm512_loadu_ps(src.as_ptr()) }
        }

        #[inline(always)]
        unsafe fn load_i16(src: &[i16]) -> Self {
            let src = &src[..16];
            unsafe {
                let codes = _mm256_loadu_si256(src.as_ptr().cast());
                _mm512_cvtepi32_ps(_mm512_srai_epi32::<1>(_mm512_cvtepi16_epi32(codes)))
            }
        }

        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            unsafe { _mm512_mul_ps(self, other) }
        }

        #[inline(always)]
        unsafe fn step<S: Accumulate>(self, a: Self, w: Self) -> Self {
            unsafe {
                if S::FUSED {
                    _mm512_fmadd_ps(a, w, self)
                } else {
                    _mm512_add_ps(self, _mm512_mul_ps(a, w))
                }
            }
        }

        #[inline(always)]
        unsafe fn store(self, out: &mut [f32]) {
            let out = &mut out[..16];
            unsafe { _mm512_storeu_ps(out.as_mut_ptr(), self) }
        }
    }

    impl Lanes for __m256 {
        const N: usize = 8;
        const ROWS: usize = 4;

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY (every method here): the caller guarantees AVX2
            // and FMA ([`Lanes`]); each access stays inside its slice,
            // whose length is checked first.
            unsafe { _mm256_setzero_ps() }
        }

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            unsafe { _mm256_set1_ps(v) }
        }

        #[inline(always)]
        unsafe fn load(src: &[f32]) -> Self {
            let src = &src[..8];
            unsafe { _mm256_loadu_ps(src.as_ptr()) }
        }

        #[inline(always)]
        unsafe fn load_i16(src: &[i16]) -> Self {
            let src = &src[..8];
            unsafe {
                let codes = _mm_loadu_si128(src.as_ptr().cast());
                _mm256_cvtepi32_ps(_mm256_srai_epi32::<1>(_mm256_cvtepi16_epi32(codes)))
            }
        }

        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            unsafe { _mm256_mul_ps(self, other) }
        }

        #[inline(always)]
        unsafe fn step<S: Accumulate>(self, a: Self, w: Self) -> Self {
            unsafe {
                if S::FUSED {
                    _mm256_fmadd_ps(a, w, self)
                } else {
                    _mm256_add_ps(self, _mm256_mul_ps(a, w))
                }
            }
        }

        #[inline(always)]
        unsafe fn store(self, out: &mut [f32]) {
            let out = &mut out[..8];
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self) }
        }
    }
}

/// A kernel body that [`dispatch`] compiles once per [`Simd`] build.
trait Kernel {
    /// The body: it computes in `L` registers and accumulates a product
    /// proven exact with `F`.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s extension ([`Lanes`]).
    unsafe fn run<L: Lanes, F: Accumulate>(self);
}

/// Runs `kernel` in the widest build this CPU has.
fn dispatch(kernel: impl Kernel) {
    dispatch_on(Simd::detect(), kernel);
}

/// Runs `kernel` in the `simd` build, which this CPU must support.
fn dispatch_on<K: Kernel>(simd: Simd, kernel: K) {
    assert!(simd.supported(), "{simd:?} build on a CPU without it");
    match simd {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU supports the build, asserted above.
        Simd::Avx512 => unsafe { run_avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Simd::Avx2 => unsafe { run_avx2(kernel) },
        // SAFETY: the portable lanes run baseline instructions only.
        _ => unsafe { kernel.run::<[f32; 8], MulAdd>() },
    }
}

/// `kernel` compiled for AVX-512F and FMA.
///
/// # Safety
///
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn run_avx512<K: Kernel>(kernel: K) {
    // SAFETY: the caller guarantees AVX-512F and FMA.
    unsafe { kernel.run::<std::arch::x86_64::__m512, Fma>() };
}

/// `kernel` compiled for AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K) {
    // SAFETY: the caller guarantees AVX2 and FMA.
    unsafe { kernel.run::<std::arch::x86_64::__m256, Fma>() };
}

/// The operands of [`PackedMatrix::gemm`]'s row tile and walk:
/// activation rows `rows` of `x` (the first list passing the
/// exact-product guard) against the `k_len × n` row-major `codes` (and,
/// for the block layout, their block scales and log2 block size),
/// written into the `n`-wide `out`. The tile computes output columns
/// `0..tiled_cols`, the walk the rest.
struct RowTile<'a, C> {
    x: &'a [f32],
    k_len: usize,
    n: usize,
    rows: [&'a [usize]; 2],
    codes: &'a [C],
    scale: Option<(&'a [f32], u32)>,
    tiled_cols: usize,
}

/// [`RowTile::columns`] as a [`Kernel`].
struct TileKernel<'t, 'a, C> {
    tile: &'t RowTile<'a, C>,
    out: &'t mut [f32],
}

impl<C: Code> Kernel for TileKernel<'_, '_, C> {
    #[inline(always)]
    unsafe fn run<L: Lanes, F: Accumulate>(self) {
        // SAFETY: the caller guarantees `L`'s extension.
        unsafe { self.tile.columns::<L, F>(self.out) };
    }
}

impl<C: Code> RowTile<'_, C> {
    /// Computes every row: the tiled columns in the `simd` build, which
    /// this CPU must support, then the rest by the walk.
    fn run_on(&self, simd: Simd, out: &mut [f32]) {
        if self.tiled_cols > 0 {
            dispatch_on(simd, TileKernel { tile: self, out });
        }
        if self.tiled_cols < self.n {
            for &i in self.rows.iter().copied().flatten() {
                self.walk(i, out);
            }
        }
    }

    /// Row `i`'s output columns past the tile, in the scalar reference
    /// order: ascending `k`, a zero activation skipped, each term
    /// `a·(code·2^s)` — the exact weight — or `a·w` on a lane.
    fn walk(&self, i: usize, out: &mut [f32]) {
        let (k_len, n, j0) = (self.k_len, self.n, self.tiled_cols);
        let out_part = &mut out[i * n + j0..(i + 1) * n];
        out_part.fill(0.0);
        for (k, &a) in self.x[i * k_len..(i + 1) * k_len].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            match self.scale {
                None => {
                    let row = &self.codes[k * n + j0..(k + 1) * n];
                    for (o, c) in out_part.iter_mut().zip(row) {
                        *o += a * c.widen();
                    }
                }
                Some((scale, log2)) => {
                    for run in runs(log2, n, k, j0, n) {
                        let s = scale[run.scale];
                        let o = out_part[run.j0 - j0..run.j1 - j0].iter_mut();
                        for (o, c) in o.zip(run.codes(self.codes)) {
                            *o += a * (c.widen() * s);
                        }
                    }
                }
            }
        }
    }

    /// Column tile by column tile, two registers wide while whole ones
    /// fit (32 columns in the AVX-512 build, 16 elsewhere) and one
    /// after, so a tile's codes stay in cache across every row group:
    /// the fused rows accumulate with `F`, the rest with [`MulAdd`].
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s extension, as for every method below.
    #[inline(always)]
    unsafe fn columns<L: Lanes, F: Accumulate>(&self, out: &mut [f32]) {
        let mut j = 0;
        while j < self.tiled_cols {
            if j + 2 * L::N <= self.tiled_cols {
                self.row_groups::<L, F, 2>(j, out);
                j += 2 * L::N;
            } else {
                self.row_groups::<L, F, 1>(j, out);
                j += L::N;
            }
        }
    }

    #[inline(always)]
    unsafe fn row_groups<L: Lanes, F: Accumulate, const V: usize>(
        &self,
        j: usize,
        out: &mut [f32],
    ) {
        let [fused, split] = self.rows;
        for rows in fused.chunks(L::ROWS) {
            self.rows_tile::<L, F, V>(rows, j, out);
        }
        for rows in split.chunks(L::ROWS) {
            self.rows_tile::<L, MulAdd, V>(rows, j, out);
        }
    }

    #[inline(always)]
    unsafe fn rows_tile<L: Lanes, S: Accumulate, const V: usize>(
        &self,
        rows: &[usize],
        j: usize,
        out: &mut [f32],
    ) {
        fn first<const R: usize>(rows: &[usize]) -> [usize; R] {
            std::array::from_fn(|r| rows[r])
        }
        match rows.len() {
            8 => self.tile::<L, S, 8, V>(first(rows), j, out),
            7 => self.tile::<L, S, 7, V>(first(rows), j, out),
            6 => self.tile::<L, S, 6, V>(first(rows), j, out),
            5 => self.tile::<L, S, 5, V>(first(rows), j, out),
            4 => self.tile::<L, S, 4, V>(first(rows), j, out),
            3 => self.tile::<L, S, 3, V>(first(rows), j, out),
            2 => self.tile::<L, S, 2, V>(first(rows), j, out),
            1 => self.tile::<L, S, 1, V>(first(rows), j, out),
            _ => unreachable!("chunks of at most Lanes::ROWS rows"),
        }
    }

    /// One tile of `R` rows by `V` registers at output column `j`, its
    /// accumulators in registers. At each weight row `k` every register
    /// rebuilds its weights `code·2^s` (one widen, one multiply by the
    /// broadcast block scale; a lane's values as they are), and each
    /// output element accumulates `a·w` in ascending `k` with `S`. A zero
    /// activation is not skipped: it adds `±0`, which leaves the sum
    /// unchanged because the sum never holds `-0` and every weight here
    /// is finite ([`PackedMatrix::tiled_cols`]).
    #[inline(always)]
    unsafe fn tile<L: Lanes, S: Accumulate, const R: usize, const V: usize>(
        &self,
        rows: [usize; R],
        j: usize,
        out: &mut [f32],
    ) {
        let (x, k_len, n) = (self.x, self.k_len, self.n);
        let xs: [&[f32]; R] = rows.map(|i| &x[i * k_len..(i + 1) * k_len]);
        let mut acc = [[L::zero(); V]; R];
        for k in 0..k_len {
            let w: [L; V] = std::array::from_fn(|v| {
                let at = k * n + j + v * L::N;
                let codes = C::lanes::<L>(&self.codes[at..]);
                match self.scale {
                    Some((scale, log2)) => codes.mul(L::splat(scale[at >> log2])),
                    None => codes,
                }
            });
            for (acc_row, x) in acc.iter_mut().zip(&xs) {
                let a = L::splat(x[k]);
                for (acc, &w) in acc_row.iter_mut().zip(&w) {
                    *acc = acc.step::<S>(a, w);
                }
            }
        }
        for (&i, acc_row) in rows.iter().zip(&acc) {
            for (v, lanes) in acc_row.iter().enumerate() {
                lanes.store(&mut out[i * n + j + v * L::N..]);
            }
        }
    }
}

/// A row-append packed buffer: the storage format of KV-cache pages and
/// other append-only row stores.
///
/// Where [`PackedMatrix`] packs a complete matrix once (weights, known
/// at prepare time), `PackedRows` grows one row at a time — the shape
/// of a KV cache, which appends one key/value row per token per layer.
/// Both hold the same block store: one integer element code per value
/// (`i16`, widened once to `f32` at the first code that does not fit)
/// and one power-of-two scale per block, here row-major
/// ([`PackedRows::new`]) or key-minor ([`PackedRows::key_minor`]).
/// Rows go through the same chunk encoder on append
/// ([`PackedRows::push_row`]); any row it cannot reproduce bit-for-bit
/// demotes the *whole buffer* to a dense f32 lane (rebuilt exactly as
/// `code·scale` from the already-verified rows), so reads are always
/// bit-identical to the rows that were pushed, for every scheme and
/// every input.
///
/// The attention kernels ([`attn_scores_packed`], [`attn_dot_packed`],
/// [`attn_weighted_sum_packed`]) read head-column slices of the rows
/// straight off the codes + block scales, reusing the power-of-two
/// commuting argument of the module docs — so QK^T and AV over a packed
/// buffer are bit-identical to the dense f32 loops they replace.
///
/// ```
/// use bbal_core::packed::{LayoutKind, PackedRows};
/// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode, SchemeSpec};
///
/// let bbfp = FormatAlgebra::bbfp(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1).collect();
/// let mut q = vec![0.0; 64];
/// algebra_quantize_slice(&raw, &bbfp, RoundingMode::NearestEven, &mut q);
///
/// let mut rows = PackedRows::new(SchemeSpec::Bbfp(4, 2), 32);
/// rows.push_row(&q[..32]);
/// rows.push_row(&q[32..]);
/// assert_eq!(rows.layout_kind(), LayoutKind::Block);
/// assert_eq!(rows.to_dense(), q); // exact round trip
/// assert!(rows.packed_bytes() * 2 <= 64 * 4); // ≤ 0.5× the f32 bytes
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedRows {
    width: usize,
    rows: usize,
    order: Order,
    layout: Layout,
}

/// Where a [`PackedRows`] buffer keeps element `(row, col)` — its codes
/// and lane values, and, one level up, its block scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Row after row, growing without bound: `row·width + col`.
    RowMajor,
    /// Key-minor, at most `tokens` rows: `col·tokens + row`, so one
    /// column's values lie contiguous over the rows.
    KeyMinor { tokens: usize },
}

impl Order {
    /// The index of element `(row, col)` of a buffer `width` columns
    /// wide: the one addressing function of a [`PackedRows`] buffer,
    /// for its values (`width` columns) and its block scales (`width /
    /// group` columns) alike.
    #[inline(always)]
    fn at(self, row: usize, col: usize, width: usize) -> usize {
        match self {
            Order::RowMajor => row * width + col,
            Order::KeyMinor { tokens } => col * tokens + row,
        }
    }

    /// The same order for a buffer of `rows` rows.
    fn with_rows(self, rows: usize) -> Order {
        match self {
            Order::RowMajor => Order::RowMajor,
            Order::KeyMinor { .. } => Order::KeyMinor { tokens: rows },
        }
    }

    /// The first `rows` rows of the `cols`-wide buffer `src`, held in
    /// this order, laid out in `to` order in one allocation with room
    /// for `room` rows.
    fn relay<T: Copy + Default>(
        self,
        src: &[T],
        rows: usize,
        cols: usize,
        to: Order,
        room: usize,
    ) -> Vec<T> {
        let value = |r: usize, c: usize| src[self.at(r, c, cols)];
        match to {
            Order::RowMajor => {
                let mut out = Vec::with_capacity(room * cols);
                out.extend((0..rows).flat_map(|r| (0..cols).map(move |c| value(r, c))));
                out
            }
            Order::KeyMinor { .. } => {
                let mut out = vec![T::default(); room * cols];
                for r in 0..rows {
                    for c in 0..cols {
                        out[to.at(r, c, cols)] = value(r, c);
                    }
                }
                out
            }
        }
    }

    /// Stores one chunk's `codes` and `scale` as columns `c0..` of row
    /// `row` of a `width`-wide block store: appended in row-major order
    /// (rows arrive in order), written in place key-minor.
    fn store(
        self,
        blocks: &mut Blocks,
        width: usize,
        row: usize,
        c0: usize,
        codes: &[f32],
        scale: f32,
    ) {
        match self {
            Order::RowMajor => blocks.push(codes, scale),
            Order::KeyMinor { .. } => {
                let log2 = blocks.group().trailing_zeros();
                blocks.codes.put(codes, |i| self.at(row, c0 + i, width));
                blocks.scale[self.at(row, c0 >> log2, width >> log2)] = scale;
            }
        }
    }

    /// Stores `values` as row `row` of a `width`-wide dense lane.
    fn store_lane(self, lane: &mut Vec<f32>, width: usize, row: usize, values: &[f32]) {
        match self {
            Order::RowMajor => lane.extend_from_slice(values),
            Order::KeyMinor { .. } => {
                for (c, &v) in values.iter().enumerate() {
                    lane[self.at(row, c, width)] = v;
                }
            }
        }
    }
}

impl PackedRows {
    /// An empty buffer whose rows are `width` columns wide, stored in
    /// `scheme`'s block layout when the scheme has one and `width` is a
    /// whole number of blocks (so no block straddles a row), else as
    /// dense f32, row after row.
    pub fn new(scheme: SchemeSpec, width: usize) -> PackedRows {
        let layout = match store_algebra(scheme) {
            Some(alg) if width > 0 && width.is_multiple_of(alg.block_size) => {
                Layout::Block(Blocks::with_capacity(alg, 0))
            }
            _ => Layout::Dense {
                lane: Vec::new(),
                finite: false,
            },
        };
        PackedRows {
            width,
            rows: 0,
            order: Order::RowMajor,
            layout,
        }
    }

    /// An empty buffer of at most `tokens` rows, in the layout
    /// [`PackedRows::new`] picks, stored **key-minor**: the values of
    /// one column lie contiguous over the rows, and the block scales are
    /// `[block][row]`, so the page kernel ([`attn_scores_packed`]) loads
    /// 16 keys at one column at once. Every buffer is allocated once, at
    /// `tokens` rows; the buffer holds and is charged exactly what a
    /// row-major one holds ([`PackedRows::packed_bits`]).
    ///
    /// ```
    /// use bbal_core::packed::{attn_dot_packed, attn_scores_packed, PackedRows};
    /// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode, SchemeSpec};
    ///
    /// let bbfp = FormatAlgebra::bbfp(4, 2)?;
    /// let raw: Vec<f32> = (0..96).map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1).collect();
    /// let mut q = vec![0.0; 96];
    /// algebra_quantize_slice(&raw, &bbfp, RoundingMode::NearestEven, &mut q);
    ///
    /// let mut keys = PackedRows::key_minor(SchemeSpec::Bbfp(4, 2), 32, 4);
    /// for row in q.chunks(32) {
    ///     keys.push_row(row);
    /// }
    /// assert_eq!(keys.to_dense(), q);
    /// let query = [0.5f32; 8];
    /// let mut scores = [0.0f32; 3];
    /// attn_scores_packed(&query, &keys, 0..3, 8, &mut scores);
    /// for (j, s) in scores.iter().enumerate() {
    ///     assert_eq!(*s, attn_dot_packed(&query, &keys, j, 8));
    /// }
    /// # Ok::<(), bbal_core::FormatError>(())
    /// ```
    pub fn key_minor(scheme: SchemeSpec, width: usize, tokens: usize) -> PackedRows {
        let layout = match PackedRows::new(scheme, width).layout {
            Layout::Block(blocks) => Layout::Block(Blocks {
                codes: Codes::I16(vec![0; tokens * width]),
                scale: vec![0.0; tokens * width / blocks.group()],
                ..blocks
            }),
            Layout::Dense { .. } | Layout::Fp16 { .. } => Layout::Dense {
                lane: vec![0.0; tokens * width],
                finite: false,
            },
        };
        PackedRows {
            width,
            rows: 0,
            order: Order::KeyMinor { tokens },
            layout,
        }
    }

    /// Row width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows pushed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True before any row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether the buffer is key-minor ([`PackedRows::key_minor`]).
    pub fn is_key_minor(&self) -> bool {
        matches!(self.order, Order::KeyMinor { .. })
    }

    /// Which layout the buffer currently holds ([`LayoutKind::Fp16`]
    /// never occurs here).
    pub fn layout_kind(&self) -> LayoutKind {
        self.layout.kind()
    }

    /// Exact storage size of the current contents in bits
    /// (`rows·width·32` after a dense demotion — the honesty metric).
    pub fn packed_bits(&self) -> usize {
        self.layout.bits(self.rows * self.width)
    }

    /// [`PackedRows::packed_bits`] rounded up to whole bytes.
    pub fn packed_bytes(&self) -> usize {
        self.packed_bits().div_ceil(8)
    }

    /// Rows the buffer holds before any of its buffers has to grow (a
    /// key-minor buffer never grows: it holds at most this many).
    pub fn capacity(&self) -> usize {
        if let Order::KeyMinor { tokens } = self.order {
            return tokens;
        }
        let values = match &self.layout {
            Layout::Block(blocks) => blocks
                .codes
                .capacity()
                .min(blocks.scale.capacity() * blocks.group()),
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => lane.capacity(),
        };
        values.checked_div(self.width).unwrap_or(usize::MAX)
    }

    /// A copy of the buffer with room for `rows` rows (at least its
    /// own), in the same order and layout, each of its buffers
    /// allocated once at that size, so a buffer sized once (a KV page,
    /// fresh or copied on write, at its page size) never grows past it.
    pub fn copy_with_capacity(&self, rows: usize) -> PackedRows {
        let room = rows.max(self.rows);
        let order = self.order.with_rows(room);
        let width = self.width;
        let layout = match &self.layout {
            Layout::Dense { lane, finite } => Layout::Dense {
                lane: self.relaid(lane, width, order, room),
                finite: *finite,
            },
            Layout::Fp16 { bits, lane } => Layout::Fp16 {
                bits: self.relaid(bits, width, order, room),
                lane: self.relaid(lane, width, order, room),
            },
            Layout::Block(blocks) => Layout::Block(Blocks {
                alg: blocks.alg,
                codes: match &blocks.codes {
                    Codes::I16(codes) => Codes::I16(self.relaid(codes, width, order, room)),
                    Codes::F32(codes) => Codes::F32(self.relaid(codes, width, order, room)),
                },
                scale: self.relaid(&blocks.scale, width / blocks.group(), order, room),
            }),
        };
        PackedRows {
            width: self.width,
            rows: self.rows,
            order,
            layout,
        }
    }

    /// One of this buffer's stores, `cols` values per row (its width,
    /// or its blocks per row), its rows re-laid in `order` with room for
    /// `room` rows ([`Order::relay`]).
    fn relaid<T: Copy + Default>(
        &self,
        src: &[T],
        cols: usize,
        order: Order,
        room: usize,
    ) -> Vec<T> {
        self.order.relay(src, self.rows, cols, order, room)
    }

    /// Appends one **already quantised** row, encoding it into the block
    /// layout when possible.
    ///
    /// A row that is not exactly representable in the scheme (it did not
    /// come from this scheme's quantiser, or contains non-finite values)
    /// demotes the whole buffer to the dense layout; previously encoded
    /// rows are reconstructed exactly (`code·scale` is the stored
    /// value), so the buffer's contents always equal the pushed rows
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.width()` or a key-minor buffer is
    /// full.
    pub fn push_row(&mut self, row: &[f32]) {
        self.check_push(row);
        let (order, width, r) = (self.order, self.width, self.rows);
        if let Layout::Block(blocks) = &mut self.layout {
            let group = blocks.group();
            let mut codes = [0.0f32; MAX_STORE_BLOCK];
            let codes = &mut codes[..group];
            let stored = row.chunks(group).enumerate().all(|(b, chunk)| {
                blocks
                    .encode_quantised(chunk, codes)
                    .map(|scale| order.store(blocks, width, r, b * group, codes, scale))
                    .is_some()
            });
            if !stored {
                self.demote();
            }
        }
        if let Layout::Dense { lane, .. } = &mut self.layout {
            order.store_lane(lane, width, r, row);
        }
        self.rows += 1;
    }

    /// Appends one **raw** row quantised through `alg` (a KV cache's
    /// `quantize` knob), encoding it once. Rows, layout and demotion are
    /// exactly those of quantising the row with
    /// [`algebra_quantize_in_place`] — which a row holding ±inf/NaN
    /// skips, so it is stored raw — and then [`PackedRows::push_row`]:
    /// a buffer that stores `alg`'s blocks takes each chunk's codes
    /// straight from the block encoder, a chunk it refuses leaves the
    /// quantised row in the demoted lane, and a dense buffer quantises
    /// the row in its lane. A `alg` with no block quantiser (a scalar
    /// point) leaves the row raw.
    ///
    /// ```
    /// use bbal_core::packed::{LayoutKind, PackedRows};
    /// use bbal_core::{algebra_quantize_slice, RoundingMode, SchemeSpec};
    ///
    /// let scheme = SchemeSpec::Bbfp(4, 2);
    /// let alg = scheme.block_algebra().expect("a block scheme");
    /// let raw: Vec<f32> = (0..64).map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1).collect();
    /// let mut rows = PackedRows::new(scheme, 32);
    /// rows.push_quantized_row(&raw[..32], &alg);
    /// rows.push_quantized_row(&raw[32..], &alg);
    /// assert_eq!(rows.layout_kind(), LayoutKind::Block);
    ///
    /// let mut q = vec![0.0; 64];
    /// algebra_quantize_slice(&raw[..32], &alg, RoundingMode::NearestEven, &mut q[..32]);
    /// algebra_quantize_slice(&raw[32..], &alg, RoundingMode::NearestEven, &mut q[32..]);
    /// assert_eq!(rows.to_dense(), q);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.width()` or a key-minor buffer is
    /// full.
    pub fn push_quantized_row(&mut self, row: &[f32], alg: &FormatAlgebra) {
        self.check_push(row);
        if !alg.packable() || row.iter().any(|v| !v.is_finite()) {
            return self.push_row(row);
        }
        let (order, width, r) = (self.order, self.width, self.rows);
        match &mut self.layout {
            Layout::Block(blocks) if blocks.alg == *alg => {
                let group = blocks.group();
                let (mut out, mut codes) = ([0.0f32; MAX_STORE_BLOCK], [0.0f32; MAX_STORE_BLOCK]);
                let (out, codes) = (&mut out[..group], &mut codes[..group]);
                let stored = row.chunks(group).enumerate().all(|(b, chunk)| {
                    blocks
                        .encode_raw(chunk, out, codes)
                        .map(|scale| order.store(blocks, width, r, b * group, codes, scale))
                        .is_some()
                });
                if !stored {
                    self.demote();
                    return self.push_quantized_row(row, alg);
                }
            }
            Layout::Dense { .. } | Layout::Block(_) | Layout::Fp16 { .. } => {
                let mut quantised = row.to_vec();
                algebra_quantize_in_place(&mut quantised, alg, RoundingMode::NearestEven);
                return self.push_row(&quantised);
            }
        }
        self.rows += 1;
    }

    /// The checks every push makes before storing anything.
    fn check_push(&self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if let Order::KeyMinor { tokens } = self.order {
            assert!(self.rows < tokens, "key-minor buffer full at {tokens} rows");
        }
    }

    /// Demotes the buffer to a dense lane in the same order, exactly:
    /// the rows pushed so far decode to themselves, and the codes of a
    /// row whose encoding stopped part way lie past them, unread. The
    /// lane keeps the room the codes had reserved.
    fn demote(&mut self) {
        if !matches!(self.layout, Layout::Block(_)) {
            return;
        }
        let lane = Order::RowMajor.relay(
            &self.to_dense(),
            self.rows,
            self.width,
            self.order,
            self.capacity(),
        );
        self.layout = Layout::Dense {
            lane,
            finite: false,
        };
    }

    /// The stored value at `(row, col)` — bit-identical to what was
    /// pushed.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.width, "position out of range");
        self.value(row, col)
    }

    /// [`PackedRows::get`] without the range check of the row: each
    /// layout reads `(row, col)` through [`Order::at`].
    fn value(&self, row: usize, col: usize) -> f32 {
        let at = self.order.at(row, col, self.width);
        match &self.layout {
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => lane[at],
            Layout::Block(blocks) => {
                let log2 = blocks.group().trailing_zeros();
                let s = blocks.scale[self.order.at(row, col >> log2, self.width >> log2)];
                match &blocks.codes {
                    Codes::I16(codes) => codes[at].weight(s),
                    Codes::F32(codes) => codes[at].weight(s),
                }
            }
        }
    }

    /// All rows as a flat dense f32 buffer, row-major — bit-identical to
    /// the rows that were pushed.
    pub fn to_dense(&self) -> Vec<f32> {
        (0..self.rows)
            .flat_map(|r| (0..self.width).map(move |c| self.value(r, c)))
            .collect()
    }
}

/// Keys the page kernel scores per vector pass: one AVX-512 register.
const KEY_LANES: usize = 16;

/// The scores `out[i] = q · K[keys.start + i, c0..c0+q.len()]` of a run
/// of keys of one page: the QK^T inner products of one attention head
/// against cached key rows. Each score is bit-identical to the dense f32
/// dot in ascending-column order for every query: each term multiplies
/// `q[d]` by the exact key value `code·2^s`, and the terms of one key are
/// summed left to right. (No fused multiply-add: `q` is arbitrary, so
/// its products are not exact.)
///
/// On a key-minor page ([`PackedRows::key_minor`]) the kernel keeps one
/// accumulator per key, with 16 keys across the lanes of a register: at
/// each column it loads 16 keys' codes at once, and each block segment
/// of the head one per-key scale vector. A row-major page takes one key
/// at a time.
///
/// # Panics
///
/// Panics if the keys or the column span are out of range, or
/// `out.len() != keys.len()`.
pub fn attn_scores_packed(
    q: &[f32],
    rows: &PackedRows,
    keys: std::ops::Range<usize>,
    c0: usize,
    out: &mut [f32],
) {
    let dh = q.len();
    assert!(
        keys.start <= keys.end && keys.end <= rows.rows && c0 + dh <= rows.width,
        "attention span out of range"
    );
    assert_eq!(out.len(), keys.len(), "one score per key");
    match rows.order {
        Order::KeyMinor { tokens } => dispatch(KeyScores {
            q,
            rows,
            tokens,
            j0: keys.start,
            c0,
            out,
        }),
        Order::RowMajor => {
            for (s, j) in out.iter_mut().zip(keys) {
                *s = row_dot(q, rows, j, c0);
            }
        }
    }
}

/// `q · K[j, c0..c0+q.len()]` over a packed row buffer: the QK^T inner
/// product of one attention head against one cached key row, the
/// one-key case of [`attn_scores_packed`]. Bit-identical to the dense
/// f32 dot in ascending-column order for every query: each term
/// multiplies the exact key value `code·2^s`.
///
/// # Panics
///
/// Panics if `j` or the column span is out of range.
pub fn attn_dot_packed(q: &[f32], rows: &PackedRows, j: usize, c0: usize) -> f32 {
    assert!(
        j < rows.rows && c0 + q.len() <= rows.width,
        "attention span out of range"
    );
    match rows.order {
        Order::RowMajor => row_dot(q, rows, j, c0),
        Order::KeyMinor { .. } => {
            let mut score = [0.0f32];
            attn_scores_packed(q, rows, j..j + 1, c0, &mut score);
            score[0]
        }
    }
}

/// One key's score over a row-major buffer, its row read run by run.
fn row_dot(q: &[f32], rows: &PackedRows, j: usize, c0: usize) -> f32 {
    let dh = q.len();
    match &rows.layout {
        Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
            let flat0 = j * rows.width + c0;
            dot_plain(q, &lane[flat0..flat0 + dh])
        }
        Layout::Block(blocks) => {
            let (scale, log2) = blocks.scales();
            let runs = runs(log2, rows.width, j, c0, c0 + dh);
            match &blocks.codes {
                Codes::I16(codes) => runs_dot(q, codes, scale, runs),
                Codes::F32(codes) => runs_dot(q, codes, scale, runs),
            }
        }
    }
}

/// The page kernel of [`attn_scores_packed`] over a key-minor buffer of
/// `tokens` rows, as a [`Kernel`].
struct KeyScores<'a> {
    q: &'a [f32],
    rows: &'a PackedRows,
    tokens: usize,
    j0: usize,
    c0: usize,
    out: &'a mut [f32],
}

impl Kernel for KeyScores<'_> {
    #[inline(always)]
    unsafe fn run<L: Lanes, F: Accumulate>(mut self) {
        let rows = self.rows;
        match &rows.layout {
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => self.keys(lane, None),
            Layout::Block(blocks) => {
                let scale = Some(blocks.scales());
                match &blocks.codes {
                    Codes::I16(codes) => self.keys(codes, scale),
                    Codes::F32(codes) => self.keys(codes, scale),
                }
            }
        }
    }
}

impl KeyScores<'_> {
    /// Every key of `out`, [`KEY_LANES`] at a time, then the rest in
    /// passes of 8, 4, 2 and 1 keys, so no pass reads past its keys.
    /// `scale` is the block scales and the log2 block size of a block
    /// store, `None` for a dense lane.
    #[inline(always)]
    fn keys<C: Code>(&mut self, codes: &[C], scale: Option<(&[f32], u32)>) {
        let n = self.out.len();
        let mut done = 0;
        while n - done >= KEY_LANES {
            self.pass::<C, KEY_LANES>(codes, scale, done);
            done += KEY_LANES;
        }
        if n - done >= 8 {
            self.pass::<C, 8>(codes, scale, done);
            done += 8;
        }
        if n - done >= 4 {
            self.pass::<C, 4>(codes, scale, done);
            done += 4;
        }
        if n - done >= 2 {
            self.pass::<C, 2>(codes, scale, done);
            done += 2;
        }
        if n - done == 1 {
            self.pass::<C, 1>(codes, scale, done);
        }
    }

    /// The scores `out[done..done + N]` in one pass over the head's
    /// columns, one accumulator lane per key: each lane adds
    /// `q[d]·(code·2^s)` (`q[d]·v` on a dense lane) in ascending `d`.
    #[inline(always)]
    fn pass<C: Code, const N: usize>(
        &mut self,
        codes: &[C],
        scale: Option<(&[f32], u32)>,
        done: usize,
    ) {
        let (q, tokens, c0) = (self.q, self.tokens, self.c0);
        let (j, dh) = (self.j0 + done, q.len());
        let mut acc = [0.0f32; N];
        let mut d = 0;
        while d < dh {
            // One block segment of the head: its columns share each
            // key's scale.
            let (end, s) = match scale {
                Some((scale, log2)) => {
                    let b = (c0 + d) >> log2;
                    let at = b * tokens + j;
                    let s: [f32; N] = scale[at..at + N].try_into().expect("N keys");
                    ((((b + 1) << log2) - c0).min(dh), Some(s))
                }
                None => (dh, None),
            };
            for (col, &qd) in (c0 + d..).zip(&q[d..end]) {
                let at = col * tokens + j;
                let v: &[C; N] = codes[at..at + N].try_into().expect("N keys");
                match s {
                    Some(s) => {
                        for ((a, c), s) in acc.iter_mut().zip(v).zip(s) {
                            *a += qd * (c.widen() * s);
                        }
                    }
                    None => {
                        for (a, c) in acc.iter_mut().zip(v) {
                            *a += qd * c.widen();
                        }
                    }
                }
            }
            d = end;
        }
        self.out[done..done + N].copy_from_slice(&acc);
    }
}

/// `out[d] += probs[j] · V[j, c0+d]` for every row `j` in ascending
/// order: the AV accumulation of one attention head over a packed row
/// buffer, bit-identical to the dense f32 loop for every input (per
/// output element the `+=`s arrive in the same order; the power-of-two
/// block scale folds into the broadcast probability where `p·2^s` is
/// exact, and each value is rebuilt as `code·scale` elsewhere). A call
/// whose `out` holds a `-0` multiplies the rebuilt values throughout, so
/// a `-0` value keeps its sign (module docs). A key-minor buffer is read
/// value by value in the dense loop's own order.
///
/// # Panics
///
/// Panics if `probs` or the column span is out of range.
pub fn attn_weighted_sum_packed(probs: &[f32], rows: &PackedRows, c0: usize, out: &mut [f32]) {
    let dh = out.len();
    assert!(
        probs.len() <= rows.rows && c0 + dh <= rows.width,
        "attention span out of range"
    );
    dispatch(WeightedSum {
        probs,
        rows,
        c0,
        out,
    });
}

/// [`attn_weighted_sum_packed`] as a [`Kernel`].
struct WeightedSum<'a> {
    probs: &'a [f32],
    rows: &'a PackedRows,
    c0: usize,
    out: &'a mut [f32],
}

impl Kernel for WeightedSum<'_> {
    #[inline(always)]
    unsafe fn run<L: Lanes, F: Accumulate>(self) {
        let WeightedSum {
            probs,
            rows,
            c0,
            out,
        } = self;
        let width = rows.width;
        match (&rows.layout, rows.order) {
            (_, Order::KeyMinor { .. }) => {
                for (j, &p) in probs.iter().enumerate() {
                    for (d, o) in out.iter_mut().enumerate() {
                        *o += p * rows.value(j, c0 + d);
                    }
                }
            }
            (Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. }, Order::RowMajor) => {
                for (&p, v_row) in probs.iter().zip(lane[c0..].chunks(width)) {
                    for (o, &vv) in out.iter_mut().zip(v_row) {
                        *o += p * vv;
                    }
                }
            }
            (Layout::Block(blocks), Order::RowMajor) => {
                let folds = !out.iter().any(|o| *o == 0.0 && o.is_sign_negative());
                let scale = blocks.scales();
                let done = folds
                    && match &blocks.codes {
                        // SAFETY: the caller guarantees `L`'s extension.
                        Codes::I16(codes) => unsafe {
                            axpy_registers::<L, _>(probs, codes, scale, width, c0, out)
                        },
                        // SAFETY: as above.
                        Codes::F32(codes) => unsafe {
                            axpy_registers::<L, _>(probs, codes, scale, width, c0, out)
                        },
                    };
                if !done {
                    match &blocks.codes {
                        Codes::I16(codes) => rows_axpy(probs, blocks, codes, width, c0, out),
                        Codes::F32(codes) => rows_axpy(probs, blocks, codes, width, c0, out),
                    }
                }
            }
        }
    }
}

/// The weighted sum over the block codes of a row-major buffer `width`
/// wide, with the head's sums held in `L` registers across every key, up
/// to four registers at a time: each key adds `fl(p·2^s)·code` with a
/// separate multiply and add, or, for a key whose `p·2^s` is inexact
/// (`p` nonzero and the exact `p·2^s` not normal, [`folds_normal`]), the
/// exact `p·(code·2^s)` lane by lane. `scale` is the block scales and
/// the log2 block size. The caller has checked that `out` holds no `-0`.
/// Returns `false`, touching nothing, unless `c0` and the head width are
/// whole registers and each register lies inside one block.
///
/// # Safety
///
/// The CPU must have `L`'s extension, as for [`axpy_group`].
#[inline(always)]
unsafe fn axpy_registers<L: Lanes, C: Code>(
    probs: &[f32],
    codes: &[C],
    scale: (&[f32], u32),
    width: usize,
    c0: usize,
    out: &mut [f32],
) -> bool {
    let n = L::N;
    let aligned = c0.is_multiple_of(n)
        && out.len().is_multiple_of(n)
        && (1usize << scale.1).is_multiple_of(n);
    if !aligned {
        return false;
    }
    for (g, part) in out.chunks_mut(4 * n).enumerate() {
        let c = c0 + g * 4 * n;
        match part.len() / n {
            4 => axpy_group::<L, C, 4>(probs, codes, scale, width, c, part),
            3 => axpy_group::<L, C, 3>(probs, codes, scale, width, c, part),
            2 => axpy_group::<L, C, 2>(probs, codes, scale, width, c, part),
            _ => axpy_group::<L, C, 1>(probs, codes, scale, width, c, part),
        }
    }
    true
}

/// One group of `REGS` registers of [`axpy_registers`].
#[inline(always)]
unsafe fn axpy_group<L: Lanes, C: Code, const REGS: usize>(
    probs: &[f32],
    codes: &[C],
    (scale, log2): (&[f32], u32),
    width: usize,
    c0: usize,
    out: &mut [f32],
) {
    let n = L::N;
    let mut acc: [L; REGS] = std::array::from_fn(|r| L::load(&out[r * n..]));
    for (j, &p) in probs.iter().enumerate() {
        for (r, acc) in acc.iter_mut().enumerate() {
            let at = j * width + c0 + r * n;
            let s = scale[at >> log2];
            if p == 0.0 || folds_normal(p, s) {
                *acc = acc.step::<MulAdd>(L::splat(p * s), C::lanes::<L>(&codes[at..]));
            } else {
                let mut lanes = [0.0f32; KEY_LANES];
                acc.store(&mut lanes);
                for (o, c) in lanes[..n].iter_mut().zip(&codes[at..at + n]) {
                    *o += p * c.weight(s);
                }
                *acc = L::load(&lanes);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        acc.store(&mut out[r * n..]);
    }
}

/// [`attn_weighted_sum_packed`] over the block codes of a row-major
/// buffer `width` wide: the head's columns cut at block edges once, the
/// same cuts for every row; in each segment the block scale folds into
/// the probability where `p·2^s` is exact (`p` zero, or the exact
/// `p·2^s` a normal f32, [`folds_normal`]) and `out` holds no `-0`, and
/// each value is rebuilt as `code·2^s` first elsewhere.
#[inline(always)]
fn rows_axpy<C: Code>(
    probs: &[f32],
    blocks: &Blocks,
    codes: &[C],
    width: usize,
    c0: usize,
    out: &mut [f32],
) {
    let folds = !out.iter().any(|o| *o == 0.0 && o.is_sign_negative());
    let (group, dh) = (blocks.group(), out.len());
    let log2 = group.trailing_zeros();
    for (j, &p) in probs.iter().enumerate() {
        let mut d = 0;
        while d < dh {
            let b = (c0 + d) >> log2;
            let end = ((b + 1) * group - c0).min(dh);
            let s = blocks.scale[((j * width) >> log2) + b];
            let cs = &codes[j * width + c0 + d..j * width + c0 + end];
            let o = out[d..end].iter_mut();
            if folds && (p == 0.0 || folds_normal(p, s)) {
                let ps = p * s;
                for (ov, cv) in o.zip(cs) {
                    *ov += ps * cv.widen();
                }
            } else {
                for (ov, cv) in o.zip(cs) {
                    *ov += p * cv.weight(s);
                }
            }
            d = end;
        }
    }
}

/// Bits one packed chunk of `len` elements occupies under `alg`.
fn chunk_bits(alg: &FormatAlgebra, len: usize) -> usize {
    let scale_bits = match alg.scale {
        ScaleKind::SharedExponent { bits } | ScaleKind::SharedBias { bits } => bits as usize,
        ScaleKind::TwoLevel {
            bits,
            sub_block,
            sub_scale_bits,
        } => bits as usize + len.div_ceil(sub_block) * sub_scale_bits as usize,
    };
    scale_bits + len * alg.payload_bits_per_element() as usize
}

/// Exact storage capacity, in bytes, of `rows` packed rows of `width`
/// columns under `scheme` — what the layout [`PackedRows::new`] picks
/// takes for that many rows, so dense f32 bytes when the scheme has no
/// block layout or `width` is not a whole number of blocks. This is the
/// single source of truth KV arenas and serving schedulers size page
/// byte budgets by: a full [`PackedRows`] buffer of quantised rows
/// occupies exactly this many bytes.
pub fn packed_rows_capacity_bytes(scheme: SchemeSpec, width: usize, rows: usize) -> usize {
    PackedRows::new(scheme, width)
        .layout
        .bits(rows * width)
        .div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BbfpConfig, BfpConfig};
    use crate::reference::{bbfp_quantize_slice, bfp_quantize_slice};

    fn raw(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        };
        (0..n).map(|_| next() * 4.0).collect()
    }

    fn quantised(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
        quantise(scheme, &raw(n, seed))
    }

    /// `raw` through `scheme`'s own quantiser.
    fn quantise(scheme: SchemeSpec, raw: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; raw.len()];
        match scheme {
            SchemeSpec::Bfp(m) => bfp_quantize_slice(
                raw,
                BfpConfig::new(m).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Bbfp(m, o) => bbfp_quantize_slice(
                raw,
                BbfpConfig::new(m, o).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Mx(..) | SchemeSpec::Msfp(..) | SchemeSpec::BlockMf(..) => {
                let alg = scheme.algebra().unwrap().unwrap();
                crate::algebra::algebra_quantize_slice(
                    raw,
                    &alg,
                    RoundingMode::NearestEven,
                    &mut out,
                );
            }
            SchemeSpec::Fp16 => {
                for (o, &v) in out.iter_mut().zip(raw) {
                    *o = Fp16::from_f32_saturating(v).to_f32();
                }
            }
            _ => out.copy_from_slice(raw),
        }
        out
    }

    /// The new-family lineup every packed test sweeps alongside the
    /// classic schemes.
    const NEW_FAMILIES: [SchemeSpec; 3] = [
        SchemeSpec::Mx(8, 4, 2),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::BlockMf(4, 3, 8),
    ];

    /// The scalar reference: `Tensor::matmul`'s i-k-j loop.
    fn reference_gemm(x: &[f32], x_rows: usize, w: &[f32], k_len: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; x_rows * n];
        for i in 0..x_rows {
            for k in 0..k_len {
                let a = x[i * k_len + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += a * w[k * n + j];
                }
            }
        }
        out
    }

    /// The bits `n` flat values take in `alg`'s bit layout, in closed
    /// form, chunk by chunk (the last chunk may be ragged): the scale
    /// field, one sub-scale per started sub-block for two-level points,
    /// then the element payloads.
    fn closed_form_bits(alg: &FormatAlgebra, n: usize) -> usize {
        let (scale_bits, sub) = match alg.scale {
            ScaleKind::SharedExponent { bits } | ScaleKind::SharedBias { bits } => (bits, None),
            ScaleKind::TwoLevel {
                bits,
                sub_block,
                sub_scale_bits,
            } => (bits, Some((sub_block, sub_scale_bits as usize))),
        };
        let chunk = |len: usize| {
            let sub_bits = sub.map_or(0, |(sub_block, bits)| len.div_ceil(sub_block) * bits);
            scale_bits as usize + sub_bits + len * alg.payload_bits_per_element() as usize
        };
        let group = alg.block_size;
        (0..n)
            .step_by(group)
            .map(|at| chunk(group.min(n - at)))
            .sum()
    }

    /// One block held by a `1 × len` matrix — full, or a ragged tail with
    /// its own scale — decodes to the quantised values and is charged
    /// its scale field plus its payloads.
    #[test]
    fn block_round_trip_full_and_ragged() {
        for scheme in [SchemeSpec::Bfp(4), SchemeSpec::Bbfp(4, 2)] {
            let bs = scheme.block_algebra().unwrap();
            for len in [32usize, 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let p = PackedMatrix::pack(&q, 1, len, scheme);
                assert_eq!(p.layout_kind(), LayoutKind::Block, "{scheme} len {len}");
                assert_same_bits(&p.decode(), &q, &format!("{scheme} len {len}"));
                assert_eq!(
                    p.packed_bits(),
                    5 + len * bs.payload_bits_per_element() as usize
                );
            }
        }
    }

    /// As [`block_round_trip_full_and_ragged`] for the MX, MSFP and
    /// block-minifloat families: a two-level point is charged one
    /// sub-scale per started sub-block of a ragged tail.
    #[test]
    fn new_family_blocks_round_trip_with_exact_bit_budgets() {
        for scheme in NEW_FAMILIES {
            let alg = scheme.block_algebra().unwrap();
            for len in [alg.block_size, 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let p = PackedMatrix::pack(&q, 1, len, scheme);
                let what = format!("{scheme} len {len}");
                assert_eq!(p.layout_kind(), LayoutKind::Block, "{what}");
                assert_same_bits(&p.decode(), &q, &what);
                assert_eq!(p.packed_bits(), closed_form_bits(&alg, len), "{what}");
            }
        }
    }

    /// The block dot over the store the kernels read: one block in a
    /// one-row page, dotted by [`attn_dot_packed`] off its codes, equals
    /// the in-order f32 reference `Σ fl(aⱼ·wⱼ)` bit for bit.
    fn assert_block_dot_is_reference(scheme: SchemeSpec) {
        let n = scheme.block_algebra().unwrap().block_size;
        let q = quantised(scheme, n, 11);
        let acts = quantised(SchemeSpec::Fp16, n, 17);
        let mut rows = PackedRows::new(scheme, n);
        rows.push_row(&q);
        assert_eq!(rows.layout_kind(), LayoutKind::Block, "{scheme}");
        let mut acc = 0.0f32;
        for (a, w) in acts.iter().zip(&q) {
            acc += a * w;
        }
        let got = attn_dot_packed(&acts, &rows, 0, 0);
        assert_eq!(got.to_bits(), acc.to_bits(), "{scheme}");
    }

    #[test]
    fn new_family_block_dot_is_bit_identical() {
        for scheme in NEW_FAMILIES {
            assert_block_dot_is_reference(scheme);
        }
    }

    /// The block store refuses what its encoder does not give back: a
    /// chunk of values that did not come from the scheme's quantiser, or
    /// one holding ±inf/NaN, appends nothing, so the matrix keeps a dense
    /// lane; a scheme without block scales has no block store.
    #[test]
    fn encode_rejects_unquantised_input() {
        let alg = SchemeSpec::Bfp(4).block_algebra().unwrap();
        let raw: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut blocks = Blocks::with_capacity(alg, 0);
        assert!(!blocks.push_quantised(&raw));
        let q = quantised(SchemeSpec::Bfp(4), 32, 3);
        assert!(blocks.push_quantised(&q));
        for bad in [f32::INFINITY, f32::NAN] {
            let mut row = q.clone();
            row[5] = bad;
            assert!(!blocks.push_quantised(&row), "{bad}");
        }
        assert_eq!(blocks.scale.len(), 1, "only the quantised chunk is held");
        assert_same_bits(&Layout::Block(blocks).decode(1, 32), &q, "the held chunk");
        assert_eq!(
            PackedMatrix::pack(&raw, 1, 32, SchemeSpec::Bfp(4)).layout_kind(),
            LayoutKind::Dense
        );
        for scheme in [SchemeSpec::Fp16, SchemeSpec::Fp32, SchemeSpec::Oltron] {
            assert!(store_algebra(scheme).is_none(), "{scheme}");
        }
    }

    #[test]
    fn block_dot_is_bit_identical() {
        for scheme in [
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
        ] {
            assert_block_dot_is_reference(scheme);
        }
    }

    #[test]
    fn matrix_layouts_by_scheme() {
        let q = quantised(SchemeSpec::Bbfp(4, 2), 64, 5);
        assert_eq!(
            PackedMatrix::pack(&q, 2, 32, SchemeSpec::Bbfp(4, 2)).layout_kind(),
            LayoutKind::Block
        );
        let h = quantised(SchemeSpec::Fp16, 64, 5);
        assert_eq!(
            PackedMatrix::pack(&h, 2, 32, SchemeSpec::Fp16).layout_kind(),
            LayoutKind::Fp16
        );
        let raw = quantised(SchemeSpec::Fp32, 64, 5);
        assert_eq!(
            PackedMatrix::pack(&raw, 2, 32, SchemeSpec::Oltron).layout_kind(),
            LayoutKind::Dense
        );
        // Unquantised input under a block scheme: verified fallback.
        assert_eq!(
            PackedMatrix::pack(&raw, 2, 32, SchemeSpec::Bfp(4)).layout_kind(),
            LayoutKind::Dense
        );
        // Each new family packs its own quantiser output natively …
        for scheme in NEW_FAMILIES {
            let q = quantised(scheme, 64, 5);
            assert_eq!(
                PackedMatrix::pack(&q, 2, 32, scheme).layout_kind(),
                LayoutKind::Block,
                "{scheme}"
            );
            // … and falls back to Dense on foreign input.
            assert_eq!(
                PackedMatrix::pack(&raw, 2, 32, scheme).layout_kind(),
                LayoutKind::Dense,
                "{scheme}"
            );
        }
    }

    #[test]
    fn packed_density_beats_dense() {
        let q = quantised(SchemeSpec::Bbfp(4, 2), 32 * 32, 7);
        let p = PackedMatrix::pack(&q, 32, 32, SchemeSpec::Bbfp(4, 2));
        // 6 payload bits per element + 5/32 shared: ~5x denser than f32.
        assert!(p.packed_bits() * 5 < 32 * 32 * 32);
        assert_eq!(p.decode(), q);
    }

    /// One 32-value block with an outlier at index 9, quantised onto
    /// `scheme` and packed as a `1 × 32` matrix.
    fn outlier_block(scheme: SchemeSpec) -> (Vec<f32>, PackedMatrix) {
        let r: Vec<f32> = (0..32)
            .map(|i| {
                let body = ((i * 41 % 97) as f32 - 48.0) * 0.02;
                if i == 9 {
                    body * 30.0
                } else {
                    body
                }
            })
            .collect();
        let q = quantise(scheme, &r);
        let p = PackedMatrix::pack(&q, 1, 32, scheme);
        (q, p)
    }

    /// One whole block is charged exactly the algebra's cost model.
    #[test]
    fn packed_size_matches_format_cost() {
        let bbfp = SchemeSpec::Bbfp(6, 3);
        let (q, block) = outlier_block(bbfp);
        let cost = bbfp.block_algebra().unwrap().cost().total_bits(32);
        assert_eq!(block.packed_bits() as u64, cost);
        // 32*(6+2)+5 = 261 bits = 33 bytes.
        assert_eq!(block.packed_bits(), 261);
        assert_eq!(block.packed_bits().div_ceil(8), 33);
        assert_eq!(block.decode(), q);

        let bfp = SchemeSpec::Bfp(6);
        let cost = bfp.block_algebra().unwrap().cost().total_bits(32);
        assert_eq!(outlier_block(bfp).1.packed_bits() as u64, cost);
    }

    /// 32 FP16 values take 64 bytes; BBFP(4,2) takes 5 + 32*6 bits = 25.
    #[test]
    fn packed_memory_density_beats_fp16() {
        let (_, block) = outlier_block(SchemeSpec::Bbfp(4, 2));
        assert_eq!(block.packed_bits().div_ceil(8), 25);
        let (_, fp16) = outlier_block(SchemeSpec::Fp16);
        assert_eq!(fp16.layout_kind(), LayoutKind::Fp16);
        assert_eq!(fp16.packed_bits(), 32 * 16);
        assert!(block.packed_bits().div_ceil(8) * 2 < 64);
        assert!(block.packed_bits() * 2 < fp16.packed_bits());
    }

    /// A block-layout store holds its codes and one f32 scale per block
    /// and nothing else — no per-element f32, no bit stream — for every
    /// Table II / Fig. 8 block scheme and the new families: a matrix at
    /// 192×512 and a ragged shape, packed from quantised values and
    /// encoded from raw ones, and a 16-row KV page 192 wide, row-major
    /// and key-minor, which hold the same codes and scales. A page reserved at its page
    /// size, as the KV arena builds it, holds exactly its codes and
    /// scales when full: capacity equals length, quantised rows or raw.
    /// `packed_bits()` equals the closed-form bit count of the chunks,
    /// ragged tail included, and on whole blocks the algebra's own cost
    /// model, `FormatCost::total_bits`.
    #[test]
    fn block_storage_is_codes_and_scales_only() {
        let schemes = [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(3, 1),
            SchemeSpec::Bbfp(3, 2),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(4, 3),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Bbfp(6, 4),
            SchemeSpec::Bbfp(6, 5),
        ];
        for scheme in schemes.into_iter().chain(NEW_FAMILIES) {
            let alg = scheme.block_algebra().unwrap();
            let check = |layout: &Layout, bits: usize, q: &[f32], what: &str, full: bool| {
                // Every field named, so a new one has to be counted here.
                let Layout::Block(Blocks {
                    alg: _,
                    codes,
                    scale,
                }) = layout
                else {
                    panic!("{what} takes the block layout");
                };
                let (code_bytes, held) = match codes {
                    Codes::I16(c) => (2, std::mem::size_of_val(c.as_slice())),
                    Codes::F32(c) => (4, std::mem::size_of_val(c.as_slice())),
                };
                if full {
                    let len = q.len();
                    assert_eq!(codes.capacity(), len, "{what} code capacity");
                    assert_eq!(scale.capacity(), scale.len(), "{what} scale capacity");
                }
                let wide = matches!(scheme, SchemeSpec::BlockMf(..));
                assert_eq!(code_bytes, if wide { 4 } else { 2 }, "{what} code width");
                let blocks = q.len().div_ceil(alg.block_size);
                assert_eq!(
                    held + std::mem::size_of_val(scale.as_slice()),
                    code_bytes * q.len() + 4 * blocks,
                    "{what} resident bytes"
                );
                assert_eq!(bits, closed_form_bits(&alg, q.len()), "{what} bits");
                if q.len().is_multiple_of(alg.block_size) {
                    let cost = alg.cost().total_bits(q.len());
                    assert_eq!(bits as u64, cost, "{what} bits against the cost model");
                }
            };
            for (rows, cols) in [(192usize, 512usize), (7, 45)] {
                let r = raw(rows * cols, 83);
                let q = quantise(scheme, &r);
                let p = PackedMatrix::pack(&q, rows, cols, scheme);
                let what = format!("{scheme} {rows}x{cols} matrix");
                check(&p.layout, p.packed_bits(), &q, &what, true);
                let e = PackedMatrix::encode(&r, rows, cols, scheme).unwrap();
                check(
                    &e.layout,
                    e.packed_bits(),
                    &q,
                    &format!("encoded {what}"),
                    true,
                );
            }
            let (page, width) = (16usize, 192usize);
            let r = raw(page * width, 89);
            let q = quantise(scheme, &r);
            let mut kv = PackedRows::new(scheme, width).copy_with_capacity(page);
            let mut encoded = PackedRows::new(scheme, width).copy_with_capacity(page);
            let mut keys = PackedRows::key_minor(scheme, width, page);
            for (row, raw_row) in q.chunks(width).zip(r.chunks(width)) {
                kv.push_row(row);
                encoded.push_quantized_row(raw_row, &alg);
                keys.push_quantized_row(raw_row, &alg);
            }
            let what = format!("{scheme} {page}x{width} rows");
            let key_minor = format!("key-minor {what}");
            check(&keys.layout, keys.packed_bits(), &q, &key_minor, true);
            assert_same_bits(&keys.to_dense(), &q, &key_minor);
            for (rows, what) in [(&kv, what.clone()), (&encoded, format!("encoded {what}"))] {
                check(&rows.layout, rows.packed_bits(), &q, &what, true);
            }
        }
    }

    #[test]
    fn gemm_matches_reference_aligned_and_ragged() {
        for scheme in [
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bfp(6),
            SchemeSpec::Fp16,
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            for (k_len, n) in [(8usize, 64usize), (5, 33), (3, 7)] {
                let q = quantised(scheme, k_len * n, 13);
                let p = PackedMatrix::pack(&q, k_len, n, scheme);
                let mut x = quantised(SchemeSpec::Fp16, 2 * k_len, 29);
                x[1] = 0.0; // exercise the zero-skip
                let mut out = vec![f32::NAN; 2 * n];
                p.gemm(&x, 2, &mut out);
                let reference = reference_gemm(&x, 2, &q, k_len, n);
                let same = out
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme} {k_len}x{n}");
            }
        }
    }

    /// Every [`Simd`] build this CPU runs, widest first.
    fn builds() -> Vec<Simd> {
        [Simd::Avx512, Simd::Avx2, Simd::Portable]
            .into_iter()
            .filter(|simd| simd.supported())
            .collect()
    }

    /// `got` equals `want` bit for bit, a NaN matching any NaN: which
    /// NaN an invalid operation or a NaN operand gives is the hardware's
    /// choice, not the kernel's.
    fn assert_same_values(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: element {i}: {g} vs {w}");
        }
    }

    /// Every build of the row tile this CPU runs — AVX-512, AVX2 and
    /// portable — with the walk past it, called directly, so each build's
    /// tile-plus-walk split is pinned whichever one `gemm` picks on this
    /// host: block codes and the FP16 and dense lanes at a shape the tile
    /// covers whole, lanes whose width is not whole tiles (the walk takes
    /// the last 7 columns) and a ragged block matrix (the walk takes every
    /// column). The rows: 1..=9 FP16 rows (full and partial tiles, zero
    /// activations mixed in), then 9 rows of which six hold 1e-36,
    /// subnormal, near-`f32::MAX`, +inf, -inf and NaN values. Each runs
    /// once with every row split (multiply, then add) and once with the
    /// rows the exact-product guard passes fused, against the scalar
    /// reference, bit for bit (NaN matched by class).
    #[test]
    fn every_row_tile_build_matches_the_scalar_reference() {
        let k_len = 40usize;
        let cases = [
            (SchemeSpec::Bfp(4), 96usize, 96usize),
            (SchemeSpec::Bbfp(4, 2), 96, 96),
            (SchemeSpec::Msfp(4, 16), 96, 96),
            (SchemeSpec::Fp16, 96, 96),
            (SchemeSpec::Fp32, 96, 96),
            (SchemeSpec::Fp16, 87, 80),
            (SchemeSpec::Fp32, 87, 80),
            (SchemeSpec::Bbfp(4, 2), 45, 0),
        ];
        let builds = builds();
        for (scheme, n, tiled) in cases {
            let w = quantised(scheme, k_len * n, 61);
            let p = PackedMatrix::pack(&w, k_len, n, scheme);
            let shape = format!("{scheme:?} {k_len}x{n}");
            assert_eq!(p.tiled_cols(), tiled, "{shape} tiled columns");
            let mut batches: Vec<(Vec<f32>, bool)> = (1..=9)
                .map(|x_rows| {
                    let mut x = quantised(SchemeSpec::Fp16, x_rows * k_len, 67 + x_rows as u64);
                    for (i, v) in x.iter_mut().enumerate() {
                        if i % 7 == 0 {
                            *v = 0.0;
                        }
                    }
                    (x, true)
                })
                .collect();
            let mut mixed = quantised(SchemeSpec::Fp16, 9 * k_len, 71);
            let extremes = [
                1e-36,
                f32::from_bits(1),
                3e38,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ];
            for (row, &v) in mixed.chunks_mut(k_len).skip(1).zip(&extremes) {
                row.iter_mut().step_by(5).for_each(|a| *a = v);
                row[1] = 0.0;
            }
            batches.push((mixed, false));
            for (x, fp16) in &batches {
                let x_rows = x.len() / k_len;
                let all: Vec<usize> = (0..x_rows).collect();
                let (fused, split): (Vec<usize>, Vec<usize>) = all.iter().partition(|&&i| {
                    p.fuses_exactly(&ValueRange::of(
                        x[i * k_len..(i + 1) * k_len].iter().copied(),
                    ))
                });
                if *fp16 && scheme != SchemeSpec::Fp32 {
                    assert_eq!(fused.len(), x_rows, "{shape}: FP16 rows fuse");
                }
                let want = reference_gemm(x, x_rows, &w, k_len, n);
                for &simd in &builds {
                    for rows in [[&[][..], &all[..]], [&fused[..], &split[..]]] {
                        let mut out = vec![f32::NAN; x_rows * n];
                        match &p.layout {
                            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                                p.row_tile(lane, None, x, rows).run_on(simd, &mut out)
                            }
                            Layout::Block(blocks) => match &blocks.codes {
                                Codes::I16(codes) => p
                                    .row_tile(codes, Some(blocks.scales()), x, rows)
                                    .run_on(simd, &mut out),
                                Codes::F32(_) => panic!("{shape} codes fit i16"),
                            },
                        }
                        let what =
                            format!("{simd:?} {shape}, {x_rows} rows, {} fused", rows[0].len());
                        assert_same_values(&out, &want, &what);
                    }
                }
            }
        }
    }

    /// The exact-product guard passes the rows whose products are exact
    /// and only those. Against BBFP(4,2) weights: hook-quantised BBFP(4,2)
    /// rows, FP16 rows and a zero row pass; a row of 24-bit significands
    /// and a finite row whose products pass `f32::MAX` fail.
    /// `blockmf:4,3,8` and `bbfp:10,1` hold `f32` codes, and the guard
    /// counts their weights' significand bits, not their codes'
    /// magnitude, so FP16 rows pass both. The FP16 lane passes FP16 rows;
    /// a dense lane of arbitrary f32 weights passes none.
    #[test]
    fn exact_product_guard_sorts_rows() {
        let range = |row: &[f32]| ValueRange::of(row.iter().copied());
        let (k, n) = (64usize, 64usize);
        let fp16 = quantised(SchemeSpec::Fp16, k, 7);
        let full: Vec<f32> = raw(k, 9)
            .iter()
            .map(|v| f32::from_bits(v.to_bits() | 1))
            .collect();
        let zero = vec![0.0f32; k];

        // Weights near 2^20, so the largest weight exceeds 1.
        let bbfp = SchemeSpec::Bbfp(4, 2);
        let big: Vec<f32> = raw(k * n, 3).iter().map(|v| v * 1048576.0).collect();
        let p = PackedMatrix::pack(&quantise(bbfp, &big), k, n, bbfp);
        assert_eq!(p.layout_kind(), LayoutKind::Block);
        assert!(p.weights.max > 1.0);
        let hooked = quantised(bbfp, k, 5);
        for (name, row) in [("hooked", &hooked), ("fp16", &fp16), ("zero", &zero)] {
            assert!(p.fuses_exactly(&range(row)), "bbfp:4,2 {name} row fuses");
        }
        let hi = p.weights.max;
        // The smallest power of two whose products with the largest
        // weight pass `f32::MAX`: the row itself stays finite.
        let past = vec![2f32.powi(f32::MAX_EXP - hi.log2().floor() as i32); k];
        assert!(range(&past).finite, "the row stays finite");
        assert!(f64::from(past[0]) * f64::from(hi) > f64::from(f32::MAX));
        for (name, row) in [("24-bit", &full), ("past f32::MAX", &past)] {
            assert!(
                !p.fuses_exactly(&range(row)),
                "bbfp:4,2 {name} row does not fuse"
            );
        }

        for scheme in [SchemeSpec::BlockMf(4, 3, 8), SchemeSpec::Bbfp(10, 1)] {
            let w = quantise(
                scheme,
                &raw(k * n, 11)
                    .iter()
                    .map(|v| v * 64.0)
                    .collect::<Vec<f32>>(),
            );
            let p = PackedMatrix::pack(&w, k, n, scheme);
            let Layout::Block(Blocks {
                codes: Codes::F32(codes),
                ..
            }) = &p.layout
            else {
                panic!("{scheme} takes the block layout with f32 codes");
            };
            assert!(
                range(codes).max > f32::from(i16::MAX / 2),
                "{scheme} codes outgrow i16"
            );
            assert!(p.fuses_exactly(&range(&fp16)), "{scheme} fp16 row fuses");
            assert!(
                !p.fuses_exactly(&range(&full)),
                "{scheme} 24-bit row does not fuse"
            );
        }

        let lane = PackedMatrix::pack(
            &quantised(SchemeSpec::Fp16, k * n, 13),
            k,
            n,
            SchemeSpec::Fp16,
        );
        assert!(
            lane.fuses_exactly(&range(&fp16)),
            "the FP16 lane fuses FP16 rows"
        );
        let dense = PackedMatrix::pack(&raw(k * n, 17), k, n, SchemeSpec::Oltron);
        for (name, row) in [("fp16", &fp16), ("zero", &zero)] {
            assert!(
                !dense.fuses_exactly(&range(row)),
                "a dense lane fuses no {name} row"
            );
        }
    }

    /// A dense lane holding a non-finite weight takes no tile: the tile
    /// adds a zero activation's product, and `0·inf` is NaN where the
    /// scalar path skips the term.
    #[test]
    fn non_finite_dense_lanes_keep_the_zero_skip() {
        let mut w = vec![0.5f32; 4 * 16];
        w[16] = f32::INFINITY;
        let p = PackedMatrix::pack(&w, 4, 16, SchemeSpec::Fp32);
        assert_eq!(p.tiled_cols(), 0);
        let x = [1.0f32, 0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0];
        let mut out = vec![f32::NAN; 2 * 16];
        p.gemm(&x, 2, &mut out);
        assert!(out.iter().all(|&v| v == 1.5), "{out:?}");
    }

    /// `(2 − 2⁻²³)·2⁻¹²⁷ / s`: the value whose fold by the block scale
    /// `s` lands just below the normal range, where the f32 product
    /// rounds up to `f32::MIN_POSITIVE`.
    fn just_below_normal(s: f32) -> f32 {
        let a = ((2.0 - f64::from(f32::EPSILON)) * 2f64.powi(-127) / f64::from(s)) as f32;
        assert_eq!(a * s, f32::MIN_POSITIVE, "the f32 fold rounds up");
        assert!(!folds_normal(a, s), "the exact fold is not normal");
        a
    }

    /// The smallest block scale of a block store.
    fn smallest_scale(layout: &Layout) -> f32 {
        let Layout::Block(blocks) = layout else {
            panic!("the block layout");
        };
        blocks.scale.iter().fold(f32::INFINITY, |m, &s| m.min(s))
    }

    /// Activations and probabilities whose fold by the smallest block
    /// scale of a `bbfp:4,2` store lands just below the normal range. The
    /// weight GEMM, which multiplies the exact weight, equals the
    /// reference loop on such a row; the weighted sum's fold guard tests
    /// the exact product, so such probabilities take the exact
    /// `p·(code·2^s)` order and the sum (every build, register and
    /// segment paths) equals the dense loop, bit for bit.
    #[test]
    fn folds_just_below_the_normal_range_take_the_exact_order() {
        let scheme = SchemeSpec::Bbfp(4, 2);
        let (k_len, n) = (4usize, 64usize);
        let w = quantised(scheme, k_len * n, 95);
        let p = PackedMatrix::pack(&w, k_len, n, scheme);
        let a = just_below_normal(smallest_scale(&p.layout));
        let x = [a, a, -a, a, a, 0.5, a, -a];
        let mut got = vec![f32::NAN; 2 * n];
        p.gemm(&x, 2, &mut got);
        assert_same_bits(&got, &reference_gemm(&x, 2, &w, k_len, n), "gemm");

        let mut rows = PackedRows::new(scheme, n);
        for row in w.chunks(n) {
            rows.push_row(row);
        }
        let probs = vec![just_below_normal(smallest_scale(&rows.layout)); k_len];
        for simd in builds() {
            for (c0, dh) in [(0usize, n), (3, 40)] {
                let mut want = vec![0.0f32; dh];
                for (j, &pj) in probs.iter().enumerate() {
                    for (d, o) in want.iter_mut().enumerate() {
                        *o += pj * w[j * n + c0 + d];
                    }
                }
                let mut out = vec![0.0f32; dh];
                let sum = WeightedSum {
                    probs: &probs,
                    rows: &rows,
                    c0,
                    out: &mut out,
                };
                dispatch_on(simd, sum);
                assert_same_bits(&out, &want, &format!("{simd:?} weighted sum c0={c0}"));
            }
        }
    }

    /// Flat row-major block codes, the one order every weight GEMM and
    /// row dot reads, on every block family. A matrix gives its weights
    /// back through `decode()` bit for bit and its row tile covers every
    /// column; `gemm` equals the scalar reference for ordinary rows and
    /// for rows of 2e-38, subnormal, inf and NaN values (NaN matched by
    /// class), which take the tile like any other. The same rows pushed
    /// into a `PackedRows` give the reference sequential dot through
    /// `attn_dot_packed`, over whole rows and over spans that start and
    /// end inside a block.
    #[test]
    fn flat_block_codes_match_the_reference_in_gemm_and_dot() {
        for scheme in [
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Bfp(6),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let group = scheme.block_algebra().unwrap().block_size;
            let (w_rows, n) = (4usize, group * 3);
            let q = quantised(scheme, w_rows * n, 31);
            let p = PackedMatrix::pack(&q, w_rows, n, scheme);
            assert_eq!(p.layout_kind(), LayoutKind::Block, "{scheme} matrix layout");
            assert_eq!(p.tiled_cols(), n, "{scheme} matrix tiles every column");
            assert_same_bits(&p.decode(), &q, &format!("{scheme} decode"));

            let ordinary = quantised(SchemeSpec::Fp16, 2 * w_rows, 41);
            let mut x = ordinary[..w_rows].to_vec();
            for bad in [2e-38, f32::from_bits(1), f32::INFINITY, f32::NAN] {
                x.extend((0..w_rows).map(|k| if k == 1 { bad } else { 0.5 }));
            }
            x.extend_from_slice(&ordinary[w_rows..]);
            let x_rows = x.len() / w_rows;
            let want = reference_gemm(&x, x_rows, &q, w_rows, n);
            let mut got = vec![f32::NAN; x_rows * n];
            p.gemm(&x, x_rows, &mut got);
            assert_same_values(&got, &want, &format!("{scheme} gemm"));

            let mut rows = PackedRows::new(scheme, n);
            for r in 0..w_rows {
                rows.push_row(&q[r * n..(r + 1) * n]);
            }
            assert_eq!(
                rows.layout_kind(),
                LayoutKind::Block,
                "{scheme} rows layout"
            );
            let x = quantised(SchemeSpec::Fp16, n, 37);
            for r in 0..w_rows {
                let w_row = &q[r * n..(r + 1) * n];
                let dot = |c0: usize, c1: usize| {
                    let mut acc = 0.0f32;
                    for (xv, wv) in x[c0..c1].iter().zip(&w_row[c0..c1]) {
                        acc += xv * wv;
                    }
                    acc
                };
                for (c0, c1) in [(0, n), (group / 2, n), (1, n - 3), (group, 2 * group)] {
                    let got = attn_dot_packed(&x[c0..c1], &rows, r, c0);
                    assert_eq!(
                        got.to_bits(),
                        dot(c0, c1).to_bits(),
                        "{scheme} flat row {r} span {c0}..{c1}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_rows_round_trip_and_capacity() {
        let schemes = [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ];
        for scheme in schemes {
            let bs = scheme.block_algebra().unwrap();
            let width = bs.block_size * 2;
            let mut rows = PackedRows::new(scheme, width);
            assert_eq!(rows.layout_kind(), LayoutKind::Block, "{scheme}");
            let mut all = Vec::new();
            for r in 0..5 {
                let q = quantised(scheme, width, 100 + r);
                rows.push_row(&q);
                all.extend_from_slice(&q);
            }
            assert_eq!(rows.rows(), 5);
            assert_eq!(rows.layout_kind(), LayoutKind::Block, "{scheme}");
            let dense = rows.to_dense();
            let same = dense
                .iter()
                .zip(&all)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{scheme} round trip");
            assert_eq!(rows.get(3, 1).to_bits(), all[3 * width + 1].to_bits());
            // A full buffer of quantised rows occupies exactly its
            // capacity, and a block scheme stores ≤ 0.5× the f32 bytes.
            assert_eq!(
                rows.packed_bytes(),
                packed_rows_capacity_bytes(scheme, width, 5),
                "{scheme} capacity"
            );
            assert!(
                packed_rows_capacity_bytes(scheme, width, 5) * 2 <= 5 * width * 4,
                "{scheme} ≤ 0.5× f32 bytes"
            );
        }
    }

    /// A copy-on-write copy of a partly filled page holds the same rows
    /// bit for bit in the same layout, in buffers allocated once at the
    /// requested row count — block codes and scales, a dense lane, and a
    /// lane demoted from the block layout alike — and filling it up to
    /// that count grows nothing.
    #[test]
    fn packed_rows_copy_is_one_allocation_at_full_capacity() {
        let unquantised: Vec<f32> = (0..64).map(|i| 0.1 + i as f32 * 1e-3).collect();
        let cases = [
            (SchemeSpec::Bbfp(4, 2), false),
            (SchemeSpec::Mx(8, 4, 2), false),
            (SchemeSpec::BlockMf(4, 3, 8), false),
            (SchemeSpec::Bfp(4), true),
            (SchemeSpec::Fp32, false),
        ];
        for (scheme, demote) in cases {
            let width = 64;
            let mut rows = PackedRows::new(scheme, width);
            for r in 0..3 {
                rows.push_row(&quantised(scheme, width, 7 + r));
            }
            if demote {
                rows.push_row(&unquantised);
            }
            let copy = rows.copy_with_capacity(8);
            assert_eq!(copy.rows(), rows.rows(), "{scheme}");
            assert_eq!(copy.layout_kind(), rows.layout_kind(), "{scheme}");
            let bits =
                |r: &PackedRows| r.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&copy), bits(&rows), "{scheme} contents");
            assert_eq!(copy.capacity(), 8, "{scheme} capacity");
            match &copy.layout {
                Layout::Block(blocks) => {
                    assert_eq!(blocks.codes.capacity(), 8 * width, "{scheme} codes");
                    let scales = (8 * width).div_ceil(blocks.group());
                    assert_eq!(blocks.scale.capacity(), scales, "{scheme} scales");
                }
                Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                    assert_eq!(lane.capacity(), 8 * width, "{scheme} lane");
                }
            }
            let mut filled = copy;
            while filled.rows() < 8 {
                filled.push_row(&quantised(scheme, width, 40 + filled.rows() as u64));
            }
            assert_eq!(filled.capacity(), 8, "{scheme} grew while filling");
        }
    }

    /// The capacity a KV arena charges equals the closed-form bit count
    /// of the pushed rows' chunks, which on whole blocks is the
    /// algebra's cost model.
    #[test]
    fn packed_rows_capacity_matches_actual_bits() {
        for scheme in [SchemeSpec::Bbfp(4, 2), SchemeSpec::Mx(8, 4, 2)] {
            let alg = scheme.block_algebra().unwrap();
            let width = alg.block_size;
            let mut rows = PackedRows::new(scheme, width);
            let mut bit_len = 0;
            for r in 0..3 {
                let row = quantised(scheme, width, 7 + r);
                rows.push_row(&row);
                bit_len += closed_form_bits(&alg, width);
                assert_eq!(
                    bit_len as u64,
                    alg.cost().total_bits((r as usize + 1) * width)
                );
            }
            assert_eq!(rows.packed_bits(), bit_len, "{scheme} bits");
            assert_eq!(
                bit_len.div_ceil(8),
                packed_rows_capacity_bytes(scheme, width, 3),
                "{scheme}"
            );
        }
    }

    #[test]
    fn packed_rows_demotes_exactly_on_unquantised_rows() {
        let scheme = SchemeSpec::Bfp(4);
        let mut rows = PackedRows::new(scheme, 32);
        let q = quantised(scheme, 32, 3);
        rows.push_row(&q);
        let raw: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        rows.push_row(&raw);
        assert_eq!(rows.layout_kind(), LayoutKind::Dense);
        let dense = rows.to_dense();
        let expect: Vec<f32> = q.iter().chain(&raw).copied().collect();
        let same = dense
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "demotion must reconstruct prior rows exactly");
        assert_eq!(rows.packed_bits(), 2 * 32 * 32);
    }

    #[test]
    fn packed_rows_non_block_and_ragged_widths_stay_dense() {
        assert_eq!(
            PackedRows::new(SchemeSpec::Fp32, 8).layout_kind(),
            LayoutKind::Dense
        );
        assert_eq!(
            PackedRows::new(SchemeSpec::Oltron, 32).layout_kind(),
            LayoutKind::Dense
        );
        // Width not a whole number of blocks: dense.
        assert_eq!(
            PackedRows::new(SchemeSpec::Bfp(4), 33).layout_kind(),
            LayoutKind::Dense
        );
        assert_eq!(packed_rows_capacity_bytes(SchemeSpec::Fp32, 8, 2), 64);
        assert_eq!(packed_rows_capacity_bytes(SchemeSpec::Bfp(4), 33, 2), 264);
    }

    /// `rows` quantised `width`-wide rows of `scheme` whose every fifth
    /// column is `-0` and every seventh (otherwise) `+0`.
    fn signed_zero_rows(scheme: SchemeSpec, rows: usize, width: usize, seed: u64) -> Vec<f32> {
        let mut values = raw(rows * width, seed);
        for (i, v) in values.iter_mut().enumerate() {
            match i % width {
                c if c.is_multiple_of(5) => *v = -0.0,
                c if c.is_multiple_of(7) => *v = 0.0,
                _ => {}
            }
        }
        quantise(scheme, &values)
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// Both attention kernels over `rows` against the dense loops over
    /// `dense`, on aligned and ragged head spans: queries and
    /// probabilities finite or holding `±inf`/NaN, and an `out` seeded
    /// with `+0` or with `-0`s (which the `-0` columns of
    /// [`signed_zero_rows`] leave `-0` in the dense loop).
    fn check_attention(rows: &PackedRows, dense: &[f32], what: &str) {
        let (width, n_rows) = (rows.width(), rows.rows());
        let with_each_non_finite = |finite: Vec<f32>, at: usize| {
            let mut sets = vec![finite.clone()];
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut v = finite.clone();
                v[at] = bad;
                sets.push(v);
            }
            sets
        };
        // Signed probabilities, which the API accepts, and softmax-like
        // nonnegative ones, under which a `-0` column of V keeps a `-0`
        // seed `-0` in the dense loop.
        let signed = quantised(SchemeSpec::Fp16, n_rows, 77);
        let nonnegative: Vec<f32> = signed.iter().map(|p| p.abs()).collect();
        assert!(
            signed.iter().any(|p| *p < 0.0),
            "{what}: some probability is negative"
        );
        let mut prob_sets = with_each_non_finite(signed, n_rows / 2);
        prob_sets.extend(with_each_non_finite(nonnegative, n_rows / 2));
        let spans = [
            (0usize, 16usize),
            (16, 16),
            (48, 16),
            (0, 32),
            (32, 32),
            (8, 48),
            (40, 24),
        ];
        for (c0, dh) in spans {
            let v = |j: usize, d: usize| dense[j * width + c0 + d];
            for q in with_each_non_finite(quantised(SchemeSpec::Fp16, dh, 81), dh / 3) {
                for j in 0..n_rows {
                    let mut reference = 0.0f32;
                    for (d, qv) in q.iter().enumerate() {
                        reference += qv * v(j, d);
                    }
                    let got = attn_dot_packed(&q, rows, j, c0);
                    let msg = format!("{what} dot c0={c0} dh={dh} j={j} q={q:?}");
                    assert_eq!(got.to_bits(), reference.to_bits(), "{msg}");
                }
            }
            let out_seeds = [
                vec![0.0f32; dh],
                (0..dh)
                    .map(|d| if d.is_multiple_of(3) { 1.5 } else { -0.0 })
                    .collect(),
            ];
            for probs in &prob_sets {
                for seed in &out_seeds {
                    let mut reference = seed.clone();
                    for (j, &p) in probs.iter().enumerate() {
                        for (d, rv) in reference.iter_mut().enumerate() {
                            *rv += p * v(j, d);
                        }
                    }
                    let block = rows.layout_kind() == LayoutKind::Block;
                    let softmax_like = probs.iter().all(|p| p.is_finite() && *p >= 0.0);
                    if block && softmax_like && seed[1].is_sign_negative() {
                        let kept = reference.iter().any(|r| r.to_bits() == (-0.0f32).to_bits());
                        assert!(kept, "{what} c0={c0}: a -0 seed survives the dense loop");
                    }
                    let mut out = seed.clone();
                    attn_weighted_sum_packed(probs, rows, c0, &mut out);
                    let msg = format!("{what} weighted sum c0={c0} dh={dh} probs={probs:?}");
                    assert_same_bits(&out, &reference, &msg);
                }
            }
        }
    }

    /// The attention kernels equal the dense loops on every block family
    /// and two dense schemes, over rows with `±0` columns; then over a
    /// `bbfp:10,1` buffer whose codes widen from `i16` to `f32` part way
    /// (zero rows first, then rows with flagged codes past `i16`), and
    /// the same buffer after a row no code reproduces demotes it.
    #[test]
    fn attn_kernels_match_dense_reference_aligned_and_ragged() {
        let width = 64usize;
        for scheme in [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
            SchemeSpec::Fp32,
            SchemeSpec::Oltron,
        ] {
            let dense = signed_zero_rows(scheme, 7, width, 50);
            assert!(
                dense.iter().any(|v| v.to_bits() == (-0.0f32).to_bits()),
                "{scheme} keeps -0 values"
            );
            let mut rows = PackedRows::new(scheme, width);
            for row in dense.chunks(width) {
                rows.push_row(row);
            }
            let kind = match scheme.block_algebra() {
                Some(_) => LayoutKind::Block,
                None => LayoutKind::Dense,
            };
            assert_eq!(rows.layout_kind(), kind, "{scheme}");
            check_attention(&rows, &dense, &scheme.to_string());
        }

        let scheme = SchemeSpec::Bbfp(10, 1);
        let mut rows = PackedRows::new(scheme, width);
        let zeros: Vec<f32> = (0..2 * width)
            .map(|i| {
                if (i % width).is_multiple_of(5) {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut dense = zeros.clone();
        dense.extend(signed_zero_rows(scheme, 5, width, 60));
        for row in dense.chunks(width) {
            let narrow = matches!(
                &rows.layout,
                Layout::Block(Blocks {
                    codes: Codes::I16(_),
                    ..
                })
            );
            assert_eq!(narrow, rows.rows() < 3, "i16 codes until row 3");
            rows.push_row(row);
        }
        assert!(matches!(
            &rows.layout,
            Layout::Block(Blocks {
                codes: Codes::F32(_),
                ..
            })
        ));
        assert_same_bits(&rows.to_dense(), &dense, "bbfp:10,1 widened");
        check_attention(&rows, &dense, "bbfp:10,1 widened");
        let foreign = raw(width, 61);
        rows.push_row(&foreign);
        dense.extend_from_slice(&foreign);
        assert_eq!(rows.layout_kind(), LayoutKind::Dense);
        assert_same_bits(&rows.to_dense(), &dense, "bbfp:10,1 demoted");
        check_attention(&rows, &dense, "bbfp:10,1 demoted");
    }

    /// Every build of the attention page kernel and the weighted sum this
    /// CPU runs — AVX-512, AVX2 and portable — called directly, so each
    /// is pinned whichever one `dispatch` picks on this host: `i16` and
    /// `f32` block codes and a dense lane with `±0` columns, key-minor
    /// and row-major pages, aligned and ragged head spans, the scores of
    /// every run of keys, ordinary and `±inf`/NaN queries, ordinary
    /// probabilities and a tail whose folds leave the normal range, and
    /// `out` seeded with `+0` or with `-0`s, against the dense loops, bit
    /// for bit.
    #[test]
    fn every_attention_build_matches_the_dense_loops() {
        let (width, tokens) = (64usize, 19usize);
        let ordinary: Vec<f32> = quantised(SchemeSpec::Fp16, tokens, 91)
            .iter()
            .map(|p| p.abs())
            .collect();
        let tail: Vec<f32> = ordinary
            .iter()
            .enumerate()
            .map(|(j, p)| p * 2f32.powi(-118 - j as i32))
            .collect();
        let seeds = |dh: usize| {
            [
                vec![0.0f32; dh],
                (0..dh)
                    .map(|d| if d.is_multiple_of(3) { 1.5 } else { -0.0 })
                    .collect::<Vec<f32>>(),
            ]
        };
        for scheme in [
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bfp(4),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
            SchemeSpec::Fp32,
        ] {
            let dense = signed_zero_rows(scheme, tokens, width, 90);
            let mut row_major = PackedRows::new(scheme, width);
            let mut key_minor = PackedRows::key_minor(scheme, width, tokens);
            for row in dense.chunks(width) {
                row_major.push_row(row);
                key_minor.push_row(row);
            }
            let v = |j: usize, col: usize| dense[j * width + col];
            for simd in builds() {
                for (c0, dh) in [(0usize, width), (16, 32), (8, 48), (3, 20)] {
                    let what = format!("{simd:?} {scheme} c0={c0} dh={dh}");
                    let q = quantised(SchemeSpec::Fp16, dh, 93);
                    for bad in [None, Some(f32::INFINITY), Some(f32::NAN)] {
                        let mut q = q.clone();
                        if let Some(bad) = bad {
                            q[dh / 3] = bad;
                        }
                        let want: Vec<f32> = (0..tokens)
                            .map(|j| {
                                let mut acc = 0.0f32;
                                for (d, qd) in q.iter().enumerate() {
                                    acc += qd * v(j, c0 + d);
                                }
                                acc
                            })
                            .collect();
                        for j0 in 0..tokens {
                            for j1 in j0..=tokens {
                                let mut out = vec![f32::NAN; j1 - j0];
                                let scores = KeyScores {
                                    q: &q,
                                    rows: &key_minor,
                                    tokens,
                                    j0,
                                    c0,
                                    out: &mut out,
                                };
                                dispatch_on(simd, scores);
                                let msg = format!("{what} scores {j0}..{j1} {bad:?}");
                                assert_same_bits(&out, &want[j0..j1], &msg);
                            }
                        }
                    }
                    for probs in [&ordinary, &tail] {
                        for seed in seeds(dh) {
                            let mut want = seed.clone();
                            for (j, &p) in probs.iter().enumerate() {
                                for (d, o) in want.iter_mut().enumerate() {
                                    *o += p * v(j, c0 + d);
                                }
                            }
                            for rows in [&row_major, &key_minor] {
                                let mut out = seed.clone();
                                let sum = WeightedSum {
                                    probs,
                                    rows,
                                    c0,
                                    out: &mut out,
                                };
                                dispatch_on(simd, sum);
                                let order = if rows.is_key_minor() {
                                    "key-minor"
                                } else {
                                    "row-major"
                                };
                                let msg = format!(
                                    "{what} {order} weighted sum, -0 seed {}",
                                    seed[1].is_sign_negative()
                                );
                                assert_same_bits(&out, &want, &msg);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A page fed raw rows through the one-pass encoder widens its codes
    /// from `i16` to `f32` at the same row as a page fed the quantised
    /// rows: `bbfp:10,1` zero rows, then rows whose flagged codes outgrow
    /// `i16`.
    #[test]
    fn quantized_rows_widen_at_the_same_row() {
        let scheme = SchemeSpec::Bbfp(10, 1);
        let alg = scheme.block_algebra().unwrap();
        let width = 64;
        let (mut once, mut twice) = (
            PackedRows::new(scheme, width),
            PackedRows::new(scheme, width),
        );
        let narrow = |rows: &PackedRows| {
            matches!(
                &rows.layout,
                Layout::Block(Blocks {
                    codes: Codes::I16(_),
                    ..
                })
            )
        };
        let mut rows = vec![vec![0.0f32; width]; 2];
        rows.extend((0..3).map(|r| raw(width, 90 + r)));
        for (r, row) in rows.iter().enumerate() {
            once.push_quantized_row(row, &alg);
            twice.push_row(&quantise(scheme, row));
            assert_eq!(narrow(&once), r < 2, "one pass: i16 codes until row 2");
            assert_eq!(narrow(&twice), r < 2, "two steps: i16 codes until row 2");
        }
        assert_same_bits(&once.to_dense(), &twice.to_dense(), "bbfp:10,1 pages");
    }
}
