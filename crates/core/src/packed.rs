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
//! When every block starts a row and is a multiple of 16 columns wide
//! (every decoder matrix), codes are stored **tile-major** —
//! `[16-column tile][k][16]`, scales `[block column][k]` — so the row
//! tile of [`PackedMatrix::gemm_cols`] streams one contiguous strip per
//! column tile; other (ragged) shapes keep the flat row-major order.
//!
//! A [`PackedRows`] buffer (a KV-cache page) is the same store: element
//! codes plus one folded scale per block, written by the same chunk
//! encoder as each row is appended and read by the same run walk. It
//! grows row by row, so its codes stay in flat row-major order whatever
//! its width; the order is recorded with the codes, never re-derived
//! from the shape.
//!
//! The kernels exploit the factoring: the [`PackedMatrix`] GEMMs fold
//! the block scale into the broadcast activation (`a·2^s` is exact — a
//! power-of-two scale only shifts the exponent) and widen each code to
//! f32 in registers, so the inner loop is a plain multiply-accumulate
//! over the codes. No per-element f32 re-quantisation happens anywhere
//! on the hot path.
//!
//! ## The bit-identity invariant
//!
//! Every kernel here is **bit-identical** to the scalar f32 reference
//! path (`Tensor::matmul` over the decoded weights) by construction:
//!
//! * decoding is exact: `code × scale` is a representable f32 (it *is*
//!   the stored weight), and `pack()` checks that for every element;
//! * power-of-two scaling commutes with rounding: `fl(a·(code·2^s)) =
//!   fl((a·2^s)·code)` whenever `a·2^s` is an exact, normal f32 — the
//!   GEMMs check this per activation row (see below) — because both
//!   sides round the same real product `a·w`;
//! * accumulation order is preserved: the GEMMs accumulate each output
//!   element in ascending-`k` order with the same `a == 0.0` skip as the
//!   reference i-k-j loop;
//! * signed zeros cannot show: every sum starts at `+0`, and adding a
//!   `±0` term to a sum that is not `-0` leaves its bits unchanged. So
//!   reading a `-0` weight as `+0` changes nothing, and neither does the
//!   row tile of [`PackedMatrix::gemm_cols`], which adds a zero
//!   activation's `±0·code` instead of skipping it (every code is
//!   finite). A `±inf`/NaN
//!   activation meets the weight in the scalar order below, where
//!   `inf·±0` is the same invalid-operation NaN either way.
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
//! The activation side needs `a·2^s` to stay a normal f32. The folding
//! GEMMs ([`PackedMatrix::gemm`], [`PackedMatrix::gemm_cols`]) check
//! that once per activation row: the row's
//! smallest nonzero and largest magnitude against the matrix's smallest
//! and largest (folded) block scale, recorded at pack time. A row that
//! would leave the normal range, or that holds ±inf/NaN, takes the
//! scalar `a·(code·2^s)` order instead, which multiplies the exact
//! weight. So the weight GEMMs are bit-identical to the scalar path for
//! every input, and so are the attention kernels. The dot kernel
//! ([`attn_dot_packed`]) never folds: its `x` varies per term, so
//! `x·(code·2^s)` costs the same two multiplies and multiplies the exact
//! value. [`attn_weighted_sum_packed`]
//! folds the scale into each broadcast probability only for a run where
//! `p·2^s` is exact (`p` zero, or `p·2^s` a normal f32), and takes the
//! `p·(code·2^s)` order elsewhere; it also adds into the caller's
//! output, which may hold a `-0`, and a call that finds one takes the
//! exact order throughout, since there a `-0` value read as `+0` would
//! flip the sum's sign.

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

    /// How many codes fit without growing the buffer.
    fn capacity(&self) -> usize {
        match self {
            Codes::I16(codes) => codes.capacity(),
            Codes::F32(codes) => codes.capacity(),
        }
    }
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
}

impl Code for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    fn weight(self, scale: f32) -> f32 {
        self * scale
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
        /// of skipping it ([`PackedMatrix::tile_span`]). Only matrices
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
    /// One element code per value, in the order `tiled` names.
    codes: Codes,
    /// One power-of-two scale (with the code shift folded in) per
    /// `group`-element block of the flat row-major buffer (final block
    /// may be ragged): `[block column][k]` when tiled, in flat block
    /// order otherwise.
    scale: Vec<f32>,
    /// The smallest and largest entry of `scale`, for the per-row range
    /// guard of the weight GEMMs ([`PackedMatrix::folds_exactly`]);
    /// unread for KV pages, whose attention kernels check each fold.
    scale_range: (f32, f32),
    /// Whether codes and scales are tile-major ([`tile_major`]). Set
    /// when a matrix is laid out, never derived from the shape: a
    /// buffer that grows row by row stays flat whatever its width.
    tiled: bool,
}

impl Blocks {
    /// An empty flat store of `alg`'s codes, `i16` until one does not
    /// fit, with room for `values` codes and their blocks' scales.
    fn with_capacity(alg: FormatAlgebra, values: usize) -> Blocks {
        Blocks {
            alg,
            codes: Codes::I16(Vec::with_capacity(values)),
            scale: Vec::with_capacity(values.div_ceil(alg.block_size)),
            scale_range: (f32::INFINITY, 0.0),
            tiled: false,
        }
    }

    /// The scheme's block size.
    fn group(&self) -> usize {
        self.alg.block_size
    }

    /// [`Layout::decode`] over this store's `codes`.
    fn decode<C: Code>(&self, codes: &[C], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows * cols);
        for k in 0..rows {
            for run in self.runs(rows, cols, k, 0, cols) {
                let s = self.scale[run.scale];
                out.extend(run.codes(codes).iter().map(|c| c.weight(s)));
            }
        }
        out
    }

    /// The chunk encoder over raw values: one pass of the block encoder
    /// over one chunk (a full block or a ragged tail) writes its
    /// dequantised values into `out` and appends its codes and folded
    /// scale. Returns `false`, appending nothing, for a chunk holding a
    /// NaN (its values keep the NaN, which no code holds) or a chunk the
    /// store refuses ([`Blocks::push_codes`]); `out` is written either
    /// way.
    fn push_raw(&mut self, raw: &[f32], out: &mut [f32]) -> bool {
        let n = raw.len();
        let (mut fp16, mut codes) = ([Fp16::ZERO; MAX_STORE_BLOCK], [0.0f32; MAX_STORE_BLOCK]);
        let (e, nan) = encode_chunk(raw, &self.alg, &mut fp16[..n], out, &mut codes[..n]);
        !nan && self.push_codes(&codes[..n], e, out)
    }

    /// The chunk encoder over **already quantised** values (what `pack`
    /// and `push_row` are given): re-encodes one chunk and appends its
    /// codes and folded scale if they give the values back. Returns
    /// `false`, appending nothing, for a non-finite value or a chunk the
    /// store refuses.
    fn push_quantised(&mut self, values: &[f32]) -> bool {
        if values.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let n = values.len();
        let mut fp16 = [Fp16::ZERO; MAX_STORE_BLOCK];
        let (mut requantised, mut codes) = ([0.0f32; MAX_STORE_BLOCK], [0.0f32; MAX_STORE_BLOCK]);
        let (e, _) = encode_chunk(
            values,
            &self.alg,
            &mut fp16[..n],
            &mut requantised[..n],
            &mut codes[..n],
        );
        self.push_codes(&codes[..n], e, values)
    }

    /// Appends one chunk's codes and its folded scale `2^e`, as the block
    /// encoder gives them, when they give `values` back bit for bit and
    /// the scale is normal. Returns `false`, appending nothing,
    /// otherwise.
    fn push_codes(&mut self, codes: &[f32], e: i32, values: &[f32]) -> bool {
        let s = exp2i(e);
        let exact = codes
            .iter()
            .zip(values)
            .all(|(c, v)| c.weight(s).to_bits() == v.to_bits());
        if !s.is_normal() || !exact {
            return false;
        }
        self.codes.extend(codes);
        self.scale.push(s);
        self.scale_range = (self.scale_range.0.min(s), self.scale_range.1.max(s));
        true
    }

    /// The finished store of a `rows × cols` matrix: codes and scales
    /// reordered tile-major when [`tile_major`] holds.
    fn laid_out(mut self, rows: usize, cols: usize) -> Layout {
        if tile_major(cols, self.group()) {
            self.codes = match &self.codes {
                Codes::I16(c) => Codes::I16(strip_major(c, rows, cols, TILE_COLS)),
                Codes::F32(c) => Codes::F32(strip_major(c, rows, cols, TILE_COLS)),
            };
            self.scale = strip_major(&self.scale, rows, cols / self.group(), 1);
            self.tiled = true;
        }
        Layout::Block(self)
    }

    /// Row `k`'s columns `[c0, c1)` of a `rows × cols` store, as runs
    /// that share one block scale and lie contiguous in the code buffer.
    /// Block sizes are powers of two ([`FormatAlgebra::validate`]), so
    /// block indices are shifts and masks, not divisions.
    fn runs(
        &self,
        rows: usize,
        cols: usize,
        k: usize,
        c0: usize,
        c1: usize,
    ) -> impl Iterator<Item = Run> {
        let (group, tiled) = (self.group(), self.tiled);
        debug_assert!(group.is_power_of_two(), "block size {group}");
        let log2 = group.trailing_zeros();
        let mut j = c0;
        std::iter::from_fn(move || {
            if j >= c1 {
                return None;
            }
            let j0 = j;
            let run = if tiled {
                let t = j0 / TILE_COLS;
                j = c1.min((t + 1) * TILE_COLS);
                Run {
                    j0,
                    j1: j,
                    code: (t * rows + k) * TILE_COLS + j0 % TILE_COLS,
                    scale: (j0 >> log2) * rows + k,
                }
            } else {
                let flat = k * cols + j0;
                j = c1.min(j0 + group - (flat & (group - 1)));
                Run {
                    j0,
                    j1: j,
                    code: flat,
                    scale: flat >> log2,
                }
            };
            Some(run)
        })
    }
}

/// Whether a matrix `cols` wide with `group`-element blocks stores its
/// codes tile-major: every block then starts a row and covers whole
/// [`TILE_COLS`]-wide column tiles, so one tile lies inside one block of
/// every weight row.
fn tile_major(cols: usize, group: usize) -> bool {
    cols.is_multiple_of(group) && group.is_multiple_of(TILE_COLS)
}

/// A row-major `rows × cols` buffer as `[cols / width strips][rows][width]`.
fn strip_major<T: Copy>(flat: &[T], rows: usize, cols: usize, width: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(flat.len());
    for j in (0..cols).step_by(width) {
        for k in 0..rows {
            out.extend_from_slice(&flat[k * cols + j..k * cols + j + width]);
        }
    }
    out
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
}

impl PackedMatrix {
    /// Packs an **already quantised** `rows × cols` row-major matrix
    /// into `scheme`'s native layout.
    ///
    /// Block schemes ([`SchemeSpec::block_algebra`]) get the block
    /// layout, FP16 the binary16 layout; every other scheme — and any
    /// input the block layout cannot reproduce bit-for-bit (e.g.
    /// values that did not come from this scheme's quantiser) — falls
    /// back to a dense f32 lane, so the weight side of the GEMM
    /// bit-identity invariant never depends on the encoder; the
    /// activation side is covered by the kernels' per-row range guard.
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
                    let lane = values.into_owned();
                    let layout = Layout::Fp16 { bits, lane };
                    return PackedMatrix {
                        rows,
                        cols,
                        scheme,
                        layout,
                    };
                }
                None => None,
            },
            _ => store_algebra(scheme).and_then(|alg| {
                let mut blocks = Blocks::with_capacity(alg, values.len());
                let stored = values
                    .chunks(alg.block_size)
                    .all(|chunk| blocks.push_quantised(chunk));
                stored.then(|| blocks.laid_out(rows, cols))
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
        let layout = stored.then(|| blocks.laid_out(rows, cols));
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
    /// failing one keeps `values` as a dense lane.
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
        let layout = match layout {
            Some(layout) if !matches!(layout, Layout::Block(_)) || same(&layout) => layout,
            _ => Layout::Dense {
                finite: values.iter().all(|v| v.is_finite()),
                lane: values.into_owned(),
            },
        };
        PackedMatrix {
            rows,
            cols,
            scheme,
            layout,
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
    /// output element, `a == 0.0` rows skipped).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.rows` or
    /// `out.len() != x_rows * self.cols`.
    pub fn gemm(&self, x: &[f32], x_rows: usize, out: &mut [f32]) {
        self.gemm_cols(x, x_rows, 0, self.cols, out);
    }

    /// As [`PackedMatrix::gemm`], but computes only output columns
    /// `[c0, c1)`, written *compactly* into `out` (an
    /// `x_rows × (c1−c0)` row-major buffer) — the unit of work a worker
    /// pool splits a GEMM into, each worker owning a private output
    /// strip. Any partition of `0..cols` reproduces
    /// [`PackedMatrix::gemm`] exactly, because each output element is
    /// owned by exactly one range and accumulated in the same `k`
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.rows`,
    /// `out.len() != x_rows * (c1 - c0)`, or the range is invalid.
    pub fn gemm_cols(&self, x: &[f32], x_rows: usize, c0: usize, c1: usize, out: &mut [f32]) {
        assert!(c0 < c1 && c1 <= self.cols, "bad column range {c0}..{c1}");
        assert_eq!(x.len(), x_rows * self.rows, "x shape mismatch");
        assert_eq!(out.len(), x_rows * (c1 - c0), "out shape mismatch");
        let cols = Cols { x, x_rows, c0, c1 };
        match &self.layout {
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                self.lane_gemm(lane, cols, out)
            }
            Layout::Block(blocks) => match &blocks.codes {
                Codes::I16(codes) => self.block_gemm(blocks, codes, cols, out),
                Codes::F32(codes) => self.block_gemm(blocks, codes, cols, out),
            },
        }
    }

    /// [`PackedMatrix::gemm_cols`] over a dense or FP16 lane: on AVX2
    /// hosts two or more rows share every lane load in the row tile over
    /// [`PackedMatrix::tile_span`]; the rest of each row (and every row
    /// elsewhere) takes the one-row kernel.
    fn lane_gemm(&self, lane: &[f32], cols: Cols<'_>, out: &mut [f32]) {
        let Cols { x, x_rows, c0, c1 } = cols;
        let (k_len, n, width) = (self.rows, self.cols, c1 - c0);
        let mut tile_end = c0;
        if x_rows >= 2 && RowTile::<f32>::supported() {
            let rows: Vec<usize> = (0..x_rows).collect();
            let tile = self.lane_tile(lane, cols, &rows);
            tile_end = tile.tiles.end;
            tile.run(out);
        }
        if tile_end == c1 {
            return;
        }
        for i in 0..x_rows {
            let out_row = &mut out[i * width + (tile_end - c0)..(i + 1) * width];
            out_row.fill(0.0);
            axpy_dense(
                &x[i * k_len..(i + 1) * k_len],
                lane,
                n,
                tile_end,
                c1,
                out_row,
            );
        }
    }

    /// [`PackedMatrix::gemm_cols`] over block codes. Guard-passing rows
    /// take the row tile over [`PackedMatrix::tile_span`] (every row
    /// count, one row included); the columns the tile leaves, and every
    /// row the range guard rejects, walk each weight row's runs, folding
    /// the scale into the activation when the guard allows and in the
    /// scalar `a·(code·2^s)` order when it does not.
    fn block_gemm<C: Code>(&self, blocks: &Blocks, codes: &[C], cols: Cols<'_>, out: &mut [f32]) {
        let Cols { x, x_rows, c0, c1 } = cols;
        let (k_len, width) = (self.rows, c1 - c0);
        let x_row = |i: usize| &x[i * k_len..(i + 1) * k_len];
        let folds: Vec<bool> = (0..x_rows).map(|i| self.folds_exactly(x_row(i))).collect();
        let rows: Vec<usize> = (0..x_rows).filter(|&i| folds[i]).collect();
        let tile = self.block_tile(blocks, codes, cols, &rows);
        let span = tile.tiles.clone();
        if !span.is_empty() {
            tile.run(out);
        }
        for (i, &folds) in folds.iter().enumerate() {
            let walks = if folds {
                [c0..span.start, span.end..c1]
            } else {
                [c0..c1, c1..c1]
            };
            let out_row = &mut out[i * width..(i + 1) * width];
            for walk in walks.into_iter().filter(|w| !w.is_empty()) {
                let out_part = &mut out_row[walk.start - c0..walk.end - c0];
                out_part.fill(0.0);
                for (k, &a) in x_row(i).iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for run in blocks.runs(self.rows, self.cols, k, walk.start, walk.end) {
                        let s = blocks.scale[run.scale];
                        let o = out_part[run.j0 - walk.start..run.j1 - walk.start].iter_mut();
                        if folds {
                            let a_s = a * s;
                            for (ov, cv) in o.zip(run.codes(codes)) {
                                *ov += a_s * cv.widen();
                            }
                        } else {
                            for (ov, cv) in o.zip(run.codes(codes)) {
                                *ov += a * (cv.widen() * s);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The row tile of `rows` over a row-major lane.
    fn lane_tile<'a>(
        &self,
        lane: &'a [f32],
        cols: Cols<'a>,
        rows: &'a [usize],
    ) -> RowTile<'a, f32> {
        RowTile {
            cols,
            k_len: self.rows,
            rows,
            codes: lane,
            col_stride: 1,
            k_stride: self.cols,
            scale: None,
            tiles: self.tile_span(cols.c0, cols.c1),
        }
    }

    /// The row tile of `rows` over tile-major block codes.
    fn block_tile<'a, C>(
        &self,
        blocks: &'a Blocks,
        codes: &'a [C],
        cols: Cols<'a>,
        rows: &'a [usize],
    ) -> RowTile<'a, C> {
        RowTile {
            cols,
            k_len: self.rows,
            rows,
            codes,
            col_stride: self.rows,
            k_stride: TILE_COLS,
            scale: Some((&blocks.scale, blocks.group())),
            tiles: self.tile_span(cols.c0, cols.c1),
        }
    }

    /// The output columns of `[c0, c1)` the row tile covers, in whole
    /// [`TILE_COLS`]-wide tiles. A tile-major block layout covers every
    /// whole tile inside the range (a worker's range is block-aligned,
    /// so that is all of it); a dense or FP16 lane tiles from `c0`, and
    /// only when every weight is finite (the tile adds a zero
    /// activation's `±0` product rather than skipping it, which is
    /// exact only against a finite weight). Empty when the layout admits
    /// no tile.
    fn tile_span(&self, c0: usize, c1: usize) -> std::ops::Range<usize> {
        match &self.layout {
            Layout::Dense { finite: true, .. } | Layout::Fp16 { .. } => {
                c0..c0 + (c1 - c0) / TILE_COLS * TILE_COLS
            }
            Layout::Block(Blocks { tiled: true, .. }) => {
                let (start, end) = (c0.next_multiple_of(TILE_COLS), c1 / TILE_COLS * TILE_COLS);
                if start < end {
                    start..end
                } else {
                    c0..c0
                }
            }
            Layout::Dense { finite: false, .. } | Layout::Block(_) => c0..c0,
        }
    }

    /// The per-row range guard of the scale-folding kernels: true when
    /// every `a·2^s` — any activation of `x_row` times any block scale of
    /// this matrix — is an exact, normal f32, so `fl((a·2^s)·code)`
    /// equals the scalar `fl(a·w)` bit for bit. False for a row holding
    /// ±inf or NaN, or whose smallest nonzero / largest magnitude would
    /// leave the normal range against the matrix's smallest / largest
    /// block scale; such rows take the scalar `a·w` order instead. Always
    /// true for layouts without block scales.
    fn folds_exactly(&self, x_row: &[f32]) -> bool {
        let Layout::Block(Blocks {
            scale_range: (lo, hi),
            ..
        }) = &self.layout
        else {
            return true;
        };
        let (mut min, mut max) = (f32::INFINITY, 0.0f32);
        for &a in x_row {
            let m = a.abs();
            if !m.is_finite() {
                return false;
            }
            if m != 0.0 {
                min = min.min(m);
                max = max.max(m);
            }
        }
        max == 0.0 || (min * lo >= f32::MIN_POSITIVE && max * hi <= f32::MAX)
    }
}

/// The activation operand of one [`PackedMatrix::gemm_cols`] call.
#[derive(Clone, Copy)]
struct Cols<'a> {
    x: &'a [f32],
    x_rows: usize,
    c0: usize,
    c1: usize,
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

/// `src` in one allocation with room for `room` elements (at least its
/// own length).
fn copy_with_room<T: Copy>(src: &[T], room: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(room.max(src.len()));
    out.extend_from_slice(src);
    out
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

/// How many nonzero activation rows the fused axpy kernel folds per
/// pass: quarters the read/write traffic on the output row, which is
/// what bounds the scalar i-k-j loop.
const KQUAD: usize = 4;

/// Dense/FP16 axpy over columns `[c0, c1)`: ascending-`k`, zero-skip,
/// four activation rows fused per pass (per-element accumulation order
/// is unchanged by the fusion — each output element still sees its `+=`s
/// in ascending `k`).
fn axpy_dense(x_row: &[f32], lane: &[f32], n: usize, c0: usize, c1: usize, out_row: &mut [f32]) {
    let width = c1 - c0;
    let mut quad = [(0usize, 0.0f32); KQUAD];
    let mut filled = 0;
    for (k, &a) in x_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        quad[filled] = (k, a);
        filled += 1;
        if filled == KQUAD {
            let [q0, q1, q2, q3] = quad;
            let l0 = &lane[q0.0 * n + c0..q0.0 * n + c1];
            let l1 = &lane[q1.0 * n + c0..q1.0 * n + c1];
            let l2 = &lane[q2.0 * n + c0..q2.0 * n + c1];
            let l3 = &lane[q3.0 * n + c0..q3.0 * n + c1];
            for j in 0..width {
                let mut v = out_row[j];
                v += q0.1 * l0[j];
                v += q1.1 * l1[j];
                v += q2.1 * l2[j];
                v += q3.1 * l3[j];
                out_row[j] = v;
            }
            filled = 0;
        }
    }
    for &(k, a) in &quad[..filled] {
        let l = &lane[k * n + c0..k * n + c1];
        for (o, &b) in out_row.iter_mut().zip(l) {
            *o += a * b;
        }
    }
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

/// Output columns per row tile: two AVX2 registers of f32.
const TILE_COLS: usize = 16;

/// Activation rows per row tile: with [`TILE_COLS`] this keeps eight
/// accumulator registers live, so each code strip is loaded once per
/// four rows.
const TILE_ROWS: usize = 4;

/// The operands of [`PackedMatrix::gemm_cols`]'s row tile: activation
/// rows `rows` of `cols.x` (all passing the range guard) against codes
/// `C` (and, for the block layout, the `[block column][k]` scales),
/// computing the whole column tiles of `tiles` (inside `[c0, c1)`) into
/// the compact `c1 − c0`-wide `out`. The 16 codes of output column
/// `j`'s tile at contraction index `k` start at `j·col_stride +
/// k·k_stride`: tile-major block codes have `col_stride = k_len`,
/// `k_stride = 16`; a row-major lane has 1 and `n`.
struct RowTile<'a, C> {
    cols: Cols<'a>,
    k_len: usize,
    rows: &'a [usize],
    codes: &'a [C],
    col_stride: usize,
    k_stride: usize,
    scale: Option<(&'a [f32], usize)>,
    tiles: std::ops::Range<usize>,
}

impl<C: Code> RowTile<'_, C> {
    /// Whether this CPU runs the AVX2 build of the tile. Elsewhere the
    /// portable build runs the block layout's codes; dense and FP16
    /// lanes keep their one-row kernel there (the baseline SSE2 build of
    /// the tile measured no faster than it at 8 rows).
    fn supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Computes every tile, with the AVX2 build of [`RowTile::columns`]
    /// where the CPU has it.
    fn run(&self, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            if Self::supported() {
                // SAFETY: the CPU supports AVX2, checked just above.
                unsafe { self.columns_avx2(out) };
                return;
            }
        }
        self.columns(out);
    }

    /// [`RowTile::columns`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn columns_avx2(&self, out: &mut [f32]) {
        self.columns(out);
    }

    /// Column tile by column tile, so one tile's code strip stays in
    /// cache across every row group.
    #[inline(always)]
    fn columns(&self, out: &mut [f32]) {
        for j in self.tiles.clone().step_by(TILE_COLS) {
            for rows in self.rows.chunks(TILE_ROWS) {
                match *rows {
                    [a, b, c, d] => self.tile([a, b, c, d], j, out),
                    [a, b, c] => self.tile([a, b, c], j, out),
                    [a, b] => self.tile([a, b], j, out),
                    [a] => self.tile([a], j, out),
                    _ => unreachable!("chunks of at most TILE_ROWS rows"),
                }
            }
        }
    }

    /// One `R × TILE_COLS` tile at output column `j`, in registers: each
    /// output element accumulates `fl(fl(a·2^s)·code)` (`fl(a·w)` on
    /// the dense lanes) in ascending `k` with a separate multiply and
    /// add, exactly as the one-row kernels do. A zero activation is not
    /// skipped: it adds `±0`, which leaves the sum unchanged because the
    /// sum never holds `-0` and every code is finite
    /// ([`PackedMatrix::tile_span`]).
    #[inline(always)]
    fn tile<const R: usize>(&self, rows: [usize; R], j: usize, out: &mut [f32]) {
        let k_len = self.k_len;
        let Cols { x, c0, c1, .. } = self.cols;
        let xs: [&[f32]; R] = rows.map(|i| &x[i * k_len..(i + 1) * k_len]);
        // The tile's column of block scales, one per weight row (the
        // tile lies inside one block of every row).
        let scales = self
            .scale
            .map(|(scale, group)| &scale[j / group * k_len..(j / group + 1) * k_len]);
        let strips = self.codes[j * self.col_stride..].chunks(self.k_stride);
        let mut acc = [[0.0f32; TILE_COLS]; R];
        for (k, strip) in strips.take(k_len).enumerate() {
            let mut a: [f32; R] = std::array::from_fn(|r| xs[r][k]);
            if let Some(scale) = scales {
                let s = scale[k];
                a = a.map(|v| v * s);
            }
            let strip: &[C; TILE_COLS] =
                strip[..TILE_COLS].try_into().expect("a whole column tile");
            let w = strip.map(Code::widen);
            for (acc_row, &a_r) in acc.iter_mut().zip(&a) {
                for (o, &w) in acc_row.iter_mut().zip(&w) {
                    *o += a_r * w;
                }
            }
        }
        let (o0, width) = (j - c0, c1 - c0);
        for (&i, acc_row) in rows.iter().zip(&acc) {
            out[i * width + o0..i * width + o0 + TILE_COLS].copy_from_slice(acc_row);
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
/// and one power-of-two scale per block, here in flat row-major order.
/// Rows go through the same chunk encoder on append
/// ([`PackedRows::push_row`]); any row it cannot reproduce bit-for-bit
/// demotes the *whole buffer* to a dense f32 lane (rebuilt exactly as
/// `code·scale` from the already-verified rows), so reads are always
/// bit-identical to the rows that were pushed, for every scheme and
/// every input.
///
/// The attention kernels ([`attn_dot_packed`],
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
    layout: Layout,
}

impl PackedRows {
    /// An empty buffer whose rows are `width` columns wide, stored in
    /// `scheme`'s block layout when the scheme has one and `width` is a
    /// whole number of blocks (so no block straddles a row), else as
    /// dense f32.
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

    /// Rows the buffer holds before any of its buffers has to grow.
    pub fn capacity(&self) -> usize {
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
    /// own), each of its buffers allocated once at that size, so a
    /// buffer sized once (a KV page, fresh or copied on write, at its
    /// page size) never grows past it.
    pub fn copy_with_capacity(&self, rows: usize) -> PackedRows {
        let values = rows * self.width;
        let layout = match &self.layout {
            Layout::Dense { lane, finite } => Layout::Dense {
                lane: copy_with_room(lane, values),
                finite: *finite,
            },
            Layout::Fp16 { bits, lane } => Layout::Fp16 {
                bits: copy_with_room(bits, values),
                lane: copy_with_room(lane, values),
            },
            Layout::Block(blocks) => Layout::Block(Blocks {
                alg: blocks.alg,
                codes: match &blocks.codes {
                    Codes::I16(codes) => Codes::I16(copy_with_room(codes, values)),
                    Codes::F32(codes) => Codes::F32(copy_with_room(codes, values)),
                },
                scale: copy_with_room(&blocks.scale, values.div_ceil(blocks.group())),
                scale_range: blocks.scale_range,
                tiled: blocks.tiled,
            }),
        };
        PackedRows {
            width: self.width,
            rows: self.rows,
            layout,
        }
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
    /// Panics if `row.len() != self.width()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if let Layout::Block(blocks) = &mut self.layout {
            let group = blocks.group();
            if !row.chunks(group).all(|chunk| blocks.push_quantised(chunk)) {
                self.demote();
            }
        }
        if let Layout::Dense { lane, .. } = &mut self.layout {
            lane.extend_from_slice(row);
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
    /// Panics if `row.len() != self.width()`.
    pub fn push_quantized_row(&mut self, row: &[f32], alg: &FormatAlgebra) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if !alg.packable() || row.iter().any(|v| !v.is_finite()) {
            return self.push_row(row);
        }
        match &mut self.layout {
            Layout::Block(blocks) if blocks.alg == *alg => {
                let mut out = [0.0f32; MAX_STORE_BLOCK];
                let group = blocks.group();
                let stored = row
                    .chunks(group)
                    .all(|chunk| blocks.push_raw(chunk, &mut out[..chunk.len()]));
                if !stored {
                    self.demote();
                    return self.push_quantized_row(row, alg);
                }
            }
            Layout::Dense { lane, .. } => {
                let start = lane.len();
                lane.extend_from_slice(row);
                algebra_quantize_in_place(&mut lane[start..], alg, RoundingMode::NearestEven);
            }
            Layout::Block(_) | Layout::Fp16 { .. } => {
                let mut quantised = row.to_vec();
                algebra_quantize_in_place(&mut quantised, alg, RoundingMode::NearestEven);
                return self.push_row(&quantised);
            }
        }
        self.rows += 1;
    }

    /// Demotes the buffer to a dense lane, exactly: the rows pushed so
    /// far decode to themselves, and the codes of a row whose encoding
    /// stopped part way lie past them, unread. The lane keeps the room
    /// the codes had reserved.
    fn demote(&mut self) {
        let reserved = match &self.layout {
            Layout::Block(blocks) => blocks.codes.capacity(),
            Layout::Dense { .. } | Layout::Fp16 { .. } => return,
        };
        let mut lane = self.to_dense();
        lane.reserve_exact(reserved.saturating_sub(lane.len()));
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
        match &self.layout {
            Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => lane[row * self.width + col],
            Layout::Block(blocks) => {
                let mut runs = blocks.runs(self.rows, self.width, row, col, col + 1);
                let run = runs.next().expect("one column is one run");
                let s = blocks.scale[run.scale];
                match &blocks.codes {
                    Codes::I16(codes) => codes[run.code].weight(s),
                    Codes::F32(codes) => codes[run.code].weight(s),
                }
            }
        }
    }

    /// All rows as a flat dense f32 buffer — bit-identical to the rows
    /// that were pushed.
    pub fn to_dense(&self) -> Vec<f32> {
        self.layout.decode(self.rows, self.width)
    }
}

/// `q · K[j, c0..c0+q.len()]` over a packed row buffer: the QK^T inner
/// product of one attention head against one cached key row.
/// Bit-identical to the dense f32 dot in ascending-column order for
/// every query: each term multiplies the exact key value `code·2^s`.
///
/// # Panics
///
/// Panics if `j` or the column span is out of range.
pub fn attn_dot_packed(q: &[f32], rows: &PackedRows, j: usize, c0: usize) -> f32 {
    let dh = q.len();
    assert!(
        j < rows.rows && c0 + dh <= rows.width,
        "attention span out of range"
    );
    match &rows.layout {
        Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
            let flat0 = j * rows.width + c0;
            dot_plain(q, &lane[flat0..flat0 + dh])
        }
        Layout::Block(blocks) => {
            let runs = blocks.runs(rows.rows, rows.width, j, c0, c0 + dh);
            match &blocks.codes {
                Codes::I16(codes) => runs_dot(q, codes, &blocks.scale, runs),
                Codes::F32(codes) => runs_dot(q, codes, &blocks.scale, runs),
            }
        }
    }
}

/// `out[d] += probs[j] · V[j, c0+d]` for every row `j` in ascending
/// order: the AV accumulation of one attention head over a packed row
/// buffer, bit-identical to the dense f32 loop for every input (per
/// output element the `+=`s arrive in the same order; the power-of-two
/// block scale folds into the broadcast probability where `p·2^s` is
/// exact, and each value is rebuilt as `code·scale` elsewhere). A call
/// whose `out` holds a `-0` multiplies the rebuilt values throughout, so
/// a `-0` value keeps its sign (module docs).
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
    match &rows.layout {
        Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
            for (j, &p) in probs.iter().enumerate() {
                let flat0 = j * rows.width + c0;
                let v_row = &lane[flat0..flat0 + dh];
                for (o, &vv) in out.iter_mut().zip(v_row) {
                    *o += p * vv;
                }
            }
        }
        Layout::Block(blocks) => match &blocks.codes {
            Codes::I16(codes) => runs_axpy(probs, rows, blocks, codes, c0, out),
            Codes::F32(codes) => runs_axpy(probs, rows, blocks, codes, c0, out),
        },
    }
}

/// [`attn_weighted_sum_packed`] over block codes: each row's runs, the
/// block scale folded into the probability where `p·2^s` is exact (`p`
/// zero, or `p·2^s` a normal f32) and `out` holds no `-0`, and each value
/// rebuilt as `code·2^s` first elsewhere.
fn runs_axpy<C: Code>(
    probs: &[f32],
    rows: &PackedRows,
    blocks: &Blocks,
    codes: &[C],
    c0: usize,
    out: &mut [f32],
) {
    let c1 = c0 + out.len();
    let folds = !out.iter().any(|o| *o == 0.0 && o.is_sign_negative());
    for (j, &p) in probs.iter().enumerate() {
        for run in blocks.runs(rows.rows, rows.width, j, c0, c1) {
            let (s, o) = (
                blocks.scale[run.scale],
                out[run.j0 - c0..run.j1 - c0].iter_mut(),
            );
            let ps = p * s;
            if folds && (p == 0.0 || ps.is_normal()) {
                for (ov, cv) in o.zip(run.codes(codes)) {
                    *ov += ps * cv.widen();
                }
            } else {
                for (ov, cv) in o.zip(run.codes(codes)) {
                    *ov += p * cv.weight(s);
                }
            }
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
    /// encoded from raw ones, and a 16-row KV page 192 wide, which stays
    /// flat although its width would tile. A page reserved at its page
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
                    scale_range: _,
                    tiled: _,
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
            for (row, raw_row) in q.chunks(width).zip(r.chunks(width)) {
                kv.push_row(row);
                encoded.push_quantized_row(raw_row, &alg);
            }
            let what = format!("{scheme} {page}x{width} rows");
            for (rows, what) in [(&kv, what.clone()), (&encoded, format!("encoded {what}"))] {
                assert!(
                    matches!(&rows.layout, Layout::Block(Blocks { tiled: false, .. })),
                    "{what} stay flat"
                );
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

    #[test]
    fn gemm_cols_partition_reproduces_full_gemm() {
        let scheme = SchemeSpec::Bbfp(4, 2);
        let (k_len, n) = (6usize, 96usize);
        let q = quantised(scheme, k_len * n, 41);
        let p = PackedMatrix::pack(&q, k_len, n, scheme);
        let x = quantised(SchemeSpec::Fp16, k_len, 43);
        let mut full = vec![0.0; n];
        p.gemm(&x, 1, &mut full);
        for ranges in [vec![(0, 32), (32, 96)], vec![(0, 1), (1, 50), (50, 96)]] {
            let mut split = vec![f32::NAN; n];
            for (c0, c1) in ranges {
                let mut strip = vec![f32::NAN; c1 - c0];
                p.gemm_cols(&x, 1, c0, c1, &mut strip);
                split[c0..c1].copy_from_slice(&strip);
            }
            let same = split
                .iter()
                .zip(&full)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same);
        }
    }

    /// The portable row-tile body, called directly so its baseline build
    /// is pinned whichever build `gemm_cols` runs on this host: block
    /// codes, FP16 and dense lanes, 1..=9 rows (full and partial tiles,
    /// zero activations mixed in), against the scalar reference.
    #[test]
    fn portable_row_tile_matches_the_scalar_reference() {
        let (k_len, n) = (40usize, 64usize);
        let schemes = [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::Fp16,
            SchemeSpec::Fp32,
        ];
        for scheme in schemes {
            let w = quantised(scheme, k_len * n, 61);
            let p = PackedMatrix::pack(&w, k_len, n, scheme);
            let (c0, c1) = (16, n);
            assert_eq!(p.tile_span(c0, c1), c0..c1, "{scheme:?} tiles every column");
            for x_rows in 1..=9 {
                let mut x = quantised(SchemeSpec::Fp16, x_rows * k_len, 67 + x_rows as u64);
                for (i, v) in x.iter_mut().enumerate() {
                    if i % 7 == 0 {
                        *v = 0.0;
                    }
                }
                let rows: Vec<usize> = (0..x_rows).collect();
                let cols = Cols {
                    x: &x,
                    x_rows,
                    c0,
                    c1,
                };
                let width = c1 - c0;
                let mut out = vec![f32::NAN; x_rows * width];
                match &p.layout {
                    Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                        p.lane_tile(lane, cols, &rows).columns(&mut out);
                    }
                    Layout::Block(blocks) => match &blocks.codes {
                        Codes::I16(codes) => {
                            p.block_tile(blocks, codes, cols, &rows).columns(&mut out)
                        }
                        Codes::F32(_) => panic!("{scheme:?} codes fit i16"),
                    },
                }
                let want = reference_gemm(&x, x_rows, &w, k_len, n);
                for i in 0..x_rows {
                    let got = &out[i * width..(i + 1) * width];
                    let same = got
                        .iter()
                        .zip(&want[i * n + c0..i * n + c1])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{scheme:?} {x_rows} rows: row {i}");
                }
            }
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
        assert!(p.tile_span(0, 16).is_empty());
        let x = [1.0f32, 0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0];
        let mut out = vec![f32::NAN; 2 * 16];
        p.gemm(&x, 2, &mut out);
        assert!(out.iter().all(|&v| v == 1.5), "{out:?}");
    }

    /// The one run walk reads tile-major and flat codes alike, on every
    /// block family. A matrix laid out tile-major gives its weights back
    /// through `decode()` bit for bit, and `gemm_cols` over a span that
    /// starts and ends inside a column tile equals the scalar reference
    /// for ordinary rows (the tile plus run walks at both cut ends) and
    /// for guard-failing rows (2e-38, subnormal, inf, NaN: run walks
    /// over the whole span). The same rows pushed into a flat
    /// `PackedRows` give the reference sequential dot through
    /// `attn_dot_packed`, over whole rows and over spans that start and
    /// end inside a block.
    #[test]
    fn tiled_and_flat_run_walks_agree_bit_for_bit() {
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
            let Layout::Block(matrix) = &p.layout else {
                panic!("{scheme} matrix takes the block layout");
            };
            assert_eq!(matrix.tiled, tile_major(n, group), "{scheme} matrix order");
            assert_same_bits(&p.decode(), &q, &format!("{scheme} tiled decode"));

            let ordinary = quantised(SchemeSpec::Fp16, 2 * w_rows, 41);
            let mut x = ordinary[..w_rows].to_vec();
            for bad in [2e-38, f32::from_bits(1), f32::INFINITY, f32::NAN] {
                x.extend((0..w_rows).map(|k| if k == 1 { bad } else { 0.5 }));
            }
            x.extend_from_slice(&ordinary[w_rows..]);
            let x_rows = x.len() / w_rows;
            for (i, row) in x.chunks(w_rows).enumerate() {
                let ordinary_row = i == 0 || i == x_rows - 1;
                assert_eq!(p.folds_exactly(row), ordinary_row, "{scheme} row {i} guard");
            }
            let want = reference_gemm(&x, x_rows, &q, w_rows, n);
            let (c0, c1) = (TILE_COLS / 2, n - 3);
            let width = c1 - c0;
            let mut got = vec![f32::NAN; x_rows * width];
            p.gemm_cols(&x, x_rows, c0, c1, &mut got);
            for i in 0..x_rows {
                for (j, g) in got[i * width..(i + 1) * width].iter().enumerate() {
                    let w = want[i * n + c0 + j];
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(
                        same,
                        "{scheme} gemm_cols row {i} column {}: {g} vs {w}",
                        c0 + j
                    );
                }
            }

            let mut rows = PackedRows::new(scheme, n);
            for r in 0..w_rows {
                rows.push_row(&q[r * n..(r + 1) * n]);
            }
            assert!(
                matches!(&rows.layout, Layout::Block(Blocks { tiled: false, .. })),
                "{scheme} rows take the flat block layout"
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
