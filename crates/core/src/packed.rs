//! Packed quantised matrix storage and block-dot GEMM kernels.
//!
//! [`PackedBlock`] owns the bit-exact storage layout of a single block:
//! one shared scale field per block (5-bit exponent for BFP/BBFP, 8-bit
//! for MX/MSFP, a signed bias for block minifloat), any per-sub-block
//! offset codes, then the packed element payloads (`sign|mantissa`,
//! `sign|flag|mantissa`, or `sign|exp|mantissa`), with no padding
//! between fields. A [`PackedMatrix`] stores a whole weight matrix in
//! the form its kernels read: that layout factored into one integer
//! element code per weight and one power-of-two scale per block.
//!
//! ```text
//!   block b:   [ e₄e₃e₂e₁e₀ | s f m₃m₂m₁m₀ | s f m₃m₂m₁m₀ | … ]
//!               `────┬────'   `─────┬─────'
//!            shared exponent   one element (BBFP: flag picks the
//!                              high window, worth ×2^(m−o))
//!
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
//! weight as `+0` (see the invariant below). The bits themselves are
//! not kept: [`PackedMatrix::packed_bits`] charges what
//! [`PackedBlock`]'s layout would take.
//!
//! When every block starts a row and is a multiple of 16 columns wide
//! (every decoder matrix), codes are stored **tile-major** —
//! `[16-column tile][k][16]`, scales `[block column][k]` — so the row
//! tile of [`PackedMatrix::gemm_cols`] streams one contiguous strip per
//! column tile; other (ragged) shapes keep the flat row-major order.
//!
//! The kernels exploit the factoring: [`PackedBlock::block_dot`]
//! accumulates activation × mantissa-integer products and applies the
//! shared-exponent scale **once per block**; the [`PackedMatrix`] GEMMs
//! fold the block scale into the broadcast activation (`a·2^s` is exact
//! — a power-of-two scale only shifts the exponent) and widen each code
//! to f32 in registers, so the inner loop is a plain multiply-accumulate
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
//!   reference i-k-j loop, and `fl((x+y)·2^s) = fl(x·2^s + y·2^s)` makes
//!   the once-per-block scaling of `block_dot` equal to scaling every
//!   partial sum;
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
//! The activation side needs `a·2^s` to stay a normal f32. Every
//! [`PackedMatrix`] GEMM checks that once per activation row: the row's
//! smallest nonzero and largest magnitude against the matrix's smallest
//! and largest (folded) block scale, recorded at pack time. A row that
//! would leave the normal range, or that holds ±inf/NaN, takes the
//! scalar `a·(code·2^s)` order instead, which multiplies the exact
//! weight. So the weight GEMMs are bit-identical to the scalar path for
//! every input. The attention kernels ([`attn_dot_packed`],
//! [`attn_weighted_sum_packed`]) fold the scale without that guard: for
//! them the invariant still holds only while the folded products stay
//! in the normal range.

use crate::algebra::{self, AlgChunk, FormatAlgebra, ScaleKind};
use crate::bfp::exp2i;
use crate::bitpack::{BitReader, BitWriter};
use crate::error::FormatError;
use crate::fp16::Fp16;
use crate::rounding::RoundingMode;
use crate::scheme::SchemeSpec;

/// Encodes one chunk (a full block or a ragged tail) of *already
/// quantised* values against its own shared scale — exactly the
/// per-chunk step of [`crate::algebra::algebra_quantize_in_place`], so
/// re-encoding a quantised chunk is the identity.
fn encode_chunk(values: &[f32], alg: &FormatAlgebra) -> AlgChunk {
    let fp16: Vec<Fp16> = values
        .iter()
        .map(|&v| Fp16::from_f32_saturating(v))
        .collect();
    algebra::encode_chunk(&fp16, alg, RoundingMode::NearestEven)
}

/// One block (up to `block_size` values) of a block-format algebra
/// point, stored in its packed bit layout: the shared scale field, any
/// sub-block offsets, then the per-element payloads.
///
/// This is the single-block face of the packed storage format — the
/// proptest battery drives it directly. [`PackedBlock::block_dot`] is
/// the paper-shaped kernel: mantissa-integer products accumulate first,
/// the shared-exponent scale applies once at the end.
///
/// ```
/// use bbal_core::packed::PackedBlock;
/// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode};
///
/// let bfp4 = FormatAlgebra::bfp(4)?;
/// let raw: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
/// let mut q = vec![0.0; 32];
/// algebra_quantize_slice(&raw, &bfp4, RoundingMode::NearestEven, &mut q);
///
/// let block = PackedBlock::encode(&q, bfp4)?;
/// assert_eq!(block.decode(), q); // exact round trip
///
/// let acts = vec![1.0f32; 32];
/// let reference: f32 = q.iter().fold(0.0, |acc, w| acc + 1.0 * w);
/// assert_eq!(block.block_dot(&acts), reference); // bit-identical
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBlock {
    format: FormatAlgebra,
    len: usize,
    shared_exponent: i32,
    bit_len: usize,
    bytes: Vec<u8>,
}

impl PackedBlock {
    /// Encodes a slice of **already quantised** values (at most one
    /// block) into the packed layout, verifying that decoding the packed
    /// bytes reproduces the input bit-for-bit.
    ///
    /// # Errors
    ///
    /// The point's own validation error if `format` is invalid,
    /// [`FormatError::BlockSize`] if it is a scalar (block size 1)
    /// point, [`FormatError::LengthMismatch`] if `values` is empty or
    /// longer than the block size, [`FormatError::NonFinite`] on NaN or
    /// infinity, and [`FormatError::NotRepresentable`] if any value is
    /// not exactly representable at the point (i.e. the input was not
    /// produced by its quantiser).
    pub fn encode(values: &[f32], format: FormatAlgebra) -> Result<PackedBlock, FormatError> {
        format.validate()?;
        if !format.packable() {
            return Err(FormatError::BlockSize(format.block_size));
        }
        let bs = format.block_size;
        if values.is_empty() || values.len() > bs {
            return Err(FormatError::LengthMismatch {
                got: values.len(),
                expected: bs,
            });
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(FormatError::NonFinite(i));
            }
        }
        let chunk = encode_chunk(values, &format);
        for (i, v) in values.iter().enumerate() {
            if chunk.decode_value(i, &format).to_bits() != v.to_bits() {
                return Err(FormatError::NotRepresentable(i));
            }
        }
        let mut w = BitWriter::new();
        algebra::write_chunk(&mut w, &chunk, &format);
        let bit_len = w.bit_len();
        Ok(PackedBlock {
            format,
            len: values.len(),
            shared_exponent: chunk.scale_code,
            bit_len,
            bytes: w.into_bytes(),
        })
    }

    /// The format-algebra point this block is packed in.
    pub fn format(&self) -> FormatAlgebra {
        self.format
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no values (never — encoding rejects
    /// empty input — but clippy insists `len` has an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared scale code of the block: the biased maximum exponent
    /// for shared-exponent and two-level schemes, the signed exponent
    /// bias for block minifloat.
    pub fn shared_exponent(&self) -> i32 {
        self.shared_exponent
    }

    /// The packed bytes (shared scale field, any sub-block offsets,
    /// then element payloads).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Exact packed size in bits.
    pub fn packed_bits(&self) -> usize {
        self.bit_len
    }

    /// Decodes the packed bytes back to f32 values — the exact inverse
    /// of [`PackedBlock::encode`].
    pub fn decode(&self) -> Vec<f32> {
        let alg = &self.format;
        let mut r = BitReader::new(&self.bytes);
        let chunk = algebra::read_chunk(&mut r, self.len, alg);
        (0..self.len).map(|i| chunk.decode_value(i, alg)).collect()
    }

    /// The block-dot kernel: accumulates activation × mantissa-integer
    /// products straight off the packed bits and applies the
    /// shared-exponent scale **once**, after the loop. Bit-identical to
    /// the f32 reference `Σ fl(aⱼ·wⱼ)` accumulated in order (power-of-two
    /// scaling commutes with every rounding in the sum).
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != self.len()`.
    pub fn block_dot(&self, acts: &[f32]) -> f32 {
        assert_eq!(acts.len(), self.len, "activation length mismatch");
        let alg = &self.format;
        let mut r = BitReader::new(&self.bytes);
        let chunk = algebra::read_chunk(&mut r, self.len, alg);
        let mut acc = 0.0f32;
        for (i, a) in acts.iter().enumerate() {
            acc += a * chunk.lane_value(i, alg);
        }
        acc * exp2i(chunk.scale_exponent(alg))
    }
}

/// Which storage layout a [`PackedMatrix`] ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Plain f32 — schemes without power-of-two block scales, or the
    /// verified fallback.
    Dense,
    /// Raw IEEE binary16 bits plus an exact f32 lane.
    Fp16,
    /// Native block layout: one integer element code per weight (`i16`,
    /// or `f32` where a matrix's codes outgrow it) plus one power-of-two
    /// scale per block.
    Block,
}

/// The element codes of a block-layout matrix, in its storage order.
#[derive(Debug, Clone)]
enum Codes {
    /// `2·code`, or 1 for a negative-zero weight (see [`Code`]).
    I16(Vec<i16>),
    /// The code itself, for matrices whose codes do not fit `i16`.
    F32(Vec<f32>),
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
        /// of skipping it ([`PackedMatrix::tile_span`]).
        finite: bool,
    },
    Fp16 {
        bits: Vec<u16>,
        lane: Vec<f32>,
    },
    Block {
        /// The block-format point the codes come from.
        alg: FormatAlgebra,
        /// One element code per weight: tile-major when
        /// [`tile_major`] holds for the matrix, flat row-major otherwise.
        codes: Codes,
        /// One power-of-two scale (with the code shift folded in) per
        /// `group`-element block of the flat row-major buffer (final
        /// block may be ragged): `[block column][k]` when tile-major,
        /// in flat block order otherwise.
        scale: Vec<f32>,
        /// The scheme's block size.
        group: usize,
        /// The smallest and largest entry of `scale`, recorded at pack
        /// time for the per-row range guard ([`PackedMatrix::folds_exactly`]).
        scale_range: (f32, f32),
    },
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
/// use bbal_core::{bbfp_quantize_slice, BbfpConfig, RoundingMode, SchemeSpec};
///
/// let cfg = BbfpConfig::new(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.07).collect();
/// let mut q = vec![0.0; 64];
/// bbfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut q);
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
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        assert_eq!(values.len(), rows * cols, "data length mismatch");
        let dense = || Layout::Dense {
            lane: values.to_vec(),
            finite: values.iter().all(|v| v.is_finite()),
        };
        let layout = match scheme {
            SchemeSpec::Fp16 => pack_fp16(values),
            _ => scheme
                .block_algebra()
                .and_then(|alg| pack_blocks(values, rows, cols, alg)),
        };
        let mut packed = PackedMatrix {
            rows,
            cols,
            scheme,
            layout: layout.unwrap_or_else(dense),
        };
        // Self-verification: the block layout must decode to the input
        // bit for bit, or the matrix keeps it as a dense lane.
        if let Layout::Block { .. } = packed.layout {
            let decoded = packed.decode();
            if decoded
                .iter()
                .zip(values)
                .any(|(d, v)| d.to_bits() != v.to_bits())
            {
                packed.layout = dense();
            }
        }
        packed
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
        match &self.layout {
            Layout::Dense { .. } => LayoutKind::Dense,
            Layout::Fp16 { .. } => LayoutKind::Fp16,
            Layout::Block { .. } => LayoutKind::Block,
        }
    }

    /// Exact storage size of the packed representation in bits
    /// (`rows·cols·32` for the dense fallback — the honesty metric the
    /// memory-density tests pin). The block layout is charged what its
    /// scheme's bit layout ([`PackedBlock`]) takes for the flat buffer's
    /// chunks, ragged tail included.
    pub fn packed_bits(&self) -> usize {
        match &self.layout {
            Layout::Dense { lane, .. } => lane.len() * 32,
            Layout::Fp16 { bits, .. } => bits.len() * 16,
            Layout::Block { alg, group, .. } => {
                let n = self.rows * self.cols;
                let tail = n % group;
                let tail_bits = if tail > 0 { chunk_bits(alg, tail) } else { 0 };
                n / group * chunk_bits(alg, *group) + tail_bits
            }
        }
    }

    /// Decodes the storage back to the full f32 matrix, bit for bit —
    /// for the block layout, `code·scale` per element.
    pub fn decode(&self) -> Vec<f32> {
        match &self.layout {
            Layout::Dense { lane, .. } => lane.clone(),
            Layout::Fp16 { bits, .. } => {
                bits.iter().map(|&b| Fp16::from_bits(b).to_f32()).collect()
            }
            Layout::Block {
                codes: Codes::I16(codes),
                scale,
                group,
                ..
            } => self.decode_codes(codes, scale, *group),
            Layout::Block {
                codes: Codes::F32(codes),
                scale,
                group,
                ..
            } => self.decode_codes(codes, scale, *group),
        }
    }

    /// The block layout's weights in row-major order, `code·scale` each.
    fn decode_codes<C: Code>(&self, codes: &[C], scale: &[f32], group: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for k in 0..self.rows {
            for run in self.runs(group, k, 0, self.cols) {
                let s = scale[run.scale];
                out.extend(run.codes(codes).iter().map(|c| c.weight(s)));
            }
        }
        out
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
            Layout::Block {
                codes: Codes::I16(codes),
                scale,
                group,
                ..
            } => self.block_gemm(codes, scale, *group, cols, out),
            Layout::Block {
                codes: Codes::F32(codes),
                scale,
                group,
                ..
            } => self.block_gemm(codes, scale, *group, cols, out),
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
    fn block_gemm<C: Code>(
        &self,
        codes: &[C],
        scale: &[f32],
        group: usize,
        cols: Cols<'_>,
        out: &mut [f32],
    ) {
        let Cols { x, x_rows, c0, c1 } = cols;
        let (k_len, width) = (self.rows, c1 - c0);
        let x_row = |i: usize| &x[i * k_len..(i + 1) * k_len];
        let folds: Vec<bool> = (0..x_rows).map(|i| self.folds_exactly(x_row(i))).collect();
        let rows: Vec<usize> = (0..x_rows).filter(|&i| folds[i]).collect();
        let tile = self.block_tile(codes, scale, group, cols, &rows);
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
                    for run in self.runs(group, k, walk.start, walk.end) {
                        let s = scale[run.scale];
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
        codes: &'a [C],
        scale: &'a [f32],
        group: usize,
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
            scale: Some((scale, group)),
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
            Layout::Block { group, .. } if tile_major(self.cols, *group) => {
                let (start, end) = (c0.next_multiple_of(TILE_COLS), c1 / TILE_COLS * TILE_COLS);
                if start < end {
                    start..end
                } else {
                    c0..c0
                }
            }
            Layout::Dense { finite: false, .. } | Layout::Block { .. } => c0..c0,
        }
    }

    /// Row `k`'s columns `[c0, c1)` of a block layout, as runs that
    /// share one block scale and lie contiguous in the code buffer.
    fn runs(&self, group: usize, k: usize, c0: usize, c1: usize) -> impl Iterator<Item = Run> {
        let (rows, cols) = (self.rows, self.cols);
        let tiled = tile_major(cols, group);
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
                    scale: j0 / group * rows + k,
                }
            } else {
                let flat = k * cols + j0;
                j = c1.min(j0 + group - flat % group);
                Run {
                    j0,
                    j1: j,
                    code: flat,
                    scale: flat / group,
                }
            };
            Some(run)
        })
    }

    /// `x · Wᵀ` for row-major `x` of shape `x_rows × self.cols`, writing
    /// `x_rows × self.rows` over `out`. Bit-identical to the reference
    /// sequential-dot loop (`Tensor::matmul_transposed`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.cols` or
    /// `out.len() != x_rows * self.rows`.
    pub fn gemm_transposed(&self, x: &[f32], x_rows: usize, out: &mut [f32]) {
        self.gemm_transposed_rows(x, x_rows, 0, self.rows, out);
    }

    /// As [`PackedMatrix::gemm_transposed`], but computes only the
    /// output columns corresponding to W rows `[r0, r1)`, written
    /// compactly into `out` (an `x_rows × (r1−r0)` buffer) — the worker
    /// split of the transposed GEMM.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.cols`,
    /// `out.len() != x_rows * (r1 - r0)`, or the range is invalid.
    pub fn gemm_transposed_rows(
        &self,
        x: &[f32],
        x_rows: usize,
        r0: usize,
        r1: usize,
        out: &mut [f32],
    ) {
        assert!(r0 < r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert_eq!(x.len(), x_rows * self.cols, "x shape mismatch");
        let width = r1 - r0;
        assert_eq!(out.len(), x_rows * width, "out shape mismatch");
        let n = self.cols;
        for i in 0..x_rows {
            let x_row = &x[i * n..(i + 1) * n];
            let out_row = &mut out[i * width..(i + 1) * width];
            for (r, o) in (r0..r1).zip(out_row) {
                *o = match &self.layout {
                    Layout::Dense { lane, .. } | Layout::Fp16 { lane, .. } => {
                        dot_plain(x_row, &lane[r * n..(r + 1) * n])
                    }
                    Layout::Block {
                        codes: Codes::I16(codes),
                        scale,
                        group,
                        ..
                    } => self.block_dot_row(x_row, codes, scale, *group, r),
                    Layout::Block {
                        codes: Codes::F32(codes),
                        scale,
                        group,
                        ..
                    } => self.block_dot_row(x_row, codes, scale, *group, r),
                };
            }
        }
    }

    /// Sequential dot of `x_row` with weight row `r` over block codes:
    /// the block scale folds into the activation when the range guard
    /// allows, else each weight is rebuilt as `code·2^s` first — either
    /// way every term is the reference `fl(xⱼ·wⱼ)`, accumulated in the
    /// reference order.
    fn block_dot_row<C: Code>(
        &self,
        x_row: &[f32],
        codes: &[C],
        scale: &[f32],
        group: usize,
        r: usize,
    ) -> f32 {
        let folds = self.folds_exactly(x_row);
        let mut acc = 0.0f32;
        for run in self.runs(group, r, 0, self.cols) {
            let s = scale[run.scale];
            let xs = &x_row[run.j0..run.j1];
            if folds {
                for (xv, cv) in xs.iter().zip(run.codes(codes)) {
                    acc += (xv * s) * cv.widen();
                }
            } else {
                for (xv, cv) in xs.iter().zip(run.codes(codes)) {
                    acc += xv * (cv.widen() * s);
                }
            }
        }
        acc
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
        let Layout::Block {
            scale_range: (lo, hi),
            ..
        } = &self.layout
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

/// Columns `[j0, j1)` of one weight row of a block layout: they share
/// the scale at index `scale` and their codes start at index `code`.
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

/// Packs FP16: raw bits + exact f32 lane; `None` if any value is not an
/// exact binary16 (then the dense fallback keeps bit-identity).
fn pack_fp16(values: &[f32]) -> Option<Layout> {
    let mut bits = Vec::with_capacity(values.len());
    let mut lane = Vec::with_capacity(values.len());
    for &v in values {
        let h = Fp16::from_f32_saturating(v);
        let back = h.to_f32();
        if back.to_bits() != v.to_bits() {
            return None;
        }
        bits.push(h.to_bits());
        lane.push(back);
    }
    Some(Layout::Fp16 { bits, lane })
}

/// Packs the block layout: encodes every chunk of the flat buffer,
/// scales each lane by the matrix's code shift `c` and folds `2^−c`
/// into the block scale, then stores the codes as `i16` when they all
/// fit (else as `f32`), tile-major when [`tile_major`] holds. `None` on
/// a non-finite value or a folded scale outside the normal range; the
/// caller verifies the rest.
fn pack_blocks(values: &[f32], rows: usize, cols: usize, alg: FormatAlgebra) -> Option<Layout> {
    let group = alg.block_size;
    // Two-level lanes are multiples of 2^−(largest sub-block offset).
    let shift = match alg.scale {
        ScaleKind::TwoLevel { sub_scale_bits, .. } => (1i32 << sub_scale_bits) - 1,
        _ => 0,
    };
    let mut flat = Vec::with_capacity(values.len());
    let mut scale = Vec::with_capacity(values.len().div_ceil(group));
    for chunk in values.chunks(group) {
        if chunk.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let encoded = encode_chunk(chunk, &alg);
        let s = exp2i(encoded.scale_exponent(&alg) - shift);
        if !s.is_normal() {
            return None;
        }
        scale.push(s);
        flat.extend((0..chunk.len()).map(|i| encoded.lane_value(i, &alg) * exp2i(shift)));
    }
    let scale_range = scale.iter().fold((f32::INFINITY, 0.0f32), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    if tile_major(cols, group) {
        flat = strip_major(&flat, rows, cols, TILE_COLS);
        scale = strip_major(&scale, rows, cols / group, 1);
    }
    let codes = match flat.iter().map(|&c| i16_code(c)).collect() {
        Some(narrow) => Codes::I16(narrow),
        None => Codes::F32(flat),
    };
    Some(Layout::Block {
        alg,
        codes,
        scale,
        group,
        scale_range,
    })
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

/// Sequential dot product (the transposed-GEMM reference order).
fn dot_plain(x_row: &[f32], w_row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in x_row.iter().zip(w_row) {
        acc += x * y;
    }
    acc
}

/// Sequential dot against a packed-row lane when the row starts on a
/// block boundary and covers whole blocks: the per-segment flat-index
/// division of [`dot_scaled`] disappears and the inner loop runs over
/// exact-size chunks the compiler can keep in registers. Accumulation
/// order is identical to [`dot_scaled`] (and to the scalar reference),
/// so the result is bit-identical.
fn dot_scaled_aligned(x_row: &[f32], w_row: &[f32], scale: &[f32], group: usize) -> f32 {
    let mut acc = 0.0f32;
    for (bi, (xc, wc)) in x_row
        .chunks_exact(group)
        .zip(w_row.chunks_exact(group))
        .enumerate()
    {
        let s = scale[bi];
        for (x, w) in xc.iter().zip(wc) {
            acc += (x * s) * w;
        }
    }
    acc
}

/// Sequential dot against a packed-row lane: the block scale folds into
/// the activation at each flat-block boundary, keeping every partial
/// product equal to `fl(aⱼ·wⱼ)` while the accumulator order matches the
/// reference exactly.
fn dot_scaled(x_row: &[f32], w_row: &[f32], scale: &[f32], group: usize, flat0: usize) -> f32 {
    let mut acc = 0.0f32;
    let n = x_row.len();
    let mut j = 0;
    while j < n {
        let flat = flat0 + j;
        let block = flat / group;
        let seg_end = n.min(j + (group - flat % group));
        let s = scale[block];
        for jj in j..seg_end {
            acc += (x_row[jj] * s) * w_row[jj];
        }
        j = seg_end;
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

/// The storage layout of a [`PackedRows`] buffer.
#[derive(Debug, Clone)]
enum RowsLayout {
    /// Plain f32 rows — non-block schemes, widths that are not whole
    /// blocks, or the verified fallback after a row the block encoder
    /// could not reproduce bit-for-bit.
    Dense { lane: Vec<f32> },
    /// Scheme-native block layout. Because the row width is a whole
    /// number of blocks, every row starts block-aligned and blocks
    /// never straddle rows.
    Block {
        /// The block-format point rows are encoded in.
        alg: FormatAlgebra,
        /// Packed bits of every chunk, appended row by row.
        writer: BitWriter,
        /// Effective lane values (flags, micro-exponents folded), one
        /// per element, row-major.
        lane: Vec<f32>,
        /// One power-of-two scale per `group`-element block of the flat
        /// row-major buffer.
        scale: Vec<f32>,
        /// The scheme's block size — the stride of `scale`.
        group: usize,
    },
}

/// A row-append packed buffer: the storage format of KV-cache pages and
/// other append-only row stores.
///
/// Where [`PackedMatrix`] packs a complete matrix once (weights, known
/// at prepare time), `PackedRows` grows one row at a time — the shape
/// of a KV cache, which appends one key/value row per token per layer.
/// Rows are encoded into the scheme's block layout on append
/// ([`PackedRows::push_row`]), with the same self-verification as
/// [`PackedMatrix::pack`]: any row the encoder cannot reproduce
/// bit-for-bit demotes the *whole buffer* to a dense f32 lane
/// (reconstructed exactly from the already-verified rows), so reads are
/// always bit-identical to the rows that were pushed, for every scheme
/// and every input.
///
/// The attention kernels ([`attn_dot_packed`],
/// [`attn_weighted_sum_packed`]) read head-column slices of the rows
/// straight off the mantissa lane + block scales, reusing the
/// power-of-two commuting argument of the module docs — so QK^T and AV
/// over a packed buffer are bit-identical to the dense f32 loops they
/// replace.
///
/// ```
/// use bbal_core::packed::{LayoutKind, PackedRows};
/// use bbal_core::{bbfp_quantize_slice, BbfpConfig, RoundingMode, SchemeSpec};
///
/// let cfg = BbfpConfig::new(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1).collect();
/// let mut q = vec![0.0; 64];
/// bbfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut q);
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
    layout: RowsLayout,
}

impl Default for PackedRows {
    /// An empty dense buffer of zero width (reconfigure with
    /// [`PackedRows::reset`] before use).
    fn default() -> PackedRows {
        PackedRows::new(SchemeSpec::Fp32, 0)
    }
}

impl PackedRows {
    /// An empty buffer whose rows are `width` columns wide, stored in
    /// `scheme`'s block layout when the scheme has one and `width` is a
    /// whole number of blocks, else as dense f32.
    pub fn new(scheme: SchemeSpec, width: usize) -> PackedRows {
        let layout = match scheme.block_algebra() {
            Some(alg) if width > 0 && width.is_multiple_of(alg.block_size) => RowsLayout::Block {
                alg,
                writer: BitWriter::new(),
                lane: Vec::new(),
                scale: Vec::new(),
                group: alg.block_size,
            },
            _ => RowsLayout::Dense { lane: Vec::new() },
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
        match &self.layout {
            RowsLayout::Dense { .. } => LayoutKind::Dense,
            RowsLayout::Block { .. } => LayoutKind::Block,
        }
    }

    /// Exact storage size of the current contents in bits
    /// (`rows·width·32` after a dense demotion — the honesty metric).
    pub fn packed_bits(&self) -> usize {
        match &self.layout {
            RowsLayout::Dense { lane } => lane.len() * 32,
            RowsLayout::Block { writer, .. } => writer.bit_len(),
        }
    }

    /// [`PackedRows::packed_bits`] rounded up to whole bytes.
    pub fn packed_bytes(&self) -> usize {
        self.packed_bits().div_ceil(8)
    }

    /// Drops every row, keeping the scheme/width configuration.
    pub fn clear(&mut self) {
        self.rows = 0;
        match &mut self.layout {
            RowsLayout::Dense { lane } => lane.clear(),
            RowsLayout::Block {
                writer,
                lane,
                scale,
                ..
            } => {
                *writer = BitWriter::new();
                lane.clear();
                scale.clear();
            }
        }
    }

    /// Drops every row *and* reconfigures the buffer for a (possibly
    /// different) scheme and width — how a recycled page buffer is
    /// prepared for its next owner.
    pub fn reset(&mut self, scheme: SchemeSpec, width: usize) {
        *self = PackedRows::new(scheme, width);
    }

    /// Appends one row, encoding it into the block layout when possible.
    ///
    /// A row that is not exactly representable in the scheme (it did not
    /// come from this scheme's quantiser, or contains non-finite values)
    /// demotes the whole buffer to the dense layout; previously encoded
    /// rows are reconstructed exactly (`lane × 2^scale` is the stored
    /// value), so the buffer's contents always equal the pushed rows
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.width()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.rows += 1;
        match &mut self.layout {
            RowsLayout::Dense { lane } => {
                lane.extend_from_slice(row);
                return;
            }
            RowsLayout::Block {
                alg,
                writer,
                lane,
                scale,
                group,
            } => {
                if let Some((row_lane, chunks)) = encode_row(row, alg, *group) {
                    lane.extend_from_slice(&row_lane);
                    for c in &chunks {
                        scale.push(exp2i(c.scale_exponent(alg)));
                        algebra::write_chunk(writer, c, alg);
                    }
                    return;
                }
            }
        }
        // The row is not representable in the block layout: demote the
        // buffer to dense (exact) and append the row as raw f32.
        self.demote();
        if let RowsLayout::Dense { lane } = &mut self.layout {
            lane.extend_from_slice(row);
        }
    }

    /// Rebuilds the dense layout from the block layout — exact, because
    /// every stored value *is* `lane × 2^scale` (a representable f32).
    fn demote(&mut self) {
        if let RowsLayout::Block {
            lane, scale, group, ..
        } = &self.layout
        {
            let dense: Vec<f32> = lane
                .iter()
                .enumerate()
                .map(|(i, &l)| l * scale[i / *group])
                .collect();
            self.layout = RowsLayout::Dense { lane: dense };
        }
    }

    /// The stored value at `(row, col)` — bit-identical to what was
    /// pushed.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.width, "position out of range");
        let flat = row * self.width + col;
        match &self.layout {
            RowsLayout::Dense { lane } => lane[flat],
            RowsLayout::Block {
                lane, scale, group, ..
            } => lane[flat] * scale[flat / group],
        }
    }

    /// All rows as a flat dense f32 buffer — bit-identical to the rows
    /// that were pushed.
    pub fn to_dense(&self) -> Vec<f32> {
        match &self.layout {
            RowsLayout::Dense { lane } => lane.clone(),
            RowsLayout::Block {
                lane, scale, group, ..
            } => lane
                .iter()
                .enumerate()
                .map(|(i, &l)| l * scale[i / *group])
                .collect(),
        }
    }
}

/// Encodes one whole-block row into (lane values, chunks); `None` if
/// any chunk fails the bit-exact round trip (the caller demotes).
fn encode_row(row: &[f32], alg: &FormatAlgebra, group: usize) -> Option<(Vec<f32>, Vec<AlgChunk>)> {
    let mut lane = Vec::with_capacity(row.len());
    let mut chunks = Vec::with_capacity(row.len() / group);
    for chunk_vals in row.chunks(group) {
        if chunk_vals.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let encoded = encode_chunk(chunk_vals, alg);
        for (i, v) in chunk_vals.iter().enumerate() {
            if encoded.decode_value(i, alg).to_bits() != v.to_bits() {
                return None;
            }
            lane.push(encoded.lane_value(i, alg));
        }
        chunks.push(encoded);
    }
    Some((lane, chunks))
}

/// `q · K[j, c0..c0+q.len()]` over a packed row buffer: the QK^T inner
/// product of one attention head against one cached key row.
/// Bit-identical to the dense f32 dot in ascending-column order (the
/// block scale folds into the broadcast activation, exactly as in
/// [`PackedMatrix::gemm_transposed`]).
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
    let flat0 = j * rows.width + c0;
    match &rows.layout {
        RowsLayout::Dense { lane } => dot_plain(q, &lane[flat0..flat0 + dh]),
        RowsLayout::Block {
            lane, scale, group, ..
        } => {
            let k_row = &lane[flat0..flat0 + dh];
            if c0.is_multiple_of(*group) && dh.is_multiple_of(*group) {
                dot_scaled_aligned(q, k_row, &scale[flat0 / *group..], *group)
            } else {
                dot_scaled(q, k_row, scale, *group, flat0)
            }
        }
    }
}

/// `out[d] += probs[j] · V[j, c0+d]` for every row `j` in ascending
/// order: the AV accumulation of one attention head over a packed row
/// buffer, bit-identical to the dense f32 loop (per output element the
/// `+=`s arrive in the same order, and the power-of-two block scale
/// folds into the broadcast probability exactly).
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
        RowsLayout::Dense { lane } => {
            for (j, &p) in probs.iter().enumerate() {
                let flat0 = j * rows.width + c0;
                let v_row = &lane[flat0..flat0 + dh];
                for (o, &vv) in out.iter_mut().zip(v_row) {
                    *o += p * vv;
                }
            }
        }
        RowsLayout::Block {
            lane, scale, group, ..
        } => {
            for (j, &p) in probs.iter().enumerate() {
                let flat0 = j * rows.width + c0;
                let mut d = 0;
                while d < dh {
                    let flat = flat0 + d;
                    let block = flat / group;
                    let seg_end = dh.min(d + (group - flat % group));
                    let ps = p * scale[block];
                    for dd in d..seg_end {
                        out[dd] += ps * lane[flat0 + dd];
                    }
                    d = seg_end;
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
/// columns under `scheme` — dense f32 bytes when the scheme has no
/// block layout or `width` is not a whole number of blocks. This is the
/// single source of truth KV arenas and serving schedulers size page
/// byte budgets by: a full [`PackedRows`] buffer of quantised rows
/// occupies exactly this many bytes.
pub fn packed_rows_capacity_bytes(scheme: SchemeSpec, width: usize, rows: usize) -> usize {
    let bits = match scheme.block_algebra() {
        Some(alg) if width > 0 && width.is_multiple_of(alg.block_size) => {
            rows * (width / alg.block_size) * chunk_bits(&alg, alg.block_size)
        }
        _ => rows * width * 32,
    };
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbfp::bbfp_quantize_slice;
    use crate::bfp::bfp_quantize_slice;
    use crate::format::{BbfpConfig, BfpConfig};

    fn quantised(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        };
        let raw: Vec<f32> = (0..n).map(|_| next() * 4.0).collect();
        let mut out = vec![0.0; n];
        match scheme {
            SchemeSpec::Bfp(m) => bfp_quantize_slice(
                &raw,
                BfpConfig::new(m).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Bbfp(m, o) => bbfp_quantize_slice(
                &raw,
                BbfpConfig::new(m, o).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Mx(..) | SchemeSpec::Msfp(..) | SchemeSpec::BlockMf(..) => {
                let alg = scheme.algebra().unwrap().unwrap();
                crate::algebra::algebra_quantize_slice(
                    &raw,
                    &alg,
                    RoundingMode::NearestEven,
                    &mut out,
                );
            }
            SchemeSpec::Fp16 => {
                for (o, &v) in out.iter_mut().zip(&raw) {
                    *o = Fp16::from_f32_saturating(v).to_f32();
                }
            }
            _ => out.copy_from_slice(&raw),
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

    #[test]
    fn block_round_trip_full_and_ragged() {
        for scheme in [SchemeSpec::Bfp(4), SchemeSpec::Bbfp(4, 2)] {
            let bs = scheme.block_algebra().unwrap();
            for len in [32usize, 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let block = PackedBlock::encode(&q, bs).unwrap();
                assert_eq!(block.decode(), q, "{scheme} len {len}");
                assert_eq!(
                    block.packed_bits(),
                    5 + len * bs.payload_bits_per_element() as usize
                );
            }
        }
    }

    #[test]
    fn new_family_blocks_round_trip_with_exact_bit_budgets() {
        for scheme in NEW_FAMILIES {
            let alg = scheme.block_algebra().unwrap();
            for len in [alg.block_size, 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let block = PackedBlock::encode(&q, alg).unwrap();
                assert_eq!(block.decode(), q, "{scheme} len {len}");
                let sub_bits = match alg.scale {
                    ScaleKind::TwoLevel {
                        sub_block,
                        sub_scale_bits,
                        ..
                    } => len.div_ceil(sub_block) * sub_scale_bits as usize,
                    _ => 0,
                };
                let scale_bits = match alg.scale {
                    ScaleKind::SharedExponent { bits }
                    | ScaleKind::SharedBias { bits }
                    | ScaleKind::TwoLevel { bits, .. } => bits as usize,
                };
                assert_eq!(
                    block.packed_bits(),
                    scale_bits + sub_bits + len * alg.payload_bits_per_element() as usize,
                    "{scheme} len {len}"
                );
            }
        }
    }

    #[test]
    fn new_family_block_dot_is_bit_identical() {
        for scheme in NEW_FAMILIES {
            let bs = scheme.block_algebra().unwrap();
            let n = bs.block_size;
            let q = quantised(scheme, n, 11);
            let acts = quantised(SchemeSpec::Fp16, n, 17);
            let block = PackedBlock::encode(&q, bs).unwrap();
            let mut acc = 0.0f32;
            for (a, w) in acts.iter().zip(&q) {
                acc += a * w;
            }
            assert_eq!(block.block_dot(&acts).to_bits(), acc.to_bits(), "{scheme}");
        }
    }

    #[test]
    fn encode_rejects_unquantised_input() {
        let bs = SchemeSpec::Bfp(4).block_algebra().unwrap();
        let raw: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        assert!(matches!(
            PackedBlock::encode(&raw, bs),
            Err(FormatError::NotRepresentable(_))
        ));
        // Points that have no block codec are typed errors too.
        let q = quantised(SchemeSpec::Fp16, 32, 3);
        assert!(matches!(
            PackedBlock::encode(&q[..1], FormatAlgebra::scalar_fp16()),
            Err(FormatError::BlockSize(1))
        ));
        let mut wide = FormatAlgebra::bbfp(4, 2).unwrap();
        wide.element = crate::algebra::ElementKind::Flagged { overlap_bits: 4 };
        assert!(matches!(
            PackedBlock::encode(&q, wide),
            Err(FormatError::OverlapWidth { .. })
        ));
    }

    #[test]
    fn block_dot_is_bit_identical() {
        for scheme in [
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
        ] {
            let bs = scheme.block_algebra().unwrap();
            let q = quantised(scheme, 32, 11);
            let acts = quantised(SchemeSpec::Fp16, 32, 17);
            let block = PackedBlock::encode(&q, bs).unwrap();
            let mut acc = 0.0f32;
            for (a, w) in acts.iter().zip(&q) {
                acc += a * w;
            }
            assert_eq!(block.block_dot(&acts).to_bits(), acc.to_bits(), "{scheme}");
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

    /// A block-layout matrix holds its codes and one f32 scale per block
    /// and nothing else — no per-element f32, no bit stream — for every
    /// Table II / Fig. 8 block scheme and the new families, at 192×512
    /// and a ragged shape. `packed_bits()`, computed from the algebra,
    /// equals the bit length `write_chunk` gives the same chunks, ragged
    /// tail included.
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
            for (rows, cols) in [(192usize, 512usize), (7, 45)] {
                let q = quantised(scheme, rows * cols, 83);
                let p = PackedMatrix::pack(&q, rows, cols, scheme);
                // Every field named, so a new one has to be counted here.
                let Layout::Block {
                    alg: _,
                    codes,
                    scale,
                    group,
                    scale_range: _,
                } = &p.layout
                else {
                    panic!("{scheme} {rows}x{cols} takes the block layout");
                };
                let (code_bytes, held) = match codes {
                    Codes::I16(c) => (2, std::mem::size_of_val(c.as_slice())),
                    Codes::F32(c) => (4, std::mem::size_of_val(c.as_slice())),
                };
                let wide = matches!(scheme, SchemeSpec::BlockMf(..));
                assert_eq!(code_bytes, if wide { 4 } else { 2 }, "{scheme} code width");
                let blocks = (rows * cols).div_ceil(*group);
                assert_eq!(
                    held + std::mem::size_of_val(scale.as_slice()),
                    code_bytes * rows * cols + 4 * blocks,
                    "{scheme} {rows}x{cols} resident bytes"
                );
                let mut w = BitWriter::new();
                for chunk in q.chunks(alg.block_size) {
                    algebra::write_chunk(&mut w, &encode_chunk(chunk, &alg), &alg);
                }
                assert_eq!(p.packed_bits(), w.bit_len(), "{scheme} {rows}x{cols} bits");
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
                    Layout::Block {
                        codes: Codes::I16(codes),
                        scale,
                        group,
                        ..
                    } => p
                        .block_tile(codes, scale, *group, cols, &rows)
                        .columns(&mut out),
                    Layout::Block { .. } => panic!("{scheme:?} codes fit i16"),
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

    #[test]
    fn transposed_aligned_fast_path_is_bit_identical_to_segment_walk() {
        // The aligned fast path of the packed-row dot must agree
        // bit-for-bit with the generic segment walk it bypasses, and the
        // matrix's transposed GEMM over codes (tile-major or flat) with
        // both, on every block scheme.
        for scheme in [
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bfp(6),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let bs = scheme.block_algebra().unwrap();
            let group = bs.block_size;
            let (w_rows, n) = (4usize, group * 3);
            let q = quantised(scheme, w_rows * n, 31);
            let p = PackedMatrix::pack(&q, w_rows, n, scheme);
            assert_eq!(p.layout_kind(), LayoutKind::Block, "{scheme}");
            let mut rows = PackedRows::new(scheme, n);
            for r in 0..w_rows {
                rows.push_row(&q[r * n..(r + 1) * n]);
            }
            let RowsLayout::Block { lane, scale, .. } = &rows.layout else {
                panic!("{scheme} rows take the block layout");
            };
            let x = quantised(SchemeSpec::Fp16, n, 37);
            let mut packed = vec![f32::NAN; w_rows];
            p.gemm_transposed(&x, 1, &mut packed);
            for r in 0..w_rows {
                let w_row = &lane[r * n..(r + 1) * n];
                let fast = dot_scaled_aligned(&x, w_row, &scale[r * (n / group)..], group);
                let slow = dot_scaled(&x, w_row, scale, group, r * n);
                assert_eq!(fast.to_bits(), slow.to_bits(), "{scheme} row {r}");
                assert_eq!(
                    packed[r].to_bits(),
                    slow.to_bits(),
                    "{scheme} codes row {r}"
                );
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

    #[test]
    fn packed_rows_capacity_matches_actual_bits() {
        for scheme in [SchemeSpec::Bbfp(4, 2), SchemeSpec::Mx(8, 4, 2)] {
            let bs = scheme.block_algebra().unwrap();
            let width = bs.block_size;
            let mut rows = PackedRows::new(scheme, width);
            for r in 0..3 {
                rows.push_row(&quantised(scheme, width, 7 + r));
            }
            assert_eq!(
                rows.packed_bits().div_ceil(8),
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

    #[test]
    fn packed_rows_reset_recycles_across_schemes() {
        let mut rows = PackedRows::new(SchemeSpec::Bfp(4), 32);
        rows.push_row(&quantised(SchemeSpec::Bfp(4), 32, 9));
        rows.reset(SchemeSpec::Msfp(4, 16), 16);
        assert!(rows.is_empty());
        assert_eq!(rows.width(), 16);
        assert_eq!(rows.layout_kind(), LayoutKind::Block);
        rows.push_row(&quantised(SchemeSpec::Msfp(4, 16), 16, 9));
        assert_eq!(rows.rows(), 1);
        rows.clear();
        assert!(rows.is_empty());
        assert_eq!(rows.packed_bits(), 0);
    }

    #[test]
    fn attn_kernels_match_dense_reference_aligned_and_ragged() {
        // head_dim 16 against block-32 schemes exercises the ragged
        // segment walk; block-16 MSFP and c0 multiples of 32 the aligned
        // fast path.
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
            let width = 64usize;
            let n_rows = 7usize;
            let mut rows = PackedRows::new(scheme, width);
            let mut dense = Vec::new();
            for r in 0..n_rows {
                let q = quantised(scheme, width, 50 + r as u64);
                rows.push_row(&q);
                dense.extend_from_slice(&q);
            }
            let probs = quantised(SchemeSpec::Fp16, n_rows, 77);
            for (c0, dh) in [(0usize, 16usize), (16, 16), (48, 16), (0, 32), (32, 32)] {
                let q_vec = quantised(SchemeSpec::Fp16, dh, 81);
                for j in 0..n_rows {
                    let mut reference = 0.0f32;
                    for (d, qv) in q_vec.iter().enumerate() {
                        reference += qv * dense[j * width + c0 + d];
                    }
                    let got = attn_dot_packed(&q_vec, &rows, j, c0);
                    assert_eq!(
                        got.to_bits(),
                        reference.to_bits(),
                        "{scheme} dot c0={c0} dh={dh} j={j}"
                    );
                }
                let mut out = vec![0.0f32; dh];
                let mut reference = vec![0.0f32; dh];
                for (j, &p) in probs.iter().enumerate() {
                    for (d, rv) in reference.iter_mut().enumerate() {
                        *rv += p * dense[j * width + c0 + d];
                    }
                }
                attn_weighted_sum_packed(&probs, &rows, c0, &mut out);
                let same = out
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme} weighted sum c0={c0} dh={dh}");
            }
        }
    }

    #[test]
    fn gemm_transposed_matches_reference() {
        for scheme in [
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Oltron,
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let (w_rows, n) = (5usize, 40usize);
            let q = quantised(scheme, w_rows * n, 19);
            let p = PackedMatrix::pack(&q, w_rows, n, scheme);
            let x = quantised(SchemeSpec::Fp16, 3 * n, 23);
            let mut out = vec![0.0; 3 * w_rows];
            p.gemm_transposed(&x, 3, &mut out);
            for i in 0..3 {
                for r in 0..w_rows {
                    let mut acc = 0.0f32;
                    for j in 0..n {
                        acc += x[i * n + j] * q[r * n + j];
                    }
                    assert_eq!(out[i * w_rows + r].to_bits(), acc.to_bits(), "{scheme}");
                }
            }
        }
    }
}
