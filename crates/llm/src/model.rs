//! A from-scratch decoder-only transformer with synthetic weights.
//!
//! The model implements the standard decoder stack the paper evaluates:
//! per-layer attention (QKV projection, scaled-dot-product with causal
//! mask, softmax, output projection) and a feed-forward network (gated
//! SILU for Llama-profile, GELU for OPT-profile), with RMSNorm/LayerNorm
//! and a tied unembedding head. All quantisation enters through
//! [`InferenceHooks`].
//!
//! Weights are synthesised from a [`ModelSpec`]'s [`OutlierProfile`](crate::zoo::OutlierProfile): a
//! Gaussian body plus (a) *channel-structured* outliers — a few hidden
//! channels whose writers are scaled up, reproducing the activation
//! outliers of the paper's Fig. 1(a) — and (b) sparse unstructured weight
//! outliers.

use crate::hooks::InferenceHooks;
use crate::kv::{KvArena, KvStore, KvUsage, PageRef};
use crate::ops;
use crate::rng::Stream;
use crate::tensor::Tensor;
use crate::zoo::{Family, ModelSpec};
use bbal_core::{
    attn_scores_packed, attn_weighted_sum_packed, PackedMatrix, PackedRows, SchemeSpec,
};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// The weight matrices of one decoder layer, in one storage form `W`:
/// dense [`Tensor`]s by default, [`PackedMatrix`]es inside a packed
/// model.
#[derive(Debug, Clone)]
pub struct LayerWeights<W = Tensor> {
    /// Query projection, `hidden × hidden`.
    pub wq: W,
    /// Key projection, `hidden × hidden`.
    pub wk: W,
    /// Value projection, `hidden × hidden`.
    pub wv: W,
    /// Attention output projection, `hidden × hidden`.
    pub wo: W,
    /// FFN gate projection (`hidden × ffn`), Llama family only.
    pub w_gate: Option<W>,
    /// FFN up projection, `hidden × ffn`.
    pub w_up: W,
    /// FFN down projection, `ffn × hidden`.
    pub w_down: W,
}

impl<W> LayerWeights<W> {
    /// The same layer with every matrix converted by `f`.
    fn map<'a, U>(&'a self, mut f: impl FnMut(&'a W) -> U) -> LayerWeights<U> {
        LayerWeights {
            wq: f(&self.wq),
            wk: f(&self.wk),
            wv: f(&self.wv),
            wo: f(&self.wo),
            w_gate: self.w_gate.as_ref().map(&mut f),
            w_up: f(&self.w_up),
            w_down: f(&self.w_down),
        }
    }
}

impl LayerWeights {
    /// Applies a transform to every linear weight matrix in the layer.
    pub fn for_each_weight_mut(&mut self, f: &mut impl FnMut(&mut [f32])) {
        f(self.wq.data_mut());
        f(self.wk.data_mut());
        f(self.wv.data_mut());
        f(self.wo.data_mut());
        if let Some(g) = self.w_gate.as_mut() {
            f(g.data_mut());
        }
        f(self.w_up.data_mut());
        f(self.w_down.data_mut());
    }
}

/// Per-layer key/value rows cached during autoregressive decoding, as a
/// sequence of fixed-size pages drawn from a [`KvArena`].
#[derive(Debug, Default)]
struct LayerKv {
    /// Pages in token order: page `p` holds rows
    /// `p·page_tokens .. (p+1)·page_tokens` of this layer. Pages may be
    /// shared with other caches (adopted prefixes, copy-on-write
    /// clones); only the uniquely-owned tail page is ever appended to.
    pages: Vec<PageRef>,
}

/// Owned KV-cache state for [`TransformerModel::prefill`] and
/// [`TransformerModel::decode_step`].
///
/// Holds every layer's key/value rows for the tokens processed so far,
/// in fixed-size *pages* allocated from a [`KvArena`]: a page table per
/// layer maps token blocks to page buffers, so the storage a sequence
/// occupies is `layers × ⌈len / page_tokens⌉` pages and a serving
/// runtime can budget the pool (see `bbal-serve`). The paging is purely
/// a storage layout — prefill/decode logits are bit-identical for any
/// page size.
///
/// Create one with [`TransformerModel::kv_cache`] (private unbounded
/// arena) or [`TransformerModel::kv_cache_in`] (shared arena); a cache
/// is bound to the model geometry it was created for. Dropping or
/// [clearing](KvCache::clear) the cache returns its pages to the arena.
#[derive(Debug)]
pub struct KvCache {
    hidden: usize,
    page_tokens: usize,
    arena: KvArena,
    store: KvStore,
    /// Arena byte charge per page, fixed by the store at construction.
    page_charge: u64,
    layers: Vec<LayerKv>,
    len: usize,
}

impl KvCache {
    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before any token has been processed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tokens per page (fixed by the arena the cache draws from).
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Pages currently held by this cache across all layers.
    pub fn pages_in_use(&self) -> usize {
        self.layers.iter().map(|l| l.pages.len()).sum()
    }

    /// The arena this cache allocates from.
    pub fn arena(&self) -> &KvArena {
        &self.arena
    }

    /// The KV storage policy this cache was created with.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Discards all cached tokens (start of a new sequence), dropping
    /// this cache's reference on every page. Private pages return to
    /// the arena; shared pages stay with their other holders (or with
    /// the arena's prefix index).
    pub fn clear(&mut self) {
        for l in &mut self.layers {
            for page in l.pages.drain(..) {
                self.arena.release_ref(page);
            }
        }
        self.len = 0;
    }

    /// Adopts the longest cached token prefix of `tokens` from the
    /// arena's prefix index under namespace `class`, capped at
    /// `max_tokens` tokens. The shared full pages are attached by
    /// refcount — no KV rows are recomputed or copied — and the cache
    /// length advances past them, so the next
    /// [`prefill_chunk`](TransformerModel::prefill_chunk) starts at the
    /// first uncached token. Returns the tokens adopted (a multiple of
    /// [`page_tokens`](KvCache::page_tokens); `0` on a cold prefix).
    ///
    /// `class` must name everything the cached rows depend on — the
    /// model and the quantisation scheme that produced them (see
    /// `bbal-session`'s prefix-class helper).
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty: a prefix replaces the start of
    /// a sequence, never the middle.
    pub fn adopt_prefix(&mut self, class: u64, tokens: &[usize], max_tokens: usize) -> usize {
        assert!(self.is_empty(), "adopt_prefix requires an empty cache");
        let blocks = self
            .arena
            .adopt_prefix(class, tokens, max_tokens, self.layers.len());
        self.len = blocks.len() * self.page_tokens;
        for block in blocks {
            for (lk, page) in self.layers.iter_mut().zip(block) {
                lk.pages.push(page);
            }
        }
        self.len
    }

    /// Publishes this cache's full prefix pages into the arena's prefix
    /// index under namespace `class`, so later caches can
    /// [adopt](KvCache::adopt_prefix) them. Every whole-page block of
    /// `tokens` whose rows this cache holds is offered; blocks already
    /// indexed are skipped (first publication wins). Publishing
    /// allocates nothing — the index shares the pages by refcount.
    ///
    /// The caller asserts that the cache's first `tokens.len()` rows
    /// were computed from exactly `tokens` (under the model + scheme
    /// `class` names): publishing anything else would poison later
    /// adopters.
    pub fn publish_prefix(&self, class: u64, tokens: &[usize]) {
        let blocks = tokens.len().min(self.len) / self.page_tokens;
        for b in 0..blocks {
            let pages: Vec<PageRef> = self.layers.iter().map(|l| l.pages[b].clone()).collect();
            self.arena
                .publish_prefix(class, &tokens[..(b + 1) * self.page_tokens], pages);
        }
    }

    /// Test support, not part of the API: the cached key and value rows
    /// of token `pos` at decoder layer `layer`, exactly as the attention
    /// kernels read them, so the fused-forward equivalence test can
    /// compare caches row by row.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `pos` is out of range.
    #[doc(hidden)]
    pub fn kv_row(&self, layer: usize, pos: usize) -> (Vec<f32>, Vec<f32>) {
        assert!(pos < self.len, "token {pos} not cached (len {})", self.len);
        let page = &self.layers[layer].pages[pos / self.page_tokens];
        let r = pos % self.page_tokens;
        let row = |rows: &PackedRows| (0..self.hidden).map(|c| rows.get(r, c)).collect();
        (row(&page.k), row(&page.v))
    }

    fn push_layer_row(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        let lk = &mut self.layers[layer];
        if lk
            .pages
            .last()
            .is_none_or(|p| p.k.rows() >= self.page_tokens)
        {
            // The scheduler reserves pages before dispatching work, and
            // a lone session's private arena is unbounded — running out
            // here means the caller's accounting is wrong.
            let page = self
                .arena
                .alloc(self.store, self.hidden, self.page_charge)
                .unwrap_or_else(|e| panic!("KV cache page allocation failed: {e}"));
            lk.pages.push(Arc::new(page));
        } else if Arc::get_mut(lk.pages.last_mut().expect("tail checked above")).is_none() {
            // Copy-on-write: the partial tail page is shared (this cache
            // or a clone of it). Appending must not be visible to the
            // other holders, so copy the rows into a private page and
            // drop our reference on the shared one.
            let tail = lk.pages.last().expect("tail checked above");
            let copy = self
                .arena
                .copy_page(tail, self.page_charge)
                .unwrap_or_else(|e| panic!("KV cache copy-on-write failed: {e}"));
            let shared = std::mem::replace(
                lk.pages.last_mut().expect("tail checked above"),
                Arc::new(copy),
            );
            self.arena.release_ref(shared);
        }
        let page = Arc::get_mut(lk.pages.last_mut().expect("page ensured above"))
            .expect("tail page is uniquely owned after copy-on-write");
        self.store.push_row(&mut page.k, k_row);
        self.store.push_row(&mut page.v, v_row);
    }
}

impl Clone for KvCache {
    /// Clones the cache by *sharing* every page with the original
    /// (copy-on-write): no rows are copied and no new pages are
    /// allocated — the arena's unique page count is unchanged while its
    /// logical count grows by the clone's handles. Whichever copy
    /// appends to a shared partial tail page first pays for a private
    /// copy of that one page; full pages stay shared forever.
    fn clone(&self) -> KvCache {
        let layers: Vec<LayerKv> = self
            .layers
            .iter()
            .map(|l| LayerKv {
                pages: l.pages.clone(),
            })
            .collect();
        let pages = layers.iter().flat_map(|l| &l.pages);
        let shared = pages.map(|p| KvUsage::page(p.charge));
        self.arena.share(shared.sum());
        KvCache {
            hidden: self.hidden,
            page_tokens: self.page_tokens,
            arena: self.arena.clone(),
            store: self.store,
            page_charge: self.page_charge,
            layers,
            len: self.len,
        }
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The decoder's linear weights — every layer plus the unembedding
/// head — in one storage form `W`.
#[derive(Debug, Clone)]
struct Linears<W> {
    layers: Vec<LayerWeights<W>>,
    unembedding: W,
}

impl Linears<PackedMatrix> {
    /// Every matrix decoded from its packed storage (exact: packing
    /// never re-quantises).
    fn decode(&self) -> Linears<Tensor> {
        let dense = |p: &PackedMatrix| Tensor::from_vec(p.rows(), p.cols(), p.decode());
        Linears {
            layers: self.layers.iter().map(|l| l.map(dense)).collect(),
            unembedding: dense(&self.unembedding),
        }
    }
}

/// Where a model's linear weights live: exactly one copy, dense or
/// packed.
#[derive(Debug, Clone)]
enum Weights {
    /// Dense f32 tensors: a synthesised or PTQ-transformed model.
    Dense(Linears<Tensor>),
    /// Packed for the scheme by
    /// [`TransformerModel::with_prepared_weights`] — the only copy of a
    /// prepared model's weights.
    Packed(SchemeSpec, Linears<PackedMatrix>),
}

/// `x · W` for one decoder weight, in whichever storage holds it.
trait Linear {
    fn apply(&self, x: &Tensor) -> Tensor;
}

impl Linear for Tensor {
    /// The scalar reference GEMM.
    fn apply(&self, x: &Tensor) -> Tensor {
        x.matmul(self)
    }
}

impl Linear for PackedMatrix {
    /// The packed kernel — bit-identical to `Tensor::matmul` over the
    /// decoded weights by the packed storage invariant (see
    /// `bbal_core::packed`).
    fn apply(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.rows(), "matmul shape mismatch");
        let mut out = Tensor::zeros(x.rows(), self.cols());
        self.gemm(x.data(), x.rows(), out.data_mut());
        out
    }
}

/// A borrowed reference weight under a PTQ hook: every GEMM quantises
/// a copy of the matrix, runs the scalar reference GEMM over it and
/// drops it — the GEMM of `with_transformed_weights(hooks)` with only
/// one quantised matrix alive at a time.
struct Quantised<'a, H> {
    weight: &'a Tensor,
    hooks: &'a H,
}

impl<H: InferenceHooks> Linear for Quantised<'_, H> {
    fn apply(&self, x: &Tensor) -> Tensor {
        let mut w = self.weight.clone();
        self.hooks.transform_weights(w.data_mut());
        w.apply(x)
    }
}

/// A decoder-only transformer with synthetic weights.
///
/// A prepared model ([`TransformerModel::with_prepared_weights`]) holds
/// its PTQ-quantised decoder weights *packed* in their scheme's native
/// bit layout; every weight
/// GEMM in [`prefill_chunk`](TransformerModel::prefill_chunk) (and so
/// in `forward`, `prefill` and `decode_step`) then routes
/// through the packed block-dot kernels — bit-identical to the scalar
/// path by the packed storage invariant (see `bbal_core::packed`). A
/// packed model keeps its linear weights *only* in packed form; the
/// dense tensors are decoded on demand ([`TransformerModel::layers`]).
#[derive(Debug, Clone)]
pub struct TransformerModel {
    spec: ModelSpec,
    /// Token embedding, full precision and never quantised: every
    /// model prepared from this one shares it.
    embedding: Arc<Tensor>,
    weights: Weights,
    outlier_channels: Vec<usize>,
}

impl TransformerModel {
    /// Synthesises a model from its specification (deterministic in
    /// `spec.seed`).
    pub fn synthesize(spec: &ModelSpec) -> TransformerModel {
        let mut rng = Stream::new(spec.seed);
        let h = spec.hidden;
        let ffn = spec.ffn_width();
        let p = spec.profile;

        // Choose the outlier channels once per model: these hidden
        // dimensions will carry 10-100x activations, as in Fig. 1(a).
        let n_outlier = ((h as f64 * p.channel_rate).round() as usize).max(1);
        let mut outlier_channels = Vec::with_capacity(n_outlier);
        while outlier_channels.len() < n_outlier {
            let c = rng.below(h);
            if !outlier_channels.contains(&c) {
                outlier_channels.push(c);
            }
        }

        // 1/sqrt(fan_in) scaling: each sublayer's output is unit-scale
        // relative to its (normalised) input, as in trained transformers —
        // necessary for quantisation error to propagate realistically.
        let gauss_with = |rows: usize, cols: usize, rng: &mut Stream, outliers: bool| -> Tensor {
            let sigma = p.weight_sigma / (rows as f64).sqrt();
            let mut t = Tensor::zeros(rows, cols);
            for v in t.data_mut() {
                let mut x = rng.gaussian() * sigma;
                if outliers && rng.uniform() < p.weight_outlier_rate {
                    x *= p.weight_outlier_scale;
                }
                *v = x as f32;
            }
            t
        };
        let gauss = |rows: usize, cols: usize, rng: &mut Stream| gauss_with(rows, cols, rng, true);
        // Gained matrices (score/gate paths) skip unstructured outliers:
        // the gain already models their trained structure, and stacking
        // outliers on top would break the Fig. 1(a) tight-weight property.
        let gauss_plain =
            |rows: usize, cols: usize, rng: &mut Stream| gauss_with(rows, cols, rng, false);

        // Scale the columns that *write into* outlier residual channels so
        // the activations entering every subsequent linear layer carry
        // channel-structured outliers.
        let boost_columns = |t: &mut Tensor, channels: &[usize], scale: f64| {
            for r in 0..t.rows() {
                for &c in channels {
                    let v = t.get(r, c) * scale as f32;
                    t.set(r, c, v);
                }
            }
        };

        let mut embedding = gauss(spec.vocab, h, &mut rng);
        boost_columns(&mut embedding, &outlier_channels, p.channel_scale);

        // FFN-channel outliers: a few inner-FFN channels whose gate/up
        // columns are boosted, so FFN pre-activations carry the same
        // outlier structure as the residual stream (real LLMs do; this is
        // what drives the shared exponent of the nonlinear unit's blocks).
        let n_ffn_outlier = ((ffn as f64 * p.channel_rate).round() as usize).max(1);
        let mut ffn_outlier_channels = Vec::with_capacity(n_ffn_outlier);
        while ffn_outlier_channels.len() < n_ffn_outlier {
            let c = rng.below(ffn);
            if !ffn_outlier_channels.contains(&c) {
                ffn_outlier_channels.push(c);
            }
        }

        // Real LLMs produce attention logits spanning roughly ±10..±30 and
        // FFN pre-activations of similar range — the ranges that make
        // max-aligned nonlinear quantisation lossy (Table IV). Gain up the
        // score path (function-changing: sharper attention, as in real
        // models) and the FFN inner path (function-preserving: the down
        // projection divides the gain back out).
        const SCORE_GAIN: f64 = 4.0;
        const FFN_GAIN: f64 = 2.0;

        let mut layers = Vec::with_capacity(spec.layers);
        for _ in 0..spec.layers {
            let mut wq = gauss_plain(h, h, &mut rng);
            let mut wk = gauss_plain(h, h, &mut rng);
            wq.scale(SCORE_GAIN as f32);
            wk.scale(SCORE_GAIN as f32);
            let wv = gauss(h, h, &mut rng);
            let mut wo = gauss(h, h, &mut rng);
            boost_columns(&mut wo, &outlier_channels, p.channel_scale.sqrt());
            let w_gate = match spec.family {
                Family::Llama => {
                    let mut g = gauss_plain(h, ffn, &mut rng);
                    g.scale(FFN_GAIN as f32);
                    // sqrt like the residual-channel boosts, with the FFN
                    // gain divided back out of the boosted columns: the FFN
                    // pre-activations still carry structured outliers, but
                    // the weights themselves stay Fig. 1(a)-tight.
                    boost_columns(
                        &mut g,
                        &ffn_outlier_channels,
                        p.channel_scale.sqrt() / FFN_GAIN,
                    );
                    Some(g)
                }
                Family::Opt => None,
            };
            let mut w_up = gauss(h, ffn, &mut rng);
            let mut w_down = gauss(ffn, h, &mut rng);
            match spec.family {
                // Llama: the gate carries the gain and the up projection
                // divides it back out of the product, so sigmoid-LUT error
                // propagates at its natural (undamped) scale.
                Family::Llama => w_up.scale(1.0 / FFN_GAIN as f32),
                // OPT: the single up projection carries the gain.
                Family::Opt => {
                    w_up.scale(FFN_GAIN as f32);
                    boost_columns(
                        &mut w_up,
                        &ffn_outlier_channels,
                        p.channel_scale.sqrt() / FFN_GAIN,
                    );
                    w_down.scale(1.0 / FFN_GAIN as f32);
                }
            }
            boost_columns(&mut w_down, &outlier_channels, p.channel_scale.sqrt());
            layers.push(LayerWeights {
                wq,
                wk,
                wv,
                wo,
                w_gate,
                w_up,
                w_down,
            });
        }

        let unembedding = gauss(h, spec.vocab, &mut rng);

        TransformerModel {
            spec: spec.clone(),
            embedding: Arc::new(embedding),
            weights: Weights::Dense(Linears {
                layers,
                unembedding,
            }),
            outlier_channels,
        }
    }

    /// The specification this model was synthesised from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The decoder layers as dense tensors (for inspection and
    /// statistics). Borrowed from a dense model; a packed model holds
    /// its weights only in packed form, so for it every matrix is
    /// decoded from the packed storage (exactly the weights it computes
    /// with).
    pub fn layers(&self) -> Cow<'_, [LayerWeights]> {
        match self.dense() {
            Cow::Borrowed(w) => Cow::Borrowed(&w.layers),
            Cow::Owned(w) => Cow::Owned(w.layers),
        }
    }

    /// The linear weights as dense tensors: borrowed, or decoded from
    /// the packed storage.
    fn dense(&self) -> Cow<'_, Linears<Tensor>> {
        match &self.weights {
            Weights::Dense(w) => Cow::Borrowed(w),
            Weights::Packed(_, linears) => Cow::Owned(linears.decode()),
        }
    }

    /// Hidden channels designated as outlier carriers.
    pub fn outlier_channels(&self) -> &[usize] {
        &self.outlier_channels
    }

    /// Returns a clone whose linear weights have been passed through the
    /// hook's weight transform (the PTQ step: quantise-dequantise every
    /// weight matrix once). Embedding and unembedding stay full precision,
    /// as is standard for W/A quantisation studies.
    pub fn with_transformed_weights(&self, hooks: &impl InferenceHooks) -> TransformerModel {
        let mut linears = self.dense().into_owned();
        for layer in &mut linears.layers {
            layer.for_each_weight_mut(&mut |w| hooks.transform_weights(w));
        }
        TransformerModel {
            spec: self.spec.clone(),
            embedding: self.embedding.clone(),
            weights: Weights::Dense(linears),
            outlier_channels: self.outlier_channels.clone(),
        }
    }

    /// The model prepared for serving under `scheme`: every decoder
    /// weight matrix quantised by the PTQ step and packed in `scheme`'s
    /// native layout, one matrix at a time, so no dense quantised copy
    /// of the model is ever built. A block scheme quantises and packs in
    /// one encode pass ([`PackedMatrix::encode`]; `hooks` must then be
    /// that block quantiser); any other scheme quantises a copy of the
    /// matrix with `hooks.transform_weights` and packs that buffer
    /// itself ([`PackedMatrix::pack_owned`]). Equal, bit for bit, to
    /// [`TransformerModel::with_transformed_weights`] followed by
    /// [`PackedMatrix::pack`] of every matrix. The unembedding stays
    /// full precision and packs as an f32 lane.
    pub fn with_prepared_weights(
        &self,
        scheme: SchemeSpec,
        hooks: &impl InferenceHooks,
    ) -> TransformerModel {
        let dense = self.dense();
        let prepare = |t: &Tensor| {
            let (data, rows, cols) = (t.data(), t.rows(), t.cols());
            PackedMatrix::encode(data, rows, cols, scheme).unwrap_or_else(|| {
                let mut w = data.to_vec();
                hooks.transform_weights(&mut w);
                PackedMatrix::pack_owned(w, rows, cols, scheme)
            })
        };
        let u = &dense.unembedding;
        let unembedding = PackedMatrix::pack(u.data(), u.rows(), u.cols(), SchemeSpec::Fp32);
        TransformerModel {
            spec: self.spec.clone(),
            embedding: self.embedding.clone(),
            weights: Weights::Packed(
                scheme,
                Linears {
                    layers: dense.layers.iter().map(|l| l.map(prepare)).collect(),
                    unembedding,
                },
            ),
            outlier_channels: self.outlier_channels.clone(),
        }
    }

    /// Test support, not part of the API: every packed weight matrix of
    /// a prepared model in decoder order (each layer's `wq`, `wk`, `wv`,
    /// `wo`, gate, up, down), the unembedding last; empty for a dense
    /// model.
    #[doc(hidden)]
    pub fn packed_matrices(&self) -> Vec<&PackedMatrix> {
        let Weights::Packed(_, w) = &self.weights else {
            return Vec::new();
        };
        let layers = w.layers.iter().flat_map(|l| {
            let attention = [&l.wq, &l.wk, &l.wv, &l.wo];
            attention
                .into_iter()
                .chain(&l.w_gate)
                .chain([&l.w_up, &l.w_down])
        });
        layers.chain([&w.unembedding]).collect()
    }

    /// The scheme the decoder weights are currently packed for, if any.
    pub fn packed_scheme(&self) -> Option<SchemeSpec> {
        match &self.weights {
            Weights::Dense(_) => None,
            Weights::Packed(scheme, _) => Some(*scheme),
        }
    }

    fn normalise(&self, x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for r in 0..out.rows() {
            match self.spec.family {
                Family::Llama => ops::rmsnorm_in_place(out.row_mut(r)),
                Family::Opt => ops::layernorm_in_place(out.row_mut(r)),
            }
        }
        out
    }

    /// An empty KV cache sized for this model's geometry, backed by its
    /// own unbounded [`KvArena`] (the single-session default).
    pub fn kv_cache(&self) -> KvCache {
        self.kv_cache_in(&KvArena::default())
    }

    /// An empty KV cache drawing its pages from `arena` — the serving
    /// configuration, where every request's cache shares (and is
    /// bounded by) one arena. Rows are stored dense f32
    /// ([`KvStore::dense_f32`]).
    pub fn kv_cache_in(&self, arena: &KvArena) -> KvCache {
        self.kv_cache_with(arena, KvStore::default())
    }

    /// An empty KV cache drawing from `arena` with an explicit KV
    /// [storage policy](KvStore): `store.quantize` passes K/V rows
    /// through the scheme's quantiser, `store.packed` keeps the page
    /// buffers in the scheme's packed block layout. Each arena page is
    /// charged [`KvStore::page_bytes`] against the arena's byte budget.
    pub fn kv_cache_with(&self, arena: &KvArena, store: KvStore) -> KvCache {
        KvCache {
            hidden: self.spec.hidden,
            page_tokens: arena.page_tokens(),
            arena: arena.clone(),
            page_charge: store.page_bytes(self.spec.hidden, arena.page_tokens()),
            store,
            layers: (0..self.spec.layers).map(|_| LayerKv::default()).collect(),
            len: 0,
        }
    }

    /// Runs the decoder over a prompt, filling `cache` with every layer's
    /// key/value rows and returning the full `[seq, vocab]` logits —
    /// the prefill phase of autoregressive serving. Subsequent tokens go
    /// through [`TransformerModel::decode_step`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is non-empty, was built for a different
    /// geometry, or `tokens` is invalid (see
    /// [`TransformerModel::forward`]).
    pub fn prefill(
        &self,
        tokens: &[usize],
        hooks: &impl InferenceHooks,
        cache: &mut KvCache,
    ) -> Tensor {
        assert!(cache.is_empty(), "prefill needs an empty cache");
        self.prefill_chunk(tokens, hooks, cache)
    }

    fn check_cache(&self, cache: &KvCache) {
        assert_eq!(
            cache.hidden, self.spec.hidden,
            "cache hidden width mismatch"
        );
        assert_eq!(
            cache.layers.len(),
            self.spec.layers,
            "cache layer count mismatch"
        );
    }

    /// Runs the decoder over a token sequence, returning `[seq, vocab]`
    /// logits: a [`prefill_chunk`](TransformerModel::prefill_chunk) of
    /// the whole sequence into a scratch KV cache. Activation transforms
    /// and nonlinear hooks are applied at every layer; weight transforms
    /// are *not* (call [`TransformerModel::with_transformed_weights`] or
    /// [`TransformerModel::with_prepared_weights`] first).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocab.
    pub fn forward(&self, tokens: &[usize], hooks: &impl InferenceHooks) -> Tensor {
        self.prefill_chunk(tokens, hooks, &mut self.kv_cache())
    }

    /// Processes a *chunk* of tokens against a (possibly non-empty) KV
    /// cache, appending their KV rows and returning the chunk's
    /// `[chunk, vocab]` logits — the chunked-prefill primitive of
    /// continuous batching: the `O(hidden²)` projections and the FFN run
    /// as one batched GEMM over the chunk, while each row attends
    /// causally over the cache (`past + i + 1` keys for chunk row `i`).
    ///
    /// This is the one-segment [`forward_segments`](TransformerModel::forward_segments);
    /// [`TransformerModel::forward`] and [`TransformerModel::prefill`]
    /// are the empty-cache case and [`TransformerModel::decode_step`] the
    /// single-token case. Every linear operator is row-independent and
    /// each row's attention dot products accumulate in key order whatever
    /// the chunk boundaries, so for hooks whose activation transform is
    /// block-local the logits are bit-identical to one whole-sequence
    /// chunk — any chunking of a prompt yields the same tokens.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a different geometry, `tokens`
    /// is empty, or a token is out of vocab.
    pub fn prefill_chunk(
        &self,
        tokens: &[usize],
        hooks: &impl InferenceHooks,
        cache: &mut KvCache,
    ) -> Tensor {
        self.forward_segments(&mut [(cache, tokens)], hooks)
    }

    /// The one decoder body: feeds several independent sequences at
    /// once, each a *segment* — a KV cache and the chunk of tokens to
    /// append to it (a multi-token prefill chunk or a one-token decode
    /// step). Returns the `[Σ chunk, vocab]` logits, segment after
    /// segment in list order.
    ///
    /// Every linear layer runs as **one** GEMM over all segments' rows,
    /// so each weight is streamed once per call rather than once per
    /// sequence; attention stays per segment, over that segment's own
    /// cache. Each hook call (`transform_activations`, `activation`,
    /// `softmax_row`) sees exactly the rows the segment's own
    /// [`prefill_chunk`](TransformerModel::prefill_chunk) would hand it,
    /// and every GEMM is row-independent, so each segment's logits and
    /// KV rows are bit-identical to running it alone — whatever the
    /// hooks' [`activation_stats_span`](InferenceHooks::activation_stats_span).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, a cache was built for a different
    /// geometry, a segment has no tokens, or a token is out of vocab. All
    /// of these are checked before any cache is touched.
    pub fn forward_segments(
        &self,
        segments: &mut [(&mut KvCache, &[usize])],
        hooks: &impl InferenceHooks,
    ) -> Tensor {
        match &self.weights {
            Weights::Dense(w) => self.decode_segments(&w.layers, &w.unembedding, segments, hooks),
            Weights::Packed(_, w) => {
                self.decode_segments(&w.layers, &w.unembedding, segments, hooks)
            }
        }
    }

    /// [`forward_segments`](TransformerModel::forward_segments) of
    /// `with_transformed_weights(hooks)`, bit for bit, without building
    /// that model: each decoder weight is quantised when its GEMM runs
    /// and dropped afterwards, so one quantised matrix is alive at a
    /// time. The unembedding stays full precision.
    pub(crate) fn forward_segments_ptq(
        &self,
        segments: &mut [(&mut KvCache, &[usize])],
        hooks: &impl InferenceHooks,
    ) -> Tensor {
        let dense = self.dense();
        let layers: Vec<_> = dense
            .layers
            .iter()
            .map(|l| l.map(|weight| Quantised { weight, hooks }))
            .collect();
        self.decode_segments(&layers, &dense.unembedding, segments, hooks)
    }

    /// The decoder body of [`forward_segments`](TransformerModel::forward_segments),
    /// over whichever storage holds the weights.
    fn decode_segments<W: Linear>(
        &self,
        layers: &[LayerWeights<W>],
        unembedding: &impl Linear,
        segments: &mut [(&mut KvCache, &[usize])],
        hooks: &impl InferenceHooks,
    ) -> Tensor {
        assert!(!segments.is_empty(), "no segments to decode");
        let h = self.spec.hidden;
        // Each segment's rows in the fused activation buffers.
        let mut spans = Vec::with_capacity(segments.len());
        let mut total = 0;
        for (cache, tokens) in segments.iter() {
            self.check_cache(cache);
            assert!(!tokens.is_empty(), "empty token sequence");
            if let Some(t) = tokens.iter().find(|&&t| t >= self.spec.vocab) {
                panic!("token id {t} out of vocab");
            }
            spans.push(total..total + tokens.len());
            total += tokens.len();
        }
        // A hook call per segment, over that segment's rows only.
        let per_segment = |t: &mut Tensor, f: &dyn Fn(&mut [f32])| {
            let cols = t.cols();
            for span in &spans {
                f(&mut t.data_mut()[span.start * cols..span.end * cols]);
            }
        };

        let mut x = Tensor::zeros(total, h);
        let all_tokens = segments.iter().flat_map(|(_, tokens)| tokens.iter());
        for (i, &t) in all_tokens.enumerate() {
            x.row_mut(i).copy_from_slice(self.embedding.row(t));
        }

        let act = self.spec.activation();
        for (li, layer) in layers.iter().enumerate() {
            // --- Attention block ---
            let mut a = self.normalise(&x);
            per_segment(&mut a, &|rows| hooks.transform_activations(rows));
            let q = layer.wq.apply(&a);
            let k = layer.wk.apply(&a);
            let v = layer.wv.apply(&a);
            let mut ctx = Tensor::zeros(total, h);
            for ((cache, _), span) in segments.iter_mut().zip(&spans) {
                for r in span.clone() {
                    cache.push_layer_row(li, k.row(r), v.row(r));
                }
                self.attend(cache, li, &q, span.clone(), &mut ctx, hooks);
            }
            per_segment(&mut ctx, &|rows| hooks.transform_activations(rows));
            let attn_out = layer.wo.apply(&ctx);
            x.add_assign(&attn_out);

            // --- FFN block ---
            let mut f = self.normalise(&x);
            per_segment(&mut f, &|rows| hooks.transform_activations(rows));
            let ffn_out = match &layer.w_gate {
                Some(w_gate) => {
                    let mut gate = w_gate.apply(&f);
                    per_segment(&mut gate, &|rows| hooks.activation(rows, act));
                    let up = layer.w_up.apply(&f);
                    gate.mul_assign_elementwise(&up);
                    per_segment(&mut gate, &|rows| hooks.transform_activations(rows));
                    layer.w_down.apply(&gate)
                }
                None => {
                    let mut up = layer.w_up.apply(&f);
                    per_segment(&mut up, &|rows| hooks.activation(rows, act));
                    per_segment(&mut up, &|rows| hooks.transform_activations(rows));
                    layer.w_down.apply(&up)
                }
            };
            x.add_assign(&ffn_out);
        }
        for (cache, tokens) in segments.iter_mut() {
            cache.len += tokens.len();
        }

        let final_norm = self.normalise(&x);
        unembedding.apply(&final_norm)
    }

    /// Causal attention of one segment's query rows `span` (of `q`) over
    /// layer `li` of its cache, which already holds the segment's own new
    /// KV rows: row `i` of the span attends over the `past + i + 1`
    /// cached keys, writing its context into the same rows of `ctx`.
    fn attend(
        &self,
        cache: &KvCache,
        li: usize,
        q: &Tensor,
        span: Range<usize>,
        ctx: &mut Tensor,
        hooks: &impl InferenceHooks,
    ) {
        let dh = self.spec.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let pt = cache.page_tokens;
        let pages = &cache.layers[li].pages;
        let mut scores = Vec::with_capacity(cache.len + span.len());
        for head in 0..self.spec.heads {
            let c0 = head * dh;
            for (i, r) in span.clone().enumerate() {
                // The page table resolves token j to its page; each
                // score accumulates in the same order as a contiguous
                // layout, so paging never changes a bit.
                let keys = cache.len + i + 1;
                scores.clear();
                scores.resize(keys, 0.0);
                let q_row = &q.row(r)[c0..c0 + dh];
                for (page, page_scores) in pages.iter().zip(scores.chunks_mut(pt)) {
                    let n = page_scores.len();
                    attn_scores_packed(q_row, &page.k, 0..n, c0, page_scores);
                }
                for s in &mut scores {
                    *s *= scale;
                }
                hooks.softmax_row(&mut scores);
                let ctx_row = &mut ctx.row_mut(r)[c0..c0 + dh];
                for (page, probs) in pages.iter().zip(scores.chunks(pt)) {
                    attn_weighted_sum_packed(probs, &page.v, c0, ctx_row);
                }
            }
        }
    }

    /// One autoregressive decode step: processes `token` against the
    /// cached keys/values, appends its own KV rows, and returns the
    /// next-token logits (`vocab` long).
    ///
    /// The per-token work is `O(hidden² + len·hidden)` — the full
    /// re-forward this replaces is `O(len·hidden² + len²·hidden)`. It is
    /// the one-token [`prefill_chunk`](TransformerModel::prefill_chunk),
    /// so for hooks whose activation transform is block-local (FP16,
    /// INT, BFP, BBFP with the default 32-wide blocks) the logits are
    /// bit-identical to the last row of [`TransformerModel::forward`]
    /// over the whole sequence.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a different geometry or the
    /// token is out of vocab.
    pub fn decode_step(
        &self,
        token: usize,
        hooks: &impl InferenceHooks,
        cache: &mut KvCache,
    ) -> Vec<f32> {
        self.prefill_chunk(&[token], hooks, cache).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::ExactHooks;
    use crate::kv::{KvArena, KvBudget};
    use crate::zoo::tiny_test_model;

    /// An independent reference decoder: dense whole-sequence attention
    /// (`Tensor::matmul` over a causally masked score matrix, no KV
    /// cache) on the scalar GEMMs, over the dense weights — decoded from
    /// the packed storage for a packed model.
    fn reference(
        model: &TransformerModel,
        tokens: &[usize],
        hooks: &impl InferenceHooks,
    ) -> Tensor {
        let spec = &model.spec;
        let (h, seq, heads, dh) = (spec.hidden, tokens.len(), spec.heads, spec.head_dim());
        let scale = 1.0 / (dh as f32).sqrt();
        let mut x = Tensor::zeros(seq, h);
        for (i, &t) in tokens.iter().enumerate() {
            x.row_mut(i).copy_from_slice(model.embedding.row(t));
        }
        let weights = model.dense();
        for layer in &weights.layers {
            let mut a = model.normalise(&x);
            hooks.transform_activations(a.data_mut());
            let (q, k, v) = (
                a.matmul(&layer.wq),
                a.matmul(&layer.wk),
                a.matmul(&layer.wv),
            );
            let mut ctx = Tensor::zeros(seq, h);
            for head in 0..heads {
                let (c0, c1) = (head * dh, (head + 1) * dh);
                let mut scores = q
                    .column_slice(c0, c1)
                    .matmul_transposed(&k.column_slice(c0, c1));
                scores.scale(scale);
                for i in 0..seq {
                    let row = scores.row_mut(i);
                    hooks.softmax_row(&mut row[..=i]);
                    row[i + 1..].fill(0.0);
                }
                ctx.set_column_slice(c0, &scores.matmul(&v.column_slice(c0, c1)));
            }
            hooks.transform_activations(ctx.data_mut());
            x.add_assign(&ctx.matmul(&layer.wo));

            let mut f = model.normalise(&x);
            hooks.transform_activations(f.data_mut());
            let mut inner = match &layer.w_gate {
                Some(w_gate) => {
                    let mut gate = f.matmul(w_gate);
                    hooks.activation(gate.data_mut(), spec.activation());
                    gate.mul_assign_elementwise(&f.matmul(&layer.w_up));
                    gate
                }
                None => {
                    let mut up = f.matmul(&layer.w_up);
                    hooks.activation(up.data_mut(), spec.activation());
                    up
                }
            };
            hooks.transform_activations(inner.data_mut());
            x.add_assign(&inner.matmul(&layer.w_down));
        }
        model.normalise(&x).matmul(&weights.unembedding)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let spec = tiny_test_model();
        let a = TransformerModel::synthesize(&spec);
        let b = TransformerModel::synthesize(&spec);
        assert_eq!(a.layers()[0].wq.data(), b.layers()[0].wq.data());
    }

    #[test]
    fn forward_produces_finite_logits() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let logits = model.forward(&[1, 2, 3, 4], &ExactHooks);
        assert_eq!(logits.rows(), 4);
        assert_eq!(logits.cols(), 64);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causality_holds() {
        // Changing a later token must not affect earlier positions' logits.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let l1 = model.forward(&[1, 2, 3, 4], &ExactHooks);
        let l2 = model.forward(&[1, 2, 3, 63], &ExactHooks);
        for c in 0..l1.cols() {
            assert_eq!(l1.get(0, c), l2.get(0, c));
            assert_eq!(l1.get(2, c), l2.get(2, c));
        }
        // ...but it does affect the last position.
        let differs = (0..l1.cols()).any(|c| l1.get(3, c) != l2.get(3, c));
        assert!(differs);
    }

    #[test]
    fn outlier_channels_carry_large_activations() {
        let spec = tiny_test_model();
        let model = TransformerModel::synthesize(&spec);
        // Check the embedding columns directly: outlier channels should
        // have much larger RMS than the body.
        let emb = &model.embedding;
        let rms = |c: usize| -> f64 {
            let mut s = 0.0;
            for r in 0..emb.rows() {
                s += (emb.get(r, c) as f64).powi(2);
            }
            (s / emb.rows() as f64).sqrt()
        };
        let outliers = model.outlier_channels().to_vec();
        let outlier_rms: f64 =
            outliers.iter().map(|&c| rms(c)).sum::<f64>() / outliers.len() as f64;
        let body_rms: f64 = (0..emb.cols())
            .filter(|c| !outliers.contains(c))
            .map(rms)
            .sum::<f64>()
            / (emb.cols() - outliers.len()) as f64;
        assert!(
            outlier_rms > 5.0 * body_rms,
            "outlier {outlier_rms} vs body {body_rms}"
        );
    }

    #[test]
    fn weight_transform_changes_weights_only_once_applied() {
        struct Halve;
        impl InferenceHooks for Halve {
            fn transform_weights(&self, w: &mut [f32]) {
                for v in w {
                    *v *= 0.5;
                }
            }
        }
        let model = TransformerModel::synthesize(&tiny_test_model());
        let transformed = model.with_transformed_weights(&Halve);
        let orig = model.layers()[0].wq.get(0, 0);
        let half = transformed.layers()[0].wq.get(0, 0);
        assert_eq!(half, orig * 0.5);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn forward_rejects_bad_tokens() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let _ = model.forward(&[9999], &ExactHooks);
    }

    #[test]
    fn prefill_matches_forward_exactly() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let tokens = [1usize, 5, 9, 2];
        let mut cache = model.kv_cache();
        let prefilled = model.prefill(&tokens, &ExactHooks, &mut cache);
        let expected = reference(&model, &tokens, &ExactHooks);
        assert_eq!(prefilled.data(), expected.data());
        assert_eq!(model.forward(&tokens, &ExactHooks).data(), expected.data());
        assert_eq!(cache.len(), tokens.len());
    }

    #[test]
    fn decode_step_matches_full_forward() {
        // Prefill + incremental decode must reproduce the reference
        // decoder's whole-sequence logits bit for bit (same accumulation
        // order everywhere).
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut cache = model.kv_cache();
        let prompt = [3usize, 7, 1];
        model.prefill(&prompt, &ExactHooks, &mut cache);

        let mut seq = prompt.to_vec();
        for &t in &[4usize, 8, 2] {
            let step = model.decode_step(t, &ExactHooks, &mut cache);
            seq.push(t);
            let full = reference(&model, &seq, &ExactHooks);
            assert_eq!(step.as_slice(), full.row(seq.len() - 1), "token {t}");
        }
        assert_eq!(cache.len(), seq.len());
    }

    #[test]
    fn decode_from_empty_cache_matches_single_token_forward() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut cache = model.kv_cache();
        let step = model.decode_step(6, &ExactHooks, &mut cache);
        let full = reference(&model, &[6], &ExactHooks);
        assert_eq!(step.as_slice(), full.row(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_clear_restarts_a_sequence() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut cache = model.kv_cache();
        model.prefill(&[1, 2], &ExactHooks, &mut cache);
        cache.clear();
        assert!(cache.is_empty());
        let step = model.decode_step(9, &ExactHooks, &mut cache);
        let full = reference(&model, &[9], &ExactHooks);
        assert_eq!(step.as_slice(), full.row(0));
    }

    #[test]
    fn prefill_chunk_matches_token_by_token_decode() {
        // The batched chunk primitive must be bit-identical to feeding
        // the same tokens through decode_step one at a time.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut chunked = model.kv_cache();
        model.prefill(&[2, 4], &ExactHooks, &mut chunked);
        let chunk = [6usize, 8, 10];
        let logits = model.prefill_chunk(&chunk, &ExactHooks, &mut chunked);
        assert_eq!(logits.rows(), 3);
        assert_eq!(chunked.len(), 5);

        let mut stepped = model.kv_cache();
        model.prefill(&[2, 4], &ExactHooks, &mut stepped);
        for (i, &t) in chunk.iter().enumerate() {
            let step = model.decode_step(t, &ExactHooks, &mut stepped);
            assert_eq!(logits.row(i), step.as_slice(), "chunk row {i}");
        }
    }

    #[test]
    fn chunked_serving_matches_forward_under_quantising_hooks() {
        // The serving path (prefill + chunks + decode steps) must agree
        // with the whole-sequence reference bit for bit under a
        // non-trivial hook set, not just ExactHooks.
        use crate::hooks::Fp16Hooks;
        let model = TransformerModel::synthesize(&tiny_test_model());
        let seq = [3usize, 7, 1, 4, 8, 2, 6];
        let mut cache = model.kv_cache();
        model.prefill(&seq[..2], &Fp16Hooks, &mut cache);
        model.prefill_chunk(&seq[2..5], &Fp16Hooks, &mut cache);
        let last = model.decode_step(seq[5], &Fp16Hooks, &mut cache);
        let step = model.decode_step(seq[6], &Fp16Hooks, &mut cache);
        let full = reference(&model, &seq, &Fp16Hooks);
        assert_eq!(last.as_slice(), full.row(5));
        assert_eq!(step.as_slice(), full.row(6));
        assert_eq!(cache.len(), seq.len());
    }

    #[test]
    fn prefill_chunk_from_empty_cache_matches_forward() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let tokens = [1usize, 5, 9, 2];
        let mut cache = model.kv_cache();
        let chunk = model.prefill_chunk(&tokens, &ExactHooks, &mut cache);
        let full = reference(&model, &tokens, &ExactHooks);
        assert_eq!(chunk.data(), full.data());
        assert_eq!(cache.len(), tokens.len());
    }

    #[test]
    fn page_size_never_changes_logits() {
        // The paged layout is storage only: prefill + decode through
        // arenas of every page granularity must agree bit for bit with
        // the cache-free forward pass.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let prompt = [3usize, 7, 1, 9, 2];
        let decode = [4usize, 8, 2];
        let mut seq = prompt.to_vec();
        seq.extend_from_slice(&decode);
        let full = reference(&model, &seq, &ExactHooks);

        for page_tokens in [1usize, 4, 16, 64] {
            let arena = KvArena::unbounded(page_tokens);
            let mut cache = model.kv_cache_in(&arena);
            let prefilled = model.prefill(&prompt, &ExactHooks, &mut cache);
            for r in 0..prompt.len() {
                assert_eq!(prefilled.row(r), full.row(r), "pt {page_tokens} row {r}");
            }
            for (i, &t) in decode.iter().enumerate() {
                let step = model.decode_step(t, &ExactHooks, &mut cache);
                assert_eq!(
                    step.as_slice(),
                    full.row(prompt.len() + i),
                    "pt {page_tokens} decode {i}"
                );
            }
            assert_eq!(
                cache.pages_in_use(),
                arena.pages_for_tokens(seq.len(), model.spec().layers),
                "pt {page_tokens} page accounting"
            );
        }
    }

    #[test]
    fn cache_pages_return_to_the_arena() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let arena = KvArena::unbounded(2);
        let mut cache = model.kv_cache_in(&arena);
        model.prefill(&[1, 2, 3], &ExactHooks, &mut cache);
        assert_eq!(arena.in_use().pages, cache.pages_in_use());
        assert_eq!(arena.in_use().pages, 2); // 1 layer, ⌈3/2⌉ pages
        cache.clear();
        assert_eq!(arena.in_use().pages, 0);
        model.prefill(&[4], &ExactHooks, &mut cache);
        drop(cache);
        assert_eq!(arena.in_use().pages, 0);
        assert_eq!(arena.peak().pages, 2);
    }

    #[test]
    fn cloned_cache_shares_pages_and_copies_on_write() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let arena = KvArena::with_budget(4, KvBudget::Pages(4));
        let mut cache = model.kv_cache_in(&arena);
        model.prefill(&[5, 6, 7], &ExactHooks, &mut cache);
        let clone = cache.clone();
        // The clone shares the single page: one unique page against the
        // budget, two logical holders.
        assert_eq!(arena.in_use().pages, 1);
        assert_eq!(arena.logical_in_use().pages, 2);
        // Appending to the shared partial tail copies it on write, so
        // the copies diverge safely and still agree bit for bit.
        let step_a = model.decode_step(9, &ExactHooks, &mut cache);
        assert_eq!(arena.in_use().pages, 2);
        let mut clone = clone;
        let step_b = model.decode_step(9, &ExactHooks, &mut clone);
        // The clone's tail became uniquely owned after the original's
        // copy-on-write: it appends in place, no third page.
        assert_eq!(arena.in_use().pages, 2);
        assert_eq!(step_a, step_b);
        // Diverging decodes stay independent.
        let step_a2 = model.decode_step(1, &ExactHooks, &mut cache);
        let step_b2 = model.decode_step(1, &ExactHooks, &mut clone);
        assert_eq!(step_a2, step_b2);
        drop(cache);
        drop(clone);
        assert_eq!(arena.in_use().pages, 0);
        assert_eq!(arena.logical_in_use().pages, 0);
    }

    #[test]
    fn adopted_prefix_pages_reproduce_cold_logits_bit_for_bit() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let arena = KvArena::unbounded(2);
        let class = 42u64;
        let prompt_a = [3usize, 7, 1, 9, 2];
        let prompt_b = [3usize, 7, 1, 9, 8, 5]; // shares 2 full blocks

        let mut first = model.kv_cache_in(&arena);
        model.prefill(&prompt_a, &ExactHooks, &mut first);
        first.publish_prefix(class, &prompt_a);
        // 2 full blocks of 2 tokens were published (the 5th row sits in
        // a partial page); publication allocated nothing.
        assert_eq!(arena.prefix_stats().insertions, 2);
        assert_eq!(arena.in_use().pages, first.pages_in_use());

        let mut warm = model.kv_cache_in(&arena);
        let adopted = warm.adopt_prefix(class, &prompt_b, prompt_b.len() - 1);
        assert_eq!(adopted, 4);
        assert_eq!(warm.len(), 4);
        let warm_tail = model.prefill_chunk(&prompt_b[adopted..], &ExactHooks, &mut warm);
        let warm_step = model.decode_step(6, &ExactHooks, &mut warm);

        let cold_full = reference(&model, &[3, 7, 1, 9, 8, 5, 6], &ExactHooks);
        assert_eq!(warm_tail.row(1), cold_full.row(5));
        assert_eq!(warm_step.as_slice(), cold_full.row(6));
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn adopting_into_a_used_cache_is_rejected() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut cache = model.kv_cache();
        model.prefill(&[1, 2], &ExactHooks, &mut cache);
        cache.adopt_prefix(1, &[1, 2, 3], 3);
    }

    #[test]
    #[should_panic(expected = "KV arena budget")]
    fn exhausted_arena_panics_with_a_clear_message() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let arena = KvArena::with_budget(1, KvBudget::Pages(2));
        let mut cache = model.kv_cache_in(&arena);
        model.prefill(&[1, 2, 3], &ExactHooks, &mut cache);
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn prefill_rejects_a_used_cache() {
        let model = TransformerModel::synthesize(&tiny_test_model());
        let mut cache = model.kv_cache();
        model.prefill(&[1], &ExactHooks, &mut cache);
        model.prefill(&[2], &ExactHooks, &mut cache);
    }

    fn store(scheme: &str, quantize: bool, packed: bool) -> KvStore {
        KvStore {
            scheme: scheme.parse().unwrap(),
            quantize,
            packed,
        }
    }

    #[test]
    fn packed_kv_storage_never_changes_logits() {
        // `packed` is storage only: with quantisation on, packed on/off
        // must produce bit-identical prefill and decode logits while
        // the packed pages charge at most half the dense f32 bytes.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let prompt = [3usize, 7, 1, 9, 2];
        let decode = [4usize, 8, 2];
        let schemes = [
            "bfp:4",
            "bfp:6",
            "bbfp:4,2",
            "bbfp:6,3",
            "mx:8,4,2",
            "msfp:4,16",
            "blockmf:4,3,8",
        ];
        for scheme in schemes {
            let dense_arena = KvArena::unbounded(4);
            let packed_arena = KvArena::unbounded(4);
            let mut dense = model.kv_cache_with(&dense_arena, store(scheme, true, false));
            let mut packed = model.kv_cache_with(&packed_arena, store(scheme, true, true));
            let a = model.prefill(&prompt, &ExactHooks, &mut dense);
            let b = model.prefill(&prompt, &ExactHooks, &mut packed);
            assert_eq!(a.data(), b.data(), "{scheme} prefill");
            for &t in &decode {
                let sa = model.decode_step(t, &ExactHooks, &mut dense);
                let sb = model.decode_step(t, &ExactHooks, &mut packed);
                assert_eq!(sa, sb, "{scheme} decode {t}");
            }
            assert!(
                2 * packed_arena.in_use().bytes <= dense_arena.in_use().bytes,
                "{scheme}: packed {} vs dense {} bytes",
                packed_arena.in_use().bytes,
                dense_arena.in_use().bytes,
            );
        }
    }

    #[test]
    fn quantized_kv_changes_numerics_but_not_with_chunking() {
        // `quantize` is applied per row, so prefill chunking, page size
        // and decode stepping all see the same cached rows...
        let model = TransformerModel::synthesize(&tiny_test_model());
        let seq = [3usize, 7, 1, 4, 8, 2, 6];
        let st = store("bfp:4", true, false);

        let mut whole = model.kv_cache_with(&KvArena::unbounded(16), st);
        let full = model.prefill(&seq, &ExactHooks, &mut whole);

        let mut chunked = model.kv_cache_with(&KvArena::unbounded(2), st);
        model.prefill(&seq[..2], &ExactHooks, &mut chunked);
        model.prefill_chunk(&seq[2..5], &ExactHooks, &mut chunked);
        for (i, &t) in seq[5..].iter().enumerate() {
            let step = model.decode_step(t, &ExactHooks, &mut chunked);
            assert_eq!(step.as_slice(), full.row(5 + i), "decode {i}");
        }

        // ...while genuinely changing the numerics vs the exact cache.
        let exact = reference(&model, &seq, &ExactHooks);
        let last = seq.len() - 1;
        assert_ne!(full.row(last), exact.row(last));
    }

    #[test]
    fn packing_without_quantisation_stays_dense_and_exact() {
        // Raw f32 activations have no block form: `packed` alone stores
        // dense f32 (full page charge) and reproduces the exact logits.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let st = store("bfp:4", false, true);
        assert_eq!(st.storage_scheme(), SchemeSpec::Fp32);
        let arena = KvArena::unbounded(4);
        let mut cache = model.kv_cache_with(&arena, st);
        let tokens = [1usize, 5, 9, 2];
        let got = model.prefill(&tokens, &ExactHooks, &mut cache);
        let exact = reference(&model, &tokens, &ExactHooks);
        assert_eq!(got.data(), exact.data());
        assert_eq!(
            arena.in_use().bytes,
            KvStore::dense_f32().page_bytes(model.spec().hidden, 4)
        );
    }

    /// A PTQ hook quantising every weight through a block scheme.
    struct Quantise(KvStore);
    impl InferenceHooks for Quantise {
        fn transform_weights(&self, w: &mut [f32]) {
            self.0.quantize_row(w);
        }
    }

    const PACKED_SCHEMES: [&str; 5] = ["bfp:4", "bbfp:4,2", "bfp:6", "bbfp:6,3", "mx:8,4,2"];

    #[test]
    fn packed_weights_match_the_scalar_reference() {
        // Packed block-dot GEMMs reproduce the reference decoder's
        // scalar GEMMs — run over the weights decoded from the packed
        // storage — bit for bit on block-quantised weights.
        for scheme in PACKED_SCHEMES {
            let model = TransformerModel::synthesize(&tiny_test_model()).with_prepared_weights(
                scheme.parse().unwrap(),
                &Quantise(store(scheme, true, false)),
            );
            let tokens = [1usize, 5, 9, 2];
            let scalar = reference(&model, &tokens, &ExactHooks);
            let packed = model.forward(&tokens, &ExactHooks);
            assert_eq!(packed.data(), scalar.data(), "{scheme}");
        }
    }

    #[test]
    fn packed_model_keeps_only_packed_weights_and_decodes_them_exactly() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let layer_bits = |l: &LayerWeights| {
            let mut out = Vec::new();
            l.clone()
                .for_each_weight_mut(&mut |w| out.extend(w.iter().map(|v| v.to_bits())));
            out
        };
        for scheme in PACKED_SCHEMES {
            let reference = TransformerModel::synthesize(&tiny_test_model());
            let hooks = Quantise(store(scheme, true, false));
            let transformed = reference.with_transformed_weights(&hooks);
            let packed = reference.with_prepared_weights(scheme.parse().unwrap(), &hooks);
            assert!(
                matches!(packed.weights, Weights::Packed(..)),
                "no dense mirror"
            );
            assert!(matches!(packed.layers(), Cow::Owned(_)), "layers() decodes");
            // Every matrix decodes bit for bit to the PTQ tensors it was
            // packed from, the full-precision unembedding included.
            let (want, got) = (transformed.dense(), packed.dense());
            assert_eq!(got.layers.len(), want.layers.len());
            for (g, w) in got.layers.iter().zip(&want.layers) {
                assert_eq!(layer_bits(g), layer_bits(w), "{scheme}");
            }
            assert_eq!(bits(&got.unembedding), bits(&want.unembedding), "{scheme}");
            // Re-transforming a packed model starts from the decoded
            // weights, never from stale or empty ones.
            let again = packed.with_transformed_weights(&ExactHooks);
            assert_eq!(again.packed_scheme(), None);
            assert_eq!(
                bits(&again.layers()[0].wq),
                bits(&transformed.layers()[0].wq)
            );
        }
    }

    #[test]
    fn packed_cow_clone_stays_bit_identical() {
        // Copy-on-write must clone the packed buffers faithfully: a
        // clone that diverges after a shared packed tail page agrees
        // with the original bit for bit. Each copy charges the arena one
        // page, and only the first writer to a shared tail copies it.
        let model = TransformerModel::synthesize(&tiny_test_model());
        let arena = KvArena::unbounded(4);
        let st = store("bbfp:4,2", true, true);
        let mut cache = model.kv_cache_with(&arena, st);
        model.prefill(&[5, 6, 7], &ExactHooks, &mut cache);
        let layers = cache.pages_in_use();
        let mut clone = cache.clone();
        assert_eq!(arena.in_use().pages, layers, "a clone shares every page");
        let step_a = model.decode_step(9, &ExactHooks, &mut cache);
        assert_eq!(arena.in_use().pages, 2 * layers, "one copy per shared tail");
        assert_eq!(arena.logical_in_use().pages, 2 * layers);
        let step_b = model.decode_step(9, &ExactHooks, &mut clone);
        assert_eq!(
            arena.in_use().pages,
            2 * layers,
            "the clone's tails are its own"
        );
        assert_eq!(step_a, step_b);
        let step_a2 = model.decode_step(1, &ExactHooks, &mut cache);
        let step_b2 = model.decode_step(1, &ExactHooks, &mut clone);
        assert_eq!(step_a2, step_b2);
    }

    #[test]
    fn copy_on_write_copies_a_tail_page_at_full_capacity() {
        // The private copy of a shared partial tail page is one
        // allocation at the page size holding the shared rows bit for
        // bit, packed and dense stores alike.
        let model = TransformerModel::synthesize(&tiny_test_model());
        for st in [store("bbfp:4,2", true, true), KvStore::dense_f32()] {
            let arena = KvArena::unbounded(8);
            let mut cache = model.kv_cache_with(&arena, st);
            model.prefill(&[5, 6, 7], &ExactHooks, &mut cache);
            let shared = cache.clone();
            model.decode_step(9, &ExactHooks, &mut cache);
            for (li, layer) in cache.layers.iter().enumerate() {
                let tail = &layer.pages[0];
                assert!(!Arc::ptr_eq(tail, &shared.layers[li].pages[0]), "copied");
                assert_eq!(tail.k.capacity(), 8, "{st:?} key rows");
                assert_eq!(tail.v.capacity(), 8, "{st:?} value rows");
                for pos in 0..3 {
                    let bits = |(k, v): (Vec<f32>, Vec<f32>)| {
                        k.iter().chain(&v).map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(cache.kv_row(li, pos)),
                        bits(shared.kv_row(li, pos)),
                        "{st:?} layer {li} row {pos}"
                    );
                }
            }
        }
    }
}
