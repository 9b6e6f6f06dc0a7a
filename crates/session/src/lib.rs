//! # bbal-session — one builder from quantiser string to serving run
//!
//! The stack below this crate is deliberately layered: formats
//! (`bbal-core`), quantiser hooks (`bbal-quant`), the transformer
//! substrate (`bbal-llm`), the nonlinear unit (`bbal-nonlinear`) and the
//! accelerator model (`bbal-accel`). Running one end-to-end experiment
//! used to mean wiring four of those crates together by hand. A
//! [`Session`] is that wiring done once: a [`SessionBuilder`] composes a
//! model spec, a [`SchemeSpec`], the PE-array geometry and the nonlinear
//! unit configuration, and the resulting session exposes the whole
//! serving lifecycle:
//!
//! * [`Session::prepare`] — quantise the weights once (the PTQ step);
//! * [`Session::prefill`] / [`Session::decode_step`] /
//!   [`Session::generate`] — autoregressive serving with owned KV-cache
//!   state;
//! * [`Session::evaluate`] — the perplexity proxy (Table II);
//! * [`Session::simulate_prefill`] / [`Session::simulate_decode`] —
//!   cycle/energy reports from the accelerator simulator (Figs. 1(b)/9);
//! * [`Session::engine`] — the bit-faithful hardware datapath for BBFP
//!   schemes (Fig. 7).
//!
//! **One resident copy of the model.** Sessions never copy weights. The
//! reference model lives behind an `Arc`: every session built from one
//! resolved builder ([`SessionBuilder::resolve_model`],
//! [`SessionBuilder::with_model`]) or its clones shares it. The prepared
//! model of each model+scheme pairing is built once and shared through
//! the builder's cache, and it keeps its decoder weights only in packed
//! form.
//!
//! ```
//! use bbal_session::SessionBuilder;
//!
//! let mut session = SessionBuilder::new()
//!     .model("Tiny")
//!     .scheme("bbfp:4,2")
//!     .build()?;
//!
//! // Serving: prefill a prompt, then decode with the owned KV cache.
//! session.prefill(&[1, 2, 3])?;
//! let logits = session.decode_step(4)?;
//! assert_eq!(logits.len(), session.model_spec().vocab);
//!
//! // Accuracy and hardware cost from the same object.
//! let ppl = session.evaluate();
//! assert!(ppl.ppl.is_finite());
//! let sim = session.simulate_prefill(64)?;
//! assert!(sim.total_cycles() > 0);
//! # Ok::<(), bbal_session::SessionError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use bbal_accel::{
    simulate_with, AcceleratorConfig, BbalEngine, ConfigError, NonlinearTiming, SimReport,
};
use bbal_arith::GateLibrary;
use bbal_core::{SchemeError, SchemeSpec};
use bbal_llm::graph::{decode_step_ops, decoder_ops, paper_dims, PaperDims};
use bbal_llm::{
    evaluate_ppl, zoo, EvalSet, InferenceHooks, KvArena, KvCache, KvStore, ModelSpec, PplResult,
    TransformerModel,
};
use bbal_nonlinear::NonlinearUnitConfig;
use bbal_quant::hooks_for;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Prepared (PTQ-transformed + packed) models, shared across every
/// session cloned from one builder and keyed by [`prefix_class`] — the
/// same "model spec + scheme names the weights" contract the KV prefix
/// cache relies on.
type PreparedCache = Arc<Mutex<HashMap<u64, Arc<TransformerModel>>>>;

/// Errors from building or driving a [`Session`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionError {
    /// The quantisation scheme string/spec is invalid or unmappable.
    Scheme(SchemeError),
    /// The accelerator configuration is invalid.
    Config(ConfigError),
    /// The model name is not in the zoo.
    UnknownModel(String),
    /// `prefill` was called with no tokens.
    EmptyPrompt,
    /// The accelerator clock must be a positive, finite GHz value.
    InvalidClock(f64),
    /// A token id is outside the model's vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The sequence (prompt plus generated/decoded tokens) would exceed
    /// the model's context window
    /// ([`ModelSpec::max_seq`](bbal_llm::ModelSpec)).
    ContextOverflow {
        /// Tokens the operation would put in the KV cache.
        needed: usize,
        /// The model's context window.
        max_seq: usize,
    },
    /// [`Session::forward_batch`] was handed sessions that do not share
    /// one prepared model (same model, same scheme, same builder).
    UnsharedModel,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Scheme(e) => write!(f, "invalid scheme: {e}"),
            SessionError::Config(e) => write!(f, "invalid accelerator configuration: {e}"),
            SessionError::UnknownModel(name) => {
                write!(f, "unknown model {name:?} (see bbal_llm::zoo)")
            }
            SessionError::EmptyPrompt => write!(f, "prefill needs at least one token"),
            SessionError::InvalidClock(ghz) => {
                write!(f, "clock must be a positive finite GHz value, got {ghz}")
            }
            SessionError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token id {token} outside vocabulary of {vocab}")
            }
            SessionError::ContextOverflow { needed, max_seq } => {
                write!(
                    f,
                    "sequence of {needed} tokens exceeds the model's context window of {max_seq}"
                )
            }
            SessionError::UnsharedModel => {
                write!(f, "a fused batch needs sessions sharing one prepared model")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Scheme(e) => Some(e),
            SessionError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemeError> for SessionError {
    fn from(e: SchemeError) -> SessionError {
        SessionError::Scheme(e)
    }
}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> SessionError {
        match e {
            // Flatten scheme problems to the scheme error, wherever in
            // the stack they surfaced.
            ConfigError::Scheme(e) => SessionError::Scheme(e),
            other => SessionError::Config(other),
        }
    }
}

#[derive(Debug, Clone)]
enum ModelChoice {
    Name(String),
    Spec(ModelSpec),
    Built(Arc<TransformerModel>),
}

#[derive(Debug, Clone)]
enum SchemeChoice {
    Text(String),
    Spec(SchemeSpec),
}

/// Builder for a [`Session`]: model × scheme × accelerator geometry ×
/// nonlinear configuration, with the paper's defaults throughout.
///
/// Defaults: `Llama-7B` stand-in, `bbfp:4,2`, a 16×16 PE array at 1 GHz
/// with the paper's buffers, the BBFP(10,5) nonlinear unit, and a
/// 2×24-token evaluation set with seed 1234.
///
/// ```
/// use bbal_session::SessionBuilder;
///
/// let mut session = SessionBuilder::new()
///     .model("Tiny")
///     .scheme("bbfp:4,2")
///     .pe_array(16, 16)
///     .clock_ghz(1.0)
///     .build()?;
///
/// let tokens = session.generate(&[1, 2, 3], 4)?;
/// assert_eq!(tokens.len(), 4);
/// # Ok::<(), bbal_session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    model: ModelChoice,
    scheme: SchemeChoice,
    pe_rows: usize,
    pe_cols: usize,
    clock_ghz: f64,
    buffer_bytes: Option<u64>,
    nonlinear: NonlinearUnitConfig,
    eval_sequences: usize,
    eval_seq_len: usize,
    eval_seed: u64,
    kv_arena: Option<KvArena>,
    kv_quant: bool,
    kv_packed: bool,
    prepared_cache: PreparedCache,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder::new()
    }
}

impl SessionBuilder {
    /// A builder with the paper's defaults.
    pub fn new() -> SessionBuilder {
        SessionBuilder {
            model: ModelChoice::Name("Llama-7B".to_owned()),
            scheme: SchemeChoice::Spec(SchemeSpec::BBAL_PAPER),
            pe_rows: 16,
            pe_cols: 16,
            clock_ghz: 1.0,
            buffer_bytes: None,
            nonlinear: NonlinearUnitConfig::paper(),
            eval_sequences: 2,
            eval_seq_len: 24,
            eval_seed: 1234,
            kv_arena: None,
            kv_quant: false,
            kv_packed: false,
            prepared_cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Selects a model by its paper name (`"Llama-7B"`, `"OPT-13B"`, …;
    /// resolved against the zoo at [`SessionBuilder::build`] time).
    pub fn model(mut self, name: &str) -> SessionBuilder {
        self.model = ModelChoice::Name(name.to_owned());
        self
    }

    /// Selects a model by explicit specification.
    pub fn model_spec(mut self, spec: ModelSpec) -> SessionBuilder {
        self.model = ModelChoice::Spec(spec);
        self
    }

    /// Uses an already-synthesised model instead of synthesising from a
    /// spec. The model is shared, not copied: every session built from
    /// this builder (and from its clones) holds the same reference
    /// weights through the `Arc`, so a sweep that hands one model to many
    /// per-scheme builders keeps one resident copy of it.
    pub fn with_model(mut self, model: Arc<TransformerModel>) -> SessionBuilder {
        self.model = ModelChoice::Built(model);
        self
    }

    /// Selects the quantisation scheme from a string (`"bbfp:4,2"`,
    /// `"fp16"`, `"oltron"`, …; parsed at [`SessionBuilder::build`]
    /// time).
    pub fn scheme(mut self, scheme: &str) -> SessionBuilder {
        self.scheme = SchemeChoice::Text(scheme.to_owned());
        self
    }

    /// Selects the quantisation scheme from a parsed spec.
    pub fn scheme_spec(mut self, scheme: SchemeSpec) -> SessionBuilder {
        self.scheme = SchemeChoice::Spec(scheme);
        self
    }

    /// Sets the PE array geometry (default 16×16).
    pub fn pe_array(mut self, rows: usize, cols: usize) -> SessionBuilder {
        self.pe_rows = rows;
        self.pe_cols = cols;
        self
    }

    /// Sets the accelerator clock in GHz (default 1.0).
    pub fn clock_ghz(mut self, ghz: f64) -> SessionBuilder {
        self.clock_ghz = ghz;
        self
    }

    /// Overrides the input/weight buffer capacity in bytes (the output
    /// buffer scales to half).
    pub fn buffer_bytes(mut self, bytes: u64) -> SessionBuilder {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// Overrides the nonlinear unit configuration (default BBFP(10,5)).
    pub fn nonlinear(mut self, config: NonlinearUnitConfig) -> SessionBuilder {
        self.nonlinear = config;
        self
    }

    /// Overrides the evaluation set: `sequences` streams of `seq_len`
    /// tokens generated from `seed`.
    pub fn eval_set(mut self, sequences: usize, seq_len: usize, seed: u64) -> SessionBuilder {
        self.eval_sequences = sequences;
        self.eval_seq_len = seq_len;
        self.eval_seed = seed;
        self
    }

    /// Draws the session's KV cache from a shared [`KvArena`] instead
    /// of a private unbounded one — how a serving runtime
    /// (`bbal-serve`) makes every pooled session's KV storage count
    /// against one page budget.
    pub fn kv_arena(mut self, arena: KvArena) -> SessionBuilder {
        self.kv_arena = Some(arena);
        self
    }

    /// Quantises every cached K/V row through the session's scheme (the
    /// paper's compressed-KV operating point). Applied per row, so
    /// prefill chunking, page size and decode stepping all see the same
    /// rows — but the numerics *do* change deterministically versus the
    /// exact f32 cache, and the session's [prefix
    /// class](Session::prefix_class) changes with the knob so quantised
    /// and exact rows never mix in a prefix index. Default off.
    pub fn kv_quant(mut self, on: bool) -> SessionBuilder {
        self.kv_quant = on;
        self
    }

    /// Stores KV pages in the scheme's packed block layout instead of
    /// dense f32 — never changes a bit of any output, and (combined
    /// with [`SessionBuilder::kv_quant`]) shrinks every page's byte
    /// charge to the scheme's packed size. Default off.
    pub fn kv_packed(mut self, on: bool) -> SessionBuilder {
        self.kv_packed = on;
        self
    }

    /// Resolves the model choice *now* (name lookup + weight synthesis)
    /// and stores the built model, so every later [`SessionBuilder::build`]
    /// on clones of this builder shares the same reference weights (one
    /// `Arc`) instead of re-synthesising them — what a session pool wants
    /// when it builds one session per scheme over a single model.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownModel`] if a model name is not in the zoo.
    pub fn resolve_model(mut self) -> Result<SessionBuilder, SessionError> {
        self.model = ModelChoice::Built(self.reference_model()?);
        Ok(self)
    }

    /// The reference model the builder names: synthesised for a name or
    /// spec, shared for an already-built one.
    fn reference_model(&self) -> Result<Arc<TransformerModel>, SessionError> {
        let spec = match &self.model {
            ModelChoice::Name(name) => {
                zoo::find(name).ok_or_else(|| SessionError::UnknownModel(name.clone()))?
            }
            ModelChoice::Spec(spec) => spec.clone(),
            ModelChoice::Built(model) => return Ok(Arc::clone(model)),
        };
        Ok(Arc::new(TransformerModel::synthesize(&spec)))
    }

    /// Resolves every choice and assembles the session: parses/validates
    /// the scheme, looks the model up, derives the hook set and
    /// synthesises the reference weights.
    ///
    /// # Errors
    ///
    /// [`SessionError::Scheme`] for an invalid scheme,
    /// [`SessionError::UnknownModel`] for an unknown model name,
    /// [`SessionError::Config`] for a degenerate PE geometry, and
    /// [`SessionError::InvalidClock`] for a non-positive clock.
    pub fn build(self) -> Result<Session, SessionError> {
        let scheme = match &self.scheme {
            SchemeChoice::Text(s) => s.parse::<SchemeSpec>()?,
            SchemeChoice::Spec(s) => {
                s.validate()?;
                *s
            }
        };
        let reference = self.reference_model()?;
        let spec = reference.spec().clone();
        if self.pe_rows == 0 || self.pe_cols == 0 {
            return Err(ConfigError::Geometry {
                pe_rows: self.pe_rows,
                pe_cols: self.pe_cols,
            }
            .into());
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return Err(SessionError::InvalidClock(self.clock_ghz));
        }
        let hooks = hooks_for(scheme)?;
        let store = KvStore {
            scheme,
            quantize: self.kv_quant,
            packed: self.kv_packed,
        };
        let kv = match &self.kv_arena {
            Some(arena) => reference.kv_cache_with(arena, store),
            None => reference.kv_cache_with(&KvArena::default(), store),
        };
        Ok(Session {
            scheme,
            spec,
            hooks,
            reference,
            prepared: None,
            prepared_cache: self.prepared_cache,
            kv,
            pe_rows: self.pe_rows,
            pe_cols: self.pe_cols,
            clock_ghz: self.clock_ghz,
            buffer_bytes: self.buffer_bytes,
            nonlinear: self.nonlinear,
            eval_sequences: self.eval_sequences,
            eval_seq_len: self.eval_seq_len,
            eval_seed: self.eval_seed,
            lib: GateLibrary::default(),
        })
    }
}

/// An end-to-end run: one model under one quantisation scheme on one
/// accelerator instance, with owned serving state.
///
/// Built by [`SessionBuilder`]; see the crate docs for the lifecycle.
pub struct Session {
    scheme: SchemeSpec,
    spec: ModelSpec,
    hooks: Box<dyn InferenceHooks + Send>,
    /// The unquantised reference weights, shared with every session built
    /// from the same resolved builder.
    reference: Arc<TransformerModel>,
    prepared: Option<Arc<TransformerModel>>,
    prepared_cache: PreparedCache,
    kv: KvCache,
    pe_rows: usize,
    pe_cols: usize,
    clock_ghz: f64,
    buffer_bytes: Option<u64>,
    nonlinear: NonlinearUnitConfig,
    eval_sequences: usize,
    eval_seq_len: usize,
    eval_seed: u64,
    lib: GateLibrary,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("scheme", &self.scheme)
            .field("model", &self.spec.name)
            .field("pe_array", &(self.pe_rows, self.pe_cols))
            .field("kv_len", &self.kv.len())
            .field("prepared", &self.prepared.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The session's quantisation scheme.
    pub fn scheme(&self) -> SchemeSpec {
        self.scheme
    }

    /// The session's model specification.
    pub fn model_spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The session's hook set (scheme-derived).
    pub fn hooks(&self) -> &dyn InferenceHooks {
        self.hooks.as_ref()
    }

    /// Number of tokens currently in the KV cache.
    pub fn kv_len(&self) -> usize {
        self.kv.len()
    }

    /// Pages the session's KV cache currently holds in its arena.
    pub fn kv_pages(&self) -> usize {
        self.kv.pages_in_use()
    }

    /// The arena the session's KV cache draws pages from.
    pub fn kv_arena(&self) -> &KvArena {
        self.kv.arena()
    }

    /// The model's context window (most tokens one sequence may hold).
    pub fn max_seq(&self) -> usize {
        self.spec.max_seq
    }

    /// Rejects an operation that would grow the cached sequence to
    /// `needed` tokens past the model's context window.
    fn check_context(&self, needed: usize) -> Result<(), SessionError> {
        if needed > self.spec.max_seq {
            return Err(SessionError::ContextOverflow {
                needed,
                max_seq: self.spec.max_seq,
            });
        }
        Ok(())
    }

    /// The configured accelerator clock in GHz (available whether or not
    /// the scheme has a hardware mapping).
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Quantises the weights once (the PTQ step) and packs them into
    /// the scheme's native bit layout for the packed GEMM kernels, one
    /// matrix at a time ([`TransformerModel::with_prepared_weights`]: a
    /// block scheme's hooks are its block quantiser, which encodes and
    /// packs in one pass; any other scheme runs its PTQ hook on each
    /// matrix, then packs it). Idempotent; called automatically by the
    /// serving entry points.
    ///
    /// Sessions cloned from one [`SessionBuilder`] (a serve pool's
    /// template, a sweep's base builder) share prepared models through
    /// the builder's cache: the first session to prepare a model+scheme
    /// pairing pays for the PTQ transform and the pack, every later one
    /// gets the same weights by reference — outputs are identical either
    /// way, since preparation is deterministic in (spec, scheme).
    pub fn prepare(&mut self) -> &TransformerModel {
        if self.prepared.is_none() {
            let key = prefix_class(&self.spec, self.scheme);
            let cached = {
                let cache = match self.prepared_cache.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                cache.get(&key).cloned()
            };
            let model = cached.unwrap_or_else(|| {
                let built = Arc::new(
                    self.reference
                        .with_prepared_weights(self.scheme, &self.hooks.as_ref()),
                );
                let mut cache = match self.prepared_cache.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Arc::clone(cache.entry(key).or_insert(built))
            });
            self.prepared = Some(model);
        }
        self.prepared.as_deref().expect("prepared just above")
    }

    fn check_tokens(&self, tokens: &[usize]) -> Result<(), SessionError> {
        match tokens.iter().find(|&&t| t >= self.spec.vocab) {
            Some(&token) => Err(SessionError::TokenOutOfVocab {
                token,
                vocab: self.spec.vocab,
            }),
            None => Ok(()),
        }
    }

    /// Discards all per-request state, returning the session to the state
    /// of a freshly built one (the prepared weights are request-independent
    /// and are kept).
    ///
    /// A pooled session that is `reset` between requests produces
    /// bit-identical outputs to rebuilding the session from scratch —
    /// `bbal-serve` relies on this to reuse sessions across requests.
    pub fn reset(&mut self) {
        self.kv.clear();
    }

    /// Prefills the KV cache with a prompt (discarding any previous
    /// sequence) and returns the `[seq, vocab]` logits.
    ///
    /// # Errors
    ///
    /// [`SessionError::EmptyPrompt`],
    /// [`SessionError::TokenOutOfVocab`] or
    /// [`SessionError::ContextOverflow`].
    pub fn prefill(&mut self, tokens: &[usize]) -> Result<bbal_llm::Tensor, SessionError> {
        if tokens.is_empty() {
            return Err(SessionError::EmptyPrompt);
        }
        self.check_tokens(tokens)?;
        self.check_context(tokens.len())?;
        self.prepare();
        self.kv.clear();
        let model = self.prepared.as_ref().expect("prepared above");
        Ok(model.prefill(tokens, &self.hooks.as_ref(), &mut self.kv))
    }

    /// Feeds a slice of prompt tokens *without* discarding the cached
    /// sequence — the chunked-prefill entry point used by continuous
    /// batching (`bbal-serve`), where a long prompt is admitted a chunk
    /// per scheduler tick so decode steps of other requests can
    /// interleave.
    ///
    /// Returns the next-token logits after the last token of the chunk.
    /// Every chunk is processed in one batched pass
    /// ([`bbal_llm::TransformerModel::prefill_chunk`]): projections and
    /// FFN GEMMs run over the whole chunk while each row attends
    /// causally over the cache. When
    /// [`Session::chunk_invariant_prefill`] is true the result is
    /// bit-identical to prefilling the whole prompt at once, regardless
    /// of how it is chunked; otherwise the chunking changes where the
    /// scheme's activation-statistics groups fall and different
    /// chunkings produce (deterministically) different logits — a
    /// scheduler that must match whole-prompt outputs has to feed such a
    /// session its prompt in one chunk (`bbal-serve` does).
    ///
    /// # Errors
    ///
    /// [`SessionError::EmptyPrompt`],
    /// [`SessionError::TokenOutOfVocab`] or
    /// [`SessionError::ContextOverflow`].
    pub fn prefill_chunk(&mut self, tokens: &[usize]) -> Result<Vec<f32>, SessionError> {
        let mut logits = Session::forward_batch(std::slice::from_mut(self), &[tokens])?;
        Ok(logits.pop().expect("one row per session"))
    }

    /// Feeds `chunks[i]` into `sessions[i]` for every `i` in **one**
    /// fused forward ([`TransformerModel::forward_segments`]): each linear
    /// layer runs as one GEMM over every session's rows, while each
    /// session attends over its own KV cache. A chunk may be a prefill
    /// chunk or a one-token decode step. Returns each session's
    /// next-token logits (after the last token of its chunk).
    ///
    /// Bit-identical to calling [`Session::prefill_chunk`] on each
    /// session in turn — the fusion changes how often a weight is
    /// streamed, never a result. [`Session::prefill_chunk`] and
    /// [`Session::decode_step`] are the one-session case.
    ///
    /// # Errors
    ///
    /// [`SessionError::EmptyPrompt`], [`SessionError::TokenOutOfVocab`]
    /// or [`SessionError::ContextOverflow`] for any chunk, and
    /// [`SessionError::UnsharedModel`] unless every session runs on the
    /// same prepared model (sessions of one scheme cloned from one
    /// builder do). Every check runs before any KV cache is touched.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` and `chunks` differ in length.
    pub fn forward_batch(
        sessions: &mut [Session],
        chunks: &[&[usize]],
    ) -> Result<Vec<Vec<f32>>, SessionError> {
        assert_eq!(sessions.len(), chunks.len(), "one chunk per session");
        for (session, tokens) in sessions.iter().zip(chunks) {
            if tokens.is_empty() {
                return Err(SessionError::EmptyPrompt);
            }
            session.check_tokens(tokens)?;
            session.check_context(session.kv.len() + tokens.len())?;
        }
        let mut model: Option<Arc<TransformerModel>> = None;
        for session in sessions.iter_mut() {
            session.prepare();
            let prepared = session.prepared.as_ref().expect("prepared above");
            match &model {
                None => model = Some(Arc::clone(prepared)),
                Some(m) if Arc::ptr_eq(m, prepared) => {}
                Some(_) => return Err(SessionError::UnsharedModel),
            }
        }
        let Some(model) = model else {
            return Ok(Vec::new());
        };
        // One shared prepared model means one model + scheme, so every
        // session's hook set is the same; the first one's serves all.
        let mut hooks = None;
        let mut segments: Vec<(&mut KvCache, &[usize])> = Vec::with_capacity(sessions.len());
        for (session, &tokens) in sessions.iter_mut().zip(chunks) {
            hooks.get_or_insert(session.hooks.as_ref());
            segments.push((&mut session.kv, tokens));
        }
        let hooks = hooks.expect("a model implies a session");
        let logits = model.forward_segments(&mut segments, &hooks);
        let mut end = 0;
        Ok(chunks
            .iter()
            .map(|tokens| {
                end += tokens.len();
                logits.row(end - 1).to_vec()
            })
            .collect())
    }

    /// True when [`Session::prefill_chunk`] is *chunk-invariant*: any
    /// chunking of a prompt produces logits bit-identical to prefilling
    /// it whole.
    ///
    /// The chunking decides how many token rows share one activation
    /// buffer, so a transform whose statistics couple values across rows
    /// sees different groupings under different chunkings. Invariance
    /// therefore holds exactly when the scheme's
    /// [`activation_stats_span`](InferenceHooks::activation_stats_span)
    /// never crosses a token row: element-wise transforms always
    /// qualify; group-wise transforms qualify iff the group length
    /// divides every activation row width of this model (the hidden
    /// width and the FFN inner width); buffer-global transforms never
    /// do. E.g. `olive`'s 64-wide groups are chunk-invariant on a
    /// 4096-hidden model but not on a 96-hidden one.
    pub fn chunk_invariant_prefill(&self) -> bool {
        match self.hooks.activation_stats_span() {
            bbal_llm::StatsSpan::Elementwise => true,
            bbal_llm::StatsSpan::Blocks(group) => {
                group > 0
                    && [self.spec.hidden, self.spec.ffn_width()]
                        .iter()
                        .all(|w| w % group == 0)
            }
            bbal_llm::StatsSpan::Global => false,
        }
    }

    /// The namespace this session's KV rows live under in its arena's
    /// prefix index: [`prefix_class`] of the session's model and
    /// scheme, further split by the KV-quantisation knob — quantised
    /// rows are different bits from exact rows of the same model +
    /// scheme and must never be adopted across the setting. (`kv_packed`
    /// does not split the class: packing never changes a bit.)
    pub fn prefix_class(&self) -> u64 {
        let base = prefix_class(&self.spec, self.scheme);
        if self.kv.store().quantize {
            base ^ 0x9E37_79B9_7F4A_7C15
        } else {
            base
        }
    }

    /// Clears the cache and adopts the longest cached token prefix of
    /// `tokens` (capped at `max_tokens`) from the session's arena —
    /// the prefix-cache lookup a scheduler runs *before* prefill, so
    /// the shared portion's compute (and KV writes) are skipped
    /// entirely. Returns the adopted token count; the caller then feeds
    /// `tokens[adopted..]` through [`Session::prefill_chunk`].
    ///
    /// Returns `0` without touching the index when the session's scheme
    /// is not [chunk-invariant](Session::chunk_invariant_prefill) on
    /// this model: adopting a prefix effectively changes where the
    /// prompt is chunked, so only chunk-invariant schemes can reuse
    /// another request's rows bit-identically. Keep `max_tokens` below
    /// `tokens.len()` when at least one prompt logit must be computed
    /// (a fully-adopted prompt yields no logits to sample from).
    pub fn prefix_lookup(&mut self, tokens: &[usize], max_tokens: usize) -> usize {
        self.kv.clear();
        if !self.chunk_invariant_prefill() {
            return 0;
        }
        let class = self.prefix_class();
        self.kv.adopt_prefix(class, tokens, max_tokens)
    }

    /// Publishes the full prefix pages of `tokens` now in the session's
    /// cache into the arena's prefix index, so later sessions of the
    /// same model + scheme can adopt them. A no-op for schemes that are
    /// not [chunk-invariant](Session::chunk_invariant_prefill) (their
    /// rows are chunking-dependent and must never be shared) and for
    /// blocks already indexed.
    ///
    /// The cache's first `tokens.len()` rows must have been computed
    /// from exactly `tokens` — i.e. call this after prefilling `tokens`
    /// on this session.
    pub fn publish_prefix(&self, tokens: &[usize]) {
        if !self.chunk_invariant_prefill() {
            return;
        }
        self.kv.publish_prefix(self.prefix_class(), tokens);
    }

    /// Prefills `tokens` through the arena's prefix cache: adopts the
    /// longest cached prefix (keeping at least the last token to
    /// compute), prefills the rest, publishes the prompt's full blocks
    /// for later sessions, and returns the next-token logits — the
    /// lone-session counterpart of the serve scheduler's
    /// lookup → prefill → publish sequence.
    ///
    /// Bit-identical to [`Session::prefill_chunk`] over the whole
    /// prompt on an empty cache, warm or cold.
    ///
    /// # Errors
    ///
    /// [`SessionError::EmptyPrompt`],
    /// [`SessionError::TokenOutOfVocab`] or
    /// [`SessionError::ContextOverflow`].
    pub fn prefill_shared(&mut self, tokens: &[usize]) -> Result<Vec<f32>, SessionError> {
        if tokens.is_empty() {
            return Err(SessionError::EmptyPrompt);
        }
        self.check_tokens(tokens)?;
        self.check_context(tokens.len())?;
        let adopted = self.prefix_lookup(tokens, tokens.len() - 1);
        let logits = self.prefill_chunk(&tokens[adopted..])?;
        self.publish_prefix(tokens);
        Ok(logits)
    }

    /// Decodes one token against the cached sequence, appending its KV
    /// rows, and returns the next-token logits.
    ///
    /// # Errors
    ///
    /// [`SessionError::TokenOutOfVocab`] or
    /// [`SessionError::ContextOverflow`].
    pub fn decode_step(&mut self, token: usize) -> Result<Vec<f32>, SessionError> {
        self.prefill_chunk(&[token])
    }

    /// Greedy generation: prefills `prompt`, then decodes `n` tokens by
    /// argmax, returning the generated ids.
    ///
    /// # Errors
    ///
    /// Propagates the prefill/decode errors;
    /// [`SessionError::ContextOverflow`] *before any work* if
    /// `prompt.len() + n` exceeds the model's context window.
    pub fn generate(&mut self, prompt: &[usize], n: usize) -> Result<Vec<usize>, SessionError> {
        self.check_context(prompt.len() + n)?;
        let logits = self.prefill(prompt)?;
        let mut out = Vec::with_capacity(n);
        let mut next = argmax(logits.row(logits.rows() - 1));
        for _ in 0..n {
            out.push(next);
            let row = self.decode_step(next)?;
            next = argmax(&row);
        }
        Ok(out)
    }

    /// Runs the perplexity proxy (Table II) for this session's scheme on
    /// its model, over the builder-configured evaluation set.
    pub fn evaluate(&self) -> PplResult {
        let eval = EvalSet::generate(
            &self.spec,
            self.eval_sequences,
            self.eval_seq_len,
            self.eval_seed,
        );
        evaluate_ppl(&self.reference, &self.hooks.as_ref(), &eval)
    }

    /// The accelerator instance this session simulates on.
    ///
    /// # Errors
    ///
    /// [`SessionError::Scheme`] if the scheme has no hardware mapping
    /// (e.g. `fp16`, `omniquant`).
    pub fn accelerator_config(&self) -> Result<AcceleratorConfig, SessionError> {
        let mut cfg = AcceleratorConfig::for_scheme(self.scheme, self.pe_rows, self.pe_cols)?;
        cfg.clock_ghz = self.clock_ghz;
        cfg.nonlinear = self.nonlinear;
        if let Some(bytes) = self.buffer_bytes {
            cfg = cfg.with_buffer_bytes(bytes)?;
        }
        Ok(cfg)
    }

    /// The decoder dimensions the simulator runs at: the paper model's
    /// published dimensions when known, otherwise the synthetic
    /// stand-in's own geometry.
    pub fn simulated_dims(&self) -> PaperDims {
        paper_dims(self.spec.name).unwrap_or(PaperDims {
            hidden: self.spec.hidden,
            ffn: self.spec.ffn_width(),
            heads: self.spec.heads,
            layers: self.spec.layers,
            gated_ffn: matches!(self.spec.family, zoo::Family::Llama),
        })
    }

    /// Simulates a prefill pass over `seq_len` tokens (cycle/energy
    /// report, Fig. 1(b) regime).
    ///
    /// # Errors
    ///
    /// Propagates [`Session::accelerator_config`] errors.
    pub fn simulate_prefill(&self, seq_len: usize) -> Result<SimReport, SessionError> {
        let cfg = self.accelerator_config()?;
        let ops = decoder_ops(&self.simulated_dims(), seq_len);
        Ok(simulate_with(
            &cfg,
            &ops,
            &self.lib,
            NonlinearTiming::BbalUnit,
        ))
    }

    /// Simulates one decode step against a KV cache of `kv_len` tokens —
    /// the long-context serving regime.
    ///
    /// # Errors
    ///
    /// Propagates [`Session::accelerator_config`] errors.
    pub fn simulate_decode(&self, kv_len: usize) -> Result<SimReport, SessionError> {
        self.simulate_decode_with(kv_len, NonlinearTiming::BbalUnit)
    }

    /// Simulates one decode step with an explicit nonlinear timing model.
    ///
    /// # Errors
    ///
    /// Propagates [`Session::accelerator_config`] errors.
    pub fn simulate_decode_with(
        &self,
        kv_len: usize,
        timing: NonlinearTiming,
    ) -> Result<SimReport, SessionError> {
        let cfg = self.accelerator_config()?;
        let ops = decode_step_ops(&self.simulated_dims(), kv_len);
        Ok(simulate_with(&cfg, &ops, &self.lib, timing))
    }

    /// The bit-faithful hardware datapath (PE array + nonlinear unit)
    /// for this session's scheme.
    ///
    /// # Errors
    ///
    /// [`SessionError::Scheme`] unless the scheme is a BBFP scheme.
    pub fn engine(&self) -> Result<BbalEngine, SessionError> {
        let cfg = self
            .scheme
            .bbfp_config()?
            .ok_or(SchemeError::NoHardwareMapping(self.scheme))?;
        Ok(BbalEngine::new(cfg, self.nonlinear))
    }
}

/// The prefix-cache namespace for KV rows produced by `spec` under
/// `scheme`: an FNV-1a hash over the full model specification and the
/// scheme. Cached KV rows depend on *everything* that shapes the
/// numbers — the synthesized weights (named by the spec, including its
/// seed) and the quantisation hooks — so two sessions may share prefix
/// pages iff their classes match. Schedulers that probe a
/// [`bbal_llm::KvArena`] directly (before a [`Session`] exists) compute
/// the class with this function; [`Session::prefix_class`] uses it too.
pub fn prefix_class(spec: &ModelSpec, scheme: SchemeSpec) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in format!("{spec:?}|{scheme}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Greedy sampling over one logits row: the first index of the strict
/// maximum. This is the sampler [`Session::generate`] uses; external
/// serving loops (e.g. `bbal-serve`) must call the same function so
/// their outputs stay bit-identical to `generate`.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_llm::ExactHooks;

    fn tiny(scheme: &str) -> Session {
        SessionBuilder::new()
            .model("Tiny")
            .scheme(scheme)
            .build()
            .expect("tiny session builds")
    }

    #[test]
    fn builder_defaults_build() {
        let s = SessionBuilder::new().build().unwrap();
        assert_eq!(s.scheme(), SchemeSpec::Bbfp(4, 2));
        assert_eq!(s.model_spec().name, "Llama-7B");
    }

    #[test]
    fn builder_errors_are_typed() {
        assert!(matches!(
            SessionBuilder::new().scheme("bbfp:9,9").build(),
            Err(SessionError::Scheme(_))
        ));
        assert!(matches!(
            SessionBuilder::new().model("GPT-5").build(),
            Err(SessionError::UnknownModel(_))
        ));
        assert!(matches!(
            SessionBuilder::new().pe_array(0, 16).build(),
            Err(SessionError::Config(ConfigError::Geometry { .. }))
        ));
        assert!(matches!(
            SessionBuilder::new()
                .scheme_spec(SchemeSpec::Bfp(11))
                .build(),
            Err(SessionError::Scheme(_))
        ));
        assert!(matches!(
            SessionBuilder::new().clock_ghz(0.0).build(),
            Err(SessionError::InvalidClock(_))
        ));
        assert!(matches!(
            SessionBuilder::new().clock_ghz(f64::NAN).build(),
            Err(SessionError::InvalidClock(_))
        ));
    }

    #[test]
    fn with_model_shares_reference_weights_across_schemes() {
        // A sweep can synthesise once and hand the same weights to every
        // per-scheme session.
        let model = Arc::new(TransformerModel::synthesize(&zoo::tiny_test_model()));
        let a = SessionBuilder::new()
            .with_model(Arc::clone(&model))
            .scheme("bbfp:4,2")
            .eval_set(2, 12, 99)
            .build()
            .unwrap();
        let b = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .eval_set(2, 12, 99)
            .build()
            .unwrap();
        assert_eq!(a.evaluate(), b.evaluate());
        assert_eq!(a.model_spec().name, "Tiny");
        // The sweep's sessions hold the caller's model, not copies of it.
        let c = SessionBuilder::new()
            .with_model(Arc::clone(&model))
            .scheme("bfp4")
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(&a.reference, &model));
        assert!(Arc::ptr_eq(&c.reference, &model));
    }

    #[test]
    fn sessions_from_one_template_share_one_reference() {
        // A serve pool's sessions: 64 builds from one resolved template
        // hold one reference model between them.
        let template = SessionBuilder::new().model("Tiny").resolve_model().unwrap();
        let sessions: Vec<Session> = (0..64)
            .map(|i| {
                let scheme = if i % 2 == 0 { "bbfp:4,2" } else { "fp16" };
                template.clone().scheme(scheme).build().unwrap()
            })
            .collect();
        assert!(sessions
            .iter()
            .all(|s| Arc::ptr_eq(&s.reference, &sessions[0].reference)));
        // An unresolved builder synthesises per build: nothing shared.
        let lone = SessionBuilder::new().model("Tiny").build().unwrap();
        assert!(!Arc::ptr_eq(&lone.reference, &sessions[0].reference));
    }

    #[test]
    fn serving_lifecycle_matches_model_path() {
        // Session prefill/decode must agree with driving the model and
        // hooks by hand.
        let mut session = tiny("bbfp:4,2");
        let prompt = [1usize, 2, 3];
        let s_logits = session.prefill(&prompt).unwrap();
        let step = session.decode_step(4).unwrap();
        assert_eq!(session.kv_len(), 4);

        let spec = zoo::tiny_test_model();
        let reference = TransformerModel::synthesize(&spec);
        let hooks = hooks_for(SchemeSpec::Bbfp(4, 2)).unwrap();
        let prepared = reference.with_transformed_weights(&hooks.as_ref());
        let mut cache = prepared.kv_cache();
        let m_logits = prepared.prefill(&prompt, &hooks.as_ref(), &mut cache);
        assert_eq!(s_logits.data(), m_logits.data());
        let m_step = prepared.decode_step(4, &hooks.as_ref(), &mut cache);
        assert_eq!(step, m_step);
    }

    #[test]
    fn forward_batch_matches_lone_sessions_and_rejects_unshared_models() {
        let builder = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .resolve_model()
            .unwrap();
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[4], &[5, 6]];
        let mut lone: Vec<Session> = (0..3).map(|_| builder.clone().build().unwrap()).collect();
        let mut fused: Vec<Session> = (0..3).map(|_| builder.clone().build().unwrap()).collect();
        // Round 1 prefills; round 2 mixes a decode step with two chunks.
        for round in [prompts, [&[7], &[8, 9], &[10]]] {
            let want: Vec<Vec<f32>> = lone
                .iter_mut()
                .zip(round)
                .map(|(s, chunk)| s.prefill_chunk(chunk).unwrap())
                .collect();
            let got = Session::forward_batch(&mut fused, &round).unwrap();
            assert_eq!(got, want);
        }

        // Another builder (its own prepared cache) or another scheme is
        // another prepared model; the error leaves every cache untouched.
        let stranger = SessionBuilder::new().model("Tiny").build().unwrap();
        let other_scheme = builder.clone().scheme("bfp:4").build().unwrap();
        for odd in [stranger, other_scheme] {
            let mut mixed = vec![builder.clone().build().unwrap(), odd];
            let err = Session::forward_batch(&mut mixed, &[&[1], &[2]]).unwrap_err();
            assert_eq!(err, SessionError::UnsharedModel);
            assert!(mixed.iter().all(|s| s.kv_len() == 0));
        }
        let err = Session::forward_batch(&mut fused, &[&[1], &[], &[2]]).unwrap_err();
        assert_eq!(err, SessionError::EmptyPrompt);
        assert!(Session::forward_batch(&mut [], &[]).unwrap().is_empty());
    }

    #[test]
    fn prefill_resets_previous_sequence() {
        let mut session = tiny("fp16");
        session.prefill(&[1, 2, 3, 4]).unwrap();
        session.prefill(&[5]).unwrap();
        assert_eq!(session.kv_len(), 1);
        session.reset();
        assert_eq!(session.kv_len(), 0);
    }

    /// A Tiny session drawing from `arena`.
    fn tiny_in(scheme: &str, arena: &bbal_llm::KvArena) -> Session {
        SessionBuilder::new()
            .model("Tiny")
            .scheme(scheme)
            .kv_arena(arena.clone())
            .build()
            .expect("tiny session builds")
    }

    #[test]
    fn prefill_shared_reuses_prefix_pages_bit_identically() {
        let arena = bbal_llm::KvArena::unbounded(4);
        let prompt_a: Vec<usize> = vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0];
        let prompt_b: Vec<usize> = vec![9, 8, 7, 6, 5, 4, 3, 2, 11, 12];

        let mut first = tiny_in("bbfp:4,2", &arena);
        assert!(first.chunk_invariant_prefill(), "bbfp:4,2 gates the test");
        first.prefill_shared(&prompt_a).unwrap();
        assert!(arena.prefix_stats().insertions > 0, "prompt A published");

        // A second session on the same arena adopts the shared prefix…
        let mut warm = tiny_in("bbfp:4,2", &arena);
        let warm_logits = warm.prefill_shared(&prompt_b).unwrap();
        let warm_step = warm.decode_step(13).unwrap();
        assert!(arena.prefix_stats().hits > 0, "prompt B adopted blocks");

        // …and still matches a cold session on a private arena, bit for
        // bit, including subsequent decode.
        let mut cold = tiny("bbfp:4,2");
        let cold_logits = cold.prefill_chunk(&prompt_b).unwrap();
        let cold_step = cold.decode_step(13).unwrap();
        assert_eq!(warm_logits, cold_logits);
        assert_eq!(warm_step, cold_step);
        assert_eq!(warm.kv_len(), cold.kv_len());
    }

    #[test]
    fn prefix_lookup_gates_on_chunk_invariance() {
        // int8's 128-wide activation groups do not divide Tiny's row
        // widths, so its rows are chunking-dependent: the prefix cache
        // must refuse to share them.
        let arena = bbal_llm::KvArena::unbounded(4);
        let prompt: Vec<usize> = (0..12).collect();
        let mut first = tiny_in("int8", &arena);
        assert!(!first.chunk_invariant_prefill(), "int8 gates the test");
        first.prefill(&prompt).unwrap();
        first.publish_prefix(&prompt);
        assert_eq!(arena.prefix_stats().insertions, 0);

        let mut second = tiny_in("int8", &arena);
        assert_eq!(second.prefix_lookup(&prompt, prompt.len()), 0);
        // And prefill_shared still serves such schemes, just cold.
        let shared = second.prefill_shared(&prompt).unwrap();
        let mut cold = tiny("int8");
        assert_eq!(shared, cold.prefill_chunk(&prompt).unwrap());
    }

    #[test]
    fn prefix_classes_isolate_schemes_and_models() {
        // Same arena, same prompt, different scheme: no sharing — the
        // rows were quantised differently.
        let arena = bbal_llm::KvArena::unbounded(4);
        let prompt: Vec<usize> = (0..8).collect();
        let mut bbfp = tiny_in("bbfp:4,2", &arena);
        bbfp.prefill_shared(&prompt).unwrap();

        let mut bfp = tiny_in("bfp4", &arena);
        assert!(bfp.chunk_invariant_prefill());
        assert_eq!(bfp.prefix_lookup(&prompt, prompt.len()), 0);
        assert_ne!(bbfp.prefix_class(), bfp.prefix_class());
        // The class is stable across sessions of the same pairing.
        let again = tiny_in("bbfp:4,2", &arena);
        assert_eq!(bbfp.prefix_class(), again.prefix_class());
    }

    #[test]
    fn prefix_lookup_caps_leave_a_token_to_compute() {
        // A fully block-aligned prompt must not be fully adopted when
        // the caller needs a logit: the cap keeps the tail private.
        let arena = bbal_llm::KvArena::unbounded(4);
        let prompt: Vec<usize> = (0..8).collect();
        let mut first = tiny_in("bbfp:4,2", &arena);
        first.prefill_shared(&prompt).unwrap();

        let mut second = tiny_in("bbfp:4,2", &arena);
        let adopted = second.prefix_lookup(&prompt, prompt.len() - 1);
        assert_eq!(adopted, 4, "cap holds back the final block");
        second.reset();
        let uncapped = second.prefix_lookup(&prompt, prompt.len());
        assert_eq!(uncapped, 8);
    }

    #[test]
    fn serving_errors_are_typed() {
        let mut session = tiny("fp16");
        assert!(matches!(
            session.prefill(&[]),
            Err(SessionError::EmptyPrompt)
        ));
        assert!(matches!(
            session.prefill(&[9999]),
            Err(SessionError::TokenOutOfVocab { token: 9999, .. })
        ));
        assert!(matches!(
            session.decode_step(9999),
            Err(SessionError::TokenOutOfVocab { .. })
        ));
    }

    #[test]
    fn generate_produces_in_vocab_tokens() {
        let mut session = tiny("bbfp:4,2");
        let out = session.generate(&[1, 2], 5).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| t < session.model_spec().vocab));
        assert_eq!(session.kv_len(), 2 + 5);
    }

    #[test]
    fn evaluate_matches_free_function_path() {
        let session = tiny("bfp4");
        let got = session.evaluate();
        let spec = zoo::tiny_test_model();
        let reference = TransformerModel::synthesize(&spec);
        let eval = EvalSet::generate(&spec, 2, 24, 1234);
        let hooks = hooks_for(SchemeSpec::Bfp(4)).unwrap();
        let expected = evaluate_ppl(&reference, &hooks.as_ref(), &eval);
        assert_eq!(got, expected);
    }

    #[test]
    fn fp32_session_reproduces_the_anchor() {
        let session = tiny("fp32");
        let r = session.evaluate();
        assert!((r.ppl - session.model_spec().anchor_ppl).abs() < 1e-4);
        // And matches ExactHooks driven by hand.
        let spec = zoo::tiny_test_model();
        let reference = TransformerModel::synthesize(&spec);
        let eval = EvalSet::generate(&spec, 2, 24, 1234);
        assert_eq!(r, evaluate_ppl(&reference, &ExactHooks, &eval));
    }

    #[test]
    fn simulation_requires_a_hardware_mapping() {
        let session = tiny("bbfp:4,2");
        let report = session.simulate_prefill(32).unwrap();
        assert!(report.total_cycles() > 0 && report.macs > 0);
        let decode = session.simulate_decode(128).unwrap();
        assert!(decode.total_cycles() > 0);

        let fp16 = tiny("fp16");
        assert!(matches!(
            fp16.simulate_prefill(32),
            Err(SessionError::Scheme(SchemeError::NoHardwareMapping(_)))
        ));
    }

    #[test]
    fn builder_knobs_reach_the_accelerator() {
        let session = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:6,3")
            .pe_array(8, 8)
            .clock_ghz(0.5)
            .buffer_bytes(128 * 1024)
            .build()
            .unwrap();
        let cfg = session.accelerator_config().unwrap();
        assert_eq!((cfg.pe_rows, cfg.pe_cols), (8, 8));
        assert_eq!(cfg.clock_ghz, 0.5);
        assert_eq!(cfg.input_buffer.capacity_bytes(), 128 * 1024);
    }

    #[test]
    fn engine_is_available_for_bbfp_schemes() {
        let session = tiny("bbfp:4,2");
        let engine = session.engine().unwrap();
        assert_eq!(engine.linear_config().mantissa_bits(), 4);
        assert!(tiny("oltron").engine().is_err());
    }

    #[test]
    fn prefill_chunk_matches_one_shot_prefill() {
        // Chunked prefill (the continuous-batching path) must agree with
        // prefilling the whole prompt at once, for any chunking.
        let prompt = [1usize, 2, 3, 4, 5, 6, 7];
        for scheme in ["bbfp:4,2", "bfp4", "fp16", "fp32"] {
            let mut whole = tiny(scheme);
            let expected = whole.prefill(&prompt).unwrap();
            let expected_last = expected.row(expected.rows() - 1).to_vec();

            for split in [1usize, 3, 5] {
                let mut chunked = tiny(scheme);
                chunked.prefill_chunk(&prompt[..split]).unwrap();
                let last = chunked.prefill_chunk(&prompt[split..]).unwrap();
                assert_eq!(last, expected_last, "scheme {scheme} split {split}");
                assert_eq!(chunked.kv_len(), prompt.len());
            }
        }
    }

    #[test]
    fn reset_session_is_bit_identical_to_fresh_build() {
        // The serve pool reuses sessions across requests: a used-then-reset
        // session must behave exactly like a freshly built one, on every
        // serving entry point (prefill_chunk is the pool's path).
        let mut fresh = tiny("bbfp:4,2");
        let fresh_logits = fresh.prefill_chunk(&[5, 6]).unwrap();
        let fresh_tokens = {
            let mut s = tiny("bbfp:4,2");
            s.generate(&[9, 8, 7], 6).unwrap()
        };

        let mut reused = tiny("bbfp:4,2");
        // Dirty the session with a first request...
        reused.generate(&[2, 4, 6, 8], 5).unwrap();
        assert!(reused.kv_len() > 0);
        // ...release it back to the pool...
        reused.reset();
        assert_eq!(reused.kv_len(), 0);
        // ...and serve two more requests: outputs match a fresh session
        // bit for bit.
        assert_eq!(reused.prefill_chunk(&[5, 6]).unwrap(), fresh_logits);
        reused.reset();
        assert_eq!(reused.generate(&[9, 8, 7], 6).unwrap(), fresh_tokens);
    }

    #[test]
    fn context_overflow_is_a_typed_error_not_a_panic() {
        // Tiny's window is 64 tokens.
        let mut session = tiny("bbfp:4,2");
        assert_eq!(session.max_seq(), 64);
        let long: Vec<usize> = (0..65).map(|t| t % 64).collect();
        assert!(matches!(
            session.prefill(&long),
            Err(SessionError::ContextOverflow {
                needed: 65,
                max_seq: 64
            })
        ));
        // generate checks prompt + budget up front, before any work.
        assert!(matches!(
            session.generate(&[1, 2, 3], 62),
            Err(SessionError::ContextOverflow {
                needed: 65,
                max_seq: 64
            })
        ));
        assert_eq!(session.kv_len(), 0, "no partial work on rejection");
        // Decode growth hits the same wall one token at a time.
        let fit: Vec<usize> = (0..63).map(|t| t % 64).collect();
        session.prefill(&fit).unwrap();
        session.decode_step(1).unwrap();
        assert!(matches!(
            session.decode_step(2),
            Err(SessionError::ContextOverflow { .. })
        ));
        // The session stays usable after the typed error.
        session.reset();
        assert_eq!(session.generate(&[5, 6], 3).unwrap().len(), 3);
    }

    #[test]
    fn shared_arena_reaches_the_session_cache() {
        use bbal_llm::{KvArena, KvBudget};
        let arena = KvArena::with_budget(4, KvBudget::Pages(64));
        let mut session = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .kv_arena(arena.clone())
            .build()
            .unwrap();
        assert_eq!(session.kv_pages(), 0);
        session.prefill(&[1, 2, 3, 4, 5]).unwrap();
        // 1 layer, ⌈5/4⌉ = 2 pages, visible through the shared handle.
        assert_eq!(session.kv_pages(), 2);
        assert_eq!(arena.in_use().pages, 2);
        assert_eq!(session.kv_arena().budget(), Some(KvBudget::Pages(64)));
        // The arena-backed session generates the same tokens as a
        // default (private unbounded arena) session.
        session.reset();
        assert_eq!(arena.in_use().pages, 0);
        let shared = session.generate(&[9, 8, 7], 6).unwrap();
        let private = tiny("bbfp:4,2").generate(&[9, 8, 7], 6).unwrap();
        assert_eq!(shared, private);
    }

    #[test]
    fn sessions_are_send() {
        // The serve runtime moves sessions into worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn prepare_is_idempotent() {
        let mut session = tiny("bbfp:3,1");
        let a = session.prepare().layers()[0].wq.get(0, 0);
        let b = session.prepare().layers()[0].wq.get(0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_weights_decode_to_the_ptq_tensors_for_every_scheme() {
        // The prepared model keeps only packed weights: decoding them must
        // give back the PTQ tensors bit for bit, and the packed serving
        // path must reproduce the dense PTQ model's logits bit for bit.
        let reference = TransformerModel::synthesize(&zoo::tiny_test_model());
        let bits = |l: &bbal_llm::LayerWeights| {
            let mut out = Vec::new();
            l.clone()
                .for_each_weight_mut(&mut |w| out.extend(w.iter().map(|v| v.to_bits())));
            out
        };
        let prompt = [3usize, 1, 4, 1, 5];
        for &scheme in bbal_quant::TABLE2_SCHEMES {
            let mut session = SessionBuilder::new()
                .model("Tiny")
                .scheme_spec(scheme)
                .build()
                .unwrap();
            let hooks = hooks_for(scheme).unwrap();
            let dense = reference.with_transformed_weights(&hooks.as_ref());
            let prepared = session.prepare();
            assert_eq!(prepared.packed_scheme(), Some(scheme));
            for (p, d) in prepared.layers().iter().zip(dense.layers().iter()) {
                assert_eq!(bits(p), bits(d), "{scheme}");
            }
            let packed = session.prefill(&prompt).unwrap();
            let scalar = dense.prefill(&prompt, &hooks.as_ref(), &mut dense.kv_cache());
            assert_eq!(packed.data(), scalar.data(), "{scheme}");
        }
    }

    #[test]
    fn prepare_packs_the_session_scheme() {
        let mut session = tiny("bbfp:4,2");
        assert_eq!(
            session.prepare().packed_scheme(),
            Some(SchemeSpec::Bbfp(4, 2))
        );
        let mut fp32 = tiny("fp32");
        assert_eq!(fp32.prepare().packed_scheme(), Some(SchemeSpec::Fp32));
    }

    #[test]
    fn cloned_builders_share_one_prepared_model_per_scheme() {
        // The serve pool clones one template builder per session slot;
        // every slot on the same scheme must share the same prepared
        // weights by reference (PTQ once, not once per slot).
        let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
        let mut a = template.clone().build().unwrap();
        let mut b = template.clone().build().unwrap();
        a.prepare();
        b.prepare();
        assert!(Arc::ptr_eq(
            a.prepared.as_ref().unwrap(),
            b.prepared.as_ref().unwrap()
        ));
        // A different scheme gets its own prepared weights…
        let mut c = template.clone().scheme("bfp4").build().unwrap();
        c.prepare();
        assert!(!Arc::ptr_eq(
            a.prepared.as_ref().unwrap(),
            c.prepared.as_ref().unwrap()
        ));
        // …and an unrelated builder shares nothing.
        let mut d = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .build()
            .unwrap();
        d.prepare();
        assert!(!Arc::ptr_eq(
            a.prepared.as_ref().unwrap(),
            d.prepared.as_ref().unwrap()
        ));
    }
}
