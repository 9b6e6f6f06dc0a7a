//! # bbal-llm — the transformer substrate
//!
//! The BBAL paper evaluates on real Llama/OPT checkpoints against
//! WikiText2. Neither is available offline, so this crate provides the
//! reproduction's substitute: a from-scratch decoder-only transformer
//! ([`model::TransformerModel`]) over a synthetic model zoo ([`zoo`])
//! whose weight/activation distributions reproduce the outlier structure
//! the paper's Fig. 1(a) shows, and a perplexity *proxy* ([`eval`]) that
//! anchors each model to the paper's own FP16/FP32 perplexity and maps
//! measured output divergence to perplexity increase.
//!
//! Quantisers and nonlinear units plug in through [`hooks::InferenceHooks`]
//! — the same seam the paper's hardware intervenes at.
//!
//! ```
//! use bbal_llm::{EvalSet, ExactHooks, TransformerModel, zoo};
//!
//! let spec = zoo::tiny_test_model();
//! let model = TransformerModel::synthesize(&spec);
//! let eval = EvalSet::generate(&spec, 1, 8, 42);
//! let baseline = bbal_llm::evaluate_ppl(&model, &ExactHooks, &eval);
//! assert!((baseline.ppl - spec.anchor_ppl).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eval;
pub mod graph;
pub mod hooks;
pub mod kv;
pub mod model;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod tensor;
pub mod zoo;

pub use eval::{evaluate_ppl, EvalSet, PplResult};
pub use hooks::{Activation, ComposedHooks, ExactHooks, Fp16Hooks, InferenceHooks, StatsSpan};
pub use kv::{
    ArenaFull, KvArena, KvBudget, KvStore, KvUsage, PrefixProbe, PrefixStats, DEFAULT_PAGE_TOKENS,
};
pub use model::{KvCache, LayerWeights, TransformerModel};
pub use tensor::Tensor;
pub use zoo::{Family, ModelSpec, OutlierProfile};
