//! Property test for the paged KV arena: the page size is a storage
//! layout decision and must never change a logit.
//!
//! The pre-refactor `KvCache` held each layer's K/V rows in one
//! contiguous growable `Vec`. A page size of 2²⁰ tokens reproduces that
//! layout exactly (one page per layer holds the whole sequence), so
//! comparing it against small page sizes *is* the paged-vs-contiguous
//! bit-identity check — across every Table II quantisation scheme,
//! random prompt lengths, random prefill chunkings, and
//! `page_tokens ∈ {1, 4, 16, 64}`.

use bbal::llm::{zoo, InferenceHooks, KvArena, TransformerModel};
use bbal::quant::{hooks_for, TABLE2_SCHEMES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One contiguous page per layer: the pre-refactor storage layout.
const CONTIGUOUS: usize = 1 << 20;

fn tiny_model() -> &'static TransformerModel {
    static MODEL: OnceLock<TransformerModel> = OnceLock::new();
    MODEL.get_or_init(|| TransformerModel::synthesize(&zoo::tiny_test_model()))
}

/// Feeds `prompt` in `chunk`-sized prefill chunks, then three decode
/// steps, through a cache drawn from `arena`; returns every logit the
/// run produced, flattened in order.
fn run(
    arena: &KvArena,
    hooks: &(impl InferenceHooks + ?Sized),
    prompt: &[usize],
    chunk: usize,
) -> Vec<f32> {
    let model = tiny_model();
    let mut cache = model.kv_cache_in(arena);
    let mut logits: Vec<f32> = Vec::new();
    for ch in prompt.chunks(chunk) {
        logits.extend_from_slice(model.prefill_chunk(ch, &hooks, &mut cache).data());
    }
    for t in [1usize, 33, 7] {
        logits.extend_from_slice(&model.decode_step(t, &hooks, &mut cache));
    }
    assert_eq!(cache.len(), prompt.len() + 3);
    logits
}

proptest! {
    /// Paged prefill + decode is bit-identical to the contiguous
    /// layout for every Table II scheme and every page granularity.
    #[test]
    fn paged_kv_matches_contiguous_layout(
        scheme_idx in 0usize..TABLE2_SCHEMES.len(),
        prompt in proptest::collection::vec(0usize..64, 1..40),
        chunk in 1usize..17,
        pt_idx in 0usize..4,
    ) {
        let scheme = TABLE2_SCHEMES[scheme_idx];
        let hooks = hooks_for(scheme).expect("Table II schemes all have hooks");
        let reference = run(
            &KvArena::unbounded(CONTIGUOUS),
            hooks.as_ref(),
            &prompt,
            chunk,
        );
        let page_tokens = [1usize, 4, 16, 64][pt_idx];
        let paged = run(
            &KvArena::unbounded(page_tokens),
            hooks.as_ref(),
            &prompt,
            chunk,
        );
        // Bit-identity, not approximate equality.
        prop_assert_eq!(paged, reference, "{} page_tokens {}", scheme, page_tokens);
    }

    /// Page accounting is exact for any feeding pattern: the arena
    /// holds `layers × ⌈len/page_tokens⌉` pages, no more, and a clear
    /// returns every one.
    #[test]
    fn page_accounting_is_exact(
        prompt in proptest::collection::vec(0usize..64, 1..40),
        chunk in 1usize..17,
        pt_idx in 0usize..4,
    ) {
        let page_tokens = [1usize, 4, 16, 64][pt_idx];
        let arena = KvArena::unbounded(page_tokens);
        let hooks = hooks_for(bbal::SchemeSpec::BBAL_PAPER).expect("valid");
        let model = tiny_model();
        let mut cache = model.kv_cache_in(&arena);
        for ch in prompt.chunks(chunk) {
            model.prefill_chunk(ch, &hooks.as_ref(), &mut cache);
            prop_assert_eq!(
                arena.in_use().pages,
                arena.pages_for_tokens(cache.len(), model.spec().layers)
            );
        }
        cache.clear();
        prop_assert_eq!(arena.in_use().pages, 0);
    }
}
