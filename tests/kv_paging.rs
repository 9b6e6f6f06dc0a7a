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
//!
//! A packed store keeps keys key-minor (one column's values contiguous
//! over a page's tokens) and values row-major; the classic dense store
//! keeps both row-major. The last two checks pin that layout: packed
//! key-minor pages give the logits and the cached rows of row-major
//! dense pages, and a fixed battery of runs gives the logit and row bits
//! the row-major key pages gave.

use bbal::llm::{zoo, InferenceHooks, KvArena, KvStore, TransformerModel};
use bbal::quant::{hooks_for, TABLE2_SCHEMES};
use bbal::SchemeSpec;
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

/// As [`run`], through a cache under `store` with `page_tokens`-token
/// pages; also returns every cached key and value row, read back
/// through `KvCache::kv_row`, layer by layer.
fn run_stored(
    store: KvStore,
    page_tokens: usize,
    prompt: &[usize],
    chunk: usize,
) -> (Vec<f32>, Vec<f32>) {
    let model = tiny_model();
    let hooks = hooks_for(store.scheme).expect("every scheme here has hooks");
    let arena = KvArena::unbounded(page_tokens);
    let mut cache = model.kv_cache_with(&arena, store);
    let mut logits: Vec<f32> = Vec::new();
    for ch in prompt.chunks(chunk) {
        logits.extend_from_slice(model.prefill_chunk(ch, &hooks.as_ref(), &mut cache).data());
    }
    for t in [1usize, 33, 7] {
        logits.extend_from_slice(&model.decode_step(t, &hooks.as_ref(), &mut cache));
    }
    let mut rows = Vec::new();
    for layer in 0..model.spec().layers {
        for pos in 0..cache.len() {
            let (k, v) = cache.kv_row(layer, pos);
            rows.extend(k);
            rows.extend(v);
        }
    }
    (logits, rows)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The quantised, packed store of `scheme`, and the same rows held as
/// dense f32 pages.
fn stores(scheme: SchemeSpec) -> [KvStore; 2] {
    [true, false].map(|packed| KvStore {
        scheme,
        quantize: true,
        packed,
    })
}

/// FNV-1a over the bits of a run of values.
fn fnv(hash: u64, values: &[f32]) -> u64 {
    values.iter().fold(hash, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Logits and cached rows of a fixed battery of runs — every Table II
/// scheme, dense f32 and quantised packed KV, pages of 1, 3 and 16
/// tokens (ragged last pages), prefill in chunks of 5 and three decode
/// steps — hashed. The hash was taken when every key page was row-major
/// and read one key at a time; the packed runs' key-minor pages, read by
/// the page kernel, give the same bits.
#[test]
fn key_minor_pages_reproduce_the_row_major_bits() {
    let prompt: Vec<usize> = (0..23).map(|i| (i * 29 + 5) % 64).collect();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &scheme in TABLE2_SCHEMES {
        let [packed, _] = stores(scheme);
        let dense = KvStore {
            scheme,
            quantize: false,
            packed: false,
        };
        for store in [dense, packed] {
            for page_tokens in [1usize, 3, 16] {
                let (logits, rows) = run_stored(store, page_tokens, &prompt, 5);
                hash = fnv(fnv(hash, &logits), &rows);
            }
        }
    }
    assert_eq!(hash, KEY_MINOR_GOLDEN, "got {hash:#018x}");
}

/// [`key_minor_pages_reproduce_the_row_major_bits`]'s hash at the last
/// commit with row-major key pages.
const KEY_MINOR_GOLDEN: u64 = 0x949c_0e07_6d77_b633;

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

    /// Packed key-minor pages (block codes, or a dense lane after a
    /// demotion) give the logits and the cached rows of the same
    /// quantised rows held as dense f32 pages in one contiguous page,
    /// bit for bit, for every Table II scheme, pages of 1, 3 and 16
    /// tokens and random chunkings.
    #[test]
    fn packed_key_minor_pages_match_dense_pages(
        scheme_idx in 0usize..TABLE2_SCHEMES.len(),
        prompt in proptest::collection::vec(0usize..64, 1..40),
        chunk in 1usize..17,
        pt_idx in 0usize..3,
    ) {
        let [packed, dense] = stores(TABLE2_SCHEMES[scheme_idx]);
        let page_tokens = [1usize, 3, 16][pt_idx];
        let (logits, rows) = run_stored(packed, page_tokens, &prompt, chunk);
        let (want_logits, want_rows) = run_stored(dense, CONTIGUOUS, &prompt, chunk);
        prop_assert_eq!(bits(&logits), bits(&want_logits), "logits, page_tokens {}", page_tokens);
        prop_assert_eq!(bits(&rows), bits(&want_rows), "kv rows, page_tokens {}", page_tokens);
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
