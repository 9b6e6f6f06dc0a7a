//! Packed-KV bit-identity battery: storing KV pages in scheme-native
//! packed form must never change a served token stream.
//!
//! The invariant under test is the tentpole guarantee of the packed-KV
//! work: `kv_packed` changes *representation only*. For every Table 2
//! scheme and every composable-algebra family, across page sizes,
//! prefill chunkings and prefix sharing, the packed run's tokens are
//! bit-identical to the same run with dense `f32` page storage — both
//! with KV quantisation off (pages hold exact rows either way) and on
//! (pages hold the same quantised rows either way). What packing *does*
//! change is bytes: a block-scheme page charges ≤ 0.5× its f32
//! equivalent, which is what the equal-byte-budget pressure test turns
//! into strictly fewer preemptions.

use bbal_accel::FormatSpec;
use bbal_core::SchemeSpec;
use bbal_llm::{KvArena, KvBudget, KvStore};
use bbal_quant::registry::TABLE2_SCHEMES;
use bbal_serve::{GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
use bbal_session::{argmax, SessionBuilder};
use proptest::prelude::*;

/// The full scheme battery: the paper's Table 2, one member of each
/// other composable-algebra family, and the flagged zero-overlap
/// BBFP(6,0) point.
fn battery() -> Vec<SchemeSpec> {
    let mut schemes = TABLE2_SCHEMES.to_vec();
    for family in ["mx:8,4,2", "msfp:4,16", "blockmf:4,3,8", "bbfp:6,0"] {
        schemes.push(family.parse().expect("family spec parses"));
    }
    schemes
}

/// A small mixed trace over `scheme`; with `share` the prompts repeat
/// a common prefix so the prefix cache has something to adopt.
fn trace(scheme: SchemeSpec, share: bool) -> Vec<GenerateRequest> {
    (0..3usize)
        .map(|i| {
            let prompt: Vec<usize> = if share {
                // A shared 8-token system prefix plus a per-request tail.
                (0..8).chain([10 + i, 20 + i]).map(|t| t % 64).collect()
            } else {
                (0..5 + i).map(|t| (7 * i + 3 * t + 1) % 64).collect()
            };
            GenerateRequest::new(prompt, 3 + i % 2)
                .scheme(scheme)
                .arriving_at(i as u64 * 500)
        })
        .collect()
}

fn serve(config: ServeConfig, requests: &[GenerateRequest]) -> ServeReport {
    let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
    ServeRuntime::new(template, config)
        .expect("runtime builds")
        .serve(requests)
        .expect("trace serves")
}

/// Lone-session token stream under explicit page size, chunking and
/// packing knobs — the comparison path for schemes the accelerator
/// runtime has no hardware mapping for (`fp16`, `omniquant`).
fn session_tokens(
    scheme: SchemeSpec,
    packed: bool,
    quantize: bool,
    page_tokens: usize,
    chunk: usize,
    prompt: &[usize],
    n: usize,
) -> Vec<usize> {
    let mut session = SessionBuilder::new()
        .model("Tiny")
        .scheme_spec(scheme)
        .kv_arena(KvArena::unbounded(page_tokens))
        .kv_quant(quantize)
        .kv_packed(packed)
        .build()
        .expect("session builds");
    let mut logits = Vec::new();
    let mut fed = 0;
    while fed < prompt.len() {
        let end = (fed + chunk).min(prompt.len());
        logits = session
            .prefill_chunk(&prompt[fed..end])
            .expect("prefill chunk");
        fed = end;
    }
    let mut tokens = vec![argmax(&logits)];
    while tokens.len() < n {
        let logits = session
            .decode_step(*tokens.last().expect("non-empty"))
            .expect("decode step");
        tokens.push(argmax(&logits));
    }
    tokens
}

proptest! {
    /// For any scheme in the battery, any page size (one-token pages
    /// and a full 16-key pass of the attention page kernel included),
    /// any prefill chunking, with or without prefix sharing and KV
    /// quantisation: the packed run's token streams equal the
    /// dense-storage run's, request for request, token for token.
    #[test]
    fn packed_streams_are_bit_identical_to_dense(
        scheme_ix in 0usize..14,
        page_tokens in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8), Just(16)],
        prefill_chunk in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        share in proptest::arbitrary::any::<bool>(),
        quantize in proptest::arbitrary::any::<bool>(),
    ) {
        let schemes = battery();
        let scheme = schemes[scheme_ix % schemes.len()];
        if FormatSpec::from_scheme(scheme).is_err() {
            // No hardware mapping (fp16, omniquant): the runtime cannot
            // serve these, so pin bit-identity on lone sessions with
            // the same page/chunk/packing knobs.
            let prompt: Vec<usize> = (0..9).map(|t| (5 * t + 2) % 64).collect();
            let dense = session_tokens(scheme, false, quantize, page_tokens, prefill_chunk, &prompt, 4);
            let packed = session_tokens(scheme, true, quantize, page_tokens, prefill_chunk, &prompt, 4);
            prop_assert_eq!(
                dense, packed,
                "scheme {:?} page {} chunk {} quant {}",
                scheme, page_tokens, prefill_chunk, quantize
            );
            return Ok(());
        }
        let requests = trace(scheme, share);
        let config = |packed: bool| ServeConfig {
            max_batch: 2,
            prefill_chunk,
            workers: 1,
            kv_page_tokens: page_tokens,
            kv_prefix_cache: share,
            kv_quant: quantize,
            kv_packed: packed,
            ..ServeConfig::default()
        };
        let dense = serve(config(false), &requests);
        let packed = serve(config(true), &requests);
        for (a, b) in dense.requests.iter().zip(&packed.requests) {
            prop_assert_eq!(
                &a.tokens, &b.tokens,
                "scheme {:?} page {} chunk {} share {} quant {} request {}",
                scheme, page_tokens, prefill_chunk, share, quantize, a.id
            );
        }
        // Same scheduling timeline too: packing is invisible to the
        // page-based scheduler.
        prop_assert_eq!(dense.preemptions, packed.preemptions);
        prop_assert_eq!(dense.peak_kv_pages, packed.peak_kv_pages);
        // And packed storage never charges more than dense.
        prop_assert!(packed.peak_kv_bytes <= dense.peak_kv_bytes);
    }
}

#[test]
fn block_scheme_pages_store_at_most_half_the_f32_bytes() {
    // The compression claim: every block scheme's packed page charges
    // no more than half its dense-f32 equivalent (hidden = 64 matches
    // the Tiny model the battery serves).
    let dense = KvStore::dense_f32().page_bytes(64, 8);
    for scheme in battery() {
        let store = KvStore {
            scheme,
            quantize: true,
            packed: true,
        };
        let packed = store.page_bytes(64, 8);
        if scheme.block_algebra().is_some() {
            assert!(
                2 * packed <= dense,
                "{scheme:?}: packed page {packed} B vs dense {dense} B"
            );
        } else {
            // Schemes without a block form fall back to dense storage:
            // same bytes, same bits.
            assert_eq!(packed, dense, "{scheme:?}");
        }
    }
}

#[test]
fn equal_byte_budget_packing_preempts_strictly_less() {
    // The tentpole's serving dividend. Same quantised numerics on both
    // sides (kv_quant on), same *byte* budget — half the dense-storage
    // peak — but the packed side's pages charge a fraction of f32, so
    // it fits more of the working set and preempts strictly less.
    let scheme = SchemeSpec::BBAL_PAPER;
    let requests: Vec<GenerateRequest> = (0..8usize)
        .map(|i| {
            let prompt: Vec<usize> = (0..4 + (i * 3) % 9).map(|t| (7 * i + 3 * t) % 64).collect();
            GenerateRequest::new(prompt, 6 + i % 3)
                .scheme(scheme)
                .arriving_at(i as u64 * 1_000)
        })
        .collect();
    let config = |packed: bool, budget: Option<u64>| ServeConfig {
        max_batch: 3,
        prefill_chunk: 4,
        workers: 2,
        kv_page_tokens: 4,
        kv_budget: budget.map(KvBudget::Bytes),
        kv_quant: true,
        kv_packed: packed,
        ..ServeConfig::default()
    };

    let unbounded = serve(config(false, None), &requests);
    assert_eq!(unbounded.preemptions, 0);
    assert!(unbounded.peak_kv_bytes > 0);

    let budget = (unbounded.peak_kv_bytes / 2).max(1);
    let dense = serve(config(false, Some(budget)), &requests);
    let packed = serve(config(true, Some(budget)), &requests);
    assert!(
        dense.preemptions > 0,
        "a half-peak byte budget ({budget} B) must force preemptions on dense storage"
    );
    assert!(
        packed.preemptions < dense.preemptions,
        "packing must preempt strictly less at the same byte budget \
         (packed {} vs dense {})",
        packed.preemptions,
        dense.preemptions
    );
    // The byte budget was honoured, and outputs never changed.
    assert!(dense.peak_kv_bytes <= budget);
    assert!(packed.peak_kv_bytes <= budget);
    assert_eq!(dense.kv_budget, Some(KvBudget::Bytes(budget)));
    for (a, b) in unbounded.requests.iter().zip(&dense.requests) {
        assert_eq!(a.tokens, b.tokens, "dense request {} diverged", a.id);
    }
    for (a, b) in unbounded.requests.iter().zip(&packed.requests) {
        assert_eq!(a.tokens, b.tokens, "packed request {} diverged", a.id);
    }
}

#[test]
fn byte_budget_rejects_impossible_requests_up_front() {
    // A request whose worst-case packed KV bytes exceed the whole byte
    // budget can never complete: rejected in the report, not errored.
    let requests = vec![
        GenerateRequest::new(vec![1, 2, 3], 2),
        GenerateRequest::new((0..20).collect(), 20), // 40 tokens
    ];
    let config = ServeConfig {
        max_batch: 2,
        prefill_chunk: 4,
        workers: 1,
        kv_page_tokens: 4,
        // Enough bytes for the small request only.
        kv_budget: Some(KvBudget::Bytes(KvStore::dense_f32().page_bytes(64, 4) * 4)),
        ..ServeConfig::default()
    };
    let report = serve(config, &requests);
    assert_eq!(report.rejected().count(), 1);
    assert!(report.requests[1]
        .rejected
        .as_deref()
        .unwrap()
        .contains("bytes"));
    assert_eq!(report.requests[0].tokens.len(), 2);
}
