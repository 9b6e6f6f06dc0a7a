//! Property battery for copy-on-write prefix caching: sharing cached
//! prompt-prefix pages is a storage optimisation and must never change
//! a logit or a token.
//!
//! Three layers pin the guarantee:
//!
//! 1. a proptest sweeping every Table II scheme × random prompt overlap
//!    × page size × prefill chunking: a session adopting another
//!    session's published prefix produces logits bit-identical to a
//!    cold run on a private arena (schemes that are not chunk-invariant
//!    on the Tiny model simply never share — and must *still* match);
//! 2. a proptest hammering a tightly-budgeted arena with a stream of
//!    overlapping prompts, so publications, adoptions and LRU
//!    evictions churn while every run stays bit-identical and inside
//!    the budget;
//! 3. a deterministic serve-level grid (schemes × page sizes × budgets,
//!    preemption included) checking every scheduled request against a
//!    lone `Session::generate`.

use bbal::llm::{KvArena, KvBudget};
use bbal::quant::TABLE2_SCHEMES;
use bbal::serve::{GenerateRequest, ServeConfig, ServeRuntime};
use bbal::{SchemeSpec, Session, SessionBuilder};
use proptest::prelude::*;

/// A Tiny session under `scheme`, drawing from `arena`.
fn tiny_in(scheme: SchemeSpec, arena: &KvArena) -> Session {
    SessionBuilder::new()
        .model("Tiny")
        .scheme_spec(scheme)
        .kv_arena(arena.clone())
        .build()
        .expect("tiny session builds")
}

/// A Tiny session under `scheme` with a private (cold) arena.
fn tiny_cold(scheme: SchemeSpec) -> Session {
    SessionBuilder::new()
        .model("Tiny")
        .scheme_spec(scheme)
        .build()
        .expect("tiny session builds")
}

proptest! {
    /// Warm-vs-cold bit-identity across every Table II scheme, prompt
    /// overlap, page granularity and chunking: a session that adopts
    /// whatever prefix of `warm_prompt` an earlier session published
    /// must produce the cold session's logits bit for bit, through
    /// prefill and decode.
    #[test]
    fn adopted_prefixes_are_bit_identical_to_cold_runs(
        scheme_idx in 0usize..TABLE2_SCHEMES.len(),
        base in proptest::collection::vec(0usize..64, 8..28),
        overlap in 0usize..28,
        suffix in proptest::collection::vec(0usize..64, 1..8),
        pt_idx in 0usize..4,
        chunk in 1usize..9,
    ) {
        let scheme = TABLE2_SCHEMES[scheme_idx];
        let page_tokens = [1usize, 2, 4, 8][pt_idx];
        let arena = KvArena::unbounded(page_tokens);

        // Seed the index with the base prompt's full blocks.
        let mut seeder = tiny_in(scheme, &arena);
        seeder.prefill_shared(&base).unwrap();

        // The warm prompt shares a random-length prefix with the base.
        let mut warm_prompt = base[..overlap.min(base.len())].to_vec();
        warm_prompt.extend(&suffix);

        let mut warm = tiny_in(scheme, &arena);
        let adopted = warm.prefix_lookup(&warm_prompt, warm_prompt.len() - 1);
        prop_assert_eq!(adopted % page_tokens, 0, "adoption is block-granular");
        prop_assert!(adopted <= overlap.min(base.len()).min(warm_prompt.len() - 1));
        let mut warm_logits = Vec::new();
        for ch in warm_prompt[adopted..].chunks(chunk) {
            warm_logits = warm.prefill_chunk(ch).unwrap();
        }
        warm.publish_prefix(&warm_prompt);
        let warm_step = warm.decode_step(17).unwrap();

        // Cold reference: whole prompt, private arena, no sharing.
        let mut cold = tiny_cold(scheme);
        let cold_logits = cold.prefill_chunk(&warm_prompt).unwrap();
        let cold_step = cold.decode_step(17).unwrap();

        if warm.chunk_invariant_prefill() {
            prop_assert_eq!(warm_logits, cold_logits, "{} pt {}", scheme, page_tokens);
        } else {
            // Non-invariant schemes must never have shared anything —
            // and with nothing adopted and chunk-dependent statistics,
            // only the final decode row is comparable.
            prop_assert_eq!(adopted, 0, "{} must not share", scheme);
        }
        prop_assert_eq!(warm_step, cold_step, "{} decode diverged", scheme);
        prop_assert_eq!(warm.kv_len(), cold.kv_len());
    }

    /// Eviction churn: a stream of overlapping prompts through a
    /// budgeted arena barely big enough for one sequence. Every
    /// publication squeezes the index, every new session forces LRU
    /// evictions — outputs stay bit-identical and the arena never
    /// exceeds its budget.
    #[test]
    fn lru_eviction_churn_preserves_bit_identity(
        prefix in proptest::collection::vec(0usize..64, 4..20),
        pt_idx in 0usize..3,
        rounds in 2usize..6,
        scheme_idx in 0usize..TABLE2_SCHEMES.len(),
    ) {
        let scheme = TABLE2_SCHEMES[scheme_idx];
        let page_tokens = [2usize, 4, 8][pt_idx];
        // Budget: exactly one max-length sequence (prompt + suffix +
        // decode), so retained index pages must be evicted to serve
        // the next round.
        let max_seq_tokens = prefix.len() + 2 + 1;
        let budget = max_seq_tokens.div_ceil(page_tokens);
        let arena = KvArena::with_budget(page_tokens, KvBudget::Pages(budget));

        for round in 0..rounds {
            let mut prompt = prefix.clone();
            prompt.extend([(11 * round + 7) % 64, (5 * round + 2) % 64]);
            let mut warm = tiny_in(scheme, &arena);
            let warm_logits = warm.prefill_shared(&prompt).unwrap();
            let warm_step = warm.decode_step(3).unwrap();
            prop_assert!(
                arena.in_use().pages <= budget,
                "round {}: {} pages over budget {}",
                round,
                arena.in_use().pages,
                budget
            );

            let mut cold = tiny_cold(scheme);
            let cold_logits = cold.prefill_chunk(&prompt).unwrap();
            let cold_step = cold.decode_step(3).unwrap();
            prop_assert_eq!(warm_logits, cold_logits, "round {}", round);
            prop_assert_eq!(warm_step, cold_step, "round {}", round);
            drop(warm);
        }
        // The budget squeezed the index the whole time; on invariant
        // schemes the stream really did publish and adopt.
        let stats = arena.prefix_stats();
        if tiny_cold(scheme).chunk_invariant_prefill() && prefix.len() >= page_tokens {
            prop_assert!(stats.insertions > 0, "stream published");
            if rounds > 2 {
                prop_assert!(stats.hits > 0, "stream adopted");
            }
        }
    }
}

/// Serve-level grid: shared-prefix traffic across mixed schemes, page
/// sizes and budgets (tight enough to preempt) — every request must
/// reproduce its lone-session tokens exactly, warm or cold.
#[test]
fn served_shared_traffic_matches_lone_sessions_across_the_grid() {
    let schemes = [
        SchemeSpec::BBAL_PAPER,
        SchemeSpec::Bfp(4),
        SchemeSpec::Oltron,
    ];
    let trace: Vec<GenerateRequest> = (0..9usize)
        .map(|i| {
            let mut prompt: Vec<usize> = (0..16).map(|t| (3 * t + 1) % 64).collect();
            prompt.extend([(9 * i + 4) % 64, (13 * i + 40) % 64]);
            GenerateRequest::new(prompt, 4)
                .scheme(schemes[i % schemes.len()])
                .arriving_at(i as u64 * 2_000)
        })
        .collect();
    let lone: Vec<Vec<usize>> = trace
        .iter()
        .map(|r| {
            tiny_cold(r.scheme)
                .generate(&r.prompt, r.max_new_tokens)
                .unwrap()
        })
        .collect();

    for page_tokens in [2usize, 4] {
        // Worst case of one request, in pages — the tightest budget
        // that must still serve the whole trace (with preemptions).
        let largest = trace
            .iter()
            .map(|r| (r.prompt.len() + r.max_new_tokens).div_ceil(page_tokens))
            .max()
            .unwrap();
        for budget in [None, Some(3 * largest / 2), Some(largest)] {
            for warm in [true, false] {
                let config = ServeConfig {
                    max_batch: 4,
                    prefill_chunk: 8,
                    workers: 2,
                    kv_page_tokens: page_tokens,
                    kv_budget: budget.map(KvBudget::Pages),
                    ..ServeConfig::default()
                }
                .with_kv_prefix_cache(warm);
                let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
                let report = ServeRuntime::new(template, config)
                    .expect("runtime builds")
                    .serve(&trace)
                    .expect("trace serves");
                assert_eq!(report.rejected().count(), 0);
                for (r, expected) in report.requests.iter().zip(&lone) {
                    assert_eq!(
                        &r.tokens, expected,
                        "request {} diverged (pt {page_tokens}, budget {budget:?}, warm {warm})",
                        r.id
                    );
                }
                if let Some(b) = budget {
                    assert!(report.peak_kv_pages <= b);
                    assert!(report.ticks.iter().all(|t| t.kv_pages <= b));
                }
                if warm && budget.is_none() {
                    // Under a tight budget the index is squeezed the
                    // moment a publisher releases, so reuse is only
                    // guaranteed on the unbounded axis.
                    assert!(
                        report.kv_page_reuse_ratio() > 0.0,
                        "shared traffic must reuse pages (pt {page_tokens})"
                    );
                } else if !warm {
                    assert_eq!(report.shared_prefix_tokens(), 0);
                }
            }
        }
    }
}
