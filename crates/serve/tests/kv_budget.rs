//! KV budget property battery: whatever the traffic and whichever way
//! the budget counts, the arena never holds more than the budget.
//!
//! Each case draws a trace (mixed schemes, prompts that may share a
//! prefix, short and long decode tails, near-simultaneous arrivals), a
//! budget kind ([`KvBudget::Pages`] or [`KvBudget::Bytes`]) sized from
//! one to three times the largest request's worst case so that
//! preemption is frequent, and the prefix-cache, `kv_quant` and
//! `kv_packed` knobs. The runtime is stepped one scheduler tick at a
//! time, and after every tick:
//!
//! * held (unique less reclaimable) ≤ budget, in the budget's unit;
//! * held ≤ logical, pages and bytes (a held page has a cache holder);
//! * the arena's peaks never fall and never sit below what is in use;
//! * the prefix index holds every block inserted and not evicted.
//!
//! After `finish` nothing is held, and every request ran to completion
//! (preemption converges). On dense-f32 page storage every page charges
//! the same bytes, so `Pages(n)` and `Bytes(n × page_bytes)` must give
//! equal reports.

use bbal_core::SchemeSpec;
use bbal_llm::{zoo, KvBudget, KvStore, KvUsage};
use bbal_serve::{AdmissionPolicy, GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
use bbal_session::SessionBuilder;
use proptest::prelude::*;

const SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::BBAL_PAPER,
    SchemeSpec::Bfp(4),
    SchemeSpec::Oltron,
];

/// One drawn request: scheme index, whether its prompt starts with the
/// shared 8-token prefix, its own prompt tokens, and `max_new`.
type Drawn = (usize, bool, usize, usize);

fn requests() -> impl Strategy<Value = Vec<Drawn>> {
    proptest::collection::vec((0usize..3, any::<bool>(), 1usize..10, 1usize..12), 2..7)
}

fn trace(drawn: &[Drawn]) -> Vec<GenerateRequest> {
    drawn
        .iter()
        .enumerate()
        .map(|(i, &(scheme, shared, own, max_new))| {
            let prefix = (0..8).filter(|_| shared).map(|t| (3 * t + 1) % 64);
            let prompt = prefix.chain((0..own).map(|t| (7 * i + 5 * t + 2) % 64));
            GenerateRequest::new(prompt.collect(), max_new)
                .scheme(SCHEMES[scheme])
                .arriving_at(i as u64 * 300)
        })
        .collect()
}

fn config(page_tokens: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        prefill_chunk: 4,
        workers: 1,
        kv_page_tokens: page_tokens,
        ..ServeConfig::default()
    }
}

fn runtime(config: ServeConfig) -> ServeRuntime {
    let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
    ServeRuntime::new(template, config).expect("runtime builds")
}

/// The largest worst-case footprint of any request in `trace` (its
/// whole sequence, paged, on the Tiny model), in `bytes` or in pages.
fn largest(config: &ServeConfig, trace: &[GenerateRequest], bytes: bool) -> u64 {
    let spec = zoo::tiny_test_model();
    let pt = config.kv_page_tokens;
    trace
        .iter()
        .map(|r| {
            let pages = (spec.layers * (r.prompt.len() + r.max_new_tokens).div_ceil(pt)) as u64;
            let store = KvStore {
                scheme: r.scheme,
                quantize: config.kv_quant,
                packed: config.kv_packed,
            };
            pages
                * if bytes {
                    store.page_bytes(spec.hidden, pt)
                } else {
                    1
                }
        })
        .max()
        .expect("a non-empty trace")
}

proptest! {
    #[test]
    fn held_kv_stays_within_the_budget_at_every_step(
        drawn in requests(),
        bytes in any::<bool>(),
        scale in 2u64..7,
        page_tokens in prop_oneof![Just(2usize), Just(4)],
        prefix_cache in any::<bool>(),
        kv_quant in any::<bool>(),
        kv_packed in any::<bool>(),
        affinity in any::<bool>(),
    ) {
        let trace = trace(&drawn);
        let mut config = config(page_tokens)
            .with_kv_prefix_cache(prefix_cache)
            .with_kv_quant(kv_quant)
            .with_kv_packed(kv_packed);
        if affinity {
            let policy = AdmissionPolicy::SchemeAffinity { max_wait_ticks: 2 };
            config = config.with_admission(policy);
        }
        // From the largest request's worst case (the tightest budget
        // that rejects nothing) up to three times it.
        let limit = largest(&config, &trace, bytes) * scale / 2;
        let config = if bytes {
            config.with_kv_budget_bytes(limit)
        } else {
            config.with_kv_budget(limit as usize)
        };
        let budget = config.kv_budget.expect("just set");
        let case = format!("{budget}, {config:?}, {drawn:?}");

        let mut rt = runtime(config);
        rt.begin().unwrap();
        for r in &trace {
            rt.submit(r).unwrap();
        }
        let mut peak = KvUsage::default();
        let indexed = loop {
            let more = rt.step().unwrap();
            let arena = rt.kv_arena();
            let (in_use, logical) = (arena.in_use(), arena.logical_in_use());
            let held = in_use.saturating_sub(arena.reclaimable());
            prop_assert!(budget.cost(held) <= budget.limit(), "held {held:?}: {case}");
            prop_assert!(
                held.pages <= logical.pages && held.bytes <= logical.bytes,
                "held {held:?} > logical {logical:?}: {case}"
            );
            let now = arena.peak();
            prop_assert!(
                now == now.max(peak) && now == now.max(in_use),
                "peak {now:?} after {peak:?}, in use {in_use:?}: {case}"
            );
            peak = now;
            let stats = arena.prefix_stats();
            prop_assert_eq!(stats.entries as u64, stats.insertions - stats.evictions);
            prop_assert!(prefix_cache || stats.insertions == 0, "{case}");
            if !more {
                break stats.entries;
            }
        };
        let report = rt.finish().unwrap();
        let arena = rt.kv_arena();
        prop_assert_eq!(arena.logical_in_use(), KvUsage::default());
        prop_assert_eq!(arena.in_use(), arena.reclaimable());
        prop_assert_eq!(arena.prefix_stats().entries, indexed);
        prop_assert_eq!(report.rejected().count(), 0);
        for (r, req) in report.requests.iter().zip(&trace) {
            prop_assert_eq!(r.tokens.len(), req.max_new_tokens);
        }
        let peak_cost = budget.cost(KvUsage {
            pages: report.peak_kv_pages,
            bytes: report.peak_kv_bytes,
        });
        prop_assert!(peak_cost <= budget.limit(), "report peak {peak_cost}: {case}");
    }

    #[test]
    fn page_and_byte_budgets_agree_on_dense_storage(
        drawn in requests(),
        scale in 2u64..7,
        page_tokens in prop_oneof![Just(2usize), Just(4)],
        prefix_cache in any::<bool>(),
        kv_quant in any::<bool>(),
        kv_packed in any::<bool>(),
    ) {
        // Only quantised rows pack into scheme-sized pages, so with the
        // two knobs never both on every page holds dense f32 and charges
        // the same bytes whatever its scheme.
        let config = config(page_tokens)
            .with_kv_prefix_cache(prefix_cache)
            .with_kv_quant(kv_quant)
            .with_kv_packed(kv_packed && !kv_quant);
        let hidden = zoo::tiny_test_model().hidden;
        let page_bytes = KvStore::dense_f32().page_bytes(hidden, page_tokens);
        let trace = trace(&drawn);
        // At least the largest worst case, so that neither run rejects
        // (rejection texts name the unit).
        let pages = (largest(&config, &trace, false) * scale / 2) as usize;
        let bytes = pages as u64 * page_bytes;
        let by_pages = runtime(config.with_kv_budget(pages)).serve(&trace).unwrap();
        let mut by_bytes: ServeReport =
            runtime(config.with_kv_budget_bytes(bytes)).serve(&trace).unwrap();
        prop_assert_eq!(by_bytes.kv_budget, Some(KvBudget::Bytes(bytes)));
        by_bytes.kv_budget = by_pages.kv_budget;
        // Equality ignores wall time.
        prop_assert_eq!(by_pages, by_bytes);
    }
}
