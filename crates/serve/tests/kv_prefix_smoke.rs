//! Fast prefix-cache smoke: shared-system-prompt serving on the Tiny
//! model. This is the CI gate for prefix-caching regressions — TTFT
//! collapse and page reuse on warm traffic, admission that counts
//! shared pages once, the affinity starvation bound under shared
//! traffic, and preemption bit-identity with sharing in play. The
//! exhaustive property battery lives in the facade's `tests/kv_prefix.rs`.

use bbal_core::SchemeSpec;
use bbal_llm::KvBudget;
use bbal_serve::{AdmissionPolicy, GenerateRequest, ServeConfig, ServeRuntime};
use bbal_session::SessionBuilder;

/// A 32-token system prompt every request shares.
fn system_prompt() -> Vec<usize> {
    (0..32).map(|t| (3 * t + 5) % 64).collect()
}

/// `n` requests: the shared system prompt plus a distinct 4-token
/// suffix each, so only the prefix blocks are shareable.
fn shared_trace(n: usize) -> Vec<GenerateRequest> {
    (0..n)
        .map(|i| {
            let mut prompt = system_prompt();
            prompt.extend((0..4).map(|t| (7 * i + t + 11) % 64));
            GenerateRequest::new(prompt, 4)
        })
        .collect()
}

fn serve(config: ServeConfig, requests: &[GenerateRequest]) -> bbal_serve::ServeReport {
    let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
    ServeRuntime::new(template, config)
        .expect("runtime builds")
        .serve(requests)
        .expect("trace serves")
}

#[test]
fn shared_system_prompt_collapses_ttft_and_reuses_pages() {
    // Sequential serving, so every request after the first finds the
    // whole system prompt (and its own suffix's full blocks) cached.
    let config = ServeConfig {
        max_batch: 1,
        prefill_chunk: 8,
        workers: 1,
        kv_page_tokens: 4,
        ..ServeConfig::default()
    };
    let trace = shared_trace(8);
    let warm = serve(config, &trace);
    let cold = serve(config.with_kv_prefix_cache(false), &trace);

    // Warm outputs are bit-identical to the cold baseline *and* to a
    // lone session per request.
    for (w, c) in warm.requests.iter().zip(&cold.requests) {
        assert_eq!(w.tokens, c.tokens, "request {} diverged", w.id);
        let mut lone = SessionBuilder::new()
            .model("Tiny")
            .scheme("bbfp:4,2")
            .build()
            .unwrap();
        let expected = lone
            .generate(&trace[w.id].prompt, trace[w.id].max_new_tokens)
            .unwrap();
        assert_eq!(w.tokens, expected, "request {} vs lone session", w.id);
    }

    // Every request but the first adopted the full 32-token prefix.
    assert_eq!(warm.requests[0].shared_prefix_tokens, 0);
    for r in &warm.requests[1..] {
        assert_eq!(r.shared_prefix_tokens, 32, "request {}", r.id);
    }
    assert!(cold.requests.iter().all(|r| r.shared_prefix_tokens == 0));

    // The reuse ratio is the adopted share of prompt pages: 8 of each
    // follower's 9 prompt pages, nothing for the leader.
    let expected_ratio = (7.0 * 8.0) / (8.0 * 9.0);
    assert!((warm.kv_page_reuse_ratio() - expected_ratio).abs() < 1e-12);
    assert_eq!(cold.kv_page_reuse_ratio(), 0.0);

    // TTFT collapses: adopted prefixes skip most prefill ticks, so the
    // warm run is faster for every follower and in aggregate.
    assert!(
        warm.mean_ttft_ms() < cold.mean_ttft_ms(),
        "warm TTFT {} >= cold {}",
        warm.mean_ttft_ms(),
        cold.mean_ttft_ms()
    );
    assert!(warm.total_cycles < cold.total_cycles);
    for (w, c) in warm.requests.iter().zip(&cold.requests).skip(1) {
        assert!(w.ttft_cycles() < c.ttft_cycles(), "request {}", w.id);
    }

    // Shared pages show up as the unique-vs-logical gap.
    assert!(warm.peak_logical_kv_pages >= warm.peak_kv_pages);
    assert_eq!(cold.peak_logical_kv_pages, cold.peak_kv_pages);
}

#[test]
fn admission_counts_shared_pages_once_against_the_budget() {
    // Three requests share a 16-token prefix; each has a worst case of
    // 6 pages (18-token prompt + 4 new, 4-token pages, one layer). A
    // 12-page budget cannot hold three cold requests (18 pages of
    // worst case), but counts shared pages once, so the warm run fits
    // all three concurrently: 4 shared + 2 private each.
    let prefix: Vec<usize> = (0..16).map(|t| (5 * t + 3) % 64).collect();
    let trace: Vec<GenerateRequest> = (0..3)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend([(11 * i + 2) % 64, (11 * i + 30) % 64]);
            // The leader arrives first so its publication precedes the
            // followers' admission.
            GenerateRequest::new(prompt, 4).arriving_at(u64::from(i > 0))
        })
        .collect();
    let config = ServeConfig {
        max_batch: 3,
        prefill_chunk: 32,
        workers: 2,
        kv_page_tokens: 4,
        kv_budget: Some(KvBudget::Pages(12)),
        ..ServeConfig::default()
    };

    let warm = serve(config, &trace);
    let cold = serve(config.with_kv_prefix_cache(false), &trace);

    let max_active = |r: &bbal_serve::ServeReport| r.ticks.iter().map(|t| t.active).max().unwrap();
    assert_eq!(warm.rejected().count(), 0);
    assert_eq!(cold.rejected().count(), 0);
    // Shared-once accounting is what admits the whole trace at once.
    assert_eq!(max_active(&warm), 3, "warm run batches all three");
    assert!(max_active(&cold) < 3, "cold run cannot fit three");
    // The budget was honoured with room to spare for the shared pages.
    assert!(warm.peak_kv_pages <= 12);
    assert!(warm.ticks.iter().all(|t| t.kv_pages <= 12));
    assert!(warm.peak_logical_kv_pages > warm.peak_kv_pages);
    // Identical outputs either way.
    for (w, c) in warm.requests.iter().zip(&cold.requests) {
        assert_eq!(w.tokens, c.tokens, "request {} diverged", w.id);
    }
    // Sharing admits earlier, so the warm run also finishes sooner.
    assert!(warm.total_cycles < cold.total_cycles);
}

#[test]
fn affinity_starvation_bound_holds_under_shared_traffic() {
    // Five bbfp:4,2 requests sharing a system prompt plus one odd bfp4
    // request, batch budget 2: affinity keeps preferring the fusable
    // (and now cheap-to-admit) shared-prefix peers, but the aging bound
    // must still cap how long the odd request waits.
    let mut trace = shared_trace(6);
    trace[1] = GenerateRequest::new(vec![9, 41, 23], 4).scheme(SchemeSpec::Bfp(4));
    let config = ServeConfig {
        max_batch: 2,
        prefill_chunk: 8,
        workers: 2,
        kv_page_tokens: 4,
        admission: AdmissionPolicy::SchemeAffinity { max_wait_ticks: 2 },
        ..ServeConfig::default()
    };
    let report = serve(config, &trace);
    assert!(
        report.requests[1].passed_over_ticks <= 2,
        "odd request passed over {} times under a bound of 2",
        report.requests[1].passed_over_ticks
    );
    // Shared-prefix admission changes the schedule, never the tokens.
    for (r, req) in report.requests.iter().zip(&trace) {
        let mut lone = SessionBuilder::new()
            .model("Tiny")
            .scheme_spec(req.scheme)
            .build()
            .unwrap();
        let expected = lone.generate(&req.prompt, req.max_new_tokens).unwrap();
        assert_eq!(r.tokens, expected, "request {}", r.id);
    }
    // The shared-prefix peers really did share.
    assert!(report.shared_prefix_tokens() > 0);
}

#[test]
fn preemption_under_sharing_stays_bit_identical() {
    // A budget around half the warm peak forces preemptions while
    // prefix blocks are being shared and the index holds reclaimable
    // pages — outputs must not move, and the budget must hold at every
    // tick.
    let config = ServeConfig {
        max_batch: 4,
        prefill_chunk: 8,
        workers: 2,
        kv_page_tokens: 4,
        ..ServeConfig::default()
    };
    let trace: Vec<GenerateRequest> = shared_trace(8)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.arriving_at(i as u64 * 30_000))
        .collect();
    let unbounded = serve(config, &trace);
    assert_eq!(unbounded.preemptions, 0);
    assert!(unbounded.shared_prefix_tokens() > 0);

    let largest = trace
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens).div_ceil(4))
        .max()
        .unwrap();
    let budget = (unbounded.peak_kv_pages / 2).max(largest);
    let tight = serve(config.with_kv_budget(budget), &trace);
    assert!(
        tight.preemptions > 0,
        "budget {budget} of peak {} must force preemptions",
        unbounded.peak_kv_pages
    );
    assert_eq!(tight.rejected().count(), 0);
    for (a, b) in unbounded.requests.iter().zip(&tight.requests) {
        assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
    }
    assert!(tight.peak_kv_pages <= budget);
    assert!(tight.ticks.iter().all(|t| t.kv_pages <= budget));
    // Bit-for-bit reproducible, prefix cache and all.
    assert_eq!(tight, serve(config.with_kv_budget(budget), &trace));
    // And identical to the fully cold run under the same budget.
    let cold = serve(
        config.with_kv_budget(budget).with_kv_prefix_cache(false),
        &trace,
    );
    for (a, b) in cold.requests.iter().zip(&tight.requests) {
        assert_eq!(a.tokens, b.tokens, "request {} diverged from cold", a.id);
    }
}
