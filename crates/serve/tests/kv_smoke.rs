//! Fast KV-memory smoke: the memory-budgeted scheduler on the Tiny
//! model. This is the CI gate for budget regressions — a tiny-dims
//! memory-pressure sweep (tight vs loose budgets) plus the two
//! correctness guarantees the arena refactor must uphold: preemption
//! never changes an output token, and impossible requests are rejected
//! in the report, not panicked on mid-run.

use bbal_core::SchemeSpec;
use bbal_llm::KvBudget;
use bbal_serve::{GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
use bbal_session::SessionBuilder;

/// Mixed-scheme traffic with long-ish decode tails so KV growth, not
/// prefill, is what hits the budget.
fn trace() -> Vec<GenerateRequest> {
    (0..8usize)
        .map(|i| {
            let prompt: Vec<usize> = (0..4 + (i * 3) % 9).map(|t| (7 * i + 3 * t) % 64).collect();
            let scheme = match i % 3 {
                0 => SchemeSpec::BBAL_PAPER,
                1 => SchemeSpec::Bfp(4),
                _ => SchemeSpec::Oltron,
            };
            GenerateRequest::new(prompt, 6 + i % 3)
                .scheme(scheme)
                .arriving_at(i as u64 * 1_000)
        })
        .collect()
}

fn config(kv_budget_pages: Option<usize>) -> ServeConfig {
    ServeConfig {
        max_batch: 3,
        prefill_chunk: 4,
        workers: 2,
        kv_page_tokens: 4,
        kv_budget: kv_budget_pages.map(KvBudget::Pages),
        ..ServeConfig::default()
    }
}

fn serve(config: ServeConfig, requests: &[GenerateRequest]) -> ServeReport {
    let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
    ServeRuntime::new(template, config)
        .expect("runtime builds")
        .serve(requests)
        .expect("trace serves")
}

#[test]
fn preemption_is_deterministic_and_bit_identical() {
    // The ISSUE-5 determinism requirement: a tight budget must produce
    // the same tokens as an unconstrained run for every request, with
    // preemptions actually exercised.
    let unbounded = serve(config(None), &trace());
    assert_eq!(unbounded.preemptions, 0);
    assert!(unbounded.peak_kv_pages > 0);

    let budget = (unbounded.peak_kv_pages / 2).max(1);
    let tight = serve(config(Some(budget)), &trace());
    assert!(
        tight.preemptions > 0,
        "a half-peak budget ({budget} pages) must force preemptions"
    );
    for (a, b) in unbounded.requests.iter().zip(&tight.requests) {
        assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
        assert_eq!(a.tokens.len(), trace()[a.id].max_new_tokens);
    }
    // The budget was honoured at every tick, and the activity reported.
    assert!(tight.peak_kv_pages <= budget);
    assert!(tight.ticks.iter().all(|t| t.kv_pages <= budget));
    assert!(tight.requests.iter().any(|r| r.preemptions > 0));
    assert_eq!(
        tight.preemptions,
        tight.requests.iter().map(|r| r.preemptions).sum::<u64>()
    );
    // Preemption replays feed tokens, so the tight run does strictly
    // more prefill work.
    let prefill = |r: &ServeReport| r.ticks.iter().map(|t| t.prefill_tokens).sum::<usize>();
    assert!(prefill(&tight) > prefill(&unbounded));
    // And the run is reproducible bit for bit.
    assert_eq!(tight, serve(config(Some(budget)), &trace()));
}

#[test]
fn tiny_memory_pressure_sweep_stays_identical() {
    // The tiny-dims memory-pressure sweep: every budget from loose to
    // the tightest that can still hold the largest request must finish
    // all requests with identical outputs and a bounded footprint.
    let unbounded = serve(config(None), &trace());
    let peak = unbounded.peak_kv_pages;
    let largest = trace()
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens).div_ceil(4))
        .max()
        .unwrap();
    for budget in [peak, (peak * 3) / 4, peak / 2, largest] {
        let report = serve(config(Some(budget)), &trace());
        assert_eq!(report.kv_budget, Some(KvBudget::Pages(budget)));
        assert!(report.peak_kv_pages <= budget, "budget {budget}");
        assert!(report.rejected().count() == 0, "budget {budget}");
        for (a, b) in unbounded.requests.iter().zip(&report.requests) {
            assert_eq!(a.tokens, b.tokens, "budget {budget} request {}", a.id);
        }
        assert!(report.kv_bytes_moved() > 0);
        assert!(report.kv_dram_energy_pj > 0.0);
    }
}

#[test]
fn impossible_requests_are_rejected_in_the_report() {
    // Context overflow (Tiny's window is 64) and a KV footprint no
    // budget could hold are *reported* rejections: the rest of the
    // trace serves normally and no error is raised.
    let long_prompt: Vec<usize> = (0..60).map(|t| t % 64).collect();
    let reqs = vec![
        GenerateRequest::new(vec![1, 2, 3], 4),
        GenerateRequest::new(long_prompt, 10), // 70 > max_seq 64
        GenerateRequest::new(vec![4, 5], 4),
    ];
    let report = serve(config(None), &reqs);
    assert_eq!(report.requests.len(), 3);
    assert_eq!(report.rejected().count(), 1);
    let rejected = &report.requests[1];
    assert!(rejected
        .rejected
        .as_deref()
        .unwrap()
        .contains("context window"));
    assert!(rejected.tokens.is_empty());
    for id in [0usize, 2] {
        assert_eq!(report.requests[id].tokens.len(), 4, "request {id}");
        assert!(report.requests[id].rejected.is_none());
    }

    // A request whose worst-case KV footprint exceeds the whole budget
    // can never complete: rejected up front, others unaffected.
    let reqs = vec![
        GenerateRequest::new(vec![1, 2, 3], 2), // 5 tokens -> 2 pages
        GenerateRequest::new((0..20).collect(), 20), // 40 tokens -> 10 pages
    ];
    let report = serve(config(Some(4)), &reqs);
    assert_eq!(report.rejected().count(), 1);
    assert!(report.requests[1]
        .rejected
        .as_deref()
        .unwrap()
        .contains("exceeds the arena budget"));
    assert_eq!(report.requests[0].tokens.len(), 2);
}

#[test]
fn sequential_budgeted_serving_matches_lone_sessions() {
    // Even at batch 1 with the tightest viable budget, the scheduler's
    // paging must reproduce lone-session outputs exactly.
    let largest = trace()
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens).div_ceil(4))
        .max()
        .unwrap();
    let report = serve(
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..config(Some(largest))
        },
        &trace(),
    );
    for (r, req) in report.requests.iter().zip(trace()) {
        let mut lone = SessionBuilder::new()
            .model("Tiny")
            .scheme_spec(req.scheme)
            .build()
            .unwrap();
        let expected = lone.generate(&req.prompt, req.max_new_tokens).unwrap();
        assert_eq!(r.tokens, expected, "request {}", r.id);
    }
}
