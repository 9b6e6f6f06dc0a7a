//! Runner of `paper_eval`.
//!
//! A pass resolves the model with the seeded eval set, builds one
//! session per Table II scheme, then for each scheme runs
//! `Session::evaluate` (the pass's step) and — where the scheme maps to
//! hardware — a simulated prefill and decode step.

use crate::common::{self, Ctx, Digest, PassTime, RequestSim};
use crate::host::Stopwatch;
use crate::metrics::Outcome;
use crate::probes;
use crate::recorder::Recorder;
use crate::stats;
use crate::workloads::{EvalPlan, MODEL};
use bbal_accel::{FormatSpec, SimReport};
use bbal_core::SchemeSpec;
use bbal_session::{Session, SessionBuilder};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One scheme's results in one pass.
#[derive(Debug, Clone, PartialEq)]
struct SchemeResult {
    scheme: SchemeSpec,
    ppl: f64,
    /// Simulated prefill and decode, for hardware-mapped schemes.
    sim: Option<(SimReport, SimReport)>,
    clock_ghz: f64,
}

struct Pass {
    time: PassTime,
    step_ms: Vec<f64>,
    results: Vec<SchemeResult>,
    failed: u64,
    /// The pass's resolved model (no prepared weights).
    template: SessionBuilder,
}

/// Resolves the model and builds one session per (scheme, eval
/// sequence): a session's eval set is fixed when it is built.
fn setup(
    plan: &EvalPlan,
    rec: &Recorder,
    id: u64,
) -> Result<(SessionBuilder, Vec<Vec<Session>>), String> {
    let _setup = rec.span("bench.setup", id);
    let template = rec
        .time("session.resolve_model", id, || {
            SessionBuilder::new().model(MODEL).resolve_model()
        })
        .map_err(err)?;
    let mut sessions = Vec::with_capacity(plan.schemes.len());
    for &scheme in &plan.schemes {
        let per_seq = plan
            .eval_seeds
            .iter()
            .map(|&seed| {
                rec.time("session.build", id, || {
                    template
                        .clone()
                        .scheme_spec(scheme)
                        .eval_set(1, plan.eval_seq_len, seed)
                        .build()
                })
            })
            .collect::<Result<Vec<Session>, _>>()
            .map_err(err)?;
        sessions.push(per_seq);
    }
    Ok((template, sessions))
}

fn run_pass(ctx: &Ctx, plan: &EvalPlan, pass: usize) -> Result<Pass, String> {
    let rec = ctx.rec(pass);
    let id = pass as u64;
    let setup_watch = Stopwatch::start();
    let (template, sessions) = setup(plan, rec, id)?;
    let setup_s = setup_watch.elapsed_s();
    let run_watch = Stopwatch::start();
    let mut step_ms = Vec::with_capacity(sessions.len());
    let mut results = Vec::with_capacity(sessions.len());
    let mut failed = 0;
    let mut gauge_s = 0.0;
    {
        let _pass = rec.span("bench.pass", id);
        for per_seq in &sessions {
            let session = &per_seq[0];
            let scheme = session.scheme();
            let mut ppls = Vec::with_capacity(per_seq.len());
            for s in per_seq {
                let t = Stopwatch::start();
                ppls.push(rec.time("session.evaluate", id, || s.evaluate()).ppl);
                step_ms.push(t.elapsed_s() * 1.0e3);
                gauge_s += ctx.gauge(pass);
            }
            let ppl = stats::geomean(&ppls).unwrap_or(f64::NAN);
            let sim = if FormatSpec::from_scheme(scheme).is_ok() {
                let prefill = rec.time("accel.simulate_prefill", id, || {
                    session.simulate_prefill(plan.prefill_len)
                });
                let decode = rec.time("accel.simulate_decode", id, || {
                    session.simulate_decode(plan.decode_context)
                });
                match (prefill, decode) {
                    (Ok(p), Ok(d)) => Some((p, d)),
                    _ => {
                        eprintln!("perfbench: simulating {scheme} failed");
                        failed += 1;
                        None
                    }
                }
            } else {
                None
            };
            if !(ppl.is_finite() && ppl > 0.0) {
                eprintln!("perfbench: {scheme} perplexity {ppl} is not finite");
                failed += 1;
            }
            results.push(SchemeResult {
                scheme,
                ppl,
                sim,
                clock_ghz: session.clock_ghz(),
            });
        }
    }
    let run_s = run_watch.elapsed_s() - gauge_s;
    let tokens = (plan.eval_seeds.len() * plan.eval_seq_len * sessions.len()) as f64;
    Ok(Pass {
        time: PassTime {
            setup_s,
            run_s,
            tokens,
            traced: ctx.pass_traced(pass),
        },
        step_ms,
        results,
        failed,
        template,
    })
}

/// Runs `paper_eval`.
pub fn run(ctx: &Ctx, plan: &EvalPlan) -> Result<Outcome, String> {
    let (passes, clock) = ctx.pass_loop(|i| run_pass(ctx, plan, i))?;
    let template = passes[0].template.clone();
    let mut out = Outcome::default();
    let measured = &passes[1..];
    let times: Vec<PassTime> = measured.iter().map(|p| p.time).collect();
    let steps: Vec<Vec<f64>> = measured
        .iter()
        .filter(|p| !p.time.traced)
        .map(|p| p.step_ms.clone())
        .collect();
    common::host_metrics(&mut out, &times, &steps, &clock, ctx.slowdown());
    common::setup_metric(&mut out, &times, ctx.slowdown(), || {
        let watch = Stopwatch::start();
        setup(plan, ctx.untraced(), 0)?;
        Ok(watch.elapsed_s())
    })?;

    let first = &passes[0].results;
    out.attempted = (plan.schemes.len() * passes.len()) as u64;
    for p in &passes {
        out.failed += p.failed;
        // Evaluation is deterministic: every pass must agree exactly.
        out.failed += p.results.iter().zip(first).filter(|(a, b)| a != b).count() as u64;
    }

    let ppls: Vec<f64> = first.iter().map(|r| r.ppl).collect();
    out.set("ppl_geomean", stats::geomean(&ppls).unwrap_or(0.0));
    let mut digest = Digest::default();
    let mut requests = Vec::new();
    for r in first {
        digest.push(r.ppl.to_bits());
        match &r.sim {
            Some((prefill, decode)) => {
                eprintln!(
                    "perfbench: {} ppl={} prefill_ms={} decode_ms={}",
                    r.scheme,
                    r.ppl,
                    prefill.runtime_ms(r.clock_ghz),
                    decode.runtime_ms(r.clock_ghz)
                );
                digest.push(prefill.total_cycles());
                digest.push(decode.total_cycles());
                requests.push(RequestSim {
                    served: true,
                    ttft_ms: prefill.runtime_ms(r.clock_ghz),
                    tpot_ms: Some(decode.runtime_ms(r.clock_ghz)),
                });
            }
            // A scheme with no hardware mapping cannot be served: it
            // counts against goodput like a rejected request.
            None => requests.push(RequestSim {
                served: false,
                ttft_ms: 0.0,
                tpot_ms: None,
            }),
        }
    }
    common::request_sim_metrics(&mut out, &requests, &plan.slo);
    let paper = first
        .iter()
        .find(|r| r.scheme == SchemeSpec::Bbfp(4, 2))
        .ok_or("the lineup lacks BBFP(4,2)")?;
    out.set("ppl_bbfp42", paper.ppl);
    let (prefill, decode) = paper.sim.as_ref().ok_or("BBFP(4,2) did not simulate")?;
    out.set("sim_prefill_ms", prefill.runtime_ms(paper.clock_ghz));
    let decode_ms = decode.runtime_ms(paper.clock_ghz);
    out.set("sim_tokens_per_s", 1.0e3 / decode_ms);
    out.set("sim_energy_uj_per_token", decode.energy.total_pj() / 1.0e6);
    eprintln!(
        "perfbench: passes={} prefill_len={} decode_context={} digest={}",
        passes.len(),
        plan.prefill_len,
        plan.decode_context,
        digest.hex()
    );

    if ctx.trace {
        let traced = passes.iter().filter(|p| p.time.traced).count();
        let spans = ctx.spans();
        let totals = common::traced_totals(&spans, traced);
        let ms = |name: &str| totals.by_name_ms.get(name).copied().unwrap_or(0.0);
        out.set("session.resolve_model_ms", ms("session.resolve_model"));
        out.set(
            "session.evaluate_ms",
            common::mean_span_ms(&spans, "session.evaluate"),
        );
        common::set_self_times(&mut out, &totals);
        out.set(
            "accel.simulate_prefill_ms",
            common::mean_span_ms(&spans, "accel.simulate_prefill"),
        );
        out.set(
            "accel.simulate_decode_us",
            common::mean_span_ms(&spans, "accel.simulate_decode") * 1.0e3,
        );
        out.set("accel.prefill_cycles", prefill.total_cycles() as f64);
        out.set("accel.decode_cycles", decode.total_cycles() as f64);
        let rec = ctx.rec_once();
        let _probe = rec.span("bench.probe", 0);
        let session = template
            .scheme_spec(SchemeSpec::Bbfp(4, 2))
            .build()
            .map_err(err)?;
        let hidden = session.model_spec().hidden;
        probes::hooks(
            rec,
            &session,
            plan.eval_seq_len,
            hidden,
            plan.eval_seq_len,
            &mut out,
        );
    }
    Ok(out)
}
