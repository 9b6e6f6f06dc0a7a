//! Runner of the single-runtime serving workloads (`decode_long`,
//! `prefix_rag`).
//!
//! A pass is one cold set-up — resolve the model, prepare every scheme
//! the trace uses, build the `ServeRuntime`, open a run and submit the
//! whole trace (scheme-affinity pre-warms sessions in `submit`) — then
//! `step` until the trace is served, then `finish`. Every pass builds
//! afresh, so passes are identical and their reports must be equal.
//! After a warm-up pass that the host metrics skip, passes repeat for
//! `--seconds` of host time.

use crate::common::{self, Ctx, Digest, PassTime, RequestSim};
use crate::host::Stopwatch;
use crate::metrics::Outcome;
use crate::probes::{self, KernelShapes};
use crate::recorder::Recorder;
use crate::stats;
use crate::workloads::{ServePlan, MODEL, SERVE_EVAL};
use bbal_core::SchemeSpec;
use bbal_llm::PrefixStats;
use bbal_serve::{GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
use bbal_session::SessionBuilder;
use std::collections::{BTreeMap, HashMap};

/// Host time of one `ServeRuntime::step`, and what it ran.
#[derive(Debug, Clone, Copy)]
struct Step {
    ms: f64,
    kind: StepKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// A tick that advanced at least one prompt chunk.
    Prefill,
    /// A tick of decode steps only.
    Decode,
    /// No tick: the clock jumped to the next arrival, or the run was
    /// already done.
    Idle,
}

struct Pass {
    time: PassTime,
    steps: Vec<Step>,
    report: ServeReport,
    prefix: PrefixStats,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Cold set-up up to the first `step`: returns a runtime with the whole
/// trace submitted.
fn setup(plan: &ServePlan, rec: &Recorder, id: u64) -> Result<ServeRuntime, String> {
    let _setup = rec.span("bench.setup", id);
    let template = rec
        .time("session.resolve_model", id, || {
            SessionBuilder::new().model(MODEL).resolve_model()
        })
        .map_err(err)?;
    // Prepared weights are cached per builder and shared by its
    // clones, so the runtime's pool reuses these.
    for &scheme in &plan.schemes {
        rec.time("session.prepare", id, || {
            template.clone().scheme_spec(scheme).build().map(|mut s| {
                s.prepare();
            })
        })
        .map_err(err)?;
    }
    let mut runtime = rec
        .time("serve.new", id, || {
            ServeRuntime::new(template.clone(), plan.config)
        })
        .map_err(err)?;
    rec.time("serve.begin", id, || runtime.begin())
        .map_err(err)?;
    for (i, r) in plan.requests.iter().enumerate() {
        rec.time("serve.submit", i as u64, || runtime.submit(r))
            .map_err(err)?;
    }
    Ok(runtime)
}

fn run_pass(ctx: &Ctx, plan: &ServePlan, pass: usize) -> Result<Pass, String> {
    let rec = ctx.rec(pass);
    let id = pass as u64;
    let setup_watch = Stopwatch::start();
    let mut runtime = setup(plan, rec, id)?;
    let setup_s = setup_watch.elapsed_s();

    let run_watch = Stopwatch::start();
    let mut raw: Vec<(u64, f64)> = Vec::new();
    let mut gauge_s = 0.0;
    let report = {
        let _pass = rec.span("bench.pass", id);
        loop {
            let before = runtime.sim_now();
            let t = Stopwatch::start();
            let more = rec.time("serve.step", id, || runtime.step()).map_err(err)?;
            raw.push((before, t.elapsed_s() * 1.0e3));
            if !more {
                break;
            }
            gauge_s += ctx.gauge(pass);
        }
        rec.time("serve.finish", id, || runtime.finish())
            .map_err(err)?
    };
    let run_s = run_watch.elapsed_s() - gauge_s;

    // A step that ran a tick started it at the clock it saw; tick start
    // times are unique because every tick advances the clock.
    let ticks: HashMap<u64, usize> = report
        .ticks
        .iter()
        .map(|t| (t.start_cycles, t.prefill_tokens))
        .collect();
    let steps = raw
        .into_iter()
        .map(|(before, ms)| Step {
            ms,
            kind: match ticks.get(&before) {
                Some(&prefill) if prefill > 0 => StepKind::Prefill,
                Some(_) => StepKind::Decode,
                None => StepKind::Idle,
            },
        })
        .collect();
    Ok(Pass {
        time: PassTime {
            setup_s,
            run_s,
            tokens: report.generated_tokens() as f64,
            traced: ctx.pass_traced(pass),
        },
        steps,
        prefix: runtime.kv_arena().prefix_stats(),
        report,
    })
}

/// Runs a serving workload.
pub fn run(ctx: &Ctx, plan: &ServePlan) -> Result<Outcome, String> {
    let (passes, clock) = ctx.pass_loop(|i| run_pass(ctx, plan, i))?;
    let mut out = Outcome::default();
    let measured = &passes[1..];
    let times: Vec<PassTime> = measured.iter().map(|p| p.time).collect();
    let untraced_steps: Vec<Vec<f64>> = measured
        .iter()
        .filter(|p| !p.time.traced)
        .map(|p| {
            p.steps
                .iter()
                .filter(|s| s.kind != StepKind::Idle)
                .map(|s| s.ms)
                .collect()
        })
        .collect();
    common::host_metrics(&mut out, &times, &untraced_steps, &clock, ctx.slowdown());
    common::setup_metric(&mut out, &times, ctx.slowdown(), || {
        let watch = Stopwatch::start();
        let mut runtime = setup(plan, ctx.untraced(), 0)?;
        let secs = watch.elapsed_s();
        runtime.finish().map_err(err)?;
        Ok(secs)
    })?;

    let first = &passes[0];
    let report = &first.report;
    let n = plan.requests.len() as u64;
    out.attempted = n * passes.len() as u64;
    // A request fails if it was rejected or came back short. Passes are
    // identical by construction (same trace, fresh runtime), so a pass
    // whose report — tokens, ticks, simulated cycles and energy —
    // differs from the first fails every request.
    for p in &passes {
        let diverged = p.report != *report;
        for (r, req) in p.report.requests.iter().zip(&plan.requests) {
            if diverged || r.rejected.is_some() || r.tokens.len() != req.max_new_tokens {
                out.failed += 1;
            }
        }
    }
    // A fresh template for the lone check, perplexity and probes: the
    // passes dropped theirs, so peak memory does not grow with the
    // number of passes that fit in the run.
    let template = SessionBuilder::new()
        .model(MODEL)
        .resolve_model()
        .map_err(err)?;
    out.failed += check_against_lone(ctx, plan, &template, report)?;

    serve_sim_metrics(&mut out, plan, report);
    let prompts = plan.requests.iter().map(|r| (r.scheme, r.prompt.len()));
    quality_and_prefill(ctx, &template, &plan.schemes, prompts, &mut out)?;

    let mut digest = Digest::default();
    for r in &report.requests {
        digest.push(r.id as u64);
        for &t in &r.tokens {
            digest.push(t as u64);
        }
    }
    eprintln!(
        "perfbench: passes={} steps={} digest={}",
        passes.len(),
        first.steps.len(),
        digest.hex()
    );

    if ctx.trace {
        layer_metrics(ctx, plan, &passes, &template, &mut out)?;
    }
    Ok(out)
}

/// Regenerates the sampled requests through a lone `Session::generate`
/// with the runtime's scheme and KV settings; returns the mismatches.
/// Batched serving — with chunking, preemption replay and prefix
/// adoption — must reproduce the lone tokens exactly.
fn check_against_lone(
    ctx: &Ctx,
    plan: &ServePlan,
    template: &SessionBuilder,
    report: &ServeReport,
) -> Result<u64, String> {
    let rec = ctx.rec_once();
    let _check = rec.span("bench.check", 0);
    let mut failed = 0;
    for &i in &plan.check {
        let req = &plan.requests[i];
        let mut session = template
            .clone()
            .scheme_spec(req.scheme)
            .kv_quant(plan.config.kv_quant)
            .kv_packed(plan.config.kv_packed)
            .build()
            .map_err(err)?;
        let lone = rec
            .time("session.generate", i as u64, || {
                session.generate(&req.prompt, req.max_new_tokens)
            })
            .map_err(err)?;
        if lone != report.requests[i].tokens {
            eprintln!("perfbench: request {i} differs from its lone generation");
            failed += 1;
        }
    }
    Ok(failed)
}

/// Simulated serving metrics of one pass's report.
fn serve_sim_metrics(out: &mut Outcome, plan: &ServePlan, report: &ServeReport) {
    out.set("sim_tokens_per_s", report.sim_tokens_per_s());
    let tokens = report.generated_tokens().max(1) as f64;
    out.set(
        "sim_energy_uj_per_token",
        report.total_energy_pj() / 1.0e6 / tokens,
    );
    let per_ms = report.cycles_to_ms(1);
    let requests: Vec<RequestSim> = report
        .requests
        .iter()
        .map(|r| RequestSim {
            served: r.rejected.is_none() && !r.tokens.is_empty(),
            ttft_ms: report.cycles_to_ms(r.ttft_cycles()),
            tpot_ms: (r.tokens.len() >= 2).then(|| r.tpot_cycles() * per_ms),
        })
        .collect();
    common::request_sim_metrics(out, &requests, &plan.slo);
}

/// Perplexity of every served scheme on an eval set drawn from the
/// seed, and the mean simulated lone prefill of the trace's
/// `(scheme, prompt length)` pairs.
pub fn quality_and_prefill(
    ctx: &Ctx,
    template: &SessionBuilder,
    schemes: &[SchemeSpec],
    prompts: impl Iterator<Item = (SchemeSpec, usize)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = ctx.rec_once();
    let _q = rec.span("bench.quality", 0);
    let (sequences, len) = SERVE_EVAL;
    let mut ppls = Vec::new();
    let mut sessions = BTreeMap::new();
    for &scheme in schemes {
        let session = template
            .clone()
            .scheme_spec(scheme)
            .eval_set(sequences, len, ctx.seed)
            .build()
            .map_err(err)?;
        let ppl = rec.time("session.evaluate", 0, || session.evaluate()).ppl;
        if scheme == SchemeSpec::Bbfp(4, 2) {
            out.set("ppl_bbfp42", ppl);
        }
        ppls.push(ppl);
        sessions.insert(scheme, session);
    }
    out.set("ppl_geomean", stats::geomean(&ppls).unwrap_or(0.0));
    // Each distinct (scheme, prompt length) is simulated once.
    let mut cache: BTreeMap<(SchemeSpec, usize), f64> = BTreeMap::new();
    let mut total = 0.0;
    let mut count = 0usize;
    for (scheme, len) in prompts {
        let ms = match cache.get(&(scheme, len)) {
            Some(&ms) => ms,
            None => {
                let session = &sessions[&scheme];
                let sim = rec
                    .time("accel.simulate_prefill", len as u64, || {
                        session.simulate_prefill(len)
                    })
                    .map_err(err)?;
                let ms = sim.runtime_ms(session.clock_ghz());
                cache.insert((scheme, len), ms);
                ms
            }
        };
        total += ms;
        count += 1;
    }
    out.set("sim_prefill_ms", total / count.max(1) as f64);
    Ok(())
}

/// Per-layer metrics of the traced run.
fn layer_metrics(
    ctx: &Ctx,
    plan: &ServePlan,
    passes: &[Pass],
    template: &SessionBuilder,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.time.traced).collect();
    let spans = ctx.spans();
    let totals = common::traced_totals(&spans, traced.len());
    let ms = |name: &str| totals.by_name_ms.get(name).copied().unwrap_or(0.0);
    out.set("session.resolve_model_ms", ms("session.resolve_model"));
    out.set("session.prepare_ms", ms("session.prepare"));
    out.set(
        "session.evaluate_ms",
        common::mean_span_ms(&spans, "session.evaluate"),
    );
    out.set("serve.new_s", ms("serve.new") / 1.0e3);
    out.set("serve.submit_ms", ms("serve.submit"));
    let n = traced.len().max(1) as f64;
    let step_sum = |kind: StepKind| -> f64 {
        traced
            .iter()
            .flat_map(|p| &p.steps)
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .sum::<f64>()
            / n
    };
    out.set("serve.step_prefill_ms", step_sum(StepKind::Prefill));
    out.set("serve.step_decode_ms", step_sum(StepKind::Decode));
    common::set_self_times(out, &totals);

    let first = &passes[0];
    out.set("serve.steps", first.steps.len() as f64);
    let idle = first
        .steps
        .iter()
        .filter(|s| s.kind == StepKind::Idle)
        .count();
    out.set("serve.idle_steps", idle as f64);
    report_counters(out, &[&first.report]);
    out.set("kv.prefix_hits", first.prefix.hits as f64);
    out.set("kv.prefix_misses", first.prefix.misses as f64);
    out.set("kv.prefix_evictions", first.prefix.evictions as f64);
    let requests: Vec<&GenerateRequest> = plan.requests.iter().collect();
    layer_probes(ctx, template, &plan.config, &requests, out)
}

/// Scheduler and KV counters over one or more runtimes' reports:
/// counts and bytes are summed, peaks are the largest, and occupancy,
/// fused rows and page reuse are taken over every tick and request of
/// all of them (for one report, exactly the report's own figures).
pub fn report_counters(out: &mut Outcome, reports: &[&ServeReport]) {
    let sum = |f: &dyn Fn(&ServeReport) -> f64| -> f64 { reports.iter().map(|r| f(r)).sum() };
    let max = |f: &dyn Fn(&ServeReport) -> f64| -> f64 {
        reports.iter().map(|r| f(r)).fold(0.0, f64::max)
    };
    let ticks = || reports.iter().flat_map(|r| &r.ticks);
    let cycles: f64 = ticks().map(|t| t.tick_cycles as f64).sum();
    let weighted = |f: &dyn Fn(&bbal_serve::TickTrace) -> f64| -> f64 {
        let w: f64 = ticks().map(|t| f(t) * t.tick_cycles as f64).sum();
        if cycles > 0.0 {
            w / cycles
        } else {
            0.0
        }
    };
    out.set("serve.batch_occupancy", weighted(&|t| t.active as f64));
    // Ticks with no scheme ran nothing and carry no GEMM.
    let fused_cycles: f64 = ticks()
        .filter(|t| !t.schemes.is_empty())
        .map(|t| t.tick_cycles as f64)
        .sum();
    let fused: f64 = ticks()
        .filter(|t| !t.schemes.is_empty())
        .map(|t| {
            (t.prefill_tokens + t.decode_steps) as f64 / t.schemes.len() as f64
                * t.tick_cycles as f64
        })
        .sum();
    out.set(
        "serve.fused_rows_per_gemm",
        if fused_cycles > 0.0 {
            fused / fused_cycles
        } else {
            0.0
        },
    );
    out.set(
        "serve.scheme_switches",
        sum(&|r| r.scheme_switches() as f64),
    );
    out.set(
        "serve.passed_over_ticks",
        sum(&|r| r.requests.iter().map(|q| q.passed_over_ticks as f64).sum()),
    );
    out.set("serve.preemptions", sum(&|r| r.preemptions as f64));
    out.set("serve.rejected", sum(&|r| r.rejected().count() as f64));
    out.set("serve.sessions_built", sum(&|r| r.sessions_built as f64));
    out.set("serve.sessions_reused", sum(&|r| r.sessions_reused as f64));
    // Reuse: adopted prompt pages over all prompt pages, as
    // `ServeReport::kv_page_reuse_ratio` computes it per report.
    let adopted = sum(&|r| {
        r.served()
            .map(|q| (q.shared_prefix_tokens / r.kv_page_tokens) as f64)
            .sum()
    });
    let pages = sum(&|r| {
        r.served()
            .map(|q| q.prompt_len.div_ceil(r.kv_page_tokens) as f64)
            .sum()
    });
    out.set(
        "kv.page_reuse_ratio",
        if pages > 0.0 { adopted / pages } else { 0.0 },
    );
    out.set(
        "kv.shared_prefix_tokens",
        sum(&|r| r.shared_prefix_tokens() as f64),
    );
    out.set("kv.peak_pages", max(&|r| r.peak_kv_pages as f64));
    out.set("kv.peak_bytes", max(&|r| r.peak_kv_bytes as f64));
    out.set("kv.read_bytes", sum(&|r| r.kv_read_bytes as f64));
    out.set("kv.write_bytes", sum(&|r| r.kv_write_bytes as f64));
}

/// Kernel, hook and simulator probes through a BBFP(4,2) session of
/// `template`, at the shapes `config` runs `requests` at: decode GEMMs
/// of `max_batch` rows, prefill GEMMs of one `prefill_chunk`, and
/// attention over the requests' mean context (prompt plus half the
/// output).
pub fn layer_probes(
    ctx: &Ctx,
    template: &SessionBuilder,
    config: &ServeConfig,
    requests: &[&GenerateRequest],
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = ctx.rec_once();
    let _probe = rec.span("bench.probe", 0);
    let mut session = template
        .clone()
        .scheme_spec(SchemeSpec::Bbfp(4, 2))
        .build()
        .map_err(err)?;
    session.prepare();
    let model = session.model_spec();
    let mean = |f: &dyn Fn(&GenerateRequest) -> usize| {
        stats::mean(&requests.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
            .round()
            .max(1.0) as usize
    };
    let shapes = KernelShapes {
        hidden: model.hidden,
        head_dim: model.head_dim(),
        decode_rows: config.max_batch,
        prefill_rows: config.prefill_chunk,
        context: mean(&|r| r.prompt.len() + r.max_new_tokens / 2),
    };
    probes::kernels(rec, &session, shapes, out);
    probes::hooks(
        rec,
        &session,
        shapes.decode_rows,
        shapes.hidden,
        shapes.context,
        out,
    );
    probes::accel(
        rec,
        &session,
        mean(&|r| r.prompt.len()),
        shapes.context,
        out,
    )
}
