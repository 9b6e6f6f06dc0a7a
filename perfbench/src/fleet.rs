//! Runner of `fleet_bursty`.
//!
//! A pass builds a fresh `Fleet` of identical replicas and warms it —
//! replicas admit first-come-first-served and would otherwise prepare
//! each scheme lazily inside the first burst — then serves the bursts
//! one `Fleet::serve` call each. The burst call is the fleet's step.

use crate::common::{self, Ctx, Digest, PassTime, RequestSim};
use crate::host::Stopwatch;
use crate::metrics::Outcome;
use crate::probes;
use crate::recorder::Recorder;
use crate::serving;
use crate::stats;
use crate::workloads::{FleetPlan, MODEL};
use bbal_fleet::{Fleet, FleetReport, ReplicaSpec, RoutePolicy};
use bbal_serve::{GenerateRequest, ServeReport};
use bbal_session::SessionBuilder;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Pass {
    time: PassTime,
    burst_ms: Vec<f64>,
    reports: Vec<FleetReport>,
}

/// One tiny request per (scheme, replica), all due at cycle 0 in
/// scheme-major order: least-loaded routing breaks the all-idle tie by
/// index and every submission deepens one queue, so consecutive
/// requests land on consecutive replicas and every replica prepares
/// every scheme.
fn warmup(plan: &FleetPlan) -> Vec<GenerateRequest> {
    plan.schemes
        .iter()
        .flat_map(|&s| {
            (0..plan.replicas).map(move |_| GenerateRequest::new(vec![1, 2, 3], 1).scheme(s))
        })
        .collect()
}

/// Builds and warms a fleet.
fn setup(plan: &FleetPlan, rec: &Recorder, id: u64) -> Result<Fleet, String> {
    let _setup = rec.span("bench.setup", id);
    let specs = (0..plan.replicas)
        .map(|i| ReplicaSpec::new(format!("r{i}"), MODEL).with_config(plan.config))
        .collect();
    let mut fleet = rec
        .time("fleet.new", id, || {
            Fleet::new(specs, RoutePolicy::LeastLoaded)
        })
        .map_err(err)?;
    rec.time("fleet.warmup", id, || fleet.serve(&warmup(plan)))
        .map_err(err)?;
    Ok(fleet)
}

fn run_pass(ctx: &Ctx, plan: &FleetPlan, pass: usize) -> Result<Pass, String> {
    let rec = ctx.rec(pass);
    let id = pass as u64;
    let setup_watch = Stopwatch::start();
    let mut fleet = setup(plan, rec, id)?;
    let setup_s = setup_watch.elapsed_s();
    let run_watch = Stopwatch::start();
    let mut burst_ms = Vec::with_capacity(plan.bursts.len());
    let mut reports = Vec::with_capacity(plan.bursts.len());
    let mut gauge_s = 0.0;
    {
        let _pass = rec.span("bench.pass", id);
        for (b, burst) in plan.bursts.iter().enumerate() {
            let t = Stopwatch::start();
            let report = rec
                .time("fleet.serve", b as u64, || fleet.serve(burst))
                .map_err(err)?;
            burst_ms.push(t.elapsed_s() * 1.0e3);
            reports.push(report);
            gauge_s += ctx.gauge(pass);
        }
    }
    let run_s = run_watch.elapsed_s() - gauge_s;
    let tokens: usize = reports.iter().map(FleetReport::generated_tokens).sum();
    Ok(Pass {
        time: PassTime {
            setup_s,
            run_s,
            tokens: tokens as f64,
            traced: ctx.pass_traced(pass),
        },
        burst_ms,
        reports,
    })
}

/// Tokens of every request in burst-concatenation order.
fn tokens_in_order(plan: &FleetPlan, reports: &[FleetReport]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (burst, report) in plan.bursts.iter().zip(reports) {
        // Bursts are arrival-sorted, so `assignments` follows the burst.
        for (pos, _) in burst.iter().enumerate() {
            let (replica, local) = report.assignments[pos];
            out.push(
                report.replicas[replica].report.requests[local]
                    .tokens
                    .clone(),
            );
        }
    }
    out
}

/// Runs `fleet_bursty`.
pub fn run(ctx: &Ctx, plan: &FleetPlan) -> Result<Outcome, String> {
    let (passes, clock) = ctx.pass_loop(|i| run_pass(ctx, plan, i))?;
    let mut out = Outcome::default();
    let measured = &passes[1..];
    let times: Vec<PassTime> = measured.iter().map(|p| p.time).collect();
    let untraced_bursts: Vec<Vec<f64>> = measured
        .iter()
        .filter(|p| !p.time.traced)
        .map(|p| p.burst_ms.clone())
        .collect();
    common::host_metrics(&mut out, &times, &untraced_bursts, &clock, ctx.slowdown());
    common::setup_metric(&mut out, &times, ctx.slowdown(), || {
        let watch = Stopwatch::start();
        setup(plan, ctx.untraced(), 0)?;
        Ok(watch.elapsed_s())
    })?;

    let requests: Vec<&GenerateRequest> = plan.bursts.iter().flatten().collect();
    let first = &passes[0];
    let expected = tokens_in_order(plan, &first.reports);
    out.attempted = (requests.len() * passes.len()) as u64;
    for p in &passes {
        let rejected: usize = p.reports.iter().map(FleetReport::rejected).sum();
        out.failed += rejected as u64;
        for ((tokens, want), req) in tokens_in_order(plan, &p.reports)
            .iter()
            .zip(&expected)
            .zip(&requests)
        {
            if tokens != want || tokens.len() != req.max_new_tokens {
                out.failed += 1;
            }
        }
    }

    // A template of the replicas' model for the lone check, perplexity
    // and simulated prefill, built outside the timed loop.
    let template = SessionBuilder::new()
        .model(MODEL)
        .resolve_model()
        .map_err(err)?;
    {
        let rec = ctx.rec_once();
        let _check = rec.span("bench.check", 0);
        for &i in &plan.check {
            let req = requests[i];
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
            if lone != expected[i] {
                eprintln!("perfbench: request {i} differs from its lone generation");
                out.failed += 1;
            }
        }
    }

    fleet_sim_metrics(&mut out, plan, &first.reports);
    let prompts = requests.iter().map(|r| (r.scheme, r.prompt.len()));
    serving::quality_and_prefill(ctx, &template, &plan.schemes, prompts, &mut out)?;

    let mut digest = Digest::default();
    for tokens in &expected {
        digest.push(tokens.len() as u64);
        for &t in tokens {
            digest.push(t as u64);
        }
    }
    eprintln!(
        "perfbench: passes={} bursts={} digest={}",
        passes.len(),
        plan.bursts.len(),
        digest.hex()
    );

    if ctx.trace {
        layer_metrics(ctx, plan, &passes, &template, &mut out)?;
    }
    Ok(out)
}

/// Simulated metrics over every burst of one pass: throughput is all
/// tokens over the bursts' summed makespans.
fn fleet_sim_metrics(out: &mut Outcome, plan: &FleetPlan, reports: &[FleetReport]) {
    let tokens: usize = reports.iter().map(FleetReport::generated_tokens).sum();
    let makespan_s: f64 = reports.iter().map(|r| r.makespan_ms() / 1.0e3).sum();
    out.set(
        "sim_tokens_per_s",
        tokens as f64 / makespan_s.max(f64::MIN_POSITIVE),
    );
    let energy_pj: f64 = reports
        .iter()
        .flat_map(|f| &f.replicas)
        .map(|r| r.report.total_energy_pj())
        .sum();
    out.set(
        "sim_energy_uj_per_token",
        energy_pj / 1.0e6 / tokens.max(1) as f64,
    );
    let mut requests = Vec::new();
    for f in reports {
        for &(replica, local) in &f.assignments {
            let report = &f.replicas[replica].report;
            let r = &report.requests[local];
            requests.push(RequestSim {
                served: r.rejected.is_none() && !r.tokens.is_empty(),
                ttft_ms: report.cycles_to_ms(r.ttft_cycles()),
                tpot_ms: (r.tokens.len() >= 2).then(|| r.tpot_cycles() * report.cycles_to_ms(1)),
            });
        }
    }
    common::request_sim_metrics(out, &requests, &plan.slo);
}

fn layer_metrics(
    ctx: &Ctx,
    plan: &FleetPlan,
    passes: &[Pass],
    template: &SessionBuilder,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced = passes.iter().filter(|p| p.time.traced).count();
    let spans = ctx.spans();
    let totals = common::traced_totals(&spans, traced);
    let ms = |name: &str| totals.by_name_ms.get(name).copied().unwrap_or(0.0);
    out.set(
        "session.evaluate_ms",
        common::mean_span_ms(&spans, "session.evaluate"),
    );
    out.set("fleet.new_s", ms("fleet.new") / 1.0e3);
    out.set("fleet.serve_s", ms("fleet.serve") / 1.0e3);
    common::set_self_times(out, &totals);

    // Replica counters over every burst of the first pass.
    let reports = &passes[0].reports;
    let replica_reports: Vec<&ServeReport> = reports
        .iter()
        .flat_map(|f| f.replicas.iter().map(|s| &s.report))
        .collect();
    serving::report_counters(out, &replica_reports);

    // Routing balance: the busiest replica's share of the requests, and
    // the gap between the most and least occupied replica.
    let mut routed = vec![0usize; plan.replicas];
    let mut occupancy = vec![Vec::new(); plan.replicas];
    for f in reports {
        for (i, slice) in f.replicas.iter().enumerate() {
            routed[i] += slice.routed;
            occupancy[i].push(slice.occupancy());
        }
    }
    let total: usize = routed.iter().sum();
    let busiest = routed.iter().copied().max().unwrap_or(0);
    out.set(
        "fleet.routed_max_share",
        busiest as f64 / total.max(1) as f64,
    );
    let occ: Vec<f64> = occupancy.iter().map(|o| stats::mean(o)).collect();
    let hi = occ.iter().copied().fold(f64::MIN, f64::max);
    let lo = occ.iter().copied().fold(f64::MAX, f64::min);
    out.set("fleet.occupancy_spread", hi - lo);

    probes::route(ctx.rec_once(), plan.replicas, out);
    let requests: Vec<&GenerateRequest> = plan.bursts.iter().flatten().collect();
    serving::layer_probes(ctx, template, &plan.config, &requests, out)
}
