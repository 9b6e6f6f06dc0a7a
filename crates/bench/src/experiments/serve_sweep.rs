//! Serving sweep (beyond the paper): the `bbal-serve` continuous-batching
//! runtime and the `bbal-fleet` replica fleet under multi-user traffic,
//! where the paper's Tables IV/V cost one request at a time.
//!
//! The sweep is a table of six sections, `SECTIONS`; one runner times
//! each and records it as the `results/BENCH_serve.json` scenario of its
//! name. The four serve sections are tables of `Row`s: a lineup label,
//! a [`ServeConfig`], a trace and the row whose run is the speedup and
//! identity baseline. Rows measured against each other serve the same
//! trace, so the `identical` column asserts bit-identical per-request
//! outputs. A `Field` is one table column or JSON field, defined once;
//! one JSON writer, `obj`, writes every row to
//! `results/serve_sweep.json`.

use crate::util::{fmt1, fmt2, fmt3, fmt4, print_table, to_io};
use bbal_accel::AcceleratorConfig;
use bbal_arith::GateLibrary;
use bbal_core::SchemeSpec;
use bbal_fleet::{
    ArrivalProcess, Fleet, FleetReport, LengthDistribution, ReplicaSlice, ReplicaSpec, RoutePolicy,
    SloBudget, TraceConfig,
};
use bbal_llm::{zoo, KvBudget};
use bbal_mem::KvFootprint;
use bbal_serve::{AdmissionPolicy, GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
use bbal_session::SessionBuilder;
use std::io::{self, Write};
use std::time::Instant;

const MODEL: &str = "Llama-7B";
const REQUESTS: usize = 24;
const MAX_NEW: usize = 16;
const ARRIVAL_SPACING: u64 = 5_000_000;
const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];
/// Aging bound of the scheme-affinity rows: a queued request may be
/// passed over at most this many slot-available ticks.
const MAX_WAIT_TICKS: u64 = 16;
const AFFINITY: AdmissionPolicy = AdmissionPolicy::SchemeAffinity {
    max_wait_ticks: MAX_WAIT_TICKS,
};
const FCFS: AdmissionPolicy = AdmissionPolicy::Fcfs;
/// The mixed 3-scheme lineup of the policy and memory sweeps.
const MIXED: [SchemeSpec; 3] = [
    SchemeSpec::BBAL_PAPER,
    SchemeSpec::Bfp(4),
    SchemeSpec::Oltron,
];
/// System-prompt length of the shared-prefix scenario: four full
/// 16-token KV pages that every follower can adopt.
const SHARED_PREFIX: usize = 64;
const FLEET_REQUESTS: usize = 48;
const FLEET_SEED: u64 = 7;
/// Mean arrival gap of the saturating fleet workload, in cycles: far
/// below a request's service time, so one replica is always backlogged.
const SATURATING_GAP: f64 = 100_000.0;
/// Mean arrival gap of the moderate fleet workload, in cycles: at ~2.7
/// Gcycles of batched service per request, about nine requests are in
/// flight fleet-wide, so a narrow replica backlogs while a batch-8 one
/// still has slack.
const MODERATE_GAP: f64 = 300_000_000.0;
/// Diurnal period of the bursty arrivals, in cycles: the moderate trace
/// spans about 1.8 periods, a burst crest and a trough.
const BURSTY_PERIOD: u64 = 20_000_000_000;
/// The per-class fleet goodput deadline, in simulated milliseconds.
const FLEET_SLO: SloBudget = SloBudget {
    ttft_ms: 20_000.0,
    tpot_ms: 2_000.0,
};
/// BBFP(4,2) against one point of each algebra-derived family at
/// comparable equivalent bit-width.
const FAMILY_IDS: [&str; 4] = ["bbfp:4,2", "mx:8,4,2", "msfp:4,16", "blockmf:4,3,8"];

/// A section of the sweep: it serves, prints its table and returns the
/// tokens it generated.
type Section = fn(&mut Sweep) -> io::Result<usize>;

/// The sweep in run order, each section under its scenario name.
const SECTIONS: [(&str, Section); 6] = [
    ("batch_sweep", batch_sweep),
    ("memory_pressure", memory_pressure),
    ("packed_kv_pressure", packed_kv_pressure),
    ("shared_prompt", shared_prompt),
    ("fleet", fleet),
    ("format_family", format_family),
];

/// The `results/serve_sweep.json` arrays, indexed by [`Record::ARRAY`].
const ARRAYS: [&str; 3] = ["configs", "fleet", "format_family"];

/// Every run's scheduler settings (prefill chunk 16, two workers) at a
/// batch budget and admission policy.
fn config(max_batch: usize, admission: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        max_batch,
        prefill_chunk: 16,
        workers: 2,
        admission,
        ..ServeConfig::default()
    }
}

/// Serves `trace` on the `MODEL` stand-in under `config`. Each request
/// carries its own scheme; the template's is BBFP(4,2).
fn serve(config: ServeConfig, trace: &[GenerateRequest]) -> io::Result<ServeReport> {
    let template = SessionBuilder::new().model(MODEL).scheme("bbfp:4,2");
    let mut runtime = ServeRuntime::new(template, config).map_err(to_io)?;
    runtime.serve(trace).map_err(to_io)
}

/// A deterministic multi-user trace: varying prompt lengths, staggered
/// arrivals, schemes assigned round-robin from `schemes`.
fn trace(schemes: &[SchemeSpec]) -> Vec<GenerateRequest> {
    (0..REQUESTS)
        .map(|i| {
            let len = 8 + (i * 5) % 16;
            let prompt: Vec<usize> = (0..len).map(|t| (13 * i + 7 * t + 3) % 256).collect();
            GenerateRequest::new(prompt, MAX_NEW)
                .scheme(schemes[i % schemes.len()])
                .arriving_at(i as u64 * ARRIVAL_SPACING)
        })
        .collect()
}

/// Every request opens with the same system prompt and appends a
/// distinct 8-token user suffix, so only the prefix blocks are shareable.
fn shared_trace() -> Vec<GenerateRequest> {
    let system: Vec<usize> = (0..SHARED_PREFIX).map(|t| (3 * t + 5) % 256).collect();
    (0..REQUESTS)
        .map(|i| {
            let mut prompt = system.clone();
            prompt.extend((0..8).map(|t| (17 * i + 7 * t + 11) % 256));
            GenerateRequest::new(prompt, MAX_NEW)
                .scheme(SchemeSpec::BBAL_PAPER)
                .arriving_at(i as u64 * ARRIVAL_SPACING)
        })
        .collect()
}

/// The fleet workload: the mixed lineup, weighted towards BBFP(4,2),
/// over the stand-in's 256-token vocab.
fn fleet_trace(arrivals: ArrivalProcess) -> Vec<GenerateRequest> {
    TraceConfig {
        requests: FLEET_REQUESTS,
        arrivals,
        prompt_len: LengthDistribution::Uniform { min: 8, max: 24 },
        output_len: LengthDistribution::Uniform { min: 8, max: 16 },
        schemes: vec![
            (SchemeSpec::BBAL_PAPER, 2.0),
            (SchemeSpec::Bfp(4), 1.0),
            (SchemeSpec::Oltron, 1.0),
        ],
        vocab: 256,
    }
    .generate(FLEET_SEED)
}

/// Serves `trace` under least-loaded routing on FCFS replicas at the
/// given batch budgets, named `r{i}` (`b{batch}-r{i}` if they differ).
fn run_fleet(batches: &[usize], trace: &[GenerateRequest]) -> io::Result<FleetReport> {
    let tagged = batches.iter().any(|&b| b != batches[0]);
    let mut specs = Vec::new();
    for (i, &b) in batches.iter().enumerate() {
        let name = if tagged {
            format!("b{b}-r{i}")
        } else {
            format!("r{i}")
        };
        specs.push(ReplicaSpec::new(name, MODEL).with_config(config(b, FCFS)));
    }
    let mut fleet = Fleet::new(specs, RoutePolicy::LeastLoaded).map_err(to_io)?;
    fleet.serve(trace).map_err(to_io)
}

fn identical_outputs(base: &ServeReport, report: &ServeReport) -> bool {
    base.requests
        .iter()
        .zip(&report.requests)
        .all(|(a, b)| a.tokens == b.tokens)
}

fn yes(identical: bool) -> String {
    if identical { "yes" } else { "NO" }.to_owned()
}

fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

/// An optional value, rendered or as `none`.
fn or(v: Option<impl ToString>, none: &str) -> String {
    v.map_or(none.to_owned(), |v| v.to_string())
}

/// A run's KV budget when it counts `unit` (`"page"` or `"byte"`),
/// else `none`.
fn budget_in(r: &Served, unit: &str, none: &str) -> String {
    let budget = r.config.kv_budget.filter(|b| b.unit() == unit);
    or(budget.map(KvBudget::limit), none)
}

/// Writes ordered `(key, rendered value)` pairs as a JSON object, on one
/// line or (`pretty`, for a file's top level) one field per line.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>, pretty: bool) -> String {
    let (open, colon, sep, close) = if pretty {
        ("{\n  ", ": ", ",\n  ", "\n}\n")
    } else {
        ("{", ":", ",", "}")
    };
    let field = |(k, v): (&str, String)| format!("\"{k}\"{colon}{v}");
    let fields: Vec<String> = fields.into_iter().map(field).collect();
    format!("{open}{}{close}", fields.join(sep))
}

/// A file's top-level JSON array, one record per line.
fn list(records: &[String]) -> String {
    format!("[\n    {}\n  ]", records.join(",\n    "))
}

/// Each row as the one-line JSON object of `fields`.
fn records<T>(fields: &[Field<T>], rows: &[T]) -> Vec<String> {
    let record = |r| obj(fields.iter().map(|(k, f)| (*k, f(r))), false);
    rows.iter().map(record).collect()
}

/// A table column or JSON field: its header or key, and how a row
/// renders into it.
type Field<T> = (&'static str, fn(&T) -> String);

/// A table row type: its `results/serve_sweep.json` array and fields,
/// and the tokens its runs generated.
trait Record: Sized + 'static {
    const ARRAY: usize;
    const JSON: &'static [Field<Self>];
    fn tokens(&self) -> usize;
}

/// The sweep's output so far.
struct Sweep<'w> {
    w: &'w mut dyn Write,
    /// The records of each of the [`ARRAYS`].
    records: [Vec<String>; 3],
    /// The batch sweep's mixed batch-8 affinity run, the memory sweep's
    /// unbounded reference (reports are deterministic: not served again).
    mixed_affinity8: Option<Served>,
}

impl Sweep<'_> {
    /// Prints `head`, the table of `cols` over `rows`, and `foot`.
    fn table<T>(
        &mut self,
        head: &str,
        cols: &[Field<T>],
        rows: &[T],
        foot: &str,
    ) -> io::Result<()> {
        let headers: Vec<&str> = cols.iter().map(|c| c.0).collect();
        let cells = |r| cols.iter().map(|c| c.1(r)).collect();
        let table: Vec<Vec<String>> = rows.iter().map(cells).collect();
        writeln!(self.w, "{head}\n")?;
        print_table(self.w, &headers, &table)?;
        write!(self.w, "{foot}")
    }

    /// Records the rows a section served and returns their tokens.
    fn record<T: Record>(&mut self, rows: &[T]) -> usize {
        self.records[T::ARRAY].extend(records(T::JSON, rows));
        rows.iter().map(T::tokens).sum()
    }
}

/// One row of a serve section: its lineup label, config, trace and the
/// index in its section of its speedup and identity baseline row.
struct Row(&'static str, ServeConfig, Vec<GenerateRequest>, usize);

/// A served row, measured against its baseline row.
#[derive(Clone)]
struct Served {
    lineup: &'static str,
    config: ServeConfig,
    base: usize,
    report: ServeReport,
    speedup: f64,
    identical: bool,
    /// What `speedup` is measured against, so JSON consumers never
    /// compare speedups across incommensurable baselines.
    baseline: &'static str,
}

/// Serves `rows` in order after `done`, the section's rows so far, then
/// measures every row against its baseline (which may come after it).
fn serve_rows(
    mut done: Vec<Served>,
    rows: Vec<Row>,
    baseline: &'static str,
) -> io::Result<Vec<Served>> {
    for Row(lineup, config, trace, base) in rows {
        let (report, speedup, identical) = (serve(config, &trace)?, 1.0, true);
        done.push(Served {
            lineup,
            config,
            base,
            report,
            speedup,
            identical,
            baseline,
        });
    }
    for i in 0..done.len() {
        let (base, report) = (&done[done[i].base].report, &done[i].report);
        let speedup = report.sim_tokens_per_s() / base.sim_tokens_per_s();
        (done[i].speedup, done[i].identical) = (speedup, identical_outputs(base, report));
    }
    Ok(done)
}

impl Record for Served {
    const ARRAY: usize = 0;
    const JSON: &'static [Field<Served>] = &[
        ("lineup", |r| quote(r.lineup)),
        ("policy", |r| quote(r.config.admission.label())),
        ("batch", |r| r.config.max_batch.to_string()),
        ("kv_budget_pages", |r| budget_in(r, "page", "null")),
        ("kv_budget_bytes", |r| budget_in(r, "byte", "null")),
        ("kv_quant", |r| r.config.kv_quant.to_string()),
        ("kv_packed", |r| r.config.kv_packed.to_string()),
        ("tokens_per_s", |r| fmt3(r.report.sim_tokens_per_s())),
        ("speedup", |r| fmt4(r.speedup)),
        ("speedup_baseline", |r| quote(r.baseline)),
        ("mean_ttft_ms", |r| fmt4(r.report.mean_ttft_ms())),
        ("mean_tpot_ms", |r| fmt4(r.report.mean_tpot_ms())),
        ("mean_latency_ms", |r| fmt4(r.report.mean_latency_ms())),
        ("occupancy", |r| fmt4(r.report.mean_batch_occupancy())),
        ("rows_per_gemm", |r| {
            fmt4(r.report.mean_fused_rows_per_gemm())
        }),
        ("scheme_switches", |r| {
            r.report.scheme_switches().to_string()
        }),
        ("total_cycles", |r| r.report.total_cycles.to_string()),
        ("energy_pj", |r| fmt3(r.report.energy_pj)),
        ("kv_dram_energy_pj", |r| fmt3(r.report.kv_dram_energy_pj)),
        ("kv_bytes_moved", |r| r.report.kv_bytes_moved().to_string()),
        ("kv_page_tokens", |r| r.report.kv_page_tokens.to_string()),
        ("peak_kv_pages", |r| r.report.peak_kv_pages.to_string()),
        ("peak_logical_kv_pages", |r| {
            r.report.peak_logical_kv_pages.to_string()
        }),
        ("peak_kv_bytes", |r| r.report.peak_kv_bytes.to_string()),
        ("peak_logical_kv_bytes", |r| {
            r.report.peak_logical_kv_bytes.to_string()
        }),
        ("preemptions", |r| r.report.preemptions.to_string()),
        ("prefix_cache", |r| r.config.kv_prefix_cache.to_string()),
        ("prefix_reuse_ratio", |r| {
            fmt4(r.report.kv_page_reuse_ratio())
        }),
        ("shared_prefix_tokens", |r| {
            r.report.shared_prefix_tokens().to_string()
        }),
        ("rejected", |r| r.report.rejected().count().to_string()),
        ("generated_tokens", |r| {
            r.report.generated_tokens().to_string()
        }),
        ("identical", |r| r.identical.to_string()),
    ];

    fn tokens(&self) -> usize {
        self.report.generated_tokens()
    }
}

const TOK_S: Field<Served> = ("tok/s (sim)", |r| fmt2(r.report.sim_tokens_per_s()));
const SPEEDUP: fn(&Served) -> String = |r| format!("{:.2}x", r.speedup);
const TTFT: Field<Served> = ("TTFT ms", |r| fmt2(r.report.mean_ttft_ms()));
const PEAK_PAGES: Field<Served> = ("peak pages", |r| r.report.peak_kv_pages.to_string());
const PREEMPT: Field<Served> = ("preempt", |r| r.report.preemptions.to_string());
const IDENTICAL: Field<Served> = ("identical", |r| yes(r.identical));

/// Each lineup at every batch budget, against its sequential FCFS run.
/// Under FCFS the mixed lineup's round-robin schemes shred the batch
/// into narrow per-scheme GEMMs; scheme-affinity admission fills slots
/// with requests that fuse with the running batch (`rows/GEMM`).
fn batch_sweep(s: &mut Sweep) -> io::Result<usize> {
    let lineups: [(&str, &[SchemeSpec], &[AdmissionPolicy]); 3] = [
        ("bbfp:4,2", &[SchemeSpec::BBAL_PAPER], &[FCFS]),
        ("bfp4", &[SchemeSpec::Bfp(4)], &[FCFS]),
        ("mixed", &MIXED, &[FCFS, AFFINITY]),
    ];
    let mut rows = Vec::new();
    for (lineup, schemes, policies) in lineups {
        let base = rows.len();
        for (&policy, batch) in policies.iter().flat_map(|p| BATCHES.map(|b| (p, b))) {
            rows.push(Row(lineup, config(batch, policy), trace(schemes), base));
        }
    }
    let rows = serve_rows(Vec::new(), rows, "sequential")?;
    let at8 = |lineup, policy| {
        let at = |r: &&Served| r.lineup == lineup && r.config == config(8, policy);
        rows.iter().find(at).expect("every lineup serves batch 8")
    };
    let foot = format!(
        "\nbbfp:4,2 @ batch 8: {:.2}x aggregate tokens/s vs sequential\n\
         mixed @ batch 8: {:.2}x under fcfs, {:.2}x under scheme-affinity admission\n\
         per-request outputs bit-identical to sequential across the sweep: {}\n",
        at8("bbfp:4,2", FCFS).speedup,
        at8("mixed", FCFS).speedup,
        at8("mixed", AFFINITY).speedup,
        yes(rows.iter().all(|r| r.identical))
    );
    let head = format!(
        "Serving sweep (beyond the paper): continuous batching on the {MODEL} stand-in\n\
         trace: {REQUESTS} requests, prompts 8..24 tokens, {MAX_NEW} new tokens each,\n\
         arrivals every {ARRIVAL_SPACING} cycles; 16x16 PE array @ 1 GHz, prefill chunk 16\n\
         affinity = scheme-affinity admission, max_wait_ticks {MAX_WAIT_TICKS}"
    );
    let cols: [Field<Served>; 12] = [
        ("scheme", |r| r.lineup.to_owned()),
        ("policy", |r| r.config.admission.label().to_owned()),
        ("batch", |r| r.config.max_batch.to_string()),
        TOK_S,
        ("speedup", SPEEDUP),
        TTFT,
        ("TPOT ms", |r| fmt2(r.report.mean_tpot_ms())),
        ("occupancy", |r| fmt2(r.report.mean_batch_occupancy())),
        ("rows/GEMM", |r| fmt2(r.report.mean_fused_rows_per_gemm())),
        ("switches", |r| r.report.scheme_switches().to_string()),
        ("Gcycles", |r| fmt1(r.report.total_cycles as f64 / 1.0e9)),
        IDENTICAL,
    ];
    s.table(&head, &cols, &rows, &foot)?;
    s.mixed_affinity8 = Some(at8("mixed", AFFINITY).clone());
    Ok(s.record(&rows))
}

/// The mixed batch-8 affinity run under tightening KV page budgets
/// scaled by its unbounded peak: admission gating and preempt-and-replay
/// must never change a single output token.
fn memory_pressure(s: &mut Sweep) -> io::Result<usize> {
    let unbounded = s.mixed_affinity8.take().expect("the batch sweep ran");
    let peak = unbounded.report.peak_kv_pages;
    let page_tokens = unbounded.report.kv_page_tokens;
    let mixed = unbounded.config;
    let budget = |pages| Row("mixed", mixed.with_kv_budget(pages), trace(&MIXED), 0);
    let budgets = [peak, (peak / 2).max(1), (peak / 4).max(1)];
    let carried = vec![Served {
        base: 0,
        ..unbounded
    }];
    let rows = serve_rows(carried, budgets.map(budget).into(), "unbounded")?;
    let head = format!(
        "\nMemory-pressure sweep: mixed lineup, batch 8, affinity admission,\n\
         kv pages of {page_tokens} tokens; unbounded run peaks at {peak} pages"
    );
    let foot = format!(
        "\nhalf-peak budget: {} preemptions, outputs bit-identical: {}\n",
        rows[2].report.preemptions,
        yes(rows.iter().all(|r| r.identical))
    );
    let cols: [Field<Served>; 9] = [
        ("kv budget", |r| budget_in(r, "page", "unbounded")),
        TOK_S,
        ("vs unbound", SPEEDUP),
        PEAK_PAGES,
        PREEMPT,
        TTFT,
        ("KV MB", |r| fmt1(r.report.kv_bytes_moved() as f64 / 1.0e6)),
        ("KV uJ", |r| fmt1(r.report.kv_dram_energy_pj / 1.0e6)),
        IDENTICAL,
    ];
    s.table(&head, &cols, &rows, &foot)?;
    // The batch sweep recorded and counted the unbounded run.
    Ok(s.record(&rows[1..]))
}

/// The same trace with per-row KV quantisation, under a byte budget of
/// half the unbounded dense-storage peak. Packed block-scheme pages
/// charge a fraction of their f32 equivalent, so the packed runtime
/// keeps more of the working set resident and preempts less.
fn packed_kv_pressure(s: &mut Sweep) -> io::Result<usize> {
    let quant = config(8, AFFINITY).with_kv_quant(true);
    let row = |config| Row("mixed-kvquant", config, trace(&MIXED), 0);
    let baseline = "unbounded-dense-storage";
    let unbounded = serve_rows(Vec::new(), vec![row(quant)], baseline)?;
    let budget = (unbounded[0].report.peak_kv_bytes / 2).max(1);
    let dense = quant.with_kv_budget_bytes(budget);
    let rows = vec![row(dense), row(dense.with_kv_packed(true))];
    let rows = serve_rows(unbounded, rows, baseline)?;
    let head = "\nPacked-KV pressure sweep: mixed lineup, batch 8, affinity admission,\n\
                KV quantisation on; byte budget = half the unbounded dense-storage peak";
    let foot = format!(
        "\nhalf-peak byte budget ({budget} B): dense storage {} preemptions, packed {}\n\
         outputs bit-identical across the packed sweep: {}\n",
        rows[1].report.preemptions,
        rows[2].report.preemptions,
        yes(rows.iter().all(|r| r.identical))
    );
    let cols: [Field<Served>; 8] = [
        ("storage", |r| {
            ["dense-f32", "packed"][r.config.kv_packed as usize].to_owned()
        }),
        ("kv budget B", |r| budget_in(r, "byte", "unbounded")),
        TOK_S,
        ("vs unbound", SPEEDUP),
        ("peak KV KiB", |r| {
            fmt1(r.report.peak_kv_bytes as f64 / 1024.0)
        }),
        ("logical KiB", |r| {
            fmt1(r.report.peak_logical_kv_bytes as f64 / 1024.0)
        }),
        PREEMPT,
        IDENTICAL,
    ];
    s.table(head, &cols, &rows, &foot)?;
    Ok(s.record(&rows))
}

/// The shared-system-prompt trace with the prefix cache on (warm, the
/// default) and off (cold): followers adopt the leader's published
/// prefix pages instead of re-running prefill, so pages are reused and
/// TTFT collapses at identical tokens.
fn shared_prompt(s: &mut Sweep) -> io::Result<usize> {
    let warm = config(8, FCFS);
    let row = |config| Row("shared-prompt", config, shared_trace(), 1);
    let rows = vec![row(warm), row(warm.with_kv_prefix_cache(false))];
    let rows = serve_rows(Vec::new(), rows, "cold-cache")?;
    let (warm, cold) = (&rows[0], &rows[1]);
    let head = format!(
        "\nShared-system-prompt scenario: {REQUESTS} requests, {SHARED_PREFIX}-token shared\n\
         system prompt + distinct 8-token suffixes, bbfp:4,2, batch 8, fcfs"
    );
    let foot = format!(
        "\nprefix cache: {:.3} page-reuse ratio, TTFT {} -> {} ms ({:.2}x tokens/s vs cold)\n",
        warm.report.kv_page_reuse_ratio(),
        fmt2(cold.report.mean_ttft_ms()),
        fmt2(warm.report.mean_ttft_ms()),
        warm.speedup
    );
    let cols: [Field<Served>; 8] = [
        ("cache", |r| {
            ["cold", "warm"][r.config.kv_prefix_cache as usize].to_owned()
        }),
        TOK_S,
        TTFT,
        ("reuse", |r| fmt3(r.report.kv_page_reuse_ratio())),
        ("shared tok", |r| {
            r.report.shared_prefix_tokens().to_string()
        }),
        PEAK_PAGES,
        ("peak logical", |r| {
            r.report.peak_logical_kv_pages.to_string()
        }),
        IDENTICAL,
    ];
    s.table(&head, &cols, &rows, &foot)?;
    Ok(s.record(&rows))
}

/// One fleet configuration's row.
struct FleetRow {
    scenario: &'static str,
    arrivals: &'static str,
    /// Aggregate tokens/s vs the single-replica saturating run; `None`
    /// for the moderate-load rows, which are not comparable.
    speedup: Option<f64>,
    report: FleetReport,
}

const REPLICA_JSON: &[Field<ReplicaSlice>] = &[
    ("name", |s| quote(&s.name)),
    ("routed", |s| s.routed.to_string()),
    ("occupancy", |s| fmt4(s.occupancy())),
    ("tokens", |s| s.report.generated_tokens().to_string()),
    ("total_cycles", |s| s.report.total_cycles.to_string()),
    ("makespan_ms", |s| fmt4(s.makespan_ms())),
];

impl Record for FleetRow {
    const ARRAY: usize = 1;
    const JSON: &'static [Field<FleetRow>] = &[
        ("scenario", |r| quote(r.scenario)),
        ("replicas", |r| r.report.replicas.len().to_string()),
        ("policy", |_| quote("least-loaded")),
        ("arrivals", |r| quote(r.arrivals)),
        ("requests", |r| r.report.assignments.len().to_string()),
        ("fleet_tokens_per_s", |r| {
            fmt3(r.report.fleet_tokens_per_s())
        }),
        ("speedup_vs_single", |r| or(r.speedup.map(fmt4), "null")),
        ("makespan_ms", |r| fmt4(r.report.makespan_ms())),
        ("ttft_p50_ms", |r| fmt4(r.report.ttft_percentile_ms(50.0))),
        ("ttft_p99_ms", |r| fmt4(r.report.ttft_percentile_ms(99.0))),
        ("ttft_p999_ms", |r| fmt4(r.report.ttft_percentile_ms(99.9))),
        ("tpot_p50_ms", |r| fmt4(r.report.tpot_percentile_ms(50.0))),
        ("tpot_p99_ms", |r| fmt4(r.report.tpot_percentile_ms(99.0))),
        ("tpot_p999_ms", |r| fmt4(r.report.tpot_percentile_ms(99.9))),
        ("goodput", |r| fmt4(r.report.goodput(&FLEET_SLO))),
        ("slo_ttft_ms", |_| fmt1(FLEET_SLO.ttft_ms)),
        ("slo_tpot_ms", |_| fmt1(FLEET_SLO.tpot_ms)),
        ("rejected", |r| r.report.rejected().to_string()),
        ("generated_tokens", |r| {
            r.report.generated_tokens().to_string()
        }),
        ("per_replica", |r| {
            format!("[{}]", records(REPLICA_JSON, &r.report.replicas).join(","))
        }),
    ];

    fn tokens(&self) -> usize {
        self.report.generated_tokens()
    }
}

/// One generated workload on 1..8 identical replicas; Poisson vs bursty
/// arrivals at fixed capacity and the same baseline rate, so only the
/// tail should move; and, under the moderate load (under saturation
/// least-loaded degenerates to rotation), a heterogeneous fleet whose
/// batch-8 replicas drain faster and so should absorb more traffic.
/// Goodput counts requests meeting the per-class SLO deadline.
fn fleet(s: &mut Sweep) -> io::Result<usize> {
    let poisson = |mean_gap_cycles| fleet_trace(ArrivalProcess::Poisson { mean_gap_cycles });
    let (saturating, moderate) = (poisson(SATURATING_GAP), poisson(MODERATE_GAP));
    let bursty = fleet_trace(ArrivalProcess::Bursty {
        mean_gap_cycles: MODERATE_GAP,
        modulation: 0.8,
        period_cycles: BURSTY_PERIOD,
    });
    let (sat, modr) = ("poisson-saturating", "poisson-moderate");
    let runs: [(&str, &str, &[usize], &[GenerateRequest]); 7] = [
        ("homo-1", sat, &[8], &saturating),
        ("homo-2", sat, &[8; 2], &saturating),
        ("homo-4", sat, &[8; 4], &saturating),
        ("homo-8", sat, &[8; 8], &saturating),
        ("arrivals-4", modr, &[8; 4], &moderate),
        ("arrivals-4", "bursty-moderate", &[8; 4], &bursty),
        ("hetero-4", modr, &[8, 8, 1, 1], &moderate),
    ];
    let mut rows: Vec<FleetRow> = Vec::new();
    for (scenario, arrivals, batches, trace) in runs {
        let report = run_fleet(batches, trace)?;
        let single = rows.first().map_or(&report, |r| &r.report);
        let speedup = report.fleet_tokens_per_s() / single.fleet_tokens_per_s();
        let speedup = (arrivals == sat).then_some(speedup);
        rows.push(FleetRow {
            scenario,
            arrivals,
            speedup,
            report,
        });
    }
    let hetero = &rows[6].report.replicas;
    let routed: Vec<String> = hetero
        .iter()
        .map(|r| format!("{}:{}", r.name, r.routed))
        .collect();
    let head = format!(
        "\nFleet sweep: {FLEET_REQUESTS} generated requests (seed {FLEET_SEED}), mixed 3-scheme\n\
         traffic, least-loaded routing; saturating Poisson mean gap {SATURATING_GAP} cycles,\n\
         moderate gap {MODERATE_GAP} cycles; SLO: TTFT <= {} ms, TPOT <= {} ms",
        FLEET_SLO.ttft_ms, FLEET_SLO.tpot_ms
    );
    let foot = format!(
        "\n4 homogeneous replicas: {:.2}x aggregate tokens/s vs 1 replica\n\
         hetero fleet routed (replica:requests): {}\n",
        rows[2].speedup.unwrap_or_default(),
        routed.join(", ")
    );
    let cols: [Field<FleetRow>; 12] = [
        ("scenario", |r| r.scenario.to_owned()),
        ("replicas", |r| r.report.replicas.len().to_string()),
        ("arrivals", |r| r.arrivals.to_owned()),
        ("tok/s (sim)", |r| fmt2(r.report.fleet_tokens_per_s())),
        ("speedup", |r| {
            or(r.speedup.map(|s| format!("{s:.2}x")), "-")
        }),
        ("TTFT p50", |r| fmt2(r.report.ttft_percentile_ms(50.0))),
        ("p99", |r| fmt2(r.report.ttft_percentile_ms(99.0))),
        ("p99.9", |r| fmt2(r.report.ttft_percentile_ms(99.9))),
        ("TPOT p50", |r| fmt2(r.report.tpot_percentile_ms(50.0))),
        ("p99", |r| fmt2(r.report.tpot_percentile_ms(99.0))),
        ("goodput", |r| fmt2(r.report.goodput(&FLEET_SLO))),
        ("occupancy", |r| {
            let occupancy = r.report.replicas.iter().map(ReplicaSlice::occupancy);
            fmt2(occupancy.sum::<f64>() / r.report.replicas.len() as f64)
        }),
    ];
    s.table(&head, &cols, &rows, &foot)?;
    Ok(s.record(&rows))
}

/// One format family's row.
struct FamilyRow {
    id: &'static str,
    scheme: SchemeSpec,
    bits: f64,
    ppl: f64,
    pe_area: f64,
    kv_bytes: f64,
    /// Sequential and batch-8 serves of the family's trace.
    runs: [ServeReport; 2],
}

impl FamilyRow {
    fn identical(&self) -> String {
        identical_outputs(&self.runs[0], &self.runs[1]).to_string()
    }
}

impl Record for FamilyRow {
    const ARRAY: usize = 2;
    const JSON: &'static [Field<FamilyRow>] = &[
        ("scheme", |r| quote(r.id)),
        ("paper_name", |r| quote(&r.scheme.paper_name())),
        ("equivalent_bits", |r| fmt4(r.bits)),
        ("ppl", |r| fmt4(r.ppl)),
        ("pe_area_um2", |r| fmt1(r.pe_area)),
        ("kv_bytes_per_token", |r| fmt2(r.kv_bytes)),
        ("tokens_per_s", |r| fmt3(r.runs[1].sim_tokens_per_s())),
        ("identical", FamilyRow::identical),
    ];

    fn tokens(&self) -> usize {
        self.runs.iter().map(ServeReport::generated_tokens).sum()
    }
}

/// The format algebra lets MX / MSFP / block-minifloat scheme ids flow
/// through the same stack as BBFP, so the families meet at iso-bit-width
/// on accuracy (ppl on the serve model), PE array area, KV bytes per
/// cached token and batch-8 served throughput.
fn format_family(s: &mut Sweep) -> io::Result<usize> {
    let lib = GateLibrary::default();
    let model = zoo::find(MODEL).expect("the serve model is in the zoo");
    let mut rows = Vec::new();
    for id in FAMILY_IDS {
        let scheme: SchemeSpec = id.parse().map_err(to_io)?;
        let alg = scheme.algebra().map_err(to_io)?.expect("an algebra point");
        let session = SessionBuilder::new().model(MODEL).scheme_spec(scheme);
        let session = session.eval_set(2, 24, 1234).build().map_err(to_io)?;
        let accel = AcceleratorConfig::for_scheme(scheme, 16, 16).map_err(to_io)?;
        let kv = KvFootprint::for_scheme(scheme, model.hidden, model.layers);
        let trace = trace(&[scheme]);
        let ppl = session.evaluate().ppl;
        let sequential = serve(config(1, FCFS), &trace)?;
        rows.push(FamilyRow {
            id,
            scheme,
            bits: alg.cost().equivalent_bit_width,
            ppl,
            pe_area: accel.pe_array_area_um2(&lib),
            kv_bytes: kv.bytes_per_token(),
            runs: [sequential, serve(config(8, FCFS), &trace)?],
        });
    }
    let head =
        format!("\nFormat-family comparison at iso-bit-width ({MODEL} stand-in, batch 8 FCFS):");
    let cols: [Field<FamilyRow>; 7] = [
        ("format", |r| r.scheme.paper_name()),
        ("eq bits", |r| fmt2(r.bits)),
        ("ppl", |r| fmt2(r.ppl)),
        ("PE array um2", |r| fmt2(r.pe_area)),
        ("KV B/tok", |r| fmt2(r.kv_bytes)),
        ("tok/s (sim)", |r| fmt2(r.runs[1].sim_tokens_per_s())),
        ("identical", FamilyRow::identical),
    ];
    s.table(&head, &cols, &rows, "")?;
    Ok(s.record(&rows))
}

/// Runs the sweep's sections in order, printing each section's table,
/// then writes `results/serve_sweep.json` (every row) and
/// `results/BENCH_serve.json` (each section's simulator wall clock).
///
/// # Errors
///
/// Propagates I/O errors from the writer and serving errors as
/// `InvalidInput`.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    let (records, mixed_affinity8) = (Default::default(), None);
    let mut sweep = Sweep {
        w,
        records,
        mixed_affinity8,
    };
    // How fast the *simulator* chews through each section, not simulated
    // throughput: host-dependent, so compare within one machine.
    let mut bench = Vec::new();
    for (name, section) in SECTIONS {
        let start = Instant::now();
        let tokens = section(&mut sweep)?;
        let secs = start.elapsed().as_secs_f64();
        let fields = [
            ("name", quote(name)),
            ("wall_ms", fmt1(secs * 1.0e3)),
            ("generated_tokens", tokens.to_string()),
            ("wall_tokens_per_s", fmt1(tokens as f64 / secs)),
        ];
        bench.push(obj(fields, false));
    }
    let head = [
        ("model", quote(MODEL)),
        ("requests", REQUESTS.to_string()),
        ("max_new_tokens", MAX_NEW.to_string()),
    ];
    let arrays = sweep.records.iter().map(|r| list(r));
    let sweep_json = obj(head.into_iter().chain(ARRAYS.into_iter().zip(arrays)), true);
    // Schema-versioned so CI consumers can detect format changes.
    let bench = [
        ("schema_version", "1".to_owned()),
        ("benchmark", quote("serve_sweep")),
        ("model", quote(MODEL)),
        ("scenarios", list(&bench)),
    ];
    std::fs::create_dir_all("results")?;
    std::fs::write("results/serve_sweep.json", sweep_json)?;
    std::fs::write("results/BENCH_serve.json", obj(bench, true))?;
    let (json, bench) = ("results/serve_sweep.json", "results/BENCH_serve.json");
    writeln!(
        sweep.w,
        "machine-readable record: {json}\nsimulator wall-clock record: {bench}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_match_the_committed_bench_record() {
        // Serves nothing: the CI perf gate compares BENCH_serve.json
        // scenarios by name, so the runner's sections must be exactly
        // the committed baseline's, in order.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_serve.json"
        );
        let committed = std::fs::read_to_string(path).expect("committed BENCH_serve.json");
        let names: Vec<&str> = committed
            .split("\"name\":\"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        assert_eq!(names, SECTIONS.map(|s| s.0));
    }

    #[test]
    fn batch8_doubles_throughput_with_identical_outputs() {
        // The ISSUE-3 acceptance gate, on the BBAL scheme.
        let trace = trace(&[SchemeSpec::BBAL_PAPER]);
        let seq = serve(config(1, FCFS), &trace).unwrap();
        let batched = serve(config(8, FCFS), &trace).unwrap();
        for (a, b) in seq.requests.iter().zip(&batched.requests) {
            assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
        }
        let speedup = batched.sim_tokens_per_s() / seq.sim_tokens_per_s();
        assert!(speedup >= 2.0, "batch-8 speedup only {speedup:.2}x");
    }

    #[test]
    fn affinity_recovers_mixed_traffic_throughput() {
        // The ISSUE-4 acceptance gate: scheme-affinity admission lifts
        // the 3-scheme round-robin trace at batch 8 from ~2.2x to at
        // least 3.5x sequential — with outputs still bit-identical.
        let seq = serve(config(1, FCFS), &trace(&MIXED)).unwrap();
        let affinity = serve(config(8, AFFINITY), &trace(&MIXED)).unwrap();
        for (a, b) in seq.requests.iter().zip(&affinity.requests) {
            assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
        }
        let speedup = affinity.sim_tokens_per_s() / seq.sim_tokens_per_s();
        assert!(
            speedup >= 3.5,
            "affinity batch-8 speedup only {speedup:.2}x"
        );
        // Aging kept everyone inside the starvation bound.
        for r in &affinity.requests {
            assert!(
                r.passed_over_ticks <= MAX_WAIT_TICKS + r.id as u64,
                "request {} passed over {} times",
                r.id,
                r.passed_over_ticks
            );
        }
    }

    #[test]
    fn half_peak_kv_budget_preempts_but_stays_bit_identical() {
        // The ISSUE-5 acceptance gate: with the KV budget at ~half the
        // unconstrained peak, the mixed batch-8 trace completes every
        // request via preemption with outputs bit-identical to the
        // unconstrained run, and reports the memory activity.
        let unbounded = serve(config(8, AFFINITY), &trace(&MIXED)).unwrap();
        assert!(unbounded.peak_kv_pages > 0);
        assert_eq!(unbounded.preemptions, 0);
        assert!(unbounded.kv_dram_energy_pj > 0.0);
        let budget = (unbounded.peak_kv_pages / 2).max(1);
        let tight = serve(config(8, AFFINITY).with_kv_budget(budget), &trace(&MIXED)).unwrap();
        for (a, b) in unbounded.requests.iter().zip(&tight.requests) {
            assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
        }
        assert!(
            tight.preemptions > 0,
            "half-peak budget should force preemptions"
        );
        assert!(
            tight.peak_kv_pages <= budget,
            "peak {} exceeded the budget {budget}",
            tight.peak_kv_pages
        );
        assert!(tight.kv_bytes_moved() > 0);
        assert!(tight.kv_dram_energy_pj > 0.0);
        assert!(tight.rejected().count() == 0);
    }

    #[test]
    fn packed_storage_preempts_less_at_equal_byte_budget() {
        // The PR-10 acceptance gate: at the same byte budget — half the
        // unbounded dense-storage peak — packed pages charge fewer
        // bytes, keep more of the working set resident and preempt
        // strictly less, while every output token stays bit-identical.
        let quant = config(8, AFFINITY).with_kv_quant(true);
        let unbounded = serve(quant, &trace(&MIXED)).unwrap();
        assert_eq!(unbounded.preemptions, 0);
        assert!(unbounded.peak_kv_bytes > 0);
        let budget = (unbounded.peak_kv_bytes / 2).max(1);
        let dense = quant.with_kv_budget_bytes(budget);
        let packed = serve(dense.with_kv_packed(true), &trace(&MIXED)).unwrap();
        let dense = serve(dense, &trace(&MIXED)).unwrap();
        assert!(
            dense.preemptions > 0,
            "a half-peak byte budget must pressure dense storage"
        );
        assert!(
            packed.preemptions < dense.preemptions,
            "packed storage must preempt strictly less at the same byte \
             budget (packed {} vs dense {})",
            packed.preemptions,
            dense.preemptions
        );
        assert!(dense.peak_kv_bytes <= budget);
        assert!(packed.peak_kv_bytes <= budget);
        assert_eq!(packed.kv_budget, Some(KvBudget::Bytes(budget)));
        for (a, b) in unbounded.requests.iter().zip(&dense.requests) {
            assert_eq!(a.tokens, b.tokens, "dense request {} diverged", a.id);
        }
        for (a, b) in unbounded.requests.iter().zip(&packed.requests) {
            assert_eq!(a.tokens, b.tokens, "packed request {} diverged", a.id);
        }
    }

    #[test]
    fn four_homogeneous_replicas_double_aggregate_throughput() {
        // The ISSUE-7 acceptance gate: under a saturating Poisson load,
        // 4 homogeneous replicas deliver at least 2x the aggregate
        // tokens/s of a single replica, and the SLO percentiles improve
        // monotonically in the right direction.
        let trace = fleet_trace(ArrivalProcess::Poisson {
            mean_gap_cycles: SATURATING_GAP,
        });
        let single = run_fleet(&[8], &trace).unwrap();
        let quad = run_fleet(&[8; 4], &trace).unwrap();
        let speedup = quad.fleet_tokens_per_s() / single.fleet_tokens_per_s();
        assert!(speedup >= 2.0, "4-replica speedup only {speedup:.2}x");
        // Same total work, spread across the fleet.
        assert_eq!(quad.generated_tokens(), single.generated_tokens());
        assert_eq!(quad.rejected(), 0);
        let routed: Vec<usize> = quad.replicas.iter().map(|r| r.routed).collect();
        assert_eq!(routed.iter().sum::<usize>(), trace.len());
        assert!(
            routed.iter().all(|&n| n > 0),
            "least-loaded left a replica idle: {routed:?}"
        );
        // Less backlog per replica means a lighter latency tail.
        assert!(quad.ttft_percentile_ms(99.0) < single.ttft_percentile_ms(99.0));
        // Percentile ordering is internally consistent.
        let p50 = quad.ttft_percentile_ms(50.0);
        let p99 = quad.ttft_percentile_ms(99.0);
        let p999 = quad.ttft_percentile_ms(99.9);
        assert!(p50 > 0.0 && p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn shared_prompt_scenario_reuses_pages_and_collapses_ttft() {
        // The ISSUE-6 acceptance gate: on the shared-system-prompt
        // trace the warm run reports a page-reuse ratio > 0 and a
        // lower TTFT than the cold-cache run, with every output token
        // bit-identical.
        let warm = serve(config(8, FCFS), &shared_trace()).unwrap();
        let cold = serve(config(8, FCFS).with_kv_prefix_cache(false), &shared_trace()).unwrap();
        for (a, b) in cold.requests.iter().zip(&warm.requests) {
            assert_eq!(a.tokens, b.tokens, "request {} diverged", a.id);
        }
        assert!(
            warm.kv_page_reuse_ratio() > 0.0,
            "warm run must reuse prefix pages"
        );
        assert!(warm.shared_prefix_tokens() > 0);
        assert_eq!(cold.kv_page_reuse_ratio(), 0.0);
        assert_eq!(cold.shared_prefix_tokens(), 0);
        assert!(
            warm.mean_ttft_ms() < cold.mean_ttft_ms(),
            "warm TTFT {} >= cold {}",
            warm.mean_ttft_ms(),
            cold.mean_ttft_ms()
        );
        assert!(warm.peak_logical_kv_pages >= warm.peak_kv_pages);
        assert_eq!(cold.peak_logical_kv_pages, cold.peak_kv_pages);
    }
}
