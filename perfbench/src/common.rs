//! Pieces every workload runner shares: the run context, the host
//! metrics of the pass loop, request-level simulated metrics, the
//! token digest and per-layer folding of the trace.

use crate::host::{self, Gauge, Stopwatch};
use crate::metrics::Outcome;
use crate::recorder::{self, Recorder, Span};
use crate::stats;
use bbal_fleet::SloBudget;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Least host time between two gauge readings: a reading takes about
/// 2% of it.
const GAUGE_EVERY: Duration = Duration::from_millis(100);

/// One run's settings, recorders and host-speed gauge.
pub struct Ctx {
    pub seed: u64,
    /// Host time the pass loop runs for, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    traced: Recorder,
    untraced: Recorder,
    gauge: RefCell<Gauge>,
    /// Every gauge reading so far, nanoseconds.
    gauge_ns: RefCell<Vec<f64>>,
    /// When the gauge was last read.
    gauge_at: Cell<Option<Instant>>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            traced: Recorder::new(true),
            untraced: Recorder::new(false),
            gauge: RefCell::new(Gauge::default()),
            gauge_ns: RefCell::new(Vec::new()),
            gauge_at: Cell::new(None),
        }
    }

    /// Reads the host-speed gauge between two of pass `pass`'s calls
    /// into the stack, if [`GAUGE_EVERY`] has passed since the last
    /// reading. Returns the host seconds the reading took, which the
    /// caller leaves out of the pass's timed run. Traced passes take no
    /// readings, so their spans hold only the stack's work.
    pub fn gauge(&self, pass: usize) -> f64 {
        if self.pass_traced(pass)
            || self
                .gauge_at
                .get()
                .is_some_and(|t| t.elapsed() < GAUGE_EVERY)
        {
            return 0.0;
        }
        let watch = Stopwatch::start();
        let ns = self.gauge.borrow_mut().time_ns();
        self.gauge_ns.borrow_mut().push(ns);
        self.gauge_at.set(Some(Instant::now()));
        watch.elapsed_s()
    }

    /// Gauge readings taken so far.
    pub fn gauge_readings(&self) -> usize {
        self.gauge_ns.borrow().len()
    }

    /// How much slower than nominal the host ran: the median gauge
    /// reading over [`host::GAUGE_NOMINAL_NS`] (1 before any reading).
    /// Host times are reported divided by it.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.gauge_ns.borrow()).map_or(1.0, |ns| ns / host::GAUGE_NOMINAL_NS)
    }

    /// Whether pass `pass` records spans: the traced run alternates
    /// untraced and traced passes, so both halves see the same warm
    /// host and their throughput ratio is the tracing overhead.
    pub fn pass_traced(&self, pass: usize) -> bool {
        self.trace && pass > 0 && pass % 2 == 0
    }

    /// The recorder of pass `pass`.
    pub fn rec(&self, pass: usize) -> &Recorder {
        if self.pass_traced(pass) {
            &self.traced
        } else {
            &self.untraced
        }
    }

    /// A recorder that records nothing.
    pub fn untraced(&self) -> &Recorder {
        &self.untraced
    }

    /// The recorder for work outside the pass loop (checks, probes).
    pub fn rec_once(&self) -> &Recorder {
        if self.trace {
            &self.traced
        } else {
            &self.untraced
        }
    }

    /// Whether the pass loop runs another pass, given the passes done
    /// (the warm-up included) and when the first measured pass began:
    /// only if, at the mean measured pass time so far, it would end
    /// within `seconds`. One measured pass always runs, and the traced
    /// run needs one untraced and one traced measured pass.
    fn another_pass(&self, measured_start: Instant, passes: usize) -> bool {
        let min = if self.trace { 3 } else { 2 };
        if passes < min {
            return true;
        }
        let elapsed = measured_start.elapsed().as_secs_f64();
        elapsed + elapsed / (passes - 1) as f64 <= self.seconds
    }

    /// Runs pass 0 — the warm-up, which fills caches and the allocator
    /// and is the reference every later pass must reproduce — then the
    /// measured passes. Returns every pass and the clock of the
    /// measured ones.
    pub fn pass_loop<P>(
        &self,
        mut run_pass: impl FnMut(usize) -> Result<P, String>,
    ) -> Result<(Vec<P>, LoopClock), String> {
        let mut passes = vec![run_pass(0)?];
        let clock = LoopClock::start();
        while self.another_pass(clock.started_at(), passes.len()) {
            passes.push(run_pass(passes.len())?);
        }
        Ok((passes, clock))
    }

    /// Every span the traced recorder holds.
    pub fn spans(&self) -> Vec<Span> {
        self.traced.spans()
    }
}

/// Host time of one pass, taken with a [`Stopwatch`].
#[derive(Debug, Clone, Copy)]
pub struct PassTime {
    pub setup_s: f64,
    /// Steady-state time, after set-up.
    pub run_s: f64,
    /// Tokens the pass counted towards `tokens_per_s`.
    pub tokens: f64,
    pub traced: bool,
}

/// CPU and wall time of the pass loop, for `host.busy_cores`.
#[derive(Debug, Clone, Copy)]
pub struct LoopClock {
    start: Instant,
    cpu_start: Option<f64>,
}

impl LoopClock {
    pub fn start() -> LoopClock {
        LoopClock {
            start: Instant::now(),
            cpu_start: host::cpu_seconds(),
        }
    }

    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Process CPU time over wall time since the start.
    pub fn busy_cores(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        match (self.cpu_start, host::cpu_seconds()) {
            (Some(a), Some(b)) if wall > 0.0 => (b - a) / wall,
            _ => 0.0,
        }
    }
}

/// Median over the passes traced (or not) as `traced` of each pass's
/// tokens over its steady time: a pass the host slowed is outvoted.
fn throughput(passes: &[PassTime], traced: bool) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced == traced && p.run_s > 0.0)
        .map(|p| p.tokens / p.run_s)
        .collect();
    stats::median(&rates).unwrap_or(0.0)
}

/// The host end-to-end metrics and host counters of a pass loop.
/// `tokens_per_s` is the median untraced pass's tokens over its steady
/// time. `step_ms` holds each untraced pass's step times; the step
/// metrics are the median over passes of each pass's median and tail,
/// so how many passes fit in the run never moves the rank the tail is
/// read at. Host times are divided by `slowdown` ([`Ctx::slowdown`]).
pub fn host_metrics(
    out: &mut Outcome,
    passes: &[PassTime],
    step_ms: &[Vec<f64>],
    clock: &LoopClock,
    slowdown: f64,
) {
    let untraced = throughput(passes, false);
    out.set("tokens_per_s", untraced * slowdown);
    let per_pass = |f: &dyn Fn(&[f64]) -> Option<f64>| -> f64 {
        let v: Vec<f64> = step_ms.iter().filter_map(|s| f(s)).collect();
        stats::median(&v).unwrap_or(0.0) / slowdown
    };
    out.set("step_p50_ms", per_pass(&stats::median));
    out.set("step_tail_ms", per_pass(&|s| stats::tail(s).map(|t| t.0)));
    out.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out.set("host.busy_cores", clock.busy_cores());
    out.set("host.gauge_us", slowdown * host::GAUGE_NOMINAL_NS / 1.0e3);
    let traced = throughput(passes, true);
    if untraced > 0.0 && traced > 0.0 {
        out.set("host.trace_overhead", traced / untraced);
    }
}

/// Set-ups `setup_s` is the median of.
pub const SETUP_SAMPLES: usize = 5;

/// Sets `setup_s`, the median of [`SETUP_SAMPLES`] cold set-ups divided
/// by `slowdown`: the passes' own set-ups, topped up after the pass
/// loop by calls of `setup`, which sets up, tears the result down
/// unused, and returns the set-up's time in seconds.
pub fn setup_metric(
    out: &mut Outcome,
    passes: &[PassTime],
    slowdown: f64,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let mut samples: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while samples.len() < SETUP_SAMPLES {
        samples.push(setup()?);
    }
    out.set("setup_s", stats::median(&samples).unwrap_or(0.0) / slowdown);
    Ok(())
}

/// One request's simulated outcome.
#[derive(Debug, Clone, Copy)]
pub struct RequestSim {
    /// Scheduled, not rejected, and produced tokens.
    pub served: bool,
    pub ttft_ms: f64,
    /// Mean time per output token after the first (`None` with fewer
    /// than two tokens).
    pub tpot_ms: Option<f64>,
}

impl RequestSim {
    fn meets(&self, slo: &SloBudget) -> bool {
        self.served && self.ttft_ms <= slo.ttft_ms && self.tpot_ms.is_none_or(|t| t <= slo.tpot_ms)
    }
}

/// Simulated latency median and tails (the [`stats::tail`] rule, as
/// for host steps) and goodput over `requests`. A rejected request
/// counts as missing the SLO.
pub fn request_sim_metrics(out: &mut Outcome, requests: &[RequestSim], slo: &SloBudget) {
    let ttft: Vec<f64> = requests
        .iter()
        .filter(|r| r.served)
        .map(|r| r.ttft_ms)
        .collect();
    let tpot: Vec<f64> = requests.iter().filter_map(|r| r.tpot_ms).collect();
    out.set("sim_ttft_p50_ms", stats::median(&ttft).unwrap_or(0.0));
    out.set("sim_ttft_tail_ms", stats::tail(&ttft).map_or(0.0, |t| t.0));
    out.set("sim_tpot_tail_ms", stats::tail(&tpot).map_or(0.0, |t| t.0));
    let met = requests.iter().filter(|r| r.meets(slo)).count();
    out.set("sim_goodput", met as f64 / requests.len().max(1) as f64);
}

/// FNV-1a over a stream of integers: the run's token digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Per-pass totals of the traced passes: every span inside a traced
/// pass (under a `bench.pass` or `bench.setup` root) is summed by
/// name and by layer self time, then divided by the traced pass count.
pub struct TracedTotals {
    pub by_name_ms: BTreeMap<&'static str, f64>,
    pub self_ms: BTreeMap<&'static str, f64>,
}

pub fn traced_totals(spans: &[Span], traced_passes: usize) -> TracedTotals {
    let n = traced_passes.max(1) as f64;
    // Keep the pass trees — roots named bench.setup / bench.pass and
    // everything below them — re-indexing parents into the kept list
    // (a parent always precedes its children).
    let mut new_index: Vec<Option<usize>> = vec![None; spans.len()];
    let mut kept: Vec<Span> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let keep = match s.parent {
            None => s.name == "bench.setup" || s.name == "bench.pass",
            Some(p) => new_index[p].is_some(),
        };
        if keep {
            new_index[i] = Some(kept.len());
            kept.push(Span {
                parent: s.parent.and_then(|p| new_index[p]),
                ..s.clone()
            });
        }
    }
    let totals = recorder::totals_by_name(&kept);
    TracedTotals {
        by_name_ms: totals
            .iter()
            .map(|(&k, &(ns, _))| (k, ns as f64 / 1.0e6 / n))
            .collect(),
        self_ms: recorder::self_time_by_layer(&kept)
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1.0e6 / n))
            .collect(),
    }
}

/// Sets `<layer>.self_ms` for every layer a pass calls into directly
/// (kernels, hooks and the nonlinear unit are only reached through
/// these, so inside a pass their time is their caller's).
pub fn set_self_times(out: &mut Outcome, totals: &TracedTotals) {
    for (layer, name) in [
        ("bench", "bench.self_ms"),
        ("session", "session.self_ms"),
        ("serve", "serve.self_ms"),
        ("fleet", "fleet.self_ms"),
        ("accel", "accel.self_ms"),
    ] {
        out.set(name, totals.self_ms.get(layer).copied().unwrap_or(0.0));
    }
}

/// Mean duration of the spans named `name` across all traced spans,
/// milliseconds (0 when none ran).
pub fn mean_span_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1.0e6)
        .collect();
    stats::mean(&d)
}

/// Writes the traced run's spans as a Chrome trace next to the
/// benchmark sources (`perfbench/out/`), returning the path.
pub fn write_trace(spans: &[Span], workload: &str, seed: u64) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace_{workload}_{seed}.json");
    std::fs::write(
        &path,
        recorder::chrome_trace(spans, &format!("perfbench {workload} seed {seed}")),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn traced_totals_keep_only_pass_trees_and_average_per_pass() {
        let spans = vec![
            span("bench.setup", 0, 10, None),
            span("session.prepare", 1, 9, Some(0)),
            span("bench.pass", 10, 110, None),
            span("serve.step", 20, 80, Some(2)),
            span("bench.check", 110, 500, None),
            span("session.evaluate", 120, 400, Some(4)),
        ];
        let t = traced_totals(&spans, 2);
        assert_eq!(t.by_name_ms.get("session.evaluate"), None);
        assert!((t.by_name_ms["serve.step"] - 60.0 / 1.0e6 / 2.0).abs() < 1e-15);
        assert!((t.self_ms["bench"] - (2.0 + 40.0) / 1.0e6 / 2.0).abs() < 1e-15);
    }

    #[test]
    fn goodput_counts_rejections_as_misses() {
        let slo = SloBudget {
            ttft_ms: 10.0,
            tpot_ms: 1.0,
        };
        let reqs = [
            RequestSim {
                served: true,
                ttft_ms: 5.0,
                tpot_ms: Some(0.5),
            },
            RequestSim {
                served: true,
                ttft_ms: 5.0,
                tpot_ms: Some(2.0),
            },
            RequestSim {
                served: false,
                ttft_ms: 0.0,
                tpot_ms: None,
            },
            RequestSim {
                served: true,
                ttft_ms: 9.0,
                tpot_ms: None,
            },
        ];
        let mut out = Outcome::default();
        request_sim_metrics(&mut out, &reqs, &slo);
        assert_eq!(out.values["sim_goodput"], 0.5);
        assert_eq!(out.values["sim_ttft_p50_ms"], 5.0);
        assert_eq!(out.values["sim_tpot_tail_ms"], 2.0);
    }

    #[test]
    fn digest_depends_on_order_and_values() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push(1);
        c.push(2);
        assert_eq!(a.hex(), c.hex());
    }
}
