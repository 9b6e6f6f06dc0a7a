//! The four workloads, each generated from `--seed` alone.
//!
//! Every serving workload is an *open loop in simulated time*: each
//! request carries its due time as `arrival_cycles`, the runtime admits
//! it when its simulated clock gets there, and simulated time to first
//! token is measured from that due time. Nothing is sent from a
//! host-side clock, so no generator can run late.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `decode_long` | decode: packed GEMM at few rows, packed attention over a growing context, hundreds of scheduler ticks | the prefix index (prompts share nothing) |
//! | `prefix_rag` | prefill: many-row GEMMs; the KV arena adopting, publishing and evicting | decode attention (8-token outputs) |
//! | `paper_eval` | the reproduction path: scalar forward, quant hooks, nonlinear unit, cycle simulator | serve, the KV arena, packed kernels |
//! | `fleet_bursty` | `bbal-fleet`: routing and `step_until` interleaving over 4 replicas | — (the only fleet workload) |

use bbal_core::SchemeSpec;
use bbal_fleet::{ArrivalProcess, LengthDistribution, SloBudget, TraceConfig};
use bbal_llm::rng::Stream;
use bbal_quant::TABLE2_SCHEMES;
use bbal_serve::{AdmissionPolicy, GenerateRequest, ServeConfig};

/// Workload names the command line accepts. `BENCHMARK.json` lists
/// `decode_long` and `paper_eval` only: on a shared 2-core host the
/// host times of `prefix_rag` and `fleet_bursty` swung by a fifth or
/// more between runs of one build, wider than any bound, so they run by
/// hand. The traced `decode_long` run measures the fleet layer.
pub const NAMES: [&str; 4] = ["decode_long", "prefix_rag", "paper_eval", "fleet_bursty"];

/// The served model: the Llama-7B stand-in (hidden 192, 3 decoder
/// layers, 256-token vocabulary), costed at Llama-7B's paper
/// dimensions on the simulated accelerator.
pub const MODEL: &str = "Llama-7B";

/// Vocabulary prompt tokens are drawn from (the model's).
const VOCAB: usize = 256;

/// The mixed-scheme serving lineup: the paper's BBFP(4,2) at double
/// weight, vanilla BFP4 and the outlier-aware Oltron baseline.
const MIX: [(SchemeSpec, f64); 3] = [
    (SchemeSpec::Bbfp(4, 2), 2.0),
    (SchemeSpec::Bfp(4), 1.0),
    (SchemeSpec::Oltron, 1.0),
];

/// [`MIX`] as an exact repeating pattern, for stratified assignment.
const MIX_PATTERN: [SchemeSpec; 4] = [
    SchemeSpec::Bbfp(4, 2),
    SchemeSpec::Bbfp(4, 2),
    SchemeSpec::Bfp(4),
    SchemeSpec::Oltron,
];

/// The default serving configuration with one worker thread. The
/// runtime's calling thread costs each tick on the simulator while the
/// workers compute it, so one worker keeps a runtime's busy threads
/// within a 2-core host; a second worker would time the scheduler.
fn one_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeLong,
    PrefixRag,
    PaperEval,
    FleetBursty,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "decode_long" => Some(Workload::DecodeLong),
            "prefix_rag" => Some(Workload::PrefixRag),
            "paper_eval" => Some(Workload::PaperEval),
            "fleet_bursty" => Some(Workload::FleetBursty),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeLong => NAMES[0],
            Workload::PrefixRag => NAMES[1],
            Workload::PaperEval => NAMES[2],
            Workload::FleetBursty => NAMES[3],
        }
    }
}

/// A serving workload: one runtime configuration and one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    pub config: ServeConfig,
    /// Every scheme the trace asks for, sorted; prepared during set-up.
    pub schemes: Vec<SchemeSpec>,
    pub requests: Vec<GenerateRequest>,
    /// Indices of the requests the output check regenerates alone.
    pub check: Vec<usize>,
    /// Latency limits goodput is judged against, simulated ms.
    pub slo: SloBudget,
}

/// `n` values spread evenly over `lo..=hi`, in seeded random order.
///
/// The serving generators draw lengths and schemes *stratified* — the
/// seed decides which request gets which, not how many of each there
/// are — so every seed offers the same total work and the simulated
/// aggregates compare across seeds; arrivals and token ids stay
/// random.
fn stratified_lengths(rng: &mut Stream, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    let values: Vec<usize> = (0..n).map(|i| lo + i * span / n).collect();
    shuffled(rng, values)
}

/// `n` items cycling through `pattern`, in seeded random order.
fn stratified_pick<T: Copy>(rng: &mut Stream, n: usize, pattern: &[T]) -> Vec<T> {
    shuffled(rng, (0..n).map(|i| pattern[i % pattern.len()]).collect())
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffled<T>(rng: &mut Stream, mut v: Vec<T>) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Poisson arrival times (cycles) of `n` requests with the given mean
/// gap.
fn poisson_arrivals(rng: &mut Stream, n: usize, mean_gap_cycles: f64) -> Vec<u64> {
    let mut now = 0.0f64;
    (0..n)
        .map(|_| {
            now += -(1.0 - rng.uniform()).ln() * mean_gap_cycles;
            now as u64
        })
        .collect()
}

/// `decode_long`: decode dominates.
///
/// 48 requests with short unshared prompts (16–32 tokens) and long
/// outputs (96–160 tokens) under the mixed lineup (BBFP(4,2) ×2, BFP4,
/// Oltron, in a fixed interleave), arriving as a Poisson process (mean
/// gap 20 ms of simulated time) far faster than the accelerator drains
/// them, so the queue saturates and batch 8 stays full. Scheme-affinity admission keeps
/// batches fusable; KV rows are quantised and packed. This exercises
/// the packed GEMMs at few-row (decode) shapes, packed attention over a
/// growing context and over a thousand scheduler ticks. Prompts share
/// no prefix, so it is the *bypass* case for any prefix-cache work: the
/// prefix index sees only misses.
pub fn decode_long(seed: u64) -> ServePlan {
    const N: usize = 48;
    let mut rng = Stream::new(seed ^ 0x4445_434F);
    let prompts = stratified_lengths(&mut rng, N, 16, 32);
    let outputs = stratified_lengths(&mut rng, N, 96, 160);
    let arrivals = poisson_arrivals(&mut rng, N, 20_000_000.0);
    let requests: Vec<GenerateRequest> = (0..N)
        .map(|i| {
            let prompt = (0..prompts[i]).map(|_| rng.zipf_token(VOCAB)).collect();
            GenerateRequest::new(prompt, outputs[i])
                .scheme(MIX_PATTERN[i % MIX_PATTERN.len()])
                .arriving_at(arrivals[i])
        })
        .collect();
    let config = one_worker()
        .with_admission(AdmissionPolicy::SchemeAffinity { max_wait_ticks: 64 })
        .with_kv_quant(true)
        .with_kv_packed(true);
    ServePlan {
        config,
        schemes: schemes_of(&requests),
        check: sample(seed, requests.len(), 6),
        requests,
        slo: SloBudget {
            ttft_ms: 1_200_000.0,
            tpot_ms: 2_000.0,
        },
    }
}

/// Tokens in each shared `prefix_rag` document: 16 full 16-token KV
/// pages.
pub const RAG_DOC_TOKENS: usize = 256;
/// Distinct shared documents.
pub const RAG_DOCS: usize = 4;
/// Seed of the fixed `prefix_rag` (document, scheme) schedule.
const RAG_SCHEDULE_SEED: u64 = 0x5343_4845;
/// Gap between `prefix_rag` arrivals, cycles.
const RAG_GAP_CYCLES: u64 = 14_000_000_000;

/// `prefix_rag`: prefill dominates, and the KV arena works hardest.
///
/// 160 retrieval-style requests: each prompt is one of 4 shared
/// 256-token documents followed by a unique 24–40-token question, and
/// asks for 8 tokens under BBFP(4,2) or BFP4. KV is dense f32 under a
/// 400-page budget: the 8 (document, scheme) prefixes alone would take
/// 384 pages, so the prefix index must evict. Requests arrive every 14 s
/// of simulated time, below the accelerator's capacity, so time to
/// first token is a hit's or a miss's prefill rather than queueing (and
/// the budget never has to preempt). This exercises many-row prefill
/// GEMMs and the arena's adopt / publish / evict paths, writing to the
/// arena as much as it reads, with almost no decode attention.
pub fn prefix_rag(seed: u64) -> ServePlan {
    const N: usize = 160;
    let mut rng = Stream::new(seed ^ 0x5241_4721);
    let docs: Vec<Vec<usize>> = (0..RAG_DOCS)
        .map(|_| (0..RAG_DOC_TOKENS).map(|_| rng.zipf_token(VOCAB)).collect())
        .collect();
    // Every (document, scheme) pair equally often, in one fixed
    // shuffled order: which class follows which decides the prefix
    // index's hits and evictions, and that should not swing between
    // seeds.
    let pairs: Vec<(usize, SchemeSpec)> = (0..RAG_DOCS)
        .flat_map(|d| [(d, SchemeSpec::Bbfp(4, 2)), (d, SchemeSpec::Bfp(4))])
        .collect();
    let picks = stratified_pick(&mut Stream::new(RAG_SCHEDULE_SEED), N, &pairs);
    let questions = stratified_lengths(&mut rng, N, 24, 40);
    let requests: Vec<GenerateRequest> = (0..N)
        .map(|i| {
            let (doc, scheme) = picks[i];
            let mut prompt = docs[doc].clone();
            prompt.extend((0..questions[i]).map(|_| rng.zipf_token(VOCAB)));
            GenerateRequest::new(prompt, 8)
                .scheme(scheme)
                .arriving_at(i as u64 * RAG_GAP_CYCLES)
        })
        .collect();
    ServePlan {
        config: one_worker().with_kv_budget(400),
        schemes: schemes_of(&requests),
        check: sample(seed, requests.len(), 10),
        requests,
        slo: SloBudget {
            ttft_ms: 30_000.0,
            tpot_ms: 1_000.0,
        },
    }
}

/// Bursts in one `fleet_bursty` pass.
pub const FLEET_BURSTS: usize = 48;
/// Requests in one `fleet_bursty` burst: more than the replicas, so
/// routing decides which replicas batch a second request.
pub const FLEET_BURST_REQUESTS: usize = 6;

/// `fleet_bursty`: the fleet layer.
///
/// 4 identical batch-8 replicas behind least-loaded routing serve 32
/// bursts of 8 requests. Within a burst, requests arrive as a fast
/// Poisson process (mean gap 0.5 s of simulated time) with log-normal
/// prompts and the mixed lineup; between bursts the fleet drains
/// completely. Each burst is one `Fleet::serve` call starting at cycle
/// 0, so a burst is the fleet's unit of work the way a tick is the
/// runtime's, and a fixed burst size keeps the per-burst makespan — and
/// with it simulated throughput — from swinging with how many arrivals
/// a seed happens to put in a window.
pub fn fleet_bursty(seed: u64) -> FleetPlan {
    let burst = TraceConfig {
        requests: FLEET_BURST_REQUESTS,
        arrivals: ArrivalProcess::Poisson {
            mean_gap_cycles: 100_000_000.0,
        },
        prompt_len: LengthDistribution::LogNormal {
            median: 32.0,
            sigma: 0.4,
            max: 64,
        },
        output_len: LengthDistribution::Uniform { min: 8, max: 24 },
        schemes: MIX.to_vec(),
        vocab: VOCAB,
    };
    let mut rng = Stream::new(seed ^ 0x464C_4545);
    // Schemes follow the fixed mix interleave, as in `decode_long`.
    let bursts: Vec<Vec<GenerateRequest>> = (0..FLEET_BURSTS)
        .map(|_| {
            burst
                .generate(rng.below(1 << 30) as u64)
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.scheme(MIX_PATTERN[i % MIX_PATTERN.len()]))
                .collect()
        })
        .collect();
    FleetPlan {
        replicas: 4,
        config: one_worker(),
        schemes: MIX.iter().map(|&(s, _)| s).collect(),
        check: sample(seed, FLEET_BURSTS * FLEET_BURST_REQUESTS, 8),
        bursts,
        slo: SloBudget {
            ttft_ms: 15_000.0,
            tpot_ms: 2_000.0,
        },
    }
}

/// A fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    pub replicas: usize,
    pub config: ServeConfig,
    pub schemes: Vec<SchemeSpec>,
    /// The trace cut into bursts, each rebased to start at cycle 0.
    pub bursts: Vec<Vec<GenerateRequest>>,
    /// Indices into the bursts' concatenation the output check
    /// regenerates alone.
    pub check: Vec<usize>,
    pub slo: SloBudget,
}

/// `paper_eval`: the reproduction path.
///
/// For each of the 11 Table II schemes, `Session::evaluate` on 4 eval
/// sequences of 96 tokens drawn from the seed (one call per sequence;
/// equal lengths make the geometric mean of the per-sequence
/// perplexities exactly the perplexity of the whole set), plus,
/// wherever the scheme maps to hardware, a simulated prefill and
/// decode step at Llama-7B dimensions. The simulated lengths are drawn
/// from the seed within ±16 tokens of the paper's 512-token prompt and
/// 1024-token context, so simulated times differ between seeds. This
/// runs the scalar `TransformerModel` forward, the quantisation hooks,
/// the nonlinear unit and the cycle simulator, and never touches serve,
/// the KV arena or the packed kernels: serving optimisations should
/// leave it unchanged.
pub fn paper_eval(seed: u64) -> EvalPlan {
    let mut rng = Stream::new(seed ^ 0x5041_5045);
    EvalPlan {
        schemes: TABLE2_SCHEMES.to_vec(),
        eval_seeds: (0..4).map(|_| rng.below(1 << 30) as u64).collect(),
        eval_seq_len: 96,
        prefill_len: 496 + rng.below(33),
        decode_context: 1008 + rng.below(33),
        slo: SloBudget {
            ttft_ms: 18_500.0,
            tpot_ms: 480.0,
        },
    }
}

/// The `paper_eval` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    pub schemes: Vec<SchemeSpec>,
    /// Seed of each one-sequence eval set a scheme is evaluated on.
    pub eval_seeds: Vec<u64>,
    pub eval_seq_len: usize,
    /// Prompt length of the simulated prefill.
    pub prefill_len: usize,
    /// KV context of the simulated decode step.
    pub decode_context: usize,
    pub slo: SloBudget,
}

/// Eval set the serving workloads report perplexity on, per seed.
pub const SERVE_EVAL: (usize, usize) = (4, 96);

/// The distinct schemes of a trace, sorted.
fn schemes_of(requests: &[GenerateRequest]) -> Vec<SchemeSpec> {
    let mut s: Vec<SchemeSpec> = requests.iter().map(|r| r.scheme).collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// `k` distinct indices below `n`, drawn from the seed, ascending.
pub fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Stream::new(seed ^ 0x4348_4543);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    let mut picked = all[..k].to_vec();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for name in NAMES {
            assert_eq!(Workload::parse(name).unwrap().name(), name);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(decode_long(3), decode_long(3));
        assert_ne!(decode_long(3).requests, decode_long(4).requests);
        assert_eq!(prefix_rag(3), prefix_rag(3));
        assert_ne!(prefix_rag(3).requests, prefix_rag(4).requests);
        assert_eq!(fleet_bursty(3), fleet_bursty(3));
        assert_ne!(fleet_bursty(3).bursts, fleet_bursty(4).bursts);
        assert_eq!(paper_eval(3), paper_eval(3));
        assert_ne!(paper_eval(3).eval_seeds, paper_eval(4).eval_seeds);
    }

    #[test]
    fn decode_long_prompts_and_outputs_are_in_range() {
        let plan = decode_long(11);
        assert_eq!(plan.requests.len(), 48);
        for r in &plan.requests {
            assert!((16..=32).contains(&r.prompt.len()));
            assert!((96..=160).contains(&r.max_new_tokens));
            assert!(r.prompt.iter().all(|&t| t < VOCAB));
        }
        assert_eq!(plan.schemes.len(), 3);
        assert!(plan.config.kv_quant && plan.config.kv_packed);
    }

    #[test]
    fn prefix_rag_prompts_open_with_a_shared_document() {
        let plan = prefix_rag(5);
        let mut docs: Vec<&[usize]> = plan
            .requests
            .iter()
            .map(|r| &r.prompt[..RAG_DOC_TOKENS])
            .collect();
        docs.sort_unstable();
        docs.dedup();
        assert_eq!(docs.len(), RAG_DOCS);
        for r in &plan.requests {
            assert!((RAG_DOC_TOKENS + 24..=RAG_DOC_TOKENS + 40).contains(&r.prompt.len()));
            assert_eq!(r.max_new_tokens, 8);
        }
        let arrivals: Vec<u64> = plan.requests.iter().map(|r| r.arrival_cycles).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fleet_bursts_have_a_fixed_size_and_differ() {
        let plan = fleet_bursty(9);
        assert_eq!(plan.bursts.len(), FLEET_BURSTS);
        for burst in &plan.bursts {
            assert_eq!(burst.len(), FLEET_BURST_REQUESTS);
            assert!(burst
                .windows(2)
                .all(|w| w[0].arrival_cycles <= w[1].arrival_cycles));
        }
        assert_ne!(plan.bursts[0], plan.bursts[1]);
        let total = FLEET_BURSTS * FLEET_BURST_REQUESTS;
        assert!(plan.check.iter().all(|&i| i < total));
    }

    #[test]
    fn paper_eval_lengths_stay_near_the_paper_operating_point() {
        for seed in 0..50 {
            let plan = paper_eval(seed);
            assert!((496..=528).contains(&plan.prefill_len));
            assert!((1008..=1040).contains(&plan.decode_context));
            assert_eq!(plan.schemes.len(), 11);
        }
    }

    #[test]
    fn samples_are_distinct_sorted_and_seeded() {
        let s = sample(1, 100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 100));
        assert_eq!(s, sample(1, 100, 10));
        assert_ne!(s, sample(2, 100, 10));
        assert_eq!(sample(1, 3, 10), vec![0, 1, 2]);
    }
}
