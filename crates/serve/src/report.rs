//! What a serving run produces: per-request outcomes, scheduler traces,
//! and aggregate throughput in simulated and wall-clock time.

use bbal_accel::EnergyBreakdown;
use bbal_core::SchemeSpec;
use bbal_llm::KvBudget;

/// Nearest-rank percentile of `values` (need not be sorted): the
/// element at 1-indexed sorted rank `⌈p/100 · n⌉`, clamped to `[1, n]`.
///
/// This is the classic nearest-rank definition — the result is always
/// an element of the sample, never an interpolation. Consequences worth
/// pinning down:
///
/// * `p = 0` (rank clamps to 1) returns the minimum; `p = 100` the
///   maximum; `p = 50` of `n = 2` returns the *smaller* element
///   (`⌈1⌉ = 1`), not their midpoint.
/// * Ties need no special casing: repeated values occupy consecutive
///   ranks, so an all-equal sample returns that value at every `p`.
/// * `n = 1` returns the lone element at every `p`.
///
/// NaN values sort last ([`f64::total_cmp`]); percentiles of clean data
/// are unaffected by the ordering rule. Returns `None` on an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    // Snap to the nearest integer before ceiling: `p/100 · n` for an
    // exactly-representable rank (99.9% of 1000 = 999) can land a hair
    // above it in binary and would otherwise ceil one rank too far.
    let raw = p / 100.0 * n as f64;
    let rank_f = if (raw - raw.round()).abs() < 1e-9 {
        raw.round()
    } else {
        raw.ceil()
    };
    let rank = (rank_f as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Outcome of one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestReport {
    /// Index of the request in the submitted trace.
    pub id: usize,
    /// Scheme it was served under.
    pub scheme: SchemeSpec,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// The generated tokens (greedy; `max_new_tokens` of them).
    pub tokens: Vec<usize>,
    /// Arrival time on the simulated clock, cycles.
    pub arrival_cycles: u64,
    /// Absolute simulated time the request was *first* admitted to the
    /// batch (given a session and a slot). Re-admissions after a
    /// preemption do not move it.
    pub admitted_cycles: u64,
    /// Scheduler top-ups that passed this request over: they left a
    /// batch slot unfilled, or admitted a request queued behind this
    /// one, while this one stayed queued. Always 0 under
    /// [`AdmissionPolicy::Fcfs`](crate::AdmissionPolicy::Fcfs) (FCFS
    /// admits strictly in queue order until the batch is full); under
    /// `SchemeAffinity` this is the aging counter the `max_wait_ticks`
    /// starvation bound applies to. Waiting on capacity — a full batch,
    /// or a KV arena without room for this request's worst-case
    /// prefill — does not count.
    pub passed_over_ticks: u64,
    /// Absolute simulated time the first token was produced.
    pub first_token_cycles: u64,
    /// Absolute simulated time the last token was produced.
    pub finish_cycles: u64,
    /// Times this request was preempted: its KV pages evicted to
    /// relieve arena pressure, the request re-queued and later replayed
    /// (outputs are bit-identical either way; preemption costs
    /// recompute cycles, not correctness).
    pub preemptions: u64,
    /// Prompt tokens adopted from the arena's prefix cache at the
    /// request's latest admission: KV rows another request (or an
    /// earlier incarnation of this one, before a preemption) already
    /// computed, whose prefill compute and KV writes were skipped
    /// entirely. 0 on a cold cache or with prefix caching off.
    pub shared_prefix_tokens: usize,
    /// `Some(reason)` when the request was rejected up front (context
    /// window exceeded, or a worst-case KV footprint no budget of this
    /// size could ever hold) and never scheduled. Rejected requests
    /// generate no tokens and are excluded from latency aggregates.
    pub rejected: Option<String>,
}

impl RequestReport {
    /// Time to first token: queueing delay plus prefill, cycles.
    pub fn ttft_cycles(&self) -> u64 {
        self.first_token_cycles.saturating_sub(self.arrival_cycles)
    }

    /// Mean time per output token after the first, cycles (0 for a
    /// single-token request).
    pub fn tpot_cycles(&self) -> f64 {
        if self.tokens.len() < 2 {
            0.0
        } else {
            self.finish_cycles.saturating_sub(self.first_token_cycles) as f64
                / (self.tokens.len() - 1) as f64
        }
    }

    /// End-to-end latency (arrival to last token), cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.finish_cycles.saturating_sub(self.arrival_cycles)
    }
}

/// One scheduler tick's trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickTrace {
    /// Simulated time the tick started at, cycles.
    pub start_cycles: u64,
    /// Simulated cost of the tick, cycles.
    pub tick_cycles: u64,
    /// Requests active in the batch this tick.
    pub active: usize,
    /// Requests waiting for a batch slot at the *end* of the tick:
    /// arrivals that landed inside the tick are counted (they queue
    /// until the next tick's top-up).
    pub queued: usize,
    /// Prompt tokens advanced this tick (prefill work).
    pub prefill_tokens: usize,
    /// Decode steps executed this tick.
    pub decode_steps: usize,
    /// Distinct schemes active this tick, sorted. Linear GEMM rows only
    /// fuse within a scheme, so each entry is one per-scheme op list on
    /// the simulated accelerator; fewer schemes per tick means wider
    /// fused GEMMs.
    pub schemes: Vec<SchemeSpec>,
    /// Unique KV pages held by the active requests at the end of the
    /// tick — pages shared through the prefix cache count *once*. This
    /// is the pages-in-use trace a memory budget is judged against
    /// (pages retained only by the prefix index are excluded: they are
    /// reclaimable the instant the budget needs them).
    pub kv_pages: usize,
    /// Logical KV pages at the end of the tick: every active request's
    /// page tables counted in full, shared pages once *per holder*.
    /// `kv_logical_pages - kv_pages` is the tick's sharing dividend;
    /// the two are equal when nothing is shared.
    pub kv_logical_pages: usize,
}

/// One scheme's slice of a serving run (see
/// [`ServeReport::scheme_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeStats {
    /// The scheme.
    pub scheme: SchemeSpec,
    /// Requests served under it.
    pub requests: usize,
    /// Tokens generated for them.
    pub tokens: usize,
    /// Their share of aggregate simulated throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Mean time to first token, ms.
    pub mean_ttft_ms: f64,
    /// Mean time per output token, ms (single-token requests excluded).
    pub mean_tpot_ms: f64,
}

/// Report of a whole serving run.
///
/// Equality deliberately ignores [`ServeReport::wall_ms`] (host
/// wall-clock, different every run), so `assert_eq!(run_a, run_b)`
/// checks exactly the crate's determinism guarantee: same requests,
/// same ticks, same simulated timeline.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request outcomes, in trace order.
    pub requests: Vec<RequestReport>,
    /// Per-tick scheduler trace (batch occupancy, queue depth, work mix).
    pub ticks: Vec<TickTrace>,
    /// Total simulated time of the run, cycles.
    pub total_cycles: u64,
    /// Accelerator clock the cycle counts are relative to, GHz.
    pub clock_ghz: f64,
    /// Total simulated accelerator energy, pJ.
    pub energy_pj: f64,
    /// Component-wise energy breakdown summed over every tick's
    /// per-scheme simulation, with
    /// [`kv_dram_pj`](bbal_accel::EnergyBreakdown::kv_dram_pj) filled
    /// from the KV traffic accounting — so
    /// `energy.total_pj() == total_energy_pj()` while
    /// [`ServeReport::energy_pj`] keeps the accelerator-only scalar.
    pub energy: EnergyBreakdown,
    /// Wall-clock time of the run (the tensor math on the host), ms.
    pub wall_ms: f64,
    /// Sessions the pool built from scratch.
    pub sessions_built: usize,
    /// Acquisitions served by recycling a pooled session.
    pub sessions_reused: usize,
    /// Tokens per KV page of the run's arena.
    pub kv_page_tokens: usize,
    /// The arena budget the run was served under (`None` = unbounded).
    /// A byte budget is judged against actual packed page charges, so
    /// it admits more compressed-scheme pages than f32 ones.
    pub kv_budget: Option<KvBudget>,
    /// Most *unique* KV pages in use at any tick end (shared pages
    /// counted once — what the arena budget is judged against).
    pub peak_kv_pages: usize,
    /// Most *logical* KV pages at any tick end (shared pages counted
    /// once per holding request). The gap to
    /// [`ServeReport::peak_kv_pages`] is the memory the prefix cache
    /// saved at the run's high-water mark.
    pub peak_logical_kv_pages: usize,
    /// Byte twin of [`ServeReport::peak_kv_pages`]: most *unique* KV
    /// bytes charged at any tick end, at each page's actual packed
    /// capacity. With packed storage off every page charges its dense
    /// f32 capacity; the ratio between the two configurations is the
    /// run's measured KV compression.
    pub peak_kv_bytes: u64,
    /// Byte twin of [`ServeReport::peak_logical_kv_pages`]: page
    /// charges summed once per holding request.
    pub peak_logical_kv_bytes: u64,
    /// Total preemptions across all requests.
    pub preemptions: u64,
    /// KV bytes read from DRAM (attention streaming cached K/V at the
    /// simulated paper-scale dimensions).
    pub kv_read_bytes: u64,
    /// KV bytes written to DRAM (new K/V rows).
    pub kv_write_bytes: u64,
    /// DRAM energy of the KV traffic, pJ. Reported alongside
    /// [`ServeReport::energy_pj`] (which keeps the operator-level
    /// simulator's estimate, whose per-GEMM DRAM model already streams
    /// attention operands generically); [`ServeReport::total_energy_pj`]
    /// is the sum.
    pub kv_dram_energy_pj: f64,
    /// Tensor-parallel shards the run was costed at (1 = a single
    /// array, no interconnect traffic).
    pub tensor_shards: usize,
    /// Ring all-reduces performed across the shard group (two per
    /// decoder layer per tick when `tensor_shards > 1`, zero otherwise).
    pub interconnect_allreduces: u64,
    /// Total bytes the all-reduces put on the interconnect, summed over
    /// every link.
    pub interconnect_wire_bytes: u64,
    /// Transfer energy of the interconnect traffic, pJ. Like
    /// [`ServeReport::kv_dram_energy_pj`], a separate meter on top of
    /// the operator-level simulator; [`ServeReport::total_energy_pj`]
    /// includes it.
    pub interconnect_energy_pj: f64,
}

impl PartialEq for ServeReport {
    fn eq(&self, other: &ServeReport) -> bool {
        self.requests == other.requests
            && self.ticks == other.ticks
            && self.total_cycles == other.total_cycles
            && self.clock_ghz == other.clock_ghz
            && self.energy_pj == other.energy_pj
            && self.sessions_built == other.sessions_built
            && self.sessions_reused == other.sessions_reused
            && self.kv_page_tokens == other.kv_page_tokens
            && self.kv_budget == other.kv_budget
            && self.peak_kv_pages == other.peak_kv_pages
            && self.peak_logical_kv_pages == other.peak_logical_kv_pages
            && self.peak_kv_bytes == other.peak_kv_bytes
            && self.peak_logical_kv_bytes == other.peak_logical_kv_bytes
            && self.preemptions == other.preemptions
            && self.kv_read_bytes == other.kv_read_bytes
            && self.kv_write_bytes == other.kv_write_bytes
            && self.kv_dram_energy_pj == other.kv_dram_energy_pj
            && self.tensor_shards == other.tensor_shards
            && self.interconnect_allreduces == other.interconnect_allreduces
            && self.interconnect_wire_bytes == other.interconnect_wire_bytes
            && self.interconnect_energy_pj == other.interconnect_energy_pj
            && self.energy == other.energy
    }
}

impl ServeReport {
    /// Converts a cycle count to milliseconds at the report's clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1.0e6)
    }

    /// The requests that were actually scheduled (not rejected up
    /// front). Latency/throughput aggregates run over these.
    pub fn served(&self) -> impl Iterator<Item = &RequestReport> {
        self.requests.iter().filter(|r| r.rejected.is_none())
    }

    /// The requests rejected up front (context window / impossible KV
    /// footprint), with their reasons.
    pub fn rejected(&self) -> impl Iterator<Item = &RequestReport> {
        self.requests.iter().filter(|r| r.rejected.is_some())
    }

    /// Total KV bytes moved over the DRAM channel (reads + writes).
    pub fn kv_bytes_moved(&self) -> u64 {
        self.kv_read_bytes + self.kv_write_bytes
    }

    /// Accelerator energy plus KV DRAM energy plus interconnect
    /// energy, pJ. (The [`ServeReport::energy`] component breakdown
    /// matches this total exactly when `tensor_shards == 1`; sharded
    /// runs add the interconnect meter on top.)
    pub fn total_energy_pj(&self) -> f64 {
        self.energy_pj + self.kv_dram_energy_pj + self.interconnect_energy_pj
    }

    /// Total generated tokens across all requests.
    pub fn generated_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.tokens.len()).sum()
    }

    /// Total prompt tokens served from the prefix cache instead of
    /// being recomputed (each request's latest admission).
    pub fn shared_prefix_tokens(&self) -> usize {
        self.served().map(|r| r.shared_prefix_tokens).sum()
    }

    /// Fraction of prompt KV pages served from the prefix cache:
    /// adopted prompt pages over total prompt pages, across the served
    /// requests. 0.0 for fully-cold traffic, approaching 1.0 when every
    /// prompt is one shared system prompt. (Adoption is block-granular,
    /// so per request this is `⌊shared/page⌋ / ⌈prompt/page⌉`; the
    /// per-layer factor cancels.)
    pub fn kv_page_reuse_ratio(&self) -> f64 {
        let pt = self.kv_page_tokens;
        let shared: usize = self.served().map(|r| r.shared_prefix_tokens / pt).sum();
        let total: usize = self.served().map(|r| r.prompt_len.div_ceil(pt)).sum();
        if total == 0 {
            0.0
        } else {
            shared as f64 / total as f64
        }
    }

    /// Aggregate throughput on the simulated accelerator, tokens/s.
    pub fn sim_tokens_per_s(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.generated_tokens() as f64 * self.clock_ghz * 1.0e9 / self.total_cycles as f64
        }
    }

    /// Host-side throughput of the tensor math, tokens/s (varies with
    /// worker count and machine; the simulated number is the result).
    pub fn wall_tokens_per_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.generated_tokens() as f64 * 1.0e3 / self.wall_ms
        }
    }

    /// Mean time to first token, ms.
    pub fn mean_ttft_ms(&self) -> f64 {
        self.mean_over_requests(|r| self.cycles_to_ms(r.ttft_cycles()))
    }

    /// Nearest-rank percentile of time to first token over the served
    /// requests, ms (see [`percentile`]; `p` in `[0, 100]`, e.g. `99.9`
    /// for p999). 0.0 when nothing was served.
    pub fn ttft_percentile_ms(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .served()
            .map(|r| self.cycles_to_ms(r.ttft_cycles()))
            .collect();
        percentile(&v, p).unwrap_or(0.0)
    }

    /// Nearest-rank percentile of per-request mean time per output
    /// token, ms. Follows the same rule as [`ServeReport::mean_tpot_ms`]:
    /// single-token requests have no inter-token interval and are
    /// excluded. 0.0 if no request produced a second token.
    pub fn tpot_percentile_ms(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .requests
            .iter()
            .filter(|r| r.tokens.len() >= 2)
            .map(|r| r.tpot_cycles() / (self.clock_ghz * 1.0e6))
            .collect();
        percentile(&v, p).unwrap_or(0.0)
    }

    /// Mean time per output token, ms, over the requests that *have* an
    /// inter-token interval. Single-token requests are excluded — their
    /// [`RequestReport::tpot_cycles`] degenerates to 0, which would drag
    /// the mean below every actual inter-token gap. 0.0 if no request
    /// produced a second token.
    pub fn mean_tpot_ms(&self) -> f64 {
        self.tpot_mean_over(self.requests.iter())
    }

    /// The singleton-excluding TPOT mean over any slice of the requests
    /// (shared by [`ServeReport::mean_tpot_ms`] and
    /// [`ServeReport::scheme_breakdown`] so the rule cannot drift).
    /// Rejected requests have no tokens, so they never contribute.
    fn tpot_mean_over<'a>(&self, requests: impl Iterator<Item = &'a RequestReport>) -> f64 {
        let multi: Vec<f64> = requests
            .filter(|r| r.tokens.len() >= 2)
            .map(|r| r.tpot_cycles() / (self.clock_ghz * 1.0e6))
            .collect();
        if multi.is_empty() {
            0.0
        } else {
            multi.iter().sum::<f64>() / multi.len() as f64
        }
    }

    /// Mean end-to-end request latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.mean_over_requests(|r| self.cycles_to_ms(r.latency_cycles()))
    }

    /// Cycle-weighted mean batch occupancy (active requests per tick).
    pub fn mean_batch_occupancy(&self) -> f64 {
        let weighted: f64 = self
            .ticks
            .iter()
            .map(|t| t.active as f64 * t.tick_cycles as f64)
            .sum();
        let cycles: f64 = self.ticks.iter().map(|t| t.tick_cycles as f64).sum();
        if cycles == 0.0 {
            0.0
        } else {
            weighted / cycles
        }
    }

    /// Deepest the waiting queue got across the run.
    pub fn max_queue_depth(&self) -> usize {
        self.ticks.iter().map(|t| t.queued).max().unwrap_or(0)
    }

    /// How often the set of active schemes changed between consecutive
    /// ticks. Every switch re-shapes the per-scheme op lists; a
    /// scheme-affinity admission policy exists to keep this low.
    pub fn scheme_switches(&self) -> usize {
        self.ticks
            .windows(2)
            .filter(|w| w[0].schemes != w[1].schemes)
            .count()
    }

    /// Mean token rows per fused linear GEMM: each tick contributes its
    /// total rows (prefill tokens + decode steps) divided by its number
    /// of per-scheme groups, weighted by the tick's simulated cycles.
    /// This is the direct measure of the batching dividend: a pure
    /// sequential decode tick carries 1 row (prefill ticks carry up to
    /// `prefill_chunk`), and mixed-scheme FCFS traffic sits well below
    /// a single-scheme batch of the same budget.
    ///
    /// The host batches the same way: each per-scheme group of a tick
    /// runs as one fused forward, so with one worker this is also the
    /// mean row count of the host's packed weight GEMMs (with several
    /// workers a group is split into up to that many jobs, each with its
    /// share of the rows).
    pub fn mean_fused_rows_per_gemm(&self) -> f64 {
        let mut rows_weighted = 0.0;
        let mut cycles = 0.0;
        for t in &self.ticks {
            if t.schemes.is_empty() {
                continue;
            }
            let rows = (t.prefill_tokens + t.decode_steps) as f64 / t.schemes.len() as f64;
            rows_weighted += rows * t.tick_cycles as f64;
            cycles += t.tick_cycles as f64;
        }
        if cycles == 0.0 {
            0.0
        } else {
            rows_weighted / cycles
        }
    }

    /// Per-scheme outcome breakdown, sorted by scheme: how each slice of
    /// the traffic fared. Throughput is each scheme's share of the
    /// aggregate (its tokens over the whole run's span). Rejected
    /// requests are excluded.
    pub fn scheme_breakdown(&self) -> Vec<SchemeStats> {
        let mut schemes: Vec<SchemeSpec> = self.served().map(|r| r.scheme).collect();
        schemes.sort_unstable();
        schemes.dedup();
        schemes
            .into_iter()
            .map(|scheme| {
                let reqs: Vec<&RequestReport> =
                    self.served().filter(|r| r.scheme == scheme).collect();
                let tokens: usize = reqs.iter().map(|r| r.tokens.len()).sum();
                let tokens_per_s = if self.total_cycles == 0 {
                    0.0
                } else {
                    tokens as f64 * self.clock_ghz * 1.0e9 / self.total_cycles as f64
                };
                let mean_ttft_ms = reqs
                    .iter()
                    .map(|r| self.cycles_to_ms(r.ttft_cycles()))
                    .sum::<f64>()
                    / reqs.len() as f64;
                let mean_tpot_ms = self.tpot_mean_over(reqs.iter().copied());
                SchemeStats {
                    scheme,
                    requests: reqs.len(),
                    tokens,
                    tokens_per_s,
                    mean_ttft_ms,
                    mean_tpot_ms,
                }
            })
            .collect()
    }

    fn mean_over_requests(&self, f: impl Fn(&RequestReport) -> f64) -> f64 {
        let served: Vec<&RequestReport> = self.served().collect();
        if served.is_empty() {
            return 0.0;
        }
        served.iter().map(|r| f(r)).sum::<f64>() / served.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServeReport {
        ServeReport {
            requests: vec![
                RequestReport {
                    id: 0,
                    scheme: SchemeSpec::BBAL_PAPER,
                    prompt_len: 4,
                    tokens: vec![1, 2, 3],
                    arrival_cycles: 0,
                    admitted_cycles: 0,
                    passed_over_ticks: 0,
                    first_token_cycles: 1_000_000,
                    finish_cycles: 3_000_000,
                    preemptions: 0,
                    shared_prefix_tokens: 0,
                    rejected: None,
                },
                RequestReport {
                    id: 1,
                    scheme: SchemeSpec::Bfp(4),
                    prompt_len: 2,
                    tokens: vec![7],
                    arrival_cycles: 500_000,
                    admitted_cycles: 1_000_000,
                    passed_over_ticks: 0,
                    first_token_cycles: 2_000_000,
                    finish_cycles: 2_000_000,
                    preemptions: 0,
                    shared_prefix_tokens: 0,
                    rejected: None,
                },
            ],
            ticks: vec![
                TickTrace {
                    start_cycles: 0,
                    tick_cycles: 1_000_000,
                    active: 1,
                    queued: 1,
                    prefill_tokens: 4,
                    decode_steps: 0,
                    schemes: vec![SchemeSpec::BBAL_PAPER],
                    kv_pages: 1,
                    kv_logical_pages: 1,
                },
                TickTrace {
                    start_cycles: 1_000_000,
                    tick_cycles: 2_000_000,
                    active: 2,
                    queued: 0,
                    prefill_tokens: 2,
                    decode_steps: 2,
                    schemes: vec![SchemeSpec::BBAL_PAPER, SchemeSpec::Bfp(4)],
                    kv_pages: 2,
                    kv_logical_pages: 2,
                },
            ],
            total_cycles: 3_000_000,
            clock_ghz: 1.0,
            energy_pj: 42.0,
            energy: EnergyBreakdown {
                static_pj: 2.0,
                dram_pj: 20.0,
                buffer_pj: 10.0,
                core_pj: 10.0,
                kv_dram_pj: 6.0,
            },
            wall_ms: 8.0,
            sessions_built: 2,
            sessions_reused: 0,
            kv_page_tokens: 16,
            kv_budget: None,
            peak_kv_pages: 2,
            peak_logical_kv_pages: 2,
            peak_kv_bytes: 1024,
            peak_logical_kv_bytes: 1024,
            preemptions: 0,
            kv_read_bytes: 96,
            kv_write_bytes: 32,
            kv_dram_energy_pj: 6.0,
            tensor_shards: 1,
            interconnect_allreduces: 0,
            interconnect_wire_bytes: 0,
            interconnect_energy_pj: 0.0,
        }
    }

    #[test]
    fn percentile_nearest_rank_edges() {
        // Empty: undefined.
        assert_eq!(percentile(&[], 50.0), None);
        // n = 1: the lone element at every p.
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[3.5], p), Some(3.5));
        }
        // n = 2: nearest rank takes the *smaller* element at p50
        // (rank ⌈0.5·2⌉ = 1), the larger from p51 up.
        assert_eq!(percentile(&[8.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[8.0, 2.0], 50.1), Some(8.0));
        assert_eq!(percentile(&[8.0, 2.0], 0.0), Some(2.0));
        assert_eq!(percentile(&[8.0, 2.0], 100.0), Some(8.0));
        // All-equal: ties collapse to the value at every p.
        let same = [4.0; 7];
        for p in [0.0, 10.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&same, p), Some(4.0));
        }
        // A real tail: p99/p999 of 0..1000 pick elements, never
        // interpolations.
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), Some(499.0));
        assert_eq!(percentile(&v, 99.0), Some(989.0));
        assert_eq!(percentile(&v, 99.9), Some(998.0));
        assert_eq!(percentile(&v, 100.0), Some(999.0));
    }

    #[test]
    fn report_percentiles_follow_the_served_requests() {
        let r = report();
        // TTFTs are 1.0 ms and 1.5 ms; p50 nearest-rank = 1.0, p100 = 1.5.
        assert_eq!(r.ttft_percentile_ms(50.0), 1.0);
        assert_eq!(r.ttft_percentile_ms(100.0), 1.5);
        // Only request 0 has an inter-token interval: every TPOT
        // percentile is its 1.0 ms.
        assert_eq!(r.tpot_percentile_ms(50.0), 1.0);
        assert_eq!(r.tpot_percentile_ms(99.9), 1.0);
        // No multi-token requests -> no defined TPOT percentile.
        let mut singles = report();
        singles.requests.retain(|q| q.tokens.len() < 2);
        assert_eq!(singles.tpot_percentile_ms(99.0), 0.0);
    }

    #[test]
    fn per_request_metrics() {
        let r = report();
        assert_eq!(r.requests[0].ttft_cycles(), 1_000_000);
        assert_eq!(r.requests[0].tpot_cycles(), 1_000_000.0);
        assert_eq!(r.requests[0].latency_cycles(), 3_000_000);
        // Single-token request: TPOT degenerates to zero.
        assert_eq!(r.requests[1].tpot_cycles(), 0.0);
        assert_eq!(r.requests[1].ttft_cycles(), 1_500_000);
    }

    #[test]
    fn tpot_mean_excludes_single_token_requests() {
        // Request 1 generated a single token: it has no inter-token
        // interval, so the mean must come from request 0 alone
        // (1M cycles/token at 1 GHz = 1 ms), not be dragged to 0.5 ms by
        // a hard 0.0 for the singleton.
        let r = report();
        assert!((r.mean_tpot_ms() - 1.0).abs() < 1e-12);
        // A report of only single-token requests has no defined TPOT.
        let mut singles = report();
        singles.requests.retain(|q| q.tokens.len() < 2);
        assert_eq!(singles.mean_tpot_ms(), 0.0);
    }

    #[test]
    fn scheme_breakdown_splits_the_traffic() {
        let r = report();
        let by_scheme = r.scheme_breakdown();
        assert_eq!(by_scheme.len(), 2);
        let bbal = &by_scheme[1];
        assert_eq!(bbal.scheme, SchemeSpec::BBAL_PAPER);
        assert_eq!((bbal.requests, bbal.tokens), (1, 3));
        assert!((bbal.mean_tpot_ms - 1.0).abs() < 1e-12);
        let bfp = &by_scheme[0];
        assert_eq!(bfp.scheme, SchemeSpec::Bfp(4));
        assert_eq!((bfp.requests, bfp.tokens), (1, 1));
        // Singleton slice: no TPOT, but TTFT is defined.
        assert_eq!(bfp.mean_tpot_ms, 0.0);
        assert!((bfp.mean_ttft_ms - 1.5).abs() < 1e-12);
        // Shares sum to the aggregate throughput.
        let share_sum: f64 = by_scheme.iter().map(|s| s.tokens_per_s).sum();
        assert!((share_sum - r.sim_tokens_per_s()).abs() < 1e-9);
    }

    #[test]
    fn scheme_switches_and_fusion_follow_the_tick_trace() {
        let r = report();
        // Tick 1 runs {bbal}, tick 2 runs {bbal, bfp4}: one switch.
        assert_eq!(r.scheme_switches(), 1);
        // Tick 1: 4 rows / 1 scheme over 1M cycles; tick 2: 4 rows / 2
        // schemes over 2M cycles -> (4*1 + 2*2) / 3.
        assert!((r.mean_fused_rows_per_gemm() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejected_requests_are_excluded_from_aggregates() {
        let mut r = report();
        let clean_ttft = r.mean_ttft_ms();
        let clean_breakdown = r.scheme_breakdown().len();
        r.requests.push(RequestReport {
            id: 2,
            scheme: SchemeSpec::Oltron,
            prompt_len: 9_999,
            tokens: vec![],
            arrival_cycles: 0,
            admitted_cycles: 0,
            passed_over_ticks: 0,
            first_token_cycles: 0,
            finish_cycles: 0,
            preemptions: 0,
            shared_prefix_tokens: 0,
            rejected: Some("context window exceeded".to_owned()),
        });
        assert_eq!(r.served().count(), 2);
        assert_eq!(r.rejected().count(), 1);
        // A rejected request (zero timestamps, zero tokens) must not
        // drag the means or grow the breakdown.
        assert_eq!(r.mean_ttft_ms(), clean_ttft);
        assert_eq!(r.scheme_breakdown().len(), clean_breakdown);
        assert_eq!(r.generated_tokens(), 4);
    }

    #[test]
    fn kv_accounting_totals() {
        let r = report();
        assert_eq!(r.kv_bytes_moved(), 128);
        assert_eq!(r.total_energy_pj(), 48.0);
        // The component breakdown carries the KV fold and agrees with
        // the scalar totals.
        assert_eq!(r.energy.kv_dram_pj, r.kv_dram_energy_pj);
        assert_eq!(r.energy.total_pj(), r.total_energy_pj());
        assert_eq!(r.peak_kv_pages, 2);
        assert_eq!(r.ticks.iter().map(|t| t.kv_pages).max().unwrap(), 2);
    }

    #[test]
    fn prefix_reuse_ratio_counts_adopted_prompt_pages() {
        let mut r = report();
        assert_eq!(r.shared_prefix_tokens(), 0);
        assert_eq!(r.kv_page_reuse_ratio(), 0.0);
        // pt = 16: request 0 adopts 16 of a 32-token prompt (1 of its 2
        // pages), request 1 its whole 16-token prompt (1 of 1).
        r.requests[0].prompt_len = 32;
        r.requests[0].shared_prefix_tokens = 16;
        r.requests[1].prompt_len = 16;
        r.requests[1].shared_prefix_tokens = 16;
        assert_eq!(r.shared_prefix_tokens(), 32);
        assert!((r.kv_page_reuse_ratio() - 2.0 / 3.0).abs() < 1e-12);
        // Rejected requests contribute to neither side of the ratio.
        r.requests[1].rejected = Some("too big".to_owned());
        assert!((r.kv_page_reuse_ratio() - 1.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_metrics() {
        let r = report();
        assert_eq!(r.generated_tokens(), 4);
        // 4 tokens over 3M cycles at 1 GHz = 3 ms.
        let tps = r.sim_tokens_per_s();
        assert!((tps - 4.0 / 3.0e-3).abs() / tps < 1e-9);
        assert_eq!(r.wall_tokens_per_s(), 500.0);
        assert_eq!(r.max_queue_depth(), 1);
        // Occupancy: (1*1M + 2*2M) / 3M.
        assert!((r.mean_batch_occupancy() - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.cycles_to_ms(1_000_000), 1.0);
    }
}
