//! Scheduler configuration.

use crate::policy::AdmissionPolicy;
use crate::ServeError;
use bbal_llm::KvBudget;
use bbal_mem::LinkClass;

/// Knobs of the continuous-batching scheduler.
///
/// * `max_batch` — the batch budget: how many requests may be active
///   (holding a pooled session, advancing every tick) at once. `1`
///   degenerates to sequential single-session serving — the baseline
///   the `serve_sweep` experiment compares against.
/// * `prefill_chunk` — how many prompt tokens one request may advance
///   per tick. Chunking keeps a long prompt from monopolising the
///   accelerator: decode steps of other requests interleave between
///   chunks, which is what bounds TTFT under mixed traffic.
/// * `workers` — worker threads executing the tick's tensor math: each
///   group of requests sharing a prepared model runs as at most
///   `workers` fused forwards, one per thread. Parallelism changes
///   wall-clock time only; generated tokens and
///   simulated cycle counts are identical for any worker count.
/// * `admission` — which queued requests take the free batch slots each
///   tick (see [`AdmissionPolicy`]). The default, FCFS, ignores schemes;
///   `SchemeAffinity` fills slots with requests that fuse with the
///   running batch, which is what mixed-scheme throughput needs.
/// * `kv_page_tokens` / `kv_budget` — the KV memory axis: every
///   pooled session's KV cache draws fixed-size pages of
///   `kv_page_tokens` rows from one shared arena, and `kv_budget` caps
///   what that arena may hand out, in pages or in bytes of page charges
///   ([`KvBudget`]; `None` = unbounded). Under a budget the scheduler
///   admits only requests whose worst-case prefill fits and *preempts*
///   the youngest request (evicting its pages, replaying it later,
///   outputs bit-identical) when decode growth would exhaust the arena
///   mid-run.
/// * `kv_prefix_cache` — whether prompt prefixes are cached in the
///   arena's prefix index and shared across requests (default on).
///   A request whose prompt starts with an already-computed prefix
///   adopts those pages instead of recomputing them: admission counts
///   shared pages once, prefill skips the adopted portion's compute and
///   KV writes, and TTFT collapses for shared-system-prompt traffic.
///   Sharing is restricted to chunk-invariant schemes, so outputs stay
///   bit-identical to a cold cache either way. Turn it off for the
///   cold-cache baseline `serve_sweep` compares against.
///
/// ```
/// use bbal_llm::KvBudget;
/// use bbal_serve::ServeConfig;
///
/// let config = ServeConfig::default();
/// assert_eq!((config.max_batch, config.prefill_chunk), (8, 32));
/// assert_eq!(config.kv_budget, None);
/// config.validate()?;
///
/// // The sequential baseline: one request at a time, same chunking.
/// let sequential = ServeConfig::sequential();
/// assert_eq!(sequential.max_batch, 1);
///
/// // A memory-budgeted runtime: 64 pages of 16 tokens, shared by the
/// // whole batch.
/// let tight = ServeConfig::default().with_kv_budget(64);
/// assert_eq!(tight.kv_budget, Some(KvBudget::Pages(64)));
/// tight.validate()?;
///
/// // Prefix caching is on by default; the cold-cache baseline turns
/// // it off.
/// assert!(config.kv_prefix_cache);
/// let cold = ServeConfig::default().with_kv_prefix_cache(false);
/// assert!(!cold.kv_prefix_cache);
///
/// // Knobs are validated, not trusted.
/// let broken = ServeConfig { max_batch: 0, ..ServeConfig::default() };
/// assert!(broken.validate().is_err());
/// # Ok::<(), bbal_serve::ServeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Batch budget: maximum concurrently active requests.
    pub max_batch: usize,
    /// Maximum prompt tokens a request advances per scheduler tick.
    pub prefill_chunk: usize,
    /// Worker threads driving session math in parallel.
    pub workers: usize,
    /// Admission policy: who gets the free batch slots each tick.
    pub admission: AdmissionPolicy,
    /// Tokens per KV page (the shared arena's granularity).
    pub kv_page_tokens: usize,
    /// KV arena budget across every active request, in pages or in
    /// bytes (`None` = unbounded — the pre-budget behaviour). Pages are
    /// charged at the byte size of the sessions' KV store, so a packed
    /// store fits more pages under the same byte budget — the
    /// equal-byte memory-pressure axis of `serve_sweep`.
    pub kv_budget: Option<KvBudget>,
    /// Whether requests share cached prompt-prefix pages through the
    /// arena's prefix index (copy-on-write; outputs bit-identical to a
    /// cold cache). `false` is the cold-cache baseline.
    pub kv_prefix_cache: bool,
    /// Quantise every cached K/V row through each session's scheme (the
    /// compressed-KV operating point; deterministic, chunking-invariant,
    /// but different numerics from the exact f32 cache). Default off.
    pub kv_quant: bool,
    /// Store KV pages in each scheme's packed block layout. Never
    /// changes any output token; with `kv_quant` it shrinks every
    /// page's byte charge to the scheme's packed size. Default off.
    pub kv_packed: bool,
    /// Tensor-parallel shards the tick cost model splits every GEMM
    /// across (Megatron column/row split, heads sharded for attention).
    /// `1` — the default — is a single array with zero interconnect
    /// traffic, bit-identical to the pre-sharding cost model. Sharding
    /// never changes tokens (the functional math is unsharded); it
    /// changes tick cycles, and adds two ring all-reduces per decoder
    /// layer per tick, costed on [`ServeConfig::interconnect`].
    pub tensor_shards: usize,
    /// The interconnect class the shard group's all-reduces are costed
    /// on. Irrelevant (zero traffic) when `tensor_shards == 1`.
    pub interconnect: LinkClass,
    /// Cap on retained [`TickTrace`](crate::TickTrace) entries. `None`
    /// — the default — keeps every tick (the pre-cap behaviour). Under
    /// `Some(cap)` the trace is decimated by stride doubling: when the
    /// buffer outgrows the cap, every other retained entry is dropped
    /// and only each `2ᵏ`-th tick is recorded from then on, so a
    /// million-tick fleet run holds at most `cap` entries, evenly
    /// spread, without ever reallocating unboundedly. Aggregates that
    /// read the trace (occupancy, queue depth) become samples; scalar
    /// report fields (peaks, totals, per-request metrics) are exact
    /// either way.
    pub max_trace_ticks: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            prefill_chunk: 32,
            workers: 2,
            admission: AdmissionPolicy::Fcfs,
            kv_page_tokens: bbal_llm::DEFAULT_PAGE_TOKENS,
            kv_budget: None,
            kv_prefix_cache: true,
            kv_quant: false,
            kv_packed: false,
            tensor_shards: 1,
            interconnect: LinkClass::Nvlink,
            max_trace_ticks: None,
        }
    }
}

impl ServeConfig {
    /// The sequential single-session baseline: batch budget 1, one
    /// worker, default chunking.
    pub fn sequential() -> ServeConfig {
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..ServeConfig::default()
        }
    }

    /// Returns a copy with a different batch budget — the `serve_sweep`
    /// sweep axis.
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch;
        self
    }

    /// Returns a copy with a different admission policy — the
    /// `serve_sweep` policy axis.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> ServeConfig {
        self.admission = admission;
        self
    }

    /// Returns a copy with a KV arena budget of `pages` in place of any
    /// other — the `serve_sweep` memory-pressure axis.
    pub fn with_kv_budget(mut self, pages: usize) -> ServeConfig {
        self.kv_budget = Some(KvBudget::Pages(pages));
        self
    }

    /// Returns a copy with a different KV page granularity.
    pub fn with_kv_page_tokens(mut self, tokens: usize) -> ServeConfig {
        self.kv_page_tokens = tokens;
        self
    }

    /// Returns a copy with a KV arena budget of `bytes` in place of any
    /// other — the equal-byte memory-pressure axis, where a packed KV
    /// store fits more pages than a dense one under the same budget.
    pub fn with_kv_budget_bytes(mut self, bytes: u64) -> ServeConfig {
        self.kv_budget = Some(KvBudget::Bytes(bytes));
        self
    }

    /// Returns a copy with KV-row quantisation switched on or off.
    pub fn with_kv_quant(mut self, on: bool) -> ServeConfig {
        self.kv_quant = on;
        self
    }

    /// Returns a copy with packed KV page storage switched on or off.
    pub fn with_kv_packed(mut self, on: bool) -> ServeConfig {
        self.kv_packed = on;
        self
    }

    /// Returns a copy with prefix caching switched on or off — `false`
    /// is the cold-cache baseline the `serve_sweep` shared-prompt
    /// scenario compares against.
    pub fn with_kv_prefix_cache(mut self, on: bool) -> ServeConfig {
        self.kv_prefix_cache = on;
        self
    }

    /// Returns a copy costed at `shards` tensor-parallel shards over
    /// `link` — the fleet's sharded-replica axis.
    pub fn with_tensor_shards(mut self, shards: usize, link: LinkClass) -> ServeConfig {
        self.tensor_shards = shards;
        self.interconnect = link;
        self
    }

    /// Returns a copy whose per-tick trace is decimated to at most
    /// `cap` retained entries (stride-doubling; see
    /// [`ServeConfig::max_trace_ticks`]).
    pub fn with_max_trace_ticks(mut self, cap: usize) -> ServeConfig {
        self.max_trace_ticks = Some(cap);
        self
    }

    /// Checks every knob is non-zero (including the aging bound of a
    /// scheme-affinity policy — `max_wait_ticks` of 0 would admit every
    /// request as overdue, which is FCFS spelled confusingly — and a
    /// KV budget of 0 pages, which could never hold any request).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (field, value) in [
            ("max_batch", self.max_batch),
            ("prefill_chunk", self.prefill_chunk),
            ("workers", self.workers),
            ("kv_page_tokens", self.kv_page_tokens),
            ("tensor_shards", self.tensor_shards),
        ] {
            if value == 0 {
                return Err(ServeError::Config { field, value });
            }
        }
        if let Some(budget) = self.kv_budget.filter(|b| b.limit() == 0) {
            let field = match budget {
                KvBudget::Pages(_) => "kv_budget_pages",
                KvBudget::Bytes(_) => "kv_budget_bytes",
            };
            return Err(ServeError::Config { field, value: 0 });
        }
        if self.max_trace_ticks == Some(0) {
            return Err(ServeError::Config {
                field: "max_trace_ticks",
                value: 0,
            });
        }
        if let AdmissionPolicy::SchemeAffinity { max_wait_ticks: 0 } = self.admission {
            return Err(ServeError::Config {
                field: "max_wait_ticks",
                value: 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::default().validate().unwrap();
        ServeConfig::sequential().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected_by_name() {
        let err = ServeConfig {
            prefill_chunk: 0,
            ..ServeConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err,
            ServeError::Config {
                field: "prefill_chunk",
                value: 0
            }
        );
    }

    #[test]
    fn with_max_batch_sets_only_the_budget() {
        let c = ServeConfig::default().with_max_batch(16);
        assert_eq!(c.max_batch, 16);
        assert_eq!(c.prefill_chunk, ServeConfig::default().prefill_chunk);
        assert_eq!(c.admission, AdmissionPolicy::Fcfs);
    }

    #[test]
    fn kv_knobs_are_validated() {
        let c = ServeConfig::default().with_kv_budget(0);
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "kv_budget_pages",
                value: 0
            }
        );
        let c = ServeConfig {
            kv_page_tokens: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "kv_page_tokens",
                value: 0
            }
        );
        ServeConfig::default()
            .with_kv_budget(1)
            .with_kv_page_tokens(4)
            .validate()
            .unwrap();
    }

    #[test]
    fn prefix_cache_defaults_on_and_toggles_off() {
        assert!(ServeConfig::default().kv_prefix_cache);
        let cold = ServeConfig::default().with_kv_prefix_cache(false);
        assert!(!cold.kv_prefix_cache);
        cold.validate().unwrap();
    }

    #[test]
    fn shard_and_trace_knobs_validate() {
        // Defaults preserve the single-array, full-trace behaviour.
        let d = ServeConfig::default();
        assert_eq!((d.tensor_shards, d.max_trace_ticks), (1, None));
        let c = ServeConfig {
            tensor_shards: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "tensor_shards",
                value: 0
            }
        );
        let c = ServeConfig::default().with_max_trace_ticks(0);
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "max_trace_ticks",
                value: 0
            }
        );
        ServeConfig::default()
            .with_tensor_shards(4, LinkClass::Pcie)
            .with_max_trace_ticks(128)
            .validate()
            .unwrap();
    }

    #[test]
    fn packed_kv_knobs_default_off_and_validate() {
        let d = ServeConfig::default();
        assert_eq!((d.kv_budget, d.kv_quant, d.kv_packed), (None, false, false));
        let c = ServeConfig::default().with_kv_budget_bytes(0);
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "kv_budget_bytes",
                value: 0
            }
        );
        ServeConfig::default()
            .with_kv_budget_bytes(1 << 20)
            .with_kv_quant(true)
            .with_kv_packed(true)
            .validate()
            .unwrap();
    }

    #[test]
    fn zero_aging_bound_is_rejected() {
        let c = ServeConfig::default()
            .with_admission(AdmissionPolicy::SchemeAffinity { max_wait_ticks: 0 });
        assert_eq!(
            c.validate().unwrap_err(),
            ServeError::Config {
                field: "max_wait_ticks",
                value: 0
            }
        );
        ServeConfig::default()
            .with_admission(AdmissionPolicy::SchemeAffinity { max_wait_ticks: 1 })
            .validate()
            .unwrap();
    }
}
