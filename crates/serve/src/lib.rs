//! # bbal-serve — continuous-batching serving on the simulated accelerator
//!
//! `bbal-session` gives one request at a time: build a
//! [`Session`](bbal_session::Session), prefill, decode. A production accelerator never runs like that — it
//! owns a *queue* of requests and decides, cycle by cycle, how to
//! interleave prefill and decode work across all of them. This crate is
//! that layer: the first subsystem above the single-session API.
//!
//! * [`GenerateRequest`] — a prompt, a token budget, a quantisation
//!   scheme and an arrival time (in accelerator cycles);
//! * [`ServeConfig`] — the scheduler knobs: batch budget, prefill chunk
//!   size, worker threads, admission policy;
//! * [`AdmissionPolicy`] — who gets the free batch slots each tick:
//!   plain FCFS, or scheme-affinity admission (prefer requests that fuse
//!   with the running batch, with an aging bound so nothing starves) —
//!   the difference between 2.2× and 4× aggregate throughput under
//!   mixed-scheme traffic;
//! * [`ServeRuntime`] — owns a [`SessionPool`] and a request queue, and
//!   steps a *continuous-batching* scheduler loop: each tick admits
//!   arrivals, tops the active batch up to the budget, advances every
//!   active request by one unit of work (a prefill chunk or a decode
//!   step), and executes those units on worker threads in parallel;
//! * [`ServeReport`] — what came out: per-request tokens and
//!   TTFT/TPOT/latency, aggregate throughput, batch-occupancy,
//!   queue-depth and KV pages-in-use traces, preemption counts and KV
//!   DRAM energy, in both wall-clock and simulated-hardware time.
//!
//! ## KV memory budget
//!
//! Every pooled session's KV cache draws fixed-size pages from one
//! shared [`bbal_llm::KvArena`]; [`ServeConfig::kv_budget`] caps the
//! pool, in pages or in bytes ([`bbal_llm::KvBudget`]). Every page has
//! one cost against it, and under a budget the scheduler (1) rejects —
//! in the report, not as an error — requests that could never complete
//! (context window overflow, or a worst-case footprint above the whole
//! budget), (2) admits only requests whose worst-case prefill cost fits
//! the arena's free space, and (3) *preempts* the youngest active
//! request when decode growth would exhaust the arena mid-run: its
//! pages are evicted, the request re-queued, and its feed sequence
//! replayed on re-admission. Greedy decoding is deterministic, so
//! preemption changes timelines and recompute cost, never tokens.
//!
//! ## Prefix caching
//!
//! With [`ServeConfig::kv_prefix_cache`] on (the default), a request
//! whose prefill completes publishes its prompt's full KV pages into
//! the arena's prefix index; a later request whose prompt opens with
//! the same token blocks *adopts* those pages by reference instead of
//! re-running prefill over them — the dominant win for traffic that
//! shares a system prompt. Sharing is copy-on-write at page
//! granularity and strictly block-aligned, and it is gated on the
//! scheme being chunk-invariant on the served model, so adopted and
//! recomputed prefixes are bit-identical by construction. The budget
//! machinery composes with it: admission charges a shared page once
//! across the batch (an adopter's worst case shrinks by the pages
//! another live request already holds), preemption returns private
//! pages but only drops references on shared ones, and index-only
//! (reclaimable) pages are evicted LRU-first whenever the scheduler
//! needs their space — so a tight budget squeezes the cache before it
//! ever preempts a request. [`ServeReport`] surfaces the effect as
//! per-request `shared_prefix_tokens`, the aggregate
//! [`kv_page_reuse_ratio`](ServeReport::kv_page_reuse_ratio), and the
//! unique-vs-logical page peaks.
//!
//! ## The cost model
//!
//! Every scheduler tick is costed against the same cycle-level simulator
//! the figure reproductions use (`bbal_accel::simulate_with`), at the
//! *paper-scale* decoder dimensions of the served model. Requests in the
//! same tick share the accelerator the way continuous batching shares it
//! on real hardware (ORCA-style selective batching): token rows from all
//! requests fuse into one batched GEMM for the weight-stationary
//! projections and FFN layers — the weights stream from DRAM once per
//! tick instead of once per request — while attention, whose operands
//! are per-request KV state, is costed per request. This is exactly why
//! batched decode throughput scales: single-request decode is bound by
//! streaming the weights for one token of work.
//!
//! ## Determinism
//!
//! Generation is greedy and every request runs on its own session, so
//! the tokens a request gets depend only on the request itself — not on
//! worker count, batch composition, or admission policy. The same trace
//! served with 1 or N workers, batched or sequential, FCFS or
//! scheme-affinity, yields per-request outputs bit-identical to a lone
//! [`Session::generate`](bbal_session::Session::generate). For schemes
//! whose activation statistics are *not* chunk-invariant on the served
//! model (see
//! [`Session::chunk_invariant_prefill`](bbal_session::Session::chunk_invariant_prefill)),
//! the scheduler feeds the whole prompt as a single chunk instead of
//! splitting it at `prefill_chunk`, because any other chunking would
//! shift the scheme's activation-statistics groups and change the
//! tokens.
//!
//! ```
//! use bbal_serve::{GenerateRequest, ServeConfig, ServeRuntime};
//! use bbal_session::SessionBuilder;
//!
//! let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
//! let mut runtime = ServeRuntime::new(template, ServeConfig::default())?;
//!
//! let trace = vec![
//!     GenerateRequest::new(vec![1, 2, 3], 4),
//!     GenerateRequest::new(vec![9, 8], 4).arriving_at(50_000),
//! ];
//! let report = runtime.serve(&trace)?;
//! assert_eq!(report.requests.len(), 2);
//! assert!(report.requests.iter().all(|r| r.tokens.len() == 4));
//! assert!(report.sim_tokens_per_s() > 0.0);
//! # Ok::<(), bbal_serve::ServeError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod policy;
mod pool;
mod report;
mod request;
mod runtime;

pub use config::ServeConfig;
pub use policy::{AdmissionPolicy, QueuedEntry};
pub use pool::SessionPool;
pub use report::{percentile, RequestReport, SchemeStats, ServeReport, TickTrace};
pub use request::GenerateRequest;
pub use runtime::ServeRuntime;

use bbal_session::SessionError;
use std::fmt;

/// Errors from configuring or running the serving runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A [`ServeConfig`] knob has an invalid value.
    Config {
        /// The offending knob.
        field: &'static str,
        /// Its value.
        value: usize,
    },
    /// A request in the trace is invalid (empty prompt, out-of-vocab
    /// token, zero token budget).
    Request {
        /// Index of the request in the submitted trace.
        index: usize,
        /// What is wrong with it.
        problem: String,
    },
    /// Building a pooled session or its accelerator model failed (e.g. a
    /// scheme with no hardware mapping cannot be cycle-costed).
    Session(SessionError),
    /// A work unit panicked inside the session tensor math. The worker
    /// thread survives, but the panicking request's session is lost.
    UnitPanicked,
    /// A worker thread disappeared mid-run (its channel closed).
    WorkerLost,
    /// A streaming run is already open ([`ServeRuntime::begin`] or
    /// [`ServeRuntime::serve`] while one is active).
    RunActive,
    /// No streaming run is open — call [`ServeRuntime::begin`] first.
    NoActiveRun,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config { field, value } => {
                write!(f, "invalid serve configuration: {field} = {value}")
            }
            ServeError::Request { index, problem } => {
                write!(f, "invalid request #{index}: {problem}")
            }
            ServeError::Session(e) => write!(f, "session error: {e}"),
            ServeError::UnitPanicked => {
                write!(f, "a work unit panicked mid-run (its session was lost)")
            }
            ServeError::WorkerLost => write!(f, "a worker thread disappeared mid-run"),
            ServeError::RunActive => write!(f, "a streaming run is already active"),
            ServeError::NoActiveRun => {
                write!(f, "no active streaming run — call begin() first")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> ServeError {
        ServeError::Session(e)
    }
}

/// The batched-tick cost model as the runtime charges it: a tick that
/// holds one request's work costs exactly the single-session op list,
/// so sequential serving costs what `Session::simulate_prefill` and
/// `Session::simulate_decode` report.
#[cfg(test)]
mod batch {
    mod tests {
        use crate::{GenerateRequest, ServeConfig, ServeReport, ServeRuntime};
        use bbal_session::SessionBuilder;

        const PROMPT: [usize; 5] = [4, 8, 15, 16, 23];
        const MAX_NEW: usize = 6;

        fn builder() -> SessionBuilder {
            SessionBuilder::new().model("Tiny").scheme("bbfp:4,2")
        }

        /// Serves one request alone; the whole prompt fits one chunk.
        fn lone_report() -> ServeReport {
            let config = ServeConfig {
                max_batch: 1,
                prefill_chunk: 32,
                ..ServeConfig::default()
            };
            let mut rt = ServeRuntime::new(builder(), config).expect("runtime builds");
            let report = rt
                .serve(&[GenerateRequest::new(PROMPT.to_vec(), MAX_NEW)])
                .expect("serve runs");
            // One prefill tick emits the first token; each later token
            // is one decode tick.
            assert_eq!(report.ticks.len(), MAX_NEW);
            report
        }

        #[test]
        fn single_decode_matches_decode_step_ops() {
            let report = lone_report();
            let session = builder().build().expect("session builds");
            for (i, tick) in report.ticks.iter().enumerate().skip(1) {
                assert_eq!(tick.decode_steps, 1);
                // Decode `i` attends over the prompt plus the `i`
                // tokens generated so far, the fed one included.
                let kv_len = PROMPT.len() + i;
                let want = session.simulate_decode(kv_len).unwrap().total_cycles();
                assert_eq!(tick.tick_cycles, want, "decode tick {i}, kv_len {kv_len}");
            }
        }

        #[test]
        fn single_whole_prompt_prefill_matches_decoder_ops() {
            let report = lone_report();
            let session = builder().build().expect("session builds");
            let tick = &report.ticks[0];
            assert_eq!(tick.prefill_tokens, PROMPT.len());
            assert_eq!(tick.decode_steps, 0);
            let want = session
                .simulate_prefill(PROMPT.len())
                .unwrap()
                .total_cycles();
            assert_eq!(tick.tick_cycles, want);
        }
    }
}
