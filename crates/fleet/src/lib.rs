//! # bbal-fleet — multi-accelerator fleet serving
//!
//! `bbal-serve` schedules one accelerator. A deployment runs a *fleet*:
//! N accelerator arrays, each either serving its own request stream
//! (data parallelism) or ganged into a tensor-parallel group that
//! splits every GEMM (handled inside `bbal-serve` via
//! [`ServeConfig::with_tensor_shards`](bbal_serve::ServeConfig::with_tensor_shards)).
//! This crate is the data-parallel layer and the measurement apparatus
//! around it:
//!
//! * [`TraceConfig`] — a seeded workload generator: Poisson or
//!   bursty/diurnal arrivals, mixed prompt/output length distributions
//!   and scheme mixes, scaling from the repo's fixed 24-request traces
//!   to tens of thousands of requests, bit-reproducible from a `u64`
//!   seed;
//! * [`ReplicaSpec`] — one accelerator replica: a model, a
//!   [`ServeConfig`](bbal_serve::ServeConfig) (its own KV budget,
//!   admission policy, tensor-shard count and interconnect class), and
//!   a name for the report;
//! * [`RoutePolicy`]/[`Router`] — where each arriving request goes:
//!   round-robin, least-loaded (queue depth, then predicted free KV
//!   pages), or scheme-affinity (keep a scheme's traffic on replicas
//!   already serving it, so per-replica batches stay fusable);
//! * [`Fleet`] — owns N [`ServeRuntime`](bbal_serve::ServeRuntime)s and
//!   drives them through the streaming API (`begin`/`submit`/
//!   `step_until`/`finish`), advancing every replica's simulated clock
//!   to each arrival before routing it so the router sees the load each
//!   replica *would* have at that instant;
//! * [`FleetReport`] — SLO-grade aggregates across the fleet: p50/p99/
//!   p99.9 TTFT and TPOT in milliseconds, goodput under a per-class
//!   [`SloBudget`], per-replica occupancy and throughput, aggregate
//!   tokens/s at the fleet makespan, and total interconnect traffic
//!   from tensor-sharded replicas.
//!
//! ## Determinism
//!
//! Everything is seeded and single-threaded at the fleet level: the
//! same trace, replica specs and policy produce bit-identical reports.
//! A homogeneous single-replica fleet is *bit-identical* to calling
//! [`ServeRuntime::serve`](bbal_serve::ServeRuntime::serve) directly —
//! the fleet layer adds routing and measurement, never new scheduling
//! behaviour.
//!
//! ```
//! use bbal_fleet::{Fleet, ReplicaSpec, RoutePolicy, SloBudget, TraceConfig};
//!
//! // Two identical replicas of the tiny test model, least-loaded routing.
//! let mut fleet = Fleet::new(
//!     vec![
//!         ReplicaSpec::new("a0", "Tiny"),
//!         ReplicaSpec::new("a1", "Tiny"),
//!     ],
//!     RoutePolicy::LeastLoaded,
//! )?;
//!
//! // A seeded Poisson workload sized for the tiny model.
//! let trace = TraceConfig::tiny_test(24).generate(7);
//! let report = fleet.serve(&trace)?;
//! assert_eq!(report.assignments.len(), 24);
//! assert!(report.fleet_tokens_per_s() > 0.0);
//! let slo = SloBudget { ttft_ms: 1.0, tpot_ms: 1.0 };
//! assert!(report.goodput(&slo) <= 1.0);
//! # Ok::<(), bbal_fleet::FleetError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod fleet;
mod report;
mod router;
mod tracegen;

pub use fleet::{Fleet, ReplicaSpec};
pub use report::{FleetReport, ReplicaSlice, SloBudget};
pub use router::{ReplicaSignals, RoutePolicy, Router};
pub use tracegen::{ArrivalProcess, LengthDistribution, TraceConfig};

use bbal_serve::ServeError;
use std::fmt;

/// Errors from building or running a fleet.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A fleet needs at least one replica.
    NoReplicas,
    /// Building or driving one replica's serving runtime failed.
    Replica {
        /// The replica's name from its [`ReplicaSpec`].
        name: String,
        /// The underlying serving error.
        source: ServeError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoReplicas => write!(f, "a fleet needs at least one replica"),
            FleetError::Replica { name, source } => {
                write!(f, "replica {name}: {source}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Replica { source, .. } => Some(source),
            FleetError::NoReplicas => None,
        }
    }
}
