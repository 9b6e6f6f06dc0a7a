//! What a fleet run produces: per-replica serving reports plus
//! fleet-level SLO aggregates in wall-clock-comparable milliseconds.
//!
//! Per-replica numbers stay in that replica's own cycle domain (each
//! replica may run a different accelerator config and clock); the fleet
//! aggregates convert through each replica's `clock_ghz` so TTFT/TPOT
//! percentiles and goodput are comparable across a heterogeneous fleet.

use bbal_serve::{percentile, ServeReport};

/// A per-class service-level objective: deadlines on time-to-first-token
/// and time-per-output-token, in milliseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBudget {
    /// TTFT deadline in ms.
    pub ttft_ms: f64,
    /// TPOT deadline in ms (applied to requests with ≥ 2 tokens; a
    /// single-token request has no inter-token gap to measure).
    pub tpot_ms: f64,
}

/// One replica's slice of the fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSlice {
    /// The replica's name from its spec.
    pub name: String,
    /// Requests routed to this replica.
    pub routed: usize,
    /// The replica's full serving report, in its own cycle domain.
    pub report: ServeReport,
}

impl ReplicaSlice {
    /// Mean batch occupancy over the replica's busy ticks.
    pub fn occupancy(&self) -> f64 {
        self.report.mean_batch_occupancy()
    }

    /// The replica's makespan in milliseconds of simulated time.
    pub fn makespan_ms(&self) -> f64 {
        self.report.cycles_to_ms(self.report.total_cycles)
    }
}

/// The outcome of a fleet run: per-replica reports, the routing map,
/// and SLO-grade fleet aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One slice per replica, in replica order.
    pub replicas: Vec<ReplicaSlice>,
    /// For each request of the (arrival-ordered) input trace, which
    /// replica it went to and its id inside that replica's report.
    pub assignments: Vec<(usize, usize)>,
}

impl FleetReport {
    /// Iterates `(ttft_ms, tpot_ms if ≥2 tokens, served)` per routed
    /// request, already converted through its replica's clock.
    fn request_metrics(&self) -> impl Iterator<Item = RequestMetrics> + '_ {
        self.assignments.iter().map(|&(replica, local)| {
            let report = &self.replicas[replica].report;
            let r = &report.requests[local];
            RequestMetrics {
                served: r.rejected.is_none() && !r.tokens.is_empty(),
                ttft_ms: report.cycles_to_ms(r.ttft_cycles()),
                tpot_ms: (r.tokens.len() >= 2).then(|| r.tpot_cycles() * report.cycles_to_ms(1)),
            }
        })
    }

    /// Total tokens generated across the fleet.
    pub fn generated_tokens(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.report.generated_tokens())
            .sum()
    }

    /// Requests rejected anywhere in the fleet (context overflow or
    /// impossible KV footprint on the replica they were routed to).
    pub fn rejected(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.report.rejected().count())
            .sum()
    }

    /// The fleet makespan in milliseconds: the slowest replica's
    /// simulated finish time. Replicas run concurrently, so this is the
    /// fleet's wall-clock-equivalent duration.
    pub fn makespan_ms(&self) -> f64 {
        self.replicas
            .iter()
            .map(ReplicaSlice::makespan_ms)
            .fold(0.0, f64::max)
    }

    /// Aggregate fleet throughput: total generated tokens over the
    /// makespan. This is the number data parallelism scales — N idle
    /// replicas serving a saturating trace approach N× one replica.
    pub fn fleet_tokens_per_s(&self) -> f64 {
        let ms = self.makespan_ms();
        if ms <= 0.0 {
            0.0
        } else {
            self.generated_tokens() as f64 * 1.0e3 / ms
        }
    }

    /// Nearest-rank TTFT percentile in ms across every served request
    /// in the fleet (see [`bbal_serve::percentile`] for tie handling).
    /// 0 when nothing was served.
    pub fn ttft_percentile_ms(&self, p: f64) -> f64 {
        let samples: Vec<f64> = self
            .request_metrics()
            .filter(|m| m.served)
            .map(|m| m.ttft_ms)
            .collect();
        percentile(&samples, p).unwrap_or(0.0)
    }

    /// Nearest-rank TPOT percentile in ms across served requests with
    /// at least two tokens. 0 when no request qualifies.
    pub fn tpot_percentile_ms(&self, p: f64) -> f64 {
        let samples: Vec<f64> = self.request_metrics().filter_map(|m| m.tpot_ms).collect();
        percentile(&samples, p).unwrap_or(0.0)
    }

    /// Fraction of all routed requests that finished inside the budget
    /// (TTFT deadline, and TPOT deadline when measurable). Rejected
    /// requests count as missed.
    pub fn goodput(&self, slo: &SloBudget) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        let met = self.request_metrics().filter(|m| m.meets(slo)).count();
        met as f64 / self.assignments.len() as f64
    }

    /// Total ring-all-reduce wire bytes across every tensor-sharded
    /// replica (0 for a pure data-parallel fleet).
    pub fn interconnect_wire_bytes(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.report.interconnect_wire_bytes)
            .sum()
    }

    /// Total all-reduce collectives across the fleet.
    pub fn interconnect_allreduces(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.report.interconnect_allreduces)
            .sum()
    }

    /// Total interconnect energy across the fleet, picojoules.
    pub fn interconnect_energy_pj(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.report.interconnect_energy_pj)
            .sum()
    }
}

/// One routed request's SLO-relevant numbers in the fleet's common
/// millisecond domain.
struct RequestMetrics {
    served: bool,
    ttft_ms: f64,
    tpot_ms: Option<f64>,
}

impl RequestMetrics {
    fn meets(&self, slo: &SloBudget) -> bool {
        self.served && self.ttft_ms <= slo.ttft_ms && self.tpot_ms.is_none_or(|t| t <= slo.tpot_ms)
    }
}
