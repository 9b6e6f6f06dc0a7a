//! The fleet proper: N serving runtimes, one router, one simulated
//! timeline.
//!
//! Each replica is an independent [`ServeRuntime`] with its own clock,
//! session pool and KV arena. The fleet drives them through the
//! streaming API: requests are processed in arrival order; before a
//! request is routed, every replica's clock is advanced to (but never
//! past) that arrival, so the router's load signals are exactly what
//! each replica would report at that instant. With a single replica no
//! routing decision exists, so the fleet submits the whole trace
//! upfront — making a 1-replica fleet bit-identical to
//! [`ServeRuntime::serve`] by construction.

use crate::report::{FleetReport, ReplicaSlice};
use crate::router::{ReplicaSignals, RoutePolicy, Router};
use crate::FleetError;
use bbal_serve::{GenerateRequest, ServeConfig, ServeError, ServeRuntime};
use bbal_session::SessionBuilder;
use std::collections::HashMap;

/// One replica's build recipe: a name for the report, the model it
/// serves, and its serving configuration (KV budget, admission policy,
/// tensor-shard count, interconnect class — every [`ServeConfig`]
/// knob). A fleet may mix heterogeneous specs freely.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Name surfaced in the [`FleetReport`].
    pub name: String,
    /// Model zoo name (`"Tiny"`, `"Llama-7B"`, …).
    pub model: String,
    /// The replica's scheduler and memory configuration.
    pub config: ServeConfig,
}

impl ReplicaSpec {
    /// A replica of `model` under the default [`ServeConfig`].
    pub fn new(name: impl Into<String>, model: impl Into<String>) -> ReplicaSpec {
        ReplicaSpec {
            name: name.into(),
            model: model.into(),
            config: ServeConfig::default(),
        }
    }

    /// Sets the serving configuration.
    pub fn with_config(mut self, config: ServeConfig) -> ReplicaSpec {
        self.config = config;
        self
    }
}

struct Replica {
    name: String,
    runtime: ServeRuntime,
    routed: usize,
}

/// A data-parallel fleet of serving replicas behind one router.
pub struct Fleet {
    replicas: Vec<Replica>,
    router: Router,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.replicas.len())
            .field("policy", &self.router.policy())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Builds every replica's runtime and a router over them.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoReplicas`] on an empty spec list;
    /// [`FleetError::Replica`] if a runtime fails to build (unknown
    /// model, invalid config).
    pub fn new(specs: Vec<ReplicaSpec>, policy: RoutePolicy) -> Result<Fleet, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::NoReplicas);
        }
        let count = specs.len();
        // Replicas of one model share one resolved template, so the fleet
        // holds one copy of each model's weights (and of each prepared
        // scheme) however many replicas serve it.
        let mut templates: HashMap<String, SessionBuilder> = HashMap::new();
        let replicas = specs
            .into_iter()
            .map(|spec| {
                let template = match templates.get(&spec.model) {
                    Some(t) => Ok(t.clone()),
                    None => SessionBuilder::new()
                        .model(&spec.model)
                        .resolve_model()
                        .map(|t| templates.entry(spec.model.clone()).or_insert(t).clone())
                        .map_err(ServeError::from),
                };
                let runtime = template
                    .and_then(|t| ServeRuntime::new(t, spec.config))
                    .map_err(|source| FleetError::Replica {
                        name: spec.name.clone(),
                        source,
                    })?;
                Ok(Replica {
                    name: spec.name,
                    runtime,
                    routed: 0,
                })
            })
            .collect::<Result<Vec<_>, FleetError>>()?;
        Ok(Fleet {
            replicas,
            router: Router::new(policy, count),
        })
    }

    /// Number of replicas in the fleet.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet has no replicas (never true for a built fleet).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Serves a trace across the fleet and reports it.
    ///
    /// Requests are processed in arrival order (ties in trace order).
    /// For each request, every replica's simulated clock first advances
    /// to (never past) the arrival, the router places the request on
    /// the resulting load signals, and the request is submitted to the
    /// chosen replica. After the last submission each replica drains to
    /// completion. `assignments[i]` maps the i-th request *of the
    /// arrival-sorted trace* to `(replica, local id)`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Replica`] wrapping the failing replica's
    /// [`ServeError`](bbal_serve::ServeError); in-flight sessions are
    /// recovered by the runtime's own abort path.
    pub fn serve(&mut self, requests: &[GenerateRequest]) -> Result<FleetReport, FleetError> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival_cycles, i));

        for r in &mut self.replicas {
            let name = r.name.clone();
            r.routed = 0;
            r.runtime
                .begin()
                .map_err(|source| FleetError::Replica { name, source })?;
        }
        let mut assignments = vec![(0usize, 0usize); requests.len()];
        let single = self.replicas.len() == 1;
        for (pos, &idx) in order.iter().enumerate() {
            let req = &requests[idx];
            // Advance every replica to this arrival so the routing
            // signals are current. Skipped for a single replica: with
            // no decision to make, submitting the whole trace upfront
            // keeps the run bit-identical to `ServeRuntime::serve`.
            if !single {
                for r in &mut self.replicas {
                    let name = r.name.clone();
                    r.runtime
                        .step_until(req.arrival_cycles)
                        .map_err(|source| FleetError::Replica { name, source })?;
                }
            }
            let signals: Vec<ReplicaSignals> = self
                .replicas
                .iter()
                .map(|r| ReplicaSignals {
                    queue_depth: r.runtime.queue_depth(),
                    active: r.runtime.active_count(),
                    free_kv_pages: r.runtime.free_kv_pages(),
                })
                .collect();
            let chosen = self.router.route(req.scheme, &signals);
            let replica = &mut self.replicas[chosen];
            let local = replica
                .runtime
                .submit(req)
                .map_err(|source| FleetError::Replica {
                    name: replica.name.clone(),
                    source,
                })?;
            replica.routed += 1;
            assignments[pos] = (chosen, local);
        }
        let mut slices = Vec::with_capacity(self.replicas.len());
        for r in &mut self.replicas {
            let name = r.name.clone();
            let wrap = |source| FleetError::Replica {
                name: name.clone(),
                source,
            };
            r.runtime.drain().map_err(wrap)?;
            let report = r.runtime.finish().map_err(wrap)?;
            slices.push(ReplicaSlice {
                name: r.name.clone(),
                routed: r.routed,
                report,
            });
        }
        Ok(FleetReport {
            replicas: slices,
            assignments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SloBudget, TraceConfig};
    use bbal_serve::AdmissionPolicy;

    fn tiny(name: &str) -> ReplicaSpec {
        ReplicaSpec::new(name, "Tiny")
    }

    #[test]
    fn empty_fleet_is_an_error() {
        assert!(matches!(
            Fleet::new(Vec::new(), RoutePolicy::LeastLoaded),
            Err(FleetError::NoReplicas)
        ));
    }

    #[test]
    fn one_replica_fleet_is_bit_identical_to_serve() {
        let trace = TraceConfig::tiny_test(16).generate(5);
        let direct = ServeRuntime::new(SessionBuilder::new().model("Tiny"), ServeConfig::default())
            .unwrap()
            .serve(&trace)
            .unwrap();

        let mut fleet = Fleet::new(vec![tiny("solo")], RoutePolicy::LeastLoaded).unwrap();
        let report = fleet.serve(&trace).unwrap();
        assert_eq!(report.replicas.len(), 1);
        // Bit-identical: requests, tick traces, cycles, energy — the
        // whole report (PartialEq ignores only wall-clock time).
        assert_eq!(report.replicas[0].report, direct);
        // Generated traces are arrival-sorted, so assignments are the
        // identity mapping.
        for (i, &(rep, local)) in report.assignments.iter().enumerate() {
            assert_eq!((rep, local), (0, i));
        }
    }

    #[test]
    fn fleet_runs_are_deterministic_under_a_seed() {
        let trace = TraceConfig::tiny_test(32).generate(9);
        let run = |policy| {
            let mut fleet = Fleet::new(vec![tiny("a"), tiny("b"), tiny("c")], policy).unwrap();
            fleet.serve(&trace).unwrap()
        };
        assert_eq!(run(RoutePolicy::LeastLoaded), run(RoutePolicy::LeastLoaded));
        assert_eq!(run(RoutePolicy::RoundRobin), run(RoutePolicy::RoundRobin));
    }

    #[test]
    fn every_request_is_served_exactly_once_across_replicas() {
        let trace = TraceConfig::tiny_test(24).generate(3);
        let mut fleet = Fleet::new(vec![tiny("a"), tiny("b")], RoutePolicy::RoundRobin).unwrap();
        let report = fleet.serve(&trace).unwrap();
        let routed: usize = report.replicas.iter().map(|r| r.routed).sum();
        assert_eq!(routed, trace.len());
        assert_eq!(report.assignments.len(), trace.len());
        // Round-robin over an arrival-sorted trace alternates strictly.
        for (i, &(rep, _)) in report.assignments.iter().enumerate() {
            assert_eq!(rep, i % 2);
        }
        // Each routed request produced its full token budget.
        for (pos, &(rep, local)) in report.assignments.iter().enumerate() {
            let r = &report.replicas[rep].report.requests[local];
            assert_eq!(r.tokens.len(), trace[pos].max_new_tokens, "request {pos}");
        }
    }

    #[test]
    fn routing_does_not_change_tokens() {
        // Tokens are a pure function of (model, scheme, prompt): every
        // policy must produce the same tokens for the same request,
        // wherever it lands.
        let trace = TraceConfig::tiny_test(12).generate(21);
        let mut by_policy = Vec::new();
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastLoaded,
            RoutePolicy::SchemeAffinity,
        ] {
            let mut fleet = Fleet::new(vec![tiny("a"), tiny("b")], policy).unwrap();
            let report = fleet.serve(&trace).unwrap();
            let tokens: Vec<Vec<usize>> = report
                .assignments
                .iter()
                .map(|&(rep, local)| report.replicas[rep].report.requests[local].tokens.clone())
                .collect();
            by_policy.push(tokens);
        }
        assert_eq!(by_policy[0], by_policy[1]);
        assert_eq!(by_policy[1], by_policy[2]);
    }

    #[test]
    fn heterogeneous_replicas_keep_their_own_configs() {
        // A budgeted affinity replica next to an unbudgeted FCFS one:
        // both serve, and the report keeps their distinct settings.
        let specs = vec![
            tiny("fcfs").with_config(ServeConfig::default()),
            tiny("affinity").with_config(
                ServeConfig::default()
                    .with_admission(AdmissionPolicy::SchemeAffinity { max_wait_ticks: 4 })
                    .with_kv_budget(64),
            ),
        ];
        let trace = TraceConfig::tiny_test(16).generate(13);
        let mut fleet = Fleet::new(specs, RoutePolicy::RoundRobin).unwrap();
        let report = fleet.serve(&trace).unwrap();
        assert_eq!(report.replicas[0].report.kv_budget, None);
        assert_eq!(
            report.replicas[1].report.kv_budget,
            Some(bbal_llm::KvBudget::Pages(64))
        );
        let slo = SloBudget {
            ttft_ms: f64::INFINITY,
            tpot_ms: f64::INFINITY,
        };
        // Everything finishes eventually, so goodput under an infinite
        // budget is 1.
        assert!((report.goodput(&slo) - 1.0).abs() < 1e-12);
        assert_eq!(report.rejected(), 0);
    }

    /// A byte budget of `n` dense-f32 pages is the same memory signal as
    /// a page budget of `n`: the router sees the same free pages, so the
    /// two fleets route every request alike and serve the same reports.
    #[test]
    fn byte_budgets_route_like_the_equal_page_budgets() {
        let page_bytes = bbal_llm::KvStore::dense_f32().page_bytes(
            bbal_llm::zoo::tiny_test_model().hidden,
            bbal_llm::DEFAULT_PAGE_TOKENS,
        );
        let trace = TraceConfig::tiny_test(24).generate(7);
        let run = |by_bytes: bool| {
            let specs = [("small", 400), ("large", 800)].map(|(name, pages)| {
                let config = if by_bytes {
                    ServeConfig::default().with_kv_budget_bytes(pages as u64 * page_bytes)
                } else {
                    ServeConfig::default().with_kv_budget(pages)
                };
                tiny(name).with_config(config)
            });
            let mut fleet = Fleet::new(specs.to_vec(), RoutePolicy::LeastLoaded).unwrap();
            fleet.serve(&trace).unwrap()
        };
        let by_pages = run(false);
        let mut by_bytes = run(true);
        assert_eq!(by_bytes.assignments, by_pages.assignments);
        for (b, p) in by_bytes.replicas.iter_mut().zip(&by_pages.replicas) {
            assert!(matches!(
                b.report.kv_budget,
                Some(bbal_llm::KvBudget::Bytes(_))
            ));
            b.report.kv_budget = p.report.kv_budget;
        }
        assert_eq!(by_bytes, by_pages);
        assert_eq!(by_pages.rejected(), 0);
        // The larger replica's free pages win the first idle tie.
        assert_eq!(by_pages.assignments[0].0, 1);
    }

    #[test]
    fn fleet_percentiles_and_throughput_are_populated() {
        let trace = TraceConfig::tiny_test(24).generate(1);
        let mut fleet = Fleet::new(vec![tiny("a"), tiny("b")], RoutePolicy::LeastLoaded).unwrap();
        let report = fleet.serve(&trace).unwrap();
        assert!(report.fleet_tokens_per_s() > 0.0);
        let p50 = report.ttft_percentile_ms(50.0);
        let p99 = report.ttft_percentile_ms(99.0);
        let p999 = report.ttft_percentile_ms(99.9);
        assert!(p50 > 0.0 && p50 <= p99 && p99 <= p999);
        assert!(report.tpot_percentile_ms(50.0) > 0.0);
        // Pure data parallelism: no tensor sharding, no interconnect.
        assert_eq!(report.interconnect_wire_bytes(), 0);
        assert_eq!(report.interconnect_allreduces(), 0);
    }
}
