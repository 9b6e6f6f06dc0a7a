//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test
//! pins the two together). Every workload reports every metric of the
//! section its mode selects: end-to-end metrics are defined for all
//! workloads (see each runner), while a per-layer metric of a layer a
//! workload never calls reads 0.

use crate::json;
use std::collections::BTreeMap;

/// `(name, unit)` of a metric.
pub type Metric = (&'static str, &'static str);

/// What a user of the stack sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_tokens_per_s", "tok/s"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_tail_ms", "ms"),
    ("sim_tpot_tail_ms", "ms"),
    ("sim_energy_uj_per_token", "uJ/tok"),
    ("sim_goodput", "share"),
    ("ppl_geomean", "ppl"),
    ("ppl_bbfp42", "ppl"),
    ("sim_prefill_ms", "ms"),
];

/// Single layers, measured in the traced run.
pub const PER_LAYER: &[Metric] = &[
    ("session.resolve_model_ms", "ms"),
    ("session.prepare_ms", "ms"),
    ("session.evaluate_ms", "ms"),
    ("serve.new_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.steps", "count"),
    ("serve.idle_steps", "count"),
    ("serve.step_prefill_ms", "ms"),
    ("serve.step_decode_ms", "ms"),
    ("serve.batch_occupancy", "requests"),
    ("serve.fused_rows_per_gemm", "rows"),
    ("serve.scheme_switches", "count"),
    ("serve.passed_over_ticks", "count"),
    ("serve.preemptions", "count"),
    ("serve.rejected", "count"),
    ("serve.sessions_built", "count"),
    ("serve.sessions_reused", "count"),
    ("kv.prefix_hits", "count"),
    ("kv.prefix_misses", "count"),
    ("kv.prefix_evictions", "count"),
    ("kv.page_reuse_ratio", "ratio"),
    ("kv.shared_prefix_tokens", "count"),
    ("kv.peak_pages", "count"),
    ("kv.peak_bytes", "bytes"),
    ("kv.read_bytes", "bytes"),
    ("kv.write_bytes", "bytes"),
    ("core.gemm_packed_decode_ns", "ns"),
    ("core.gemm_packed_decode.ops", "count"),
    ("core.gemm_packed_decode.bytes", "bytes"),
    ("core.gemm_packed_prefill_ns", "ns"),
    ("core.gemm_packed_prefill.ops", "count"),
    ("core.gemm_packed_prefill.bytes", "bytes"),
    ("core.attn_dot_packed_ns", "ns"),
    ("core.attn_dot_packed.ops", "count"),
    ("core.attn_dot_packed.bytes", "bytes"),
    ("core.attn_weighted_sum_packed_ns", "ns"),
    ("core.attn_weighted_sum_packed.ops", "count"),
    ("core.attn_weighted_sum_packed.bytes", "bytes"),
    ("quant.transform_activations_ns", "ns"),
    ("nonlinear.softmax_row_ns", "ns"),
    ("accel.simulate_prefill_ms", "ms"),
    ("accel.simulate_decode_us", "us"),
    ("accel.prefill_cycles", "count"),
    ("accel.decode_cycles", "count"),
    ("fleet.new_s", "s"),
    ("fleet.serve_s", "s"),
    ("fleet.routed_max_share", "share"),
    ("fleet.occupancy_spread", "requests"),
    ("fleet.route_ns", "ns"),
    ("host.busy_cores", "cores"),
    ("host.trace_overhead", "ratio"),
    ("host.gauge_us", "us"),
    ("bench.self_ms", "ms"),
    ("session.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("accel.self_ms", "ms"),
];

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; which ones are printed depends on the
    /// mode (see [`result_line`]).
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of
/// `catalogue` with its unit.
///
/// # Errors
///
/// The name of a metric of the catalogue the outcome did not set
/// (`required`) or set to a non-finite value. Per-layer catalogues
/// pass `required = false`: a layer the workload never calls reads 0.
pub fn result_line(
    outcome: &Outcome,
    catalogue: &[Metric],
    required: bool,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match outcome.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(name),
            json::number(value),
            json::string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn as_owned(catalogue: &[Metric]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), as_owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), as_owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert!(workloads.len() >= 2);
        for name in workloads {
            assert!(crate::workloads::NAMES.contains(&name), "{name}");
        }
    }

    #[test]
    fn result_line_parses_back_into_the_listed_names() {
        let doc = benchmark_json();
        for (section, catalogue, required) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let mut outcome = Outcome {
                attempted: 12,
                failed: 0,
                ..Outcome::default()
            };
            for (i, &(name, _)) in catalogue.iter().enumerate() {
                outcome.set(name, 1.0 + i as f64 / 7.0);
            }
            let line = result_line(&outcome, catalogue, required).unwrap();
            let parsed = parse(&line).unwrap();
            let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(12.0));
            let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
            let mut names: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").unwrap().as_f64().unwrap() >= 1.0);
                    (
                        k.clone(),
                        v.get("unit").unwrap().as_str().unwrap().to_owned(),
                    )
                })
                .collect();
            let mut expected = listed(&doc, section);
            names.sort();
            expected.sort();
            assert_eq!(names, expected, "{section}");
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut outcome = Outcome::default();
        assert!(result_line(&outcome, END_TO_END, true).is_err());
        assert!(result_line(&outcome, PER_LAYER, false).is_ok());
        outcome.set("serve.steps", f64::NAN);
        assert!(result_line(&outcome, PER_LAYER, false).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        let parsed = parse(&result_line(&outcome, PER_LAYER, false).unwrap()).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(parsed.get("failed").unwrap().as_f64(), Some(1.0));
    }
}
