//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload from the seed (see `workloads`), drives
//! the stack through its public APIs for `--seconds` of host time,
//! checks the outputs, and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`:
//!
//! * `--trace 0` — every end-to-end metric, measured with no spans
//!   recorded;
//! * `--trace 1` — every per-layer metric. Passes alternate untraced
//!   and traced, spans are kept in memory, and at the end they are
//!   written to `perfbench/out/trace_<workload>_<seed>.json`, a Chrome
//!   trace-event file Perfetto opens.
//!
//! Progress, the token digest and the simulated metrics go to stderr,
//! so two runs of one seed can be compared for determinism.
//!
//! Everything runs in this one process; a serving runtime runs one
//! worker thread beside the calling thread.
//!
//! Host times (`setup_s`, `tokens_per_s`, the step times) are the
//! process's CPU time, not wall time (`host::Stopwatch`): on a shared
//! host, wall time also counts the time the hypervisor or other
//! threads kept the stack off a core. They are then scaled by the
//! host-speed gauge (`host::Gauge`).

mod common;
mod fleet;
mod host;
mod json;
mod metrics;
mod paper;
mod probes;
mod recorder;
mod serving;
mod stats;
mod workloads;

use common::Ctx;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <decode_long|prefix_rag|paper_eval|fleet_bursty> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let seed = args.seed;
    let mut out = match args.workload {
        Workload::DecodeLong => serving::run(&ctx, &workloads::decode_long(seed))?,
        Workload::PrefixRag => serving::run(&ctx, &workloads::prefix_rag(seed))?,
        Workload::PaperEval => paper::run(&ctx, &workloads::paper_eval(seed))?,
        Workload::FleetBursty => fleet::run(&ctx, &workloads::fleet_bursty(seed))?,
    };
    let sim: Vec<String> = out
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("sim_") || k.starts_with("ppl_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("perfbench: simulated {}", sim.join(" "));
    eprintln!(
        "perfbench: gauge readings={} slowdown={}",
        ctx.gauge_readings(),
        ctx.slowdown()
    );
    if args.trace {
        let path = common::write_trace(&ctx.spans(), args.workload.name(), seed)
            .map_err(|e| format!("writing the trace: {e}"))?;
        eprintln!("perfbench: trace written to {path}");
        if args.workload == Workload::DecodeLong {
            fleet_layer(seed, &mut out)?;
        }
    }
    Ok(out)
}

/// Host seconds of the fleet layer's traced run: as short as the pass
/// loop allows (a warm-up, one untraced and one traced pass).
const FLEET_LAYER_SECONDS: f64 = 1.0;

/// `fleet_bursty` is not in `BENCHMARK.json`, so the traced
/// `decode_long` run measures the fleet layer for it: a minimal traced
/// `fleet_bursty` run of the same seed, in a context of its own so its
/// spans stay out of `decode_long`'s, whose `fleet.*` metrics, requests
/// and failures join the result.
fn fleet_layer(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let ctx = Ctx::new(seed, FLEET_LAYER_SECONDS, true);
    let fleet = fleet::run(&ctx, &workloads::fleet_bursty(seed))?;
    out.attempted += fleet.attempted;
    out.failed += fleet.failed;
    for (name, value) in fleet.values {
        if name.starts_with("fleet.") {
            out.set(name, value);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let line = run(&args).and_then(|out| {
        let (catalogue, required) = if args.trace {
            (PER_LAYER, false)
        } else {
            (END_TO_END, true)
        };
        metrics::result_line(&out, catalogue, required)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = parse_args(&argv(
            "--workload prefix_rag --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::PrefixRag,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_eval --seed -1 --seconds 1 --trace 0",
            "--workload paper_eval --seed 1 --seconds 0 --trace 0",
            "--workload paper_eval --seed 1 --seconds 1 --trace 2",
            "--workload paper_eval --seed 1 --seconds 1",
            "--workload paper_eval --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
