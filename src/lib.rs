//! # BBAL — Bidirectional Block Floating Point Quantisation Accelerator
//!
//! A full-stack Rust reproduction of *"BBAL: A Bidirectional Block
//! Floating Point-Based Quantisation Accelerator for Large Language
//! Models"* (DAC 2025). This facade crate re-exports every layer of the
//! stack; see the individual crates for the deep documentation:
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | BBFP/BFP data formats, [`SchemeSpec`] | [`core`] (`bbal-core`) | §II-B, §III |
//! | Gate-level arithmetic + area/power | [`arith`] (`bbal-arith`) | §IV-A, Tables I/III |
//! | SRAM/DRAM/LUT memory models | [`mem`] (`bbal-mem`) | §V-A (CACTI) |
//! | Transformer substrate + PPL proxy | [`llm`] (`bbal-llm`) | §V (WikiText2) |
//! | Quantiser baselines + lineups | [`quant`] (`bbal-quant`) | Table II |
//! | Segmented-LUT nonlinear unit | [`nonlinear`] (`bbal-nonlinear`) | §IV-B, Tables IV/V |
//! | Accelerator + cycle simulator | [`accel`] (`bbal-accel`) | §IV-C, Figs 1(b)/8/9 |
//! | [`Session`]/[`SessionBuilder`] facade | [`session`] (`bbal-session`) | end-to-end (Fig. 7) |
//! | Continuous-batching serving runtime | [`serve`] (`bbal-serve`) | beyond the paper |
//! | Multi-accelerator fleet + trace generation | [`fleet`] (`bbal-fleet`) | beyond the paper |
//!
//! ## Quickstart
//!
//! One builder goes from a quantiser string to a simulated serving run:
//!
//! ```
//! use bbal::{SessionBuilder, SchemeSpec};
//!
//! let mut session = SessionBuilder::new()
//!     .model("Tiny")          // zoo name; "Llama-7B", "OPT-13B", ...
//!     .scheme("bbfp:4,2")     // parsed + validated, no panicking paths
//!     .build()?;
//!
//! assert_eq!(session.scheme(), SchemeSpec::Bbfp(4, 2));
//!
//! // Serving: quantise weights once, prefill a prompt, decode tokens
//! // with the owned KV cache.
//! session.prefill(&[1, 2, 3])?;
//! let logits = session.decode_step(4)?;
//! assert_eq!(logits.len(), session.model_spec().vocab);
//!
//! // Accuracy (Table II proxy) and hardware cost (Fig. 1(b)/9) from
//! // the same object.
//! let ppl = session.evaluate();
//! assert!(ppl.ppl >= session.model_spec().anchor_ppl * 0.99);
//! let sim = session.simulate_prefill(64)?;
//! assert!(sim.total_cycles() > 0);
//! # Ok::<(), bbal::SessionError>(())
//! ```
//!
//! The format layer remains directly accessible for bit-level work:
//!
//! ```
//! use bbal::core::{algebra_quantize_slice, FormatAlgebra, RoundingMode};
//!
//! // One outlier next to a small-valued body: the BBFP flag bit keeps both.
//! let bbfp = FormatAlgebra::bbfp(4, 2)?;
//! let mut data = vec![0.1f32; 32];
//! data[7] = 6.5;
//! let mut restored = vec![0.0; 32];
//! algebra_quantize_slice(&data, &bbfp, RoundingMode::NearestEven, &mut restored);
//! assert!((restored[7] - 6.5).abs() / 6.5 < 0.1); // outlier captured
//! assert!(restored[0] > 0.0); // body survives (vanilla BFP4 zeroes it)
//! # Ok::<(), bbal::core::FormatError>(())
//! ```
//!
//! Above the single session sits the continuous-batching serving
//! runtime — a request queue, a session pool, a pluggable admission
//! policy (FCFS, or scheme-affinity so mixed-scheme traffic still fuses
//! its GEMMs) and a scheduler whose every tick is costed on the
//! accelerator cycle model:
//!
//! ```
//! use bbal::serve::{AdmissionPolicy, GenerateRequest, ServeConfig, ServeRuntime};
//! use bbal::{SchemeSpec, SessionBuilder};
//!
//! let template = SessionBuilder::new().model("Tiny").scheme("bbfp:4,2");
//! let config = ServeConfig::default()
//!     .with_admission(AdmissionPolicy::SchemeAffinity { max_wait_ticks: 8 });
//! let mut runtime = ServeRuntime::new(template, config)?;
//! let report = runtime.serve(&[
//!     GenerateRequest::new(vec![1, 2, 3], 4),
//!     GenerateRequest::new(vec![9, 8], 4).scheme(SchemeSpec::Bfp(4)),
//!     GenerateRequest::new(vec![7], 4).arriving_at(50_000),
//! ])?;
//! assert!(report.sim_tokens_per_s() > 0.0);
//! assert_eq!(report.scheme_breakdown().len(), 2);
//! # Ok::<(), bbal::serve::ServeError>(())
//! ```
//!
//! And above a single runtime sits the *fleet*: N replicas behind a
//! router, fed by a seeded trace generator, measured with SLO-grade
//! percentiles and goodput:
//!
//! ```
//! use bbal::fleet::{Fleet, ReplicaSpec, RoutePolicy, TraceConfig};
//!
//! let mut fleet = Fleet::new(
//!     vec![ReplicaSpec::new("a0", "Tiny"), ReplicaSpec::new("a1", "Tiny")],
//!     RoutePolicy::LeastLoaded,
//! )?;
//! let trace = TraceConfig::tiny_test(24).generate(7);
//! let report = fleet.serve(&trace)?;
//! assert!(report.fleet_tokens_per_s() > 0.0);
//! assert!(report.ttft_percentile_ms(99.0) >= report.ttft_percentile_ms(50.0));
//! # Ok::<(), bbal::fleet::FleetError>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! Every table and figure has a dedicated binary in `bbal-bench`:
//! `cargo run --release -p bbal-bench --bin reproduce_all` regenerates all
//! of them into `results/`. `EXPERIMENTS.md` records paper-vs-measured.

#![warn(missing_docs)]

pub use bbal_accel as accel;
pub use bbal_arith as arith;
pub use bbal_core as core;
pub use bbal_fleet as fleet;
pub use bbal_llm as llm;
pub use bbal_mem as mem;
pub use bbal_nonlinear as nonlinear;
pub use bbal_quant as quant;
pub use bbal_serve as serve;
pub use bbal_session as session;

pub use bbal_core::{SchemeError, SchemeSpec};
pub use bbal_session::{Session, SessionBuilder, SessionError};
