//! # bbal-accel — the BBAL accelerator model
//!
//! The top of the reproduction stack: the Fig. 7 accelerator — a
//! weight-stationary PE array specialised per data format, input/weight/
//! output buffers, a DRAM channel and the nonlinear unit — with three
//! faces:
//!
//! * [`bbal`] — a *functional* datapath model (bit-faithful quantised
//!   GEMM through `bbal-core` block dot products + FP32 accumulation);
//! * [`sim`] — a *cycle-level* simulator (DnnWeaver-class) producing the
//!   runtime and energy numbers behind Fig. 1(b) and Fig. 9;
//! * [`isoarea`] — the Fig. 8 iso-area methodology: fixed PE-array budget,
//!   cheaper PEs buy more parallelism.
//!
//! ```
//! use bbal_accel::{AcceleratorConfig, simulate};
//! use bbal_arith::GateLibrary;
//! use bbal_llm::graph::{decoder_ops, paper_dims};
//!
//! let cfg = AcceleratorConfig::bbal_paper();
//! let dims = paper_dims("Llama-7B").expect("known model");
//! let report = simulate(&cfg, &decoder_ops(&dims, 128), &GateLibrary::default());
//! assert!(report.linear_cycles > 0 && report.nonlinear_cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bbal;
pub mod config;
pub mod engine;
pub mod isoarea;
pub mod sim;
pub mod systolic;
pub mod tp;

pub use bbal::{BbalGemm, EncodedRow};
pub use config::{AcceleratorConfig, ConfigError, FormatSpec};
pub use engine::BbalEngine;
pub use isoarea::{array_for_budget, iso_area_sweep, IsoAreaPoint};
pub use sim::{simulate, simulate_with, EnergyBreakdown, NonlinearTiming, SimReport};
pub use systolic::{SystolicTile, TileRun};
pub use tp::{allreduce_payloads, shard_ops};
