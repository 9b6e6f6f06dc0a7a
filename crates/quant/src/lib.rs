//! # bbal-quant — quantiser implementations
//!
//! Every quantisation scheme the paper compares, implemented as
//! [`bbal_llm::InferenceHooks`] so each plugs into the same transformer
//! forward pass:
//!
//! * [`block`] — every block format (BFP, the paper's BBFP, MX, MSFP,
//!   block minifloat) through one quantiser over `bbal-core`'s format
//!   algebra;
//! * [`int`] — plain symmetric INT4/INT8;
//! * [`olive`] — outlier-victim pair quantisation (Olive, ISCA 2023);
//! * [`oltron`] — fixed-budget dual-precision outlier quantisation
//!   (Oltron, DAC 2024);
//! * [`omniquant`] — learned-clipping quantisation (OmniQuant, 2023);
//! * [`registry`] — the exact method lineups of Table II and Fig. 8 as
//!   [`bbal_core::SchemeSpec`] data ([`TABLE2_SCHEMES`], [`FIG8_SCHEMES`]),
//!   with [`hooks_for`] deriving the hook set for any scheme.
//!
//! The three sota baselines are *mechanism-level* re-implementations (the
//! originals are closed or GPU-bound): each reproduces what its method
//! protects and what it sacrifices, which is what determines the relative
//! orderings the paper reports. See `DESIGN.md` §2.
//!
//! ```
//! use bbal_core::SchemeSpec;
//! use bbal_quant::hooks_for;
//!
//! let q = hooks_for(SchemeSpec::Bbfp(4, 2))?;
//! let mut acts = vec![0.1f32; 64];
//! acts[0] = 12.5; // an outlier
//! q.transform_activations(&mut acts);
//! assert!((acts[0] - 12.5).abs() < 1.0); // outlier survives
//! # Ok::<(), bbal_core::SchemeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod int;
pub mod olive;
pub mod oltron;
pub mod omniquant;
pub mod registry;
pub mod smooth;

pub use block::AlgebraQuantizer;
pub use int::IntQuantizer;
pub use olive::OliveQuantizer;
pub use oltron::OltronQuantizer;
pub use omniquant::OmniQuantizer;
pub use registry::{hooks_for, methods, Method, FIG8_SCHEMES, TABLE2_SCHEMES};
pub use smooth::SmoothQuantizer;
