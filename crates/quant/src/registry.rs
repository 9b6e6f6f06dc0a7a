//! The method lineups of the paper's tables, as data.
//!
//! Each lineup is a `const` slice of [`SchemeSpec`] values — the single
//! identifier type the whole stack keys on — and [`hooks_for`] derives
//! the matching [`InferenceHooks`] implementation for any scheme,
//! including the algebra-derived MX / MSFP / block-minifloat families.
//!
//! ```
//! use bbal_quant::registry::{hooks_for, TABLE2_SCHEMES};
//! use bbal_core::SchemeSpec;
//!
//! let hooks = hooks_for(SchemeSpec::Bbfp(4, 2))?;
//! assert_eq!(hooks.name(), "BBFP(4,2)");
//! assert_eq!(TABLE2_SCHEMES.len(), 11);
//! # Ok::<(), bbal_core::SchemeError>(())
//! ```

use crate::block::AlgebraQuantizer;
use crate::int::IntQuantizer;
use crate::olive::OliveQuantizer;
use crate::oltron::OltronQuantizer;
use crate::omniquant::OmniQuantizer;
use bbal_core::{SchemeError, SchemeSpec};
use bbal_llm::{ExactHooks, Fp16Hooks, InferenceHooks};

/// The Table II row lineup: FP16 baseline, three sota baselines, two BFP
/// widths and five BBFP configurations.
pub const TABLE2_SCHEMES: &[SchemeSpec] = &[
    SchemeSpec::Fp16,
    SchemeSpec::Oltron,
    SchemeSpec::Olive,
    SchemeSpec::OmniQuant,
    SchemeSpec::Bfp(6),
    SchemeSpec::Bfp(4),
    SchemeSpec::Bbfp(3, 1),
    SchemeSpec::Bbfp(4, 2),
    SchemeSpec::Bbfp(4, 3),
    SchemeSpec::Bbfp(6, 3),
    SchemeSpec::Bbfp(6, 4),
];

/// The Fig. 8 / Fig. 9 method lineup (Table III columns): the same set as
/// Table II minus FP16/OmniQuant, plus BBFP(3,2) and BBFP(6,5).
pub const FIG8_SCHEMES: &[SchemeSpec] = &[
    SchemeSpec::Oltron,
    SchemeSpec::Olive,
    SchemeSpec::Bfp(4),
    SchemeSpec::Bfp(6),
    SchemeSpec::Bbfp(3, 1),
    SchemeSpec::Bbfp(3, 2),
    SchemeSpec::Bbfp(4, 2),
    SchemeSpec::Bbfp(4, 3),
    SchemeSpec::Bbfp(6, 3),
    SchemeSpec::Bbfp(6, 4),
    SchemeSpec::Bbfp(6, 5),
];

// Compile-time proof that every const lineup entry is constructible, so
// deriving hooks from a lineup cannot fail at runtime.
const _: () = {
    let mut i = 0;
    while i < TABLE2_SCHEMES.len() {
        assert!(TABLE2_SCHEMES[i].is_valid());
        i += 1;
    }
    let mut j = 0;
    while j < FIG8_SCHEMES.len() {
        assert!(FIG8_SCHEMES[j].is_valid());
        j += 1;
    }
};

/// Derives the [`InferenceHooks`] implementation for a scheme.
///
/// The box is `Send` so a session owning it can move across worker
/// threads (the `bbal-serve` runtime relies on this).
///
/// # Errors
///
/// Propagates the scheme's [`SchemeError`] if its width parameters are
/// invalid (every parsed `SchemeSpec` is already valid).
pub fn hooks_for(scheme: SchemeSpec) -> Result<Box<dyn InferenceHooks + Send>, SchemeError> {
    scheme.validate()?;
    Ok(match scheme {
        SchemeSpec::Fp32 => Box::new(ExactHooks),
        SchemeSpec::Fp16 => Box::new(Fp16Hooks),
        SchemeSpec::Int(bits) => Box::new(IntQuantizer::new(bits)),
        SchemeSpec::Bfp(_)
        | SchemeSpec::Bbfp(..)
        | SchemeSpec::Mx(..)
        | SchemeSpec::Msfp(..)
        | SchemeSpec::BlockMf(..) => Box::new(AlgebraQuantizer::from_scheme(scheme)?),
        SchemeSpec::Olive => Box::new(OliveQuantizer::new()),
        SchemeSpec::Oltron => Box::new(OltronQuantizer::new()),
        SchemeSpec::OmniQuant => Box::new(OmniQuantizer::new()),
    })
}

/// A named quantisation method: a scheme plus its hook set.
pub struct Method {
    /// The scheme this method implements.
    pub scheme: SchemeSpec,
    /// Row/column label used by the paper.
    pub name: String,
    /// The hook set implementing it.
    pub hooks: Box<dyn InferenceHooks + Send>,
}

impl std::fmt::Debug for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Method")
            .field("scheme", &self.scheme)
            .field("name", &self.name)
            .finish()
    }
}

impl Method {
    /// Builds the method for one scheme.
    ///
    /// # Errors
    ///
    /// Propagates [`SchemeError`] for invalid width parameters.
    pub fn from_scheme(scheme: SchemeSpec) -> Result<Method, SchemeError> {
        let hooks = hooks_for(scheme)?;
        Ok(Method {
            scheme,
            name: hooks.name(),
            hooks,
        })
    }
}

impl TryFrom<SchemeSpec> for Method {
    type Error = SchemeError;

    fn try_from(scheme: SchemeSpec) -> Result<Method, SchemeError> {
        Method::from_scheme(scheme)
    }
}

/// Builds the methods for a scheme lineup.
///
/// # Errors
///
/// Propagates the first [`SchemeError`]; the `const` lineups in this
/// module are compile-time validated and never fail.
pub fn methods(schemes: &[SchemeSpec]) -> Result<Vec<Method>, SchemeError> {
    schemes.iter().copied().map(Method::from_scheme).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lineup_matches_paper() {
        let names: Vec<String> = methods(TABLE2_SCHEMES)
            .unwrap()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        assert_eq!(
            names,
            vec![
                "FP16",
                "Oltron",
                "Olive",
                "OmniQuant",
                "BFP6",
                "BFP4",
                "BBFP(3,1)",
                "BBFP(4,2)",
                "BBFP(4,3)",
                "BBFP(6,3)",
                "BBFP(6,4)",
            ]
        );
    }

    #[test]
    fn fig8_lineup_has_eleven_methods() {
        assert_eq!(methods(FIG8_SCHEMES).unwrap().len(), 11);
    }

    #[test]
    fn methods_are_usable_as_hooks() {
        for m in methods(TABLE2_SCHEMES).unwrap() {
            let mut data = vec![0.5f32; 128];
            m.hooks.transform_weights(&mut data);
            assert!(data.iter().all(|v| v.is_finite()), "{}", m.name);
        }
    }

    #[test]
    fn method_names_match_paper_names() {
        // The hooks' display names and the scheme's paper names agree, so
        // lookups by either key stay consistent.
        for m in methods(TABLE2_SCHEMES)
            .unwrap()
            .iter()
            .chain(methods(FIG8_SCHEMES).unwrap().iter())
        {
            assert_eq!(m.name, m.scheme.paper_name());
        }
    }

    #[test]
    fn invalid_schemes_propagate_errors() {
        assert!(hooks_for(SchemeSpec::Bbfp(9, 9)).is_err());
        assert!(Method::from_scheme(SchemeSpec::Bfp(11)).is_err());
        assert!(methods(&[SchemeSpec::Fp16, SchemeSpec::Int(1)]).is_err());
    }

    #[test]
    fn every_enumerable_scheme_has_hooks() {
        for s in SchemeSpec::enumerate() {
            let h = hooks_for(s).unwrap();
            assert_eq!(h.name(), s.paper_name(), "{s}");
        }
    }
}
