//! `SchemeSpec` — one identifier for every quantisation method.
//!
//! The paper compares a zoo of quantisation schemes (Table II, Fig. 8):
//! an FP16 baseline, plain integer quantisation, vanilla BFP, the
//! bidirectional BBFP family, and three outlier-aware baselines. Before
//! this type existed every layer of the stack named them differently —
//! constructor calls here, `"BBFP(4,2)"` strings there. `SchemeSpec` is
//! the single value type the whole stack keys on: it parses from a
//! string, displays back to the same string, and every derived artefact
//! (inference hooks, `FormatSpec`, PE kind, MAC kind) is obtained *from*
//! it instead of being hand-wired.
//!
//! ## Canonical grammar
//!
//! | string | scheme |
//! |---|---|
//! | `fp32` | exact float baseline |
//! | `fp16` | IEEE binary16 baseline |
//! | `int8`, `int:8` | symmetric integer, 8 bits |
//! | `bfp4`, `bfp:4` | vanilla BFP, 4-bit mantissas |
//! | `bbfp:4,2` | BBFP, 4-bit mantissas, 2 overlap bits |
//! | `mx:8,4,2` | MX two-level scaling: 8-bit block exponent, 4-bit mantissas, 2-wide sub-blocks |
//! | `msfp:4,16` | MSFP: 8-bit shared exponent, 4-bit mantissas, 16-wide blocks |
//! | `blockmf:4,3,8` | block minifloat: e4m3 elements, 8-bit shared bias |
//! | `olive` | outlier-victim pairs (Olive, ISCA 2023) |
//! | `oltron` | fixed-budget outliers (Oltron, DAC 2024) |
//! | `omniquant` | learned clipping (OmniQuant, 2023) |
//!
//! The block-format rows are all points of one parameter space — see
//! [`crate::algebra::FormatAlgebra`], which every variant lowers into
//! via [`SchemeSpec::algebra`].
//!
//! Parsing is case-insensitive and also accepts the paper's display
//! names (`"BBFP(4,2)"`, `"BFP4"`, `"OmniQuant"`), so the strings used in
//! the paper's tables round-trip too. [`Display`](std::fmt::Display)
//! always emits the canonical lowercase form, which is the serialisation
//! format (`parse(display(s)) == s` is property-tested).
//!
//! ```
//! use bbal_core::SchemeSpec;
//!
//! let s: SchemeSpec = "bbfp:4,2".parse()?;
//! assert_eq!(s, SchemeSpec::Bbfp(4, 2));
//! assert_eq!(s.to_string(), "bbfp:4,2");
//! assert_eq!(s.paper_name(), "BBFP(4,2)");
//! // Invalid configurations are typed errors, not panics:
//! assert!("bbfp:9,9".parse::<SchemeSpec>().is_err());
//! # Ok::<(), bbal_core::SchemeError>(())
//! ```

use crate::algebra::FormatAlgebra;
use crate::error::FormatError;
use crate::format::{BbfpConfig, BfpConfig};
use std::fmt;
use std::str::FromStr;

/// Widest supported integer quantisation.
pub const MAX_INT_BITS: u8 = 16;
/// Widest supported block mantissa (FP16's 11-bit significand minus one).
const MAX_MANTISSA_BITS: u8 = 10;

/// A parseable, displayable identifier for a quantisation scheme.
///
/// The variants carry their width parameters directly so lineups can be
/// `const` data; use [`SchemeSpec::validate`] (or just parse from a
/// string, which validates) before deriving configurations from
/// runtime-constructed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeSpec {
    /// Exact `f32` — the "no quantisation" reference row.
    Fp32,
    /// IEEE 754 binary16 weights and activations (the paper's baseline).
    Fp16,
    /// Symmetric integer quantisation with the given bit width.
    Int(u8),
    /// Vanilla block floating point with `m`-bit mantissas.
    Bfp(u8),
    /// Bidirectional BFP with `m`-bit mantissas and `o` overlap bits.
    Bbfp(u8, u8),
    /// MX-style two-level scaled vectors: an `e`-bit block exponent, a
    /// 1-bit micro-exponent per `sub`-element sub-block, `m`-bit
    /// mantissas (`mx:<e>,<m>,<sub>`).
    Mx(u8, u8, u8),
    /// MSFP row tiles: an 8-bit shared exponent over a `block`-wide
    /// tile of `m`-bit mantissas (`msfp:<m>,<block>`).
    Msfp(u8, u8),
    /// Block minifloat: per-element floats with `e` exponent and `m`
    /// mantissa bits sharing a `bias`-bit exponent bias
    /// (`blockmf:<e>,<m>,<bias>`).
    BlockMf(u8, u8, u8),
    /// Outlier-victim pair quantisation (Olive, ISCA 2023).
    Olive,
    /// Fixed-budget dual-precision outlier quantisation (Oltron, DAC 2024).
    Oltron,
    /// Learned-clipping quantisation (OmniQuant, 2023).
    OmniQuant,
}

impl SchemeSpec {
    /// The paper's BBAL scheme: BBFP(4,2).
    pub const BBAL_PAPER: SchemeSpec = SchemeSpec::Bbfp(4, 2);

    /// Compile-time validity check, usable in `const` contexts to prove
    /// that a `const` lineup contains only constructible schemes.
    pub const fn is_valid(&self) -> bool {
        match *self {
            SchemeSpec::Fp32
            | SchemeSpec::Fp16
            | SchemeSpec::Olive
            | SchemeSpec::Oltron
            | SchemeSpec::OmniQuant => true,
            SchemeSpec::Int(bits) => bits >= 2 && bits <= MAX_INT_BITS,
            SchemeSpec::Bfp(m) => m >= 1 && m <= MAX_MANTISSA_BITS,
            SchemeSpec::Bbfp(m, o) => m >= 1 && m <= MAX_MANTISSA_BITS && o < m,
            SchemeSpec::Mx(e, m, sub) => {
                e >= 5
                    && e <= 8
                    && m >= 1
                    && m <= MAX_MANTISSA_BITS
                    && sub.is_power_of_two()
                    && sub <= 16
            }
            SchemeSpec::Msfp(m, block) => {
                m >= 1
                    && m <= MAX_MANTISSA_BITS
                    && block.is_power_of_two()
                    && block >= 4
                    && block <= 128
            }
            SchemeSpec::BlockMf(e, m, bias) => {
                e >= 2 && e <= 6 && m >= 1 && m <= MAX_MANTISSA_BITS && bias >= 2 && bias <= 8
            }
        }
    }

    /// The [`FormatAlgebra`] point this scheme lowers to, or `None` for
    /// the outlier-aware baselines (Olive/Oltron/OmniQuant) and exact
    /// FP32, which are not block formats. Scalar FP16/INT lower to
    /// degenerate (block size 1) points used for cost accounting.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Format`] if the width parameters are invalid.
    pub fn algebra(&self) -> Result<Option<FormatAlgebra>, SchemeError> {
        let alg = match *self {
            SchemeSpec::Fp32 | SchemeSpec::Olive | SchemeSpec::Oltron | SchemeSpec::OmniQuant => {
                return Ok(None)
            }
            SchemeSpec::Fp16 => FormatAlgebra::scalar_fp16(),
            SchemeSpec::Int(bits) => {
                if !(2..=MAX_INT_BITS).contains(&bits) {
                    return Err(SchemeError::IntBits(bits));
                }
                FormatAlgebra::scalar_int(bits)?
            }
            SchemeSpec::Bfp(m) => FormatAlgebra::bfp(m)?,
            SchemeSpec::Bbfp(m, o) => FormatAlgebra::bbfp(m, o)?,
            SchemeSpec::Mx(e, m, sub) => FormatAlgebra::mx(e, m, sub as usize)?,
            SchemeSpec::Msfp(m, block) => FormatAlgebra::msfp(m, block as usize)?,
            SchemeSpec::BlockMf(e, m, bias) => FormatAlgebra::blockmf(e, m, bias)?,
        };
        Ok(Some(alg))
    }

    /// The packable block point this scheme lowers to — the key of the
    /// block quantiser and the packed layouts — or `None` for scalar,
    /// outlier-aware and invalid schemes.
    pub fn block_algebra(&self) -> Option<FormatAlgebra> {
        self.algebra()
            .ok()
            .flatten()
            .filter(FormatAlgebra::packable)
    }

    /// Validates the width parameters, returning the typed error a parse
    /// of the equivalent string would produce.
    ///
    /// # Errors
    ///
    /// [`SchemeError::IntBits`] for an out-of-range integer width and
    /// [`SchemeError::Format`] for an invalid BFP/BBFP configuration.
    pub fn validate(&self) -> Result<(), SchemeError> {
        match *self {
            SchemeSpec::Int(bits) if !(2..=MAX_INT_BITS).contains(&bits) => {
                Err(SchemeError::IntBits(bits))
            }
            SchemeSpec::Bfp(m) => BfpConfig::new(m).map(|_| ()).map_err(SchemeError::Format),
            SchemeSpec::Bbfp(m, o) => BbfpConfig::new(m, o)
                .map(|_| ())
                .map_err(SchemeError::Format),
            SchemeSpec::Mx(..) | SchemeSpec::Msfp(..) | SchemeSpec::BlockMf(..) => {
                self.algebra().map(|_| ())
            }
            _ => Ok(()),
        }
    }

    /// The BBFP block configuration behind this scheme, if it is a BBFP
    /// scheme.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Format`] if the mantissa/overlap widths are invalid.
    pub fn bbfp_config(&self) -> Result<Option<BbfpConfig>, SchemeError> {
        match *self {
            SchemeSpec::Bbfp(m, o) => BbfpConfig::new(m, o).map(Some).map_err(SchemeError::Format),
            _ => Ok(None),
        }
    }

    /// The display name the paper's tables and figures use
    /// (`"BBFP(4,2)"`, `"BFP4"`, `"Oltron"`, …).
    pub fn paper_name(&self) -> String {
        match *self {
            SchemeSpec::Fp32 => "FP32".to_owned(),
            SchemeSpec::Fp16 => "FP16".to_owned(),
            SchemeSpec::Int(bits) => format!("INT{bits}"),
            SchemeSpec::Bfp(m) => format!("BFP{m}"),
            SchemeSpec::Bbfp(m, o) => format!("BBFP({m},{o})"),
            SchemeSpec::Mx(e, m, sub) => format!("MX({e},{m},{sub})"),
            SchemeSpec::Msfp(m, block) => format!("MSFP({m},{block})"),
            SchemeSpec::BlockMf(e, m, bias) => format!("BlockMF({e},{m},{bias})"),
            SchemeSpec::Olive => "Olive".to_owned(),
            SchemeSpec::Oltron => "Oltron".to_owned(),
            SchemeSpec::OmniQuant => "OmniQuant".to_owned(),
        }
    }

    /// Every valid scheme the stack can instantiate: the fixed schemes,
    /// INT4/INT8, all BFP widths and every `(m, o)` BBFP pair. Useful for
    /// exhaustive round-trip tests and sweeps.
    pub fn enumerate() -> Vec<SchemeSpec> {
        let mut all = vec![
            SchemeSpec::Fp32,
            SchemeSpec::Fp16,
            SchemeSpec::Int(4),
            SchemeSpec::Int(8),
            SchemeSpec::Olive,
            SchemeSpec::Oltron,
            SchemeSpec::OmniQuant,
        ];
        for m in 1..=MAX_MANTISSA_BITS {
            all.push(SchemeSpec::Bfp(m));
            for o in 0..m {
                all.push(SchemeSpec::Bbfp(m, o));
            }
        }
        // Curated points of the new families (the full spaces are large;
        // these exercise every parser branch and both scale kinds).
        all.extend([
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Mx(5, 3, 4),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::Msfp(6, 64),
            SchemeSpec::BlockMf(4, 3, 8),
            SchemeSpec::BlockMf(5, 2, 4),
        ]);
        all
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchemeSpec::Fp32 => write!(f, "fp32"),
            SchemeSpec::Fp16 => write!(f, "fp16"),
            SchemeSpec::Int(bits) => write!(f, "int{bits}"),
            SchemeSpec::Bfp(m) => write!(f, "bfp{m}"),
            SchemeSpec::Bbfp(m, o) => write!(f, "bbfp:{m},{o}"),
            SchemeSpec::Mx(e, m, sub) => write!(f, "mx:{e},{m},{sub}"),
            SchemeSpec::Msfp(m, block) => write!(f, "msfp:{m},{block}"),
            SchemeSpec::BlockMf(e, m, bias) => write!(f, "blockmf:{e},{m},{bias}"),
            SchemeSpec::Olive => write!(f, "olive"),
            SchemeSpec::Oltron => write!(f, "oltron"),
            SchemeSpec::OmniQuant => write!(f, "omniquant"),
        }
    }
}

/// Errors produced when parsing or validating a [`SchemeSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemeError {
    /// The input string was empty.
    Empty,
    /// The scheme name is not one the stack knows.
    Unknown(String),
    /// A width parameter was missing or not a number.
    BadParams {
        /// The scheme family being parsed (`"bbfp"`, `"bfp"`, `"int"`).
        scheme: &'static str,
        /// The offending parameter text.
        params: String,
    },
    /// The integer bit width is outside `2..=16`.
    IntBits(u8),
    /// The BFP/BBFP widths violate the format's constraints.
    Format(FormatError),
    /// The scheme is valid but has no mapping to the requested hardware
    /// artefact (e.g. `fp16` has no Fig. 8 PE microarchitecture).
    NoHardwareMapping(SchemeSpec),
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::Empty => write!(f, "empty scheme string"),
            SchemeError::Unknown(s) => write!(
                f,
                "unknown scheme {s:?} (expected fp32, fp16, int<bits>, bfp<m>, \
                 bbfp:<m>,<o>, mx:<e>,<m>,<sub>, msfp:<m>,<block>, \
                 blockmf:<e>,<m>,<bias>, olive, oltron or omniquant)"
            ),
            SchemeError::BadParams { scheme, params } => {
                write!(
                    f,
                    "invalid {scheme} parameters {params:?} (expected {})",
                    expected_grammar(scheme)
                )
            }
            SchemeError::IntBits(bits) => {
                write!(f, "integer width {bits} outside supported range 2..=16")
            }
            SchemeError::Format(e) => write!(f, "invalid block format: {e}"),
            SchemeError::NoHardwareMapping(s) => {
                write!(f, "scheme {s} has no hardware mapping for this artefact")
            }
        }
    }
}

impl std::error::Error for SchemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemeError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for SchemeError {
    fn from(e: FormatError) -> SchemeError {
        SchemeError::Format(e)
    }
}

/// The parameter grammar a family's id string expects, for error
/// messages.
fn expected_grammar(scheme: &str) -> &'static str {
    match scheme {
        "bbfp" => "bbfp:<m>,<o> — mantissa bits, overlap bits",
        "bfp" => "bfp<m> — mantissa bits",
        "int" => "int<bits> — total bits",
        "mx" => "mx:<e>,<m>,<sub> — block-exponent bits, mantissa bits, sub-block length",
        "msfp" => "msfp:<m>,<block> — mantissa bits, block size",
        "blockmf" => "blockmf:<e>,<m>,<bias> — element exponent bits, mantissa bits, bias bits",
        _ => "a numeric parameter list",
    }
}

/// Parses `"4,2"`-style width pairs (also accepting `"(4,2)"`).
fn parse_pair(scheme: &'static str, s: &str) -> Result<(u8, u8), SchemeError> {
    let bad = || SchemeError::BadParams {
        scheme,
        params: s.to_owned(),
    };
    let inner = s
        .strip_prefix('(')
        .map(|rest| rest.strip_suffix(')').ok_or_else(bad))
        .transpose()?
        .unwrap_or(s);
    let (m, o) = inner.split_once(',').ok_or_else(bad)?;
    Ok((
        m.trim().parse().map_err(|_| bad())?,
        o.trim().parse().map_err(|_| bad())?,
    ))
}

/// Parses `"8,4,2"`-style width triples (also accepting `"(8,4,2)"`).
fn parse_triple(scheme: &'static str, s: &str) -> Result<(u8, u8, u8), SchemeError> {
    let bad = || SchemeError::BadParams {
        scheme,
        params: s.to_owned(),
    };
    let inner = s
        .strip_prefix('(')
        .map(|rest| rest.strip_suffix(')').ok_or_else(bad))
        .transpose()?
        .unwrap_or(s);
    let mut parts = inner.split(',');
    let mut next = || -> Result<u8, SchemeError> {
        parts
            .next()
            .ok_or_else(bad)?
            .trim()
            .parse()
            .map_err(|_| bad())
    };
    let triple = (next()?, next()?, next()?);
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(triple)
}

fn parse_width(scheme: &'static str, s: &str) -> Result<u8, SchemeError> {
    s.trim().parse().map_err(|_| SchemeError::BadParams {
        scheme,
        params: s.to_owned(),
    })
}

impl FromStr for SchemeSpec {
    type Err = SchemeError;

    /// Parses a scheme identifier string.
    ///
    /// Accepted forms: `"fp32"`, `"fp16"`, `"int8"`, `"bfp4"`,
    /// `"bbfp:4,2"` (also `"bbfp(4,2)"` / `"bbfp4,2"`), `"olive"`,
    /// `"oltron"`, `"omniquant"`. Parsing validates the width
    /// parameters and round-trips through [`fmt::Display`]:
    ///
    /// ```
    /// use bbal_core::{SchemeSpec, SchemeError};
    ///
    /// let scheme: SchemeSpec = "bbfp:4,2".parse()?;
    /// assert_eq!(scheme, SchemeSpec::Bbfp(4, 2));
    /// assert_eq!(scheme.to_string().parse::<SchemeSpec>()?, scheme);
    ///
    /// // Invalid widths are typed errors, not panics.
    /// assert!("bbfp:4,7".parse::<SchemeSpec>().is_err());
    /// # Ok::<(), SchemeError>(())
    /// ```
    fn from_str(s: &str) -> Result<SchemeSpec, SchemeError> {
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Err(SchemeError::Empty);
        }
        let lower = trimmed.to_ascii_lowercase();
        let spec = match lower.as_str() {
            "fp32" => SchemeSpec::Fp32,
            "fp16" => SchemeSpec::Fp16,
            "olive" => SchemeSpec::Olive,
            "oltron" => SchemeSpec::Oltron,
            "omniquant" => SchemeSpec::OmniQuant,
            _ => {
                if let Some(rest) = lower.strip_prefix("blockmf") {
                    // "blockmf:4,3,8" canonical; "blockmf(4,3,8)" accepted.
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "blockmf",
                            params: String::new(),
                        });
                    }
                    let (e, m, bias) = parse_triple("blockmf", rest)?;
                    SchemeSpec::BlockMf(e, m, bias)
                } else if let Some(rest) = lower.strip_prefix("msfp") {
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "msfp",
                            params: String::new(),
                        });
                    }
                    let (m, block) = parse_pair("msfp", rest)?;
                    SchemeSpec::Msfp(m, block)
                } else if let Some(rest) = lower.strip_prefix("mx") {
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "mx",
                            params: String::new(),
                        });
                    }
                    let (e, m, sub) = parse_triple("mx", rest)?;
                    SchemeSpec::Mx(e, m, sub)
                } else if let Some(rest) = lower.strip_prefix("bbfp") {
                    // "bbfp:4,2" canonical; "bbfp(4,2)" / "bbfp4,2" accepted.
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "bbfp",
                            params: String::new(),
                        });
                    }
                    let (m, o) = parse_pair("bbfp", rest)?;
                    SchemeSpec::Bbfp(m, o)
                } else if let Some(rest) = lower.strip_prefix("bfp") {
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "bfp",
                            params: String::new(),
                        });
                    }
                    SchemeSpec::Bfp(parse_width("bfp", rest)?)
                } else if let Some(rest) = lower.strip_prefix("int") {
                    let rest = rest.strip_prefix(':').unwrap_or(rest);
                    if rest.is_empty() {
                        return Err(SchemeError::BadParams {
                            scheme: "int",
                            params: String::new(),
                        });
                    }
                    SchemeSpec::Int(parse_width("int", rest)?)
                } else {
                    return Err(SchemeError::Unknown(trimmed.to_owned()));
                }
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl TryFrom<&str> for SchemeSpec {
    type Error = SchemeError;

    fn try_from(s: &str) -> Result<SchemeSpec, SchemeError> {
        s.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_parse() {
        assert_eq!("fp32".parse::<SchemeSpec>().unwrap(), SchemeSpec::Fp32);
        assert_eq!("fp16".parse::<SchemeSpec>().unwrap(), SchemeSpec::Fp16);
        assert_eq!("int8".parse::<SchemeSpec>().unwrap(), SchemeSpec::Int(8));
        assert_eq!("bfp4".parse::<SchemeSpec>().unwrap(), SchemeSpec::Bfp(4));
        assert_eq!(
            "bbfp:4,2".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Bbfp(4, 2)
        );
        assert_eq!("olive".parse::<SchemeSpec>().unwrap(), SchemeSpec::Olive);
        assert_eq!("oltron".parse::<SchemeSpec>().unwrap(), SchemeSpec::Oltron);
        assert_eq!(
            "omniquant".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::OmniQuant
        );
    }

    #[test]
    fn paper_names_parse_too() {
        for s in SchemeSpec::enumerate() {
            assert_eq!(s.paper_name().parse::<SchemeSpec>().unwrap(), s);
        }
    }

    #[test]
    fn display_round_trips() {
        for s in SchemeSpec::enumerate() {
            assert_eq!(s.to_string().parse::<SchemeSpec>().unwrap(), s);
        }
    }

    #[test]
    fn malformed_strings_are_typed_errors() {
        assert_eq!("".parse::<SchemeSpec>(), Err(SchemeError::Empty));
        assert_eq!("  ".parse::<SchemeSpec>(), Err(SchemeError::Empty));
        assert!(matches!(
            "bfp".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "bfp", .. })
        ));
        assert!(matches!(
            "bbfp:9,9".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::OverlapWidth { .. }))
        ));
        assert!(matches!(
            "bbfp:11,2".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::MantissaWidth(11)))
        ));
        assert!(matches!(
            "int99".parse::<SchemeSpec>(),
            Err(SchemeError::IntBits(99))
        ));
        assert!(matches!(
            "bbfp:4,x".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "bbfp", .. })
        ));
        assert!(matches!(
            "fp42".parse::<SchemeSpec>(),
            Err(SchemeError::Unknown(_))
        ));
    }

    #[test]
    fn new_family_strings_parse() {
        assert_eq!(
            "mx:8,4,2".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Mx(8, 4, 2)
        );
        assert_eq!(
            "msfp:4,16".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Msfp(4, 16)
        );
        assert_eq!(
            "blockmf:4,3,8".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::BlockMf(4, 3, 8)
        );
        // Paper-name and parenthesised forms round-trip too.
        assert_eq!(
            "MX(8,4,2)".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Mx(8, 4, 2)
        );
        assert_eq!(
            "MSFP(4,16)".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Msfp(4, 16)
        );
        assert_eq!(
            "BlockMF(4,3,8)".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::BlockMf(4, 3, 8)
        );
    }

    #[test]
    fn malformed_family_ids_are_typed_errors() {
        // Missing parameters.
        assert!(matches!(
            "mx:".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "mx", .. })
        ));
        assert!(matches!(
            "mx".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "mx", .. })
        ));
        assert!(matches!(
            "msfp:4".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "msfp", .. })
        ));
        assert!(matches!(
            "blockmf:4,3".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams {
                scheme: "blockmf",
                ..
            })
        ));
        // Out-of-range widths surface the format layer's typed errors.
        assert!(matches!(
            "msfp:0,32".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::MantissaWidth(0)))
        ));
        assert!(matches!(
            "msfp:4,3".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::BlockSize(3)))
        ));
        assert!(matches!(
            "blockmf:9,9,9".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::ExponentWidth(9)))
        ));
        assert!(matches!(
            "mx:9,4,2".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::ScaleWidth(9)))
        ));
        assert!(matches!(
            "mx:8,4,3".parse::<SchemeSpec>(),
            Err(SchemeError::Format(FormatError::SubBlock { .. }))
        ));
        // Trailing garbage never parses.
        assert!(matches!(
            "mx:8,4,2,9".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "mx", .. })
        ));
        assert!(matches!(
            "mx:8,4,2x".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "mx", .. })
        ));
        assert!(matches!(
            "msfp:4,16junk".parse::<SchemeSpec>(),
            Err(SchemeError::BadParams { scheme: "msfp", .. })
        ));
        // The message tells the user what the family expects.
        let err = "mx:".parse::<SchemeSpec>().unwrap_err().to_string();
        assert!(err.contains("mx:<e>,<m>,<sub>"), "{err}");
    }

    #[test]
    fn schemes_lower_to_algebra_points() {
        // Block formats lower to packable points with matching costs.
        let mx = SchemeSpec::Mx(8, 4, 2).algebra().unwrap().unwrap();
        assert_eq!(mx.block_size, 32);
        let msfp = SchemeSpec::Msfp(4, 16).algebra().unwrap().unwrap();
        assert_eq!(msfp.block_size, 16);
        let bmf = SchemeSpec::BlockMf(4, 3, 8).algebra().unwrap().unwrap();
        assert!(bmf.packable());
        // Scalars lower to degenerate cost-accounting points.
        let fp16 = SchemeSpec::Fp16.algebra().unwrap().unwrap();
        assert_eq!(fp16.cost().equivalent_bit_width, 16.0);
        assert!(!fp16.packable());
        // Outlier-aware baselines are not block formats.
        assert!(SchemeSpec::Oltron.algebra().unwrap().is_none());
        // Display names agree with paper names for block formats.
        for s in SchemeSpec::enumerate() {
            if let Some(alg) = s.algebra().unwrap() {
                if alg.packable() {
                    assert_eq!(alg.display_name(), s.paper_name(), "{s}");
                }
            }
        }
    }

    #[test]
    fn const_validity_matches_runtime_validation() {
        for s in SchemeSpec::enumerate() {
            assert!(s.is_valid() && s.validate().is_ok(), "{s}");
        }
        for bad in [
            SchemeSpec::Bbfp(9, 9),
            SchemeSpec::Bbfp(0, 0),
            SchemeSpec::Bfp(11),
            SchemeSpec::Int(1),
        ] {
            assert!(!bad.is_valid());
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn configs_derive_from_specs() {
        let cfg = SchemeSpec::Bbfp(4, 2).bbfp_config().unwrap().unwrap();
        assert_eq!((cfg.mantissa_bits(), cfg.overlap_bits()), (4, 2));
        assert!(SchemeSpec::Fp16.bbfp_config().unwrap().is_none());
        let bfp = SchemeSpec::Bfp(6).algebra().unwrap().unwrap();
        assert_eq!(bfp.mantissa_bits, 6);
        assert!(SchemeSpec::Bbfp(9, 9).bbfp_config().is_err());
    }

    #[test]
    fn case_insensitive_parsing() {
        assert_eq!(
            "BBFP(6,3)".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Bbfp(6, 3)
        );
        assert_eq!("FP16".parse::<SchemeSpec>().unwrap(), SchemeSpec::Fp16);
        assert_eq!(
            "OmniQuant".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::OmniQuant
        );
    }
}
