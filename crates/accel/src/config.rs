//! Accelerator configuration: PE array geometry, buffers, DRAM channel,
//! nonlinear unit and the data-format specialisation (Fig. 7).
//!
//! Both [`FormatSpec`] and [`AcceleratorConfig`] derive from a
//! [`SchemeSpec`], so one parsed scheme string specialises the whole
//! accelerator:
//!
//! ```
//! use bbal_accel::{AcceleratorConfig, FormatSpec};
//! use bbal_core::SchemeSpec;
//!
//! let scheme: SchemeSpec = "bbfp:4,2".parse()?;
//! let spec = FormatSpec::from_scheme(scheme)?;
//! let cfg = AcceleratorConfig::for_scheme(scheme, 16, 16)?;
//! assert_eq!(cfg.format, spec);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use bbal_arith::{GateLibrary, PeKind, ProcessingElement};
use bbal_core::{FormatError, SchemeError, SchemeSpec};
use bbal_mem::{DramChannel, MemError, SramMacro};
use bbal_nonlinear::NonlinearUnitConfig;
use std::fmt;

/// Errors from accelerator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A PE array dimension was zero.
    Geometry {
        /// Requested rows.
        pe_rows: usize,
        /// Requested columns.
        pe_cols: usize,
    },
    /// An SRAM buffer could not be constructed.
    Buffer(MemError),
    /// The scheme cannot specialise this accelerator.
    Scheme(SchemeError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry { pe_rows, pe_cols } => {
                write!(f, "degenerate PE array geometry {pe_rows}x{pe_cols}")
            }
            ConfigError::Buffer(e) => write!(f, "invalid buffer: {e}"),
            ConfigError::Scheme(e) => write!(f, "invalid scheme: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Buffer(e) => Some(e),
            ConfigError::Scheme(e) => Some(e),
            ConfigError::Geometry { .. } => None,
        }
    }
}

impl From<MemError> for ConfigError {
    fn from(e: MemError) -> ConfigError {
        ConfigError::Buffer(e)
    }
}

impl From<SchemeError> for ConfigError {
    fn from(e: SchemeError) -> ConfigError {
        ConfigError::Scheme(e)
    }
}

impl From<FormatError> for ConfigError {
    fn from(e: FormatError) -> ConfigError {
        ConfigError::Scheme(SchemeError::Format(e))
    }
}

/// The data format an accelerator instance is specialised for: fixes the
/// PE microarchitecture and the storage bits per element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatSpec {
    /// PE microarchitecture.
    pub pe: PeKind,
    /// Storage bits per weight element (shared exponent amortised).
    pub weight_bits: f64,
    /// Storage bits per activation element.
    pub activation_bits: f64,
}

impl FormatSpec {
    /// The paper's BBAL format: BBFP(4,2).
    pub fn bbal_paper() -> FormatSpec {
        // BBFP(4,2) is compile-time valid (see `SchemeSpec::BBAL_PAPER`).
        FormatSpec::from_scheme(SchemeSpec::BBAL_PAPER)
            .unwrap_or_else(|_| unreachable!("BBFP(4,2) is a valid format"))
    }

    /// Specification for the Oltron baseline: 4-bit body plus the
    /// amortised outlier side-band (3 × 8-bit slots per 128 elements).
    pub fn oltron() -> FormatSpec {
        let bits = 5.0 + (3.0 * 8.0) / 128.0;
        FormatSpec {
            pe: PeKind::Oltron,
            weight_bits: bits,
            activation_bits: bits,
        }
    }

    /// Specification for the Olive baseline: 4-bit pairs (outliers reuse
    /// the victim's bits) plus a 1-bit pair marker.
    pub fn olive() -> FormatSpec {
        let bits = 5.0 + 0.5;
        FormatSpec {
            pe: PeKind::Olive,
            weight_bits: bits,
            activation_bits: bits,
        }
    }

    /// Derives the hardware format for a scheme — the Fig. 8 mapping from
    /// quantisation method to PE microarchitecture.
    ///
    /// # Errors
    ///
    /// [`SchemeError::NoHardwareMapping`] for schemes without a Fig. 8 PE
    /// design (`fp32`, `fp16`, `int*`, `omniquant`), and the scheme's own
    /// validation error for invalid widths.
    pub fn from_scheme(scheme: SchemeSpec) -> Result<FormatSpec, SchemeError> {
        scheme.validate()?;
        match scheme {
            SchemeSpec::Oltron => Ok(FormatSpec::oltron()),
            SchemeSpec::Olive => Ok(FormatSpec::olive()),
            // Block families: the PE microarchitecture and the amortised
            // storage bits both fall out of the format-algebra point.
            _ => {
                let alg = scheme
                    .block_algebra()
                    .ok_or(SchemeError::NoHardwareMapping(scheme))?;
                let bits = alg.cost().equivalent_bit_width;
                Ok(FormatSpec {
                    pe: PeKind::Algebra(alg),
                    weight_bits: bits,
                    activation_bits: bits,
                })
            }
        }
    }
}

/// Full accelerator configuration (Fig. 7's organisation).
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Data format specialisation.
    pub format: FormatSpec,
    /// PE array rows (the weight-stationary `k` dimension).
    pub pe_rows: usize,
    /// PE array columns (the output `n` dimension).
    pub pe_cols: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Input (activation) buffer.
    pub input_buffer: SramMacro,
    /// Weight buffer.
    pub weight_buffer: SramMacro,
    /// Output buffer.
    pub output_buffer: SramMacro,
    /// External memory channel.
    pub dram: DramChannel,
    /// Nonlinear unit configuration.
    pub nonlinear: NonlinearUnitConfig,
}

impl AcceleratorConfig {
    /// The paper's BBAL instance: a 16×16 BBFP(4,2) PE array with 64 KiB
    /// input/weight buffers and a 32 KiB output buffer at 1 GHz.
    pub fn bbal_paper() -> AcceleratorConfig {
        // Every constant here is compile-time valid.
        AcceleratorConfig::with_format(FormatSpec::bbal_paper(), 16, 16)
            .unwrap_or_else(|_| unreachable!("the paper geometry is valid"))
    }

    /// An instance with a chosen format and PE array geometry, using the
    /// paper's buffer sizes.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Geometry`] if a dimension is zero.
    pub fn with_format(
        format: FormatSpec,
        pe_rows: usize,
        pe_cols: usize,
    ) -> Result<AcceleratorConfig, ConfigError> {
        if pe_rows == 0 || pe_cols == 0 {
            return Err(ConfigError::Geometry { pe_rows, pe_cols });
        }
        Ok(AcceleratorConfig {
            format,
            pe_rows,
            pe_cols,
            clock_ghz: 1.0,
            input_buffer: SramMacro::new(64 * 1024, 256)?,
            weight_buffer: SramMacro::new(64 * 1024, 256)?,
            output_buffer: SramMacro::new(32 * 1024, 256)?,
            dram: DramChannel::lpddr4(),
            nonlinear: NonlinearUnitConfig::paper(),
        })
    }

    /// An instance specialised for a scheme (see
    /// [`FormatSpec::from_scheme`]) with the paper's buffer sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError::Scheme`] for schemes without a hardware
    /// mapping and [`ConfigError::Geometry`] for a zero dimension.
    pub fn for_scheme(
        scheme: SchemeSpec,
        pe_rows: usize,
        pe_cols: usize,
    ) -> Result<AcceleratorConfig, ConfigError> {
        AcceleratorConfig::with_format(FormatSpec::from_scheme(scheme)?, pe_rows, pe_cols)
    }

    /// Replaces the input/weight buffers with macros of `bytes` capacity
    /// (output buffer scaled to half).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Buffer`] if `bytes` is too small for the 256-bit
    /// port.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Result<AcceleratorConfig, ConfigError> {
        self.input_buffer = SramMacro::new(bytes, 256)?;
        self.weight_buffer = SramMacro::new(bytes, 256)?;
        self.output_buffer = SramMacro::new((bytes / 2).max(64), 256)?;
        Ok(self)
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Area of the PE array in µm² (type-① PEs on the first row carry the
    /// shared-exponent adder; the rest bypass, per Fig. 7).
    pub fn pe_array_area_um2(&self, lib: &GateLibrary) -> f64 {
        let with_adder = ProcessingElement::with_exponent_adder(self.format.pe)
            .cost(lib)
            .area_um2;
        let with_bypass = ProcessingElement::with_exponent_bypass(self.format.pe)
            .cost(lib)
            .area_um2;
        self.pe_cols as f64 * with_adder + (self.pe_count() - self.pe_cols) as f64 * with_bypass
    }

    /// Leakage of the PE array plus buffers, in mW.
    pub fn static_power_mw(&self, lib: &GateLibrary) -> f64 {
        let pe_leak_nw = ProcessingElement::with_exponent_adder(self.format.pe)
            .cost(lib)
            .leakage_nw;
        let pe_mw = pe_leak_nw * self.pe_count() as f64 / 1.0e6;
        pe_mw
            + self.input_buffer.leakage_mw()
            + self.weight_buffer.leakage_mw()
            + self.output_buffer.leakage_mw()
    }

    /// Per-MAC core energy in pJ.
    pub fn pe_energy_pj(&self, lib: &GateLibrary) -> f64 {
        ProcessingElement::with_exponent_adder(self.format.pe)
            .cost(lib)
            .energy_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        let c = AcceleratorConfig::bbal_paper();
        assert_eq!(c.pe_count(), 256);
        assert_eq!(
            c.format.pe,
            PeKind::from_scheme(SchemeSpec::Bbfp(4, 2)).unwrap()
        );
        assert_eq!(c.format.pe.name(), "BBFP(4,2)");
    }

    #[test]
    fn format_bits_match_core_costs() {
        let bfp6 = FormatSpec::from_scheme(SchemeSpec::Bfp(6)).unwrap();
        assert!((bfp6.weight_bits - 7.15625).abs() < 1e-9);
        let bbfp42 = FormatSpec::from_scheme(SchemeSpec::Bbfp(4, 2)).unwrap();
        assert!((bbfp42.weight_bits - (4.0 + 2.0 + 5.0 / 32.0)).abs() < 1e-9);
    }

    #[test]
    fn from_scheme_covers_fig8_lineup() {
        for name in [
            "Oltron",
            "Olive",
            "BFP4",
            "BFP6",
            "BBFP(3,1)",
            "BBFP(3,2)",
            "BBFP(4,2)",
            "BBFP(4,3)",
            "BBFP(6,3)",
            "BBFP(6,4)",
            "BBFP(6,5)",
        ] {
            let scheme: SchemeSpec = name.parse().unwrap();
            assert!(FormatSpec::from_scheme(scheme).is_ok(), "{name}");
        }
        assert!(matches!(
            FormatSpec::from_scheme(SchemeSpec::Fp16),
            Err(SchemeError::NoHardwareMapping(SchemeSpec::Fp16))
        ));
        assert!(FormatSpec::from_scheme(SchemeSpec::Bbfp(9, 9)).is_err());
    }

    #[test]
    fn algebra_families_build_accelerator_configs() {
        let lib = GateLibrary::default();
        for (id, bits) in [
            ("mx:8,4,2", 1.0 + 4.0 + (8.0 + 16.0) / 32.0),
            ("msfp:4,16", 1.0 + 4.0 + 8.0 / 16.0),
            ("blockmf:4,3,8", 1.0 + 3.0 + 4.0 + 8.0 / 32.0),
        ] {
            let scheme: SchemeSpec = id.parse().unwrap();
            let cfg = AcceleratorConfig::for_scheme(scheme, 16, 16).unwrap();
            assert!((cfg.format.weight_bits - bits).abs() < 1e-9, "{id}");
            assert_eq!(cfg.format.activation_bits, cfg.format.weight_bits);
            assert!(cfg.pe_array_area_um2(&lib) > 0.0, "{id}");
            assert!(cfg.static_power_mw(&lib) > 0.0, "{id}");
        }
    }

    #[test]
    fn degenerate_geometry_is_an_error() {
        let spec = FormatSpec::bbal_paper();
        assert!(matches!(
            AcceleratorConfig::with_format(spec, 0, 16),
            Err(ConfigError::Geometry { .. })
        ));
        assert!(AcceleratorConfig::for_scheme(SchemeSpec::Fp32, 16, 16).is_err());
    }

    #[test]
    fn pe_array_area_scales_with_count() {
        let lib = GateLibrary::default();
        let small = AcceleratorConfig::with_format(FormatSpec::bbal_paper(), 8, 8).unwrap();
        let large = AcceleratorConfig::with_format(FormatSpec::bbal_paper(), 16, 16).unwrap();
        let ratio = large.pe_array_area_um2(&lib) / small.pe_array_area_um2(&lib);
        assert!((3.9..4.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn static_power_includes_buffers() {
        let lib = GateLibrary::default();
        let c = AcceleratorConfig::bbal_paper();
        let buffers_only = c.input_buffer.leakage_mw()
            + c.weight_buffer.leakage_mw()
            + c.output_buffer.leakage_mw();
        assert!(c.static_power_mw(&lib) > buffers_only);
    }
}
