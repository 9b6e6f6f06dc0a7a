//! Iso-area comparison support (Fig. 8): under a fixed PE-array area
//! budget, cheaper PEs buy more parallelism.

use crate::config::{AcceleratorConfig, ConfigError, FormatSpec};
use crate::sim::{simulate, SimReport};
use bbal_arith::{GateLibrary, ProcessingElement};
use bbal_core::SchemeSpec;
use bbal_llm::graph::Op;

/// The PE array geometry affordable under an area budget: the largest
/// near-square `rows × cols` array whose area fits.
pub fn array_for_budget(format: FormatSpec, budget_um2: f64, lib: &GateLibrary) -> (usize, usize) {
    let pe_area = ProcessingElement::with_exponent_adder(format.pe)
        .cost(lib)
        .area_um2;
    let count = (budget_um2 / pe_area).floor().max(1.0) as usize;
    // Largest square-ish factorisation <= count, preferring powers of two
    // columns for tiling.
    let side = (count as f64).sqrt().floor() as usize;
    let cols = side.next_power_of_two() / if side.is_power_of_two() { 1 } else { 2 };
    let cols = cols.max(1);
    let rows = (count / cols).max(1);
    (rows, cols)
}

/// One Fig. 8 data point: a method's throughput under the shared budget.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoAreaPoint {
    /// The scheme this point belongs to.
    pub scheme: SchemeSpec,
    /// Method name (the scheme's paper name).
    pub name: String,
    /// PE array geometry under the budget.
    pub pe_rows: usize,
    /// PE array columns.
    pub pe_cols: usize,
    /// Simulation report for the reference workload.
    pub report: SimReport,
    /// Throughput in GMAC/s.
    pub throughput_gmacs: f64,
}

/// Evaluates a scheme lineup under one area budget on a reference
/// workload.
///
/// # Errors
///
/// Propagates [`ConfigError::Scheme`] for schemes without a hardware
/// mapping (e.g. `fp16`).
pub fn iso_area_sweep(
    schemes: &[SchemeSpec],
    budget_um2: f64,
    workload: &[Op],
    lib: &GateLibrary,
) -> Result<Vec<IsoAreaPoint>, ConfigError> {
    schemes
        .iter()
        .map(|&scheme| {
            let spec = FormatSpec::from_scheme(scheme)?;
            let (rows, cols) = array_for_budget(spec, budget_um2, lib);
            let cfg = AcceleratorConfig::with_format(spec, rows, cols)?;
            let report = simulate(&cfg, workload, lib);
            Ok(IsoAreaPoint {
                scheme,
                name: scheme.paper_name(),
                pe_rows: rows,
                pe_cols: cols,
                throughput_gmacs: report.throughput_gmacs(cfg.clock_ghz),
                report,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_llm::graph::GemmKind;

    fn workload() -> Vec<Op> {
        vec![
            Op::Gemm {
                name: GemmKind::Query,
                m: 512,
                k: 2048,
                n: 2048,
            },
            Op::Gemm {
                name: GemmKind::Fc1,
                m: 512,
                k: 2048,
                n: 8192,
            },
        ]
    }

    #[test]
    fn cheaper_pes_get_bigger_arrays() {
        let lib = GateLibrary::default();
        let budget = 50_000.0;
        let (r3, c3) = array_for_budget(
            FormatSpec::from_scheme(SchemeSpec::Bbfp(3, 1)).unwrap(),
            budget,
            &lib,
        );
        let (r6, c6) = array_for_budget(
            FormatSpec::from_scheme(SchemeSpec::Bbfp(6, 3)).unwrap(),
            budget,
            &lib,
        );
        assert!(r3 * c3 > r6 * c6, "{} vs {}", r3 * c3, r6 * c6);
    }

    #[test]
    fn fig8_bbfp31_beats_bfp4_throughput_by_about_40_percent() {
        // Paper §V-B: "compared to BFP4, BBFP(3,1) and BBFP(3,2) achieve a
        // 40% throughput improvement".
        let lib = GateLibrary::default();
        let schemes = [SchemeSpec::Bfp(4), SchemeSpec::Bbfp(3, 1)];
        let points = iso_area_sweep(&schemes, 60_000.0, &workload(), &lib).unwrap();
        let bfp4 = points[0].throughput_gmacs;
        let bbfp31 = points[1].throughput_gmacs;
        let gain = bbfp31 / bfp4 - 1.0;
        assert!(
            (0.15..0.80).contains(&gain),
            "throughput gain {:.0}%",
            gain * 100.0
        );
    }

    #[test]
    fn fig8_bbfp4_trails_oltron_throughput() {
        // Paper §V-B: "The BBFP with a width of 4 shows a 30% drop in
        // throughput compared to Oltron".
        let lib = GateLibrary::default();
        let schemes = [SchemeSpec::Oltron, SchemeSpec::Bbfp(4, 2)];
        let points = iso_area_sweep(&schemes, 60_000.0, &workload(), &lib).unwrap();
        let drop = 1.0 - points[1].throughput_gmacs / points[0].throughput_gmacs;
        assert!((0.10..0.50).contains(&drop), "drop {:.0}%", drop * 100.0);
    }

    #[test]
    fn sweep_rejects_unmappable_schemes() {
        let lib = GateLibrary::default();
        let err = iso_area_sweep(&[SchemeSpec::Fp16], 60_000.0, &workload(), &lib);
        assert!(matches!(err, Err(ConfigError::Scheme(_))));
    }

    #[test]
    fn budget_is_respected() {
        let lib = GateLibrary::default();
        for spec in [
            FormatSpec::from_scheme(SchemeSpec::Bfp(4)).unwrap(),
            FormatSpec::from_scheme(SchemeSpec::Bbfp(6, 3)).unwrap(),
            FormatSpec::oltron(),
        ] {
            let budget = 40_000.0;
            let (r, c) = array_for_budget(spec, budget, &lib);
            let pe = ProcessingElement::with_exponent_adder(spec.pe)
                .cost(&lib)
                .area_um2;
            assert!(
                (r * c) as f64 * pe <= budget * 1.01,
                "{spec:?}: {} PEs over budget",
                r * c
            );
        }
    }
}
