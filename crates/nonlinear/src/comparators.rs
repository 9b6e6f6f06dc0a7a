//! The two published softmax units the paper compares against in Table V,
//! reconstructed at the block-diagram level and costed with the same gate
//! library and memory models as our unit.
//!
//! * **Pseudo-softmax** (Cardarilli et al., Scientific Reports 2021,
//!   ref \[32\]): an INT8, base-2 approximation — `2^(xi−max)` with a
//!   power-of-two normaliser, so division becomes a shift. Tiny and fast,
//!   but an *approximation* of softmax, with correspondingly limited
//!   compatibility (softmax only).
//! * **High-precision base-2 softmax** (Zhang et al., TCAS-I 2023,
//!   ref \[33\]): 27-bit fixed-point decomposition `2^u = 2^i · 2^f` with
//!   polynomial correction, wide multipliers and a true divider —
//!   accuracy-first, at heavy area/energy cost.

use crate::unit::NonlinearUnit;
use bbal_arith::{
    ArrayMultiplier, BarrelShifter, CostSummary, GateCounts, GateKind, GateLibrary,
    LeadingOneDetector, MaxTree, RestoringDivider, RippleCarryAdder,
};
use bbal_core::ElementKind;

/// One Table V row.
#[derive(Debug, Clone, PartialEq)]
pub struct TableVRow {
    /// Design name (paper citation or "Ours").
    pub name: String,
    /// Parallel element count ("Num" column).
    pub num: u32,
    /// Number format ("Format" column).
    pub format: String,
    /// Area-delay product (normalised units, lower better).
    pub adp: f64,
    /// Energy-delay product (normalised units, lower better).
    pub edp: f64,
    /// Throughput / (area × power) (higher better).
    pub efficiency: f64,
    /// What the unit can compute beyond softmax.
    pub compatibility: &'static str,
}

fn efficiency(throughput_gops: f64, cost: &CostSummary, clock_ghz: f64) -> f64 {
    // Power = dynamic (energy/op × ops/s) + leakage.
    let dynamic_mw = cost.energy_pj * throughput_gops; // pJ × Gops/s = mW
    let leak_mw = cost.leakage_nw / 1.0e6;
    let power_mw = dynamic_mw + leak_mw;
    let area_mm2 = cost.area_um2 / 1.0e6;
    let _ = clock_ghz;
    throughput_gops / (area_mm2 * power_mw)
}

/// The INT8 pseudo-softmax unit of ref \[32\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoSoftmaxUnit {
    /// Parallel lanes (the published design processes 10 elements).
    pub lanes: u32,
}

impl PseudoSoftmaxUnit {
    /// The published 10-lane configuration.
    pub fn paper() -> PseudoSoftmaxUnit {
        PseudoSoftmaxUnit { lanes: 10 }
    }

    /// Approximate softmax: `2^(x−max)` normalised by a power of two
    /// (the sum rounded up to the next power of two) — division-free.
    pub fn softmax_row(&self, row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // INT8 fixed-point exponent difference, base-2.
        let mut sum = 0.0f64;
        for v in row.iter_mut() {
            let d = ((*v - max) as f64 * std::f64::consts::LOG2_E).max(-126.0);
            *v = (d.floor()).exp2() as f32; // integer-part-only 2^d
            sum += *v as f64;
        }
        // Normalise by the next power of two above the sum (a shift).
        let denom = sum.log2().ceil().exp2();
        for v in row.iter_mut() {
            *v = (*v as f64 / denom) as f32;
        }
    }

    /// Structural cost: per-lane INT8 subtract + shifter, a max tree, an
    /// adder tree, and a leading-one detector for the normaliser. No
    /// multipliers, no divider, no LUT.
    pub fn cost(&self, lib: &GateLibrary) -> CostSummary {
        let lanes = self.lanes as u64;
        let mut g = GateCounts::new();
        g += MaxTree::new(self.lanes.next_power_of_two().max(2), 8).gate_counts();
        g += RippleCarryAdder::new(8).gate_counts() * lanes;
        g += BarrelShifter::new(16, 15).gate_counts() * lanes;
        g += RippleCarryAdder::new(16).gate_counts() * (lanes - 1);
        g += LeadingOneDetector::new(20).gate_counts();
        g += GateCounts::new().with(GateKind::Dff, 3 * lanes * 8);
        CostSummary {
            area_um2: g.area_um2(lib),
            energy_pj: g.energy_pj(lib, 0.2),
            delay_ps: BarrelShifter::new(16, 15).cost(lib).delay_ps
                + RippleCarryAdder::new(16).cost(lib).delay_ps,
            leakage_nw: g.leakage_nw(lib),
        }
    }

    /// Table V row.
    pub fn table5_row(&self, lib: &GateLibrary) -> TableVRow {
        let cost = self.cost(lib);
        let throughput = self.lanes as f64 * 1.0; // 1 GHz
        TableVRow {
            name: "[32] pseudo-softmax".to_owned(),
            num: self.lanes,
            format: "Int8".to_owned(),
            adp: cost.adp(),
            edp: cost.edp(),
            efficiency: efficiency(throughput, &cost, 1.0),
            compatibility: "-",
        }
    }
}

/// The 27-bit high-precision base-2 softmax unit of ref \[33\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighPrecisionSoftmaxUnit {
    /// Parallel lanes (the published design processes 8 elements).
    pub lanes: u32,
}

impl HighPrecisionSoftmaxUnit {
    /// The published 8-lane configuration.
    pub fn paper() -> HighPrecisionSoftmaxUnit {
        HighPrecisionSoftmaxUnit { lanes: 8 }
    }

    /// Near-exact softmax (the published design reaches ~1e-7 error; the
    /// f64 reference models that fidelity).
    pub fn softmax_row(&self, row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f64;
        for v in row.iter_mut() {
            *v = ((*v - max) as f64).exp() as f32;
            sum += *v as f64;
        }
        for v in row.iter_mut() {
            *v = (*v as f64 / sum) as f32;
        }
    }

    /// Structural cost: per-lane 27-bit multipliers (polynomial
    /// correction), wide adder tree, a 27-bit divider per lane pair, and
    /// deep pipeline registers — the "high-precision, high-bitwidth"
    /// overhead the paper contrasts with.
    pub fn cost(&self, lib: &GateLibrary) -> CostSummary {
        let lanes = self.lanes as u64;
        let w = 27;
        let mut g = GateCounts::new();
        g += MaxTree::new(self.lanes.next_power_of_two().max(2), w).gate_counts();
        g += RippleCarryAdder::new(w).gate_counts() * lanes;
        // Two wide multipliers per lane (2^f polynomial, then scaling).
        g += ArrayMultiplier::new(w).gate_counts() * (2 * lanes);
        g += RippleCarryAdder::new(w + 3).gate_counts() * (lanes - 1);
        // One full divider per lane (the published architecture divides
        // every element in parallel for throughput).
        g += RestoringDivider::new(w).gate_counts() * lanes;
        g += GateCounts::new().with(GateKind::Dff, 8 * lanes * w as u64);
        CostSummary {
            area_um2: g.area_um2(lib),
            energy_pj: g.energy_pj(lib, 0.25),
            delay_ps: ArrayMultiplier::new(w).cost(lib).delay_ps
                + RestoringDivider::new(w).cost(lib).delay_ps / w as f64, // pipelined divider stage
            leakage_nw: g.leakage_nw(lib),
        }
    }

    /// Table V row.
    pub fn table5_row(&self, lib: &GateLibrary) -> TableVRow {
        let cost = self.cost(lib);
        let throughput = self.lanes as f64 * 1.0;
        TableVRow {
            name: "[33] high-precision".to_owned(),
            num: self.lanes,
            format: "Int27".to_owned(),
            adp: cost.adp(),
            edp: cost.edp(),
            efficiency: efficiency(throughput, &cost, 1.0),
            compatibility: "-",
        }
    }
}

/// Our unit's Table V row.
pub fn ours_table5_row(unit: &NonlinearUnit, lib: &GateLibrary) -> TableVRow {
    let cost = unit.cost(lib);
    let format = unit.config().format;
    let overlap = match format.element {
        ElementKind::Flagged { overlap_bits } => overlap_bits,
        _ => 0,
    };
    TableVRow {
        name: "Ours".to_owned(),
        num: unit.config().lanes,
        format: format!("BBFP({},{overlap},5)", format.mantissa_bits),
        adp: cost.adp(),
        edp: cost.edp(),
        efficiency: efficiency(unit.throughput_gops(), &cost, unit.config().clock_ghz),
        compatibility: "SILU and so on",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::NonlinearUnitConfig;
    use bbal_llm::ops;

    #[test]
    fn pseudo_softmax_is_approximate() {
        let unit = PseudoSoftmaxUnit::paper();
        let mut row: Vec<f32> = (0..10).map(|i| i as f32 * 0.7).collect();
        let mut exact = row.clone();
        ops::softmax_in_place(&mut exact);
        unit.softmax_row(&mut row);
        let err: f32 = row.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum();
        // Visibly wrong (it is an approximation) but in the ballpark.
        assert!(err > 0.01, "err {err}");
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn high_precision_unit_is_nearly_exact() {
        let unit = HighPrecisionSoftmaxUnit::paper();
        let mut row: Vec<f32> = (0..8).map(|i| i as f32 * 0.9 - 3.0).collect();
        let mut exact = row.clone();
        ops::softmax_in_place(&mut exact);
        unit.softmax_row(&mut row);
        for (a, b) in row.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn table5_shape_matches_paper() {
        // Paper Table V: ours has worse ADP/EDP than [32] but ~30x better
        // efficiency than [33].
        let lib = GateLibrary::default();
        let pseudo = PseudoSoftmaxUnit::paper().table5_row(&lib);
        let high = HighPrecisionSoftmaxUnit::paper().table5_row(&lib);
        let ours = ours_table5_row(&NonlinearUnit::new(NonlinearUnitConfig::paper()), &lib);

        assert!(
            ours.adp > pseudo.adp,
            "ADP: ours {} vs [32] {}",
            ours.adp,
            pseudo.adp
        );
        assert!(
            ours.edp > pseudo.edp,
            "EDP: ours {} vs [32] {}",
            ours.edp,
            pseudo.edp
        );
        assert!(
            ours.adp < high.adp,
            "ADP: ours {} vs [33] {}",
            ours.adp,
            high.adp
        );
        let eff_ratio = ours.efficiency / high.efficiency;
        assert!(
            (5.0..200.0).contains(&eff_ratio),
            "efficiency ratio vs [33]: {eff_ratio}"
        );
    }

    #[test]
    fn only_ours_is_multi_function() {
        let lib = GateLibrary::default();
        let ours = ours_table5_row(&NonlinearUnit::new(NonlinearUnitConfig::paper()), &lib);
        assert_eq!(ours.compatibility, "SILU and so on");
        assert_eq!(
            PseudoSoftmaxUnit::paper().table5_row(&lib).compatibility,
            "-"
        );
    }
}
