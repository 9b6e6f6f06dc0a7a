//! Single processing elements — the paper's Table III comparison.
//!
//! A PE holds one weight, multiplies it with a streamed activation and adds
//! the result into a forwarded partial sum (weight-stationary systolic
//! dataflow, Fig. 7). "The PE area consists of two components: multiplier
//! and adder, with multiplier occupying the majority" (§V-B) — plus the
//! pipeline registers every systolic PE carries, and format-specific
//! extras: BBFP's flag routing and carry chain, Olive's outlier-victim
//! decode, Oltron's outlier-index control.

use crate::adder::{CarryChain, RippleCarryAdder};
use crate::gates::{CostSummary, GateCounts, GateKind, GateLibrary};
use crate::multiplier::ArrayMultiplier;
use crate::shifter::{BarrelShifter, FlagShifter};
use bbal_core::{ElementKind, FormatAlgebra, ScaleKind, SchemeSpec};

/// Guard bits each PE's partial-sum path carries above the product width.
pub const PE_GUARD_BITS: u32 = 4;

/// The quantisation strategy a PE implements (Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeKind {
    /// Oltron-style outlier-aware PE: 3-bit multiplier, low-bit adder, and
    /// outlier-index control logic.
    Oltron,
    /// Olive-style outlier-victim PE: 4-bit multiplier plus victim
    /// decode/encode logic.
    Olive,
    /// A PE derived from a block-format algebra point (BFP: `m`-bit
    /// multiplier; BBFP: plus flag routing and a sparse partial-sum
    /// adder; MX, MSFP, block minifloat): the datapath mirrors the
    /// point's scale and element kinds instead of a hand-written
    /// per-family design.
    Algebra(FormatAlgebra),
}

impl PeKind {
    /// Display name matching the paper's Table III columns.
    pub fn name(&self) -> String {
        match self {
            PeKind::Oltron => "Oltron".to_owned(),
            PeKind::Olive => "Olive".to_owned(),
            PeKind::Algebra(alg) => alg.display_name(),
        }
    }

    /// The PE of a block scheme's format-algebra point, if it has one.
    pub fn from_scheme(scheme: SchemeSpec) -> Option<PeKind> {
        scheme.block_algebra().map(PeKind::Algebra)
    }

    /// All eleven Table III columns in paper order.
    pub fn table3_lineup() -> Vec<PeKind> {
        let block = [
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
        [PeKind::Oltron, PeKind::Olive]
            .into_iter()
            .chain(block.into_iter().filter_map(PeKind::from_scheme))
            .collect()
    }
}

/// The flag's window gap `m − o` of a flagged (BBFP) point.
fn flag_gap(alg: &FormatAlgebra) -> u32 {
    alg.window_gap().unwrap_or(0)
}

/// Lane datapath gates for an algebra-derived PE, mirroring the block-MAC
/// lane structure at PE guard width (see `bbal-arith`'s `mac` module).
fn algebra_pe_gate_counts(alg: &FormatAlgebra) -> GateCounts {
    let m = alg.mantissa_bits as u32;
    match (alg.element, alg.scale) {
        (ElementKind::Minifloat { exp_bits }, _) => {
            let e = exp_bits as u32;
            let mut g = ArrayMultiplier::new(m + 1).gate_counts();
            g += RippleCarryAdder::new(e + 1).gate_counts();
            g += BarrelShifter::new(2 * (m + 1) + PE_GUARD_BITS, (1 << e) - 1).gate_counts();
            g += RippleCarryAdder::new(2 * (m + 1) + PE_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            let s = sub_scale_bits as u32;
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += FlagShifter::new(2 * m, s).gate_counts();
            g += RippleCarryAdder::new(2 * m).gate_counts();
            g += CarryChain::new(2 * s + PE_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Flagged { .. }, _) => {
            let gap = flag_gap(alg);
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += FlagShifter::new(2 * m, gap).gate_counts();
            g += RippleCarryAdder::new(2 * m).gate_counts();
            g += CarryChain::new(2 * gap + PE_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Fixed, _) => {
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += RippleCarryAdder::new(2 * m + PE_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
    }
}

/// Critical-path delay for an algebra-derived PE.
fn algebra_pe_delay_ps(alg: &FormatAlgebra, lib: &GateLibrary) -> f64 {
    let m = alg.mantissa_bits as u32;
    match (alg.element, alg.scale) {
        (ElementKind::Minifloat { exp_bits }, _) => {
            let e = exp_bits as u32;
            ArrayMultiplier::new(m + 1).cost(lib).delay_ps
                + RippleCarryAdder::new(e + 1).cost(lib).delay_ps
                + BarrelShifter::new(2 * (m + 1) + PE_GUARD_BITS, (1 << e) - 1)
                    .cost(lib)
                    .delay_ps
                + RippleCarryAdder::new(2 * (m + 1) + PE_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            let s = sub_scale_bits as u32;
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + FlagShifter::new(2 * m, s).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m).cost(lib).delay_ps
                + CarryChain::new(2 * s + PE_GUARD_BITS).cost(lib).delay_ps
        }
        (ElementKind::Flagged { .. }, _) => {
            let gap = flag_gap(alg);
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + FlagShifter::new(2 * m, gap).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m).cost(lib).delay_ps
                + CarryChain::new(2 * gap + PE_GUARD_BITS).cost(lib).delay_ps
        }
        (ElementKind::Fixed, _) => {
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m + PE_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
    }
}

/// Register widths `(weight, psum)` for an algebra-derived PE.
fn algebra_register_bits(alg: &FormatAlgebra) -> (u32, u32) {
    let m = alg.mantissa_bits as u32;
    let weight = alg.payload_bits_per_element();
    let psum = match (alg.element, alg.scale) {
        (ElementKind::Minifloat { .. }, _) => 2 * (m + 1) + PE_GUARD_BITS,
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            2 * m + 2 * sub_scale_bits as u32 + PE_GUARD_BITS
        }
        (ElementKind::Flagged { .. }, _) => 2 * m + 2 * flag_gap(alg) + PE_GUARD_BITS,
        (ElementKind::Fixed, _) => 2 * m + PE_GUARD_BITS,
    };
    (weight, psum)
}

/// One weight-stationary processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingElement {
    /// The quantisation strategy this PE implements.
    pub kind: PeKind,
    /// Whether the PE includes the shared-exponent adder (Fig. 7 PE type ①)
    /// or only the bypass path (type ②).
    pub exponent_adder: bool,
}

impl ProcessingElement {
    /// Creates a type-① PE (with shared-exponent adder).
    pub fn with_exponent_adder(kind: PeKind) -> ProcessingElement {
        ProcessingElement {
            kind,
            exponent_adder: true,
        }
    }

    /// Creates a type-② PE (exponent bypass only).
    pub fn with_exponent_bypass(kind: PeKind) -> ProcessingElement {
        ProcessingElement {
            kind,
            exponent_adder: false,
        }
    }

    /// Structural gate bag.
    pub fn gate_counts(&self) -> GateCounts {
        let mut g = match self.kind {
            PeKind::Oltron => {
                // 3-bit multiplier + 8-bit partial-sum adder + outlier
                // index decode (a handful of muxes and control gates).
                let mut g = ArrayMultiplier::new(3).gate_counts();
                g += RippleCarryAdder::new(2 * 3 + PE_GUARD_BITS - 2).gate_counts();
                g += GateCounts::new()
                    .with(GateKind::Mux2, 6)
                    .with(GateKind::And2, 4)
                    .with(GateKind::Or2, 2);
                g
            }
            PeKind::Olive => {
                // 4-bit multiplier + 12-bit adder + outlier-victim pair
                // decode: victim detection, outlier exponent extension
                // (small shifter) and re-encode muxes.
                let mut g = ArrayMultiplier::new(4).gate_counts();
                g += RippleCarryAdder::new(2 * 4 + PE_GUARD_BITS).gate_counts();
                g += GateCounts::new()
                    .with(GateKind::Mux2, 16)
                    .with(GateKind::And2, 8)
                    .with(GateKind::Xor2, 4)
                    .with(GateKind::Or2, 4);
                g
            }
            PeKind::Algebra(alg) => algebra_pe_gate_counts(&alg),
        };
        // Weight register + partial-sum pipeline register (systolic).
        let (weight_bits, psum_bits) = self.register_bits();
        g += GateCounts::new().with(GateKind::Dff, (weight_bits + psum_bits) as u64);
        if self.exponent_adder {
            g += RippleCarryAdder::new(5).gate_counts();
        } else {
            // Bypass: forwarding muxes for the exponent lane.
            g += GateCounts::new().with(GateKind::Mux2, 5);
        }
        g
    }

    fn register_bits(&self) -> (u32, u32) {
        match self.kind {
            PeKind::Oltron => (4, 2 * 3 + PE_GUARD_BITS - 2),
            PeKind::Olive => (5, 2 * 4 + PE_GUARD_BITS),
            PeKind::Algebra(alg) => algebra_register_bits(&alg),
        }
    }

    /// Physical cost.
    pub fn cost(&self, lib: &GateLibrary) -> CostSummary {
        let g = self.gate_counts();
        let delay = match self.kind {
            PeKind::Oltron => {
                ArrayMultiplier::new(3).cost(lib).delay_ps
                    + RippleCarryAdder::new(8).cost(lib).delay_ps
            }
            PeKind::Olive => {
                ArrayMultiplier::new(4).cost(lib).delay_ps
                    + RippleCarryAdder::new(12).cost(lib).delay_ps
            }
            PeKind::Algebra(alg) => algebra_pe_delay_ps(&alg, lib),
        };
        CostSummary {
            area_um2: g.area_um2(lib),
            energy_pj: g.energy_pj(lib, 0.25),
            delay_ps: delay,
            leakage_nw: g.leakage_nw(lib),
        }
    }

    /// Table III row: `(name, area µm², area normalised to BBFP(6,3))`.
    pub fn table3_rows(lib: &GateLibrary) -> Vec<(String, f64, f64)> {
        let areas: Vec<(String, f64)> = PeKind::table3_lineup()
            .into_iter()
            .map(|k| {
                let pe = ProcessingElement::with_exponent_adder(k);
                (k.name(), pe.cost(lib).area_um2)
            })
            .collect();
        let reference = areas
            .iter()
            .find(|(n, _)| n == "BBFP(6,3)")
            .map(|(_, a)| *a)
            .expect("lineup contains BBFP(6,3)");
        areas
            .into_iter()
            .map(|(n, a)| (n, a, a / reference))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(scheme: SchemeSpec) -> PeKind {
        PeKind::from_scheme(scheme).unwrap()
    }

    fn area(kind: PeKind) -> f64 {
        ProcessingElement::with_exponent_adder(kind)
            .cost(&GateLibrary::default())
            .area_um2
    }

    #[test]
    fn table3_ordering_matches_paper_norm_row() {
        // Paper Table III normalised areas: BBFP(3,2) 0.31 < BBFP(3,1) 0.32
        // ≈ Oltron 0.33 < BFP4 0.46 < BBFP(4,3) 0.47 < BBFP(4,2) 0.49 <
        // Olive 0.65 < BFP6 0.90 < BBFP(6,5) 0.93 < BBFP(6,4) 0.96 <
        // BBFP(6,3) 1.00.
        assert!(area(block(SchemeSpec::Bbfp(3, 2))) < area(block(SchemeSpec::Bbfp(3, 1))));
        assert!(area(block(SchemeSpec::Bbfp(3, 1))) < area(block(SchemeSpec::Bfp(4))));
        assert!(area(PeKind::Oltron) < area(block(SchemeSpec::Bfp(4))));
        assert!(area(block(SchemeSpec::Bfp(4))) < area(block(SchemeSpec::Bbfp(4, 3))));
        assert!(area(block(SchemeSpec::Bbfp(4, 3))) < area(block(SchemeSpec::Bbfp(4, 2))));
        assert!(area(block(SchemeSpec::Bbfp(4, 2))) < area(PeKind::Olive));
        assert!(area(PeKind::Olive) < area(block(SchemeSpec::Bfp(6))));
        assert!(area(block(SchemeSpec::Bfp(6))) < area(block(SchemeSpec::Bbfp(6, 5))));
        assert!(area(block(SchemeSpec::Bbfp(6, 5))) < area(block(SchemeSpec::Bbfp(6, 4))));
        assert!(area(block(SchemeSpec::Bbfp(6, 4))) < area(block(SchemeSpec::Bbfp(6, 3))));
    }

    #[test]
    fn bbfp_premium_over_bfp_is_modest() {
        // Paper: BBFP(6,3) / BFP6 = 1.00 / 0.90 ≈ 1.11.
        let ratio = area(block(SchemeSpec::Bbfp(6, 3))) / area(block(SchemeSpec::Bfp(6)));
        assert!((1.02..1.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn multiplier_dominates_pe_area() {
        // §V-B: "with multiplier occupying the majority".
        let lib = GateLibrary::default();
        let mult = ArrayMultiplier::new(6).cost(&lib).area_um2;
        let pe = area(block(SchemeSpec::Bfp(6)));
        assert!(mult > 0.35 * pe, "mult {mult} vs pe {pe}");
    }

    #[test]
    fn exponent_bypass_is_cheaper_than_adder() {
        let lib = GateLibrary::default();
        let k = block(SchemeSpec::Bbfp(4, 2));
        let with = ProcessingElement::with_exponent_adder(k)
            .cost(&lib)
            .area_um2;
        let without = ProcessingElement::with_exponent_bypass(k)
            .cost(&lib)
            .area_um2;
        assert!(without < with);
    }

    #[test]
    fn table3_rows_normalise_to_bbfp63() {
        let rows = ProcessingElement::table3_rows(&GateLibrary::default());
        assert_eq!(rows.len(), 11);
        let bbfp63 = rows.iter().find(|(n, _, _)| n == "BBFP(6,3)").unwrap();
        assert!((bbfp63.2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn algebra_pes_cover_new_families() {
        let lib = GateLibrary::default();
        let mx = PeKind::Algebra(FormatAlgebra::mx(8, 4, 2).unwrap());
        let msfp = PeKind::Algebra(FormatAlgebra::msfp(4, 16).unwrap());
        let blockmf = PeKind::Algebra(FormatAlgebra::blockmf(4, 3, 8).unwrap());
        assert_eq!(mx.name(), "MX(8,4,2)");
        assert_eq!(msfp.name(), "MSFP(4,16)");
        assert_eq!(blockmf.name(), "BlockMF(4,3,8)");
        // The MSFP PE shares the BFP lane; its area matches BFP4 to within
        // the weight-register difference.
        let r = area(msfp) / area(block(SchemeSpec::Bfp(4)));
        assert!((0.9..1.1).contains(&r), "MSFP/BFP4 PE ratio {r}");
        // MX pays the micro-exponent router; BlockMF pays the per-lane
        // exponent add + alignment shifter. Both stay in the low-bit class.
        assert!(area(mx) > area(block(SchemeSpec::Bfp(4))));
        assert!(area(blockmf) < area(block(SchemeSpec::Bfp(6))) * 1.5);
        for k in [mx, msfp, blockmf] {
            let pe = ProcessingElement::with_exponent_adder(k);
            assert!(pe.cost(&lib).delay_ps > 0.0, "{}", k.name());
            assert!(
                ProcessingElement::with_exponent_bypass(k)
                    .cost(&lib)
                    .area_um2
                    < pe.cost(&lib).area_um2
            );
        }
    }

    #[test]
    fn algebra_zero_overlap_bbfp_pe_keeps_the_flag_datapath() {
        let bbfp40 = block(SchemeSpec::Bbfp(4, 0));
        assert_eq!(bbfp40.name(), "BBFP(4,0)");
        assert!(area(bbfp40) > area(block(SchemeSpec::Bbfp(4, 2))));
        assert!(area(bbfp40) > area(block(SchemeSpec::Bfp(4))));
        assert!(PeKind::from_scheme(SchemeSpec::Fp16).is_none());
    }

    #[test]
    fn oltron_uses_3bit_multiplier_class_area() {
        // Within the BBFP(3,x) ballpark per Fig. 8's iso-area grouping.
        let oltron = area(PeKind::Oltron);
        let bbfp31 = area(block(SchemeSpec::Bbfp(3, 1)));
        let ratio = oltron / bbfp31;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }
}
