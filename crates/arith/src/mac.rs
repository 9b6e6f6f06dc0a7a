//! Block MAC units — the paper's Table I comparison.
//!
//! A *block MAC* processes one block (32 elements) per operation: 32 lane
//! multipliers with per-lane partial-sum accumulation, plus the per-block
//! sharing logic of each format (exponent adder for BFP/BBFP, FP encoding
//! of the block result). Scalar formats (FP16, INT) simply have no shared
//! logic and pay per-lane instead.

use crate::adder::{CarryChain, RippleCarryAdder};
use crate::float::{Fp16Multiplier, FpAccumulator, FpEncoder};
use crate::gates::{CostSummary, GateCounts, GateKind, GateLibrary};
use crate::multiplier::ArrayMultiplier;
use crate::shifter::{BarrelShifter, FlagShifter};
use bbal_core::{ElementKind, FormatAlgebra, FormatCost, ScaleKind, SchemeError, SchemeSpec};

/// Guard bits a lane accumulator carries above the product width to absorb
/// block-length accumulation (32 terms → 5 bits).
pub const ACCUMULATOR_GUARD_BITS: u32 = 5;

/// The data format a MAC unit is specialised for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacKind {
    /// Scalar IEEE binary16 multiply-accumulate (FP32 accumulation).
    Fp16,
    /// Scalar fixed-point multiply-accumulate of the given width.
    Int(u8),
    /// A block-format algebra point (BFP, BBFP, MX, MSFP, block
    /// minifloat): the lane and shared logic are derived from the
    /// point's scale and element kinds rather than hand-written per
    /// family.
    Algebra(FormatAlgebra),
}

/// The flag's window gap `m − o` of a flagged (BBFP) point.
fn flag_gap(alg: &FormatAlgebra) -> u32 {
    alg.window_gap().unwrap_or(0)
}

/// Lane datapath gates for a format-algebra point: the multiplier, the
/// per-lane scale handling (micro-exponent routing for two-level scales,
/// exponent add + alignment shift for minifloat elements) and the
/// partial-sum adder. Shared per-block logic lives in
/// [`algebra_shared_gate_counts`].
fn algebra_lane_gate_counts(alg: &FormatAlgebra) -> GateCounts {
    let m = alg.mantissa_bits as u32;
    match (alg.element, alg.scale) {
        (ElementKind::Minifloat { exp_bits }, _) => {
            // Minifloat lane: (m+1)-bit significand multiplier (implicit
            // leading one), per-lane exponent adder and an alignment
            // barrel shifter into the accumulator window.
            let e = exp_bits as u32;
            let mut g = ArrayMultiplier::new(m + 1).gate_counts();
            g += RippleCarryAdder::new(e + 1).gate_counts();
            g += BarrelShifter::new(2 * (m + 1) + ACCUMULATOR_GUARD_BITS, (1 << e) - 1)
                .gate_counts();
            g += RippleCarryAdder::new(2 * (m + 1) + ACCUMULATOR_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            // MX-style lane: fixed multiplier plus flag-style product
            // routing by the per-sub-block micro exponent (the shift is
            // 0 or 1 per operand, the BBFP gap-1 structure).
            let s = sub_scale_bits as u32;
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += FlagShifter::new(2 * m, s).gate_counts();
            g += RippleCarryAdder::new(2 * m).gate_counts();
            g += CarryChain::new(2 * s + ACCUMULATOR_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Flagged { .. }, _) => {
            // Overlapped-window lane (the BBFP structure): flag-controlled
            // product routing (Eq. 10 / Fig. 5a), then a sparse
            // partial-sum adder — dense 2m bits plus a carry chain over
            // the structurally sparse high bits and the guard bits.
            let gap = flag_gap(alg);
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += FlagShifter::new(2 * m, gap).gate_counts();
            g += RippleCarryAdder::new(2 * m).gate_counts();
            g += CarryChain::new(2 * gap + ACCUMULATOR_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
        (ElementKind::Fixed, _) => {
            // Plain shared-scale lane (the BFP / MSFP structure); sign
            // handling (Eq. 3) is one XOR per lane.
            let mut g = ArrayMultiplier::new(m).gate_counts();
            g += RippleCarryAdder::new(2 * m + ACCUMULATOR_GUARD_BITS).gate_counts();
            g += GateCounts::new().with(GateKind::Xor2, 1);
            g
        }
    }
}

/// Per-block shared logic for a format-algebra point: the shared-scale
/// adder sized to the scale width and the FP encode of the block result.
fn algebra_shared_gate_counts(alg: &FormatAlgebra) -> GateCounts {
    let m = alg.mantissa_bits as u32;
    let scale_bits = match alg.scale {
        ScaleKind::SharedExponent { bits }
        | ScaleKind::SharedBias { bits }
        | ScaleKind::TwoLevel { bits, .. } => bits as u32,
    };
    let acc = match (alg.element, alg.scale) {
        (ElementKind::Minifloat { .. }, _) => 2 * (m + 1) + ACCUMULATOR_GUARD_BITS,
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            2 * m + 2 * sub_scale_bits as u32 + ACCUMULATOR_GUARD_BITS
        }
        (ElementKind::Flagged { .. }, _) => 2 * m + 2 * flag_gap(alg) + ACCUMULATOR_GUARD_BITS,
        (ElementKind::Fixed, _) => 2 * m + ACCUMULATOR_GUARD_BITS,
    };
    let mut g = RippleCarryAdder::new(scale_bits + 1).gate_counts();
    g += FpEncoder::new(acc).gate_counts();
    g
}

/// Lane critical-path delay for a format-algebra point, mirroring
/// [`algebra_lane_gate_counts`].
fn algebra_lane_delay_ps(alg: &FormatAlgebra, lib: &GateLibrary) -> f64 {
    let m = alg.mantissa_bits as u32;
    match (alg.element, alg.scale) {
        (ElementKind::Minifloat { exp_bits }, _) => {
            let e = exp_bits as u32;
            ArrayMultiplier::new(m + 1).cost(lib).delay_ps
                + RippleCarryAdder::new(e + 1).cost(lib).delay_ps
                + BarrelShifter::new(2 * (m + 1) + ACCUMULATOR_GUARD_BITS, (1 << e) - 1)
                    .cost(lib)
                    .delay_ps
                + RippleCarryAdder::new(2 * (m + 1) + ACCUMULATOR_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
        (ElementKind::Fixed, ScaleKind::TwoLevel { sub_scale_bits, .. }) => {
            let s = sub_scale_bits as u32;
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + FlagShifter::new(2 * m, s).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m).cost(lib).delay_ps
                + CarryChain::new(2 * s + ACCUMULATOR_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
        (ElementKind::Flagged { .. }, _) => {
            let gap = flag_gap(alg);
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + FlagShifter::new(2 * m, gap).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m).cost(lib).delay_ps
                + CarryChain::new(2 * gap + ACCUMULATOR_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
        (ElementKind::Fixed, _) => {
            ArrayMultiplier::new(m).cost(lib).delay_ps
                + RippleCarryAdder::new(2 * m + ACCUMULATOR_GUARD_BITS)
                    .cost(lib)
                    .delay_ps
        }
    }
}

impl MacKind {
    /// Derives the MAC specialisation for a quantisation scheme (the
    /// Table I mapping).
    ///
    /// # Errors
    ///
    /// [`SchemeError::NoHardwareMapping`] for schemes without a Table I
    /// MAC design (`fp32`, the outlier baselines, `omniquant`), and the
    /// scheme's own validation error for invalid widths.
    pub fn from_scheme(scheme: SchemeSpec) -> Result<MacKind, SchemeError> {
        scheme.validate()?;
        match scheme {
            SchemeSpec::Fp16 => Ok(MacKind::Fp16),
            SchemeSpec::Int(bits) => Ok(MacKind::Int(bits)),
            _ => scheme
                .block_algebra()
                .map(MacKind::Algebra)
                .ok_or(SchemeError::NoHardwareMapping(scheme)),
        }
    }

    /// Storage cost of the operand format (Table I's right-hand columns).
    pub fn format_cost(&self) -> FormatCost {
        match self {
            MacKind::Fp16 => FormatCost::fp16(),
            MacKind::Int(bits) => FormatCost::int(*bits as u32),
            MacKind::Algebra(alg) => alg.cost(),
        }
    }

    /// Short display name matching the paper's rows.
    pub fn name(&self) -> String {
        match self {
            MacKind::Fp16 => "FP16".to_owned(),
            MacKind::Int(bits) => format!("INT{bits}"),
            MacKind::Algebra(alg) => alg.display_name(),
        }
    }
}

/// A 32-lane (configurable) block MAC unit in a given format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMac {
    /// Format specialisation.
    pub kind: MacKind,
    /// Number of lanes (the block size for block formats).
    pub lanes: u32,
}

impl BlockMac {
    /// Creates a block MAC with the given lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0.
    pub fn new(kind: MacKind, lanes: u32) -> BlockMac {
        assert!(lanes > 0);
        BlockMac { kind, lanes }
    }

    /// One lane's gate bag (multiplier + partial-sum accumulation).
    fn lane_gate_counts(&self) -> GateCounts {
        match self.kind {
            MacKind::Fp16 => {
                let mut g = Fp16Multiplier.gate_counts();
                g += FpAccumulator::new(24).gate_counts();
                g
            }
            MacKind::Int(bits) => {
                let b = bits as u32;
                let mut g = ArrayMultiplier::new(b).gate_counts();
                g += RippleCarryAdder::new(2 * b + ACCUMULATOR_GUARD_BITS).gate_counts();
                g
            }
            MacKind::Algebra(alg) => algebra_lane_gate_counts(&alg),
        }
    }

    /// Per-block shared logic (exponent adder, FP encode of the result).
    fn shared_gate_counts(&self) -> GateCounts {
        match self.kind {
            MacKind::Fp16 | MacKind::Int(_) => GateCounts::new(),
            MacKind::Algebra(alg) => algebra_shared_gate_counts(&alg),
        }
    }

    /// Full structural gate bag of the block MAC.
    pub fn gate_counts(&self) -> GateCounts {
        self.lane_gate_counts() * self.lanes as u64 + self.shared_gate_counts()
    }

    /// Physical cost summary. The delay is one lane's multiply-accumulate
    /// path (lanes operate in parallel).
    pub fn cost(&self, lib: &GateLibrary) -> CostSummary {
        let g = self.gate_counts();
        let delay = match self.kind {
            MacKind::Fp16 => {
                Fp16Multiplier.cost(lib).delay_ps + FpAccumulator::new(24).cost(lib).delay_ps
            }
            MacKind::Int(bits) => {
                let b = bits as u32;
                ArrayMultiplier::new(b).cost(lib).delay_ps
                    + RippleCarryAdder::new(2 * b + ACCUMULATOR_GUARD_BITS)
                        .cost(lib)
                        .delay_ps
            }
            MacKind::Algebra(alg) => algebra_lane_delay_ps(&alg, lib),
        };
        CostSummary {
            area_um2: g.area_um2(lib),
            energy_pj: g.energy_pj(lib, 0.25),
            delay_ps: delay,
            leakage_nw: g.leakage_nw(lib),
        }
    }

    /// One Table I row: `(name, area µm², equivalent bit-width, mem eff.)`.
    pub fn table1_row(&self, lib: &GateLibrary) -> (String, f64, f64, f64) {
        let cost = self.cost(lib);
        let fmt = self.kind.format_cost();
        (
            self.kind.name(),
            cost.area_um2,
            fmt.equivalent_bit_width,
            fmt.memory_efficiency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> GateLibrary {
        GateLibrary::default()
    }

    fn block(scheme: SchemeSpec) -> MacKind {
        MacKind::from_scheme(scheme).unwrap()
    }

    fn area(kind: MacKind) -> f64 {
        BlockMac::new(kind, 32).cost(&lib()).area_um2
    }

    #[test]
    fn table1_fp16_dwarfs_int8() {
        // Paper: FP16 39599 vs INT8 9257 (4.3x). Structural model should
        // land in the 2.5x–6x band.
        let ratio = area(MacKind::Fp16) / area(MacKind::Int(8));
        assert!((2.5..6.0).contains(&ratio), "FP16/INT8 ratio {ratio}");
    }

    #[test]
    fn table1_bfp8_close_to_int8() {
        // Paper: 9371 vs 9257 (+1.2%). Same multipliers and adders; only
        // the per-block exponent adder and FP encoder differ.
        let ratio = area(block(SchemeSpec::Bfp(8))) / area(MacKind::Int(8));
        assert!((0.95..1.15).contains(&ratio), "BFP8/INT8 ratio {ratio}");
    }

    #[test]
    fn table1_bbfp_slightly_above_bfp() {
        // Paper: BBFP(8,4) 9806 vs BFP8 9371 (+4.6%); BBFP(6,3) 5764 vs
        // BFP6 5633 (+2.3%). Allow up to +20% for the structural model.
        let r84 = area(block(SchemeSpec::Bbfp(8, 4))) / area(block(SchemeSpec::Bfp(8)));
        let r63 = area(block(SchemeSpec::Bbfp(6, 3))) / area(block(SchemeSpec::Bfp(6)));
        assert!((1.0..1.2).contains(&r84), "BBFP(8,4)/BFP8 ratio {r84}");
        assert!((1.0..1.2).contains(&r63), "BBFP(6,3)/BFP6 ratio {r63}");
    }

    #[test]
    fn table1_bfp6_much_smaller_than_bfp8() {
        // Paper: 5633 vs 9371 (0.60x).
        let ratio = area(block(SchemeSpec::Bfp(6))) / area(block(SchemeSpec::Bfp(8)));
        assert!((0.45..0.75).contains(&ratio), "BFP6/BFP8 ratio {ratio}");
    }

    #[test]
    fn table1_absolute_calibration() {
        // The library is calibrated so the INT8 block MAC lands within
        // ~35% of the paper's 9257 µm².
        let a = area(MacKind::Int(8));
        assert!((6000.0..13000.0).contains(&a), "INT8 block MAC area {a}");
    }

    #[test]
    fn bbfp63_beats_bfp8_on_area_with_more_range() {
        // The paper's headline Table I observation: BBFP(6,3) has higher
        // representational capability than BFP8 at *less* area and memory.
        let bbfp63 = area(block(SchemeSpec::Bbfp(6, 3)));
        let bfp8 = area(block(SchemeSpec::Bfp(8)));
        assert!(bbfp63 < bfp8);
        let c63 = block(SchemeSpec::Bbfp(6, 3)).format_cost();
        let c8 = block(SchemeSpec::Bfp(8)).format_cost();
        assert!(c63.equivalent_bit_width < c8.equivalent_bit_width);
    }

    #[test]
    fn memory_efficiency_reported() {
        let (_, _, eqw, eff) = BlockMac::new(MacKind::Int(8), 32).table1_row(&lib());
        assert_eq!(eqw, 8.0);
        assert_eq!(eff, 2.0);
    }

    #[test]
    fn delay_reported_positive() {
        for kind in [
            MacKind::Fp16,
            MacKind::Int(8),
            block(SchemeSpec::Bfp(6)),
            block(SchemeSpec::Bbfp(6, 3)),
        ] {
            assert!(BlockMac::new(kind, 32).cost(&lib()).delay_ps > 0.0);
        }
    }

    #[test]
    fn algebra_macs_derive_from_scheme_ids() {
        for (id, expect_name) in [
            ("mx:8,4,2", "MX(8,4,2)"),
            ("msfp:4,16", "MSFP(4,16)"),
            ("blockmf:4,3,8", "BlockMF(4,3,8)"),
        ] {
            let scheme: SchemeSpec = id.parse().unwrap();
            let kind = MacKind::from_scheme(scheme).unwrap();
            assert_eq!(kind.name(), expect_name);
            let cost = BlockMac::new(kind, 32).cost(&lib());
            assert!(cost.area_um2 > 0.0, "{id}");
            assert!(cost.delay_ps > 0.0, "{id}");
            assert!(kind.format_cost().equivalent_bit_width > 0.0, "{id}");
        }
    }

    #[test]
    fn algebra_zero_overlap_bbfp_mac_keeps_the_flag_datapath() {
        // BBFP(6,0) is a flagged point: it pays the widest flag router
        // and carry chain of its family, above both BBFP(6,1) and BFP6.
        let bbfp60 = block(SchemeSpec::Bbfp(6, 0));
        assert_eq!(bbfp60.name(), "BBFP(6,0)");
        assert!(area(bbfp60) > area(block(SchemeSpec::Bbfp(6, 1))));
        assert!(area(bbfp60) > area(block(SchemeSpec::Bfp(6))));
        assert_eq!(
            bbfp60.format_cost(),
            block(SchemeSpec::Bbfp(6, 3)).format_cost()
        );
    }

    #[test]
    fn algebra_mac_areas_are_ordered_sensibly() {
        let mx = area(MacKind::from_scheme("mx:8,4,2".parse().unwrap()).unwrap());
        let msfp = area(MacKind::from_scheme("msfp:4,32".parse().unwrap()).unwrap());
        let blockmf = area(MacKind::from_scheme("blockmf:4,3,8".parse().unwrap()).unwrap());
        let bfp4 = area(block(SchemeSpec::Bfp(4)));
        // MSFP shares the BFP lane structure; only the shared scale adder
        // width differs, so the 32-lane MAC areas sit within a few percent.
        assert!(
            (msfp / bfp4 - 1.0).abs() < 0.05,
            "MSFP/BFP4 {}",
            msfp / bfp4
        );
        // The MX micro-exponent router adds a modest per-lane premium.
        assert!(mx > bfp4, "MX {mx} vs BFP4 {bfp4}");
        assert!(mx / bfp4 < 1.4, "MX/BFP4 {}", mx / bfp4);
        // Block minifloat pays per-lane exponent add + alignment, well
        // below the scalar FP16 lane at equal mantissa width.
        assert!(blockmf > bfp4, "BlockMF {blockmf} vs BFP4 {bfp4}");
        assert!(blockmf < area(MacKind::Fp16), "BlockMF {blockmf} vs FP16");
    }
}
