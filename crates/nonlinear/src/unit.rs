//! The pipelined nonlinear computation unit (paper Fig. 6).
//!
//! Datapath: Align Exponent Unit → (SUB unit) → LUT file → (Mul unit) →
//! Adder tree → Div unit → Output encoder, each stage buffered so
//! sub-table loads from external memory are masked (§IV-B "Pipelined
//! Design"). The Control Unit reorders the stages per opcode: softmax
//! walks max→sub→LUT(exp)→sum→div, SILU walks LUT(sigmoid)→mul, sigmoid
//! uses a pre-composed `1/(1+e^(−x))` table followed by the divider, GELU
//! a pre-composed gate table — the "adjustable computation order" with
//! redundant units the paper describes.
//!
//! Numerics are *bit-faithful at the block level*: inputs are aligned into
//! BBFP(10,5) (or BFP10 for the comparison rows) exactly as
//! `bbal-core` encodes them, function values come from the segmented LUT,
//! and only the wide accumulation/division — full-precision integer units
//! in the paper — are computed exactly.

use crate::lut::SegmentedLut;
use bbal_arith::{
    ArrayMultiplier, CostSummary, GateCounts, GateKind, GateLibrary, MaxTree, RestoringDivider,
    RippleCarryAdder,
};
use bbal_core::{algebra_quantize_in_place, FormatAlgebra, Fp16, RoundingMode};
use bbal_mem::{DramChannel, LutLayout, SegmentedLutStorage};

/// Configuration of the nonlinear unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonlinearUnitConfig {
    /// Element format of the datapath, a shared-exponent algebra point:
    /// the paper's BBFP(10,5), or BFP10 for the comparison rows.
    pub format: FormatAlgebra,
    /// LUT address width (the paper uses 7).
    pub address_bits: u32,
    /// Parallel lanes (the paper's unit processes 16 elements/cycle).
    pub lanes: u32,
    /// Clock frequency in GHz for throughput/efficiency numbers.
    pub clock_ghz: f64,
}

impl NonlinearUnitConfig {
    /// The paper's configuration: BBFP(10,5), 7-bit addresses, 16 lanes at
    /// 1 GHz.
    pub fn paper() -> NonlinearUnitConfig {
        NonlinearUnitConfig {
            format: FormatAlgebra::bbfp(10, 5).expect("BBFP(10,5) is valid"),
            address_bits: 7,
            lanes: 16,
            clock_ghz: 1.0,
        }
    }

    /// The BFP10 comparison configuration (Table IV): same mantissa
    /// width, maximum alignment, no flags. BBFP(m,o) aligned to the block
    /// maximum is exactly BFP(m).
    pub fn bfp10() -> NonlinearUnitConfig {
        NonlinearUnitConfig {
            format: FormatAlgebra::bfp(10).expect("BFP10 is valid"),
            ..NonlinearUnitConfig::paper()
        }
    }
}

/// The pipelined nonlinear unit.
#[derive(Debug)]
pub struct NonlinearUnit {
    config: NonlinearUnitConfig,
    exp_lut: SegmentedLut,
    sigmoid_lut: SegmentedLut,
    gelu_gate_lut: SegmentedLut,
}

impl NonlinearUnit {
    /// Builds a unit (tables materialise lazily as exponents are visited).
    pub fn new(config: NonlinearUnitConfig) -> NonlinearUnit {
        let mk = |f: fn(f64) -> f64| SegmentedLut::new(f, config.format, config.address_bits);
        NonlinearUnit {
            config,
            exp_lut: mk(f64::exp),
            sigmoid_lut: mk(|x| 1.0 / (1.0 + (-x).exp())),
            // GELU(x) = x · Φ(x); the gate Φ is tabulated (tanh form).
            gelu_gate_lut: mk(|x| {
                let t = 0.797_884_560_8 * (x + 0.044_715 * x * x * x);
                0.5 * (1.0 + t.tanh())
            }),
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &NonlinearUnitConfig {
        &self.config
    }

    /// Softmax over one row, in place: max unit → FP subtract → align →
    /// LUT(exp) → adder tree → div unit. A row holding a NaN, or whose
    /// maximum is +∞, comes out all NaN.
    pub fn softmax_row(&mut self, row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        // Max unit (shared with the output path in Fig. 7).
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // SUB unit: x - max in FP16 (the unit's input registers).
        let shifted: Vec<f32> = row
            .iter()
            .map(|v| Fp16::from_f32_saturating(v - max).to_f32())
            .collect();
        // Align + LUT file: exp through the segmented table.
        let exps = self.exp_lut.apply_block(&shifted);
        // Adder tree (full-precision integer accumulation in the paper).
        let sum: f64 = exps.iter().map(|&v| v as f64).sum();
        // Div unit. A NaN input (or +∞ − +∞) leaves a NaN in the sum,
        // which every probability then carries.
        if sum > 0.0 || sum.is_nan() {
            for (o, e) in row.iter_mut().zip(&exps) {
                *o = (*e as f64 / sum) as f32;
            }
        } else {
            // All probability mass underflowed: fall back to uniform, as
            // saturating hardware would after renormalisation.
            let u = 1.0 / row.len() as f32;
            for o in row.iter_mut() {
                *o = u;
            }
        }
        // Output encoder: the probabilities leave the unit re-encoded in
        // the datapath's block format (§IV-B "INT Computation").
        self.encode_output(row);
    }

    /// The output encoder: block-quantises a result tensor into the
    /// unit's element format so the next pipeline stage consumes BBFP.
    /// The whole slice is one block, however long, as the LUT aligns it.
    fn encode_output(&self, xs: &mut [f32]) {
        let row = FormatAlgebra {
            block_size: usize::MAX,
            ..self.config.format
        };
        algebra_quantize_in_place(xs, &row, RoundingMode::NearestEven);
    }

    /// SILU over a slice, in place: LUT(sigmoid) → Mul unit.
    pub fn silu(&mut self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        for chunk_start in (0..xs.len()).step_by(128) {
            let end = (chunk_start + 128).min(xs.len());
            let chunk = &mut xs[chunk_start..end];
            let gates = self.sigmoid_lut.apply_block(chunk);
            for (x, g) in chunk.iter_mut().zip(&gates) {
                *x = Fp16::from_f32_saturating(*x * g).to_f32();
            }
            // Mul unit output re-encoded by the output encoder.
            self.encode_output(chunk);
        }
    }

    /// GELU over a slice, in place: LUT(gate) → Mul unit.
    pub fn gelu(&mut self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        for chunk_start in (0..xs.len()).step_by(128) {
            let end = (chunk_start + 128).min(xs.len());
            let chunk = &mut xs[chunk_start..end];
            let gates = self.gelu_gate_lut.apply_block(chunk);
            for (x, g) in chunk.iter_mut().zip(&gates) {
                *x = Fp16::from_f32_saturating(*x * g).to_f32();
            }
            self.encode_output(chunk);
        }
    }

    /// Sigmoid over a slice, in place (the paper's Eq. 15 flow with the
    /// `1/(1+e^(−x))` table pre-composed offline).
    pub fn sigmoid(&mut self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        let ys = self.sigmoid_lut.apply_block(xs);
        xs.copy_from_slice(&ys);
    }

    /// Pipeline cycles to process `elems` elements of one function:
    /// fill + drain plus one beat per `lanes` elements; sub-table loads are
    /// masked by double buffering except the first.
    pub fn cycles(&self, elems: u64) -> u64 {
        if elems == 0 {
            return 0;
        }
        let pipeline_depth = 6; // align, sub, lut, mul, add, div
        let beats = elems.div_ceil(self.config.lanes as u64);
        let first_load = self.storage().load_cycles();
        pipeline_depth + beats + first_load
    }

    /// The on-chip LUT storage model backing this unit.
    pub fn storage(&self) -> SegmentedLutStorage {
        let layout = LutLayout {
            address_bits: self.config.address_bits,
            entry_bits: 2 + self.config.format.mantissa_bits as u32,
            sub_tables: 24, // the paper's larger (SILU) table count
        };
        SegmentedLutStorage::new(layout, DramChannel::lpddr4())
            .expect("paper layout is non-degenerate")
    }

    /// Physical cost of the unit: align/max, subtract, 16-lane multiplier
    /// bank, adder tree, divider, LUT file and pipeline buffers.
    pub fn cost(&self, lib: &GateLibrary) -> CostSummary {
        let lanes = self.config.lanes as u64;
        let m = self.config.format.mantissa_bits as u32;
        // Mantissa datapath width: mantissa plus sign/flag headroom.
        let mant = m + 2;
        // Accumulator/divider width: full product precision (the paper's
        // "full-precision, high-bitwidth integer multipliers and dividers").
        let wide = 2 * m + 4;

        let mut gates = GateCounts::new();
        // Align exponent unit: per-lane comparator + shifter approximated
        // by the max tree + one barrel shifter row per lane.
        gates += MaxTree::new(self.config.lanes.next_power_of_two().max(2), 16).gate_counts();
        gates += bbal_arith::BarrelShifter::new(16, 15).gate_counts() * lanes;
        // SUB unit: FP16-width subtractors.
        gates += RippleCarryAdder::new(16).gate_counts() * lanes;
        // Mul unit: mantissa multipliers, one per lane.
        gates += ArrayMultiplier::new(mant).gate_counts() * lanes;
        // Adder tree over the lanes at accumulator width.
        gates += RippleCarryAdder::new(mant + 6).gate_counts() * (lanes - 1);
        // Div unit: one full-precision divider.
        gates += RestoringDivider::new(wide).gate_counts();
        // Pipeline buffers: one register row per stage per lane.
        gates += GateCounts::new().with(GateKind::Dff, 6 * lanes * (m as u64 + 2));

        let storage = self.storage();
        let sram_area = storage.lut_file().area_um2();
        let sram_leak_mw = storage.lut_file().leakage_mw();

        let delay = ArrayMultiplier::new(mant).cost(lib).delay_ps; // pipeline stage bound
        let core_energy = gates.energy_pj(lib, 0.2) + storage.lookup_energy_pj();
        CostSummary {
            area_um2: gates.area_um2(lib) + sram_area,
            energy_pj: core_energy,
            delay_ps: delay,
            leakage_nw: gates.leakage_nw(lib) + sram_leak_mw * 1.0e6,
        }
    }

    /// Throughput in giga-elements per second.
    pub fn throughput_gops(&self) -> f64 {
        self.config.lanes as f64 * self.config.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_llm::ops;

    fn max_abs_err(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn bbfp_softmax_tracks_exact_softmax() {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut row: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin() * 4.0).collect();
        let mut exact = row.clone();
        ops::softmax_in_place(&mut exact);
        unit.softmax_row(&mut row);
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        assert!(
            max_abs_err(&row, &exact) < 0.02,
            "err {}",
            max_abs_err(&row, &exact)
        );
    }

    #[test]
    fn bfp10_softmax_is_much_worse_than_bbfp() {
        // The Table IV mechanism: with max-alignment the values near zero
        // (the softmax winners) lose their mantissa bits.
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|r| {
                (0..64)
                    .map(|i| ((i * 13 + r * 7) % 97) as f32 * -0.45)
                    .collect()
            })
            .collect();
        let mut bbfp_unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut bfp_unit = NonlinearUnit::new(NonlinearUnitConfig::bfp10());
        let mut bbfp_err = 0.0f32;
        let mut bfp_err = 0.0f32;
        for row in &rows {
            let mut exact = row.clone();
            ops::softmax_in_place(&mut exact);
            let mut a = row.clone();
            bbfp_unit.softmax_row(&mut a);
            let mut b = row.clone();
            bfp_unit.softmax_row(&mut b);
            bbfp_err += max_abs_err(&a, &exact);
            bfp_err += max_abs_err(&b, &exact);
        }
        assert!(bfp_err > 3.0 * bbfp_err, "bfp {bfp_err} vs bbfp {bbfp_err}");
    }

    #[test]
    fn silu_tracks_exact() {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut xs: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.2).collect();
        let mut exact = xs.clone();
        ops::silu_in_place(&mut exact);
        unit.silu(&mut xs);
        for (a, b) in xs.iter().zip(&exact) {
            assert!((a - b).abs() < 0.15 + 0.02 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn gelu_tracks_exact() {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut xs: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.1).collect();
        let mut exact = xs.clone();
        ops::gelu_in_place(&mut exact);
        unit.gelu(&mut xs);
        for (a, b) in xs.iter().zip(&exact) {
            assert!((a - b).abs() < 0.1 + 0.02 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn sigmoid_bounded_in_unit_interval() {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut xs: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.5).collect();
        unit.sigmoid(&mut xs);
        assert!(xs.iter().all(|&v| (-0.01..=1.01).contains(&v)));
    }

    #[test]
    fn softmax_handles_degenerate_rows() {
        let mut unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let mut one = vec![3.2f32];
        unit.softmax_row(&mut one);
        assert!((one[0] - 1.0).abs() < 1e-6);

        let mut empty: Vec<f32> = vec![];
        unit.softmax_row(&mut empty);
    }

    /// A NaN anywhere in a softmax row, or a +∞ maximum, makes the whole
    /// row NaN: no panic, and no fall-back to the uniform distribution.
    #[test]
    fn non_finite_softmax_rows_come_out_nan() {
        for config in [NonlinearUnitConfig::paper(), NonlinearUnitConfig::bfp10()] {
            let mut unit = NonlinearUnit::new(config);
            for row in [
                [0.5, f32::NAN, -1.0, 0.25],
                [0.5, f32::INFINITY, -1.0, 0.25],
                [f32::INFINITY; 4],
            ] {
                let mut got = row;
                unit.softmax_row(&mut got);
                assert!(got.iter().all(|v| v.is_nan()), "{row:?} -> {got:?}");
            }
        }
    }

    /// SILU and GELU follow the block codec's NaN rule: NaN at the NaN's
    /// own index, every other element as if it were 0.
    #[test]
    fn nan_activations_stay_at_their_index() {
        for config in [NonlinearUnitConfig::paper(), NonlinearUnitConfig::bfp10()] {
            let mut unit = NonlinearUnit::new(config);
            let ops: [fn(&mut NonlinearUnit, &mut [f32]); 2] =
                [NonlinearUnit::silu, NonlinearUnit::gelu];
            for op in ops {
                let mut xs: Vec<f32> = (0..200).map(|i| (i as f32 - 100.0) * 0.07).collect();
                xs[3] = 0.0;
                xs[150] = 0.0;
                let mut want = xs.clone();
                op(&mut unit, &mut want);
                xs[3] = f32::NAN;
                xs[150] = -f32::NAN;
                op(&mut unit, &mut xs);
                for (i, (x, w)) in xs.iter().zip(&want).enumerate() {
                    if i == 3 || i == 150 {
                        assert!(x.is_nan(), "idx {i}");
                    } else {
                        assert_eq!(x.to_bits(), w.to_bits(), "idx {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_model_scales_with_elements_and_masks_loads() {
        let unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let small = unit.cycles(16);
        let large = unit.cycles(16 * 1000);
        // Large workloads amortise the fixed costs: ≈1 cycle per lane-beat.
        assert!(large < small + 1100, "{large} vs {small}");
        assert!(large >= 1000);
        assert_eq!(unit.cycles(0), 0);
    }

    #[test]
    fn unit_cost_is_dominated_by_compute_not_lut() {
        // The paper's segmented scheme keeps the on-chip LUT file tiny.
        let unit = NonlinearUnit::new(NonlinearUnitConfig::paper());
        let lib = GateLibrary::default();
        let total = unit.cost(&lib).area_um2;
        let lut = unit.storage().lut_file().area_um2();
        assert!(lut < 0.3 * total, "lut {lut} vs total {total}");
    }
}
