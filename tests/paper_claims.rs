//! The paper's headline quantitative claims, asserted end to end against
//! the reproduction stack (shape, not absolute numbers — see DESIGN.md).

use bbal::accel::iso_area_sweep;
use bbal::arith::{BlockMac, GateLibrary, MacKind, PeKind, ProcessingElement, SparseAdder};
use bbal::core::{BbfpConfig, BfpConfig};
use bbal::llm::graph::{decoder_ops, paper_dims, Op};
use bbal::nonlinear::{
    ours_table5_row, HighPrecisionSoftmaxUnit, NonlinearUnit, NonlinearUnitConfig,
};
use bbal::SchemeSpec;

#[test]
fn claim_carry_chain_saves_about_15_percent() {
    // §IV-A: 8-bit adder + 4-bit carry chain vs 12-bit adder -> ~15%.
    let lib = GateLibrary::default();
    let saving = SparseAdder::new(8, 4).area_saving(&lib);
    assert!((0.10..0.25).contains(&saving), "saving {saving}");
}

#[test]
fn claim_bbfp63_dominates_bfp8() {
    // Table I: BBFP(6,3) has more representational range than BFP8 at less
    // area and memory.
    let lib = GateLibrary::default();
    let bbfp = BlockMac::new(MacKind::from_scheme(SchemeSpec::Bbfp(6, 3)).unwrap(), 32);
    let bfp8 = BlockMac::new(MacKind::from_scheme(SchemeSpec::Bfp(8)).unwrap(), 32);
    assert!(bbfp.cost(&lib).area_um2 < bfp8.cost(&lib).area_um2);
    assert!(
        bbfp.kind.format_cost().equivalent_bit_width < bfp8.kind.format_cost().equivalent_bit_width
    );
}

#[test]
fn claim_table3_pe_ordering() {
    // Table III's normalised ordering, end to end through the facade.
    let lib = GateLibrary::default();
    let area = |k: PeKind| {
        ProcessingElement::with_exponent_adder(k)
            .cost(&lib)
            .area_um2
    };
    let block = |s: SchemeSpec| area(PeKind::from_scheme(s).unwrap());
    let bfp = |m| block(SchemeSpec::Bfp(m));
    let bbfp = |m, o| block(SchemeSpec::Bbfp(m, o));
    assert!(bbfp(3, 2) < bbfp(3, 1));
    assert!(area(PeKind::Oltron) < bfp(4));
    assert!(bfp(4) < bbfp(4, 2));
    assert!(bbfp(4, 2) < area(PeKind::Olive));
    assert!(area(PeKind::Olive) < bfp(6));
    assert!(bfp(6) < bbfp(6, 3));
}

#[test]
fn claim_fig8_throughput_shape() {
    // "BBFP(3,1)/(3,2) achieve a 40% throughput improvement over BFP4" and
    // "BBFP width 4 shows a 30% drop compared to Oltron" at iso-area.
    let lib = GateLibrary::default();
    let dims = paper_dims("Llama-7B").unwrap();
    let workload: Vec<Op> = decoder_ops(&dims, 128);
    let schemes = [
        SchemeSpec::Bfp(4),
        SchemeSpec::Bbfp(3, 1),
        SchemeSpec::Oltron,
        SchemeSpec::Bbfp(4, 2),
    ];
    let pts = iso_area_sweep(&schemes, 60_000.0, &workload, &lib).unwrap();
    let tp = |n: &str| pts.iter().find(|p| p.name == n).unwrap().throughput_gmacs;
    assert!(
        tp("BBFP(3,1)") > 1.1 * tp("BFP4"),
        "3-bit BBFP should outrun BFP4"
    );
    assert!(
        tp("BBFP(4,2)") < 0.9 * tp("Oltron"),
        "4-bit BBFP trades throughput"
    );
}

#[test]
fn claim_nonlinear_unit_efficiency() {
    // Table V: our unit is far more efficient than the high-precision
    // design [33] and more expensive than the approximation [32] on ADP.
    let lib = GateLibrary::default();
    let ours = ours_table5_row(&NonlinearUnit::new(NonlinearUnitConfig::paper()), &lib);
    let high = HighPrecisionSoftmaxUnit::paper().table5_row(&lib);
    assert!(ours.efficiency > 5.0 * high.efficiency);
    assert!(ours.adp < high.adp);
}

#[test]
fn claim_bfp10_softmax_blowup() {
    // Table IV mechanism: on wide-dynamic-range score rows, the BFP10 LUT
    // unit's softmax error dwarfs BBFP(10,5)'s.
    let mut bbfp = NonlinearUnit::new(NonlinearUnitConfig::paper());
    let mut bfp = NonlinearUnit::new(NonlinearUnitConfig::bfp10());
    let mut total_bbfp = 0.0f32;
    let mut total_bfp = 0.0f32;
    for r in 0..8 {
        let row: Vec<f32> = (0..48)
            .map(|i| ((i * 13 + r * 11) % 89) as f32 * -0.5)
            .collect();
        let mut exact = row.clone();
        bbal::llm::ops::softmax_in_place(&mut exact);
        let mut a = row.clone();
        bbfp.softmax_row(&mut a);
        let mut b = row.clone();
        bfp.softmax_row(&mut b);
        let err = |g: &[f32]| -> f32 { g.iter().zip(&exact).map(|(x, y)| (x - y).abs()).sum() };
        total_bbfp += err(&a);
        total_bfp += err(&b);
    }
    assert!(
        total_bfp > 3.0 * total_bbfp,
        "bfp {total_bfp} vs bbfp {total_bbfp}"
    );
}

#[test]
fn claim_memory_efficiencies_match_table1_exactly() {
    // These are analytic, so they must match the paper to two decimals.
    let close = |a: f64, b: f64| (a - b).abs() < 0.005;
    assert!(close(
        BfpConfig::new(8).unwrap().cost().memory_efficiency,
        1.747
    ));
    assert!(close(
        BfpConfig::new(6).unwrap().cost().memory_efficiency,
        2.236
    ));
    assert!(close(
        BbfpConfig::new(8, 4).unwrap().cost().memory_efficiency,
        1.575
    ));
    assert!(close(
        BbfpConfig::new(6, 3).unwrap().cost().memory_efficiency,
        1.962
    ));
}
