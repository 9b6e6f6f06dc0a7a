//! Hardware-cost goldens for the block-format MACs and PEs.
//!
//! Every literal below was captured from the hand-written BFP/BBFP MAC
//! and PE designs that preceded the format-algebra lowering, with exact
//! `f64` equality on area (µm²), energy (pJ), delay (ps) and leakage
//! (nW). They pin the Table I, Table III and Fig. 4 hardware numbers:
//! any change to how a block scheme lowers to a datapath must leave
//! every one of them bit-identical.

use bbal_arith::{BlockMac, CostSummary, GateLibrary, MacKind, PeKind, ProcessingElement};
use bbal_core::SchemeSpec;

/// `[area_um2, energy_pj, delay_ps, leakage_nw]`.
type Golden = [f64; 4];

fn parts(c: CostSummary) -> Golden {
    [c.area_um2, c.energy_pj, c.delay_ps, c.leakage_nw]
}

fn mac_cost(scheme: SchemeSpec) -> (String, Golden) {
    let kind = MacKind::from_scheme(scheme).unwrap();
    let cost = BlockMac::new(kind, 32).cost(&GateLibrary::default());
    (kind.name(), parts(cost))
}

#[test]
fn algebra_table1_mac_costs_match_goldens() {
    let golden: [(SchemeSpec, &str, Golden); 6] = [
        (
            SchemeSpec::Fp16,
            "FP16",
            [37190.72, 14.5104, 2794.0, 114982.4],
        ),
        (
            SchemeSpec::Int(8),
            "INT8",
            [11180.16, 4.4788, 1693.0, 35526.4],
        ),
        (
            SchemeSpec::Bfp(8),
            "BFP8",
            [11433.88, 4.5765, 1693.0, 36296.8],
        ),
        (
            SchemeSpec::Bfp(6),
            "BFP6",
            [6896.12, 2.759875, 1333.0, 21865.2],
        ),
        (
            SchemeSpec::Bbfp(8, 4),
            "BBFP(8,4)",
            [12447.96, 4.94855, 1796.0, 39156.8],
        ),
        (
            SchemeSpec::Bbfp(6, 3),
            "BBFP(6,3)",
            [7573.16, 3.0052125, 1396.0, 23743.0],
        ),
    ];
    for (scheme, name, want) in golden {
        assert_eq!(mac_cost(scheme), (name.to_owned(), want), "{scheme}");
    }
}

#[test]
fn algebra_fig4_bbfp6_mac_costs_match_goldens() {
    // Algorithm 1's candidates BBFP(6,0..=5); o = 0 is a flagged point,
    // so it pays the widest flag router and carry chain (7968 µm²).
    let golden: [Golden; 6] = [
        [7967.96, 3.1621499999999996, 1516.0, 24961.6],
        [7836.360000000001, 3.1098375, 1476.0, 24555.4],
        [7704.76, 3.0575249999999996, 1436.0, 24149.2],
        [7573.16, 3.0052125, 1396.0, 23743.0],
        [7441.56, 2.9528999999999996, 1356.0, 23336.800000000003],
        [7309.96, 2.9005874999999994, 1316.0, 22930.6],
    ];
    for (o, want) in golden.into_iter().enumerate() {
        let scheme = SchemeSpec::Bbfp(6, o as u8);
        assert_eq!(mac_cost(scheme), (format!("BBFP(6,{o})"), want), "{scheme}");
    }
}

#[test]
fn algebra_table3_pe_costs_match_goldens() {
    // (name, type-① PE with exponent adder, type-② PE with bypass).
    let golden: [(&str, Golden, Golden); 11] = [
        (
            "Oltron",
            [117.69, 0.04497500000000001, 670.0, 349.40000000000003],
            [101.74, 0.03835, 670.0, 297.4],
        ),
        (
            "Olive",
            [193.24, 0.07403749999999999, 932.0, 575.8],
            [177.29, 0.0674125, 932.0, 523.8],
        ),
        (
            "BFP4",
            [164.93, 0.0633625, 932.0, 491.2],
            [148.98, 0.056737499999999996, 932.0, 439.2],
        ),
        (
            "BFP6",
            [280.59, 0.10871249999999999, 1292.0, 848.0],
            [264.64, 0.1020875, 1292.0, 796.0],
        ),
        (
            "BBFP(3,1)",
            [142.38, 0.0536125, 796.0, 411.4],
            [126.42999999999999, 0.046987499999999995, 796.0, 359.4],
        ),
        (
            "BBFP(3,2)",
            [134.07999999999998, 0.0506125, 756.0, 389.0],
            [118.13, 0.0439875, 756.0, 337.0],
        ),
        (
            "BBFP(4,2)",
            [188.71999999999997, 0.0715625, 976.0, 552.0],
            [172.76999999999998, 0.0649375, 976.0, 500.00000000000006],
        ),
        (
            "BBFP(4,3)",
            [180.42000000000002, 0.0685625, 936.0, 529.6],
            [164.46999999999997, 0.06193749999999999, 936.0, 477.6],
        ),
        (
            "BBFP(6,3)",
            [319.1, 0.1222375, 1376.0, 949.2],
            [303.15, 0.11561249999999999, 1376.0, 897.2],
        ),
        (
            "BBFP(6,4)",
            [310.8, 0.1192375, 1336.0, 926.8],
            [294.84999999999997, 0.11261249999999999, 1336.0, 874.8],
        ),
        (
            "BBFP(6,5)",
            [302.5, 0.1162375, 1296.0, 904.4],
            [286.54999999999995, 0.10961250000000002, 1296.0, 852.4],
        ),
    ];
    let lib = GateLibrary::default();
    let lineup = PeKind::table3_lineup();
    assert_eq!(lineup.len(), golden.len());
    for (kind, (name, adder, bypass)) in lineup.into_iter().zip(golden) {
        assert_eq!(kind.name(), name);
        let with = ProcessingElement::with_exponent_adder(kind).cost(&lib);
        let without = ProcessingElement::with_exponent_bypass(kind).cost(&lib);
        assert_eq!(parts(with), adder, "{name} type ①");
        assert_eq!(parts(without), bypass, "{name} type ②");
    }
}
