//! The segmented-LUT nonlinear unit (paper §IV-B): softmax and SILU
//! through BBFP(10,5) lookup tables, against the BFP10 failure mode the
//! paper's Table IV quantifies.
//!
//! Run with: `cargo run --release --example nonlinear_softmax`

use bbal::llm::ops;
use bbal::nonlinear::{NonlinearUnit, NonlinearUnitConfig};
use bbal::SchemeSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Attention-score-like rows: wide dynamic range, winners near the max.
    let row: Vec<f32> = (0..32).map(|i| ((i * 29) % 83) as f32 * -0.45).collect();

    let mut exact = row.clone();
    ops::softmax_in_place(&mut exact);

    // The unit's datapath format comes from a scheme string; the BFP10
    // comparison row is the same mantissa width under maximum alignment
    // (BBFP(10,5) aligned to the block maximum is BFP10).
    let unit = |id: &str| -> Result<NonlinearUnitConfig, Box<dyn std::error::Error>> {
        let format = id.parse::<SchemeSpec>()?.algebra()?.expect("block scheme");
        Ok(NonlinearUnitConfig {
            format,
            ..NonlinearUnitConfig::paper()
        })
    };
    let (bbfp_cfg, bfp_cfg) = (unit("bbfp:10,5")?, unit("bfp10")?);
    let mut bbfp_unit = NonlinearUnit::new(bbfp_cfg);
    let mut bfp_unit = NonlinearUnit::new(bfp_cfg);

    let mut bbfp_row = row.clone();
    bbfp_unit.softmax_row(&mut bbfp_row);
    let mut bfp_row = row.clone();
    bfp_unit.softmax_row(&mut bfp_row);

    let max_err = |got: &[f32]| {
        got.iter()
            .zip(&exact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    };
    println!("softmax over a 32-wide score row:");
    println!(
        "  BBFP(10,5) LUT unit max |err| = {:.5}",
        max_err(&bbfp_row)
    );
    println!("  BFP10      LUT unit max |err| = {:.5}", max_err(&bfp_row));
    println!("  (max-alignment crushes the near-zero inputs that win the softmax)");

    // SILU through the same unit.
    let xs: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.5).collect();
    let mut exact_silu = xs.clone();
    ops::silu_in_place(&mut exact_silu);
    let mut lut_silu = xs.clone();
    bbfp_unit.silu(&mut lut_silu);
    println!("\nSILU (x, exact, LUT):");
    for ((x, e), l) in xs.iter().zip(&exact_silu).zip(&lut_silu) {
        println!("  {x:>5.2}  {e:>8.4}  {l:>8.4}");
    }

    // The cost model behind Table V.
    let lib = bbal::arith::GateLibrary::default();
    let cost = bbfp_unit.cost(&lib);
    println!(
        "\nunit cost: {:.0} um^2, {:.2} pJ/op, ADP {:.1}, EDP {:.2}, {} sub-tables materialised so far",
        cost.area_um2,
        cost.energy_pj,
        cost.adp(),
        cost.edp(),
        bbfp_unit.config().lanes,
    );
    Ok(())
}
