//! Fig. 8: accuracy (average Llama / OPT PPL) and throughput under equal
//! PE-array area, 11 methods.
//!
//! Paper shape: BBFP(3,x) and Oltron share the highest throughput tier
//! (3-bit multipliers) with BBFP(3,1) far more accurate than Oltron
//! (+22% average accuracy); BBFP(3,x) beats BFP4 throughput by ~40% at
//! similar accuracy; BBFP(4,x) trades ~30% throughput against Oltron for
//! ~30% lower PPL; BBFP(6,3) is the accuracy ceiling at the lowest
//! throughput.

use crate::util::{normalize_by_max, print_table, to_io};
use bbal_accel::iso_area_sweep;
use bbal_arith::GateLibrary;
use bbal_llm::graph::{decoder_ops, paper_dims};
use bbal_llm::{zoo, TransformerModel};
use bbal_quant::FIG8_SCHEMES;
use bbal_session::SessionBuilder;
use std::io::{self, Write};
use std::sync::Arc;

/// Runs the experiment, printing the reproduced rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# Fig 8: iso-area accuracy vs throughput, 11 methods\n")?;
    let lib = GateLibrary::default();

    // Accuracy: average PPL proxy over two models per family.
    let llama_specs: Vec<_> = zoo::table2_models()
        .into_iter()
        .filter(|m| {
            matches!(m.family, zoo::Family::Llama)
                && (m.name == "Llama-7B" || m.name == "Llama-13B")
        })
        .collect();
    let opt_specs: Vec<_> = zoo::table2_models()
        .into_iter()
        .filter(|m| {
            matches!(m.family, zoo::Family::Opt) && (m.name == "OPT-6.7B" || m.name == "OPT-13B")
        })
        .collect();

    let mut llama_ppl = vec![0.0f64; FIG8_SCHEMES.len()];
    let mut opt_ppl = vec![0.0f64; FIG8_SCHEMES.len()];
    for (bucket, specs) in [(&mut llama_ppl, &llama_specs), (&mut opt_ppl, &opt_specs)] {
        for spec in specs.iter() {
            // One synthesis per model, shared by all per-scheme sessions.
            let model = Arc::new(TransformerModel::synthesize(spec));
            for (mi, &scheme) in FIG8_SCHEMES.iter().enumerate() {
                let session = SessionBuilder::new()
                    .with_model(Arc::clone(&model))
                    .scheme_spec(scheme)
                    .eval_set(2, 24, 888)
                    .build()
                    .map_err(to_io)?;
                bucket[mi] += session.evaluate().ppl / specs.len() as f64;
            }
        }
    }

    // Throughput: iso-area sweep on a Llama-7B prefill workload.
    let dims = paper_dims("Llama-7B").expect("known model");
    let workload = decoder_ops(&dims, 256);
    let points = iso_area_sweep(FIG8_SCHEMES, 60_000.0, &workload, &lib).map_err(to_io)?;

    let throughputs: Vec<f64> = points.iter().map(|p| p.throughput_gmacs).collect();
    let tp_norm = normalize_by_max(&throughputs);
    let ppl_norm_l = normalize_by_max(&llama_ppl);
    let ppl_norm_o = normalize_by_max(&opt_ppl);

    let rows: Vec<Vec<String>> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                p.name.clone(),
                format!("{}x{}", p.pe_rows, p.pe_cols),
                format!("{:.0}", p.throughput_gmacs),
                format!("{:.2}", tp_norm[i]),
                format!("{:.2}", llama_ppl[i]),
                format!("{:.2}", ppl_norm_l[i]),
                format!("{:.2}", opt_ppl[i]),
                format!("{:.2}", ppl_norm_o[i]),
            ]
        })
        .collect();
    print_table(
        w,
        &[
            "method",
            "array",
            "GMAC/s",
            "tp norm",
            "avg Llama PPL",
            "norm",
            "avg OPT PPL",
            "norm",
        ],
        &rows,
    )?;

    // The paper's headline deltas.
    let find = |name: &str| {
        points
            .iter()
            .position(|p| p.name == name)
            .expect("method present")
    };
    let (bfp4, bbfp31, oltron, bbfp42) = (
        find("BFP4"),
        find("BBFP(3,1)"),
        find("Oltron"),
        find("BBFP(4,2)"),
    );
    writeln!(
        w,
        "\nBBFP(3,1) vs BFP4 throughput: +{:.0}% (paper: +40%)",
        (throughputs[bbfp31] / throughputs[bfp4] - 1.0) * 100.0
    )?;
    writeln!(
        w,
        "BBFP(3,1) vs Oltron avg Llama PPL: {:.2} vs {:.2} (paper: 22% accuracy gain)",
        llama_ppl[bbfp31], llama_ppl[oltron]
    )?;
    writeln!(
        w,
        "BBFP(4,2) vs Oltron throughput: {:.0}% (paper: -30%), PPL {:.2} vs {:.2} (paper: -30%)",
        (throughputs[bbfp42] / throughputs[oltron] - 1.0) * 100.0,
        llama_ppl[bbfp42],
        llama_ppl[oltron]
    )?;
    Ok(())
}
