//! Fig. 4: Algorithm 1 — PPL and hardware overhead over overlap width for
//! BBFP(6,o).
//!
//! Paper shape: PPL improves then flattens/worsens as overlap grows (wider
//! overlap raises the shared exponent); hardware overhead *falls* with
//! overlap (shorter carry chain, narrower product router); the
//! accuracy-best and efficiency-best candidates differ, and the weighted
//! score picks between them.

use crate::util::{print_table, to_io};
use bbal_arith::{BlockMac, GateLibrary, MacKind};
use bbal_core::{select_overlap_width, SchemeSpec};
use bbal_llm::{zoo, TransformerModel};
use bbal_session::SessionBuilder;
use std::io::{self, Write};
use std::sync::Arc;

/// Runs the experiment, printing the reproduced series.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# Fig 4: overlap-width selection (Algorithm 1) for BBFP(6,o), Llama-7B stand-in\n"
    )?;
    let lib = GateLibrary::default();
    let model = Arc::new(TransformerModel::synthesize(&zoo::llama_7b()));

    // Evaluate each candidate once; Algorithm 1 then reads the cache.
    let mut ppl_cache = Vec::new();
    let mut overhead_cache = Vec::new();
    for o in 0..6u8 {
        let scheme = SchemeSpec::Bbfp(6, o);
        let session = SessionBuilder::new()
            .with_model(Arc::clone(&model))
            .scheme_spec(scheme)
            .eval_set(2, 24, 17)
            .build()
            .map_err(to_io)?;
        ppl_cache.push(session.evaluate().ppl);
        let mac = MacKind::from_scheme(scheme).map_err(to_io)?;
        overhead_cache.push(BlockMac::new(mac, 32).cost(&lib).area_um2);
    }

    let result = select_overlap_width(
        6,
        0.5,
        |o| ppl_cache[o as usize],
        |o| overhead_cache[o as usize],
    )
    .map_err(to_io)?;

    let rows: Vec<Vec<String>> = result
        .scores
        .iter()
        .map(|s| {
            vec![
                format!("BBFP(6,{})", s.overlap),
                format!("{:.3}", s.ppl),
                format!("{:.0}", s.overhead),
                format!("{:.3}", s.norm_ppl),
                format!("{:.3}", s.norm_overhead),
                format!("{:.3}", s.score),
            ]
        })
        .collect();
    print_table(
        w,
        &[
            "config",
            "PPL",
            "overhead (um^2)",
            "norm PPL",
            "norm overhead",
            "score (w=0.5)",
        ],
        &rows,
    )?;
    writeln!(w, "\nAlgorithm 1 selection (w=0.5): o = {}", result.best)?;

    // The paper's two extremes.
    let acc_best = select_overlap_width(
        6,
        0.0,
        |o| ppl_cache[o as usize],
        |o| overhead_cache[o as usize],
    )
    .map_err(to_io)?
    .best;
    let eff_best = select_overlap_width(
        6,
        1.0,
        |o| ppl_cache[o as usize],
        |o| overhead_cache[o as usize],
    )
    .map_err(to_io)?
    .best;
    writeln!(w, "accuracy-best (w=0):   o = {acc_best}")?;
    writeln!(w, "efficiency-best (w=1): o = {eff_best}")?;
    writeln!(w, "\nShape check: overhead falls with overlap; PPL has an interior optimum; the two extremes differ.")?;
    Ok(())
}
