//! Table II: perplexity of quantised models (12 models × 11 methods).
//!
//! Paper shape: FP16 is the anchor row; BFP6/BBFP(6,x) sit within a few
//! percent of FP16; BFP4 degrades visibly (more on small models and on
//! OPT); BBFP(4,2) beats BFP4; the outlier-aware baselines (Oltron,
//! Olive) suffer on the outlier-heavy Llama profile, Olive being worst.

use crate::util::{print_table, to_io};
use bbal_llm::{zoo, TransformerModel};
use bbal_quant::TABLE2_SCHEMES;
use bbal_session::SessionBuilder;
use std::io::{self, Write};
use std::sync::Arc;

/// Runs the experiment, printing the reproduced rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn run(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# Table II: perplexity proxy on the synthetic zoo (lower is better)\n"
    )?;
    writeln!(
        w,
        "PPL proxy = paper FP16 anchor x exp(kl_scale x KL(teacher || student)); see DESIGN.md.\n"
    )?;

    let models = zoo::table2_models();

    let mut grid: Vec<Vec<String>> = TABLE2_SCHEMES
        .iter()
        .map(|s| vec![s.paper_name()])
        .collect();

    for spec in &models {
        // Synthesise each model once; every per-scheme session shares it.
        let model = Arc::new(TransformerModel::synthesize(spec));
        for (mi, &scheme) in TABLE2_SCHEMES.iter().enumerate() {
            let session = SessionBuilder::new()
                .with_model(Arc::clone(&model))
                .scheme_spec(scheme)
                .eval_set(2, 24, 1234)
                .build()
                .map_err(to_io)?;
            grid[mi].push(format!("{:.2}", session.evaluate().ppl));
        }
    }

    let mut headers: Vec<&str> = vec!["Method"];
    let names: Vec<&str> = models.iter().map(|m| m.name).collect();
    headers.extend(names.iter());
    print_table(w, &headers, &grid)?;

    writeln!(w, "\nShape check: BBFP(6,3)/(6,4) ~= FP16; BBFP(4,2) < BFP4; Olive worst; Oltron hurt more on Llama than OPT.")?;
    Ok(())
}
