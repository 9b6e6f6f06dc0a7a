//! Table formatting and normalisation helpers for the experiment
//! binaries.

use std::io::{self, Write};

/// Prints an aligned text table.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn print_table(w: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |w: &mut dyn Write, cells: &[String]| -> io::Result<()> {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        writeln!(w, "{}", line.trim_end())
    };
    print_row(
        w,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    )?;
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    writeln!(w, "{}", "-".repeat(total))?;
    for row in rows {
        print_row(w, row)?;
    }
    Ok(())
}

/// Normalises values by their maximum (the paper's "Norm." rows).
pub fn normalize_by_max(values: &[f64]) -> Vec<f64> {
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    if max <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / max).collect()
}

/// Formats a float with four decimals.
pub fn fmt4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with three significant decimals.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with two decimals.
pub fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with one decimal.
pub fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// Adapts a stack error (scheme/config/session) to `io::Error` so the
/// experiment entry points can `?`-propagate it.
pub fn to_io(e: impl std::error::Error + Send + Sync + 'static) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut out = Vec::new();
        print_table(
            &mut out,
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("long-name  2"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn normalisation_maps_max_to_one() {
        let n = normalize_by_max(&[2.0, 4.0, 1.0]);
        assert_eq!(n, vec![0.5, 1.0, 0.25]);
    }

    #[test]
    fn normalisation_handles_degenerate_input() {
        assert_eq!(normalize_by_max(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
