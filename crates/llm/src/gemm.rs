//! Data-parallel drivers for the packed GEMM kernels.
//!
//! [`bbal_core::PackedMatrix`] exposes a column-range kernel
//! (`gemm_cols`) whose any-partition result is bit-identical to the
//! single-call GEMM — each output element is owned
//! by exactly one range and accumulated in the same `k` order. This
//! module turns that property into wall-clock parallelism with the same
//! worker-pool mechanism `bbal-serve`'s runtime uses for decode units:
//! a shared `Mutex<Receiver>` job queue drained by workers that
//! `catch_unwind` their kernel call and report completions over a
//! channel. Here the pool is scoped (`std::thread::scope`) so jobs can
//! borrow the operands, and each worker writes a private compact output
//! strip that the caller scatters into the full output — no shared
//! mutable state, so 1 worker and N workers produce the same bits by
//! construction (the determinism test in `tests/packed_kernels.rs` pins
//! this).
//!
//! With `workers <= 1` (the default everywhere) the kernel runs inline:
//! no threads, no channels, no allocation beyond the output itself.

use bbal_core::{PackedMatrix, DEFAULT_BLOCK_SIZE};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// `x · W` over the packed matrix, fanned out across `workers` threads
/// by output-column ranges. Bit-identical for every worker count.
///
/// # Panics
///
/// Panics if a shape mismatches (see [`PackedMatrix::gemm`]) or a
/// worker's kernel panicked (the panic is resumed on the caller).
pub fn gemm(p: &PackedMatrix, x: &[f32], x_rows: usize, workers: usize, out: &mut [f32]) {
    let ranges = split_ranges(p.cols(), workers);
    if ranges.len() <= 1 {
        p.gemm(x, x_rows, out);
        return;
    }
    run_pool(&ranges, x_rows, p.cols(), out, |c0, c1, strip| {
        p.gemm_cols(x, x_rows, c0, c1, strip);
    });
}

/// Splits `n` output columns into at most `workers` contiguous ranges
/// with block-aligned boundaries (so every range keeps the aligned fast
/// path when the matrix width allows it). Returns a single range when
/// the split would not pay for thread traffic.
fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let blocks = n.div_ceil(DEFAULT_BLOCK_SIZE);
    let parts = workers.min(blocks).max(1);
    if parts <= 1 {
        return vec![(0, n)];
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start_block = 0;
    for w in 0..parts {
        let end_block = blocks * (w + 1) / parts;
        let c0 = start_block * DEFAULT_BLOCK_SIZE;
        let c1 = (end_block * DEFAULT_BLOCK_SIZE).min(n);
        if c1 > c0 {
            ranges.push((c0, c1));
        }
        start_block = end_block;
    }
    ranges
}

/// One unit of pool work: compute output columns `[c0, c1)`.
struct Job {
    c0: usize,
    c1: usize,
}

/// A finished strip (or the payload of a panicked kernel call, resumed
/// on the caller thread so worker panics are not swallowed).
type Done = std::thread::Result<(usize, usize, Vec<f32>)>;

/// Drains `ranges` through a scoped worker pool — the `bbal-serve`
/// worker-loop mechanism (shared `Mutex<Receiver>` queue, `catch_unwind`
/// around the work, completions over a channel) with borrowing workers —
/// and scatters each compact strip into the full-stride `out`.
fn run_pool(
    ranges: &[(usize, usize)],
    x_rows: usize,
    stride: usize,
    out: &mut [f32],
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    for &(c0, c1) in ranges {
        job_tx.send(Job { c0, c1 }).expect("queue open");
    }
    drop(job_tx);
    let jobs = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let kernel = &kernel;
    std::thread::scope(|s| {
        for _ in 0..ranges.len() {
            let jobs = Arc::clone(&jobs);
            let done = done_tx.clone();
            s.spawn(move || loop {
                // Workers race on one shared queue; a closed channel
                // (all strips handed out) ends the thread.
                let job = {
                    let guard = match jobs.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.recv()
                };
                let Ok(Job { c0, c1 }) = job else {
                    return;
                };
                // A panic inside the kernel must not strand the caller
                // waiting for a strip that will never come: catch it
                // and ship it back to be resumed.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut strip = vec![0.0f32; x_rows * (c1 - c0)];
                    kernel(c0, c1, &mut strip);
                    (c0, c1, strip)
                }));
                if done.send(outcome).is_err() {
                    return;
                }
            });
        }
        drop(done_tx);
        for outcome in done_rx {
            let (c0, c1, strip) = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            let width = c1 - c0;
            for i in 0..x_rows {
                out[i * stride + c0..i * stride + c1]
                    .copy_from_slice(&strip[i * width..(i + 1) * width]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_core::SchemeSpec;

    fn packed_fixture(k_len: usize, n: usize) -> (PackedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..k_len * n)
            .map(|i| (((i * 37 + 11) % 64) as f32 - 32.0) * 0.03125)
            .collect();
        let x: Vec<f32> = (0..2 * k_len)
            .map(|i| (((i * 13 + 5) % 32) as f32 - 16.0) * 0.25)
            .collect();
        (PackedMatrix::pack(&w, k_len, n, SchemeSpec::Fp32), x)
    }

    #[test]
    fn ranges_cover_and_align() {
        for (n, workers) in [(512usize, 4usize), (512, 100), (33, 2), (7, 3), (64, 1)] {
            let ranges = split_ranges(n, workers);
            assert!(ranges.len() <= workers.max(1));
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].1, pair[1].0);
                assert_eq!(pair[0].1 % DEFAULT_BLOCK_SIZE, 0);
            }
        }
    }

    #[test]
    fn worker_count_never_changes_bits() {
        let (p, x) = packed_fixture(24, 96);
        let mut reference = vec![0.0f32; 2 * 96];
        gemm(&p, &x, 2, 1, &mut reference);
        for workers in [2usize, 3, 8] {
            let mut out = vec![f32::NAN; 2 * 96];
            gemm(&p, &x, 2, workers, &mut out);
            let same = out
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "workers {workers}");
        }
    }
}
