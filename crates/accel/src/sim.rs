//! The cycle-level simulator (DnnWeaver-class, tile-level).
//!
//! Weight-stationary execution of a GEMM `[m×k]·[k×n]` on an `R×C` PE
//! array: weights are tiled into `⌈k/R⌉ × ⌈n/C⌉` tiles; each tile is
//! preloaded column-wise (R cycles, masked by double buffering after the
//! first), then the `m` activation rows stream through one per cycle,
//! producing partial sums that exit through the FP encoder/adder. DRAM
//! transfers overlap compute (double-buffered SRAM), so the GEMM time is
//! the max of compute and memory. Nonlinear operators run on the
//! nonlinear unit after their producing GEMM.

use crate::config::AcceleratorConfig;
use bbal_arith::GateLibrary;
use bbal_llm::graph::{GemmKind, Op};
use bbal_nonlinear::NonlinearUnit;
use std::collections::BTreeMap;

/// Energy breakdown in the Fig. 9 categories.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Leakage over the run, pJ.
    pub static_pj: f64,
    /// DRAM transfer energy, pJ.
    pub dram_pj: f64,
    /// On-chip buffer access energy, pJ.
    pub buffer_pj: f64,
    /// PE-array switching energy, pJ.
    pub core_pj: f64,
    /// DRAM energy of KV-cache traffic, pJ. The operator-level
    /// simulator leaves this at 0 (its per-GEMM DRAM estimate already
    /// streams attention operands generically); the serving runtime
    /// (`bbal-serve`) fills it from `bbal_mem::KvTraffic` when folding
    /// tick energies into its run-level `ServeReport::energy`
    /// breakdown, charging the scheme-dependent KV bytes every tick's
    /// prefill chunks and decode steps move.
    pub kv_dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.static_pj + self.dram_pj + self.buffer_pj + self.core_pj + self.kv_dram_pj
    }

    /// Folds another breakdown into this one, component-wise.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.static_pj += other.static_pj;
        self.dram_pj += other.dram_pj;
        self.buffer_pj += other.buffer_pj;
        self.core_pj += other.core_pj;
        self.kv_dram_pj += other.kv_dram_pj;
    }
}

/// Result of simulating an operator list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Cycles spent in GEMMs (PE array).
    pub linear_cycles: u64,
    /// Cycles spent in softmax/activation (nonlinear unit).
    pub nonlinear_cycles: u64,
    /// Bytes moved over the DRAM channel.
    pub dram_bytes: u64,
    /// Multiply-accumulate operations executed.
    pub macs: u64,
    /// Elements processed by the nonlinear unit.
    pub nonlinear_elems: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Linear cycles per GEMM kind (the paper's Fig. 1(b) legend groups:
    /// QKV + Matmul + Up + Down + Gate).
    pub gemm_cycles: BTreeMap<GemmKind, u64>,
}

impl SimReport {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.linear_cycles + self.nonlinear_cycles
    }

    /// Runtime in milliseconds at the configured clock.
    pub fn runtime_ms(&self, clock_ghz: f64) -> f64 {
        self.total_cycles() as f64 / (clock_ghz * 1.0e6)
    }

    /// Fraction of cycles spent in the nonlinear unit.
    pub fn nonlinear_fraction(&self) -> f64 {
        if self.total_cycles() == 0 {
            0.0
        } else {
            self.nonlinear_cycles as f64 / self.total_cycles() as f64
        }
    }

    /// Effective throughput in GMAC/s.
    pub fn throughput_gmacs(&self, clock_ghz: f64) -> f64 {
        if self.total_cycles() == 0 {
            0.0
        } else {
            self.macs as f64 * clock_ghz / self.total_cycles() as f64
        }
    }
}

/// Simulates one GEMM, returning `(cycles, dram_bytes, buffer_accesses)`.
fn simulate_gemm(cfg: &AcceleratorConfig, m: usize, k: usize, n: usize) -> (u64, u64, u64) {
    let r = cfg.pe_rows;
    let c = cfg.pe_cols;
    let k_tiles = k.div_ceil(r) as u64;
    let n_tiles = n.div_ceil(c) as u64;

    // Compute: per tile, R preload cycles (first tile only — later
    // preloads are double-buffered) + m streaming cycles + C drain.
    let tiles = k_tiles * n_tiles;
    let compute = r as u64 + tiles * (m as u64 + c as u64);

    // DRAM traffic: the tiler picks whichever loop ordering moves fewer
    // bytes — keep an activation chunk resident and re-stream weights, or
    // keep a weight chunk resident and re-stream activations. Outputs are
    // written once (FP16 until re-encoded).
    let w_bytes = ((k * n) as f64 * cfg.format.weight_bits / 8.0).ceil() as u64;
    let a_bytes = ((m * k) as f64 * cfg.format.activation_bits / 8.0).ceil() as u64;
    let o_bytes = (m * n) as u64 * 2;
    let a_bytes_per_row = (k as f64 * cfg.format.activation_bits / 8.0).ceil() as u64;
    let w_bytes_per_col = (k as f64 * cfg.format.weight_bits / 8.0).ceil() as u64;
    // Rows of A resident in the input buffer / columns of B resident in
    // the weight buffer.
    let m_chunk = (cfg.input_buffer.capacity_bytes() / a_bytes_per_row.max(1)).max(1);
    let n_chunk = (cfg.weight_buffer.capacity_bytes() / w_bytes_per_col.max(1)).max(1);
    let weight_restream = w_bytes * (m as u64).div_ceil(m_chunk);
    let act_restream = a_bytes * (n as u64).div_ceil(n_chunk);
    let dram_bytes = o_bytes + (weight_restream + a_bytes).min(act_restream + w_bytes);
    let dram_cycles = cfg.dram.transfer_cycles(dram_bytes);

    // Buffer accesses: weights into array once per tile; activations per
    // streaming cycle; outputs once.
    let buffer_accesses = tiles * (r as u64) + tiles * m as u64 + (m * n) as u64 / c as u64;

    (compute.max(dram_cycles), dram_bytes, buffer_accesses)
}

/// How nonlinear operators are timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NonlinearTiming {
    /// The BBAL segmented-LUT unit (16 lanes, pipelined).
    BbalUnit,
    /// A scalar FP32 baseline unit — what the paper's motivation (Fig.
    /// 1(b)) measures before BBAL's unit exists. Transcendental functions
    /// cost several cycles per element on one lane.
    ScalarFp32 {
        /// Cycles per element (≈8 for exp + divide pipelines).
        cycles_per_elem: f64,
    },
}

/// Simulates an operator list with the BBAL nonlinear unit.
pub fn simulate(cfg: &AcceleratorConfig, ops: &[Op], lib: &GateLibrary) -> SimReport {
    simulate_with(cfg, ops, lib, NonlinearTiming::BbalUnit)
}

/// Simulates an operator list with an explicit nonlinear timing model.
pub fn simulate_with(
    cfg: &AcceleratorConfig,
    ops: &[Op],
    lib: &GateLibrary,
    timing: NonlinearTiming,
) -> SimReport {
    let nonlinear_unit = NonlinearUnit::new(cfg.nonlinear);
    let nl_cycles = |elems: u64| -> u64 {
        match timing {
            NonlinearTiming::BbalUnit => nonlinear_unit.cycles(elems),
            NonlinearTiming::ScalarFp32 { cycles_per_elem } => {
                (elems as f64 * cycles_per_elem).ceil() as u64
            }
        }
    };
    let mut report = SimReport::default();
    let mut buffer_accesses = 0u64;

    for op in ops {
        match *op {
            Op::Gemm { name, m, k, n } => {
                let (cycles, dram, buf) = simulate_gemm(cfg, m, k, n);
                report.linear_cycles += cycles;
                *report.gemm_cycles.entry(name).or_insert(0) += cycles;
                report.dram_bytes += dram;
                buffer_accesses += buf;
                report.macs += (m as u64) * (k as u64) * (n as u64);
            }
            Op::Softmax { rows, cols } => {
                let elems = rows as u64 * cols as u64;
                report.nonlinear_cycles += nl_cycles(elems);
                report.nonlinear_elems += elems;
                buffer_accesses += elems / 16;
            }
            Op::Activation { elems, .. } => {
                report.nonlinear_cycles += nl_cycles(elems as u64);
                report.nonlinear_elems += elems as u64;
                buffer_accesses += elems as u64 / 16;
            }
        }
    }

    // Energy accounting.
    let runtime_s = report.total_cycles() as f64 / (cfg.clock_ghz * 1.0e9);
    let static_mw = cfg.static_power_mw(lib);
    report.energy = EnergyBreakdown {
        static_pj: static_mw * 1.0e-3 * runtime_s * 1.0e12,
        dram_pj: cfg.dram.transfer_energy_pj(report.dram_bytes),
        buffer_pj: buffer_accesses as f64 * cfg.input_buffer.read_energy_pj(),
        core_pj: report.macs as f64 / cfg.pe_count() as f64
            * cfg.pe_energy_pj(lib)
            * cfg.pe_count() as f64,
        kv_dram_pj: 0.0,
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_core::SchemeSpec;
    use bbal_llm::graph::{decode_step_ops, decoder_ops, paper_dims, tick_ops, Chunk, GemmKind};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::bbal_paper()
    }

    #[test]
    fn gemm_cycles_scale_with_work() {
        let c = cfg();
        let (small, _, _) = simulate_gemm(&c, 64, 256, 256);
        let (large, _, _) = simulate_gemm(&c, 128, 256, 256);
        assert!(large > small);
        // Streaming model: doubling m roughly doubles compute-bound time.
        let ratio = large as f64 / small as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn utilisation_bounded_by_array_size() {
        let c = cfg();
        let lib = GateLibrary::default();
        let ops = [Op::Gemm {
            name: GemmKind::Fc1,
            m: 256,
            k: 1024,
            n: 1024,
        }];
        let report = simulate(&c, &ops, &lib);
        let ideal = report.macs / c.pe_count() as u64;
        assert!(
            report.linear_cycles >= ideal,
            "cannot beat 100% utilisation"
        );
        // And the model should stay within 4x of ideal for a large GEMM.
        assert!(
            report.linear_cycles < 4 * ideal,
            "{} vs {ideal}",
            report.linear_cycles
        );
    }

    #[test]
    fn fig1b_nonlinear_fraction_grows_with_sequence() {
        let c = cfg();
        let lib = GateLibrary::default();
        let dims = paper_dims("Llama-7B").unwrap();
        let frac = |s: usize| simulate(&c, &decoder_ops(&dims, s), &lib).nonlinear_fraction();
        let f128 = frac(128);
        let f1024 = frac(1024);
        let f4096 = frac(4096);
        assert!(f1024 > f128, "{f1024} vs {f128}");
        assert!(f4096 > f1024, "{f4096} vs {f1024}");
    }

    #[test]
    fn batched_decode_is_cheaper_than_sequential_decode() {
        // The continuous-batching dividend: 8 decode steps fused into
        // one tick cost far less than 8 sequential single-token ticks,
        // because the weight tiles stream from DRAM once.
        let c = cfg();
        let lib = GateLibrary::default();
        let d = paper_dims("Llama-7B").unwrap();
        let one = simulate(&c, &decode_step_ops(&d, 512), &lib);
        let items = [Chunk { new: 1, past: 511 }; 8];
        let eight = simulate(&c, &tick_ops(&d, &items), &lib);
        let speedup = 8.0 * one.total_cycles() as f64 / eight.total_cycles() as f64;
        assert!(speedup >= 2.0, "batched speedup only {speedup:.2}x");
    }

    #[test]
    fn energy_breakdown_is_positive_and_dominated_by_dram_or_core() {
        let c = cfg();
        let lib = GateLibrary::default();
        let dims = paper_dims("Llama-7B").unwrap();
        let report = simulate(&c, &decoder_ops(&dims, 256), &lib);
        let e = report.energy;
        assert!(e.static_pj > 0.0 && e.dram_pj > 0.0 && e.buffer_pj > 0.0 && e.core_pj > 0.0);
        let total = e.total_pj();
        assert!(e.dram_pj + e.core_pj > 0.3 * total);
    }

    #[test]
    fn narrower_formats_move_fewer_dram_bytes() {
        let lib = GateLibrary::default();
        let ops = [Op::Gemm {
            name: GemmKind::Fc1,
            m: 256,
            k: 2048,
            n: 2048,
        }];
        let narrow = simulate(
            &AcceleratorConfig::for_scheme(SchemeSpec::Bbfp(3, 1), 16, 16).unwrap(),
            &ops,
            &lib,
        );
        let wide = simulate(
            &AcceleratorConfig::for_scheme(SchemeSpec::Bfp(6), 16, 16).unwrap(),
            &ops,
            &lib,
        );
        assert!(narrow.dram_bytes < wide.dram_bytes);
    }

    #[test]
    fn runtime_report_is_consistent() {
        let c = cfg();
        let lib = GateLibrary::default();
        let ops = [Op::Gemm {
            name: GemmKind::Query,
            m: 64,
            k: 512,
            n: 512,
        }];
        let r = simulate(&c, &ops, &lib);
        assert_eq!(r.total_cycles(), r.linear_cycles);
        assert!(r.runtime_ms(1.0) > 0.0);
        assert!(r.throughput_gmacs(1.0) > 0.0);
    }
}
