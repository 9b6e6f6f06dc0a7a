//! Property tests for the accelerator: simulator monotonicity and
//! conservation laws, systolic-array equivalence on random tiles, and
//! functional-GEMM error bounds.

use bbal_accel::{simulate, AcceleratorConfig, BbalGemm, FormatSpec, SystolicTile};
use bbal_arith::GateLibrary;
use bbal_core::{BbfpConfig, SchemeSpec};
use bbal_llm::graph::{GemmKind, Op};
use bbal_llm::Tensor;
use proptest::prelude::*;

proptest! {
    /// Systolic tiles compute exact integer GEMMs for arbitrary shapes.
    #[test]
    fn systolic_equivalence(
        m in 1usize..6,
        r in 1usize..8,
        c in 1usize..8,
        seed in 0i64..1000,
    ) {
        let a: Vec<i64> = (0..m * r).map(|i| ((i as i64 + seed) * 31 % 15) - 7).collect();
        let w: Vec<i64> = (0..r * c).map(|i| ((i as i64 * 7 + seed) % 13) - 6).collect();
        let run = SystolicTile::new(r, c, &w).stream(&a, m);
        for i in 0..m {
            for j in 0..c {
                let mut acc = 0i64;
                for kk in 0..r {
                    acc += a[i * r + kk] * w[kk * c + j];
                }
                prop_assert_eq!(run.get(i, j), acc, "({}, {})", i, j);
            }
        }
        prop_assert_eq!(run.cycles, (m + r + c - 2) as u64);
    }

    /// More GEMM work never takes fewer cycles, MACs, or DRAM bytes.
    #[test]
    fn simulator_is_monotone(m in 16usize..128, k in 64usize..512, n in 64usize..512) {
        let lib = GateLibrary::default();
        let cfg = AcceleratorConfig::bbal_paper();
        let small = [Op::Gemm { name: GemmKind::Fc1, m, k, n }];
        let large = [Op::Gemm { name: GemmKind::Fc1, m: m * 2, k, n }];
        let rs = simulate(&cfg, &small, &lib);
        let rl = simulate(&cfg, &large, &lib);
        prop_assert!(rl.linear_cycles >= rs.linear_cycles);
        prop_assert!(rl.macs == 2 * rs.macs);
        prop_assert!(rl.dram_bytes >= rs.dram_bytes);
        prop_assert!(rl.energy.total_pj() >= rs.energy.total_pj());
    }

    /// Utilisation never exceeds 100%: cycles >= macs / PE count.
    #[test]
    fn no_superunitary_utilisation(m in 8usize..64, k in 32usize..256, n in 32usize..256) {
        let lib = GateLibrary::default();
        let cfg = AcceleratorConfig::with_format(FormatSpec::from_scheme(SchemeSpec::Bbfp(4, 2)).unwrap(), 8, 8).unwrap();
        let ops = [Op::Gemm { name: GemmKind::Query, m, k, n }];
        let r = simulate(&cfg, &ops, &lib);
        prop_assert!(r.linear_cycles as u128 * cfg.pe_count() as u128 >= r.macs as u128);
    }

    /// The quantised GEMM error is bounded relative to the operands'
    /// magnitudes (no silent blow-ups on any random tile).
    #[test]
    fn functional_gemm_bounded_error(seed in 0u64..500) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        };
        let a = Tensor::from_vec(4, 32, (0..128).map(|_| next()).collect());
        let b = Tensor::from_vec(32, 4, (0..128).map(|_| next()).collect());
        let gemm = BbalGemm::new(BbfpConfig::new(6, 3).unwrap());
        let hw = gemm.matmul(&a, &b);
        let exact = a.matmul(&b);
        for (x, y) in hw.data().iter().zip(exact.data()) {
            // Error bound: quantisation steps of both operands times the
            // contraction length, loosely.
            prop_assert!((x - y).abs() < 0.15, "{x} vs {y}");
        }
    }
}
