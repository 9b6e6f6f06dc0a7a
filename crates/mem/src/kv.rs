//! KV-cache footprint and DRAM-traffic accounting.
//!
//! The BBAL energy story (Fig. 9) is dominated by memory traffic, and
//! in autoregressive serving the traffic that grows with context length
//! is the KV cache: every decode step streams the whole cached K and V
//! for its sequence past the PE array and writes one new row per
//! layer. This module gives the serving layer the two numbers it needs
//! to budget and charge that traffic:
//!
//! * [`KvFootprint`] — bytes per cached token for a model geometry
//!   under a quantisation scheme (the per-element storage bits derive
//!   from the scheme's mantissa/exponent/overlap widths, exactly like
//!   the accelerator's `FormatSpec`; schemes without a block storage
//!   cost fall back to FP16);
//! * [`KvTraffic`] — a read/write byte accumulator that converts to
//!   DRAM energy through a [`DramChannel`]. One rule charges every
//!   pass: a chunk of `new` tokens over `past` cached ones (a decode
//!   step is the chunk `(1, kv_len - 1)`).
//!
//! ```
//! use bbal_core::SchemeSpec;
//! use bbal_mem::{DramChannel, KvFootprint, KvTraffic};
//!
//! let fp = KvFootprint::for_scheme(SchemeSpec::BBAL_PAPER, 4096, 32);
//! assert!(fp.bytes_per_token() > 0.0);
//!
//! let mut traffic = KvTraffic::default();
//! traffic.record_prefill(&fp, 1, 511);  // one decode step over a 512-token cache
//! assert!(traffic.total_bytes() > 0);
//! assert!(traffic.energy_pj(&DramChannel::lpddr4()) > 0.0);
//! ```

use crate::dram::DramChannel;
use bbal_core::SchemeSpec;

/// Storage bits per cached KV element under `scheme`.
///
/// Every block-format scheme (BFP, BBFP, MX, MSFP, block minifloat)
/// lowers to a `bbal_core::FormatAlgebra` point whose
/// `FormatCost::equivalent_bit_width` amortises the shared scale (and
/// any sub-block codes) over the block; Olive/Oltron carry their pair
/// marker / outlier side-band; INT carries its bit width. Schemes with
/// no block storage model (FP16, OmniQuant's learned clipping — and
/// any invalid width combination) fall back to FP16's 16 bits, the
/// paper's baseline KV precision.
pub fn kv_bits_per_element(scheme: SchemeSpec) -> f64 {
    const FP16_FALLBACK: f64 = 16.0;
    match scheme {
        SchemeSpec::Fp32 => 32.0,
        SchemeSpec::Int(bits) => f64::from(bits),
        // 4-bit pairs + 1-bit pair marker, outliers reusing victim bits.
        SchemeSpec::Olive => 5.5,
        // 4-bit body + zero flag + 3×8-bit outlier slots per 128 elems.
        SchemeSpec::Oltron => 5.0 + (3.0 * 8.0) / 128.0,
        // Everything else derives from the format algebra; schemes that
        // do not lower (OmniQuant) or fail validation keep the baseline.
        _ => scheme
            .algebra()
            .ok()
            .flatten()
            .map_or(FP16_FALLBACK, |alg| alg.cost().equivalent_bit_width),
    }
}

/// The KV-cache footprint of one model geometry under one scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvFootprint {
    /// Storage bits per cached element (see [`kv_bits_per_element`]).
    pub bits_per_element: f64,
    /// Hidden width (one K row and one V row per layer are this wide).
    pub hidden: usize,
    /// Decoder layers.
    pub layers: usize,
}

impl KvFootprint {
    /// Footprint for `scheme` on a `hidden × layers` decoder.
    pub fn for_scheme(scheme: SchemeSpec, hidden: usize, layers: usize) -> KvFootprint {
        KvFootprint {
            bits_per_element: kv_bits_per_element(scheme),
            hidden,
            layers,
        }
    }

    /// Bytes one cached token occupies: a K row and a V row per layer.
    pub fn bytes_per_token(&self) -> f64 {
        2.0 * (self.hidden * self.layers) as f64 * self.bits_per_element / 8.0
    }

    /// Bytes a whole cached sequence of `tokens` occupies.
    pub fn bytes_for_tokens(&self, tokens: usize) -> u64 {
        (tokens as f64 * self.bytes_per_token()).ceil() as u64
    }
}

/// Accumulated KV DRAM traffic of a serving run: bytes written when
/// tokens are appended, bytes read when attention streams the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvTraffic {
    /// Bytes read from the cache (attention streaming K and V).
    pub read_bytes: u64,
    /// Bytes written to the cache (new K/V rows).
    pub write_bytes: u64,
}

impl KvTraffic {
    /// Charges one chunk of `new` tokens entering a cache of `past`
    /// tokens: writes `new` tokens; chunk row `i` reads the
    /// `past + i + 1` tokens it attends over. A decode step over a
    /// `kv_len`-token cache is the chunk `(1, kv_len - 1)`: it writes
    /// one token and reads all `kv_len`.
    ///
    /// Under prefix caching `past` includes any adopted shared-prefix
    /// tokens, but only the `new` (private) tokens are *written*: an
    /// adopted prefix already lives in the arena, so a warm prefill
    /// charges no write traffic for it — that is exactly the DRAM
    /// saving the prefix cache buys, and the serving layer relies on
    /// this method never double-charging shared pages.
    pub fn record_prefill(&mut self, fp: &KvFootprint, new: usize, past: usize) {
        self.write_bytes += fp.bytes_for_tokens(new);
        // Σ_{i=0}^{new-1} (past + i + 1) = new·past + new·(new+1)/2.
        let token_reads = new * past + new * (new + 1) / 2;
        self.read_bytes += fp.bytes_for_tokens(token_reads);
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// DRAM energy of the accumulated traffic over `channel`, pJ.
    pub fn energy_pj(&self, channel: &DramChannel) -> f64 {
        channel.transfer_energy_pj(self.total_bytes())
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &KvTraffic) {
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrower_schemes_store_smaller_kv() {
        let fp16 = kv_bits_per_element(SchemeSpec::Fp16);
        let bbal = kv_bits_per_element(SchemeSpec::BBAL_PAPER);
        let bfp4 = kv_bits_per_element(SchemeSpec::Bfp(4));
        assert_eq!(fp16, 16.0);
        assert!(bbal < fp16 / 2.0, "BBFP(4,2) stores {bbal} bits/elem");
        assert!(bfp4 < bbal, "BFP4 has no overlap bits");
    }

    #[test]
    fn block_bits_match_the_accelerator_format_costs() {
        // Same numbers FormatSpec derives in bbal-accel (Table I).
        assert!((kv_bits_per_element(SchemeSpec::Bfp(6)) - 7.15625).abs() < 1e-9);
        assert!(
            (kv_bits_per_element(SchemeSpec::BBAL_PAPER) - (4.0 + 2.0 + 5.0 / 32.0)).abs() < 1e-9
        );
    }

    #[test]
    fn algebra_families_amortise_their_scales() {
        // payload + shared bits / block, straight from the algebra.
        let mx = kv_bits_per_element("mx:8,4,2".parse().unwrap());
        assert!((mx - (5.0 + 24.0 / 32.0)).abs() < 1e-9, "mx {mx}");
        let msfp = kv_bits_per_element("msfp:4,16".parse().unwrap());
        assert!((msfp - (5.0 + 8.0 / 16.0)).abs() < 1e-9, "msfp {msfp}");
        let bmf = kv_bits_per_element("blockmf:4,3,8".parse().unwrap());
        assert!((bmf - (8.0 + 8.0 / 32.0)).abs() < 1e-9, "blockmf {bmf}");
    }

    #[test]
    fn kv_bits_accounting_matches_actual_packed_page_bytes() {
        // The analytic footprint model and the packed page layout must
        // agree exactly: for every block scheme,
        // `kv_bits_per_element × elements` (rounded up to whole bytes)
        // is the capacity a packed KV page actually charges. Block
        // sizes are powers of two, so the amortised bit width is exact
        // in binary and the comparison needs no tolerance.
        use bbal_core::packed_rows_capacity_bytes;
        let block_schemes = [
            "bfp:6",
            "bfp:4",
            "bbfp:3,1",
            "bbfp:4,2",
            "bbfp:4,3",
            "bbfp:6,3",
            "bbfp:6,4",
            "mx:8,4,2",
            "msfp:4,16",
            "blockmf:4,3,8",
        ];
        for spec in block_schemes {
            let scheme: SchemeSpec = spec.parse().expect("scheme parses");
            for (hidden, tokens) in [(64usize, 4usize), (64, 7), (128, 16), (4096, 1)] {
                let bits = kv_bits_per_element(scheme) * (hidden * tokens) as f64;
                let expected = (bits / 8.0).ceil() as usize;
                assert_eq!(
                    packed_rows_capacity_bytes(scheme, hidden, tokens),
                    expected,
                    "{spec} at {hidden}x{tokens}"
                );
            }
        }
    }

    #[test]
    fn unmapped_schemes_fall_back_to_fp16() {
        assert_eq!(kv_bits_per_element(SchemeSpec::OmniQuant), 16.0);
        // Invalid widths cannot panic the accounting path.
        assert_eq!(kv_bits_per_element(SchemeSpec::Bbfp(9, 9)), 16.0);
    }

    #[test]
    fn footprint_scales_with_geometry() {
        let small = KvFootprint::for_scheme(SchemeSpec::Fp16, 64, 1);
        let large = KvFootprint::for_scheme(SchemeSpec::Fp16, 128, 2);
        assert_eq!(small.bytes_per_token(), 2.0 * 64.0 * 2.0);
        assert_eq!(large.bytes_per_token(), 4.0 * small.bytes_per_token());
        assert_eq!(small.bytes_for_tokens(10), 2560);
    }

    #[test]
    fn prefill_reads_sum_the_causal_spans() {
        let fp = KvFootprint::for_scheme(SchemeSpec::Fp32, 1, 1);
        // bytes_per_token = 2 * 1 * 1 * 32/8 = 8.
        let mut chunked = KvTraffic::default();
        chunked.record_prefill(&fp, 3, 2); // spans 3+4+5 = 12 token-reads
        assert_eq!(chunked.read_bytes, 12 * 8);
        assert_eq!(chunked.write_bytes, 3 * 8);

        // Any split of a sequence into chunks — prompt chunks, then
        // one-token decode steps — charges the closed form of one pass
        // over all T tokens: T writes and 1 + 2 + … + T reads.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..64 {
            let (prompt, steps) = (1 + below(40), below(40));
            let mut traffic = KvTraffic::default();
            let mut past = 0;
            while past < prompt {
                let new = (1 + below(9)).min(prompt - past);
                traffic.record_prefill(&fp, new, past);
                past += new;
            }
            for _ in 0..steps {
                traffic.record_prefill(&fp, 1, past);
                past += 1;
            }
            let t = (prompt + steps) as u64;
            assert_eq!(traffic.write_bytes, t * 8, "{prompt} + {steps}");
            assert_eq!(
                traffic.read_bytes,
                t * (t + 1) / 2 * 8,
                "{prompt} + {steps}"
            );
        }
    }

    #[test]
    fn adopted_prefixes_charge_no_write_traffic() {
        let fp = KvFootprint::for_scheme(SchemeSpec::Fp32, 1, 1);
        // A warm prefill that adopted a 6-token shared prefix feeds
        // only its 2 private tokens; the adopted tokens are `past`.
        let mut warm = KvTraffic::default();
        warm.record_prefill(&fp, 2, 6);
        // A cold prefill writes the whole 8-token prompt.
        let mut cold = KvTraffic::default();
        cold.record_prefill(&fp, 8, 0);
        assert_eq!(warm.write_bytes, cold.write_bytes - fp.bytes_for_tokens(6));
        // Reads shrink too: the warm rows still attend over the full
        // past, but the adopted rows' own causal spans are skipped.
        assert!(warm.read_bytes < cold.read_bytes);
        // Spans 7+8 = 15 token-reads vs 1+2+..+8 = 36.
        assert_eq!(warm.read_bytes, 15 * 8);
        assert_eq!(cold.read_bytes, 36 * 8);
    }

    #[test]
    fn merge_accumulates_and_energy_is_linear() {
        let fp = KvFootprint::for_scheme(SchemeSpec::Fp16, 8, 2);
        let mut a = KvTraffic::default();
        a.record_prefill(&fp, 1, 99);
        let mut b = KvTraffic::default();
        b.record_prefill(&fp, 1, 99);
        b.merge(&a);
        assert_eq!(b.total_bytes(), 2 * a.total_bytes());
        let ch = DramChannel::lpddr4();
        assert!((b.energy_pj(&ch) - 2.0 * a.energy_pj(&ch)).abs() < 1e-9);
    }
}
