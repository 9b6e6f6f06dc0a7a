//! The exponent-segmented lookup table (paper §IV-B).
//!
//! A function's value table is split into one sub-table per
//! `(sign, shared exponent)` pair — with 5 exponent bits that is `2^5 × 2`
//! possible sub-tables, of which only the exponent range a workload
//! actually visits is materialised (the paper reports 18 for Softmax and
//! 24 for SILU). Once a block's shared exponent is known from the
//! alignment phase, one sub-table covers the *entire block*, and each
//! element's flag + mantissa bits form the LUT address directly — no
//! floating-point address mapping.
//!
//! Entries are stored pre-quantised to the same BBFP element format the
//! datapath uses, so a lookup's output feeds the next fixed-point stage
//! unchanged (§IV-B "INT Computation").

use bbal_core::{encode_elements, BbfpElement, FormatAlgebra, Fp16, RoundingMode};
use std::collections::BTreeMap;

/// A segmented LUT for one scalar function.
pub struct SegmentedLut {
    format: FormatAlgebra,
    address_bits: u32,
    tables: BTreeMap<(bool, i32), Vec<f32>>,
    function: Box<dyn Fn(f64) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for SegmentedLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedLut")
            .field("format", &self.format)
            .field("address_bits", &self.address_bits)
            .field("materialised_tables", &self.tables.len())
            .finish()
    }
}

impl SegmentedLut {
    /// Creates an empty segmented LUT for `function` whose inputs are
    /// aligned into `format`, a shared-exponent point: BBFP(10,5) in the
    /// paper, or BFP10, which never flags an element, for the Table IV
    /// comparison rows.
    ///
    /// Sub-tables are materialised lazily, mirroring the paper's scheme of
    /// keeping the full set off-chip and loading per shared exponent.
    ///
    /// # Panics
    ///
    /// Panics if `address_bits` is 0 or exceeds `mantissa_bits + 1` (flag
    /// bit plus mantissa MSBs are all the address can draw from).
    pub fn new(
        function: impl Fn(f64) -> f64 + Send + Sync + 'static,
        format: FormatAlgebra,
        address_bits: u32,
    ) -> SegmentedLut {
        assert!(address_bits > 0);
        assert!(
            address_bits <= format.mantissa_bits as u32 + 1,
            "address wider than flag+mantissa"
        );
        SegmentedLut {
            format,
            address_bits,
            tables: BTreeMap::new(),
            function: Box::new(function),
        }
    }

    /// The element format entries are stored in.
    pub fn format(&self) -> FormatAlgebra {
        self.format
    }

    /// Number of sub-tables materialised so far (the paper's "18 sub-tables
    /// for Softmax" count).
    pub fn materialised_tables(&self) -> usize {
        self.tables.len()
    }

    /// Entries per sub-table.
    pub fn entries_per_table(&self) -> usize {
        1usize << self.address_bits
    }

    /// The LUT address of an encoded element: the flag bit concatenated
    /// with the mantissa's top `address_bits − 1` bits.
    fn address(&self, flag: bool, mantissa: u16) -> usize {
        let mant_bits = self.address_bits - 1;
        let shift = self.format.mantissa_bits as u32 - mant_bits;
        let hi = (mantissa >> shift) as usize;
        ((flag as usize) << mant_bits) | hi
    }

    /// The representative input value of a LUT cell (cell centre).
    fn cell_input(&self, sign: bool, shared_exponent: i32, addr: usize) -> f64 {
        let mant_bits = self.address_bits - 1;
        let m = self.format.mantissa_bits as u32;
        let shift = m - mant_bits;
        let flag = addr >> mant_bits != 0;
        let hi = (addr & ((1 << mant_bits) - 1)) as u64;
        // Cell centre: top bits + half a cell.
        let mantissa = (hi << shift) as f64 + (1u64 << shift) as f64 / 2.0;
        let scale = ((shared_exponent - 14 - m as i32) as f64).exp2();
        let f = if flag {
            (1u64 << self.format.window_gap().unwrap_or(0)) as f64
        } else {
            1.0
        };
        let mag = mantissa * f * scale;
        if sign {
            -mag
        } else {
            mag
        }
    }

    fn table(&mut self, sign: bool, shared_exponent: i32) -> &Vec<f32> {
        let cfg_entries = self.entries_per_table();
        let key = (sign, shared_exponent);
        if !self.tables.contains_key(&key) {
            let mut entries = Vec::with_capacity(cfg_entries);
            for addr in 0..cfg_entries {
                let x = self.cell_input(sign, shared_exponent, addr);
                let y = (self.function)(x);
                // Entries are stored in the datapath's element format:
                // round through FP16 (the storage grid of a BBFP element
                // with its own exponent field folded in).
                entries.push(Fp16::from_f32_saturating(y as f32).to_f32());
            }
            self.tables.insert(key, entries);
        }
        &self.tables[&key]
    }

    /// Applies the function to a block: align the whole of `xs` against
    /// one shared exponent with the algebra's element encoder, then one
    /// lookup per element against that exponent's sub-table, addressed by
    /// the element's flag and mantissa (a code alone would not tell the
    /// two windows apart).
    ///
    /// Returns the looked-up outputs. Inputs that encode to mantissa zero
    /// hit the `addr 0` cell like any other value; a NaN input gives NaN
    /// and takes no part in the shared exponent, which the other elements
    /// set as if it were 0.
    pub fn apply_block(&mut self, xs: &[f32]) -> Vec<f32> {
        let fp16: Vec<Fp16> = xs
            .iter()
            .map(|&v| Fp16::from_f32_saturating(if v.is_nan() { 0.0 } else { v }))
            .collect();
        let mut elements = vec![BbfpElement::default(); xs.len()];
        let policy = self.format.exponent_policy();
        let shared = encode_elements(
            &fp16,
            &self.format,
            policy,
            RoundingMode::NearestEven,
            &mut elements,
        );
        let mut out = Vec::with_capacity(xs.len());
        for (x, e) in xs.iter().zip(&elements) {
            out.push(if x.is_nan() {
                *x
            } else {
                let addr = self.address(e.flag, e.mantissa);
                self.table(e.sign, shared)[addr]
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_lut() -> SegmentedLut {
        SegmentedLut::new(|x| x.exp(), FormatAlgebra::bbfp(10, 5).unwrap(), 7)
    }

    #[test]
    fn lookup_approximates_exp() {
        let mut lut = exp_lut();
        let xs: Vec<f32> = (0..32).map(|i| -(i as f32) * 0.2).collect();
        let ys = lut.apply_block(&xs);
        for (x, y) in xs.iter().zip(&ys) {
            let exact = x.exp();
            let rel = (y - exact).abs() / exact.max(1e-6);
            assert!(rel < 0.15, "exp({x}) = {exact}, lut {y}");
        }
    }

    #[test]
    fn subtables_materialise_lazily_per_exponent() {
        let mut lut = exp_lut();
        assert_eq!(lut.materialised_tables(), 0);
        let _ = lut.apply_block(&[-0.5f32; 8]);
        let after_one = lut.materialised_tables();
        assert!(after_one >= 1);
        // Same exponent range: no new tables.
        let _ = lut.apply_block(&[-0.5f32; 8]);
        assert_eq!(lut.materialised_tables(), after_one);
        // Different magnitude: new shared exponent, new table.
        let _ = lut.apply_block(&[-40.0f32; 8]);
        assert!(lut.materialised_tables() > after_one);
    }

    #[test]
    fn softmax_workload_uses_bounded_table_count() {
        // The paper materialises 18 sub-tables for softmax: inputs
        // (x - max) span a limited exponent range. Sweep a wide input
        // range and check the count stays in the same ballpark (<= 64).
        let mut lut = exp_lut();
        for scale in 1..40 {
            let xs: Vec<f32> = (0..16).map(|i| -(i as f32) * scale as f32 * 0.1).collect();
            let _ = lut.apply_block(&xs);
        }
        let n = lut.materialised_tables();
        assert!(n <= 40, "materialised {n} sub-tables");
    }

    #[test]
    fn entries_per_table_matches_address_width() {
        let lut = exp_lut();
        assert_eq!(lut.entries_per_table(), 128);
    }

    #[test]
    fn mantissa_is_used_directly_as_address() {
        let lut = exp_lut();
        // flag=0, 10-bit mantissa 0b11_0101_0101: address = flag | top 6.
        let addr = lut.address(false, 0b11_0101_0101);
        assert_eq!(addr, 0b011_0101);
        let addr_flagged = lut.address(true, 0b11_0101_0101);
        assert_eq!(addr_flagged, 0b100_0000 | 0b11_0101);
    }

    #[test]
    #[should_panic(expected = "address wider")]
    fn address_cannot_exceed_payload_bits() {
        let _ = SegmentedLut::new(|x| x, FormatAlgebra::bbfp(4, 2).unwrap(), 7);
    }
}
