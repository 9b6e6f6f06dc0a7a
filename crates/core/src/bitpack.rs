//! Little-endian bit writer and reader.
//!
//! Table I's memory-efficiency column is realised by an actual memory
//! layout with no padding between fields: the packed block codec of
//! [`crate::packed`] and the algebra's chunk codec in [`crate::algebra`]
//! write their shared scale fields and element payloads through these
//! two types, so a packed buffer's length matches
//! [`FormatCost::total_bits`](crate::format::FormatCost::total_bits).

/// A little-endian bit writer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `bits` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 32`.
    pub fn push(&mut self, value: u32, bits: u32) {
        assert!(bits <= 32);
        for i in 0..bits {
            let bit = (value >> i) & 1;
            let byte_idx = self.bit_len / 8;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            self.bytes[byte_idx] |= (bit as u8) << (self.bit_len % 8);
            self.bit_len += 1;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Finishes and returns the packed bytes (last byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A little-endian bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader starting at bit 0 of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `bits` bits (LSB first), or `None` past the end.
    pub fn read(&mut self, bits: u32) -> Option<u32> {
        if self.pos + bits as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut v = 0u32;
        for i in 0..bits {
            let bit = (self.bytes[self.pos / 8] >> (self.pos % 8)) & 1;
            v |= (bit as u32) << i;
            self.pos += 1;
        }
        Some(v)
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{algebra_quantize_slice, FormatAlgebra};
    use crate::packed::PackedBlock;
    use crate::rounding::RoundingMode;

    /// One 32-value block with an outlier at index 9, quantised onto
    /// `format` so the packed codec accepts it.
    fn packed(format: FormatAlgebra) -> PackedBlock {
        let raw: Vec<f32> = (0..32)
            .map(|i| {
                let body = ((i * 41 % 97) as f32 - 48.0) * 0.02;
                if i == 9 {
                    body * 30.0
                } else {
                    body
                }
            })
            .collect();
        let mut q = vec![0.0; 32];
        algebra_quantize_slice(&raw, &format, RoundingMode::NearestEven, &mut q);
        PackedBlock::encode(&q, format).unwrap()
    }

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.push(0b101, 3);
        w.push(0xFFFF, 16);
        w.push(0, 1);
        w.push(0b11, 2);
        assert_eq!(w.bit_len(), 22);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(16), Some(0xFFFF));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.read(2), Some(0b11));
        assert_eq!(r.position(), 22);
    }

    #[test]
    fn reader_refuses_overrun() {
        let bytes = [0xABu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(8), Some(0xAB));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn packed_size_matches_format_cost() {
        let bbfp = FormatAlgebra::bbfp(6, 3).unwrap();
        let block = packed(bbfp);
        assert_eq!(block.packed_bits() as u64, bbfp.cost().total_bits(32));
        // 32*(6+2)+5 = 261 bits = 33 bytes.
        assert_eq!(block.bytes().len(), 33);

        let bfp = FormatAlgebra::bfp(6).unwrap();
        assert_eq!(packed(bfp).packed_bits() as u64, bfp.cost().total_bits(32));
    }

    #[test]
    fn packed_memory_density_beats_fp16() {
        // 32 FP16 values = 64 bytes; BBFP(4,2) = 5 + 32*6 bits = 25 bytes.
        let block = packed(FormatAlgebra::bbfp(4, 2).unwrap());
        assert!(block.bytes().len() * 2 < 64);
    }
}
