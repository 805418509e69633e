//! The rollup cell format, written out by hand for models that build
//! cells themselves: a 4-byte qualifier `[offset u16 BE][writer][gen]`,
//! and a value of `[min][max][sum][count]`, 8 bytes each big-endian,
//! followed by the bucket's presence bitmap.

use bytes::Bytes;

/// A rollup cell qualifier.
pub fn encode_qualifier(offset: u16, writer: u8, gen: u8) -> Bytes {
    let [hi, lo] = offset.to_be_bytes();
    Bytes::copy_from_slice(&[hi, lo, writer, gen])
}

/// A rollup cell value blob.
pub fn encode_value(min: f64, max: f64, sum: f64, count: u64, bitmap: &[u8]) -> Bytes {
    let mut value = Vec::with_capacity(32 + bitmap.len());
    for word in [min.to_bits(), max.to_bits(), sum.to_bits(), count] {
        value.extend_from_slice(&word.to_be_bytes());
    }
    value.extend_from_slice(bitmap);
    Bytes::from(value)
}
