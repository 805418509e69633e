//! Columnar sealed-block codec: delta-of-delta timestamps + XOR/Gorilla
//! float compression behind a checksummed header.
//!
//! The read path the paper inherits from OpenTSDB decodes one cell per
//! qualifier delta; Facebook's Gorilla showed the same data compresses
//! ~10× and scans an order of magnitude faster when a whole row's points
//! are sealed into one columnar blob. A sealed block stores every point of
//! one row (one series × one row span) as two packed bit streams —
//! timestamps as zigzag delta-of-delta with bucketed bit widths, values as
//! XOR with leading/trailing-zero windows — prefixed by a fixed header:
//!
//! ```text
//! [ magic "PGBK":4 ][ version:1 ][ count:u32 ]
//! [ first_ts:u64 ][ min_ts:u64 ][ max_ts:u64 ][ crc32:u32 ]
//! [ packed timestamp bits … ][ packed value bits … ]
//! ```
//!
//! All integers are big-endian. The CRC covers every byte of the encoded
//! block except the 4 CRC bytes themselves, so any single-byte flip —
//! header or payload — is detected. Decoding never panics: every
//! truncation or corruption maps to a typed [`BlockError`] (this module is
//! inside the pga-analyze panic-path scope).
//!
//! Blocks are *sequence-preserving*: encode→decode returns exactly the
//! input sequence — out-of-order, duplicate timestamps, NaN and -0.0
//! payloads survive bit-for-bit. Ordering/dedup policy belongs to the
//! compactor that builds blocks, not the codec.

use std::fmt;

/// Magic bytes opening every sealed block.
pub const BLOCK_MAGIC: [u8; 4] = *b"PGBK";

/// Current block format version.
pub const BLOCK_VERSION: u8 = 1;

/// Cell qualifier for a sealed-block cell: 3 bytes, so the legacy raw
/// reader (which requires `len == 2`) and the rollup reader (`len == 4`)
/// both skip it, while the block-aware reader recognises it exactly.
pub const BLOCK_QUALIFIER: [u8; 3] = [0xFB, BLOCK_VERSION, 0x00];

/// Hard cap on points per block: one row span at 1 Hz is 3600 points; the
/// cap leaves generous headroom while bounding the allocation a corrupt
/// (but CRC-colliding) count field could request.
pub const MAX_BLOCK_POINTS: usize = 1 << 20;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 8 + 4;

/// Typed decode/encode failure. Every truncation and corruption path of
/// [`decode_block`] returns one of these; none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Buffer shorter than the region being read.
    Truncated {
        /// Bytes required by the structure being decoded.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Header does not start with `PGBK`.
    BadMagic,
    /// Version byte is not one this reader understands.
    UnsupportedVersion(u8),
    /// Stored CRC does not match the recomputed one.
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC recomputed over the buffer.
        computed: u32,
    },
    /// Count field is zero or exceeds [`MAX_BLOCK_POINTS`].
    BadCount(u64),
    /// The packed bit streams ended before `count` entries were decoded.
    BitstreamExhausted,
    /// Encoder rejected the input (empty, mismatched lengths, too large).
    BadInput(&'static str),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Truncated { needed, have } => {
                write!(f, "block truncated: need {needed} bytes, have {have}")
            }
            BlockError::BadMagic => write!(f, "bad block magic"),
            BlockError::UnsupportedVersion(v) => write!(f, "unsupported block version {v}"),
            BlockError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "block crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            BlockError::BadCount(n) => write!(f, "bad block point count {n}"),
            BlockError::BitstreamExhausted => write!(f, "block bitstream exhausted"),
            BlockError::BadInput(why) => write!(f, "bad block encoder input: {why}"),
        }
    }
}

impl std::error::Error for BlockError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven — the one
/// checksum of the workspace: sealed blocks here, and the scrub verifier
/// through [`verify_block`].
fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Continue a CRC-32 across a further buffer: `crc32_extend(crc32(a), b)`
/// is `crc32(a ++ b)`, without concatenating.
fn crc32_extend(prev: u32, bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = build_crc_table();
    let mut crc = !prev;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        let entry = TABLE.get(idx).copied().unwrap_or(0); // idx < 256 by construction
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut rest: &mut [u32] = &mut table;
    let mut i = 0u32;
    while let Some((slot, tail)) = rest.split_first_mut() {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        *slot = c;
        rest = tail;
        i += 1;
    }
    table
}

/// MSB-first bit writer over a growable byte buffer.
struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the final byte of `buf` (0 means byte-aligned).
    used: u8,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            buf: Vec::new(),
            used: 0,
        }
    }

    fn write_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.buf.push(0);
        }
        if bit {
            if let Some(last) = self.buf.last_mut() {
                *last |= 1 << (7 - self.used);
            }
        }
        self.used = (self.used + 1) % 8;
    }

    /// Write the low `n` bits of `v`, MSB first. `n <= 64`.
    fn write_bits(&mut self, v: u64, n: u8) {
        let mut i = n;
        while i > 0 {
            i -= 1;
            self.write_bit((v >> i) & 1 == 1);
        }
    }

    /// Write the low `n` bits of a u128, MSB first. `n <= 128`.
    fn write_bits_wide(&mut self, v: u128, n: u8) {
        let mut i = n;
        while i > 0 {
            i -= 1;
            self.write_bit((v >> i) & 1 == 1);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    fn read_bit(&mut self) -> Result<bool, BlockError> {
        let byte = self
            .buf
            .get(self.pos / 8)
            .ok_or(BlockError::BitstreamExhausted)?;
        let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `n <= 64` bits, MSB first.
    fn read_bits(&mut self, n: u8) -> Result<u64, BlockError> {
        let mut v = 0u64;
        let mut i = 0;
        while i < n {
            v = (v << 1) | self.read_bit()? as u64;
            i += 1;
        }
        Ok(v)
    }

    /// Read `n <= 128` bits, MSB first.
    fn read_bits_wide(&mut self, n: u8) -> Result<u128, BlockError> {
        let mut v = 0u128;
        let mut i = 0;
        while i < n {
            v = (v << 1) | self.read_bit()? as u128;
            i += 1;
        }
        Ok(v)
    }
}

/// Zigzag-encode a signed 128-bit delta-of-delta into an unsigned value.
fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// A decoded sealed block: flat column slices ready for vectorized
/// consumption, plus the header's summary range.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBlock {
    /// Timestamps in encode order (compactors write them ascending, but the
    /// codec preserves whatever sequence it was given).
    pub timestamps: Vec<u64>,
    /// Values, parallel to `timestamps`.
    pub values: Vec<f64>,
    /// Minimum timestamp recorded in the header.
    pub min_ts: u64,
    /// Maximum timestamp recorded in the header.
    pub max_ts: u64,
}

/// Encode `(timestamps, values)` into a sealed block. The two slices must
/// be the same non-zero length, at most [`MAX_BLOCK_POINTS`]. The sequence
/// is preserved exactly — callers wanting canonical blocks sort/dedup
/// first.
pub fn encode_block(timestamps: &[u64], values: &[f64]) -> Result<Vec<u8>, BlockError> {
    if timestamps.is_empty() {
        return Err(BlockError::BadInput("empty block"));
    }
    if timestamps.len() != values.len() {
        return Err(BlockError::BadInput("timestamp/value length mismatch"));
    }
    if timestamps.len() > MAX_BLOCK_POINTS {
        return Err(BlockError::BadCount(timestamps.len() as u64));
    }
    let first_ts = timestamps.first().copied().unwrap_or(0);
    let min_ts = timestamps.iter().copied().min().unwrap_or(0);
    let max_ts = timestamps.iter().copied().max().unwrap_or(0);

    let mut bits = BitWriter::new();

    // --- Timestamp stream: zigzag delta-of-delta with bucketed widths.
    //   '0'                       dod == 0 (regular cadence)
    //   '10'  +  7 bits           |zigzag| < 2^7
    //   '110' + 12 bits           |zigzag| < 2^12
    //   '1110'+ 20 bits           |zigzag| < 2^20
    //   '11110'+32 bits           |zigzag| < 2^32
    //   '11111'+66 bits           escape: raw zigzag (covers full u64 range)
    let mut prev_ts = first_ts;
    let mut prev_delta: i128 = 0;
    for &ts in timestamps.iter().skip(1) {
        let delta = ts as i128 - prev_ts as i128;
        let dod = delta - prev_delta;
        let z = zigzag(dod);
        if z == 0 {
            bits.write_bit(false);
        } else if z < (1 << 7) {
            bits.write_bits(0b10, 2);
            bits.write_bits(z as u64, 7);
        } else if z < (1 << 12) {
            bits.write_bits(0b110, 3);
            bits.write_bits(z as u64, 12);
        } else if z < (1 << 20) {
            bits.write_bits(0b1110, 4);
            bits.write_bits(z as u64, 20);
        } else if z < (1 << 32) {
            bits.write_bits(0b11110, 5);
            bits.write_bits(z as u64, 32);
        } else {
            bits.write_bits(0b11111, 5);
            bits.write_bits_wide(z, 66);
        }
        prev_ts = ts;
        prev_delta = delta;
    }

    // --- Value stream: Gorilla XOR with leading/trailing-zero windows.
    //   first value: raw 64 bits
    //   '0'                       xor == 0 (repeat)
    //   '10' + sig bits           reuse previous window
    //   '11' + 6b leading + 6b (sig_len-1) + sig bits
    let mut prev_bits_v = values.first().copied().unwrap_or(0.0).to_bits();
    bits.write_bits(prev_bits_v, 64);
    let mut prev_leading: u8 = 64;
    let mut prev_sig: u8 = 0;
    for &v in values.iter().skip(1) {
        let vb = v.to_bits();
        let xor = vb ^ prev_bits_v;
        if xor == 0 {
            bits.write_bit(false);
        } else {
            bits.write_bit(true);
            let leading = (xor.leading_zeros() as u8).min(63);
            let trailing = xor.trailing_zeros() as u8;
            let sig = 64 - leading - trailing;
            let prev_trailing = 64u8.saturating_sub(prev_leading).saturating_sub(prev_sig);
            if prev_sig > 0 && leading >= prev_leading && trailing >= prev_trailing {
                // Reuse window: shift out the previous trailing zeros.
                bits.write_bit(false);
                bits.write_bits(xor >> prev_trailing, prev_sig);
            } else {
                bits.write_bit(true);
                bits.write_bits(leading as u64, 6);
                bits.write_bits((sig - 1) as u64, 6);
                bits.write_bits(xor >> trailing, sig);
                prev_leading = leading;
                prev_sig = sig;
            }
        }
        prev_bits_v = vb;
    }

    let payload = bits.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&BLOCK_MAGIC);
    out.push(BLOCK_VERSION);
    out.extend_from_slice(&(timestamps.len() as u32).to_be_bytes());
    out.extend_from_slice(&first_ts.to_be_bytes());
    out.extend_from_slice(&min_ts.to_be_bytes());
    out.extend_from_slice(&max_ts.to_be_bytes());
    // CRC over everything except these 4 bytes: header-so-far + payload.
    let mut crc = crc32(&out);
    crc = crc32_extend(crc, &payload);
    out.extend_from_slice(&crc.to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32, BlockError> {
    let s = buf.get(at..at + 4).ok_or(BlockError::Truncated {
        needed: at + 4,
        have: buf.len(),
    })?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    Ok(u32::from_be_bytes(b))
}

fn read_u64(buf: &[u8], at: usize) -> Result<u64, BlockError> {
    let s = buf.get(at..at + 8).ok_or(BlockError::Truncated {
        needed: at + 8,
        have: buf.len(),
    })?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Ok(u64::from_be_bytes(b))
}

/// Decode a sealed block into flat column slices. Every malformed input —
/// truncated at any prefix, any byte flipped — yields a typed error.
pub fn decode_block(buf: &[u8]) -> Result<DecodedBlock, BlockError> {
    if buf.len() < HEADER_LEN {
        return Err(BlockError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf.get(..4) != Some(&BLOCK_MAGIC[..]) {
        return Err(BlockError::BadMagic);
    }
    let version = buf.get(4).copied().unwrap_or(0);
    if version != BLOCK_VERSION {
        return Err(BlockError::UnsupportedVersion(version));
    }
    let count = read_u32(buf, 5)? as usize;
    let first_ts = read_u64(buf, 9)?;
    let min_ts = read_u64(buf, 17)?;
    let max_ts = read_u64(buf, 25)?;
    let stored_crc = read_u32(buf, 33)?;
    if count == 0 || count > MAX_BLOCK_POINTS {
        return Err(BlockError::BadCount(count as u64));
    }
    let head = buf.get(..33).unwrap_or(&[]);
    let payload = buf.get(HEADER_LEN..).unwrap_or(&[]);
    let computed = crc32_extend(crc32(head), payload);
    if computed != stored_crc {
        return Err(BlockError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }

    let mut r = BitReader::new(payload);

    // Timestamp stream.
    let mut timestamps = Vec::with_capacity(count);
    timestamps.push(first_ts);
    let mut prev_ts = first_ts;
    let mut prev_delta: i128 = 0;
    for _ in 1..count {
        let z = if !r.read_bit()? {
            0u128
        } else if !r.read_bit()? {
            r.read_bits(7)? as u128
        } else if !r.read_bit()? {
            r.read_bits(12)? as u128
        } else if !r.read_bit()? {
            r.read_bits(20)? as u128
        } else if !r.read_bit()? {
            r.read_bits(32)? as u128
        } else {
            r.read_bits_wide(66)?
        };
        let dod = unzigzag(z);
        let delta = prev_delta.wrapping_add(dod);
        let ts_wide = (prev_ts as i128).wrapping_add(delta);
        // Encoders only produce deltas between valid u64 timestamps; a
        // CRC-colliding corruption could still push outside u64, so clamp
        // via wrap rather than panic.
        let ts = ts_wide as u64;
        timestamps.push(ts);
        prev_ts = ts;
        prev_delta = delta;
    }

    // Value stream.
    let mut values = Vec::with_capacity(count);
    let mut prev_bits = r.read_bits(64)?;
    values.push(f64::from_bits(prev_bits));
    let mut leading: u8 = 0;
    let mut sig: u8 = 0;
    for _ in 1..count {
        if !r.read_bit()? {
            values.push(f64::from_bits(prev_bits));
            continue;
        }
        if r.read_bit()? {
            leading = r.read_bits(6)? as u8;
            sig = r.read_bits(6)? as u8 + 1;
        } else if sig == 0 {
            // '10' before any '11' set a window: corrupt stream.
            return Err(BlockError::BitstreamExhausted);
        }
        let trailing = 64u8.saturating_sub(leading).saturating_sub(sig);
        let xor = r.read_bits(sig)? << trailing;
        prev_bits ^= xor;
        values.push(f64::from_bits(prev_bits));
    }

    Ok(DecodedBlock {
        timestamps,
        values,
        min_ts,
        max_ts,
    })
}

/// Peek at a block header without decoding the payload: returns
/// `(count, min_ts, max_ts)`. The CRC is *not* verified — use for scan
/// pruning only, never to answer queries.
pub fn peek_header(buf: &[u8]) -> Result<(usize, u64, u64), BlockError> {
    if buf.len() < HEADER_LEN {
        return Err(BlockError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf.get(..4) != Some(&BLOCK_MAGIC[..]) {
        return Err(BlockError::BadMagic);
    }
    let version = buf.get(4).copied().unwrap_or(0);
    if version != BLOCK_VERSION {
        return Err(BlockError::UnsupportedVersion(version));
    }
    let count = read_u32(buf, 5)? as usize;
    let min_ts = read_u64(buf, 17)?;
    let max_ts = read_u64(buf, 25)?;
    Ok((count, min_ts, max_ts))
}

/// Verify a block buffer's integrity — header shape plus whole-buffer
/// CRC — without decoding the payload. The cheap authoritative check
/// behind scan pruning ([`peek_header`] alone is advisory) and scrub
/// passes: `Ok(())` means every header field, including the min/max
/// timestamp bounds, is trustworthy.
pub fn verify_block(buf: &[u8]) -> Result<(), BlockError> {
    if buf.len() < HEADER_LEN {
        return Err(BlockError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf.get(..4) != Some(&BLOCK_MAGIC[..]) {
        return Err(BlockError::BadMagic);
    }
    let version = buf.get(4).copied().unwrap_or(0);
    if version != BLOCK_VERSION {
        return Err(BlockError::UnsupportedVersion(version));
    }
    let count = read_u32(buf, 5)? as usize;
    if count == 0 || count > MAX_BLOCK_POINTS {
        return Err(BlockError::BadCount(count as u64));
    }
    let stored_crc = read_u32(buf, 33)?;
    let head = buf.get(..33).unwrap_or(&[]);
    let payload = buf.get(HEADER_LEN..).unwrap_or(&[]);
    let computed = crc32_extend(crc32(head), payload);
    if computed != stored_crc {
        return Err(BlockError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok(())
}

/// True if `qualifier` marks a sealed-block cell.
pub fn is_block_qualifier(qualifier: &[u8]) -> bool {
    qualifier.len() == 3 && qualifier.first() == Some(&0xFB)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ts: &[u64], vs: &[f64]) {
        let enc = encode_block(ts, vs).expect("encode");
        let dec = decode_block(&enc).expect("decode");
        assert_eq!(dec.timestamps, ts);
        assert_eq!(dec.values.len(), vs.len());
        for (a, b) in dec.values.iter().zip(vs.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "values must be bit-identical");
        }
        assert_eq!(dec.min_ts, ts.iter().copied().min().unwrap());
        assert_eq!(dec.max_ts, ts.iter().copied().max().unwrap());
    }

    #[test]
    fn roundtrip_regular_cadence() {
        let ts: Vec<u64> = (0..3600).map(|i| 1_600_000_000 + i).collect();
        let vs: Vec<f64> = (0..3600).map(|i| (i as f64).sin() * 100.0).collect();
        roundtrip(&ts, &vs);
    }

    #[test]
    fn roundtrip_single_point() {
        roundtrip(&[42], &[3.125]);
    }

    #[test]
    fn roundtrip_adversarial_payloads() {
        let ts = [0, u64::MAX, 5, 5, 1_000_000, 3];
        let vs = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
        ];
        roundtrip(&ts, &vs);
    }

    #[test]
    fn compresses_regular_series() {
        let ts: Vec<u64> = (0..3600).map(|i| 1_600_000_000 + i).collect();
        let vs: Vec<f64> = vec![21.5; 3600];
        let enc = encode_block(&ts, &vs).unwrap();
        // Raw cells cost 10 bytes each (2 qual + 8 value); constant series
        // at fixed cadence should compress far below that.
        assert!(
            enc.len() < 3600 * 2,
            "expected strong compression, got {} bytes for 3600 points",
            enc.len()
        );
    }

    #[test]
    fn empty_and_mismatched_inputs_rejected() {
        assert!(matches!(
            encode_block(&[], &[]),
            Err(BlockError::BadInput(_))
        ));
        assert!(matches!(
            encode_block(&[1], &[]),
            Err(BlockError::BadInput(_))
        ));
    }

    #[test]
    fn every_prefix_truncation_is_typed_error() {
        let ts: Vec<u64> = (0..64).map(|i| 100 + i * 7).collect();
        let vs: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
        let enc = encode_block(&ts, &vs).unwrap();
        for cut in 0..enc.len() {
            let res = decode_block(&enc[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let ts: Vec<u64> = (0..64).map(|i| 100 + i * 7).collect();
        let vs: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
        let enc = encode_block(&ts, &vs).unwrap();
        for i in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[i] ^= 1 << bit;
                let res = decode_block(&bad);
                assert!(
                    res.is_err(),
                    "flip of byte {i} bit {bit} must not decode clean"
                );
            }
        }
    }

    #[test]
    fn peek_matches_decode() {
        let ts = [10, 20, 30];
        let vs = [1.0, 2.0, 3.0];
        let enc = encode_block(&ts, &vs).unwrap();
        let (count, min, max) = peek_header(&enc).unwrap();
        assert_eq!((count, min, max), (3, 10, 30));
    }

    #[test]
    fn crc32_matches_ieee_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Split anywhere, the continued CRC is the whole buffer's.
        for cut in 0..=9 {
            let (a, b) = b"123456789".split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), 0xCBF4_3926, "cut at {cut}");
        }
    }

    /// The sealed-block format, byte for byte, CRC word included: a
    /// change to the codec or the checksum that moves any stored byte
    /// fails here.
    #[test]
    fn sealed_block_bytes_are_pinned() {
        const PINNED: &str = "5047424b0100000010000000005f5e1000000000005f5e10\
                              00000000005f5e1e7ea05e67ae8a10281c0a271e424700de\
                              8700de7a01ac000000000003440e707ec03e00ff03effb09\
                              9999999999b00380000000000008006aaaaaaaaaaabcfdfb\
                              6f666666666ac12e8480000000014000000000000000900c\
                              400000000000400030000000000020000c00000000001000\
                              03000000000000";
        let base = 1_600_000_000u64;
        let ts: Vec<u64> = [
            0, 10, 20, 30, 41, 50, 60, 60, 75, 90, 100, 110, 120, 130, 3700, 3710,
        ]
        .iter()
        .map(|d| base + d)
        .collect();
        let vs = [
            21.5,
            21.5,
            21.75,
            22.0,
            22.0,
            -3.125,
            0.1,
            0.2,
            0.30000000000000004,
            1.0e6,
            -0.0,
            0.0,
            17.0,
            16.5,
            16.25,
            16.125,
        ];
        let enc = encode_block(&ts, &vs).unwrap();
        let hex: String = enc.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
        assert_eq!(read_u32(&enc, 33).unwrap(), 0xa05e_67ae, "the CRC word");
    }

    #[test]
    fn qualifier_shape() {
        assert!(is_block_qualifier(&BLOCK_QUALIFIER));
        assert!(!is_block_qualifier(&[0x00, 0x01]));
        assert!(!is_block_qualifier(&[0x00, 0x01, 0x02, 0x03]));
    }
}
