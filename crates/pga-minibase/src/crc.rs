//! The workspace's one checksum, CRC-32 (IEEE 802.3): over WAL records
//! here and over `pga-tsdb`'s sealed blocks.

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Continue a CRC-32 across a further buffer: `crc32_extend(crc32(a), b)`
/// is `crc32(a ++ b)`, without concatenating.
pub fn crc32_extend(prev: u32, bytes: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
