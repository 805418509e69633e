//! Disk persistence for store files — the HDFS stand-in of Figure 1.
//!
//! Flushed store files can be spilled to a per-region directory in a small
//! binary format and loaded back after a process restart. Combined with
//! the WAL this gives the same durability contract as the paper's
//! HBase-on-HDFS deployment: memstores die with the process, store files
//! and the log survive.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "PGSF" | version u8 | sequence u64 | cell_count u64
//! repeat cell_count times:
//!   row_len u16 | row | qual_len u16 | qual | timestamp u64 | val_len u32 | value
//! footer: v1 = xor-fold checksum u64, v2 = CRC-32 u32
//! ```
//!
//! Version 2 replaced the v1 xor-fold footer with CRC-32 (IEEE),
//! matching the sealed-block codec's integrity bar. New files are always
//! written v2; v1 files remain readable so existing stores load.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::kv::KeyValue;
use crate::storefile::StoreFile;

const MAGIC: &[u8; 4] = b"PGSF";
/// Legacy format: xor-fold u64 footer.
const VERSION_XORFOLD: u8 = 1;
/// Current format: CRC-32 u32 footer.
const VERSION: u8 = 2;

/// Errors from store-file persistence.
#[derive(Debug)]
pub enum DiskStoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid store file (bad magic/version/length).
    Corrupt(String),
}

impl std::fmt::Display for DiskStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskStoreError::Io(e) => write!(f, "store file io error: {e}"),
            DiskStoreError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
        }
    }
}

impl std::error::Error for DiskStoreError {}

impl From<std::io::Error> for DiskStoreError {
    fn from(e: std::io::Error) -> Self {
        DiskStoreError::Io(e)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    // v1 footer: xor-fold with a multiplier. Weaker than CRC (no burst
    // guarantees); kept only to read legacy files.
    let mut acc = 0xcbf29ce484222325u64;
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x100000001b3);
    }
    acc
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven — the one
/// checksum of the workspace: store files here, sealed blocks in
/// `pga-tsdb`.
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
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Serialise a store file's cells to `path` (atomic: temp + rename).
pub fn write_store_file(
    path: &Path,
    sequence: u64,
    cells: &[KeyValue],
) -> Result<(), DiskStoreError> {
    let mut payload = Vec::with_capacity(64 + cells.len() * 32);
    payload.extend_from_slice(MAGIC);
    payload.push(VERSION);
    payload.extend_from_slice(&sequence.to_le_bytes());
    payload.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    for kv in cells {
        if kv.row.len() > u16::MAX as usize || kv.qualifier.len() > u16::MAX as usize {
            return Err(DiskStoreError::Corrupt("key component too long".into()));
        }
        payload.extend_from_slice(&(kv.row.len() as u16).to_le_bytes());
        payload.extend_from_slice(&kv.row);
        payload.extend_from_slice(&(kv.qualifier.len() as u16).to_le_bytes());
        payload.extend_from_slice(&kv.qualifier);
        payload.extend_from_slice(&kv.timestamp.to_le_bytes());
        payload.extend_from_slice(&(kv.value.len() as u32).to_le_bytes());
        payload.extend_from_slice(&kv.value);
    }
    let sum = crc32(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&payload)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load a store file written by [`write_store_file`]. Returns the
/// `(sequence, cells)` pair; cells come back in their original (sorted)
/// order.
pub fn read_store_file(path: &Path) -> Result<(u64, Vec<KeyValue>), DiskStoreError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 1 + 8 + 8 + 4 {
        return Err(DiskStoreError::Corrupt("file too short".into()));
    }
    // The footer width depends on the version byte, so sniff the header
    // before verifying: v1 carries an xor-fold u64, v2 a CRC-32 u32.
    if bytes.get(..4) != Some(&MAGIC[..]) {
        return Err(DiskStoreError::Corrupt("bad magic".into()));
    }
    let payload = match bytes.get(4).copied() {
        Some(VERSION_XORFOLD) => {
            if bytes.len() < MAGIC.len() + 1 + 8 + 8 + 8 {
                return Err(DiskStoreError::Corrupt("file too short".into()));
            }
            let (payload, footer) = bytes.split_at(bytes.len() - 8);
            let stored_sum = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
            if checksum(payload) != stored_sum {
                return Err(DiskStoreError::Corrupt("checksum mismatch".into()));
            }
            payload
        }
        Some(VERSION) => {
            let (payload, footer) = bytes.split_at(bytes.len() - 4);
            let stored_sum = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
            if crc32(payload) != stored_sum {
                return Err(DiskStoreError::Corrupt("crc32 mismatch".into()));
            }
            payload
        }
        v => return Err(DiskStoreError::Corrupt(format!("unknown version {v:?}"))),
    };
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], DiskStoreError> {
        if *cursor + n > payload.len() {
            return Err(DiskStoreError::Corrupt("unexpected end of file".into()));
        }
        let s = &payload[*cursor..*cursor + n];
        *cursor += n;
        Ok(s)
    };
    if take(&mut cursor, 4)? != MAGIC {
        return Err(DiskStoreError::Corrupt("bad magic".into()));
    }
    let version = take(&mut cursor, 1)?[0];
    if version != VERSION && version != VERSION_XORFOLD {
        return Err(DiskStoreError::Corrupt(format!(
            "unknown version {version}"
        )));
    }
    let sequence = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().unwrap());
    let count = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().unwrap()) as usize;
    let mut cells = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let row_len = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().unwrap()) as usize;
        let row = Bytes::copy_from_slice(take(&mut cursor, row_len)?);
        let qual_len = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().unwrap()) as usize;
        let qualifier = Bytes::copy_from_slice(take(&mut cursor, qual_len)?);
        let timestamp = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().unwrap());
        let val_len = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().unwrap()) as usize;
        let value = Bytes::copy_from_slice(take(&mut cursor, val_len)?);
        cells.push(KeyValue {
            row,
            qualifier,
            timestamp,
            value,
        });
    }
    if cursor != payload.len() {
        return Err(DiskStoreError::Corrupt("trailing bytes".into()));
    }
    Ok((sequence, cells))
}

/// Persist every store file of a region snapshot into `dir`, removing
/// stale `.psf` files that are no longer part of the region (obsoleted by
/// compaction).
pub fn persist_store_files(dir: &Path, files: &[StoreFile]) -> Result<(), DiskStoreError> {
    std::fs::create_dir_all(dir)?;
    let live: std::collections::HashSet<String> = files
        .iter()
        .map(|f| format!("sf-{:08}.psf", f.sequence()))
        .collect();
    for f in files {
        let name = format!("sf-{:08}.psf", f.sequence());
        let path = dir.join(&name);
        if !path.exists() {
            let cells: Vec<KeyValue> = f.scan(&crate::kv::RowRange::all()).cloned().collect();
            write_store_file(&path, f.sequence(), &cells)?;
        }
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".psf") && !live.contains(&name) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Load every persisted store file in `dir`, ordered by sequence.
pub fn load_store_files(dir: &Path) -> Result<Vec<StoreFile>, DiskStoreError> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "psf") {
                    let (seq, _) = read_store_file(&path)?;
                    found.push((seq, path));
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    found.sort_by_key(|(seq, _)| *seq);
    let mut out = Vec::with_capacity(found.len());
    for (seq, path) in found {
        let (_, cells) = read_store_file(&path)?;
        out.push(StoreFile::from_sorted(cells, seq));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::RowRange;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pga-diskstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cells(n: usize) -> Vec<KeyValue> {
        let mut v: Vec<KeyValue> = (0..n)
            .map(|i| {
                KeyValue::new(
                    format!("row{i:04}").into_bytes(),
                    format!("q{}", i % 3).into_bytes(),
                    i as u64,
                    vec![i as u8; i % 7],
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("sf-1.psf");
        let data = cells(100);
        write_store_file(&path, 42, &data).unwrap();
        let (seq, back) = read_store_file(&path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, data);
    }

    #[test]
    fn empty_file_roundtrips() {
        let dir = temp_dir("empty");
        let path = dir.join("sf-0.psf");
        write_store_file(&path, 1, &[]).unwrap();
        let (seq, back) = read_store_file(&path).unwrap();
        assert_eq!(seq, 1);
        assert!(back.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let path = dir.join("sf-1.psf");
        write_store_file(&path, 7, &cells(20)).unwrap();
        // Flip one byte in the middle.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_store_file(&path),
            Err(DiskStoreError::Corrupt(_))
        ));
        // Truncation too.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_store_file(&path).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = temp_dir("magic");
        let path = dir.join("sf-1.psf");
        std::fs::write(&path, b"NOTASTOREFILE-PADDING-PADDING").unwrap();
        assert!(matches!(
            read_store_file(&path),
            Err(DiskStoreError::Corrupt(_))
        ));
    }

    #[test]
    fn persist_and_load_store_file_set() {
        let dir = temp_dir("set");
        let f1 = StoreFile::from_sorted(cells(10), 1);
        let f2 = StoreFile::from_sorted(cells(5), 2);
        persist_store_files(&dir, &[f1.clone(), f2.clone()]).unwrap();
        let loaded = load_store_files(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].sequence(), 1);
        assert_eq!(loaded[1].sequence(), 2);
        assert_eq!(loaded[0].len(), 10);
        // Compaction replaces both with one merged file: stale ones vanish.
        let merged = StoreFile::from_sorted(cells(12), 3);
        persist_store_files(&dir, &[merged]).unwrap();
        let reloaded = load_store_files(&dir).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded[0].sequence(), 3);
    }

    /// Write a file in the legacy v1 layout (xor-fold u64 footer) the way
    /// pre-upgrade builds did.
    fn write_v1_file(path: &Path, sequence: u64, cells: &[KeyValue]) {
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.push(VERSION_XORFOLD);
        payload.extend_from_slice(&sequence.to_le_bytes());
        payload.extend_from_slice(&(cells.len() as u64).to_le_bytes());
        for kv in cells {
            payload.extend_from_slice(&(kv.row.len() as u16).to_le_bytes());
            payload.extend_from_slice(&kv.row);
            payload.extend_from_slice(&(kv.qualifier.len() as u16).to_le_bytes());
            payload.extend_from_slice(&kv.qualifier);
            payload.extend_from_slice(&kv.timestamp.to_le_bytes());
            payload.extend_from_slice(&(kv.value.len() as u32).to_le_bytes());
            payload.extend_from_slice(&kv.value);
        }
        let sum = checksum(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(path, payload).unwrap();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let dir = temp_dir("v1-compat");
        let path = dir.join("sf-1.psf");
        let data = cells(30);
        write_v1_file(&path, 13, &data);
        let (seq, back) = read_store_file(&path).unwrap();
        assert_eq!(seq, 13);
        assert_eq!(back, data);
        // And a flipped byte in a v1 file is still caught by its footer.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_store_file(&path),
            Err(DiskStoreError::Corrupt(_))
        ));
    }

    #[test]
    fn new_files_are_v2_crc32() {
        let dir = temp_dir("v2");
        let path = dir.join("sf-1.psf");
        write_store_file(&path, 5, &cells(8)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], VERSION);
        let (payload, footer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(
            u32::from_le_bytes(footer.try_into().unwrap()),
            crc32(payload)
        );
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

    #[test]
    fn loading_missing_dir_is_empty() {
        let dir = temp_dir("missing").join("nested-not-created");
        assert!(load_store_files(&dir).unwrap().is_empty());
    }

    #[test]
    fn loaded_files_scan_identically() {
        let dir = temp_dir("scan");
        let data = cells(200);
        let f = StoreFile::from_sorted(data.clone(), 9);
        persist_store_files(&dir, std::slice::from_ref(&f)).unwrap();
        let loaded = load_store_files(&dir).unwrap();
        let a: Vec<_> = f.scan(&RowRange::all()).cloned().collect();
        let b: Vec<_> = loaded[0].scan(&RowRange::all()).cloned().collect();
        assert_eq!(a, b);
        // Range scans agree too.
        let r = RowRange::new(b"row0050".to_vec(), b"row0060".to_vec());
        let a: Vec<_> = f.scan(&r).cloned().collect();
        let b: Vec<_> = loaded[0].scan(&r).cloned().collect();
        assert_eq!(a, b);
    }
}
