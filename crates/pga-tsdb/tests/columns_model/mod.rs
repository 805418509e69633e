//! The block-aware read assembly as it was before the series-keyed
//! `Assembler`, kept as the differential baseline for stores that sealed
//! blocks: cells grouped row by row, each row's tags decoded to strings
//! (`KeyCodec::decode_row`) and tested against the filter as a map, raw
//! cells and decoded blocks merged per row (newest version per qualifier,
//! raw beats a block at an equal timestamp), columns keyed by the tag
//! strings, then sorted and deduplicated per series. Corrupt blocks are
//! an error here; salvage is not modelled. Shared by path with
//! `pga-query/tests/fold_model.rs`.

use std::collections::BTreeMap;

use pga_minibase::KeyValue;
use pga_tsdb::{block, BlockError, DataPoint, KeyCodec, QueryFilter, TimeSeries};

/// Columns under assembly: codec-order tag pairs → (timestamps, values).
pub type AssembledColumns = BTreeMap<Vec<(String, String)>, (Vec<u64>, Vec<f64>)>;

/// Assemble `cells` (storage scan order) inside `[start, end]` into `out`.
pub fn assemble_columns<'a>(
    codec: &KeyCodec,
    cells: impl IntoIterator<Item = &'a KeyValue>,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
) -> Result<(), BlockError> {
    let mut group: Vec<&KeyValue> = Vec::new();
    for kv in cells {
        if group.first().is_some_and(|first| first.row != kv.row) {
            assemble_row(codec, &group, filter, start, end, out)?;
            group.clear();
        }
        group.push(kv);
    }
    assemble_row(codec, &group, filter, start, end, out)
}

fn assemble_row(
    codec: &KeyCodec,
    group: &[&KeyValue],
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
) -> Result<(), BlockError> {
    let Some(&first) = group.first() else {
        return Ok(());
    };
    let Some((_metric, tags, base)) = codec.decode_row(&first.row) else {
        return Ok(());
    };
    let tag_map: BTreeMap<String, String> = tags.iter().cloned().collect();
    if !filter.matches(&tag_map) {
        return Ok(());
    }
    let mut raw: Vec<(u64, f64)> = Vec::new();
    let mut blocks: Vec<&KeyValue> = Vec::new();
    let mut last_qual: Option<&[u8]> = None;
    for &cell in group {
        if last_qual == Some(&cell.qualifier[..]) {
            continue;
        }
        last_qual = Some(&cell.qualifier[..]);
        if block::is_block_qualifier(&cell.qualifier) {
            blocks.push(cell);
        } else if cell.qualifier.len() == 2 && cell.qualifier[..] != [0xFF, 0xFF] {
            let offset = u16::from_be_bytes([cell.qualifier[0], cell.qualifier[1]]) as u64;
            if cell.value.len() != 8 {
                continue;
            }
            let mut v8 = [0u8; 8];
            v8.copy_from_slice(&cell.value);
            raw.push((base + offset, f64::from_be_bytes(v8)));
        }
    }
    let row_span = codec.config().row_span_secs;
    let mut block_points: Vec<(u64, f64)> = Vec::new();
    for cell in &blocks {
        if base > end || base.saturating_add(row_span) <= start {
            continue;
        }
        if let Ok((_, min_ts, max_ts)) = block::peek_header(&cell.value) {
            if (max_ts < start || min_ts > end) && block::verify_block(&cell.value).is_ok() {
                continue;
            }
        }
        let decoded = block::decode_block(&cell.value)?;
        let points = decoded
            .timestamps
            .iter()
            .copied()
            .zip(decoded.values.iter().copied());
        if block_points.is_empty() {
            block_points = points.collect();
        } else {
            block_points.extend(points);
            block_points.sort_by_key(|&(ts, _)| ts);
            block_points.dedup_by_key(|&mut (ts, _)| ts);
        }
    }
    let mut merged: Vec<(u64, f64)> = Vec::with_capacity(raw.len() + block_points.len());
    let mut ri = raw.iter().peekable();
    let mut bi = block_points.iter().peekable();
    loop {
        match (ri.peek(), bi.peek()) {
            (Some(&&(rts, rv)), Some(&&(bts, _))) if rts <= bts => {
                if rts == bts {
                    bi.next();
                }
                merged.push((rts, rv));
                ri.next();
            }
            (_, Some(&&(bts, bv))) => {
                merged.push((bts, bv));
                bi.next();
            }
            (Some(&&(rts, rv)), None) => {
                merged.push((rts, rv));
                ri.next();
            }
            (None, None) => break,
        }
    }
    merged.retain(|&(ts, _)| ts >= start && ts <= end);
    if merged.is_empty() {
        return Ok(());
    }
    let (timestamps, values) = out.entry(tags).or_default();
    for (ts, v) in merged {
        timestamps.push(ts);
        values.push(v);
    }
    Ok(())
}

/// Sort one series' columns by timestamp, keeping the first point of a
/// duplicate timestamp in pre-sort order.
pub fn canonicalize_columns(timestamps: Vec<u64>, values: Vec<f64>) -> (Vec<u64>, Vec<f64>) {
    let mut idx: Vec<usize> = (0..timestamps.len()).collect();
    idx.sort_by_key(|&i| (timestamps[i], i));
    idx.dedup_by_key(|i| timestamps[*i]);
    (
        idx.iter().map(|&i| timestamps[i]).collect(),
        idx.iter().map(|&i| values[i]).collect(),
    )
}

/// The answer `Tsd::query` gave: one series per tag combination, in
/// tag order, each with at least one point.
#[allow(dead_code)]
pub fn finish(metric: &str, assembled: AssembledColumns) -> Vec<TimeSeries> {
    assembled
        .into_iter()
        .map(|(tags, (timestamps, values))| {
            let (timestamps, values) = canonicalize_columns(timestamps, values);
            TimeSeries {
                metric: metric.to_string(),
                tags: tags.into_iter().collect(),
                points: timestamps
                    .into_iter()
                    .zip(values)
                    .map(|(timestamp, value)| DataPoint { timestamp, value })
                    .collect(),
            }
        })
        .collect()
}
