//! The pre-block cell-by-cell read path that used to be
//! `Tsd::query_legacy`, kept as the differential baseline: byte-for-byte
//! equal to `Tsd::query` on any store that never sealed. Used here by the
//! property tests and, by path, as E21's "before" arm
//! (`pga-bench/src/blocks.rs`). Sealed blocks are invisible to it (their
//! 3-byte qualifier is skipped like any non-raw column), so it only answers
//! completely on stores that never sealed — exactly the legacy deployments
//! it represents.

use std::collections::BTreeMap;

use pga_minibase::RowRange;
use pga_tsdb::{DataPoint, QueryFilter, TimeSeries, Tsd, TsdError};

/// Every point of `metric` in `[start, end]` matching `filter`, one cell
/// and one full tag decode at a time.
pub fn query_legacy(
    tsd: &Tsd,
    metric: &str,
    filter: &QueryFilter,
    start: u64,
    end: u64,
) -> Result<Vec<TimeSeries>, TsdError> {
    let codec = tsd.codec();
    let mut series: BTreeMap<Vec<(String, String)>, Vec<DataPoint>> = BTreeMap::new();
    for salt in codec.salt_range() {
        let (s, e) = codec.scan_range(salt, metric, start, end);
        if s.is_empty() && e.is_empty() {
            continue; // unknown metric
        }
        for cell in tsd.client().scan(&RowRange::new(s, e))? {
            if cell.qualifier.len() != 2 || cell.qualifier[..] == [0xFF, 0xFF] {
                continue; // compacted blob column: raw cells carry the data
            }
            if let Some(p) = codec.decode(&cell.row, &cell.qualifier, &cell.value) {
                if p.timestamp < start || p.timestamp > end {
                    continue;
                }
                let tag_map: BTreeMap<String, String> = p.tags.iter().cloned().collect();
                if !filter.matches(&tag_map) {
                    continue;
                }
                series.entry(p.tags.clone()).or_default().push(DataPoint {
                    timestamp: p.timestamp,
                    value: p.value,
                });
            }
        }
    }
    Ok(series
        .into_iter()
        .map(|(tags, mut points)| {
            points.sort_by_key(|p| p.timestamp);
            points.dedup_by_key(|p| p.timestamp);
            TimeSeries {
                metric: metric.to_string(),
                tags: tags.into_iter().collect(),
                points,
            }
        })
        .collect())
}
