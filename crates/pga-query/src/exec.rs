//! Scatter-gather execution across salt shards, with per-shard deadlines,
//! typed partial results, and rollup/raw splicing.
//!
//! A query sends every segment scan of every salt shard to the region
//! servers — never waiting for queue space, under one absolute deadline —
//! before it waits on any, then collects the replies in salt order. The
//! region servers are threads of their own, so the shards are served in
//! parallel and nothing is spawned per query. A shard refused at a full
//! queue (`Busy`), timed out, or failed does **not** sink the query — its
//! error is reported in a [`PartialInfo`] alongside whatever the healthy
//! shards returned.
//!
//! ## Tag pushdown
//!
//! Every scan carries the query's tag filter as row-key words
//! ([`KeyCodec::row_words`]), so a region server skips the rows of other
//! series before it copies a cell. The words accept every row of a
//! matching series, and assembly still applies the filter itself, so
//! they only ever remove rows the answer would have dropped.
//!
//! ## Splicing
//!
//! A rollup plan serves only downsample windows that are (a) entirely
//! inside the requested range and (b) older than the *tail horizon* — the
//! last few tier buckets before `end`, which may still sit unsealed in
//! writers. The head (a partial leading window) and the tail are patched
//! from raw data; window edges are epoch-aligned on both sides, so the
//! three regions never overlap and never split a window.
//!
//! ## Rollup fold
//!
//! The rollup cells are folded in one pass in the order the scans return
//! them ([`fold_buckets`]): each bucket's cells merge as they come, and
//! each merged bucket, then each raw patch point, is added to its series'
//! window in window order.

use std::collections::HashMap;
use std::sync::Arc;

use pga_cluster::rpc::ClockMs;
use pga_minibase::{Client, ClientError, PendingScan, RowWords, ScanCells};
use pga_repl::HedgePolicy;
use pga_tsdb::{
    Aggregator, Assembler, DataPoint, KeyCodec, PartialInfo, QueryFilter, Series, SeriesPoints,
    ShardError, TimeSeries,
};

use crate::plan::{self, Plan};
use crate::rollup::{fold_buckets, tier_metric, MergedBucket};

/// Executor tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Rollup tier widths available to the planner, ascending seconds.
    pub tiers: Vec<u64>,
    /// Per-shard scan deadline in milliseconds (absolute deadline =
    /// clock() + this at query start).
    pub shard_deadline_ms: u64,
    /// Downsample windows intersecting the last `tail_buckets * tier`
    /// seconds before `end` are served raw: those buckets may still be
    /// open in writers.
    pub tail_buckets: u64,
    /// When set, shard scans hedge to a follower replica after the
    /// primary has been slow (or shedding) for `delay_ms` — set near the
    /// fleet's scan p99. `None` keeps the single-copy scan path.
    pub hedge: Option<HedgePolicy>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            tiers: vec![60, 600],
            shard_deadline_ms: 250,
            tail_buckets: 2,
            hedge: None,
        }
    }
}

/// What one execution produced.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Assembled series, sorted by tags.
    pub series: Vec<TimeSeries>,
    /// Shard failures, if any.
    pub partial: Option<PartialInfo>,
    /// The plan that actually ran (a rollup plan degenerates to [`Plan::Raw`]
    /// when the range is too short or the tier has no data yet).
    pub plan: Plan,
    /// Scans fanned out (shards × regions weighting excluded; one unit per
    /// salt bucket, however many segment scans the shard issued).
    pub fanout: u32,
    /// Cells the region servers returned to this execution: every segment
    /// of every shard, raw and rollup scans alike. Against
    /// [`ExecResult::points_served`] it is the read amplification, and it
    /// repeats exactly for one store and query on any machine.
    pub cells_scanned: u64,
}

impl ExecResult {
    /// Points in the answer.
    pub fn points_served(&self) -> u64 {
        self.series.iter().map(|s| s.points.len() as u64).sum()
    }
}

/// Classify a storage error the way the API layer does.
fn shard_error(salt: u8, e: &ClientError) -> ShardError {
    let (kind, retry) = match e {
        ClientError::Busy { retry_after_ms } => ("busy", Some(*retry_after_ms)),
        ClientError::DeadlineExpired => ("deadline_expired", None),
        _ => ("storage", None),
    };
    ShardError {
        shard: salt,
        kind: kind.to_string(),
        retry_after_ms: retry,
    }
}

/// Run one query. See the module docs for the execution shape.
///
/// `end` is clamped to the last timestamp a row key can hold, where
/// writes stop too; a range that starts past it, or a filter naming a tag
/// the UID table has never seen, is answered empty without a scan.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    client: &Client,
    codec: &KeyCodec,
    cfg: &ExecConfig,
    clock: &ClockMs,
    metric: &str,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    downsample: Option<(u64, Aggregator)>,
) -> ExecResult {
    let end = end.min(codec.max_timestamp());
    let words = match codec.row_words(filter) {
        Some(words) if start <= end => words,
        _ => {
            return ExecResult {
                series: Vec::new(),
                partial: None,
                plan: Plan::Raw,
                fanout: 0,
                cells_scanned: 0,
            }
        }
    };
    let mut plan = plan::choose(&cfg.tiers, downsample.map(|(d, _)| d));
    let mut splice = None;
    if let Plan::Rollup { tier } = plan {
        let (d, _) = downsample.expect("rollup plan implies downsample");
        match splice_bounds(codec, metric, tier, d, cfg.tail_buckets, start, end) {
            Some(b) => splice = Some(b),
            None => plan = Plan::Raw,
        }
    }
    match (plan, splice) {
        (Plan::Rollup { tier }, Some((ru_lo, ru_hi))) => execute_rollup(
            client, codec, cfg, clock, metric, filter, &words, start, end, downsample, tier, ru_lo,
            ru_hi,
        ),
        _ => execute_raw(
            client, codec, cfg, clock, metric, filter, &words, start, end, downsample,
        ),
    }
}

/// Rollup-served window bounds `[ru_lo, ru_hi)`, or `None` when the plan
/// is not viable (no rollup data interned yet, or the range too short to
/// contain a full window outside the tail horizon).
fn splice_bounds(
    codec: &KeyCodec,
    metric: &str,
    tier: u64,
    d: u64,
    tail_buckets: u64,
    start: u64,
    end: u64,
) -> Option<(u64, u64)> {
    use pga_tsdb::uid::UidKind;
    codec
        .uids()
        .lookup(UidKind::Metric, &tier_metric(tier, metric))?;
    let ru_lo = start.div_ceil(d) * d;
    let cutoff = (end + 1).saturating_sub(tail_buckets * tier);
    let ru_hi = cutoff - cutoff % d;
    (ru_lo < ru_hi).then_some((ru_lo, ru_hi))
}

/// Send the scans of `[start, end]` of `metric` on one salt, without
/// waiting for queue space: one scan per segment of
/// [`KeyCodec::scan_segments`], each carrying the tag filter's row-key
/// `words`, so the region servers return only the cells inside the range
/// of the rows the filter can accept; every segment runs under the same
/// deadline. Nothing is sent for a metric the UID table has never seen.
/// With a hedge trigger, a primary that is slow or shedding past the
/// trigger fails the segment over to a follower replica under the full
/// deadline.
#[allow(clippy::too_many_arguments)]
fn send_salt<'c>(
    client: &'c Client,
    codec: &KeyCodec,
    salt: u8,
    metric: &str,
    words: &RowWords,
    start: u64,
    end: u64,
    deadline: u64,
    hedge_trigger: Option<u64>,
) -> Vec<PendingScan<'c>> {
    codec
        .scan_segments(salt, metric, start, end)
        .into_iter()
        .map(|segment| {
            let segment = segment.with_words(words.clone());
            match hedge_trigger {
                Some(primary_deadline) => {
                    client.send_scan_hedged(&segment, Some(primary_deadline), Some(deadline))
                }
                None => client.send_scan_admitted(&segment, Some(deadline)),
            }
        })
        .collect()
}

/// Wait on `scans` in the order they were sent: their cells, in storage
/// scan order, as the shared runs the region servers returned. The first
/// failure is the error and abandons the scans after it.
fn wait_all(scans: Vec<PendingScan<'_>>) -> Result<ScanCells, ClientError> {
    let mut cells = ScanCells::default();
    for scan in scans {
        cells.append(scan.wait()?);
    }
    Ok(cells)
}

/// Send the scans of `[start, end]` of `metric` on every salt, then wait
/// on them salt by salt: the cells of the shards that answered, in
/// storage scan order, and an error per shard that did not.
#[allow(clippy::too_many_arguments)]
fn scatter(
    client: &Client,
    codec: &KeyCodec,
    metric: &str,
    words: &RowWords,
    start: u64,
    end: u64,
    deadline: u64,
    hedge: Option<u64>,
    errors: &mut Vec<ShardError>,
) -> ScanCells {
    let sent: Vec<_> = codec
        .salt_range()
        .map(|salt| {
            let scans = send_salt(
                client, codec, salt, metric, words, start, end, deadline, hedge,
            );
            (salt, scans)
        })
        .collect();
    let mut cells = ScanCells::default();
    for (salt, scans) in sent {
        match wait_all(scans) {
            Ok(shard) => cells.append(shard),
            Err(e) => errors.push(shard_error(salt, &e)),
        }
    }
    cells
}

/// Absolute primary-scan deadline acting as the hedge trigger: the hedge
/// delay, capped at the shard deadline itself.
fn hedge_trigger(cfg: &ExecConfig, now: u64) -> Option<u64> {
    cfg.hedge
        .map(|h| now + h.delay_ms.min(cfg.shard_deadline_ms))
}

/// Assemble scanned cells into each answered series' points inside
/// `windows` (inclusive, ascending, disjoint), by tags, through the TSD's
/// block-aware [`Assembler`] (skip blob/rollup qualifiers, newest
/// version wins, sealed blocks spliced with raw cells — raw wins ties).
///
/// A sealed block that fails to decode no longer sinks the assembly:
/// its span is transparently re-read from the region's other copies
/// (`repair_fetch`, same epoch-fenced machinery the scrubber uses) and
/// the first healthy copy is spliced in — the caller sees an exact
/// answer. Only when **no** copy decodes does a typed `corrupt_block`
/// shard error surface in the returned list, alongside whatever the
/// healthy rows produced — never a silent wrong answer, never an
/// all-or-nothing abort.
fn assemble_raw(
    client: &Client,
    codec: &KeyCodec,
    cells: &ScanCells,
    filter: &QueryFilter,
    windows: &[(u64, u64)],
) -> (Vec<SeriesPoints>, Vec<ShardError>) {
    let mut assembler = Assembler::new(codec, filter, windows);
    assembler.add(cells);
    let errors = assembler
        .salvage(client)
        .into_iter()
        .map(|cb| ShardError {
            // Attribute to the serving shard: the row's salt byte.
            shard: cb.row.first().copied().unwrap_or(0),
            kind: "corrupt_block".to_string(),
            retry_after_ms: None,
        })
        .collect();
    (assembler.finish(), errors)
}

fn to_series(
    metric: &str,
    assembled: Vec<SeriesPoints>,
    downsample: Option<(u64, Aggregator)>,
) -> Vec<TimeSeries> {
    assembled
        .into_iter()
        .map(|(series, points)| {
            let s = TimeSeries {
                metric: metric.to_string(),
                tags: series.tags().iter().cloned().collect(),
                points,
            };
            match downsample {
                Some((d, agg)) => s.downsample(d, agg),
                None => s,
            }
        })
        .collect()
}

fn partial_from(errors: Vec<ShardError>, total: u32) -> Option<PartialInfo> {
    (!errors.is_empty()).then_some(PartialInfo {
        failed_shards: errors,
        total_shards: total,
    })
}

#[allow(clippy::too_many_arguments)]
fn execute_raw(
    client: &Client,
    codec: &KeyCodec,
    cfg: &ExecConfig,
    clock: &ClockMs,
    metric: &str,
    filter: &QueryFilter,
    words: &RowWords,
    start: u64,
    end: u64,
    downsample: Option<(u64, Aggregator)>,
) -> ExecResult {
    let now = clock();
    let deadline = now + cfg.shard_deadline_ms;
    let hedge = hedge_trigger(cfg, now);
    let fanout = codec.salt_range().len() as u32;
    let mut errors = Vec::new();
    let cells = scatter(
        client,
        codec,
        metric,
        words,
        start,
        end,
        deadline,
        hedge,
        &mut errors,
    );
    // An unsalvageable corrupt block marks the answer partial (typed
    // `corrupt_block`); healthy rows are still served — same contract as
    // a shed or timed-out shard.
    let (grouped, corrupt) = assemble_raw(client, codec, &cells, filter, &[(start, end)]);
    errors.extend(corrupt);
    ExecResult {
        series: to_series(metric, grouped, downsample),
        partial: partial_from(errors, fanout),
        plan: Plan::Raw,
        fanout,
        cells_scanned: cells.len() as u64,
    }
}

/// Per-window aggregate state, folded from merged tier buckets or from raw
/// points with the arithmetic of [`TimeSeries::downsample`].
#[derive(Clone, Copy)]
struct WindowAcc {
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
    tainted: bool,
}

impl WindowAcc {
    const EMPTY: WindowAcc = WindowAcc {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        count: 0,
        tainted: false,
    };

    /// Fold in one raw point.
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Fold in one merged tier bucket.
    fn add_bucket(&mut self, m: &MergedBucket) {
        self.min = self.min.min(m.min);
        self.max = self.max.max(m.max);
        self.sum += m.sum;
        self.count += m.count;
        self.tainted |= m.tainted;
    }

    fn finish(&self, agg: Aggregator) -> f64 {
        match agg {
            Aggregator::Avg => self.sum / self.count as f64,
            Aggregator::Sum => self.sum,
            Aggregator::Min => self.min,
            Aggregator::Max => self.max,
            Aggregator::Count => self.count as f64,
        }
    }
}

/// One series' windows, ascending by start.
type Windows = Vec<(u64, WindowAcc)>;

/// The position of the series tagged `tags` in `answer` (ordered by
/// tags): `Ok` when it is there, `Err` where it would go. A tier's shadow
/// series and its raw series are different series with the same tags.
fn by_tags<T>(answer: &[(Arc<Series>, T)], tags: &[(String, String)]) -> Result<usize, usize> {
    answer.binary_search_by(|(s, _)| s.tags().cmp(tags))
}

/// The accumulator of window `w` in `windows`, which reach at most `w`:
/// the last one when it is `w`, else a new empty one.
fn window_at(windows: &mut Windows, w: u64) -> &mut WindowAcc {
    if windows.last().is_none_or(|&(last, _)| last != w) {
        windows.push((w, WindowAcc::EMPTY));
    }
    let last = windows.len() - 1;
    &mut windows[last].1
}

/// Fold scanned rollup cells into `d`-second windows per series: each
/// merged bucket ([`fold_buckets`]) is added to its series' window, in
/// the ascending bucket order the scan returns a series' buckets in.
/// Series the filter rejects and buckets outside `[ru_lo, ru_hi)`
/// (row-span rounding over-fetches) are skipped.
#[allow(clippy::too_many_arguments)]
fn fold_rollup(
    codec: &KeyCodec,
    filter: &QueryFilter,
    tier: u64,
    d: u64,
    ru_lo: u64,
    ru_hi: u64,
    cells: &ScanCells,
) -> Vec<(Arc<Series>, Windows)> {
    let mut series: Vec<(Arc<Series>, Windows)> = Vec::new();
    let mut slots: HashMap<u32, usize> = HashMap::new();
    // The series of the last bucket, with its slot when the filter admits
    // it: a series' buckets come together, row by row.
    let mut current: Option<(u32, Option<usize>)> = None;
    fold_buckets(codec, tier, cells, |s, bucket, merged| {
        if bucket < ru_lo || bucket + tier > ru_hi {
            return;
        }
        let id = s.id();
        if current.is_none_or(|(last, _)| last != id) {
            let slot = filter.matches_pairs(s.tags()).then(|| {
                *slots.entry(id).or_insert_with(|| {
                    series.push((s.clone(), Vec::new()));
                    series.len() - 1
                })
            });
            current = Some((id, slot));
        }
        if let Some((_, Some(slot))) = current {
            window_at(&mut series[slot].1, bucket - bucket % d).add_bucket(merged);
        }
    });
    series.sort_by(|(a, _), (b, _)| a.tags().cmp(b.tags()));
    series
}

#[allow(clippy::too_many_arguments)]
fn execute_rollup(
    client: &Client,
    codec: &KeyCodec,
    cfg: &ExecConfig,
    clock: &ClockMs,
    metric: &str,
    filter: &QueryFilter,
    words: &RowWords,
    start: u64,
    end: u64,
    downsample: Option<(u64, Aggregator)>,
    tier: u64,
    ru_lo: u64,
    ru_hi: u64,
) -> ExecResult {
    let (d, agg) = downsample.expect("rollup plan implies downsample");
    let shadow = tier_metric(tier, metric);
    let now = clock();
    let deadline = now + cfg.shard_deadline_ms;
    let hedge = hedge_trigger(cfg, now);
    // The raw patches: the partial leading window and the tail horizon.
    let mut patches = Vec::with_capacity(2);
    if start < ru_lo {
        patches.push((start, ru_lo - 1));
    }
    if ru_hi <= end {
        patches.push((ru_hi, end));
    }
    // Every salt's rollup scan and raw head/tail patches go out under a
    // single deadline before any is awaited.
    let sent: Vec<_> = codec
        .salt_range()
        .map(|salt| {
            let rollup = send_salt(
                client,
                codec,
                salt,
                &shadow,
                words,
                ru_lo,
                ru_hi - 1,
                deadline,
                hedge,
            );
            let mut raw = Vec::new();
            for &(from, to) in &patches {
                raw.extend(send_salt(
                    client, codec, salt, metric, words, from, to, deadline, hedge,
                ));
            }
            (salt, rollup, raw)
        })
        .collect();
    let fanout = sent.len() as u32;
    let mut errors = Vec::new();
    let mut rollup_cells = ScanCells::default();
    let mut raw_cells = ScanCells::default();
    for (salt, rollup, raw) in sent {
        match wait_all(rollup).and_then(|rollup| Ok((rollup, wait_all(raw)?))) {
            Ok((rollup, raw)) => {
                rollup_cells.append(rollup);
                raw_cells.append(raw);
            }
            Err(e) => errors.push(shard_error(salt, &e)),
        }
    }
    let mut cells_scanned = (rollup_cells.len() + raw_cells.len()) as u64;
    let mut windows = fold_rollup(codec, filter, tier, d, ru_lo, ru_hi, &rollup_cells);

    // Tainted windows (overlapping writer bitmaps — some point was
    // delivered twice) are recomputed from raw data rather than served
    // double-counted. One scatter per distinct window, shared by every
    // tainted series in it.
    let tainted_windows: Vec<u64> = {
        let mut ws: Vec<u64> = windows
            .iter()
            .flat_map(|(_, accs)| accs)
            .filter(|(_, a)| a.tainted)
            .map(|&(w, _)| w)
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    };
    for w in tainted_windows {
        let now = clock();
        let deadline = now + cfg.shard_deadline_ms;
        let hedge = hedge_trigger(cfg, now);
        let before = errors.len();
        let cells = scatter(
            client,
            codec,
            metric,
            words,
            w,
            w + d - 1,
            deadline,
            hedge,
            &mut errors,
        );
        let mut failed = errors.len() > before;
        cells_scanned += cells.len() as u64;
        let (grouped, corrupt) = assemble_raw(client, codec, &cells, filter, &[(w, w + d - 1)]);
        if !corrupt.is_empty() {
            // The recompute itself hit unsalvageable corruption: the
            // tainted window cannot be trusted from either source.
            errors.extend(corrupt);
            failed = true;
        }
        for (series, accs) in windows.iter_mut() {
            let Ok(i) = accs.binary_search_by_key(&w, |&(start, _)| start) else {
                continue;
            };
            if !accs[i].1.tainted {
                continue;
            }
            match by_tags(&grouped, series.tags()) {
                Ok(at) if !failed => {
                    let points = &grouped[at].1;
                    let mut fresh = WindowAcc::EMPTY;
                    for p in points {
                        fresh.add(p.value);
                    }
                    accs[i].1 = fresh;
                }
                // Recompute impossible (shard failure) or no raw points
                // survived: drop the window rather than serve a bad value.
                _ => {
                    accs.remove(i);
                }
            }
        }
    }

    // Raw head/tail patches, folded into the same windows; they are
    // disjoint from the rollup region by alignment, the head's before it
    // and the tail's after.
    let (grouped, corrupt) = assemble_raw(client, codec, &raw_cells, filter, &patches);
    errors.extend(corrupt);
    for (series, points) in grouped {
        let mut raw = Windows::new();
        for p in &points {
            window_at(&mut raw, p.timestamp - p.timestamp % d).add(p.value);
        }
        let at = by_tags(&windows, series.tags()).unwrap_or_else(|at| {
            windows.insert(at, (series, Windows::new()));
            at
        });
        let accs = &mut windows[at].1;
        let head = raw.partition_point(|&(w, _)| w < ru_lo);
        raw.splice(head..head, accs.drain(..));
        *accs = raw;
    }

    let series = windows
        .into_iter()
        .filter(|(_, accs)| !accs.is_empty())
        .map(|(series, accs)| TimeSeries {
            metric: metric.to_string(),
            tags: series.tags().iter().cloned().collect(),
            points: accs
                .iter()
                .map(|&(timestamp, acc)| DataPoint {
                    timestamp,
                    value: acc.finish(agg),
                })
                .collect(),
        })
        .collect();
    ExecResult {
        series,
        partial: partial_from(errors, fanout),
        plan: Plan::Rollup { tier },
        fanout,
        cells_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_tsdb::{KeyCodecConfig, UidTable};

    fn codec() -> KeyCodec {
        KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 4,
                row_span_secs: 3600,
            },
            UidTable::new(),
        )
    }

    #[test]
    fn splice_bounds_align_and_respect_tail() {
        let c = codec();
        // Intern the shadow metric so the plan is viable.
        c.row_key(&tier_metric(60, "energy"), &[("unit", "1")], 0);
        // start 130 → first full 300s window at 300; end 3599, tail 2×60
        // → cutoff 3480 → ru_hi 3300.
        assert_eq!(
            splice_bounds(&c, "energy", 60, 300, 2, 130, 3599),
            Some((300, 3300))
        );
        // Range too short for any full window outside the tail: raw.
        assert_eq!(splice_bounds(&c, "energy", 60, 300, 2, 100, 500), None);
        // Unknown shadow metric (no rollups written yet): raw.
        assert_eq!(splice_bounds(&c, "other", 60, 300, 2, 0, 100_000), None);
    }

    #[test]
    fn window_acc_matches_aggregators() {
        let acc = WindowAcc {
            min: 1.0,
            max: 9.0,
            sum: 12.0,
            count: 4,
            tainted: false,
        };
        assert_eq!(acc.finish(Aggregator::Avg), 3.0);
        assert_eq!(acc.finish(Aggregator::Sum), 12.0);
        assert_eq!(acc.finish(Aggregator::Min), 1.0);
        assert_eq!(acc.finish(Aggregator::Max), 9.0);
        assert_eq!(acc.finish(Aggregator::Count), 4.0);
    }
}
