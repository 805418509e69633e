//! Series runs: a put's points grouped by series.
//!
//! A fleet sends its samples tick by tick, every series once a tick, but
//! the store keeps each series' points together, in its rows. A put is
//! therefore regrouped once before it reaches
//! [`crate::Tsd::put_series_batch`] (by a proxy worker, or by
//! [`crate::Tsd::put_batch`]) into one run per series: the series' entry
//! once, then its timestamps and values as columns in the order they
//! arrived. The raw cells, the row-hour
//! bookkeeping and the write-path observer then read whole runs, with one
//! lookup of per-series state a run instead of one a point.
//!
//! [`SeriesRuns::group`] is the one grouping routine. It is stable, so a
//! key written twice in a put keeps its later value, and it costs
//! O(points + series in the put): each point is counted, then placed,
//! under the run its series was numbered when it first appeared. It keeps
//! a scratch index by series id between puts, touching only the entries
//! of the put's own series, so a put never walks the whole series table.

use std::sync::Arc;

use crate::codec::KeyCodec;
use crate::series::Series;
use crate::tsd::TsdError;

/// A point of a resolved series: `(series id, timestamp, value)`, the id
/// one of a [`KeyCodec`]'s series table ([`Series::id`]).
pub type SeriesPoint = (u32, u64, f64);

/// One series' points of a put, in the order they arrived.
#[derive(Debug, Clone, Copy)]
pub struct SeriesRun<'a> {
    /// The series.
    pub series: &'a Arc<Series>,
    /// The points' timestamps.
    pub timestamps: &'a [u64],
    /// The points' values, one a timestamp.
    pub values: &'a [f64],
}

impl<'a> SeriesRun<'a> {
    /// `(timestamp, value)` of each point, in order.
    pub fn points(self) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.timestamps
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }
}

/// A put's points as series runs, each series once, in the order the
/// series first appear in the put. One value is reused put after put: it
/// keeps its buffers, so a steady state groups without allocating.
#[derive(Debug, Default)]
pub struct SeriesRuns {
    /// Each run's series.
    series: Vec<Arc<Series>>,
    /// Where each run's points end in the columns; a run starts where the
    /// one before it ends.
    ends: Vec<usize>,
    timestamps: Vec<u64>,
    values: Vec<f64>,
    /// By series id, one more than the id's run in the put being grouped,
    /// 0 for none. Only the entries of the put's series are set, and they
    /// are cleared again before [`SeriesRuns::group`] returns.
    run_of: Vec<u32>,
    /// Each run's series id, in run order.
    ids: Vec<u32>,
    /// While grouping, each run's point count, then where its next point
    /// goes.
    next: Vec<usize>,
}

impl SeriesRuns {
    /// No runs.
    pub fn new() -> Self {
        SeriesRuns::default()
    }

    /// Replace the runs with `parts`' points grouped by series, stably:
    /// each series' points keep the order they have in the parts, taken
    /// one after the other. The ids are ones of `codec`'s series table;
    /// an id the table has not handed out is refused as
    /// [`TsdError::ForeignSeries`], leaving no runs.
    pub fn group<'p, I>(&mut self, codec: &KeyCodec, parts: I) -> Result<(), TsdError>
    where
        I: IntoIterator<Item = &'p [SeriesPoint]>,
        I::IntoIter: Clone,
    {
        self.clear();
        let parts = parts.into_iter();
        let known = codec.series_count();
        // Count each series' points, numbering the series as they appear.
        let mut points = 0;
        for part in parts.clone() {
            points += part.len();
            for &(id, ..) in part {
                let id = id as usize;
                if id >= known {
                    self.reset_index();
                    self.clear();
                    return Err(TsdError::ForeignSeries);
                }
                if self.run_of.len() <= id {
                    self.run_of.resize(id + 1, 0);
                }
                let run = &mut self.run_of[id];
                if *run == 0 {
                    self.ids.push(id as u32);
                    self.next.push(0);
                    // At most one run a point, and a put of 2^32 points
                    // would need 96 GiB for its points alone.
                    *run = self.ids.len() as u32;
                }
                self.next[*run as usize - 1] += 1;
            }
        }
        let mut end = 0;
        for next in &mut self.next {
            let start = end;
            end += *next;
            self.ends.push(end);
            *next = start;
        }
        // Place each point after the ones of its series before it.
        self.timestamps.resize(points, 0);
        self.values.resize(points, 0.0);
        for part in parts {
            for &(id, timestamp, value) in part {
                let run = self.run_of[id as usize] as usize - 1;
                let at = self.next[run];
                self.next[run] = at + 1;
                self.timestamps[at] = timestamp;
                self.values[at] = value;
            }
        }
        let found = codec.series_by_ids(&self.ids, &mut self.series);
        self.reset_index();
        if !found {
            self.clear();
            return Err(TsdError::ForeignSeries);
        }
        Ok(())
    }

    /// Clear the index entries of this put's series.
    fn reset_index(&mut self) {
        for &id in &self.ids {
            self.run_of[id as usize] = 0;
        }
    }

    /// Drop every run, keeping the buffers.
    pub fn clear(&mut self) {
        self.series.clear();
        self.ends.clear();
        self.timestamps.clear();
        self.values.clear();
        self.ids.clear();
        self.next.clear();
    }

    /// Runs: series in the put.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the put holds no point.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Points in all runs.
    pub fn points(&self) -> usize {
        self.timestamps.len()
    }

    /// Run `r`.
    fn run(&self, r: usize) -> SeriesRun<'_> {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p]);
        let end = self.ends[r];
        SeriesRun {
            series: &self.series[r],
            timestamps: &self.timestamps[start..end],
            values: &self.values[start..end],
        }
    }

    /// The runs, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SeriesRun<'_>> + '_ {
        (0..self.series.len()).map(|r| self.run(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::KeyCodecConfig;
    use crate::uid::UidTable;

    fn codec_with(series: usize) -> KeyCodec {
        let codec = KeyCodec::new(KeyCodecConfig::default(), UidTable::new());
        for s in 0..series {
            codec.resolve("energy", &[("sensor", &s.to_string())]);
        }
        codec
    }

    fn grouped(runs: &SeriesRuns) -> Vec<(u32, Vec<(u64, f64)>)> {
        runs.iter()
            .map(|run| (run.series.id(), run.points().collect()))
            .collect()
    }

    /// Runs come in order of first appearance, each series' points in
    /// the order the parts hold them, a key put twice both times.
    #[test]
    fn grouping_is_stable_across_parts() {
        let codec = codec_with(4);
        let first: Vec<SeriesPoint> = vec![(2, 10, 1.0), (0, 10, 2.0), (2, 11, 3.0)];
        let second: Vec<SeriesPoint> = vec![(0, 11, 4.0), (3, 10, 5.0), (2, 11, 6.0)];
        let mut runs = SeriesRuns::new();
        runs.group(&codec, [&first[..], &second[..]]).unwrap();
        assert_eq!((runs.len(), runs.points()), (3, 6));
        assert_eq!(
            grouped(&runs),
            vec![
                (2, vec![(10, 1.0), (11, 3.0), (11, 6.0)]),
                (0, vec![(10, 2.0), (11, 4.0)]),
                (3, vec![(10, 5.0)]),
            ]
        );
        // The index is clear for the next put, whatever it holds.
        runs.group(&codec, [&second[..]]).unwrap();
        assert_eq!(
            grouped(&runs),
            vec![
                (0, vec![(11, 4.0)]),
                (3, vec![(10, 5.0)]),
                (2, vec![(11, 6.0)]),
            ]
        );
        runs.group(&codec, []).unwrap();
        assert!(runs.is_empty());
    }

    /// An id the table never handed out is refused, and leaves the
    /// index clear for the next put.
    #[test]
    fn an_unknown_id_is_refused_whole() {
        let codec = codec_with(2);
        let mut runs = SeriesRuns::new();
        let bad: Vec<SeriesPoint> = vec![(1, 5, 1.0), (2, 5, 2.0)];
        assert!(matches!(
            runs.group(&codec, [&bad[..]]),
            Err(TsdError::ForeignSeries)
        ));
        assert!(runs.is_empty());
        let good: Vec<SeriesPoint> = vec![(0, 5, 1.0), (1, 5, 2.0)];
        runs.group(&codec, [&good[..]]).unwrap();
        assert_eq!(
            grouped(&runs),
            vec![(0, vec![(5, 1.0)]), (1, vec![(5, 2.0)])]
        );
    }
}
