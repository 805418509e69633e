//! Tag pushdown: the engine's scans carry the query's tag filter to the
//! region servers as row-key words. The answers must not move: they equal
//! the `Tsd::query` reference (which filters after an unfiltered scan) and
//! the engine's own fleet-wide answer kept by tags. Only the cells the
//! region servers return may shrink, never grow.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pga_cluster::coordinator::Coordinator;
use pga_cluster::rpc::{default_clock_ms, ClockMs};
use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_query::exec::{self, ExecConfig, ExecResult};
use pga_query::{Plan, QueryEngine, QueryEngineConfig, RollupCompactor, RollupWriter};
use pga_tsdb::uid::UidKind;
use pga_tsdb::{
    handle_query_with, Aggregator, KeyCodec, KeyCodecConfig, QueryFilter, TimeSeries, Tsd,
    TsdConfig, UidTable,
};

/// Seconds of data: the first row-hour and part of the second.
const TICKS: u64 = 4_000;

/// A storage stack and two TSDs writing through one codec, each with its
/// own rollup writer, so a batch both deliver taints its rollup windows.
struct Stack {
    master: Master,
    writers: [Arc<Tsd>; 2],
    client: Client,
}

impl Stack {
    fn new(sealed: bool) -> Stack {
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 4,
                row_span_secs: 3600,
            },
            UidTable::new(),
        );
        let mut master = Master::bootstrap(3, ServerConfig::default(), Coordinator::new(10_000), 0);
        master.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        });
        let writers = [0u8, 1].map(|id| {
            let tsd = Arc::new(Tsd::new(
                codec.clone(),
                Client::connect(&master),
                TsdConfig::default(),
            ));
            tsd.set_observer(Arc::new(RollupWriter::new(
                codec.clone(),
                vec![60, 600],
                id,
            )));
            tsd
        });
        if sealed {
            master.set_compaction_rewriter(Arc::new(RollupCompactor::new(
                codec,
                Some(writers[0].block_rewriter()),
            )));
        }
        let client = Client::connect(&master);
        Stack {
            master,
            writers,
            client,
        }
    }

    fn tsd(&self) -> &Tsd {
        &self.writers[0]
    }

    /// One engine execution, uncached.
    fn execute(
        &self,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> ExecResult {
        let clock: ClockMs = Arc::new(default_clock_ms);
        let cfg = ExecConfig::default();
        let codec = self.tsd().codec();
        exec::execute(
            &self.client,
            codec,
            &cfg,
            &clock,
            "energy",
            filter,
            start,
            end,
            downsample,
        )
    }
}

/// A series' tags: `unit`, `sensor` and, for some, `site`; `reversed`
/// writes them in the opposite order.
type SeriesTags = (u8, u8, Option<u8>, bool);

fn tags_of(&(unit, sensor, site, reversed): &SeriesTags) -> Vec<(String, String)> {
    let mut tags = vec![
        ("unit".to_string(), unit.to_string()),
        ("sensor".to_string(), sensor.to_string()),
    ];
    tags.extend(site.map(|s| ("site".to_string(), s.to_string())));
    if reversed {
        tags.reverse();
    }
    tags
}

/// Write every series for `[from, to)` through `tsd`. Values are small
/// integers, so a rollup sum is exact in any order of addition.
fn write(tsd: &Tsd, series: &[Vec<(String, String)>], from: u64, to: u64) {
    for (i, tags) in series.iter().enumerate() {
        let tags: Vec<(&str, &str)> = tags.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let points: Vec<_> = (from..to)
            .map(|ts| (&tags[..], ts, (ts % 17 + i as u64) as f64))
            .collect();
        tsd.put_batch("energy", &points).unwrap();
    }
}

const KEYS: [&str; 3] = ["unit", "sensor", "site"];

fn filter_of(pairs: &[(usize, u8)]) -> QueryFilter {
    pairs.iter().fold(QueryFilter::any(), |f, &(k, v)| {
        f.with(KEYS[k], &v.to_string())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Over random series of two or three tags written in any order, and
    /// filters on one or two keys (a key some series lack, names with no
    /// UID among them), every plan — raw, over sealed blocks or not,
    /// rollup with its head and tail patches, and the recompute of windows
    /// two writers both delivered — answers as the reference does, and
    /// scans no more cells than the fleet-wide read.
    #[test]
    fn pushed_down_filters_answer_like_the_reference(
        drawn in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..3, any::<bool>())
                .prop_map(|(unit, sensor, site, reversed)| {
                    (unit, sensor, (site < 2).then_some(site), reversed)
                }),
            2..7,
        ),
        filters in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 0u8..3), 1..3),
            3,
        ),
    ) {
        // One identity per series, whatever order its tags were drawn in.
        let mut seen = BTreeSet::new();
        let series: Vec<Vec<(String, String)>> = drawn
            .iter()
            .filter(|&&(unit, sensor, site, _)| seen.insert((unit, sensor, site)))
            .map(tags_of)
            .collect();
        let mut filters: Vec<QueryFilter> = filters.iter().map(|f| filter_of(f)).collect();
        filters.push(QueryFilter::any().with("site", "0"));
        filters.push(QueryFilter::any().with("unit", "99"));
        filters.push(QueryFilter::any().with("rack", "1").with("unit", "0"));
        for (sealed, taint) in [(false, false), (false, true), (true, false), (true, true)] {
            let stack = Stack::new(sealed);
            write(stack.tsd(), &series, 0, TICKS);
            if taint {
                // Delivered twice: the second writer's buckets overlap the
                // first's, so their rollup windows must be recomputed raw.
                write(&stack.writers[1], &series, 1_200, 1_500);
            }
            for tsd in &stack.writers {
                tsd.flush_observer().unwrap();
            }
            if sealed {
                stack.tsd().compact_now().unwrap();
            }
            answers_match(&stack, &filters, (sealed, taint));
            stack.master.shutdown();
        }
    }
}

/// Every filter of `filters`, over ranges with head and tail patches and
/// one across the row-hour seam, raw and downsampled: the pushed-down
/// answer equals the reference and the fleet-wide answer kept by tags,
/// from no more cells than the fleet-wide read.
fn answers_match(stack: &Stack, filters: &[QueryFilter], shape: (bool, bool)) {
    let ranges = [(130, 3_900), (3_590, 3_650), (0, TICKS - 1), (1_000, 1_700)];
    let downsamples = [
        None,
        Some((60, Aggregator::Avg)),
        Some((600, Aggregator::Max)),
    ];
    let any = QueryFilter::any();
    for (start, end) in ranges {
        let truth = stack.tsd().query("energy", &any, start, end).unwrap();
        for ds in downsamples {
            let fleet = stack.execute(&any, start, end, ds);
            assert!(fleet.partial.is_none());
            if matches!(ds, Some((60, _))) && end - start >= 600 {
                assert_eq!(fleet.plan, Plan::Rollup { tier: 60 });
            }
            for filter in filters {
                let got = stack.execute(filter, start, end, ds);
                assert!(got.partial.is_none());
                let reference: Vec<TimeSeries> = truth
                    .iter()
                    .filter(|s| filter.matches(&s.tags))
                    .map(|s| match ds {
                        Some((d, agg)) => s.downsample(d, agg),
                        None => s.clone(),
                    })
                    .collect();
                let kept: Vec<TimeSeries> = fleet
                    .series
                    .iter()
                    .filter(|s| filter.matches(&s.tags))
                    .cloned()
                    .collect();
                let at = format!("{filter:?} [{start}, {end}] {ds:?} (sealed, taint) {shape:?}");
                assert_eq!(got.series, reference, "reference: {at}");
                assert_eq!(got.series, kept, "fleet-wide: {at}");
                assert!(got.cells_scanned <= fleet.cells_scanned, "{at}");
            }
        }
    }
}

/// A tag value the UID table has never seen: no series can match, so the
/// query scans nothing and interns nothing.
#[test]
fn an_unknown_name_scans_nothing_and_interns_nothing() {
    let stack = Stack::new(false);
    let series = vec![tags_of(&(0, 0, None, false)), tags_of(&(1, 0, None, false))];
    write(stack.tsd(), &series, 0, 600);
    let uids = stack.tsd().codec().uids();
    let sizes = || [UidKind::Metric, UidKind::TagKey, UidKind::TagValue].map(|k| uids.len(k));
    let before = sizes();
    let unknown = stack.execute(&QueryFilter::any().with("unit", "99"), 0, 599, None);
    assert!(unknown.series.is_empty());
    assert_eq!((unknown.cells_scanned, unknown.fanout), (0, 0));
    assert_eq!(sizes(), before, "a query interns no name");
    stack.master.shutdown();
}

/// An open-ended downsampled query is read up to the last timestamp a row
/// key can hold: `end = u64::MAX` answers what that bound answers (it
/// overflowed computing the rollup splice), and a range starting past the
/// bound answers nothing.
#[test]
fn an_open_ended_downsampled_query_stops_at_the_last_row() {
    let stack = Stack::new(false);
    let series = vec![tags_of(&(0, 0, None, false)), tags_of(&(1, 0, None, false))];
    write(stack.tsd(), &series, 0, 900);
    for tsd in &stack.writers {
        tsd.flush_observer().unwrap();
    }
    let engine = QueryEngine::new(
        stack.tsd().codec().clone(),
        Client::connect(&stack.master),
        QueryEngineConfig::default(),
    );
    let body = |start: u64, end: u64| {
        format!(
            "{{\"start\":{start},\"end\":{end},\"queries\":[{{\"metric\":\"energy\",\
             \"downsample\":\"60s-avg\"}}]}}"
        )
    };
    let last = stack.tsd().codec().max_timestamp();
    let open = handle_query_with(&engine, &body(0, u64::MAX)).unwrap();
    assert_eq!(open, handle_query_with(&engine, &body(0, last)).unwrap());
    assert!(open.contains("\"840\""), "the data is served: {open}");
    let past = handle_query_with(&engine, &body(last + 1, u64::MAX)).unwrap();
    assert_eq!(past, "[]");
    stack.master.shutdown();
}
