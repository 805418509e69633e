//! Sent, then awaited: a scan split into its send and wait steps answers
//! exactly what the blocking scan answers, however many scans are sent
//! before the first is awaited and in whatever order they are awaited —
//! over random region layouts, row ranges, column windows and row-word
//! filters, and for a hedged scan whose primary is down.

use proptest::prelude::*;

use pga_cluster::coordinator::Coordinator;
use pga_cluster::rpc::default_clock_ms;
use pga_minibase::{
    Client, ColumnRange, KeyValue, Master, RegionConfig, RowRange, RowWords, ScanSpec,
    ServerConfig, TableDescriptor,
};

/// A table split at `splits`, one copy or two.
fn cluster(splits: &[u8], factor: usize) -> (Master, Client) {
    let mut splits: Vec<u8> = splits.to_vec();
    splits.sort_unstable();
    splits.dedup();
    let desc = TableDescriptor {
        name: "t".into(),
        split_points: splits
            .iter()
            .map(|&b| bytes::Bytes::from(vec![b]))
            .collect(),
        region_config: RegionConfig::default(),
    };
    let mut master = Master::bootstrap(3, ServerConfig::default(), Coordinator::new(10_000), 0);
    if factor > 1 {
        master.create_replicated_table(&desc, factor);
    } else {
        master.create_table(&desc);
    }
    let client = Client::connect(&master);
    (master, client)
}

/// Row `[a, b]`, qualifier `[q]`, one version per timestamp.
fn cell(&(a, b, q, ts): &(u8, u8, u8, u64)) -> KeyValue {
    KeyValue::new(vec![a, b], vec![q], ts, vec![a ^ q])
}

/// A scan over rows `[lo, hi)` (an empty end: to the end), optionally
/// windowed to qualifiers `[from, to)` and filtered to rows holding the
/// one-byte word `word` after the first byte.
type Spec = (u8, u8, Option<(u8, u8)>, Option<u8>);

fn spec(&(lo, hi, window, word): &Spec) -> ScanSpec {
    let end = if hi >= 20 { Vec::new() } else { vec![hi] };
    let rows = RowRange::new(vec![lo], end);
    let spec = match window {
        Some((from, to)) => ScanSpec::windowed(rows, vec![ColumnRange::new(vec![from], vec![to])]),
        None => rows.into(),
    };
    match word {
        Some(w) => spec.with_words(RowWords::new(1, 1, [[w]])),
        None => spec,
    }
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    let window = prop_oneof![
        1 => Just(None),
        2 => (0u8..6, 0u8..7).prop_map(Some),
    ];
    let word = prop_oneof![2 => Just(None), 1 => (0u8..4).prop_map(Some)];
    proptest::collection::vec((0u8..20, 0u8..21, window, word), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sent_then_awaited_scans_equal_the_blocking_scan(
        splits in proptest::collection::vec(1u8..20, 0..4),
        cells in proptest::collection::vec((0u8..20, 0u8..4, 0u8..6, 1u64..4), 1..80),
        specs in specs(),
        factor in 1usize..3,
        reverse in any::<bool>(),
    ) {
        let (master, client) = cluster(&splits, factor);
        client.put(cells.iter().map(cell).collect()).unwrap();
        let specs: Vec<ScanSpec> = specs.iter().map(spec).collect();
        let blocking: Vec<Vec<KeyValue>> =
            specs.iter().map(|s| client.scan_spec(s).unwrap()).collect();
        let deadline = || Some(default_clock_ms() + 5_000);
        // Every scan sent, admitted and hedged, before any is awaited.
        let mut pending: Vec<_> = specs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    (i, client.send_scan_admitted(s, deadline())),
                    (i, client.send_scan_hedged(s, deadline(), deadline())),
                ]
            })
            .collect();
        if reverse {
            pending.reverse();
        }
        for (i, scan) in pending {
            prop_assert_eq!(&scan.wait().unwrap(), &blocking[i]);
        }
        for (s, expect) in specs.iter().zip(&blocking) {
            prop_assert_eq!(&client.scan_admitted(s, deadline()).unwrap(), expect);
        }
        prop_assert_eq!(client.repl_book().snapshot().hedged_scans, 0);
        if factor > 1 {
            // One node down: for every region it led, the hedged scan's
            // follower answers in the wait step.
            let whole: ScanSpec = RowRange::all().into();
            let expect_whole = client.scan_spec(&whole).unwrap();
            let down = master.directory().read()[0].server;
            master.server(down).unwrap().shutdown();
            let pending: Vec<_> = specs
                .iter()
                .chain([&whole])
                .map(|s| client.send_scan_hedged(s, deadline(), deadline()))
                .collect();
            for (scan, expect) in pending.into_iter().zip(blocking.iter().chain([&expect_whole])) {
                prop_assert_eq!(&scan.wait().unwrap(), expect);
            }
            prop_assert!(client.repl_book().snapshot().hedged_scans > 0);
            // Unhedged, the first region's scan fails with its primary.
            prop_assert!(client.scan_admitted(&whole, deadline()).is_err());
        }
        master.shutdown();
    }
}
