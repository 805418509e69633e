//! Property tests for live region migration under coordinator watches and
//! session-lease expiry: for any interleaving of writes, master-driven
//! region moves and one lease expiry, **no datapoint is lost and none is
//! served twice** — the invariant every region move (split, drain,
//! fault-harness migration) depends on — and the coordinator watch
//! stream reports the expiry.

use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;

use pga_cluster::coordinator::{Coordinator, WatchEvent};
use pga_minibase::{Client, KeyValue, RegionConfig, RowRange, ServerConfig, TableDescriptor};

fn table() -> TableDescriptor {
    TableDescriptor {
        name: "tsdb".into(),
        split_points: [b"250".as_slice(), b"500", b"750"]
            .iter()
            .map(|s| Bytes::from(s.to_vec()))
            .collect(),
        region_config: RegionConfig {
            memstore_flush_bytes: 256, // flush often so moves carry files too
            ..RegionConfig::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn migration_and_lease_expiry_lose_and_duplicate_nothing(
        nodes in 2usize..5,
        rows in proptest::collection::vec(0u16..1000, 20..60),
        moves in proptest::collection::vec((0u8..16, 0u8..16), 1..8),
        expire in any::<bool>(),
    ) {
        let coord = Coordinator::new(1000);
        let mut master =
            pga_minibase::Master::bootstrap(nodes, ServerConfig::default(), coord.clone(), 0);
        master.create_table(&table());
        let client = Client::connect(&master);
        let watch = coord.watch("/rs");

        // Interleave: one unique datapoint per step, a region move every
        // few steps, one lease expiry half-way if requested.
        let mut move_iter = moves.iter();
        let half = rows.len() / 2;
        for (i, row) in rows.iter().enumerate() {
            let key = format!("{row:03}").into_bytes();
            let qual = format!("w{i}").into_bytes();
            client.put(vec![KeyValue::new(key, qual, i as u64, b"v".to_vec())]).unwrap();

            if i % 5 == 4 {
                if let Some(&(region_sel, target_sel)) = move_iter.next() {
                    let rid = {
                        let dir = master.directory();
                        let d = dir.read();
                        d[region_sel as usize % d.len()].id
                    };
                    let live = master.live_nodes();
                    let target = live[target_sel as usize % live.len()];
                    master.move_region(rid, target);
                }
            }

            if expire && i == half && master.live_nodes().len() > 1 {
                // The highest-id node goes silent; everyone else
                // heartbeats. tick() expires the lease and reassigns its
                // regions through WAL recovery.
                let victim = *master.live_nodes().last().unwrap();
                for node in master.live_nodes() {
                    if node != victim {
                        master.heartbeat(node, 900);
                    }
                }
                let reassigned = master.tick(1500);
                // Every region the victim hosted moved somewhere live.
                let dir = master.directory();
                for info in dir.read().iter() {
                    prop_assert_ne!(info.server, victim);
                }
                // The watch stream reports exactly one expiry, for the
                // victim's znode.
                let expiries: Vec<WatchEvent> = watch
                    .poll()
                    .into_iter()
                    .filter(|e| matches!(e, WatchEvent::SessionExpired(_)))
                    .collect();
                prop_assert_eq!(
                    expiries,
                    vec![WatchEvent::SessionExpired(format!("/rs/{}", victim.0))]
                );
                let _ = reassigned;
            }
        }

        // Every written datapoint is served exactly once.
        let cells = client.scan(&RowRange::all()).unwrap();
        let served: Vec<(Vec<u8>, Vec<u8>)> = cells
            .iter()
            .map(|kv| (kv.row.to_vec(), kv.qualifier.to_vec()))
            .collect();
        let unique: BTreeSet<&(Vec<u8>, Vec<u8>)> = served.iter().collect();
        prop_assert_eq!(unique.len(), served.len(), "a datapoint was double-served");
        prop_assert_eq!(served.len(), rows.len(), "a datapoint was lost");
        let expected: BTreeSet<(Vec<u8>, Vec<u8>)> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                (
                    format!("{row:03}").into_bytes(),
                    format!("w{i}").into_bytes(),
                )
            })
            .collect();
        let served_set: BTreeSet<(Vec<u8>, Vec<u8>)> = served.into_iter().collect();
        prop_assert_eq!(served_set, expected);

        master.shutdown();
    }

    #[test]
    fn moves_alone_preserve_directory_partition(
        nodes in 2usize..5,
        moves in proptest::collection::vec((0u8..16, 0u8..16), 1..20),
    ) {
        let coord = Coordinator::new(10_000);
        let mut master =
            pga_minibase::Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        master.create_table(&table());
        for &(region_sel, target_sel) in &moves {
            let rid = {
                let dir = master.directory();
                let d = dir.read();
                d[region_sel as usize % d.len()].id
            };
            let live = master.live_nodes();
            let target = live[target_sel as usize % live.len()];
            prop_assert!(master.move_region(rid, target));
        }
        // The directory still partitions the keyspace: every row locates
        // to exactly one region hosted by a live node.
        let dir = master.directory();
        let d = dir.read();
        prop_assert_eq!(d.len(), 4);
        for probe in [b"000".as_slice(), b"249", b"250", b"499", b"500", b"999"] {
            let hits = d.iter().filter(|i| i.range.contains(probe)).count();
            prop_assert_eq!(hits, 1, "row {:?} covered by {} regions", probe, hits);
        }
        for info in d.iter() {
            prop_assert!(master.live_nodes().contains(&info.server));
            let hosted = master.server(info.server).unwrap().hosted_regions();
            prop_assert!(hosted.contains(&info.id));
        }
        drop(d);
        master.shutdown();
    }
}
