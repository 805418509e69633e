//! Property test for directory consistency under concurrent topology
//! changes: while the master splits and migrates regions, a reader thread
//! continuously locates rows through the shared directory. At every
//! observable instant each row must have **exactly one** owning region —
//! never zero (a locate hole would fail client puts), never two (double
//! ownership would double-serve scans). This is the invariant the fault
//! harness's split/move-under-load schedules lean on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;

use pga_cluster::coordinator::Coordinator;
use pga_minibase::master::{locate, Directory};
use pga_minibase::{
    Client, KeyValue, Master, RegionConfig, RowRange, ServerConfig, TableDescriptor,
};

fn table() -> TableDescriptor {
    TableDescriptor {
        name: "tsdb".into(),
        split_points: [b"250".as_slice(), b"500", b"750"]
            .iter()
            .map(|s| Bytes::from(s.to_vec()))
            .collect(),
        region_config: RegionConfig::default(),
    }
}

/// Rows the reader probes: range boundaries, their neighbours, and
/// interior points of every initial region.
const PROBES: [&[u8]; 12] = [
    b"000", b"100", b"249", b"250", b"251", b"400", b"499", b"500", b"600", b"749", b"750", b"999",
];

fn spawn_reader(
    dir: Directory,
    stop: Arc<AtomicBool>,
    violation: Arc<Mutex<Option<String>>>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut observations = 0u64;
        // At least one full probe pass runs even if the writer finishes
        // all its topology ops before this thread is first scheduled.
        loop {
            for probe in PROBES {
                // One read-lock snapshot per probe: owners are counted
                // against a single consistent directory view.
                let owners = dir
                    .read()
                    .iter()
                    .filter(|i| i.range.contains(probe))
                    .count();
                if owners != 1 {
                    let mut slot = violation.lock();
                    if slot.is_none() {
                        *slot = Some(format!(
                            "row {:?} had {owners} owners",
                            String::from_utf8_lossy(probe)
                        ));
                    }
                    return observations;
                }
                // locate() must agree with the snapshot count.
                if locate(&dir, probe).is_none() {
                    let mut slot = violation.lock();
                    if slot.is_none() {
                        *slot = Some(format!(
                            "locate({:?}) found no region",
                            String::from_utf8_lossy(probe)
                        ));
                    }
                    return observations;
                }
                observations += 1;
            }
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        observations
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_locate_always_finds_exactly_one_owner(
        nodes in 2usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0u8..32, 0u8..32), 4..12),
    ) {
        let coord = Coordinator::new(10_000);
        let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        master.create_table(&table());
        let client = Client::connect(&master);

        // Seed every region with rows so splits have a median to cut at.
        let puts: Vec<KeyValue> = (0..100u32)
            .map(|i| {
                let row = format!("{:03}", i * 10).into_bytes();
                KeyValue::new(row, b"q".to_vec(), i as u64, b"v".to_vec())
            })
            .collect();
        client.put(puts).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let violation = Arc::new(Mutex::new(None));
        let reader = spawn_reader(master.directory(), stop.clone(), violation.clone());

        for &(is_split, region_sel, target_sel) in &ops {
            let rid = {
                let dir = master.directory();
                let d = dir.read();
                d[region_sel as usize % d.len()].id
            };
            if is_split {
                // A refusal (empty daughter side) is fine; the directory
                // must stay consistent either way.
                let _ = master.split_region(rid);
            } else {
                let live = master.live_nodes();
                let target = live[target_sel as usize % live.len()];
                let _ = master.move_region(rid, target);
            }
        }

        stop.store(true, Ordering::Relaxed);
        let observations = reader.join().expect("reader thread");
        prop_assert!(observations > 0, "reader made no observations");
        let seen = violation.lock().take();
        prop_assert!(seen.is_none(), "directory invariant violated: {:?}", seen);

        // Post-run: all 100 seeded rows still served exactly once.
        let cells = client.scan(&RowRange::all()).unwrap();
        prop_assert_eq!(cells.len(), 100, "rows lost or duplicated by topology ops");

        master.shutdown();
    }
}
