//! Failure injection: cascading server deaths, stale clients, and crash
//! recovery across the cluster.

use pga_cluster::coordinator::Coordinator;
use pga_cluster::NodeId;
use pga_minibase::{
    Client, KeyValue, Master, RegionConfig, RowRange, ServerConfig, TableDescriptor,
};

fn kv(row: &str, ts: u64, val: &str) -> KeyValue {
    KeyValue::new(
        row.as_bytes().to_vec(),
        b"q".to_vec(),
        ts,
        val.as_bytes().to_vec(),
    )
}

fn cluster(nodes: usize, splits: &[&[u8]]) -> (Master, Client) {
    let coord = Coordinator::new(5_000);
    let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "t".into(),
        split_points: splits
            .iter()
            .map(|s| bytes::Bytes::from(s.to_vec()))
            .collect(),
        region_config: RegionConfig::default(),
    });
    let client = Client::connect(&master);
    (master, client)
}

#[test]
fn sequential_node_failures_cascade_onto_survivors() {
    let (mut master, client) = cluster(4, &[b"g", b"n", b"t"]);
    for row in ["a", "h", "p", "w"] {
        client.put(vec![kv(row, 1, "v")]).unwrap();
    }
    // Kill node 0, then node 1, heartbeating the rest each sweep.
    for (dead, t) in [(0u32, 10_000u64), (1, 20_000)] {
        for n in 0..4u32 {
            if n > dead {
                master.heartbeat(NodeId(n), t);
            }
        }
        let moved = master.tick(t);
        assert!(!moved.is_empty(), "node {dead} regions must move");
    }
    // Every region now lives on nodes 2 or 3.
    let dir = master.directory();
    for info in dir.read().iter() {
        assert!(
            info.server.0 >= 2,
            "region {:?} still on dead node",
            info.id
        );
    }
    // All data remains reachable through a fresh client.
    let fresh = Client::connect(&master);
    let cells = fresh.scan(&RowRange::all()).unwrap();
    assert_eq!(cells.len(), 4);
    master.shutdown();
}

#[test]
fn unflushed_writes_survive_failover_via_wal() {
    let (mut master, client) = cluster(2, &[b"m"]);
    // Writes stay in the memstore (no flush): durability hinges on the WAL.
    for i in 0..20 {
        client
            .put(vec![kv(&format!("a{i:02}"), 1, "unflushed")])
            .unwrap();
    }
    master.heartbeat(NodeId(1), 10_000);
    let moved = master.tick(10_000);
    assert!(!moved.is_empty());
    let fresh = Client::connect(&master);
    let cells = fresh.scan(&RowRange::all()).unwrap();
    assert_eq!(cells.len(), 20, "WAL recovery must restore every write");
    assert!(cells.iter().all(|c| &c.value[..] == b"unflushed"));
    master.shutdown();
}

#[test]
fn old_client_keeps_working_after_reassignment() {
    let (mut master, client) = cluster(3, &[b"h", b"q"]);
    client.put(vec![kv("a", 1, "before")]).unwrap();
    // Find which node hosts row "a" and kill it.
    let victim = {
        let dir = master.directory();
        let d = dir.read();
        d.iter().find(|i| i.range.contains(b"a")).unwrap().server
    };
    for n in 0..3u32 {
        if NodeId(n) != victim {
            master.heartbeat(NodeId(n), 10_000);
        }
    }
    master.tick(10_000);
    // The old client still holds the shared directory (updated in place),
    // and its handle map still contains the survivors: reads and writes
    // continue.
    client.put(vec![kv("b", 1, "after")]).unwrap();
    let cells = client
        .scan(&RowRange::new(b"a".to_vec(), b"c".to_vec()))
        .unwrap();
    assert_eq!(cells.len(), 2);
    master.shutdown();
}

#[test]
fn whole_cluster_restart_from_shutdown_is_clean() {
    // Shutdown → rebuild a new cluster: no shared-state leakage between
    // instances (fresh coordinator namespace).
    for round in 0..3 {
        let (master, client) = cluster(2, &[b"m"]);
        client.put(vec![kv("x", round, "v")]).unwrap();
        assert_eq!(client.scan(&RowRange::all()).unwrap().len(), 1);
        master.shutdown();
    }
}

/// A row key or qualifier longer than the WAL's two-byte length field used
/// to wrap: the put was acked, its record read back as a torn tail, and
/// failover lost it along with every later unflushed batch of its region.
/// Such a put is refused before anything is written, and the writes after
/// it survive failover.
#[test]
fn a_key_too_long_for_the_wal_is_refused_and_later_writes_survive_failover() {
    let (mut master, client) = cluster(2, &[b"m"]);
    let too_long = [
        KeyValue::new(vec![b'a'; 70_000], b"q".to_vec(), 1, b"v".to_vec()),
        KeyValue::new(b"a".to_vec(), vec![b'q'; 65_536], 1, b"v".to_vec()),
    ];
    for cell in too_long {
        assert!(client.put(vec![cell]).is_err());
    }
    for i in 0..20 {
        client
            .put(vec![kv(&format!("a{i:02}"), 1, "after")])
            .unwrap();
    }
    master.heartbeat(NodeId(1), 10_000);
    assert!(!master.tick(10_000).is_empty());
    let cells = Client::connect(&master).scan(&RowRange::all()).unwrap();
    assert_eq!(
        cells.len(),
        20,
        "every write after the refused ones recovers"
    );
    assert!(cells.iter().all(|c| &c.value[..] == b"after"));
    master.shutdown();
}
