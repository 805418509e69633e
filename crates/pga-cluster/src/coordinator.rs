//! ZooKeeper-analog coordination service.
//!
//! The paper's HBase deployment coordinates region servers "through the
//! built-in Apache Zookeeper coordination service" (§III-A). This module
//! provides the subset the storage layer needs: a hierarchical namespace of
//! *znodes*, ephemeral nodes tied to session leases, heartbeats, and
//! first-writer-wins leader election. Time is passed in explicitly (millis)
//! so liveness tests are deterministic.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// A client session. Ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Coordination errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// Znode already exists (create) .
    NodeExists(String),
    /// Znode missing (get/set/delete).
    NoNode(String),
    /// The session has expired.
    SessionExpired(SessionId),
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::NodeExists(p) => write!(f, "znode exists: {p}"),
            CoordinatorError::NoNode(p) => write!(f, "no such znode: {p}"),
            CoordinatorError::SessionExpired(s) => write!(f, "session {} expired", s.0),
        }
    }
}

impl std::error::Error for CoordinatorError {}

#[derive(Debug, Clone)]
struct Znode {
    data: Vec<u8>,
    version: u64,
    ephemeral_owner: Option<SessionId>,
}

#[derive(Debug)]
struct SessionState {
    last_heartbeat_ms: u64,
    expired: bool,
}

/// A namespace change observed through a [`WatchHandle`].
///
/// Mirrors ZooKeeper's persistent recursive watches: one registration keeps
/// delivering every event under its prefix (no re-arming), which is what
/// tracking `/rs` membership churn needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// A znode was created under the watched prefix.
    Created(String),
    /// A znode's data changed; carries the new version.
    DataChanged {
        /// Path of the changed znode.
        path: String,
        /// Version after the change.
        version: u64,
    },
    /// A znode was explicitly deleted.
    Deleted(String),
    /// An ephemeral znode vanished because its session lease lapsed.
    SessionExpired(String),
}

impl WatchEvent {
    /// The znode path the event refers to.
    pub fn path(&self) -> &str {
        match self {
            WatchEvent::Created(p) | WatchEvent::Deleted(p) | WatchEvent::SessionExpired(p) => p,
            WatchEvent::DataChanged { path, .. } => path,
        }
    }
}

/// Receiving side of a watch registration. Events accumulate until polled;
/// dropping the handle unregisters the watch on the next delivery attempt.
pub struct WatchHandle {
    queue: Arc<Mutex<VecDeque<WatchEvent>>>,
}

impl WatchHandle {
    /// Drain all events observed since the last poll, in delivery order.
    pub fn poll(&self) -> Vec<WatchEvent> {
        self.queue.lock().drain(..).collect()
    }

    /// Number of undelivered events.
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

#[derive(Default)]
struct State {
    znodes: BTreeMap<String, Znode>,
    sessions: BTreeMap<SessionId, SessionState>,
    next_session: u64,
    watches: Vec<(String, Weak<Mutex<VecDeque<WatchEvent>>>)>,
}

impl State {
    /// Deliver `event` to every live watch whose prefix covers its path,
    /// pruning watches whose handles were dropped.
    fn fire(&mut self, event: WatchEvent) {
        self.watches.retain(|(prefix, weak)| {
            let Some(queue) = weak.upgrade() else {
                return false;
            };
            let path = event.path();
            let matches = prefix.is_empty()
                || path == prefix
                || (path.starts_with(prefix.as_str())
                    && path.as_bytes().get(prefix.len()) == Some(&b'/'));
            if matches {
                queue.lock().push_back(event.clone());
            }
            true
        });
    }
}

/// The coordination service. Cheap to clone; all clones share state.
#[derive(Clone, Default)]
pub struct Coordinator {
    state: Arc<Mutex<State>>,
    /// Session lease in milliseconds; a session missing heartbeats longer
    /// than this is expired by [`Coordinator::expire_stale_sessions`].
    lease_ms: u64,
}

impl Coordinator {
    /// Create a coordinator with the given session lease.
    pub fn new(lease_ms: u64) -> Self {
        Coordinator {
            state: Arc::new(Mutex::new(State::default())),
            lease_ms,
        }
    }

    /// Open a session at time `now_ms`.
    pub fn connect(&self, now_ms: u64) -> SessionId {
        let mut st = self.state.lock();
        st.next_session += 1;
        let id = SessionId(st.next_session);
        st.sessions.insert(
            id,
            SessionState {
                last_heartbeat_ms: now_ms,
                expired: false,
            },
        );
        id
    }

    /// Heartbeat a session, extending its lease.
    pub fn heartbeat(&self, session: SessionId, now_ms: u64) -> Result<(), CoordinatorError> {
        let mut st = self.state.lock();
        match st.sessions.get_mut(&session) {
            Some(s) if !s.expired => {
                s.last_heartbeat_ms = now_ms;
                Ok(())
            }
            _ => Err(CoordinatorError::SessionExpired(session)),
        }
    }

    /// Expire sessions whose lease has lapsed at `now_ms`, deleting their
    /// ephemeral znodes. Returns the paths removed (the master watches
    /// these to detect dead region servers).
    pub fn expire_stale_sessions(&self, now_ms: u64) -> Vec<String> {
        let mut st = self.state.lock();
        let lease = self.lease_ms;
        let dead: Vec<SessionId> = st
            .sessions
            .iter()
            .filter(|(_, s)| !s.expired && now_ms.saturating_sub(s.last_heartbeat_ms) > lease)
            .map(|(&id, _)| id)
            .collect();
        let mut removed = Vec::new();
        for id in dead {
            if let Some(s) = st.sessions.get_mut(&id) {
                s.expired = true;
            }
            let paths: Vec<String> = st
                .znodes
                .iter()
                .filter(|(_, z)| z.ephemeral_owner == Some(id))
                .map(|(p, _)| p.clone())
                .collect();
            for p in paths {
                st.znodes.remove(&p);
                // pga-allow(lock-discipline): state → watch-queue is the one global order; firing under the state lock keeps event order matching mutation order
                st.fire(WatchEvent::SessionExpired(p.clone()));
                removed.push(p);
            }
        }
        removed
    }

    /// Register a persistent recursive watch over `prefix` (empty string
    /// watches the whole namespace). Events for every create, data change,
    /// delete, and lease-expiry under the prefix are queued on the handle.
    pub fn watch(&self, prefix: &str) -> WatchHandle {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let prefix = prefix.trim_end_matches('/').to_string();
        self.state
            .lock()
            .watches
            .push((prefix, Arc::downgrade(&queue)));
        WatchHandle { queue }
    }

    /// Create a persistent znode.
    pub fn create(&self, path: &str, data: Vec<u8>) -> Result<(), CoordinatorError> {
        self.create_inner(path, data, None)
    }

    /// Create an ephemeral znode owned by `session`.
    pub fn create_ephemeral(
        &self,
        path: &str,
        data: Vec<u8>,
        session: SessionId,
    ) -> Result<(), CoordinatorError> {
        {
            let st = self.state.lock();
            match st.sessions.get(&session) {
                Some(s) if !s.expired => {}
                _ => return Err(CoordinatorError::SessionExpired(session)),
            }
        }
        self.create_inner(path, data, Some(session))
    }

    fn create_inner(
        &self,
        path: &str,
        data: Vec<u8>,
        owner: Option<SessionId>,
    ) -> Result<(), CoordinatorError> {
        let mut st = self.state.lock();
        if st.znodes.contains_key(path) {
            return Err(CoordinatorError::NodeExists(path.to_string()));
        }
        st.znodes.insert(
            path.to_string(),
            Znode {
                data,
                version: 0,
                ephemeral_owner: owner,
            },
        );
        // pga-allow(lock-discipline): state → watch-queue is the one global order; firing under the state lock keeps event order matching mutation order
        st.fire(WatchEvent::Created(path.to_string()));
        Ok(())
    }

    /// Read a znode's data and version.
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, u64), CoordinatorError> {
        let st = self.state.lock();
        st.znodes
            .get(path)
            .map(|z| (z.data.clone(), z.version))
            .ok_or_else(|| CoordinatorError::NoNode(path.to_string()))
    }

    /// Overwrite a znode's data, bumping its version.
    pub fn set(&self, path: &str, data: Vec<u8>) -> Result<u64, CoordinatorError> {
        let mut st = self.state.lock();
        let z = st
            .znodes
            .get_mut(path)
            .ok_or_else(|| CoordinatorError::NoNode(path.to_string()))?;
        z.data = data;
        z.version += 1;
        let version = z.version;
        // pga-allow(lock-discipline): state → watch-queue is the one global order; firing under the state lock keeps event order matching mutation order
        st.fire(WatchEvent::DataChanged {
            path: path.to_string(),
            version,
        });
        Ok(version)
    }

    /// Delete a znode.
    pub fn delete(&self, path: &str) -> Result<(), CoordinatorError> {
        let mut st = self.state.lock();
        st.znodes
            .remove(path)
            .ok_or_else(|| CoordinatorError::NoNode(path.to_string()))?;
        // pga-allow(lock-discipline): state → watch-queue is the one global order; firing under the state lock keeps event order matching mutation order
        st.fire(WatchEvent::Deleted(path.to_string()));
        Ok(())
    }

    /// List znodes directly under `prefix` (children, ZooKeeper-style).
    pub fn children(&self, prefix: &str) -> Vec<String> {
        let norm = if prefix.ends_with('/') {
            prefix.to_string()
        } else {
            format!("{prefix}/")
        };
        let st = self.state.lock();
        st.znodes
            .range(norm.clone()..)
            .take_while(|(p, _)| p.starts_with(&norm))
            .filter(|(p, _)| !p[norm.len()..].contains('/'))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// First-writer-wins leader election on `path`. Returns `true` when
    /// `session` became (or already was) the leader.
    pub fn elect_leader(
        &self,
        path: &str,
        session: SessionId,
        candidate: &[u8],
    ) -> Result<bool, CoordinatorError> {
        match self.create_ephemeral(path, candidate.to_vec(), session) {
            Ok(()) => Ok(true),
            Err(CoordinatorError::NodeExists(_)) => {
                let st = self.state.lock();
                Ok(st
                    .znodes
                    .get(path)
                    .is_some_and(|z| z.ephemeral_owner == Some(session)))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_set_delete_cycle() {
        let c = Coordinator::new(1000);
        c.create("/cfg", b"a".to_vec()).unwrap();
        assert_eq!(c.get("/cfg").unwrap(), (b"a".to_vec(), 0));
        assert_eq!(c.set("/cfg", b"b".to_vec()).unwrap(), 1);
        assert_eq!(c.get("/cfg").unwrap(), (b"b".to_vec(), 1));
        c.delete("/cfg").unwrap();
        assert!(matches!(c.get("/cfg"), Err(CoordinatorError::NoNode(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let c = Coordinator::new(1000);
        c.create("/x", vec![]).unwrap();
        assert!(matches!(
            c.create("/x", vec![]),
            Err(CoordinatorError::NodeExists(_))
        ));
    }

    #[test]
    fn ephemeral_node_dies_with_lease() {
        let c = Coordinator::new(100);
        let s = c.connect(0);
        c.create_ephemeral("/rs/node-1", b"alive".to_vec(), s)
            .unwrap();
        // Heartbeat keeps it alive.
        c.heartbeat(s, 80).unwrap();
        assert!(c.expire_stale_sessions(150).is_empty());
        // Silence past the lease kills it.
        let removed = c.expire_stale_sessions(300);
        assert_eq!(removed, vec!["/rs/node-1".to_string()]);
        assert!(matches!(
            c.get("/rs/node-1"),
            Err(CoordinatorError::NoNode(_))
        ));
        // The dead session cannot heartbeat or create again.
        assert!(matches!(
            c.heartbeat(s, 301),
            Err(CoordinatorError::SessionExpired(_))
        ));
        assert!(matches!(
            c.create_ephemeral("/rs/node-1", vec![], s),
            Err(CoordinatorError::SessionExpired(_))
        ));
    }

    #[test]
    fn children_lists_only_direct_descendants() {
        let c = Coordinator::new(1000);
        c.create("/rs/a", vec![]).unwrap();
        c.create("/rs/b", vec![]).unwrap();
        c.create("/rs/b/inner", vec![]).unwrap();
        c.create("/other", vec![]).unwrap();
        assert_eq!(
            c.children("/rs"),
            vec!["/rs/a".to_string(), "/rs/b".to_string()]
        );
    }

    #[test]
    fn leader_election_first_writer_wins() {
        let c = Coordinator::new(1000);
        let s1 = c.connect(0);
        let s2 = c.connect(0);
        assert!(c.elect_leader("/master", s1, b"one").unwrap());
        assert!(!c.elect_leader("/master", s2, b"two").unwrap());
        // Re-election by the holder is idempotent.
        assert!(c.elect_leader("/master", s1, b"one").unwrap());
        // When s1's lease lapses (s2 still heartbeating), s2 can win.
        c.heartbeat(s2, 500).unwrap();
        c.expire_stale_sessions(1400); // s1 silent for 1400ms > lease; s2 only 900ms
        assert!(c.elect_leader("/master", s2, b"two").unwrap());
    }

    #[test]
    fn watch_sees_create_set_delete_under_prefix() {
        let c = Coordinator::new(1000);
        let w = c.watch("/rs");
        c.create("/rs/a", b"x".to_vec()).unwrap();
        c.create("/other", vec![]).unwrap(); // outside prefix: invisible
        c.set("/rs/a", b"y".to_vec()).unwrap();
        c.delete("/rs/a").unwrap();
        assert_eq!(
            w.poll(),
            vec![
                WatchEvent::Created("/rs/a".into()),
                WatchEvent::DataChanged {
                    path: "/rs/a".into(),
                    version: 1
                },
                WatchEvent::Deleted("/rs/a".into()),
            ]
        );
        assert!(w.poll().is_empty()); // drained
    }

    #[test]
    fn watch_prefix_does_not_match_sibling_names() {
        let c = Coordinator::new(1000);
        let w = c.watch("/rs");
        c.create("/rsx", vec![]).unwrap(); // same byte prefix, different node
        assert!(w.poll().is_empty());
    }

    #[test]
    fn watch_reports_lease_expiry_as_session_expired() {
        let c = Coordinator::new(100);
        let s = c.connect(0);
        c.create_ephemeral("/stats/n1", b"{}".to_vec(), s).unwrap();
        let w = c.watch("/stats");
        c.expire_stale_sessions(500);
        assert_eq!(
            w.poll(),
            vec![WatchEvent::SessionExpired("/stats/n1".into())]
        );
    }

    #[test]
    fn dropped_watch_is_pruned() {
        let c = Coordinator::new(1000);
        let w = c.watch("/a");
        drop(w);
        c.create("/a/x", vec![]).unwrap(); // must not panic or leak
        let w2 = c.watch("/a");
        c.create("/a/y", vec![]).unwrap();
        assert_eq!(w2.pending(), 1);
    }

    #[test]
    fn persistent_nodes_survive_session_expiry() {
        let c = Coordinator::new(50);
        let s = c.connect(0);
        c.create("/persist", vec![1]).unwrap();
        c.create_ephemeral("/eph", vec![2], s).unwrap();
        c.expire_stale_sessions(1000);
        assert!(c.get("/persist").is_ok());
        assert!(c.get("/eph").is_err());
    }
}
