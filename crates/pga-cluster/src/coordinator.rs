//! ZooKeeper-analog coordination service.
//!
//! The paper's HBase deployment coordinates region servers "through the
//! built-in Apache Zookeeper coordination service" (§III-A). This module
//! provides the subset the storage master uses to detect dead region
//! servers: sessions with leases, heartbeats, and *ephemeral* znodes that
//! vanish when their session's lease lapses. Time is passed in explicitly
//! (millis) so liveness tests are deterministic.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use std::sync::Arc;

/// A client session. Ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Coordination errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// Znode already exists (create).
    NodeExists(String),
    /// Znode missing (get).
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
    owner: SessionId,
}

#[derive(Debug)]
struct SessionState {
    last_heartbeat_ms: u64,
    expired: bool,
}

#[derive(Default)]
struct State {
    znodes: BTreeMap<String, Znode>,
    sessions: BTreeMap<SessionId, SessionState>,
    next_session: u64,
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
    /// ephemeral znodes. Returns the paths removed (the master reads
    /// these to detect dead region servers).
    pub fn expire_stale_sessions(&self, now_ms: u64) -> Vec<String> {
        let mut st = self.state.lock();
        let lease = self.lease_ms;
        let mut dead = Vec::new();
        for (&id, s) in st.sessions.iter_mut() {
            if !s.expired && now_ms.saturating_sub(s.last_heartbeat_ms) > lease {
                s.expired = true;
                dead.push(id);
            }
        }
        let removed: Vec<String> = st
            .znodes
            .iter()
            .filter(|(_, z)| dead.contains(&z.owner))
            .map(|(p, _)| p.clone())
            .collect();
        for p in &removed {
            st.znodes.remove(p);
        }
        removed
    }

    /// Create an ephemeral znode owned by `session`.
    pub fn create_ephemeral(
        &self,
        path: &str,
        data: Vec<u8>,
        session: SessionId,
    ) -> Result<(), CoordinatorError> {
        let mut st = self.state.lock();
        match st.sessions.get(&session) {
            Some(s) if !s.expired => {}
            _ => return Err(CoordinatorError::SessionExpired(session)),
        }
        if st.znodes.contains_key(path) {
            return Err(CoordinatorError::NodeExists(path.to_string()));
        }
        st.znodes.insert(
            path.to_string(),
            Znode {
                data,
                owner: session,
            },
        );
        Ok(())
    }

    /// Read a znode's data.
    pub fn get(&self, path: &str) -> Result<Vec<u8>, CoordinatorError> {
        let st = self.state.lock();
        st.znodes
            .get(path)
            .map(|z| z.data.clone())
            .ok_or_else(|| CoordinatorError::NoNode(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_create_rejected() {
        let c = Coordinator::new(1000);
        let (s1, s2) = (c.connect(0), c.connect(0));
        c.create_ephemeral("/x", b"a".to_vec(), s1).unwrap();
        assert!(matches!(
            c.create_ephemeral("/x", b"b".to_vec(), s2),
            Err(CoordinatorError::NodeExists(_))
        ));
        assert_eq!(c.get("/x").unwrap(), b"a".to_vec());
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

    /// Expiry is per session: a heartbeating session keeps its znodes
    /// while a silent one loses all of its own, and a later sweep does
    /// not report them again.
    #[test]
    fn only_the_silent_session_loses_its_znodes() {
        let c = Coordinator::new(1000);
        let (silent, live) = (c.connect(0), c.connect(0));
        c.create_ephemeral("/rs/0", vec![0], silent).unwrap();
        c.create_ephemeral("/rs/1", vec![1], live).unwrap();
        c.create_ephemeral("/rs/2", vec![2], silent).unwrap();
        c.heartbeat(live, 500).unwrap();
        assert_eq!(
            c.expire_stale_sessions(1400),
            vec!["/rs/0".to_string(), "/rs/2".to_string()]
        );
        assert_eq!(c.get("/rs/1").unwrap(), vec![1]);
        assert!(c.expire_stale_sessions(1400).is_empty());
    }
}
