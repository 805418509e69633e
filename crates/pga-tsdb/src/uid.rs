//! UID assignment: strings to fixed-width 3-byte identifiers.
//!
//! OpenTSDB never stores metric or tag strings in data rows; it interns
//! them through the `tsdb-uid` table into 3-byte ids and encodes those into
//! row keys. This table is the in-process equivalent, shared by every TSD
//! daemon in the deployment.

use std::collections::HashMap;

use parking_lot::RwLock;
use std::sync::Arc;

/// Reserved name prefix for system-internal series (rollup tiers and the
/// like). Names carrying it are interned and queryable but hidden from
/// `/api/suggest`, the way OpenTSDB hides its rollup shadow metrics.
pub const RESERVED_PREFIX: char = '\u{1}';

/// A 3-byte unique id (16.7M distinct names per kind, like OpenTSDB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub [u8; 3]);

impl Uid {
    /// Construct from the low 3 bytes of a counter.
    fn from_counter(c: u32) -> Uid {
        Uid([(c >> 16) as u8, (c >> 8) as u8, c as u8])
    }
}

/// Kind of name being interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UidKind {
    /// Metric names ("energy").
    Metric,
    /// Tag keys ("unit", "sensor").
    TagKey,
    /// Tag values ("42", "917").
    TagValue,
}

#[derive(Default)]
struct Space {
    forward: HashMap<String, Uid>,
    reverse: HashMap<Uid, String>,
    next: u32,
}

impl Space {
    fn get_or_create(&mut self, name: &str) -> Uid {
        if let Some(&uid) = self.forward.get(name) {
            return uid;
        }
        self.next += 1;
        assert!(self.next < (1 << 24), "uid space exhausted");
        let uid = Uid::from_counter(self.next);
        self.forward.insert(name.to_string(), uid);
        self.reverse.insert(uid, name.to_string());
        uid
    }
}

/// Thread-safe, shared UID table covering all three namespaces.
#[derive(Clone, Default)]
pub struct UidTable {
    metrics: Arc<RwLock<Space>>,
    tag_keys: Arc<RwLock<Space>>,
    tag_values: Arc<RwLock<Space>>,
}

impl UidTable {
    /// Empty table.
    pub fn new() -> Self {
        UidTable::default()
    }

    fn space(&self, kind: UidKind) -> &Arc<RwLock<Space>> {
        match kind {
            UidKind::Metric => &self.metrics,
            UidKind::TagKey => &self.tag_keys,
            UidKind::TagValue => &self.tag_values,
        }
    }

    /// Intern `name`, assigning a new UID on first sight.
    pub fn get_or_create(&self, kind: UidKind, name: &str) -> Uid {
        // Fast path: read lock only.
        {
            let space = self.space(kind).read();
            if let Some(&uid) = space.forward.get(name) {
                return uid;
            }
        }
        self.space(kind).write().get_or_create(name)
    }

    /// Look up an existing UID without creating one.
    pub fn lookup(&self, kind: UidKind, name: &str) -> Option<Uid> {
        self.space(kind).read().forward.get(name).copied()
    }

    /// Reverse-resolve a UID to its name.
    pub fn resolve(&self, kind: UidKind, uid: Uid) -> Option<String> {
        self.space(kind).read().reverse.get(&uid).cloned()
    }

    /// Number of names interned in a namespace.
    pub fn len(&self, kind: UidKind) -> usize {
        self.space(kind).read().forward.len()
    }

    /// Names interned in a namespace that start with `prefix`, sorted,
    /// capped at `max` (backs the `/api/suggest` endpoint). Reserved
    /// system names ([`RESERVED_PREFIX`]) never appear.
    pub fn suggest(&self, kind: UidKind, prefix: &str, max: usize) -> Vec<String> {
        let space = self.space(kind).read();
        let mut names: Vec<String> = space
            .forward
            .keys()
            .filter(|n| n.starts_with(prefix) && !n.starts_with(RESERVED_PREFIX))
            .cloned()
            .collect();
        names.sort();
        names.truncate(max);
        names
    }

    /// True when the namespace has no names interned.
    pub fn is_empty(&self, kind: UidKind) -> bool {
        self.len(kind) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let t = UidTable::new();
        let a = t.get_or_create(UidKind::Metric, "energy");
        let b = t.get_or_create(UidKind::Metric, "energy");
        assert_eq!(a, b);
        assert_eq!(t.len(UidKind::Metric), 1);
    }

    #[test]
    fn namespaces_are_independent() {
        let t = UidTable::new();
        let m = t.get_or_create(UidKind::Metric, "x");
        let k = t.get_or_create(UidKind::TagKey, "x");
        let v = t.get_or_create(UidKind::TagValue, "x");
        // Same first-assigned id in each space — they do not collide
        // because the spaces are separate.
        assert_eq!([m, k, v], [Uid([0, 0, 1]); 3]);
    }

    #[test]
    fn reverse_resolution() {
        let t = UidTable::new();
        let uid = t.get_or_create(UidKind::TagKey, "unit");
        assert_eq!(t.resolve(UidKind::TagKey, uid).unwrap(), "unit");
        assert!(t.resolve(UidKind::TagKey, Uid([9, 9, 9])).is_none());
    }

    #[test]
    fn lookup_does_not_create() {
        let t = UidTable::new();
        assert!(t.lookup(UidKind::Metric, "nope").is_none());
        assert!(t.is_empty(UidKind::Metric));
    }

    #[test]
    fn uids_are_dense_and_distinct() {
        let t = UidTable::new();
        let mut uids = Vec::new();
        for i in 0..300 {
            uids.push(t.get_or_create(UidKind::TagValue, &format!("v{i}")));
        }
        let set: std::collections::HashSet<_> = uids.iter().collect();
        assert_eq!(set.len(), 300);
        assert_eq!(uids[0], Uid([0, 0, 1]));
        assert_eq!(uids[299], Uid([0, 1, 44]));
        // Byte layout is big-endian-ish: 256th id rolls the middle byte.
        assert_eq!(uids[255].0, [0, 1, 0]);
    }

    #[test]
    fn suggest_hides_reserved_names() {
        let t = UidTable::new();
        t.get_or_create(UidKind::Metric, "energy");
        t.get_or_create(UidKind::Metric, &format!("{RESERVED_PREFIX}ru:60:energy"));
        assert_eq!(t.suggest(UidKind::Metric, "", 10), vec!["energy"]);
        assert!(t
            .suggest(UidKind::Metric, &RESERVED_PREFIX.to_string(), 10)
            .is_empty());
        assert_eq!(t.len(UidKind::Metric), 2, "reserved names still intern");
    }

    #[test]
    fn shared_across_clones() {
        let t = UidTable::new();
        let c = t.clone();
        let uid = t.get_or_create(UidKind::Metric, "energy");
        assert_eq!(c.lookup(UidKind::Metric, "energy"), Some(uid));
    }
}
