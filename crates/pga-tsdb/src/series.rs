//! The series table: every series name resolved once.
//!
//! A fleet's series never change, yet every sample arrives spelled out as
//! `(metric, tags)` strings. OpenTSDB answers this with its UID cache and
//! the TSUID — metric UID plus tag UIDs as *the* name of a series. This
//! table is that cache: the first sight of a name runs the row-key encoder
//! once ([`crate::KeyCodec`] owns that) and keeps the result in a
//! [`Series`] entry under a dense id; every later sight is one lookup on
//! the borrowed strings under one read lock, with no allocation.
//!
//! Ids are local to one table — a [`crate::KeyCodec`] and its clones — and
//! never reach storage, the wire or JSON. Each table is stamped with a
//! process-unique identity that every one of its entries carries, so a
//! writer handed an entry of another table can tell, and refuse it, before
//! the entry's id indexes its own per-series state.

use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

/// One series of the table: a `(metric, tags)` name and its TSUID.
#[derive(Debug)]
pub struct Series {
    id: u32,
    /// Identity of the table that made this entry.
    table: u64,
    metric: String,
    tags: Vec<(String, String)>,
    tsuid: Bytes,
}

impl Series {
    /// Dense id: the `n`th series of its table has id `n - 1`.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Metric name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Tag pairs in row-key order (ascending tag-key UID), the order
    /// [`crate::KeyCodec::decode_row`] yields.
    pub fn tags(&self) -> &[(String, String)] {
        &self.tags
    }

    /// The salted row key of the series with a blank (zero) base time.
    pub fn tsuid(&self) -> &[u8] {
        &self.tsuid
    }

    /// Same multiset of tags, whatever the order.
    fn has_tags(&self, tags: &[(&str, &str)]) -> bool {
        let same = |own: &(String, String), (k, v): &(&str, &str)| own.0 == *k && own.1 == *v;
        if self.tags.len() != tags.len() {
            return false;
        }
        if self.tags.iter().zip(tags).all(|(own, t)| same(own, t)) {
            return true;
        }
        // Equal lengths, and every pair as often here as there.
        tags.iter().all(|t| {
            tags.iter().filter(|u| u == &t).count()
                == self.tags.iter().filter(|own| same(own, t)).count()
        })
    }
}

/// `hash → series id`, open-addressed; the caller tells candidates with
/// equal hashes apart. One id may sit under several hashes.
#[derive(Default)]
struct Index {
    /// Power-of-two length (or empty); at most half the slots are taken.
    slots: Vec<Option<(u64, u32)>>,
    taken: usize,
}

impl Index {
    fn find(&self, hash: u64, is_match: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            match *self.slots.get(at)? {
                None => return None,
                Some((h, id)) if h == hash && is_match(id) => return Some(id),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    fn insert(&mut self, hash: u64, id: u32) {
        if (self.taken + 1) * 2 > self.slots.len() {
            let grown = vec![None; (self.slots.len() * 2).max(16)];
            for (h, i) in std::mem::replace(&mut self.slots, grown)
                .into_iter()
                .flatten()
            {
                self.place(h, i);
            }
        }
        self.place(hash, id);
        self.taken += 1;
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].is_some() {
            at = (at + 1) & mask;
        }
        self.slots[at] = Some((hash, id));
    }
}

#[derive(Default)]
struct Inner {
    series: Vec<Arc<Series>>,
    /// By the hash of a name as some caller spelled it: a series is listed
    /// once per tag order it has been asked for in.
    by_name: Index,
    by_tsuid: Index,
}

impl Inner {
    fn named(&self, hash: u64, metric: &str, tags: &[(&str, &str)]) -> Option<&Arc<Series>> {
        let same = |id: u32| {
            self.series
                .get(id as usize)
                .is_some_and(|s| s.metric == metric && s.has_tags(tags))
        };
        self.series.get(self.by_name.find(hash, same)? as usize)
    }

    /// The series whose row keys are `row` up to the base time.
    fn of_row(&self, hash: u64, row: &[u8]) -> Option<&Arc<Series>> {
        let (salted_metric, tag_uids) = (row.get(..4)?, row.get(8..)?);
        let same = |id: u32| {
            self.series.get(id as usize).is_some_and(|s| {
                s.tsuid.len() == row.len()
                    && s.tsuid[..4] == *salted_metric
                    && s.tsuid[8..] == *tag_uids
            })
        };
        self.series.get(self.by_tsuid.find(hash, same)? as usize)
    }
}

/// Thread-safe series table, shared by clones like the UID table.
#[derive(Clone)]
pub(crate) struct SeriesTable {
    inner: Arc<RwLock<Inner>>,
    /// Process-unique: stamped into every entry of this table.
    id: u64,
    /// Names come from outside the program (`POST /api/put`), so they are
    /// hashed with the standard keyed hasher.
    hasher: RandomState,
}

impl Default for SeriesTable {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        SeriesTable {
            inner: Arc::default(),
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            hasher: RandomState::new(),
        }
    }
}

impl SeriesTable {
    /// Whether `series` is an entry of this table (or of a clone of it).
    pub(crate) fn owns(&self, series: &Series) -> bool {
        series.table == self.id
    }

    /// Hash of a row key that ignores its base time (bytes 4..8).
    fn tsuid_hash(&self, row: &[u8]) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write(row.get(..4).unwrap_or(row));
        h.write(row.get(8..).unwrap_or(&[]));
        h.finish()
    }

    /// Series in the table.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().series.len()
    }

    /// Append the entry of each of `ids` to `out`, in order, under one
    /// read lock: false, and `out` only partly filled, if the table has
    /// no entry of some id.
    pub(crate) fn by_ids(&self, ids: &[u32], out: &mut Vec<Arc<Series>>) -> bool {
        let inner = self.inner.read();
        for &id in ids {
            match inner.series.get(id as usize) {
                Some(series) => out.push(series.clone()),
                None => return false,
            }
        }
        true
    }

    /// The series named `(metric, tags)`, tags in any order; `encode`
    /// builds `(tags in row-key order, tsuid)` when the name is new in
    /// this spelling. It runs outside the table's lock: two threads racing
    /// a first sight both encode (UID assignment is idempotent) and the
    /// second finds the first's entry.
    pub(crate) fn resolve(
        &self,
        metric: &str,
        tags: &[(&str, &str)],
        encode: impl FnOnce() -> (Vec<(String, String)>, Bytes),
    ) -> Arc<Series> {
        let name_hash = self.hasher.hash_one((metric, tags));
        let found = self.inner.read().named(name_hash, metric, tags).cloned();
        if let Some(found) = found {
            return found;
        }
        let (tags_owned, tsuid) = encode();
        let tsuid_hash = self.tsuid_hash(&tsuid);
        let mut inner = self.inner.write();
        if let Some(found) = inner.named(name_hash, metric, tags) {
            return found.clone();
        }
        // A known series under a new tag order, or a new series.
        let entry = match inner.of_row(tsuid_hash, &tsuid) {
            Some(known) => known.clone(),
            None => {
                let id = u32::try_from(inner.series.len()).expect("fewer than 2^32 series");
                let entry = Arc::new(Series {
                    id,
                    table: self.id,
                    metric: metric.to_string(),
                    tags: tags_owned,
                    tsuid,
                });
                inner.series.push(entry.clone());
                inner.by_tsuid.insert(tsuid_hash, id);
                entry
            }
        };
        inner.by_name.insert(name_hash, entry.id);
        entry
    }

    /// The series whose row keys are `row` up to the base time, if this
    /// table has seen it.
    pub(crate) fn of_row(&self, row: &[u8]) -> Option<Arc<Series>> {
        self.inner.read().of_row(self.tsuid_hash(row), row).cloned()
    }
}
