//! Hash-index support for equality joins.
//!
//! Two building blocks, both designed so the indexed matcher produces a
//! delta stream *byte-identical* to the pure-scan matcher:
//!
//! * [`IndexedList`] — an insertion-ordered list with O(1) tombstone
//!   removal. Scan-mode iteration walks the list in arrival order exactly
//!   like the plain `Vec` it replaces, while removal no longer pays the
//!   O(n) `iter().position()` walk.
//! * [`JoinIndex`] — buckets of list entries keyed by the values of the
//!   equality-tested attributes ([`IndexKey`]). A bucket preserves the
//!   arrival order of its members, so probing a bucket visits candidates
//!   in the same relative order a full scan would.
//!
//! Both use *sequence-stamped* entries: every insertion gets a fresh
//! sequence number, and an entry is live only while the owner's live map
//! (or the token slab) still maps the item to that exact sequence. This
//! makes tombstones immune to id reuse — a rolled-back transaction
//! re-asserts the same `TimeTag`, and the token slab recycles `TokId`s,
//! but stale bucket entries can never alias the reincarnation because the
//! sequence differs.

use sorete_base::{FxHashMap, Symbol, Value, Wme};
use std::hash::Hash;

/// Values of the equality-tested attributes, in test order. Small arities
/// avoid the `Vec` allocation (almost every real rule joins on one or two
/// attributes).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// One equality test.
    One(Value),
    /// Two equality tests.
    Two(Value, Value),
    /// Three or more equality tests.
    Many(Box<[Value]>),
}

impl IndexKey {
    /// Build a key from the attribute values, in test order.
    pub fn from_values(mut vals: impl Iterator<Item = Value>) -> IndexKey {
        let a = vals
            .next()
            .expect("an equality index has at least one test");
        match vals.next() {
            None => IndexKey::One(a),
            Some(b) => match vals.next() {
                None => IndexKey::Two(a, b),
                Some(c) => {
                    let mut all = vec![a, b, c];
                    all.extend(vals);
                    IndexKey::Many(all.into())
                }
            },
        }
    }
}

/// Key of a WME under an equality index on `attrs`.
pub fn wme_key(attrs: &[Symbol], wme: &Wme) -> IndexKey {
    IndexKey::from_values(attrs.iter().map(|&a| wme.get(a)))
}

/// An insertion-ordered collection with O(1) removal.
///
/// Entries are `(item, seq)` pairs; `live` maps each present item to the
/// sequence of its current entry. Removal just drops the map entry;
/// iteration filters entries against the map; the entry vector is
/// compacted once tombstones outnumber live entries.
#[derive(Debug, Default)]
pub struct IndexedList<T> {
    entries: Vec<(T, u64)>,
    live: FxHashMap<T, u64>,
    next_seq: u64,
    dead: usize,
}

impl<T: Copy + Eq + Hash> IndexedList<T> {
    /// An empty list.
    pub fn new() -> IndexedList<T> {
        IndexedList {
            entries: Vec::new(),
            live: FxHashMap::default(),
            next_seq: 0,
            dead: 0,
        }
    }

    /// Append `item`; returns the sequence stamped on this entry.
    pub fn push(&mut self, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.live.insert(item, seq).is_some() {
            // Re-insertion of a present item orphans its old entry.
            self.dead += 1;
        }
        self.entries.push((item, seq));
        seq
    }

    /// Remove `item` in O(1); returns whether it was present.
    pub fn remove(&mut self, item: T) -> bool {
        if self.live.remove(&item).is_none() {
            return false;
        }
        self.dead += 1;
        if self.dead > self.live.len() && self.dead >= 16 {
            let live = &self.live;
            self.entries.retain(|&(t, s)| live.get(&t) == Some(&s));
            self.dead = 0;
        }
        true
    }

    /// Live element count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The sequence of `item`'s current entry, if present.
    pub fn seq_of(&self, item: T) -> Option<u64> {
        self.live.get(&item).copied()
    }

    /// Live elements, in insertion order.
    pub fn iter_live(&self) -> impl Iterator<Item = T> + '_ {
        self.iter_live_seq().map(|(t, _)| t)
    }

    /// Live `(item, seq)` pairs, in insertion order.
    pub fn iter_live_seq(&self) -> impl Iterator<Item = (T, u64)> + '_ {
        self.entries
            .iter()
            .filter(|&&(t, s)| self.live.get(&t) == Some(&s))
            .map(|&(t, s)| (t, s))
    }

    /// Live elements collected into a `Vec`, in insertion order.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter_live().collect()
    }

    /// Estimated live bytes: each live element occupies one `(item, seq)`
    /// list entry plus one live-map slot (live-set methodology — see
    /// [`sorete_base::MemoryReport`]; tombstones and capacity slack are
    /// excluded, so the figure shrinks immediately on removal).
    pub fn approx_bytes(&self) -> u64 {
        Self::bytes_for(self.live.len())
    }

    fn bytes_for(live: usize) -> u64 {
        (2 * live * std::mem::size_of::<(T, u64)>()) as u64
    }

    /// `(bytes, live elements)` recounted from the entry list — the oracle
    /// the live map's length is validated against.
    pub fn walk_bytes(&self) -> (u64, u64) {
        let live = self.iter_live().count();
        (Self::bytes_for(live), live as u64)
    }
}

impl<T: Copy + Eq + Hash> FromIterator<T> for IndexedList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> IndexedList<T> {
        let mut list = IndexedList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// One hash bucket: entries in arrival order plus a tombstone count.
#[derive(Debug)]
struct Bucket<T> {
    entries: Vec<(T, u64)>,
    dead: u32,
}

/// A hash index from [`IndexKey`] to the list entries carrying that key.
///
/// The index stores `(item, seq)` pairs and delegates liveness to the
/// caller (the owning list's live map, or the token slab), so removal is
/// a counter bump plus occasional bucket compaction — never a scan of the
/// whole memory.
///
/// The two counts the byte formula multiplies — non-tombstoned entries and
/// spilled `Many` key values — are maintained by [`JoinIndex::insert`] and
/// [`JoinIndex::note_dead`], so [`JoinIndex::approx_bytes`] never visits a
/// bucket; [`JoinIndex::walk_counts`] recounts them for validation.
#[derive(Debug, Default)]
pub struct JoinIndex<T> {
    buckets: FxHashMap<IndexKey, Bucket<T>>,
    /// Σ over buckets of `entries.len() - dead`.
    live_entries: u64,
    /// Σ over `Many` keys of their value count.
    spilled_vals: u64,
}

/// Spilled values of a key (0 for the inline arities).
fn spilled(key: &IndexKey) -> u64 {
    match key {
        IndexKey::Many(vals) => vals.len() as u64,
        _ => 0,
    }
}

impl<T: Copy> JoinIndex<T> {
    /// An empty index.
    pub fn new() -> JoinIndex<T> {
        JoinIndex {
            buckets: FxHashMap::default(),
            live_entries: 0,
            spilled_vals: 0,
        }
    }

    /// Register an entry under `key`.
    pub fn insert(&mut self, key: IndexKey, item: T, seq: u64) {
        let spilled_vals = &mut self.spilled_vals;
        self.buckets
            .entry(key)
            .or_insert_with_key(|k| {
                *spilled_vals += spilled(k);
                Bucket {
                    entries: Vec::new(),
                    dead: 0,
                }
            })
            .entries
            .push((item, seq));
        self.live_entries += 1;
    }

    /// Live members of `key`'s bucket, in arrival order.
    pub fn probe(&self, key: &IndexKey, live: impl Fn(T, u64) -> bool) -> Vec<T> {
        let mut out = Vec::new();
        self.probe_into(key, live, &mut out);
        out
    }

    /// [`Self::probe`], appended to `out` (a matcher's reused scratch).
    pub fn probe_into(&self, key: &IndexKey, live: impl Fn(T, u64) -> bool, out: &mut Vec<T>) {
        if let Some(b) = self.buckets.get(key) {
            out.extend(
                b.entries
                    .iter()
                    .filter(|&&(t, s)| live(t, s))
                    .map(|&(t, _)| t),
            );
        }
    }

    /// Record that one entry under `key` died; compacts the bucket once
    /// tombstones reach half its length (dropping it when empty).
    pub fn note_dead(&mut self, key: &IndexKey, live: impl Fn(T, u64) -> bool) {
        let Some(b) = self.buckets.get_mut(key) else {
            return;
        };
        b.dead += 1;
        self.live_entries -= 1;
        if b.dead as usize * 2 > b.entries.len() {
            // The liveness predicate, not the tombstone count, decides
            // what survives: re-base the bucket's share on the outcome.
            self.live_entries -= (b.entries.len() - b.dead as usize) as u64;
            b.entries.retain(|&(t, s)| live(t, s));
            self.live_entries += b.entries.len() as u64;
            b.dead = 0;
            if b.entries.is_empty() {
                self.buckets.remove(key);
                self.spilled_vals -= spilled(key);
            }
        }
    }

    /// Distinct keys currently bucketed.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Non-tombstoned entries across every bucket (each bucket's entry
    /// count minus its recorded dead entries).
    pub fn live_entry_count(&self) -> u64 {
        self.live_entries
    }

    /// Estimated live bytes of the bucket table: one key per bucket (plus
    /// the spilled values of `Many` keys) and the live `(item, seq)`
    /// entries. Live-set methodology — see [`sorete_base::MemoryReport`].
    pub fn approx_bytes(&self) -> u64 {
        Self::bytes_for(
            self.buckets.len() as u64,
            self.live_entries,
            self.spilled_vals,
        )
    }

    /// The byte formula over its three counts.
    fn bytes_for(buckets: u64, live_entries: u64, spilled_vals: u64) -> u64 {
        use std::mem::size_of;
        buckets * size_of::<IndexKey>() as u64
            + spilled_vals * size_of::<Value>() as u64
            + live_entries * size_of::<(T, u64)>() as u64
    }

    /// `(bytes, live entries)` recounted bucket by bucket — the oracle the
    /// maintained counts are validated against.
    pub fn walk_counts(&self) -> (u64, u64) {
        let mut live_entries = 0u64;
        let mut spilled_vals = 0u64;
        for (key, b) in &self.buckets {
            spilled_vals += spilled(key);
            live_entries += (b.entries.len() as u64).saturating_sub(b.dead as u64);
        }
        (
            Self::bytes_for(self.buckets.len() as u64, live_entries, spilled_vals),
            live_entries,
        )
    }

    /// Live bucket contents, for validation against a rebuilt index.
    pub fn live_groups(&self, live: impl Fn(T, u64) -> bool) -> Vec<(IndexKey, Vec<T>)> {
        self.buckets
            .iter()
            .map(|(k, b)| {
                (
                    k.clone(),
                    b.entries
                        .iter()
                        .filter(|&&(t, s)| live(t, s))
                        .map(|&(t, _)| t)
                        .collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_list_preserves_order_and_reuses_nothing() {
        let mut l: IndexedList<u32> = IndexedList::new();
        l.push(1);
        l.push(2);
        l.push(3);
        assert_eq!(l.to_vec(), vec![1, 2, 3]);
        assert!(l.remove(2));
        assert!(!l.remove(2), "double remove is a no-op");
        assert_eq!(l.to_vec(), vec![1, 3]);
        assert_eq!(l.len(), 2);
        // Re-insertion lands at the *end* (arrival order, not old slot).
        l.push(2);
        assert_eq!(l.to_vec(), vec![1, 3, 2]);
    }

    #[test]
    fn indexed_list_reinsert_gets_fresh_seq() {
        let mut l: IndexedList<u32> = IndexedList::new();
        let s1 = l.push(7);
        l.remove(7);
        let s2 = l.push(7);
        assert_ne!(s1, s2);
        assert_eq!(l.seq_of(7), Some(s2));
        assert_eq!(l.to_vec(), vec![7]);
    }

    #[test]
    fn indexed_list_compacts_under_churn() {
        let mut l: IndexedList<u32> = IndexedList::new();
        for i in 0..64 {
            l.push(i);
        }
        for i in 0..63 {
            l.remove(i);
        }
        assert_eq!(l.to_vec(), vec![63]);
        assert!(l.entries.len() < 64, "tombstones were compacted");
    }

    #[test]
    fn join_index_probe_respects_seq_liveness() {
        // The owner's live map decides liveness; a stale seq never matches.
        let mut owner: IndexedList<u32> = IndexedList::new();
        let mut idx: JoinIndex<u32> = JoinIndex::new();
        let key = IndexKey::One(Value::Int(1));
        let s1 = owner.push(10);
        idx.insert(key.clone(), 10, s1);
        owner.remove(10);
        let s2 = owner.push(10); // same item reincarnated
        idx.insert(key.clone(), 10, s2);
        let live = |t, s| owner.seq_of(t) == Some(s);
        assert_eq!(idx.probe(&key, live), vec![10], "stale entry filtered");
    }

    #[test]
    fn join_index_note_dead_compacts_and_drops_empty_buckets() {
        let mut owner: IndexedList<u32> = IndexedList::new();
        let mut idx: JoinIndex<u32> = JoinIndex::new();
        let key = IndexKey::Two(Value::Int(1), Value::sym("x"));
        for i in 0..4 {
            let s = owner.push(i);
            idx.insert(key.clone(), i, s);
        }
        for i in 0..4 {
            owner.remove(i);
            idx.note_dead(&key, |t, s| owner.seq_of(t) == Some(s));
        }
        assert_eq!(idx.bucket_count(), 0, "empty bucket removed");
    }

    #[test]
    fn index_key_arities() {
        let one = IndexKey::from_values([Value::Int(1)].into_iter());
        assert_eq!(one, IndexKey::One(Value::Int(1)));
        let two = IndexKey::from_values([Value::Int(1), Value::Int(2)].into_iter());
        assert_eq!(two, IndexKey::Two(Value::Int(1), Value::Int(2)));
        let many = IndexKey::from_values((0..3).map(Value::Int));
        assert!(matches!(many, IndexKey::Many(_)));
    }

    #[test]
    fn numeric_cross_equality_hashes_to_one_bucket() {
        // `Value`'s Hash matches its PartialEq: Int(1) and Float(1.0) are
        // equal, so they must land in the same bucket.
        let k1 = IndexKey::One(Value::Int(1));
        let k2 = IndexKey::One(Value::Float(1.0));
        assert_eq!(k1, k2);
        let mut idx: JoinIndex<u32> = JoinIndex::new();
        idx.insert(k1, 1, 0);
        assert_eq!(idx.probe(&k2, |_, _| true), vec![1]);
    }
}
