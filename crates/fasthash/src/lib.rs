//! Fx-style hashing for simulator-internal tables.
//!
//! The engine's two-level tables, subscriber maps and per-node stats are all
//! keyed by short strings or small integers that the simulator itself
//! produces — there is no untrusted input, so SipHash's DoS resistance (the
//! default `std::collections::HashMap` hasher) buys nothing and costs a
//! measurable fraction of every lookup. This crate provides the same
//! multiply-and-rotate hash used by `rustc-hash`/`FxHashMap` (the rustc
//! compiler's internal table hasher), hand-implemented because the build
//! environment is offline.
//!
//! Use [`FxHashMap`]/[`FxHashSet`] as drop-in replacements:
//!
//! ```
//! use cq_fasthash::FxHashMap;
//! let mut m: FxHashMap<String, u64> = FxHashMap::default();
//! m.insert("R.A".to_string(), 7);
//! assert_eq!(m.get("R.A"), Some(&7));
//! ```
//!
//! [`FirstIndex`] is a hash index of positions in a sequence its caller
//! owns, for sets and maps that keep their items in one `Vec`;
//! [`NameTable`] is such a map from names to values, found by a hash the
//! caller computed once.
//!
//! Determinism note: unlike `RandomState`, [`FxBuildHasher`] has no per-map
//! seed, so iteration order of equal-content maps is stable within a build.
//! The simulator must still not rely on map iteration order for its metric
//! vectors (it sorts or indexes explicitly) — but stability here removes a
//! whole class of accidental nondeterminism.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hasher: `state = (state rotl 5 ^ word) * K` per word, with
/// Wang's golden-ratio constant `K`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add_to_hash(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Zero-sized `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A position index over a sequence the caller owns: it finds an item by a
/// key the *sequence* stores, without holding a second copy of any key.
///
/// Open addressing over one `Vec<u64>`: a slot packs a 32-bit tag, taken
/// from the key's hash, above `position + 1`, and 0 is an empty slot. Every
/// position is filed, in order — `0, 1, 2, …` — so the index knows how full
/// it is from the position it is handed. [`FirstIndex::find`] walks the
/// slots from the tag's home and asks the caller about a position only when
/// its tag matches, so a probe nearly always asks about the wanted item or
/// about none; two keys that share a tag cost one more question and never a
/// wrong answer. The home slot is derived from the tag alone, so growing
/// re-places slots without reading any item. A sequence that loses items
/// clears the index and files what is left again.
#[derive(Clone, Debug, Default)]
pub struct FirstIndex {
    /// A power of two of them, or none before the first position is
    /// filed; at most three quarters full.
    slots: Vec<u64>,
}

impl FirstIndex {
    /// The slots a fresh index starts with.
    const MIN_SLOTS: usize = 16;

    fn tag(hash: u64) -> u64 {
        hash >> 32
    }

    /// Where a tag's probe starts: a multiplicative mix of the tag, so that
    /// tags differing in high bits only still spread.
    fn home(tag: u64, mask: usize) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// The position filed under `hash` that `is_it` accepts. `is_it` is
    /// asked only about positions whose tag matches the hash's.
    pub fn find(&self, hash: u64, mut is_it: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let (tag, mask) = (Self::tag(hash), self.slots.len() - 1);
        let mut i = Self::home(tag, mask);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if slot >> 32 == tag {
                let pos = (slot as u32 - 1) as usize;
                if is_it(pos) {
                    return Some(pos);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Files position `pos` under its key's hash. Positions are filed in
    /// order, so `pos` is also how many are filed already.
    pub fn file(&mut self, hash: u64, pos: usize) {
        debug_assert!(pos < u32::MAX as usize, "a slot holds a 32-bit position");
        if 4 * (pos + 1) > 3 * self.slots.len() {
            let slots = (2 * self.slots.len()).max(Self::MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![0; slots]);
            for slot in old.into_iter().filter(|&s| s != 0) {
                self.place(slot);
            }
        }
        self.place(Self::tag(hash) << 32 | (pos as u64 + 1));
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(slot >> 32, mask);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Forgets every position, keeping the capacity.
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// Values by name, found by a hash the caller supplies — one computed
/// once, where the name was made, so that finding a name hashes nothing.
///
/// The names are kept end to end in one `String` and the entries in one
/// `Vec`, in insertion order, over a [`FirstIndex`]; a table that is
/// cleared and filled again allocates nothing once it has grown. Entries
/// are never removed one by one.
#[derive(Clone, Debug)]
pub struct NameTable<V> {
    names: String,
    /// `(end of the name in names, hash, value)`: a name starts where the
    /// previous entry's ends.
    entries: Vec<(usize, u64, V)>,
    index: FirstIndex,
}

impl<V> Default for NameTable<V> {
    fn default() -> Self {
        NameTable {
            names: String::new(),
            entries: Vec::new(),
            index: FirstIndex::default(),
        }
    }
}

impl<V> NameTable<V> {
    fn name(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.entries[p].0);
        &self.names[start..self.entries[i].0]
    }

    /// The position of the entry filed under `hash` that `is_it` accepts,
    /// given its name and value. `is_it` is asked only about entries whose
    /// hash shares the bits [`FirstIndex`] files by.
    pub fn find_by(&self, hash: u64, mut is_it: impl FnMut(&str, &V) -> bool) -> Option<usize> {
        self.index
            .find(hash, |i| is_it(self.name(i), &self.entries[i].2))
    }

    /// The value of `name`, whose hash is `hash`.
    pub fn get(&self, hash: u64, name: &str) -> Option<&V> {
        let i = self.find_by(hash, |n, _| n == name)?;
        Some(&self.entries[i].2)
    }

    /// The value at position `i`.
    pub fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.entries[i].2
    }

    /// Appends `name`, whose hash is `hash`, with `value`; the caller has
    /// found it absent.
    pub fn push(&mut self, hash: u64, name: &str, value: V) {
        self.index.file(hash, self.entries.len());
        self.names.push_str(name);
        self.entries.push((self.names.len(), hash, value));
    }

    /// Sets the value of `name`, whose hash is `hash`, appending the name
    /// if it is absent.
    pub fn insert(&mut self, hash: u64, name: &str, value: V) {
        match self.find_by(hash, |n, _| n == name) {
            Some(i) => self.entries[i].2 = value,
            None => self.push(hash, name, value),
        }
    }

    /// `(name, hash, value)` of every entry, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, &V)> {
        let entries = self.entries.iter().enumerate();
        entries.map(|(i, (_, hash, value))| (self.name(i), *hash, value))
    }

    /// Forgets every entry, keeping the capacity.
    pub fn clear(&mut self) {
        self.names.clear();
        self.entries.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&"R.AuthorId"), hash_of(&"R.AuthorId"));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_close_keys() {
        assert_ne!(hash_of(&"R.A"), hash_of(&"R.B"));
        assert_ne!(hash_of(&("R", "A")), hash_of(&("RA", "")));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(String, String), usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert((format!("R{}", i % 7), format!("A{i}")), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&("R0".to_string(), "A0".to_string())), Some(&0));

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            s.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn spread_is_reasonable() {
        // 4096 sequential integers into 16 buckets by the top nibble of the
        // hash: no bucket should be pathologically loaded.
        let mut buckets = [0usize; 16];
        for i in 0..4096u64 {
            buckets[(hash_of(&i) >> 60) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 64 && b < 1024, "bucket count {b} far from uniform");
        }
    }

    #[test]
    fn a_probe_asks_only_about_positions_with_its_tag() {
        let keys: Vec<String> = (0..1_000).map(|i| format!("subscriber-{i}")).collect();
        let mut index = FirstIndex::default();
        for (pos, key) in keys.iter().enumerate() {
            index.file(hash_of(key), pos);
        }
        for (pos, key) in keys.iter().enumerate() {
            let mut asked = Vec::new();
            let found = index.find(hash_of(key), |i| {
                asked.push(i);
                keys[i] == *key
            });
            assert_eq!((found, asked), (Some(pos), vec![pos]), "{key}");
        }
        // A key never filed is found nowhere, and no position is asked about.
        for i in 0..1_000 {
            let absent = hash_of(&format!("absent-{i}"));
            assert_eq!(
                index.find(absent, |_| panic!("asked about a position")),
                None
            );
        }
    }

    #[test]
    fn a_name_table_tells_names_of_one_hash_apart() {
        let mut table = NameTable::default();
        for round in 0..2 {
            table.clear();
            // Every name under one hash: each probe asks about all of them.
            for (i, name) in ["a", "bb", "", "ccc"].into_iter().enumerate() {
                assert_eq!(table.get(7, name), None);
                table.push(7, name, i);
            }
            table.insert(7, "bb", 10);
            table.insert(7, "dd", 11);
            assert_eq!(table.get(7, "bb"), Some(&10));
            assert_eq!(table.get(7, ""), Some(&2));
            assert_eq!(table.get(1 << 40, "bb"), None, "round {round}");
            *table.value_mut(table.find_by(7, |_, &v| v == 3).unwrap()) += 1;
            let all: Vec<_> = table.iter().map(|(n, h, &v)| (n, h, v)).collect();
            let want = [
                ("a", 7, 0),
                ("bb", 7, 10),
                ("", 7, 2),
                ("ccc", 7, 4),
                ("dd", 7, 11),
            ];
            assert_eq!(all, want);
        }
    }

    #[test]
    fn keys_sharing_a_hash_are_told_apart_by_the_caller() {
        let mut index = FirstIndex::default();
        for pos in 0..40 {
            index.file(7, pos);
        }
        for pos in 0..40 {
            assert_eq!(index.find(7, |i| i == pos), Some(pos));
        }
        assert_eq!(index.find(7, |_| false), None);
        index.clear();
        assert_eq!(index.find(7, |_| true), None);
    }
}
