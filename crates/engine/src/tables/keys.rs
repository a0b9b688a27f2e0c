//! Borrow-friendly composite keys for the two-level tables.
//!
//! The tables are keyed by string pairs — `(relation, attribute)` for the
//! query/tuple tables, `(group, value)` for the DAI-V store. Keying a
//! `HashMap` by `(String, String)` forces every *lookup* to allocate two
//! fresh `String`s just to form the key. [`StrPair`] plus the [`PairQuery`]
//! trait object avoid that: the map is keyed by the owned pair, but lookups
//! pass `&(a, b) as &dyn PairQuery`, which borrows the caller's `&str`s.
//!
//! The trick is the classic `Borrow<dyn Trait>` pattern: `StrPair`
//! implements `Borrow<dyn PairQuery>`, and `Hash`/`Eq` are defined on the
//! trait object so that owned and borrowed forms hash identically.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash, Hasher};
use std::marker::PhantomData;

use cq_relational::{RewriteIdentity, RewrittenQuery};

/// An owned pair of interned strings used as a bucket key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrPair {
    /// First component (relation or group).
    pub a: Box<str>,
    /// Second component (attribute or value).
    pub b: Box<str>,
}

impl StrPair {
    /// Builds an owned pair from borrowed components.
    pub fn new(a: &str, b: &str) -> Self {
        StrPair {
            a: a.into(),
            b: b.into(),
        }
    }
}

/// A borrowed view of a string pair; the lookup-side counterpart of
/// [`StrPair`].
pub trait PairQuery {
    /// First component of the pair.
    fn first(&self) -> &str;
    /// Second component of the pair.
    fn second(&self) -> &str;
}

impl PairQuery for StrPair {
    #[inline]
    fn first(&self) -> &str {
        &self.a
    }
    #[inline]
    fn second(&self) -> &str {
        &self.b
    }
}

impl PairQuery for (&str, &str) {
    #[inline]
    fn first(&self) -> &str {
        self.0
    }
    #[inline]
    fn second(&self) -> &str {
        self.1
    }
}

impl Hash for dyn PairQuery + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.first().hash(state);
        self.second().hash(state);
    }
}

impl PartialEq for dyn PairQuery + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.first() == other.first() && self.second() == other.second()
    }
}

impl Eq for dyn PairQuery + '_ {}

// The map hashes owned keys through the same trait-object impl, so owned
// and borrowed forms land in the same bucket.
impl Hash for StrPair {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn PairQuery).hash(state)
    }
}

impl<'a> Borrow<dyn PairQuery + 'a> for StrPair {
    fn borrow(&self) -> &(dyn PairQuery + 'a) {
        self
    }
}

/// Casts a borrowed pair for map lookup:
/// `map.get(lookup_key(&(relation, attr)))`.
#[inline]
pub fn lookup_key<'a>(pair: &'a (&'a str, &'a str)) -> &'a (dyn PairQuery + 'a) {
    pair
}

/// Get-or-insert for a [`StrPair`]-keyed map that only allocates the owned
/// key when the bucket does not exist yet (the `entry` API would force an
/// allocation on every call).
pub fn bucket_mut<'m, V: Default>(
    map: &'m mut cq_fasthash::FxHashMap<StrPair, V>,
    a: &str,
    b: &str,
) -> &'m mut V {
    if map.contains_key(lookup_key(&(a, b))) {
        // Invariant: present per the contains_key probe on the previous line.
        map.get_mut(lookup_key(&(a, b))).expect("checked above")
    } else {
        map.entry(StrPair::new(a, b)).or_default()
    }
}

/// Get-or-insert for a `Box<str>`-keyed second-level map, same rationale as
/// [`bucket_mut`].
pub fn str_bucket_mut<'m, V: Default>(
    map: &'m mut cq_fasthash::FxHashMap<Box<str>, V>,
    key: &str,
) -> &'m mut V {
    if map.contains_key(key) {
        // Invariant: present per the contains_key probe on the previous line.
        map.get_mut(key).expect("checked above")
    } else {
        map.entry(key.into()).or_default()
    }
}

/// A `hash → first position` index over a sequence the caller owns: it
/// finds an item by a key the *sequence* stores, without holding a second
/// copy of any key.
///
/// [`FirstIndex::find`] starts at the first position filed under the hash
/// and asks the caller which item is the wanted one. Nearly always that is
/// the first one asked about; when two keys share all 64 bits the later one
/// is found by walking on, so a collision costs time and never a wrong
/// answer. Items are only ever appended; a sequence that loses items clears
/// the index and notes what is left again.
#[derive(Clone, Debug, Default)]
pub struct FirstIndex {
    first: cq_fasthash::FxHashMap<u64, usize>,
}

impl FirstIndex {
    /// The hash keys are filed under. Public so that tests can construct two
    /// keys that share it.
    pub fn hash(key: &str) -> u64 {
        cq_fasthash::FxBuildHasher::default().hash_one(key)
    }

    /// The position in `0..len` that `is_it` accepts, given the wanted
    /// key's [`FirstIndex::hash`].
    pub fn find(&self, hash: u64, len: usize, is_it: impl Fn(usize) -> bool) -> Option<usize> {
        let first = *self.first.get(&hash)?;
        (first..len).find(|&i| is_it(i))
    }

    /// Files position `pos` (the item being appended) under its key's hash
    /// unless an earlier position is filed there, and returns the first
    /// position under the hash — `pos` itself when the hash is new.
    pub fn note(&mut self, hash: u64, pos: usize) -> usize {
        *self.first.entry(hash).or_insert(pos)
    }

    /// Forgets every position, keeping the capacity.
    pub fn clear(&mut self) {
        self.first.clear();
    }
}

/// An item of a [`FirstSeen`] set: something that is, or remembers, one
/// rewritten query's identity ([`RewrittenQuery::same_identity`]).
pub trait Rewriting {
    /// [`RewrittenQuery::fingerprint`] of the identity.
    fn fingerprint(&self) -> u64;
    /// Whether the item has `rq`'s identity.
    fn is_of(&self, rq: &RewrittenQuery) -> bool;
}

impl Rewriting for RewriteIdentity {
    fn fingerprint(&self) -> u64 {
        RewriteIdentity::fingerprint(self)
    }

    fn is_of(&self, rq: &RewrittenQuery) -> bool {
        RewriteIdentity::is_of(self, rq)
    }
}

/// What a [`FirstSeen`] set files a fingerprint under. [`AsIs`] everywhere
/// but in tests, which file every item under one value to drive the set
/// through its collision path.
pub trait Filing {
    /// The map key for an item with this fingerprint.
    fn file_under(fingerprint: u64) -> u64;
}

/// Files an item under its own fingerprint.
#[derive(Clone, Copy, Debug, Default)]
pub struct AsIs;

impl Filing for AsIs {
    #[inline]
    fn file_under(fingerprint: u64) -> u64 {
        fingerprint
    }
}

/// An insertion-ordered set of rewritten-query identities: the items sit in
/// one `Vec` and a [`FirstIndex`] over their fingerprints says where to
/// start looking for an equal one — equality itself is always decided by
/// comparing identities. VLQT value buckets and DAI-T's rewriter memory are
/// both this.
#[derive(Clone, Debug)]
pub struct FirstSeen<T, F = AsIs> {
    items: Vec<T>,
    first: FirstIndex,
    filing: PhantomData<F>,
}

impl<T, F> Default for FirstSeen<T, F> {
    fn default() -> Self {
        FirstSeen {
            items: Vec::new(),
            first: Default::default(),
            filing: PhantomData,
        }
    }
}

impl<T: Rewriting, F: Filing> FirstSeen<T, F> {
    /// Appends `make(probe)` unless an item with the probe's identity is in
    /// the set, and hands back the stored item (`None` for a duplicate).
    /// One index probe either way: it files the new position and says
    /// where an equal item would have to sit.
    pub fn insert_with<P: Borrow<RewrittenQuery>>(
        &mut self,
        probe: P,
        make: impl FnOnce(P) -> T,
    ) -> Option<&T> {
        let rq = probe.borrow();
        let pos = self.items.len();
        let first = self.first.note(F::file_under(rq.fingerprint()), pos);
        if self.items[first..].iter().any(|item| item.is_of(rq)) {
            return None;
        }
        self.items.push(make(probe));
        self.items.last()
    }

    /// The items in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Moves the items `pred` selects to `out`, keeping the rest in order.
    pub fn extract_if(&mut self, pred: impl FnMut(&mut T) -> bool, out: &mut Vec<T>) {
        let before = out.len();
        out.extend(self.items.extract_if(.., pred));
        if out.len() > before {
            self.first.clear();
            for (pos, item) in self.items.iter().enumerate() {
                self.first.note(F::file_under(item.fingerprint()), pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_fasthash::FxHashMap;

    #[test]
    fn owned_and_borrowed_forms_agree() {
        let mut m: FxHashMap<StrPair, u32> = FxHashMap::default();
        m.insert(StrPair::new("R", "A"), 1);
        m.insert(StrPair::new("R", "B"), 2);
        assert_eq!(m.get(lookup_key(&("R", "A"))), Some(&1));
        assert_eq!(m.get(lookup_key(&("R", "B"))), Some(&2));
        assert_eq!(m.get(lookup_key(&("S", "A"))), None);
        // The separator property: ("RA","") must not collide with ("R","A").
        assert_eq!(m.get(lookup_key(&("RA", ""))), None);
    }

    #[test]
    fn hash_consistency_between_forms() {
        use std::hash::BuildHasher;
        let bh = cq_fasthash::FxBuildHasher::default();
        let owned = StrPair::new("Doc", "AuthorId");
        let borrowed: &dyn PairQuery = &("Doc", "AuthorId");
        assert_eq!(bh.hash_one(&owned), {
            let mut h = bh.build_hasher();
            borrowed.hash(&mut h);
            std::hash::Hasher::finish(&h)
        });
    }
}
