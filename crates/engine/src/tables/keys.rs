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
//!
//! The second level of the VLQT and VLTT, and a rewriter's distinct-value
//! set, are keyed by a value's canonical form as a [`ValueKey`]: up to 22
//! bytes inline — every `Int`'s form fits, `"i:-9223372036854775808"` is
//! 22 — and a longer form in one heap block. A fresh key allocates nothing
//! in the common case. It hashes exactly as the `str` it holds, and lookups
//! borrow the caller's `&str` through [`KeyView`], the same pattern again.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use cq_fasthash::FirstIndex;
use cq_relational::{Rewriting, RewrittenQuery};

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

/// Get-or-insert that looks the entry up by its `borrowed` key and builds
/// the `owned` one only when the entry does not exist yet (the `entry` API
/// would allocate an owned key on every call).
pub fn get_or_default<'m, K, Q, V>(
    map: &'m mut cq_fasthash::FxHashMap<K, V>,
    borrowed: &Q,
    owned: impl FnOnce() -> K,
) -> &'m mut V
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
    V: Default,
{
    if map.contains_key(borrowed) {
        // Invariant: present per the contains_key probe on the previous line.
        map.get_mut(borrowed).expect("checked above")
    } else {
        map.entry(owned()).or_default()
    }
}

/// Bytes of canonical form a [`ValueKey`] holds inline.
const INLINE: usize = 22;

/// A value's canonical form ([`cq_relational::Value::canonical`]) as a
/// 24-byte map key: inline up to 22 bytes, one heap block beyond.
#[derive(Clone)]
pub struct ValueKey(Form);

#[derive(Clone)]
enum Form {
    /// The form's bytes, a whole `str`, in `bytes[..len]`.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap(Box<str>),
}

impl From<&str> for ValueKey {
    fn from(text: &str) -> Self {
        let len = text.len();
        if len > INLINE {
            return ValueKey(Form::Heap(text.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..len].copy_from_slice(text.as_bytes());
        ValueKey(Form::Inline {
            len: len as u8,
            bytes,
        })
    }
}

impl ValueKey {
    /// The canonical form.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.bytes()).expect("a value key holds a whole str")
    }
}

impl std::fmt::Debug for ValueKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ValueKey").field(&self.as_str()).finish()
    }
}

/// A borrowed view of a canonical form; the lookup-side counterpart of
/// [`ValueKey`]. Both forms hash and compare by their UTF-8 bytes.
pub trait KeyView {
    /// The form's UTF-8 bytes.
    fn bytes(&self) -> &[u8];
}

impl KeyView for ValueKey {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match &self.0 {
            Form::Inline { len, bytes } => &bytes[..*len as usize],
            Form::Heap(text) => text.as_bytes(),
        }
    }
}

impl KeyView for &str {
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.as_bytes()
    }
}

// `str`'s own `Hash`: the bytes, then a 0xff terminator. So a map places,
// grows and iterates `ValueKey`s exactly as it would the `Box<str>`s.
impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.bytes());
        state.write_u8(0xff);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for dyn KeyView + '_ {}

impl Hash for ValueKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state)
    }
}

impl PartialEq for ValueKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for ValueKey {}

impl<'a> Borrow<dyn KeyView + 'a> for ValueKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// Casts a borrowed canonical form for lookup in a [`ValueKey`]-keyed map:
/// `map.get(key_view(&value_key))`.
#[inline]
pub fn key_view<'a>(text: &'a &'a str) -> &'a (dyn KeyView + 'a) {
    text
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

/// A set this small is walked rather than indexed: comparing a handful of
/// stored fingerprints is as fast as a probe, and most VLQT buckets never
/// grow past it.
const SMALL: usize = 8;

/// Up to this size every indexed probe of a debug build is checked against
/// the walk.
const SHADOW: usize = 1 << 10;

/// An insertion-ordered set of rewritten-query identities, costing what it
/// holds: the items sit in one `Vec`, and from eight items on a
/// [`FirstIndex`] over their fingerprints says which positions to compare.
/// A smaller set compares each item's fingerprint, then its identity.
/// Equality itself is always decided by comparing identities. VLQT value
/// buckets and DAI-T's rewriter memory are both this.
#[derive(Clone, Debug)]
pub struct FirstSeen<T, F = AsIs> {
    items: Vec<T>,
    /// Every position, once there are `SMALL` items; empty below.
    index: FirstIndex,
    filing: PhantomData<F>,
}

impl<T, F> Default for FirstSeen<T, F> {
    fn default() -> Self {
        FirstSeen {
            items: Vec::new(),
            index: FirstIndex::default(),
            filing: PhantomData,
        }
    }
}

impl<T: Rewriting, F: Filing> FirstSeen<T, F> {
    /// Appends `make(probe)` unless an item with the probe's identity is in
    /// the set, and hands back the stored item (`None` for a duplicate).
    pub fn insert_with<P: Borrow<RewrittenQuery>>(
        &mut self,
        probe: P,
        make: impl FnOnce(P) -> T,
    ) -> Option<&T> {
        let rq = probe.borrow();
        let key = F::file_under(rq.fingerprint());
        let pos = self.items.len();
        let seen = if pos < SMALL {
            self.walk(key, rq)
        } else {
            let found = self.index.find(key, |i| self.items[i].is_of(rq));
            // Debug builds check the index against the walk: on every probe
            // up to `SHADOW` items, and then whenever the set has doubled —
            // DAI-T's rewriter memory grows to tens of thousands of items,
            // and a walk per probe would make the tests quadratic.
            if cfg!(debug_assertions) && (pos <= SHADOW || pos.is_power_of_two()) {
                let walked = self.items.iter().position(|item| item.is_of(rq));
                assert_eq!(found, walked, "index and walk disagree");
            }
            found
        };
        if seen.is_some() {
            return None;
        }
        self.items.push(make(probe));
        if pos + 1 == SMALL {
            self.reindex();
        } else if pos >= SMALL {
            self.index.file(key, pos);
        }
        self.items.last()
    }

    /// The position of the item with `rq`'s identity, found by comparing
    /// every item: its filed fingerprint first, its identity second.
    fn walk(&self, key: u64, rq: &RewrittenQuery) -> Option<usize> {
        self.items
            .iter()
            .position(|item| F::file_under(item.fingerprint()) == key && item.is_of(rq))
    }

    /// Files every item: the set has just grown to `SMALL`.
    fn reindex(&mut self) {
        for (pos, item) in self.items.iter().enumerate() {
            self.index.file(F::file_under(item.fingerprint()), pos);
        }
    }

    /// Makes room for `additional` more items: exactly that many in an
    /// empty set — a VLQT bucket is mostly filled by one `Join` run and
    /// never again — and by amortised growth otherwise.
    pub fn reserve(&mut self, additional: usize) {
        if self.items.is_empty() {
            self.items.reserve_exact(additional);
        } else {
            self.items.reserve(additional);
        }
    }

    /// The items in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// How many items the set has room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// The items in insertion order, owned.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_fasthash::FxHashMap;
    use std::hash::BuildHasher;

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
    fn a_value_key_is_inline_up_to_22_bytes() {
        assert_eq!(std::mem::size_of::<ValueKey>(), 24);
        let inline = |text: &str| matches!(ValueKey::from(text).0, Form::Inline { .. });
        let min = cq_relational::Value::Int(i64::MIN).canonical();
        assert_eq!(min.len(), 22);
        assert!(inline(&min));
        assert!(inline(""));
        // "s:" + 19 bytes + a two-byte char from byte 21 to 23: the whole
        // form goes to the heap, not its first 22 bytes.
        let straddling = format!("s:{}é", "x".repeat(19));
        assert_eq!(straddling.len(), 23);
        assert!(!straddling.is_char_boundary(22));
        assert!(!inline(&straddling));
        for text in [min.as_str(), "", "s:héllo", &straddling] {
            assert_eq!(ValueKey::from(text).bytes(), text.as_bytes());
        }
    }

    #[test]
    fn a_value_key_hashes_as_its_text() {
        let bh = cq_fasthash::FxBuildHasher::default();
        let min = cq_relational::Value::Int(i64::MIN).canonical();
        let long = format!("s:{}é", "x".repeat(19));
        for text in ["", "i:7", min.as_str(), long.as_str()] {
            let want = bh.hash_one(text);
            assert_eq!(bh.hash_one(ValueKey::from(text)), want, "{text}");
            assert_eq!(bh.hash_one(key_view(&text)), want, "{text}");
        }
        let mut m: FxHashMap<ValueKey, u32> = FxHashMap::default();
        for (text, add) in [(min.as_str(), 1), (long.as_str(), 2), (min.as_str(), 4)] {
            *get_or_default(&mut m, key_view(&text), || ValueKey::from(text)) += add;
        }
        assert_eq!(m.get(key_view(&min.as_str())), Some(&5));
        assert_eq!(m.get(key_view(&long.as_str())), Some(&2));
        assert_eq!(m.get(key_view(&"i:7")), None);
    }

    #[test]
    fn hash_consistency_between_forms() {
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
