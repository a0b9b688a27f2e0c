//! Identifiers on the Chord ring.
//!
//! Chord orders node and key identifiers on a circle modulo `2^m` (the paper's
//! Section 2.2). All interval tests used by routing and ring maintenance are
//! defined here so the wrap-around arithmetic lives in exactly one place.

use std::fmt;

/// Maximum number of identifier bits supported by [`Id`].
pub const MAX_BITS: u32 = 63;

/// An identifier in an `m`-bit circular identifier space.
///
/// The space size `m` is carried by [`IdSpace`], not by the identifier itself;
/// mixing identifiers from different spaces is a logic error that the
/// [`IdSpace`] constructors prevent by masking.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u64);

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An `m`-bit circular identifier space (`0 .. 2^m`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// Creates an identifier space with `bits` identifier bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than [`MAX_BITS`].
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=MAX_BITS).contains(&bits),
            "identifier space must have 1..={MAX_BITS} bits, got {bits}"
        );
        IdSpace { bits }
    }

    /// Number of identifier bits (`m` in the paper).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Size of the identifier space, `2^m`.
    #[inline]
    pub fn size(&self) -> u64 {
        1u64 << self.bits
    }

    /// Bit mask selecting the low `m` bits.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.size() - 1
    }

    /// Truncates an arbitrary 64-bit value into this space.
    #[inline]
    pub fn id(&self, raw: u64) -> Id {
        Id(raw & self.mask())
    }

    /// `a + b mod 2^m`.
    #[inline]
    pub fn add(&self, a: Id, b: u64) -> Id {
        Id(a.0.wrapping_add(b) & self.mask())
    }

    /// The identifier `a + 2^(j-1) mod 2^m` — the start of finger interval `j`
    /// (`1 <= j <= m`), as in the paper's finger-table definition.
    #[inline]
    pub fn finger_start(&self, a: Id, j: u32) -> Id {
        debug_assert!(j >= 1 && j <= self.bits);
        self.add(a, 1u64 << (j - 1))
    }

    /// Clockwise distance from `a` to `b` on the ring.
    #[inline]
    pub fn distance(&self, a: Id, b: Id) -> u64 {
        b.0.wrapping_sub(a.0) & self.mask()
    }

    /// Tests `x ∈ (a, b)` on the ring (exclusive at both ends).
    ///
    /// When `a == b` the interval covers the whole ring except `a` itself,
    /// matching Chord's conventions for a ring with a single node.
    #[inline]
    pub fn in_open(&self, x: Id, a: Id, b: Id) -> bool {
        if a == b {
            x != a
        } else {
            let d_ab = self.distance(a, b);
            let d_ax = self.distance(a, x);
            d_ax > 0 && d_ax < d_ab
        }
    }

    /// Tests `x ∈ (a, b]` on the ring — the interval used by
    /// `successor` ownership: key `k` belongs to the first node `n` with
    /// `k ∈ (predecessor(n), n]`.
    #[inline]
    pub fn in_open_closed(&self, x: Id, a: Id, b: Id) -> bool {
        if a == b {
            true // a single node owns the whole ring
        } else {
            let d_ab = self.distance(a, b);
            let d_ax = self.distance(a, x);
            d_ax > 0 && d_ax <= d_ab
        }
    }

    /// Tests `x ∈ [a, b)` on the ring.
    #[inline]
    pub fn in_closed_open(&self, x: Id, a: Id, b: Id) -> bool {
        x == a || self.in_open(x, a, b)
    }
}

impl Default for IdSpace {
    /// The default 32-bit space used throughout the experiments.
    fn default() -> Self {
        IdSpace::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> IdSpace {
        IdSpace::new(6) // the paper's Figure 2.1 uses m = 6
    }

    #[test]
    fn space_size_and_mask() {
        let s = sp();
        assert_eq!(s.size(), 64);
        assert_eq!(s.mask(), 63);
        assert_eq!(s.id(130), Id(2));
    }

    #[test]
    fn add_wraps_around() {
        let s = sp();
        assert_eq!(s.add(Id(60), 10), Id(6));
        assert_eq!(s.add(Id(0), 63), Id(63));
        assert_eq!(s.add(Id(63), 1), Id(0));
    }

    #[test]
    fn finger_starts_double() {
        let s = sp();
        let n = Id(8);
        assert_eq!(s.finger_start(n, 1), Id(9));
        assert_eq!(s.finger_start(n, 2), Id(10));
        assert_eq!(s.finger_start(n, 3), Id(12));
        assert_eq!(s.finger_start(n, 6), Id(40));
    }

    #[test]
    fn distance_is_clockwise() {
        let s = sp();
        assert_eq!(s.distance(Id(10), Id(20)), 10);
        assert_eq!(s.distance(Id(60), Id(4)), 8);
        assert_eq!(s.distance(Id(5), Id(5)), 0);
    }

    #[test]
    fn open_interval_wraps() {
        let s = sp();
        assert!(s.in_open(Id(25), Id(21), Id(32)));
        assert!(!s.in_open(Id(21), Id(21), Id(32)));
        assert!(!s.in_open(Id(32), Id(21), Id(32)));
        // wrap-around interval (56, 8)
        assert!(s.in_open(Id(60), Id(56), Id(8)));
        assert!(s.in_open(Id(2), Id(56), Id(8)));
        assert!(!s.in_open(Id(10), Id(56), Id(8)));
    }

    #[test]
    fn open_closed_matches_paper_example() {
        // "node N32 would be responsible for all keys in the interval (21, 32]"
        let s = sp();
        assert!(s.in_open_closed(Id(22), Id(21), Id(32)));
        assert!(s.in_open_closed(Id(32), Id(21), Id(32)));
        assert!(!s.in_open_closed(Id(21), Id(21), Id(32)));
        assert!(!s.in_open_closed(Id(33), Id(21), Id(32)));
    }

    #[test]
    fn single_node_owns_everything() {
        let s = sp();
        assert!(s.in_open_closed(Id(5), Id(40), Id(40)));
        assert!(s.in_open_closed(Id(40), Id(40), Id(40)));
    }

    #[test]
    fn closed_open_interval() {
        let s = sp();
        assert!(s.in_closed_open(Id(21), Id(21), Id(32)));
        assert!(!s.in_closed_open(Id(32), Id(21), Id(32)));
    }
}
