//! Per-node Chord state: identifier, successor list, predecessor and the
//! finger table (the paper's Section 2.2).

use crate::id::Id;

/// A stable handle to a node slot inside a [`crate::ring::Ring`].
///
/// Handles are never reused: a node that fails or leaves keeps its slot (and
/// its key), so it can later rejoin with the same identifier — which is what
/// enables the offline-notification delivery of Section 4.6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeHandle(pub(crate) u32);

impl NodeHandle {
    /// Zero-based index of the slot (useful for indexing per-node metric
    /// arrays in the simulation harness).
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Builds a handle from a slot index. Only meaningful for indices
    /// obtained from the same [`crate::ring::Ring`]; exposed for higher
    /// layers that store handles in index-keyed structures.
    #[inline]
    pub fn from_index(index: usize) -> NodeHandle {
        NodeHandle(index as u32)
    }
}

/// The [`Node`] finger index of an unset finger.
pub(crate) const NO_FINGER: u16 = u16::MAX;

/// The Chord state a single node maintains.
#[derive(Clone, Debug)]
pub struct Node {
    /// `Key(n)` — e.g. derived from the node's public key / IP address.
    pub(crate) key: String,
    /// `id(n) = Hash(Key(n))`.
    pub(crate) id: Id,
    /// Successor list of size `r` (first entry is *the* successor).
    pub(crate) successors: Vec<NodeHandle>,
    /// Predecessor pointer, if known.
    pub(crate) predecessor: Option<NodeHandle>,
    /// The route table: every finger and successor-list entry once, as
    /// `(clockwise offset from id, handle)` sorted by offset (the node
    /// itself, when it points at itself, is the one entry at offset 0).
    /// Departed nodes stay in it; a lookup skips them. Rebuilt by the
    /// ring's pointer setters and by nothing else.
    pub(crate) route: Box<[(u64, NodeHandle)]>,
    /// Finger table: entry `j-1` points at `successor(id + 2^(j-1))`,
    /// stored as an index into `route` ([`NO_FINGER`] when unset), so each
    /// pointer is held once.
    pub(crate) fingers: Box<[u16]>,
    /// Whether the node currently participates in the ring.
    pub(crate) alive: bool,
    /// Round-robin cursor for incremental `fix_fingers`.
    pub(crate) next_finger: u32,
}

impl Node {
    pub(crate) fn new(key: String, id: Id, m: u32) -> Self {
        Node {
            key,
            id,
            successors: Vec::new(),
            predecessor: None,
            route: Box::default(),
            fingers: vec![NO_FINGER; m as usize].into(),
            alive: true,
            next_finger: 0,
        }
    }

    /// The node's identifier on the ring.
    #[inline]
    pub fn id(&self) -> Id {
        self.id
    }

    /// The node's stable key (`Key(n)`).
    #[inline]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Whether the node is currently part of the ring.
    #[inline]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The node's immediate successor, if it knows one.
    #[inline]
    pub fn successor(&self) -> Option<NodeHandle> {
        self.successors.first().copied()
    }

    /// The full successor list.
    #[inline]
    pub fn successor_list(&self) -> &[NodeHandle] {
        &self.successors
    }

    /// The predecessor pointer.
    #[inline]
    pub fn predecessor(&self) -> Option<NodeHandle> {
        self.predecessor
    }

    /// The finger table (entry `j-1` targets `id + 2^(j-1)`).
    pub fn fingers(&self) -> impl ExactSizeIterator<Item = Option<NodeHandle>> + '_ {
        self.fingers
            .iter()
            .map(|&i| self.route.get(usize::from(i)).map(|&(_, h)| h))
    }

    /// The round-robin cursor of `fix_fingers()`: the 0-based index of the
    /// finger the next refresh step rewrites.
    #[inline]
    pub fn next_finger(&self) -> u32 {
        self.next_finger
    }
}
