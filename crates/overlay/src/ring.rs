//! The Chord ring: membership, ownership, joins, leaves, failures and
//! stabilization (the paper's Section 2.2).
//!
//! The whole overlay lives in one process: the [`Ring`] owns every node's
//! state and the routing functions walk real finger tables hop by hop, so
//! hop counts are those an actual deployment would pay.

use std::collections::BTreeMap;

use crate::error::{OverlayError, Result};
use crate::hash::hash_key;
use crate::id::{Id, IdSpace, MAX_BITS};
use crate::node::{Node, NodeHandle, NO_FINGER};

/// Default successor-list length (`r` in the paper; "in practice even small
/// values of r are enough to achieve robustness").
pub const DEFAULT_SUCCESSOR_LIST_LEN: usize = 4;

/// A simulated Chord overlay network.
#[derive(Clone, Debug)]
pub struct Ring {
    space: IdSpace,
    succ_len: usize,
    slots: Vec<Node>,
    /// Alive nodes ordered by identifier — the ground truth used to verify
    /// routing and to implement perfect pointer construction.
    by_id: BTreeMap<u64, NodeHandle>,
    /// Bumped by every change to `by_id` (node insert, join, rejoin, leave,
    /// fail). Ownership is a function of `by_id` alone, so anything derived
    /// from ownership stays valid exactly as long as the epoch stands still.
    epoch: u64,
    /// `true` when the last full [`Ring::stabilize_all`] round changed no
    /// pointer and nothing has mutated the ring since. A round is a
    /// deterministic function of the ring state, so at such a fixed point
    /// the next round would change nothing either and is skipped. Every
    /// mutator clears the flag; only `stabilize_all` sets it.
    converged: bool,
    /// The buffer [`Ring::install`] sorts a route table in before copying
    /// it out at its exact length; empty between calls.
    route_scratch: Vec<(u64, NodeHandle)>,
}

impl Ring {
    /// Creates an empty ring over the given identifier space.
    pub fn new(space: IdSpace) -> Self {
        Ring::with_successor_list(space, DEFAULT_SUCCESSOR_LIST_LEN)
    }

    /// Creates an empty ring with an explicit successor-list length `r`.
    pub fn with_successor_list(space: IdSpace, succ_len: usize) -> Self {
        assert!(succ_len >= 1, "successor list must hold at least one entry");
        // A route table holds at most `m + r` entries, indexed by `u16`.
        assert!(
            succ_len < usize::from(NO_FINGER) - MAX_BITS as usize,
            "successor list of {succ_len} entries is too long"
        );
        Ring {
            space,
            succ_len,
            slots: Vec::new(),
            by_id: BTreeMap::new(),
            epoch: 0,
            converged: false,
            route_scratch: Vec::new(),
        }
    }

    /// Builds a stable `n`-node network with keys `"{key_prefix}{i}"` and
    /// fully correct successor/predecessor/finger pointers — the steady state
    /// the paper's experiments assume.
    pub fn build(space: IdSpace, n: usize, key_prefix: &str) -> Self {
        let mut ring = Ring::new(space);
        let mut added = 0usize;
        let mut attempt = 0usize;
        while added < n {
            let key = format!("{key_prefix}{attempt}");
            attempt += 1;
            if ring.insert_node(&key).is_ok() {
                added += 1;
            }
        }
        ring.rebuild_pointers();
        ring
    }

    /// The identifier space of this ring.
    #[inline]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of alive nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the ring has no alive nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The membership epoch: a counter that moves whenever the set of alive
    /// nodes — and with it any ownership arc — changes. Equal epochs mean
    /// [`Ring::owner_of`] answers identically for every identifier.
    #[inline]
    pub fn membership_epoch(&self) -> u64 {
        self.epoch
    }

    /// Records a change to `by_id`.
    #[inline]
    fn membership_changed(&mut self) {
        self.epoch += 1;
        self.converged = false;
    }

    /// Total number of slots ever allocated (alive + departed).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Immutable access to a node's state.
    #[inline]
    pub fn node(&self, h: NodeHandle) -> &Node {
        &self.slots[h.index()]
    }

    /// Iterates over the handles of all alive nodes in identifier order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.by_id.values().copied()
    }

    /// Identifier of a node.
    #[inline]
    pub fn id_of(&self, h: NodeHandle) -> Id {
        self.slots[h.index()].id
    }

    /// Ground truth: the alive node responsible for `id`
    /// (`successor(id)` in the paper's terminology).
    pub fn owner_of(&self, id: Id) -> Result<NodeHandle> {
        if self.by_id.is_empty() {
            return Err(OverlayError::EmptyRing);
        }
        // first alive node with identifier >= id, wrapping around
        let h = self
            .by_id
            .range(id.0..)
            .next()
            .or_else(|| self.by_id.iter().next())
            .map(|(_, &h)| h)
            .expect("non-empty map");
        Ok(h)
    }

    /// The range `(pred, id]` a node is responsible for, as ground truth.
    pub fn owned_range(&self, h: NodeHandle) -> Result<(Id, Id)> {
        let node = self.node(h);
        if !node.alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let id = node.id;
        let pred = self
            .by_id
            .range(..id.0)
            .next_back()
            .or_else(|| self.by_id.iter().next_back())
            .map(|(&i, _)| Id(i))
            .expect("alive node implies non-empty map");
        Ok((pred, id))
    }

    /// Whether `h` is (per ground truth) responsible for identifier `id`.
    pub fn owns(&self, h: NodeHandle, id: Id) -> bool {
        match self.owner_of(id) {
            Ok(owner) => owner == h,
            Err(_) => false,
        }
    }

    /// Inserts a brand-new node with the given key and *no* pointers set.
    /// Used by [`Ring::build`] and by [`Ring::join`].
    pub fn insert_node(&mut self, key: &str) -> Result<NodeHandle> {
        let id = hash_key(self.space, key);
        if let Some(&existing) = self.by_id.get(&id.0) {
            return Err(OverlayError::IdCollision {
                id,
                existing_key: self.node(existing).key.clone(),
                new_key: key.to_string(),
            });
        }
        let h = NodeHandle(self.slots.len() as u32);
        self.slots
            .push(Node::new(key.to_string(), id, self.space.bits()));
        self.by_id.insert(id.0, h);
        self.membership_changed();
        Ok(h)
    }

    /// Recomputes every alive node's successor list, predecessor and finger
    /// table from ground truth ("perfect" pointers).
    ///
    /// One pass over the alive nodes sorted by identifier: the successors
    /// are the next `min(r, n)` entries (wrapping), the predecessor the
    /// previous one, and each finger a binary search for its start.
    pub fn rebuild_pointers(&mut self) {
        let sorted: Vec<(u64, NodeHandle)> = self.by_id.iter().map(|(&i, &h)| (i, h)).collect();
        let n = sorted.len();
        if n == 0 {
            return;
        }
        self.converged = false;
        let space = self.space;
        for (i, &(id, h)) in sorted.iter().enumerate() {
            let succs = (1..=self.succ_len.min(n))
                .map(|k| sorted[(i + k) % n].1)
                .collect();
            let pred = sorted[(i + n - 1) % n].1;
            self.set_pointers(h, succs, Some(pred), |j| {
                let start = space.finger_start(Id(id), j).0;
                Some(sorted[sorted.partition_point(|&(x, _)| x < start) % n].1)
            });
        }
    }

    /// A node joins the ring through `via` (the out-of-band contact node of
    /// Section 2.2): only its successor pointer is discovered (by routing a
    /// lookup through `via`); stabilization must propagate the rest.
    ///
    /// Returns the new handle and the number of overlay hops the join lookup
    /// consumed.
    pub fn join(&mut self, key: &str, via: NodeHandle) -> Result<(NodeHandle, usize)> {
        if !self.node(via).alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let id = hash_key(self.space, key);
        // Route before inserting, so the lookup sees the pre-join ring.
        let (succ, hops) = self.route_owner(via, id)?;
        if let Some(&existing) = self.by_id.get(&id.0) {
            return Err(OverlayError::IdCollision {
                id,
                existing_key: self.node(existing).key.clone(),
                new_key: key.to_string(),
            });
        }
        let h = NodeHandle(self.slots.len() as u32);
        self.slots
            .push(Node::new(key.to_string(), id, self.space.bits()));
        self.set_successors(h, vec![succ]);
        self.by_id.insert(id.0, h);
        self.membership_changed();
        Ok((h, hops))
    }

    /// A previously departed node rejoins with its old key (and therefore its
    /// old identifier) — the Section 4.6 reconnection scenario.
    pub fn rejoin(&mut self, h: NodeHandle, via: NodeHandle) -> Result<usize> {
        if self.node(h).alive {
            return Err(OverlayError::NodeAlreadyAlive);
        }
        if !self.node(via).alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let id = self.id_of(h);
        let (succ, hops) = self.route_owner(via, id)?;
        debug_assert!(!self.by_id.contains_key(&id.0), "slot ids are unique");
        self.slots[h.index()].alive = true;
        self.set_pointers(h, vec![succ], None, |_| None);
        self.by_id.insert(id.0, h);
        self.membership_changed();
        Ok(hops)
    }

    /// Voluntary departure: the node informs its successor and predecessor so
    /// they can splice it out immediately (Section 2.2). The caller is
    /// responsible for transferring the node's keys to its successor first
    /// (see [`Ring::owner_of`] after the call, or capture the successor with
    /// [`Node::successor`] before it).
    pub fn leave(&mut self, h: NodeHandle) -> Result<()> {
        if !self.node(h).alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let id = self.id_of(h);
        self.by_id.remove(&id.0);
        self.membership_changed();
        let succ = self.first_alive_successor(h);
        let pred = self.node(h).predecessor.filter(|&p| self.node(p).alive);
        if let (Some(s), Some(p)) = (succ, pred) {
            if s != h && p != h {
                // predecessor adopts our successor; successor adopts our predecessor
                let mut list = self.node(p).successors.clone();
                if list.first() == Some(&h) {
                    list[0] = s;
                } else {
                    list.insert(0, s);
                    list.truncate(self.succ_len);
                }
                self.set_successors(p, list);
                if self.node(s).predecessor == Some(h) {
                    self.set_predecessor(s, Some(p));
                }
            }
        }
        self.slots[h.index()].alive = false;
        Ok(())
    }

    /// Abrupt failure: the node vanishes without telling anyone. Pointers at
    /// other nodes keep referring to it until stabilization repairs them.
    pub fn fail(&mut self, h: NodeHandle) -> Result<()> {
        if !self.node(h).alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let id = self.id_of(h);
        self.by_id.remove(&id.0);
        self.membership_changed();
        self.slots[h.index()].alive = false;
        Ok(())
    }

    /// First alive entry of `h`'s successor list, skipping failed nodes —
    /// how Chord survives successor failures.
    pub fn first_alive_successor(&self, h: NodeHandle) -> Option<NodeHandle> {
        self.node(h)
            .successor_list()
            .iter()
            .copied()
            .find(|&s| self.node(s).alive)
    }

    /// The `k` first alive successors of `h` clockwise around the ring
    /// (ground truth, excluding `h` itself) — the replica set a node's state
    /// is mirrored onto. Yields fewer than `k` handles when fewer other
    /// nodes are alive. `h` itself may be alive or departed: a departed
    /// node's successors are the nodes that now cover its old range. A walk
    /// of the membership map, allocating nothing.
    pub fn successors_of(&self, h: NodeHandle, k: usize) -> impl Iterator<Item = NodeHandle> + '_ {
        let id = self.id_of(h).0;
        let after = self.by_id.range(id + 1..);
        let wrapped = self.by_id.range(..=id);
        after
            .chain(wrapped)
            .map(|(_, &s)| s)
            .filter(move |&s| s != h)
            .take(k)
    }

    // ------------------------------------------------------------------
    // Stabilization (Section 2.2): periodic algorithms every node runs.
    // ------------------------------------------------------------------

    /// One `stabilize()` round for node `h`: ask the successor for its
    /// predecessor, adopt it if it sits between us, notify the successor,
    /// and refresh the successor list from the successor's list. Returns
    /// whether any pointer changed.
    pub fn stabilize(&mut self, h: NodeHandle) -> bool {
        if !self.node(h).alive {
            return false;
        }
        let mut changed = false;
        if self.first_alive_successor(h).is_none() {
            // The whole successor list died at once (more than `r` adjacent
            // failures). Fall back to the closest alive node we still know
            // of — fingers or predecessor; if nothing is alive we must be
            // alone and point at ourselves, as Chord's single node does.
            match self.emergency_successor(h) {
                Some(s) => changed |= self.set_successors(h, vec![s]),
                None => {
                    changed |= self.set_successors(h, vec![h]);
                    changed |= self.set_predecessor(h, Some(h));
                    return changed;
                }
            }
        }
        let Some(succ) = self.first_alive_successor(h) else {
            return changed;
        };
        let id = self.id_of(h);
        // Adopt a recently joined node sitting between us and our successor.
        let mut new_succ = succ;
        if let Some(sp) = self.node(succ).predecessor {
            if self.node(sp).alive && sp != h {
                let sp_id = self.id_of(sp);
                if self.space.in_open(sp_id, id, self.id_of(succ)) {
                    new_succ = sp;
                }
            }
        }
        // Refresh our successor list: new_succ followed by its list.
        let mut list = Vec::with_capacity(self.succ_len);
        list.push(new_succ);
        for &s in self.node(new_succ).successor_list() {
            if list.len() >= self.succ_len {
                break;
            }
            if s != h && self.node(s).alive && !list.contains(&s) {
                list.push(s);
            }
        }
        changed |= self.set_successors(h, list);
        // notify(new_succ): "h might be your predecessor"
        let ns_id = self.id_of(new_succ);
        let adopt = match self.node(new_succ).predecessor {
            Some(p) if self.node(p).alive => self.space.in_open(id, self.id_of(p), ns_id),
            _ => true,
        };
        if adopt && new_succ != h {
            changed |= self.set_predecessor(new_succ, Some(h));
        }
        changed
    }

    // ------------------------------------------------------------------
    // Pointer setters: every write to a successor list or a finger goes
    // through `set_successors`, `set_finger` or `set_pointers`, and each
    // ends in `install`, which rebuilds the node's route table.
    // ------------------------------------------------------------------

    /// Assigns `h`'s successor list; returns whether it differed. A change
    /// leaves the stabilization fixed point.
    fn set_successors(&mut self, h: NodeHandle, list: Vec<NodeHandle>) -> bool {
        if self.node(h).successors == list {
            return false;
        }
        let fingers = self.finger_handles(h);
        self.slots[h.index()].successors = list;
        self.install(h, &fingers);
        true
    }

    /// Assigns `h`'s finger `j` (1-based); returns whether it differed.
    fn set_finger(&mut self, h: NodeHandle, j: u32, finger: Option<NodeHandle>) -> bool {
        let j = (j - 1) as usize;
        if self.node(h).fingers().nth(j) == Some(finger) {
            return false;
        }
        let mut fingers = self.finger_handles(h);
        fingers[j] = finger;
        self.install(h, &fingers);
        true
    }

    /// Assigns all of `h`'s pointers at once, finger `j` (1-based) to
    /// `finger(j)`, with one route-table rebuild instead of one per finger.
    fn set_pointers(
        &mut self,
        h: NodeHandle,
        successors: Vec<NodeHandle>,
        predecessor: Option<NodeHandle>,
        finger: impl Fn(u32) -> Option<NodeHandle>,
    ) {
        let mut fingers = [None; MAX_BITS as usize];
        for (j, f) in (1..=self.space.bits()).zip(&mut fingers) {
            *f = finger(j);
        }
        let node = &mut self.slots[h.index()];
        node.successors = successors;
        node.predecessor = predecessor;
        self.install(h, &fingers);
    }

    /// `h`'s fingers as handles, finger `j` at index `j - 1`.
    fn finger_handles(&self, h: NodeHandle) -> [Option<NodeHandle>; MAX_BITS as usize] {
        let mut out = [None; MAX_BITS as usize];
        for (o, f) in out.iter_mut().zip(self.node(h).fingers()) {
            *o = f;
        }
        out
    }

    /// Rebuilds `h`'s route table, at its exact length, from `fingers`
    /// (finger `j` at index `j - 1`) and its successor list, and points
    /// its fingers into it. Leaves the stabilization fixed point.
    fn install(&mut self, h: NodeHandle, fingers: &[Option<NodeHandle>; MAX_BITS as usize]) {
        let fingers = &fingers[..self.space.bits() as usize];
        let mut table = std::mem::take(&mut self.route_scratch);
        let node = &self.slots[h.index()];
        let entry = |p: NodeHandle| (self.space.distance(node.id, self.id_of(p)), p);
        table.extend(
            fingers
                .iter()
                .flatten()
                .chain(&node.successors)
                .map(|&p| entry(p)),
        );
        table.sort_unstable();
        table.dedup();
        let mut indices = [NO_FINGER; MAX_BITS as usize];
        for (i, f) in indices.iter_mut().zip(fingers) {
            if let Some(p) = f {
                // Invariant: the table was just built from these fingers,
                // and its length is checked below `NO_FINGER` at creation.
                *i = table
                    .binary_search(&entry(*p))
                    .expect("finger is in the table") as u16;
            }
        }
        let node = &mut self.slots[h.index()];
        node.route = Box::from(table.as_slice());
        node.fingers.copy_from_slice(&indices[..fingers.len()]);
        table.clear();
        self.route_scratch = table;
        self.converged = false;
    }

    /// Assigns `h`'s predecessor pointer; returns whether it differed. A
    /// change leaves the stabilization fixed point.
    fn set_predecessor(&mut self, h: NodeHandle, pred: Option<NodeHandle>) -> bool {
        let node = &mut self.slots[h.index()];
        if node.predecessor == pred {
            return false;
        }
        node.predecessor = pred;
        self.converged = false;
        true
    }

    /// One `fix_fingers()` step for node `h`: refresh the next finger entry
    /// (round-robin), using greedy routing through the current ring state.
    /// Returns whether the finger pointer changed.
    ///
    /// The round-robin cursor always advances, so a lone step leaves the
    /// stabilization fixed point; only the full cycle [`Ring::stabilize_all`]
    /// runs brings the cursor back to where it started.
    pub fn fix_finger(&mut self, h: NodeHandle) -> bool {
        if !self.node(h).alive {
            return false;
        }
        self.converged = false;
        let m = self.space.bits();
        let j = (self.node(h).next_finger % m) + 1; // 1-based finger index
        self.slots[h.index()].next_finger = j % m;
        let start = self.space.finger_start(self.id_of(h), j);
        let Ok((owner, _)) = self.route_owner(h, start) else {
            return false;
        };
        self.set_finger(h, j, Some(owner))
    }

    /// The closest alive node clockwise from `h` among everything `h` still
    /// knows (fingers and predecessor), used when the successor list is
    /// entirely dead.
    fn emergency_successor(&self, h: NodeHandle) -> Option<NodeHandle> {
        let id = self.id_of(h);
        let node = self.node(h);
        let mut best: Option<(u64, NodeHandle)> = None;
        let candidates = node.fingers().flatten().chain(node.predecessor);
        for cand in candidates {
            if cand == h || !self.node(cand).alive {
                continue;
            }
            let d = self.space.distance(id, self.id_of(cand));
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, n)| n)
    }

    /// `check_predecessor()`: clear the predecessor pointer if it has failed.
    /// Returns whether the pointer changed.
    pub fn check_predecessor(&mut self, h: NodeHandle) -> bool {
        if !self.node(h).alive {
            return false;
        }
        match self.node(h).predecessor {
            Some(p) if !self.node(p).alive => self.set_predecessor(h, None),
            _ => false,
        }
    }

    /// Runs `rounds` full stabilization sweeps over every alive node
    /// (stabilize + check_predecessor + a full finger refresh).
    ///
    /// A sweep is a deterministic function of the ring state, and a full
    /// finger refresh returns every round-robin cursor to where it started.
    /// So once a sweep has changed no pointer, every further sweep is the
    /// identity until something mutates the ring — and is skipped.
    pub fn stabilize_all(&mut self, rounds: usize) {
        let m = self.space.bits();
        for _ in 0..rounds {
            if self.converged {
                return;
            }
            let handles: Vec<NodeHandle> = self.alive_nodes().collect();
            let mut changed = false;
            for &h in &handles {
                changed |= self.check_predecessor(h);
                changed |= self.stabilize(h);
            }
            for &h in &handles {
                for _ in 0..m {
                    changed |= self.fix_finger(h);
                }
            }
            self.converged = !changed;
        }
    }
}

/// The hop-by-hop path a routed message takes. `path[0]` is the sender;
/// the final element is the responsible node (`successor(target)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Every node the message visited, starting at the sender.
    pub path: Vec<NodeHandle>,
    /// The node responsible for the target identifier.
    pub owner: NodeHandle,
}

impl Route {
    /// Number of overlay hops consumed (edges traversed).
    #[inline]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

impl Ring {
    /// Greedy Chord routing of the paper's `send(msg, I)`: walk finger tables
    /// from `from` until the node responsible for `target` is reached.
    /// Returns the full hop path so callers can account traffic.
    ///
    /// This is the path-materializing variant (used by tests and anything
    /// that inspects intermediate hops). The simulator's message loop only
    /// needs the destination and the hop count — use [`Ring::route_owner`]
    /// there, which walks the identical greedy path without allocating.
    pub fn route(&self, from: NodeHandle, target: Id) -> Result<Route> {
        let mut path = Vec::with_capacity(8);
        let (owner, _hops) = self.route_core(from, target, |h| path.push(h))?;
        Ok(Route { path, owner })
    }

    /// Allocation-free fast path of [`Ring::route`]: returns the node
    /// responsible for `target` and the number of overlay hops the greedy
    /// walk consumed, without materializing the path.
    ///
    /// Guaranteed to visit exactly the same nodes as `route` (both are thin
    /// wrappers over one walk), so hop accounting is bit-identical whichever
    /// variant a caller uses.
    #[inline]
    pub fn route_owner(&self, from: NodeHandle, target: Id) -> Result<(NodeHandle, usize)> {
        self.route_core(from, target, |_| ())
    }

    /// [`Ring::route`] for trace capture: appends each visited node's slot
    /// to `path` (sender first) instead of materializing an intermediate
    /// handle vector. Same greedy walk, bit-identical hop accounting.
    pub fn route_owner_path(
        &self,
        from: NodeHandle,
        target: Id,
        path: &mut Vec<u32>,
    ) -> Result<(NodeHandle, usize)> {
        self.route_core(from, target, |h| path.push(h.index() as u32))
    }

    /// The greedy walk shared by [`Ring::route`] and [`Ring::route_owner`].
    /// `visit` observes every node on the path, starting with `from`;
    /// returns the owner and the hop count (nodes visited minus one).
    fn route_core<F: FnMut(NodeHandle)>(
        &self,
        from: NodeHandle,
        target: Id,
        mut visit: F,
    ) -> Result<(NodeHandle, usize)> {
        if !self.node(from).alive {
            return Err(OverlayError::NodeNotAlive);
        }
        let mut cur = from;
        let mut hops = 0usize;
        visit(from);
        // A node knows its own range: deliver locally when we own the target.
        if self.local_owner_check(cur, target) {
            return Ok((cur, hops));
        }
        let max_hops = 4 * self.space.bits() as usize + self.by_id.len() + 8;
        loop {
            if hops + 1 > max_hops {
                return Err(OverlayError::RoutingFailed {
                    target,
                    hops: hops + 1,
                });
            }
            let Some(succ) = self.first_alive_successor(cur) else {
                return Err(OverlayError::RoutingFailed {
                    target,
                    hops: hops + 1,
                });
            };
            let cur_id = self.id_of(cur);
            if self.space.in_open_closed(target, cur_id, self.id_of(succ)) {
                visit(succ);
                return Ok((succ, hops + 1));
            }
            let next = self.closest_preceding_alive(cur, target).unwrap_or(succ);
            if next == cur {
                // no progress through fingers; fall back to the successor
                cur = succ;
            } else {
                cur = next;
            }
            visit(cur);
            hops += 1;
            // The forwarding node may itself be responsible (paper: "if
            // id(x) >= I then x processes msg").
            if self.local_owner_check(cur, target) {
                return Ok((cur, hops));
            }
        }
    }

    /// Whether `h` can tell from its own predecessor pointer that it is
    /// responsible for `target`.
    fn local_owner_check(&self, h: NodeHandle, target: Id) -> bool {
        match self.node(h).predecessor {
            Some(p) if self.node(p).alive => {
                self.space
                    .in_open_closed(target, self.id_of(p), self.id_of(h))
            }
            _ => self.by_id.len() == 1,
        }
    }

    /// Chord's `closest_preceding_finger`: the highest finger (or successor-
    /// list entry) that is alive and lies strictly between `h` and `target`.
    ///
    /// The route table is sorted by clockwise offset from `h`, so the
    /// entries inside `(h, target)` are a prefix, and the one closest to
    /// `target` is the last alive entry of that prefix. When `target` is
    /// `h` itself the interval is the whole ring but `h`. The prefix is
    /// counted rather than binary-searched: the table holds at most `m + r`
    /// entries, and the branch-free count is the faster of the two.
    fn closest_preceding_alive(&self, h: NodeHandle, target: Id) -> Option<NodeHandle> {
        let node = self.node(h);
        let limit = match self.space.distance(node.id, target) {
            0 => u64::MAX,
            d => d,
        };
        let inside = node.route.iter().filter(|&&(o, _)| o < limit).count();
        let found = node.route[..inside]
            .iter()
            .rev()
            .take_while(|&&(o, _)| o > 0)
            .map(|&(_, p)| p)
            .find(|&p| self.node(p).alive);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            found,
            self.closest_preceding_scan(h, target),
            "route table of {h:?} disagrees with its pointers"
        );
        found
    }

    /// The route-table-free rule [`Ring::closest_preceding_alive`] is
    /// checked against in debug builds: scan every finger and successor-list
    /// entry for the alive one inside `(h, target)` nearest to `target`.
    #[cfg(debug_assertions)]
    fn closest_preceding_scan(&self, h: NodeHandle, target: Id) -> Option<NodeHandle> {
        let id = self.id_of(h);
        let node = self.node(h);
        node.fingers()
            .flatten()
            .chain(node.successors.iter().copied())
            .filter(|&c| self.node(c).alive && self.space.in_open(self.id_of(c), id, target))
            .min_by_key(|&c| self.space.distance(self.id_of(c), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ring(n: usize) -> Ring {
        Ring::build(IdSpace::new(16), n, "node-")
    }

    #[test]
    fn build_creates_n_alive_nodes() {
        let ring = small_ring(50);
        assert_eq!(ring.len(), 50);
        assert_eq!(ring.alive_nodes().count(), 50);
    }

    #[test]
    fn owner_is_first_clockwise() {
        let ring = small_ring(20);
        let handles: Vec<_> = ring.alive_nodes().collect();
        for w in handles.windows(2) {
            let (a, b) = (w[0], w[1]);
            let mid = Id((ring.id_of(a).0 + ring.id_of(b).0) / 2 + 1);
            if mid != ring.id_of(a) {
                assert_eq!(ring.owner_of(mid).unwrap(), b);
            }
        }
    }

    #[test]
    fn owner_wraps_around() {
        let ring = small_ring(20);
        let first = ring.alive_nodes().next().unwrap();
        let last = ring.alive_nodes().last().unwrap();
        let behind_last = ring.space().add(ring.id_of(last), 1);
        assert_eq!(ring.owner_of(behind_last).unwrap(), first);
    }

    #[test]
    fn owned_range_covers_ring_exactly_once() {
        let ring = small_ring(13);
        let mut total = 0u64;
        for h in ring.alive_nodes() {
            let (pred, id) = ring.owned_range(h).unwrap();
            total += ring.space().distance(pred, id);
        }
        assert_eq!(total, ring.space().size());
    }

    #[test]
    fn perfect_fingers_match_definition() {
        let ring = small_ring(40);
        for h in ring.alive_nodes() {
            let node = ring.node(h);
            for j in 1..=ring.space().bits() {
                let start = ring.space().finger_start(node.id(), j);
                let expect = ring.owner_of(start).unwrap();
                assert_eq!(node.fingers().nth((j - 1) as usize), Some(Some(expect)));
            }
        }
    }

    #[test]
    fn routing_reaches_true_owner_from_everywhere() {
        let ring = small_ring(64);
        let targets: Vec<Id> = (0..50)
            .map(|i| Id(i * 1301 % ring.space().size()))
            .collect();
        for from in ring.alive_nodes().take(8) {
            for &t in &targets {
                let route = ring.route(from, t).unwrap();
                assert_eq!(route.owner, ring.owner_of(t).unwrap());
            }
        }
    }

    #[test]
    fn routing_is_logarithmic() {
        let ring = Ring::build(IdSpace::new(24), 512, "n");
        let from = ring.alive_nodes().next().unwrap();
        let mut max_hops = 0;
        for i in 0..200 {
            let t = Id(i * 57_731 % ring.space().size());
            let r = ring.route(from, t).unwrap();
            max_hops = max_hops.max(r.hops());
        }
        // O(log N) with high probability; log2(512) = 9, allow slack.
        assert!(max_hops <= 2 * 9 + 2, "max hops {max_hops} not logarithmic");
    }

    #[test]
    fn self_owned_target_routes_locally() {
        let ring = small_ring(10);
        let h = ring.alive_nodes().next().unwrap();
        let route = ring.route(h, ring.id_of(h)).unwrap();
        assert_eq!(route.owner, h);
        assert_eq!(route.hops(), 0);
    }

    #[test]
    fn voluntary_leave_moves_ownership_to_successor() {
        let mut ring = small_ring(30);
        let victim = ring.alive_nodes().nth(7).unwrap();
        let id = ring.id_of(victim);
        let succ = ring.first_alive_successor(victim).unwrap();
        ring.leave(victim).unwrap();
        assert_eq!(ring.owner_of(id).unwrap(), succ);
        assert_eq!(ring.len(), 29);
        // routing still works
        let from = ring.alive_nodes().next().unwrap();
        let r = ring.route(from, id).unwrap();
        assert_eq!(r.owner, succ);
    }

    #[test]
    fn failure_is_survived_via_successor_lists() {
        let mut ring = small_ring(30);
        let victim = ring.alive_nodes().nth(11).unwrap();
        let id = ring.id_of(victim);
        ring.fail(victim).unwrap();
        // No stabilization yet: routing must still converge by skipping the
        // dead node through successor lists.
        let from = ring.alive_nodes().next().unwrap();
        let r = ring.route(from, id).unwrap();
        assert_eq!(r.owner, ring.owner_of(id).unwrap());
    }

    #[test]
    fn join_then_stabilize_integrates_node() {
        let mut ring = small_ring(20);
        let via = ring.alive_nodes().next().unwrap();
        let (h, hops) = ring.join("late-joiner-xyz", via).unwrap();
        assert!(hops <= 20);
        assert_eq!(ring.len(), 21);
        ring.stabilize_all(3);
        // the new node's pointers now agree with ground truth
        let (pred, _) = ring.owned_range(h).unwrap();
        assert_eq!(
            ring.node(h).predecessor(),
            Some(ring.owner_of(pred).unwrap())
        );
        let from = ring.alive_nodes().next().unwrap();
        let r = ring.route(from, ring.id_of(h)).unwrap();
        assert_eq!(r.owner, h);
    }

    #[test]
    fn rejoin_restores_same_identifier() {
        let mut ring = small_ring(15);
        let victim = ring.alive_nodes().nth(4).unwrap();
        let id = ring.id_of(victim);
        ring.leave(victim).unwrap();
        let via = ring.alive_nodes().next().unwrap();
        ring.rejoin(victim, via).unwrap();
        ring.stabilize_all(3);
        assert_eq!(ring.id_of(victim), id);
        assert!(ring.owns(victim, id));
    }

    #[test]
    fn stabilization_repairs_mass_failure() {
        let mut ring = Ring::build(IdSpace::new(20), 100, "n");
        let victims: Vec<_> = ring.alive_nodes().step_by(10).collect();
        for v in victims {
            ring.fail(v).unwrap();
        }
        ring.stabilize_all(4);
        // After repair, every node's successor pointer matches ground truth.
        for h in ring.alive_nodes().collect::<Vec<_>>() {
            let succ = ring.first_alive_successor(h).unwrap();
            let expect = ring.owner_of(ring.space().add(ring.id_of(h), 1)).unwrap();
            assert_eq!(succ, expect, "successor pointer not repaired");
        }
    }

    #[test]
    fn successors_of_walks_clockwise_and_skips_dead_nodes() {
        let mut ring = small_ring(12);
        let handles: Vec<_> = ring.alive_nodes().collect();
        let h = handles[3];
        let succs = |ring: &Ring, h, k| ring.successors_of(h, k).collect::<Vec<_>>();
        assert_eq!(succs(&ring, h, 0), vec![]);
        assert_eq!(succs(&ring, h, 2), vec![handles[4], handles[5]]);
        // a dead successor is skipped
        ring.fail(handles[4]).unwrap();
        assert_eq!(succs(&ring, h, 2), vec![handles[5], handles[6]]);
        // the failed node's own successors cover its old range
        assert_eq!(succs(&ring, handles[4], 1), vec![handles[5]]);
        // wrap-around at the end of the ring, never including h itself
        let last = *handles.last().unwrap();
        let wrapped = succs(&ring, last, 3);
        assert_eq!(wrapped[0], handles[0]);
        assert!(!wrapped.contains(&last));
        // k larger than the ring returns everyone else once
        assert_eq!(succs(&ring, h, 100).len(), ring.len() - 1);
    }

    #[test]
    fn collision_is_reported() {
        let mut ring = Ring::new(IdSpace::new(16));
        ring.insert_node("a").unwrap();
        let err = ring.insert_node("a").unwrap_err();
        assert!(matches!(err, OverlayError::IdCollision { .. }));
    }
}
