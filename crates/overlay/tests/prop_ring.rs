//! Property-based tests for the Chord ring invariants.

use cq_overlay::{Id, IdSpace, NodeHandle, Ring, DEFAULT_SUCCESSOR_LIST_LEN};
use proptest::prelude::*;

/// Greedy Chord routing written over the public accessors alone — no route
/// table — as the reference `Ring::route` is compared against: the path
/// (sender first, owner last), or `None` where routing fails.
fn reference_route(ring: &Ring, from: NodeHandle, target: Id) -> Option<Vec<NodeHandle>> {
    let space = ring.space();
    let id = |h: NodeHandle| ring.node(h).id();
    let alive = |h: NodeHandle| ring.node(h).is_alive();
    let owns = |h: NodeHandle| match ring.node(h).predecessor() {
        Some(p) if alive(p) => space.in_open_closed(target, id(p), id(h)),
        _ => ring.len() == 1,
    };
    if !alive(from) {
        return None;
    }
    let mut path = vec![from];
    let max_hops = 4 * space.bits() as usize + ring.len() + 8;
    let mut cur = from;
    while !owns(cur) {
        if path.len() > max_hops {
            return None;
        }
        let node = ring.node(cur);
        let succ = node.successor_list().iter().copied().find(|&s| alive(s))?;
        if space.in_open_closed(target, id(cur), id(succ)) {
            path.push(succ);
            break;
        }
        let closest = node
            .fingers()
            .flatten()
            .chain(node.successor_list().iter().copied())
            .filter(|&c| alive(c) && space.in_open(id(c), id(cur), target))
            .min_by_key(|&c| space.distance(id(c), target));
        cur = closest.filter(|&c| c != cur).unwrap_or(succ);
        path.push(cur);
    }
    Some(path)
}

/// `Ring::build` gives every node the successor list, predecessor and
/// fingers that ground truth (`owner_of`) defines, for every ring size up
/// to 119, including the sizes at or below the successor-list length.
#[test]
fn build_matches_ground_truth() {
    for n in 1..120 {
        let ring = Ring::build(IdSpace::new(24), n, "b-");
        let space = ring.space();
        for h in ring.alive_nodes() {
            let node = ring.node(h);
            let mut succs = Vec::new();
            let mut cur = node.id();
            for _ in 0..DEFAULT_SUCCESSOR_LIST_LEN.min(n) {
                let s = ring.owner_of(space.add(cur, 1)).unwrap();
                succs.push(s);
                cur = ring.id_of(s);
            }
            assert_eq!(node.successor_list(), succs, "n = {n}, {h:?}");
            let (pred, _) = ring.owned_range(h).unwrap();
            assert_eq!(node.predecessor(), Some(ring.owner_of(pred).unwrap()));
            let fingers: Vec<_> = (1..=space.bits())
                .map(|j| ring.owner_of(space.finger_start(node.id(), j)).ok())
                .collect();
            assert_eq!(
                node.fingers().collect::<Vec<_>>(),
                fingers,
                "n = {n}, {h:?}"
            );
        }
    }
}

/// One stabilization sweep, step by step through the public single-node
/// API — the reference `Ring::stabilize_all` is compared against. Single
/// steps never consult the fixed-point flag, so this never skips.
fn sweep_unskipped(ring: &mut Ring) {
    let m = ring.space().bits();
    let handles: Vec<NodeHandle> = ring.alive_nodes().collect();
    for &h in &handles {
        ring.check_predecessor(h);
        ring.stabilize(h);
    }
    for &h in &handles {
        for _ in 0..m {
            ring.fix_finger(h);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy routing always terminates at the ground-truth owner,
    /// from any start node, for any target identifier.
    #[test]
    fn routing_agrees_with_ground_truth(
        n in 1usize..120,
        start in 0usize..120,
        targets in prop::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let ring = Ring::build(IdSpace::new(24), n, "p-");
        let from = ring.alive_nodes().nth(start % n).unwrap();
        for raw in targets {
            let t = ring.space().id(raw);
            let route = ring.route(from, t).unwrap();
            prop_assert_eq!(route.owner, ring.owner_of(t).unwrap());
            // path is connected and starts at the sender
            prop_assert_eq!(route.path[0], from);
            prop_assert_eq!(*route.path.last().unwrap(), route.owner);
        }
    }

    /// Multisend (both designs) partitions the identifier list over exactly
    /// the true owners, with no identifier lost or duplicated.
    #[test]
    fn multisend_partitions_targets(
        n in 1usize..100,
        start in 0usize..100,
        targets in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let ring = Ring::build(IdSpace::new(24), n, "q-");
        let from = ring.alive_nodes().nth(start % n).unwrap();
        let ids: Vec<Id> = targets.iter().map(|&r| ring.space().id(r)).collect();
        for out in [
            ring.multisend_recursive(from, &ids).unwrap(),
            ring.multisend_iterative(from, &ids).unwrap(),
        ] {
            let mut delivered: Vec<Id> =
                out.deliveries.iter().flat_map(|(_, v)| v.clone()).collect();
            delivered.sort();
            let mut expect = ids.clone();
            expect.sort();
            expect.dedup();
            prop_assert_eq!(delivered, expect);
            for (owner, owned) in &out.deliveries {
                for id in owned {
                    prop_assert_eq!(ring.owner_of(*id).unwrap(), *owner);
                }
            }
        }
    }

    /// After arbitrary failures followed by stabilization, every surviving
    /// node's successor pointer matches ground truth and routing works.
    #[test]
    fn stabilization_restores_successors(
        n in 8usize..80,
        kill in prop::collection::vec(0usize..80, 0..8),
        probe in 0u64..u64::MAX,
    ) {
        let mut ring = Ring::build(IdSpace::new(24), n, "s-");
        let handles: Vec<_> = ring.alive_nodes().collect();
        let mut killed = std::collections::HashSet::new();
        for k in kill {
            let h = handles[k % handles.len()];
            if killed.insert(h) && ring.len() > 1 {
                ring.fail(h).unwrap();
            }
        }
        // Chord repairs one link per round in the worst case; give the
        // protocol enough rounds to provably converge for this ring size.
        ring.stabilize_all(ring.len().max(4));
        let t = ring.space().id(probe);
        let from = ring.alive_nodes().next().unwrap();
        let route = ring.route(from, t).unwrap();
        prop_assert_eq!(route.owner, ring.owner_of(t).unwrap());
        for h in ring.alive_nodes().collect::<Vec<_>>() {
            let succ = ring.first_alive_successor(h).unwrap();
            let expect = ring.owner_of(ring.space().add(ring.id_of(h), 1)).unwrap();
            prop_assert_eq!(succ, expect);
        }
    }

    /// `stabilize_all` skips sweeps at a fixed point. Drive random
    /// join/leave/fail/rejoin/stabilize sequences against a reference ring
    /// whose sweeps go through the single-step API (which never skips):
    /// every pointer and every finger cursor of every slot must agree after
    /// every operation.
    #[test]
    fn fixed_point_skip_is_exact(
        n in 2usize..20,
        ops in prop::collection::vec((0u8..8, 0usize..64, 0usize..4), 1..40),
    ) {
        let mut ring = Ring::build(IdSpace::new(12), n, "f-");
        let mut reference = ring.clone();
        let mut joined = 0usize;
        for (kind, pick, rounds) in ops {
            let alive: Vec<_> = ring.alive_nodes().collect();
            let departed: Vec<_> = (0..ring.slot_count())
                .map(NodeHandle::from_index)
                .filter(|&h| !ring.node(h).is_alive())
                .collect();
            let victim = alive[pick % alive.len()];
            match kind {
                0 => {
                    let key = format!("late-{joined}");
                    joined += 1;
                    let a = ring.join(&key, victim).map(|(_, hops)| hops).ok();
                    let b = reference.join(&key, victim).map(|(_, hops)| hops).ok();
                    prop_assert_eq!(a, b);
                }
                1 if alive.len() > 2 => {
                    ring.leave(victim).unwrap();
                    reference.leave(victim).unwrap();
                }
                2 if alive.len() > 2 => {
                    ring.fail(victim).unwrap();
                    reference.fail(victim).unwrap();
                }
                3 if !departed.is_empty() => {
                    let h = departed[pick % departed.len()];
                    let a = ring.rejoin(h, alive[0]).ok();
                    let b = reference.rejoin(h, alive[0]).ok();
                    prop_assert_eq!(a, b);
                }
                // stabilization is the common case, as in the engine
                _ => {
                    ring.stabilize_all(rounds);
                    for _ in 0..rounds {
                        sweep_unskipped(&mut reference);
                    }
                }
            }
            prop_assert_eq!(ring.membership_epoch(), reference.membership_epoch());
            for slot in 0..ring.slot_count() {
                let h = NodeHandle::from_index(slot);
                let (a, b) = (ring.node(h), reference.node(h));
                prop_assert_eq!(a.is_alive(), b.is_alive());
                prop_assert_eq!(a.successor_list(), b.successor_list());
                prop_assert_eq!(a.predecessor(), b.predecessor());
                prop_assert_eq!(a.fingers().collect::<Vec<_>>(), b.fingers().collect::<Vec<_>>());
                prop_assert_eq!(a.next_finger(), b.next_finger());
            }
        }
    }

    /// Routing stays exactly the greedy walk over the current pointers
    /// through any churn: after every join, leave, failure, rejoin or
    /// single stabilization step, `route` and `route_owner` agree with
    /// `reference_route` on path, hops and owner for random probes.
    #[test]
    fn route_tables_follow_pointer_churn(
        n in 1usize..65,
        ops in prop::collection::vec((0u8..7, 0usize..64), 1..60),
        probes in prop::collection::vec(0u64..u64::MAX, 4..9),
    ) {
        let mut ring = Ring::build(IdSpace::new(16), n, "c-");
        for (step, (kind, pick)) in ops.into_iter().enumerate() {
            let alive: Vec<_> = ring.alive_nodes().collect();
            let departed: Vec<_> = (0..ring.slot_count())
                .map(NodeHandle::from_index)
                .filter(|&h| !ring.node(h).is_alive())
                .collect();
            let h = alive[pick % alive.len()];
            match kind {
                0 => {
                    let _ = ring.join(&format!("late-{step}"), h);
                }
                1 if alive.len() > 1 => ring.leave(h).unwrap(),
                2 if alive.len() > 1 => ring.fail(h).unwrap(),
                3 if !departed.is_empty() => {
                    let _ = ring.rejoin(departed[pick % departed.len()], h);
                }
                4 => {
                    ring.stabilize(h);
                }
                5 => {
                    ring.fix_finger(h);
                }
                _ => {
                    ring.check_predecessor(h);
                }
            }
            let alive: Vec<_> = ring.alive_nodes().collect();
            for (&from, &raw) in alive.iter().flat_map(|f| probes.iter().map(move |t| (f, t))) {
                let target = ring.space().id(raw);
                let expect = reference_route(&ring, from, target);
                let route = ring.route(from, target).ok();
                prop_assert_eq!(route.as_ref().map(|r| &r.path), expect.as_ref());
                let owner = ring.route_owner(from, target).ok();
                prop_assert_eq!(
                    owner,
                    expect.as_ref().map(|p| (*p.last().unwrap(), p.len() - 1))
                );
            }
        }
    }

    /// Ownership ranges of all alive nodes tile the identifier circle.
    #[test]
    fn ownership_tiles_the_circle(n in 1usize..100) {
        let ring = Ring::build(IdSpace::new(24), n, "t-");
        let mut total = 0u64;
        for h in ring.alive_nodes() {
            let (pred, id) = ring.owned_range(h).unwrap();
            // pred == id means a single node owning the whole circle
            total += if pred == id {
                ring.space().size()
            } else {
                ring.space().distance(pred, id)
            };
        }
        prop_assert_eq!(total, ring.space().size());
    }
}
