//! Identifier computation for the two-level indexing scheme (Section 4.2).
//!
//! * Attribute level: `AIndex = Hash(R + A)` — with the replication scheme of
//!   Section 4.7, `Hash(R + A + "#" + i)` for replica `i`.
//! * Value level (T1 algorithms): `VIndex = Hash(R + A + v)`.
//! * Value level (DAI-V): `VIndex = Hash(valJC)`.

use cq_overlay::{Id, IdSpace, KeyHasher};
use cq_relational::{Tuple, Value};

/// `Hash(R + A)`: the attribute-level identifier of `(relation, attribute)`.
pub fn aindex(space: IdSpace, relation: &str, attr: &str) -> Id {
    let mut h = KeyHasher::new();
    h.write("A").write(relation).write(attr);
    h.finish(space)
}

/// Attribute-level identifier of replica `i` of `(relation, attribute)` when
/// the rewriter role is replicated on `k` nodes. With `k == 1` this is the
/// plain [`aindex`], so an unreplicated run is byte-identical to the base
/// scheme.
pub fn aindex_replica(space: IdSpace, relation: &str, attr: &str, i: usize, k: usize) -> Id {
    debug_assert!(k >= 1 && i < k);
    if k == 1 {
        return aindex(space, relation, attr);
    }
    // "#<i>" without a `format!`: replica counts are small, but any `i`
    // fits a `usize`'s 20 decimal digits.
    let mut suffix = [b'#'; 21];
    let mut at = suffix.len();
    let mut rest = i;
    loop {
        at -= 1;
        suffix[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let suffix = std::str::from_utf8(&suffix[at - 1..]).expect("'#' and ASCII digits");
    let mut h = KeyHasher::new();
    h.write("A").write(relation).write(attr).write(suffix);
    h.finish(space)
}

/// All `k` attribute-level replica identifiers for `(relation, attribute)`.
pub fn aindex_replicas(space: IdSpace, relation: &str, attr: &str, k: usize) -> Vec<Id> {
    (0..k.max(1))
        .map(|i| aindex_replica(space, relation, attr, i, k.max(1)))
        .collect()
}

/// Which replica an incoming tuple's value is routed to: deterministic in the
/// value (given by its canonical form — a [`Tuple`] caches one per
/// attribute) so every tuple with a given value meets every query at the
/// same replica (preserving completeness).
pub fn replica_for_value(canonical: &str, k: usize) -> usize {
    if k <= 1 {
        return 0;
    }
    let mut h = KeyHasher::new();
    h.write(canonical);
    (h.finish_raw() % k as u64) as usize
}

/// `Hash(R + A + v)`: the value-level identifier used by SAI, DAI-Q and
/// DAI-T.
pub fn vindex_attr(space: IdSpace, relation: &str, attr: &str, value: &Value) -> Id {
    vindex_attr_canonical(space, relation, attr, &value.canonical())
}

/// [`vindex_attr`] for a caller that already holds the value's canonical
/// form.
pub fn vindex_attr_canonical(space: IdSpace, relation: &str, attr: &str, canonical: &str) -> Id {
    let mut h = KeyHasher::new();
    h.write("V").write(relation).write(attr).write(canonical);
    h.finish(space)
}

/// `Hash(valJC)`: the value-level identifier used by DAI-V — "V Index
/// identifier creation is based on the value that the left- or right-hand
/// side of the join condition takes" (Section 4.5).
pub fn vindex_value(space: IdSpace, value: &Value) -> Id {
    vindex_value_canonical(space, &value.canonical())
}

/// [`vindex_value`] for a caller that already holds the value's canonical
/// form.
pub fn vindex_value_canonical(space: IdSpace, canonical: &str) -> Id {
    let mut h = KeyHasher::new();
    h.write("J").write(canonical);
    h.finish(space)
}

/// `Hash(Key(q) + valJC)`: the keyed DAI-V variant of Section 4.5 — one
/// evaluator per (query, value) pair instead of per value, the value given
/// by its canonical form. Load spreads like the attribute-prefixed
/// algorithms, but rewritten queries can no longer be grouped, multiplying
/// reindex traffic.
pub fn vindex_value_keyed(space: IdSpace, query_key: &str, canonical: &str) -> Id {
    let mut h = KeyHasher::new();
    h.write("JK").write(query_key).write(canonical);
    h.finish(space)
}

/// `Hash(Key(n))`: the identifier of a node key, used to deliver
/// notifications to (possibly offline) subscribers (Section 4.6).
pub fn subscriber_id(space: IdSpace, node_key: &str) -> Id {
    cq_overlay::hash_key(space, node_key)
}

/// The `2h` (or `h`, for DAI-V) identifiers a tuple is indexed under
/// (Section 4.2): for each attribute `A_i` with value `v_i`, the pair
/// `(AIndex_i, VIndex_i)`. Returns `(attr_name, attribute_level_id,
/// value_level_id)` triples; `value_level_id` is `None` when the value level
/// is disabled (DAI-V).
pub fn tuple_index_ids(
    space: IdSpace,
    tuple: &Tuple,
    value_level: bool,
    replication: usize,
) -> Vec<(String, Id, Option<Id>)> {
    let rel = tuple.relation();
    tuple
        .schema()
        .attributes()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let canonical = tuple.canonical_at(i);
            let replica = replica_for_value(canonical, replication);
            let ai = aindex_replica(space, rel, &a.name, replica, replication.max(1));
            let vi = value_level.then(|| vindex_attr_canonical(space, rel, &a.name, canonical));
            (a.name.clone(), ai, vi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{DataType, RelationSchema, Timestamp};
    use std::sync::Arc;

    fn space() -> IdSpace {
        IdSpace::new(32)
    }

    #[test]
    fn aindex_is_deterministic_and_attr_specific() {
        let s = space();
        assert_eq!(aindex(s, "R", "B"), aindex(s, "R", "B"));
        assert_ne!(aindex(s, "R", "B"), aindex(s, "R", "C"));
        assert_ne!(aindex(s, "R", "B"), aindex(s, "S", "B"));
    }

    #[test]
    fn vindex_depends_on_value() {
        let s = space();
        assert_ne!(
            vindex_attr(s, "R", "B", &Value::Int(1)),
            vindex_attr(s, "R", "B", &Value::Int(2))
        );
        assert_eq!(
            vindex_attr(s, "R", "B", &Value::Int(1)),
            vindex_attr(s, "R", "B", &Value::Int(1))
        );
    }

    #[test]
    fn attribute_and_value_namespaces_are_disjoint() {
        // A query indexed at the attribute level must never collide with a
        // value-level identifier by accident of concatenation.
        let s = space();
        assert_ne!(
            aindex(s, "R", "B"),
            vindex_value(s, &Value::Str("R".into()))
        );
    }

    #[test]
    fn single_replica_matches_plain_scheme() {
        let s = space();
        assert_eq!(aindex_replica(s, "R", "B", 0, 1), aindex(s, "R", "B"));
        assert_eq!(aindex_replicas(s, "R", "B", 1), vec![aindex(s, "R", "B")]);
    }

    #[test]
    fn replica_suffix_is_the_decimal_index() {
        let s = space();
        for (i, k) in [
            (0, 2),
            (1, 2),
            (9, 10),
            (10, 11),
            (123, 124),
            (usize::MAX - 1, usize::MAX),
        ] {
            assert_eq!(
                aindex_replica(s, "R", "B", i, k),
                cq_overlay::hash_parts(s, &["A", "R", "B", &format!("#{i}")]),
                "replica {i} of {k}"
            );
        }
    }

    #[test]
    fn canonical_entry_points_agree_with_the_value_ones() {
        let s = space();
        for v in [Value::Int(-3), Value::Str("x y".into())] {
            let c = v.canonical();
            assert_eq!(
                vindex_attr(s, "R", "B", &v),
                vindex_attr_canonical(s, "R", "B", &c)
            );
            assert_eq!(vindex_value(s, &v), vindex_value_canonical(s, &c));
        }
    }

    #[test]
    fn replicas_are_distinct() {
        let s = space();
        let ids = aindex_replicas(s, "R", "B", 4);
        assert_eq!(ids.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn replica_choice_is_deterministic_and_in_range() {
        for k in 1..6 {
            for v in 0..50 {
                let canonical = Value::Int(v).canonical();
                let r = replica_for_value(&canonical, k);
                assert!(r < k);
                assert_eq!(r, replica_for_value(&canonical, k));
            }
        }
    }

    #[test]
    fn tuple_index_ids_cover_every_attribute() {
        let schema = Arc::new(
            RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Str)]).unwrap(),
        );
        let t = Tuple::new(
            schema,
            vec![Value::Int(1), Value::Str("x".into())],
            Timestamp(0),
            0,
        )
        .unwrap();
        let s = space();
        let ids = tuple_index_ids(s, &t, true, 1);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].0, "A");
        assert_eq!(ids[0].1, aindex(s, "R", "A"));
        assert_eq!(ids[0].2, Some(vindex_attr(s, "R", "A", &Value::Int(1))));
        // DAI-V: attribute level only
        let ids_v = tuple_index_ids(s, &t, false, 1);
        assert!(ids_v.iter().all(|(_, _, v)| v.is_none()));
    }
}
