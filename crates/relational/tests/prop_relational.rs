//! Property-based tests for the relational layer: the rewriting machinery
//! must agree with direct evaluation of the join condition, and displayed
//! queries must reparse to equivalent queries.

use std::sync::Arc;

use cq_relational::{
    parse_query, Catalog, DataType, Expr, JoinQuery, QueryKey, QueryRef, QuerySpec, RelationSchema,
    RewrittenQuery, SelectItem, Side, Timestamp, Tuple, Value,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        RelationSchema::of(
            "R",
            &[
                ("A", DataType::Int),
                ("B", DataType::Int),
                ("C", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        RelationSchema::of(
            "S",
            &[
                ("D", DataType::Int),
                ("E", DataType::Int),
                ("F", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn t1_query(c: &Catalog, ins: u64) -> QueryRef {
    Arc::new(
        JoinQuery::new(
            QuerySpec {
                key: QueryKey::derive("n", 0),
                subscriber: "n".into(),
                ins_time: Timestamp(ins),
                relations: ["R".into(), "S".into()],
                select: vec![
                    SelectItem {
                        side: Side::Left,
                        attr: "A".into(),
                    },
                    SelectItem {
                        side: Side::Right,
                        attr: "D".into(),
                    },
                ],
                conditions: [Expr::attr("B"), Expr::attr("E")],
                filters: vec![],
            },
            c,
        )
        .unwrap(),
    )
}

fn r_tuple(c: &Catalog, vals: [i64; 3], t: u64) -> Tuple {
    Tuple::new(
        c.get("R").unwrap().clone(),
        vals.into_iter().map(Value::Int).collect(),
        Timestamp(t),
        0,
    )
    .unwrap()
}

fn s_tuple(c: &Catalog, vals: [i64; 3], t: u64) -> Tuple {
    Tuple::new(
        c.get("S").unwrap().clone(),
        vals.into_iter().map(Value::Int).collect(),
        Timestamp(t),
        0,
    )
    .unwrap()
}

proptest! {
    /// For T1 queries, rewrite-then-match must agree with directly checking
    /// the join condition and the time semantics, regardless of which side
    /// is rewritten first.
    #[test]
    fn rewrite_agrees_with_direct_evaluation(
        r_vals in prop::array::uniform3(-5i64..5),
        s_vals in prop::array::uniform3(-5i64..5),
        r_time in 0u64..20,
        s_time in 0u64..20,
        ins in 0u64..20,
    ) {
        let c = catalog();
        let q = t1_query(&c, ins);
        let r = r_tuple(&c, r_vals, r_time);
        let s = s_tuple(&c, s_vals, s_time);
        let expected = r_vals[1] == s_vals[1] && r_time >= ins && s_time >= ins;

        // Rewrite on the left, match the right tuple.
        let via_left = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "E", &r)
            .unwrap()
            .and_then(|rq| rq.match_tuple(&s).unwrap());
        // Rewrite on the right, match the left tuple.
        let via_right = RewrittenQuery::rewrite_attribute(&q, Side::Right, "E", "B", &s)
            .unwrap()
            .and_then(|rq| rq.match_tuple(&r).unwrap());

        prop_assert_eq!(via_left.is_some(), expected);
        prop_assert_eq!(via_right.is_some(), expected);
        if expected {
            // Both directions must produce the identical notification.
            prop_assert_eq!(via_left.unwrap(), via_right.unwrap());
        }
    }

    /// DAI-V rewriting must agree with the attribute rewriting for T1
    /// queries (Section 4.5: "covers queries of type T1 as well").
    #[test]
    fn value_rewrite_covers_t1(
        r_vals in prop::array::uniform3(-5i64..5),
        s_vals in prop::array::uniform3(-5i64..5),
    ) {
        let c = catalog();
        let q = t1_query(&c, 0);
        let r = r_tuple(&c, r_vals, 1);
        let s = s_tuple(&c, s_vals, 1);
        let attr = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "E", &r)
            .unwrap()
            .and_then(|rq| rq.match_tuple(&s).unwrap());
        let value = RewrittenQuery::rewrite_value(&q, Side::Left, &r)
            .unwrap()
            .and_then(|rq| rq.match_tuple(&s).unwrap());
        prop_assert_eq!(attr, value);
    }

    /// Displaying a query and reparsing it yields the same structure
    /// (condition sides, select list sides, filters).
    #[test]
    fn display_reparses(
        sel_left in prop::bool::ANY,
        filter_val in -100i64..100,
        use_filter in prop::bool::ANY,
    ) {
        let c = catalog();
        let mut select = vec![SelectItem { side: Side::Right, attr: "D".into() }];
        if sel_left {
            select.insert(0, SelectItem { side: Side::Left, attr: "A".into() });
        }
        let filters = if use_filter {
            vec![cq_relational::Filter {
                side: Side::Left,
                attr: "C".into(),
                value: Value::Int(filter_val),
            }]
        } else {
            vec![]
        };
        let q = JoinQuery::new(
            QuerySpec {
                key: QueryKey::derive("n", 1),
                subscriber: "n".into(),
                ins_time: Timestamp(0),
                relations: ["R".into(), "S".into()],
                select,
                conditions: [Expr::attr("B"), Expr::attr("E")],
                filters,
            },
            &c,
        )
        .unwrap();
        let sql = q.to_string();
        let reparsed = parse_query(&sql, &c)
            .unwrap()
            .into_query(QueryKey::derive("n", 1), "n", Timestamp(0), &c)
            .unwrap();
        prop_assert_eq!(q, reparsed);
    }

    /// Rewritten-query identity is injective in the (select values, join
    /// value) pair and invariant in everything else; with `Int` values only,
    /// so is the key text.
    #[test]
    fn rewritten_keys_are_content_addressed(
        a1 in -5i64..5, b1 in -5i64..5,
        a2 in -5i64..5, b2 in -5i64..5,
        t1 in 0u64..10, t2 in 0u64..10,
    ) {
        let c = catalog();
        let q = t1_query(&c, 0);
        let r1 = r_tuple(&c, [a1, b1, 0], t1);
        let r2 = r_tuple(&c, [a2, b2, 99], t2); // C differs but is irrelevant
        let rq1 = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "E", &r1)
            .unwrap().unwrap();
        let rq2 = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "E", &r2)
            .unwrap().unwrap();
        prop_assert_eq!(rq1.same_identity(&rq2), a1 == a2 && b1 == b2);
        prop_assert_eq!(key_text(&rq1) == key_text(&rq2), a1 == a2 && b1 == b2);
    }

    /// Over `Int` and `Str` values: the same identity always prints the
    /// same key text (and carries the same fingerprint), and the same text
    /// means the same identity whenever no string value contains `+` — the
    /// only way two different rewritings print alike.
    #[test]
    fn identity_and_key_text_agree_unless_a_string_contains_plus(
        select in prop::collection::vec(0usize..5, 0..5),
        queries in (0u64..2, 0u64..2),
        strings in prop::collection::vec(prop::collection::vec(0usize..6, 0..4), 6..7),
        joins in (0i64..2, 0i64..2),
        by_value in prop::bool::ANY,
    ) {
        const ALPHABET: [&str; 6] = ["+", "s", ":", "i", "a", "+s:"];
        let mut c = Catalog::new();
        let r_attrs = [("A", DataType::Str), ("B", DataType::Str), ("C", DataType::Int), ("D", DataType::Str)];
        c.register(RelationSchema::of("R", &r_attrs).unwrap()).unwrap();
        c.register(RelationSchema::of("S", &[("E", DataType::Int)]).unwrap()).unwrap();
        // Select item 4 is the S side's; the rest bind R's attributes, in
        // any order and with repeats.
        let select: Vec<SelectItem> = select
            .into_iter()
            .chain([4])
            .map(|i| match r_attrs.get(i) {
                Some((attr, _)) => SelectItem { side: Side::Left, attr: (*attr).into() },
                None => SelectItem { side: Side::Right, attr: "E".into() },
            })
            .collect();
        let query = |n: u64| Arc::new(JoinQuery::new(
            QuerySpec {
                key: QueryKey::derive("n", n),
                subscriber: "n".into(),
                ins_time: Timestamp(0),
                relations: ["R".into(), "S".into()],
                select: select.clone(),
                conditions: [Expr::attr("C"), Expr::attr("E")],
                filters: vec![],
            },
            &c,
        ).unwrap());
        let string = |i: usize| Value::Str(strings[i].iter().map(|&j| ALPHABET[j]).collect());
        let rewrite = |n: u64, first: usize, join: i64| {
            let values = vec![string(first), string(first + 1), Value::Int(join), string(first + 2)];
            let t = Tuple::new(c.get("R").unwrap().clone(), values, Timestamp(1), 0).unwrap();
            if by_value {
                RewrittenQuery::rewrite_value(&query(n), Side::Left, &t)
            } else {
                RewrittenQuery::rewrite_attribute(&query(n), Side::Left, "C", "E", &t)
            }
            .unwrap()
            .unwrap()
        };
        let (one, other) = (rewrite(queries.0, 0, joins.0), rewrite(queries.1, 3, joins.1));

        let same_parts = queries.0 == queries.1
            && one.bound_values() == other.bound_values()
            && one.target().value() == other.target().value();
        prop_assert_eq!(one.same_identity(&other), same_parts);
        prop_assert_eq!(one.to_identity().is_of(&other), same_parts);
        let same_text = key_text(&one) == key_text(&other);
        if same_parts {
            prop_assert!(same_text);
            prop_assert_eq!(one.fingerprint(), other.fingerprint());
            prop_assert_eq!(one.to_identity().fingerprint(), other.fingerprint());
        }
        let plus_free = |rq: &RewrittenQuery| {
            rq.bound_values().iter().all(|v| v.as_str().is_none_or(|s| !s.contains('+')))
        };
        if same_text && plus_free(&one) && plus_free(&other) {
            prop_assert!(same_parts, "{} and {}", one, other);
        }
    }
}

fn key_text(rq: &RewrittenQuery) -> String {
    let mut s = String::new();
    rq.write_key(&mut s).unwrap();
    assert_eq!(s.len(), rq.key_len());
    s
}
