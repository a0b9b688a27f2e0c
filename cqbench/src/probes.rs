//! Isolated-layer probes: the workload's own SQL, tuples and identifiers
//! replayed straight into each layer's public functions, one layer at a
//! time. A probe runs only where the workload's algorithm or backend uses
//! the module it measures; the others are reported as absent.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use cq_engine::frames::{BufPool, FrameConn, RawFrame};
use cq_engine::tables::{
    Alqt, StoredQuery, StoredRewritten, StoredTuple, StoredValueTuple, VStore, Vlqt, Vltt,
};
use cq_engine::{indexing, wire, Algorithm, Message};
use cq_overlay::{IdSpace, NodeHandle, Ring};
use cq_relational::{
    parse_query, MatchTarget, QueryKey, QueryRef, RewrittenQuery, Side, Timestamp, Tuple,
};

use crate::workloads::{Backend, Op, Spec, Stream};

/// How much of the stream the probes replay.
const MAX_QUERIES: usize = 200;
const MAX_TUPLES: usize = 400;
/// Each probe pass repeats this often; the fastest pass is reported.
const PASSES: usize = 5;

/// Nanoseconds per item of the fastest of [`PASSES`] runs of `pass`, which
/// returns how many items it processed. `None` when it processed nothing.
fn ns_per_item(mut pass: impl FnMut() -> u64) -> Option<f64> {
    let mut best: Option<f64> = None;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let items = black_box(pass());
        let ns = t0.elapsed().as_nanos() as f64;
        if items == 0 {
            return None;
        }
        let per = ns / items as f64;
        best = Some(best.map_or(per, |b: f64| b.min(per)));
    }
    best
}

/// [`ns_per_item`] where the workload uses the probed module, else `None`.
fn ns_per_item_if(applies: bool, pass: impl FnMut() -> u64) -> Option<f64> {
    if applies {
        ns_per_item(pass)
    } else {
        None
    }
}

/// The probe inputs, taken from the head of the workload's stream.
struct Inputs {
    space: IdSpace,
    sqls: Vec<String>,
    queries: Vec<QueryRef>,
    /// `(inserting node index, tuple)`.
    tuples: Vec<(usize, Arc<Tuple>)>,
}

fn inputs(stream: &Stream) -> Inputs {
    let sqls: Vec<String> = stream
        .upfront
        .iter()
        .chain(&stream.ops)
        .filter_map(|op| match op {
            Op::Pose { sql, .. } => Some(sql.clone()),
            _ => None,
        })
        .take(MAX_QUERIES)
        .collect();
    let queries = sqls
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let parsed = parse_query(sql, &stream.catalog).expect("generated SQL parses");
            let key = QueryKey::derive("probe", i as u64);
            Arc::new(
                parsed
                    .into_query(key, "probe", Timestamp(0), &stream.catalog)
                    .expect("generated queries are valid"),
            )
        })
        .collect();
    let tuples = stream
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Insert {
                node,
                relation,
                values,
            } => Some((*node, *relation, values.clone())),
            _ => None,
        })
        .take(MAX_TUPLES)
        .enumerate()
        .map(|(i, (node, relation, values))| {
            let schema = stream
                .catalog
                .get(relation)
                .expect("workload relation")
                .clone();
            let t = Tuple::new(schema, values, Timestamp(i as u64 + 1), i as u64)
                .expect("generated tuples are valid");
            (node, Arc::new(t))
        })
        .collect();
    Inputs {
        space: IdSpace::new(32),
        sqls,
        queries,
        tuples,
    }
}

/// Rewrites every query with every tuple of its left relation, the way the
/// workload's algorithm does (value targets under DAI-V).
fn rewrite_all(inp: &Inputs, by_value: bool) -> Vec<RewrittenQuery> {
    let mut out = Vec::new();
    for q in &inp.queries {
        let (Some(left), Some(right)) = (q.join_attr(Side::Left), q.join_attr(Side::Right)) else {
            continue;
        };
        for (_, t) in &inp.tuples {
            if t.relation() != q.relation(Side::Left) {
                continue;
            }
            let rq = if by_value {
                RewrittenQuery::rewrite_value(q, Side::Left, t)
            } else {
                RewrittenQuery::rewrite_attribute(q, Side::Left, left, right, t)
            };
            out.extend(rq.expect("workload tuples match their schema"));
        }
    }
    out
}

/// Runs every probe the workload exercises; returns `(metric, value)` with
/// `None` for probes that do not apply.
pub fn run(spec: &Spec, stream: &Stream) -> Vec<(&'static str, Option<f64>)> {
    let inp = inputs(stream);
    let by_value = spec.algorithm == Algorithm::DaiV;
    let mut out: Vec<(&'static str, Option<f64>)> = Vec::new();

    // overlay: route the (from, id) pairs a publish routes
    let ring = Ring::build(inp.space, spec.nodes, "node-");
    let value_level = spec.algorithm.indexes_tuples_at_value_level();
    let pairs: Vec<(NodeHandle, cq_overlay::Id)> = inp
        .tuples
        .iter()
        .flat_map(|(node, t)| {
            let from = NodeHandle::from_index(node % spec.nodes);
            indexing::tuple_index_ids(inp.space, t, value_level, 1)
                .into_iter()
                .flat_map(move |(_, ai, vi)| {
                    std::iter::once((from, ai)).chain(vi.map(|v| (from, v)))
                })
        })
        .collect();
    let mut hops = 0usize;
    out.push((
        "overlay.route_ns",
        ns_per_item(|| {
            hops = 0;
            for (from, id) in &pairs {
                hops += ring.route_owner(*from, *id).expect("stable ring routes").1;
            }
            pairs.len() as u64
        }),
    ));
    out.push((
        "overlay.hops_per_lookup",
        (!pairs.is_empty()).then(|| hops as f64 / pairs.len() as f64),
    ));

    // relational: parse, rewrite, match
    out.push((
        "relational.parse_ns",
        ns_per_item(|| {
            for sql in &inp.sqls {
                black_box(parse_query(sql, &stream.catalog).expect("generated SQL parses"));
            }
            inp.sqls.len() as u64
        }),
    ));
    let mut rewritten = Vec::new();
    out.push((
        "relational.rewrite_ns",
        ns_per_item(|| {
            rewritten = rewrite_all(&inp, by_value);
            rewritten.len() as u64
        }),
    ));
    let sample: Vec<&RewrittenQuery> = rewritten
        .iter()
        .step_by(rewritten.len() / 200 + 1)
        .collect();
    out.push((
        "relational.match_ns",
        ns_per_item(|| {
            let mut n = 0;
            for rq in &sample {
                for (_, t) in &inp.tuples {
                    if t.relation() == rq.free_relation() {
                        black_box(rq.matches(t).expect("schema-valid tuple"));
                        n += 1;
                    }
                }
            }
            n
        }),
    ));

    // tables: standalone copies filled from the workload's data; a scan is
    // the evaluator's inner loop (iterate the bucket, test each candidate)
    let stored_queries: Vec<StoredQuery> = inp
        .queries
        .iter()
        .flat_map(|q| {
            Side::BOTH.into_iter().filter_map(|side| {
                let attr = q.join_attr(side)?;
                Some(StoredQuery {
                    index_id: indexing::aindex(inp.space, q.relation(side), attr),
                    query: Arc::clone(q),
                    index_side: side,
                    index_attr: attr.to_string(),
                })
            })
        })
        .collect();
    let mut alqt = Alqt::new();
    out.push((
        "tables.alqt_insert_ns",
        ns_per_item(|| {
            alqt = Alqt::new();
            for sq in &stored_queries {
                alqt.insert(sq.clone());
            }
            stored_queries.len() as u64
        }),
    ));
    out.push((
        "tables.alqt_scan_ns_per_query",
        ns_per_item(|| {
            let mut n = 0;
            for (_, t) in &inp.tuples {
                for a in t.schema().attributes() {
                    for (group, stored) in alqt.groups(t.relation(), &a.name) {
                        black_box(group);
                        for sq in stored {
                            black_box(sq.index_id);
                            n += 1;
                        }
                    }
                }
            }
            n
        }),
    ));

    let uses_vlqt = matches!(spec.algorithm, Algorithm::Sai | Algorithm::DaiT);
    let uses_vltt = matches!(spec.algorithm, Algorithm::Sai | Algorithm::DaiQ);
    let stored_rewritten: Vec<StoredRewritten> = rewritten
        .iter()
        .filter_map(|rq| match rq.target() {
            MatchTarget::Attribute { attr, value } => Some(StoredRewritten {
                index_id: indexing::vindex_attr(inp.space, rq.free_relation(), attr, value),
                rq: rq.clone(),
            }),
            MatchTarget::ConditionValue { .. } => None,
        })
        .collect();
    let mut vlqt = Vlqt::new();
    out.push((
        "tables.vlqt_insert_ns",
        ns_per_item_if(uses_vlqt, || {
            vlqt = Vlqt::new();
            for e in &stored_rewritten {
                vlqt.insert(e.clone()).expect("attribute-targeted");
            }
            stored_rewritten.len() as u64
        }),
    ));
    // scan the buckets that exist (one lookup per stored entry's key), so
    // a near-empty table reports scan cost rather than lookup misses
    let first_of = |relation: &str| {
        inp.tuples
            .iter()
            .map(|(_, t)| t)
            .find(|t| t.relation() == relation)
    };
    out.push((
        "tables.vlqt_scan_ns_per_candidate",
        ns_per_item_if(uses_vlqt, || {
            let mut n = 0;
            let mut key = String::new();
            for e in stored_rewritten
                .iter()
                .step_by(stored_rewritten.len() / 2000 + 1)
            {
                let MatchTarget::Attribute { attr, value } = e.rq.target() else {
                    continue;
                };
                let Some(t) = first_of(e.rq.free_relation()) else {
                    continue;
                };
                key.clear();
                value.canonical_into(&mut key);
                for c in vlqt.candidates(e.rq.free_relation(), attr, &key) {
                    black_box(c.rq.matches(t).expect("schema-valid tuple"));
                    n += 1;
                }
            }
            n
        }),
    ));

    let stored_tuples: Vec<StoredTuple> = inp
        .tuples
        .iter()
        .flat_map(|(_, t)| {
            t.schema()
                .attributes()
                .iter()
                .zip(t.values())
                .map(|(a, v)| StoredTuple {
                    index_id: indexing::vindex_attr(inp.space, t.relation(), &a.name, v),
                    attr: a.name.clone(),
                    tuple: Arc::clone(t),
                })
        })
        .collect();
    let mut vltt = Vltt::new();
    out.push((
        "tables.vltt_insert_ns",
        ns_per_item_if(uses_vltt, || {
            vltt = Vltt::new();
            for e in &stored_tuples {
                vltt.insert(e.clone()).expect("schema-valid tuple");
            }
            stored_tuples.len() as u64
        }),
    ));
    out.push((
        "tables.vltt_scan_ns_per_candidate",
        ns_per_item_if(uses_vltt, || {
            let mut n = 0;
            let mut key = String::new();
            for e in &stored_rewritten {
                let MatchTarget::Attribute { attr, value } = e.rq.target() else {
                    continue;
                };
                key.clear();
                value.canonical_into(&mut key);
                for c in vltt.candidates(e.rq.free_relation(), attr, &key) {
                    black_box(e.rq.matches(&c.tuple).expect("schema-valid tuple"));
                    n += 1;
                }
            }
            n
        }),
    ));

    // the value store files each tuple under (query group, join value)
    let filed: Vec<(String, String, StoredValueTuple)> = if by_value {
        let mut groups: Vec<&QueryRef> = Vec::new();
        for q in &inp.queries {
            if !groups.iter().any(|g| g.group_key() == q.group_key()) {
                groups.push(q);
            }
        }
        groups
            .iter()
            .flat_map(|q| {
                let group = q.group_key();
                inp.tuples.iter().filter_map(move |(_, t)| {
                    let side = q.side_of(t.relation())?;
                    let rq = RewrittenQuery::rewrite_value(q, side, t).ok()??;
                    let value = rq.target().value();
                    Some((
                        group.clone(),
                        value.canonical(),
                        StoredValueTuple {
                            index_id: indexing::vindex_value(inp.space, value),
                            side,
                            tuple: Arc::clone(t),
                        },
                    ))
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut vstore = VStore::new();
    out.push((
        "tables.vstore_insert_ns",
        ns_per_item(|| {
            vstore = VStore::new();
            for (group, key, e) in &filed {
                vstore.insert(group, key, e.clone());
            }
            filed.len() as u64
        }),
    ));
    out.push((
        "tables.vstore_scan_ns_per_candidate",
        ns_per_item(|| {
            let mut n = 0;
            for rq in &rewritten {
                let MatchTarget::ConditionValue { value } = rq.target() else {
                    continue;
                };
                let group = rq.query().group_key();
                for c in vstore.candidates(&group, &value.canonical(), rq.free_side()) {
                    black_box(rq.matches(&c.tuple).expect("schema-valid tuple"));
                    n += 1;
                }
            }
            n
        }),
    ));

    // wire and frames: the messages a publish sends, through the codec and
    // a loopback connection pair
    let on_wire = spec.backend != Backend::Sim;
    let messages: Vec<Message> = if on_wire {
        inp.tuples
            .iter()
            .flat_map(|(_, t)| {
                indexing::tuple_index_ids(inp.space, t, value_level, 1)
                    .into_iter()
                    .map(|(attr, ai, _)| Message::AlIndexTuple {
                        tuple: Arc::clone(t),
                        attr,
                        index_id: ai,
                    })
            })
            .chain(
                stored_rewritten
                    .iter()
                    .step_by(stored_rewritten.len() / 400 + 1)
                    .map(|e| Message::Join {
                        items: vec![e.rq.clone()],
                        index_id: e.index_id,
                    }),
            )
            .collect()
    } else {
        Vec::new()
    };
    let mut encoded = Vec::new();
    let mut offsets = Vec::new();
    out.push((
        "wire.encode_ns_per_msg",
        ns_per_item(|| {
            encoded.clear();
            offsets.clear();
            for m in &messages {
                offsets.push(encoded.len());
                wire::encode_message(m, &mut encoded);
            }
            messages.len() as u64
        }),
    ));
    out.push((
        "wire.decode_ns_per_msg",
        ns_per_item(|| {
            for &at in &offsets {
                black_box(
                    wire::decode_message(&encoded[at..], &stream.catalog)
                        .expect("own encoding decodes"),
                );
            }
            offsets.len() as u64
        }),
    ));
    let bytes_per_msg =
        (!messages.is_empty()).then(|| encoded.len() as f64 / messages.len() as f64);
    out.push(("wire.bytes_per_msg", bytes_per_msg));
    out.push((
        "frames.pump_ns_per_frame",
        match bytes_per_msg {
            Some(size) if spec.backend == Backend::Tcp => pump_frames(size as usize),
            _ => None,
        },
    ));
    out
}

/// One frame per item through a loopback [`FrameConn`] pair: encoded in
/// place at the write queue's tail, flushed, read back through the pooled
/// buffer path, and the buffer recycled.
fn pump_frames(payload_len: usize) -> Option<f64> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).ok()?;
    let client = TcpStream::connect(listener.local_addr().ok()?).ok()?;
    let (server, _) = listener.accept().ok()?;
    let mut tx = FrameConn::new(client, wire::MAX_FRAME).ok()?;
    let mut rx = FrameConn::new(server, wire::MAX_FRAME).ok()?;
    let payload = vec![0xA5u8; payload_len];
    let mut pool = BufPool::new();
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut seq = 0u64;
    ns_per_item(|| {
        const FRAMES: u64 = 2000;
        for _ in 0..FRAMES {
            tx.append_frame_with(seq, |buf| {
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&payload);
            });
            seq += 1;
            while tx.wants_write() {
                tx.flush().expect("loopback flush");
            }
            while frames.is_empty() {
                rx.read_frames(&mut frames, &mut pool)
                    .expect("loopback read");
            }
            for (_, buf) in frames.drain(..) {
                pool.put(buf);
            }
        }
        FRAMES
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, generate};

    fn probe(name: &str) -> Vec<(&'static str, Option<f64>)> {
        let spec = find(name).unwrap().scaled_down(20);
        run(&spec, &generate(&spec, 5))
    }

    fn value(rows: &[(&'static str, Option<f64>)], name: &str) -> Option<f64> {
        rows.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn probes_follow_the_modules_a_workload_uses() {
        let sai = probe("match_sai");
        assert!(value(&sai, "overlay.route_ns").unwrap() > 0.0);
        assert!(value(&sai, "tables.vlqt_scan_ns_per_candidate").is_some());
        assert!(value(&sai, "tables.vltt_scan_ns_per_candidate").is_some());
        assert!(value(&sai, "tables.vstore_insert_ns").is_none());
        assert!(value(&sai, "wire.bytes_per_msg").is_none());

        let daiq = probe("match_daiq");
        assert!(value(&daiq, "tables.vlqt_insert_ns").is_none());
        assert!(value(&daiq, "tables.vltt_insert_ns").is_some());

        let daiv = probe("pose_mix_daiv");
        assert!(value(&daiv, "tables.vstore_scan_ns_per_candidate").is_some());
        assert!(value(&daiv, "tables.vlqt_insert_ns").is_none());

        let tcp = probe("tcp_dait");
        assert!(value(&tcp, "wire.bytes_per_msg").unwrap() > 8.0);
        assert!(value(&tcp, "frames.pump_ns_per_frame").unwrap() > 0.0);
    }
}
