//! Allocation + throughput audit of the join-evaluation kernels.
//!
//! Prints one JSON object to stdout with, per kernel and table size, the
//! events measured, ns/event, events/sec and — when built with
//! `--features count-allocs` — heap allocations per event. The audit's
//! point is the *slope*: each scan kernel is measured at two table sizes an
//! order of magnitude apart, and a zero-clone kernel shows (near-)constant
//! allocations per event while a clone-collect kernel grows linearly with
//! the candidate count. `scripts/bench_snapshot.sh` folds the output into
//! `BENCH_25.json` and enforces the flat-slope check.
//!
//! The VLTT side is measured through the engine's own `RunMatcher`: a run
//! of one rewriting (`vltt-scan`), and a `Join` message's run of fifty
//! against tuples half of which predate half of the queries (`join-run`),
//! which must allocate nothing per run.
//!
//! The same slope discipline covers failure detection and repair: the
//! `fault-pump`, `heartbeat-round` and `digest-round` kernels run a lossy
//! k=2 ring with the heartbeat detector on at two *held-state* sizes, and
//! the cost of an insert through the robustness layer, of an idle pump tick
//! (false confirmations included) and of a clean anti-entropy round must
//! not depend on how many items the nodes hold; the first two are also
//! gated on their absolute allocation counts.
//!
//! The `socket-pump` and `join-decode` kernels cover the TCP receive path:
//! a frame through a loopback `FrameConn` pair must allocate nothing, and
//! decoding a `Join` through a receiver's query interner must allocate for
//! the rewritten queries' own fields only — the same whether the queries
//! they carry are one or fifty distinct ones.
//!
//! Usage: `alloc_audit [--quick]` (`--quick` shrinks event counts for CI).

use std::sync::Arc;
use std::time::Instant;

use cq_bench::alloc_count;
use cq_engine::algo::RunMatcher;
use cq_engine::tables::{Alqt, StoredQuery, StoredRewritten, StoredTuple, Vlqt, Vltt};
use cq_engine::{Algorithm, EngineConfig, FaultConfig, Matches, Network, SuspicionConfig};
use cq_overlay::Id;
use cq_relational::{
    parse_query, Catalog, DataType, QueryKey, QueryRef, RelationSchema, RewrittenQuery, Side,
    Timestamp, Tuple, Value,
};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn query(cat: &Catalog, n: u64) -> QueryRef {
    query_posed_at(cat, n, Timestamp(0))
}

fn query_posed_at(cat: &Catalog, n: u64, ins_time: Timestamp) -> QueryRef {
    Arc::new(
        parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", cat)
            .unwrap()
            .into_query(QueryKey::derive("bench", n), "bench", ins_time, cat)
            .unwrap(),
    )
}

fn r_tuple(cat: &Catalog, a: i64, b: i64) -> Tuple {
    Tuple::new(
        cat.get("R").unwrap().clone(),
        vec![Value::Int(a), Value::Int(b)],
        Timestamp(1),
        a as u64,
    )
    .unwrap()
}

fn s_tuple(cat: &Catalog, c: i64, d: i64) -> Arc<Tuple> {
    Arc::new(
        Tuple::new(
            cat.get("S").unwrap().clone(),
            vec![Value::Int(c), Value::Int(d)],
            Timestamp(1),
            d as u64,
        )
        .unwrap(),
    )
}

/// One measured result row.
struct Row {
    kernel: &'static str,
    size: usize,
    events: u64,
    ns_per_event: f64,
    events_per_sec: f64,
    allocs_per_event: Option<f64>,
}

/// Times `events` iterations of `f`, counting allocations around the loop.
fn measure(kernel: &'static str, size: usize, events: u64, mut f: impl FnMut()) -> Row {
    // warm-up: fault in lazily allocated structures outside the window
    for _ in 0..events.min(100) {
        f();
    }
    let a0 = alloc_count::allocations();
    let t0 = Instant::now();
    for _ in 0..events {
        f();
    }
    let dt = t0.elapsed();
    let allocs = alloc_count::allocations() - a0;
    let ns = dt.as_nanos() as f64 / events as f64;
    Row {
        kernel,
        size,
        events,
        ns_per_event: ns,
        events_per_sec: 1e9 / ns,
        allocs_per_event: cfg!(feature = "count-allocs").then(|| allocs as f64 / events as f64),
    }
}

/// [`measure`] over five consecutive windows, keeping the fastest: a shared
/// box only adds noise upward, and the kernels gated on a timing *ratio*
/// run for milliseconds, well inside one noisy epoch.
fn measure_best(kernel: &'static str, size: usize, events: u64, mut f: impl FnMut()) -> Row {
    (0..5)
        .map(|_| measure(kernel, size, events, &mut f))
        .min_by(|a, b| a.ns_per_event.total_cmp(&b.ns_per_event))
        .expect("five windows")
}

/// `size` S tuples stored under `C = 7`, the `i`-th published at
/// `published(i)`.
fn vltt_of(cat: &Catalog, size: usize, published: impl Fn(usize) -> Timestamp) -> Vltt {
    let mut vltt = Vltt::new();
    for i in 0..size {
        let tuple = Tuple::new(
            cat.get("S").unwrap().clone(),
            vec![Value::Int(7), Value::Int(i as i64)],
            published(i),
            i as u64,
        )
        .unwrap();
        vltt.insert(StoredTuple {
            index_id: Id(i as u64),
            attr: "C".to_string(),
            tuple: Arc::new(tuple),
        })
        .unwrap();
    }
    vltt
}

/// Rewrites each query for the R tuple `(1, 7)` published at time 20.
fn rewritings(cat: &Catalog, queries: &[QueryRef]) -> Vec<RewrittenQuery> {
    let trigger = Tuple::new(
        cat.get("R").unwrap().clone(),
        vec![Value::Int(1), Value::Int(7)],
        Timestamp(20),
        0,
    )
    .unwrap();
    queries
        .iter()
        .map(|q| {
            RewrittenQuery::rewrite_attribute(q, Side::Left, "B", "C", &trigger)
                .unwrap()
                .unwrap()
        })
        .collect()
}

/// One rewritten query against the tuples stored under its value key,
/// through the engine's run matcher (a run of one).
fn audit_vltt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let run = rewritings(cat, &[query(cat, 0)]);
    let vltt = vltt_of(cat, size, |_| Timestamp(1));
    let tuples = vltt.bucket("S", "C", "i:7");
    // Recycled across events, as the engine's accumulator and matcher are.
    let mut matches = Matches::new(false);
    let mut matcher = RunMatcher::default();
    measure("vltt-scan", size, events, || {
        matches.clear();
        matcher
            .match_run(&run, tuples, &mut matches, |_| {})
            .unwrap();
        assert_eq!(matches.len(), size as u64);
    })
}

/// A `Join` message's run at a DAI-Q evaluator: 50 rewritings of 50
/// distinct queries of one join condition against `size` stored tuples,
/// half of them published before half of the queries were posed. The run
/// matcher decides the shape once per tuple and the time test per pair; a
/// run must allocate nothing, whatever its size.
fn audit_join_run(cat: &Catalog, size: usize, events: u64) -> Row {
    let queries: Vec<QueryRef> = (0..50)
        .map(|n| query_posed_at(cat, n, Timestamp(if n % 2 == 0 { 0 } else { 10 })))
        .collect();
    let run = rewritings(cat, &queries);
    let vltt = vltt_of(cat, size, |i| Timestamp(if i % 2 == 0 { 5 } else { 15 }));
    let tuples = vltt.bucket("S", "C", "i:7");
    // every tuple for the early queries, the odd (late) ones for the others
    let expected = (25 * size + 25 * (size / 2)) as u64;
    let mut matches = Matches::new(false);
    let mut matcher = RunMatcher::default();
    measure("join-run", size, events, || {
        matches.clear();
        matcher
            .match_run(&run, tuples, &mut matches, |_| {})
            .unwrap();
        assert_eq!(matches.len(), expected);
    })
}

/// `match_vlqt_candidates`' inner loop: scan stored rewritten queries under
/// one value key, test the arriving tuple.
fn audit_vlqt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let tuple = s_tuple(cat, 7, 99);
    let mut vlqt = Vlqt::new();
    for i in 0..size as u64 {
        let q = query(cat, i);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &r_tuple(cat, 1, 7))
            .unwrap()
            .unwrap();
        vlqt.insert(StoredRewritten {
            index_id: Id(i),
            rq,
        })
        .unwrap();
    }
    // Recycled across events, as the engine's accumulator is.
    let mut matches = Matches::new(false);
    measure("vlqt-scan", size, events, || {
        matches.clear();
        for e in vlqt.candidates("S", "C", "i:7") {
            if e.rq.matches(&tuple).unwrap() {
                matches.add(&e.rq, &tuple).unwrap();
            }
        }
        assert_eq!(matches.len(), size as u64);
    })
}

/// The rewriter's triggered-group scan (`t1_tuple_arrival` / DAI-V tuple
/// arrival): iterate ALQT groups in place with borrowed group keys,
/// filtering by index identifier and attribute. Pure iteration — must be
/// allocation-free.
fn audit_alqt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let mut alqt = Alqt::new();
    for i in 0..size as u64 {
        alqt.insert(StoredQuery {
            index_id: Id(7),
            query: query(cat, i),
            index_side: Side::Left,
            index_attr: "B".to_string(),
        });
    }
    measure("alqt-scan", size, events, || {
        let mut checks = 0u64;
        for (group, stored) in alqt.groups("R", "B") {
            for sq in stored {
                if sq.index_id != Id(7) {
                    continue;
                }
                checks += 1;
                if sq.index_attr != "B" {
                    continue;
                }
                std::hint::black_box(group);
            }
        }
        assert_eq!(checks, size as u64);
    })
}

/// End-to-end steady-state tuple insert (routing + rewriting + matching +
/// delivery) — the trajectory number future PRs compare against. Allocations
/// here are *not* expected to be flat in the query count (each extra match
/// legitimately produces notification work); the scan kernels above isolate
/// the allocation-free parts.
fn audit_insert_e2e(size: usize, events: u64) -> Row {
    let mut net = Network::new(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(256)
            .with_seed(7),
        catalog(),
    );
    let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
    for i in 0..size {
        let poser = net.node_at(i % 256);
        net.pose_query_sql(poser, sql).unwrap();
    }
    let mut i = 0i64;
    // The name predates the removal of per-message delivery; it stays so
    // `BENCH_N.json` rows remain comparable across snapshots.
    measure("insert-e2e-bundled", size, events, move || {
        i += 1;
        let from = net.node_at((i as usize) % 256);
        let (rel, values) = if i % 2 == 0 {
            ("R", vec![Value::Int(i), Value::Int(i % 32)])
        } else {
            ("S", vec![Value::Int(i % 32), Value::Int(i)])
        };
        net.insert_tuple(from, rel, values).unwrap();
    })
}

/// The socket hot path in isolation: one frame pumped per event through a
/// loopback [`cq_engine::frames::FrameConn`] pair — encoded in place at the write queue's
/// tail, flushed with a vectored write, read back through the pooled-buffer
/// path, and the buffer recycled. After the warm-up primes the write
/// segments, the read chunk, and the pool, the steady state must be
/// allocation-free end to end (`size` is the frame payload in bytes).
fn audit_socket_pump(size: usize, events: u64) -> Row {
    use cq_engine::frames::{BufPool, FrameConn, RawFrame};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let mut tx = FrameConn::new(client, cq_engine::wire::MAX_FRAME).expect("tx conn");
    let mut rx = FrameConn::new(server, cq_engine::wire::MAX_FRAME).expect("rx conn");
    let payload = vec![0xA5u8; size];
    let mut pool = BufPool::new();
    let mut out: Vec<RawFrame> = Vec::new();
    let mut seq = 0u64;
    measure("socket-pump", size, events, move || {
        tx.append_frame_with(seq, |buf| {
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
        });
        seq += 1;
        while tx.wants_write() {
            tx.flush().expect("flush");
        }
        while out.is_empty() {
            rx.read_frames(&mut out, &mut pool).expect("read");
        }
        for (_, buf) in out.drain(..) {
            pool.put(buf);
        }
    })
}

/// The receive side of a rewritten-query shipment: one `Join` frame of 8
/// rewritten queries decoded through a receiver's
/// [`cq_engine::wire::QueryInterner`] — what `TcpTransport` keeps per node —
/// with the frames drawing on `size` distinct queries. Once the interner has
/// seen each query, a decode allocates only what the rewritten queries
/// themselves own (keys, bound values, targets), however many distinct
/// queries they reference.
fn audit_join_decode(cat: &Catalog, size: usize, events: u64) -> Row {
    use cq_engine::wire::{decode_message_interned, encode_message, QueryInterner};
    use cq_engine::Message;

    let tuple = r_tuple(cat, 1, 7);
    let rewritten: Vec<RewrittenQuery> = (0..size as u64)
        .map(|i| {
            RewrittenQuery::rewrite_attribute(&query(cat, i), Side::Left, "B", "C", &tuple)
                .unwrap()
                .unwrap()
        })
        .collect();
    let frames: Vec<Vec<u8>> = (0..50)
        .map(|f| {
            let items = (0..8).map(|j| rewritten[(8 * f + j) % size].clone());
            let mut buf = Vec::new();
            encode_message(
                &Message::Join {
                    items: items.collect(),
                    index_id: Id(f as u64),
                },
                &mut buf,
            );
            buf
        })
        .collect();
    let mut queries = QueryInterner::new();
    let mut next = 0;
    measure("join-decode", size, events, move || {
        let frame = &frames[next % frames.len()];
        next += 1;
        let (msg, used) = decode_message_interned(frame, cat, &mut queries).unwrap();
        assert_eq!(used, frame.len());
        std::hint::black_box(msg);
    })
}

/// A 32-node DAI-Q ring under 5 % loss with k=2 replication and the
/// heartbeat detector on (the `churn_dait` fault profile), holding `size`
/// tuples — each mirrored on two successors — that never join: the fault
/// pump, the detector and anti-entropy are the only work that scales.
fn churn_net(size: usize, suspicion: SuspicionConfig) -> Network {
    let mut fault = FaultConfig::lossy(0.05, 12);
    fault.replication = 2;
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiQ)
            .with_nodes(32)
            .with_seed(12)
            .with_fault(fault)
            .with_suspicion(suspicion.with_suspect_after(4).with_confirm_after(4)),
        catalog(),
    );
    let poser = net.node_at(0);
    net.pose_query_sql(poser, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C")
        .unwrap();
    for i in 0..size as i64 {
        let from = net.node_at(i as usize % 32);
        net.insert_tuple(from, "S", vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    }
    net.settle().unwrap();
    net
}

/// One tuple insert through the whole robustness layer (loss draws, acks,
/// retransmits, mirroring, heartbeats, false confirmations, digest rounds
/// on their default cadence) with `size` items already held.
fn audit_fault_pump(size: usize, events: u64) -> Row {
    let mut net = churn_net(size, SuspicionConfig::active());
    let mut i = size as i64;
    measure("fault-pump", size, events, move || {
        i += 1;
        let from = net.node_at(i as usize % 32);
        net.insert_tuple(from, "S", vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    })
}

/// One idle pump tick: every fourth is a heartbeat round, and under 5 %
/// loss a steady trickle of alive nodes gets falsely confirmed — each
/// confirmation runs stabilization and replica promotion, which must cost
/// the same whether the nodes hold `size` items or ten times as many.
/// Anti-entropy is off so the tick cost is the detector's alone.
fn audit_heartbeat_round(size: usize, events: u64) -> Row {
    let mut net = churn_net(size, SuspicionConfig::active().with_anti_entropy_every(0));
    let before = net.recovery_counters();
    let row = measure_best("heartbeat-round", size, events, || net.tick_now().unwrap());
    let after = net.recovery_counters();
    assert!(after.heartbeats_sent > before.heartbeats_sent);
    assert!(
        after.confirms > before.confirms,
        "the window must contain false-confirm ticks"
    );
    assert_eq!(after.detections, 0, "nobody died");
    row
}

/// One clean anti-entropy round (every primary against both successors,
/// nothing to repair) over `size` held items. The cadence is parked far in
/// the future so only the explicit hook runs rounds.
fn audit_digest_round(size: usize, events: u64) -> Row {
    let parked = SuspicionConfig::active().with_anti_entropy_every(u64::MAX / 2);
    let mut net = churn_net(size, parked);
    // repair whatever the lossy fill left unmirrored; repair traffic is
    // itself lossy, so iterate to the fixed point
    loop {
        let before = net.recovery_counters().repair_items;
        net.anti_entropy_now().unwrap();
        if net.recovery_counters().repair_items == before {
            break;
        }
    }
    let before = net.recovery_counters();
    let row = measure_best("digest-round", size, events, || {
        net.anti_entropy_now().unwrap()
    });
    let after = net.recovery_counters();
    assert!(after.digest_exchanges > before.digest_exchanges);
    assert_eq!(after.repair_items, before.repair_items, "rounds were clean");
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cat = catalog();
    let (scan_events, e2e_events) = if quick { (200, 200) } else { (2_000, 5_000) };
    // held items per ring for the failure-handling kernels, 10x apart; the
    // gated kernels' events are microseconds each, so even `--quick` takes
    // enough of them for a stable ratio
    let (held_small, held_large) = if quick { (200, 2_000) } else { (1_000, 10_000) };
    let round_events = e2e_events.max(1_000);
    let rows = [
        audit_vltt_scan(&cat, 1_000, scan_events),
        audit_vltt_scan(&cat, 10_000, scan_events.max(200) / 10),
        audit_join_run(&cat, 1_000, scan_events.max(200) / 10),
        audit_join_run(&cat, 10_000, scan_events.max(2_000) / 100),
        audit_vlqt_scan(&cat, 1_000, scan_events),
        audit_vlqt_scan(&cat, 10_000, scan_events.max(200) / 10),
        audit_alqt_scan(&cat, 50, scan_events),
        audit_alqt_scan(&cat, 500, scan_events),
        audit_insert_e2e(50, e2e_events),
        audit_socket_pump(256, e2e_events),
        audit_join_decode(&cat, 1, e2e_events),
        audit_join_decode(&cat, 50, e2e_events),
        audit_fault_pump(held_small, scan_events),
        audit_fault_pump(held_large, scan_events),
        audit_heartbeat_round(held_small, round_events),
        audit_heartbeat_round(held_large, round_events),
        audit_digest_round(held_small, round_events),
        audit_digest_round(held_large, round_events),
    ];
    println!("{{");
    println!("  \"count_allocs\": {},", cfg!(feature = "count-allocs"));
    println!("  \"kernels\": [");
    for (i, r) in rows.iter().enumerate() {
        let allocs = r
            .allocs_per_event
            .map_or("null".to_string(), |a| format!("{a:.2}"));
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"kernel\": \"{}\", \"size\": {}, \"events\": {}, \
             \"ns_per_event\": {:.1}, \"events_per_sec\": {:.0}, \
             \"allocs_per_event\": {}}}{}",
            r.kernel, r.size, r.events, r.ns_per_event, r.events_per_sec, allocs, comma
        );
    }
    println!("  ]");
    println!("}}");
}
