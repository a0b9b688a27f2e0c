//! Adversarial-peer framing tests against the TCP reactor, plus direct
//! `FrameConn` hardening checks: hostile peers must surface as typed
//! protocol errors (never silently misdecoded messages), malformed lengths
//! must be rejected before body bytes are buffered, and the write path must
//! survive kernel backpressure.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use cq_engine::frames::{BufPool, FrameConn, RawFrame, READ_CHUNK, SHRINK_AT, SHRINK_TO};
use cq_engine::{Algorithm, EngineConfig, Network, TcpOptions};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Str)]).unwrap())
        .unwrap();
    c
}

/// A TCP-backed network small enough for fast adversarial runs; the short
/// stall timeout keeps any accidental deadlock from hanging the suite.
fn tcp_net() -> Network {
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(8)
            .with_seed(5),
        catalog(),
    );
    net.enable_tcp_transport_with(TcpOptions {
        stall_timeout: Duration::from_secs(5),
        ..TcpOptions::default()
    })
    .expect("bind loopback listeners");
    net
}

/// Connects a rogue peer to a node's listener and performs the transport
/// hello: `[from u32 LE][next frame seq u64 LE]`.
fn rogue_connect(addr: SocketAddr, from: u32, start_seq: u64) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect to node listener");
    let mut hello = [0u8; 12];
    hello[..4].copy_from_slice(&from.to_le_bytes());
    hello[4..].copy_from_slice(&start_seq.to_le_bytes());
    s.write_all(&hello).expect("write hello");
    s
}

/// Encodes one on-stream frame: `[seq u64][len u32][body]`.
fn raw_frame(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(12 + body.len());
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&(body.len() as u32).to_le_bytes());
    f.extend_from_slice(body);
    f
}

/// Keeps inserting tuples (each insert drives the reactor) until a typed
/// protocol error containing `needle` surfaces.
fn expect_protocol_error(net: &mut Network, needle: &str) {
    let node = net.node_at(0);
    for i in 0..100i64 {
        std::thread::sleep(Duration::from_millis(5));
        match net.insert_tuple(node, "R", vec![Value::Int(i), Value::Int(i)]) {
            Ok(_) => continue,
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(needle), "expected {needle:?} in: {msg}");
                return;
            }
        }
    }
    panic!("no protocol error surfaced for {needle:?}");
}

#[test]
fn zero_length_frame_is_rejected() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[3];
    let mut rogue = rogue_connect(addr, 0xDEAD, 0);
    rogue
        .write_all(&[0u8; 12]) // seq 0, announced length 0
        .unwrap();
    expect_protocol_error(&mut net, "frame length 0 outside");
}

/// Without a fault pump, a frame's bytes are charged when it is queued. A
/// drain that fails must not leave them for the next drain to charge after
/// `reset_metrics()`.
#[test]
fn a_failed_drain_leaves_no_wire_bytes_behind() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[3];
    let mut rogue = rogue_connect(addr, 0xDEAD, 0);
    rogue.write_all(&[0u8; 12]).unwrap();
    expect_protocol_error(&mut net, "frame length 0 outside");
    net.reset_metrics();
    // Routes nothing new: no query is posed, so the failed insert's
    // envelopes that still arrive trigger no sends.
    net.stabilize(0).unwrap();
    assert_eq!(net.metrics().faults.total_bytes_sent(), 0);
}

#[test]
fn oversized_length_is_rejected_before_any_body_arrives() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[2];
    let mut rogue = rogue_connect(addr, 0xDEAD, 0);
    // Header only: 12 bytes announcing a body larger than MAX_FRAME. The
    // receiver must reject at header time — it can never see the body.
    let mut header = [0u8; 12];
    header[8..].copy_from_slice(&(cq_engine::wire::MAX_FRAME + 1).to_le_bytes());
    rogue.write_all(&header).unwrap();
    expect_protocol_error(&mut net, "outside (0,");
}

#[test]
fn mid_frame_disconnect_is_a_typed_error() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[1];
    let mut rogue = rogue_connect(addr, 0xBEEF, 0);
    // A truncated frame: announce 100 bytes, deliver 10, vanish.
    let mut partial = raw_frame(0, &[7u8; 100]);
    partial.truncate(12 + 10);
    rogue.write_all(&partial).unwrap();
    rogue.shutdown(Shutdown::Both).unwrap();
    expect_protocol_error(&mut net, "closed mid-frame");
}

#[test]
fn reconnect_gap_is_detected_and_clean_reconnect_is_not() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[4];
    // A well-behaved sender: two complete frames, then a clean close at a
    // frame boundary.
    let mut peer = rogue_connect(addr, 0xFEED, 0);
    peer.write_all(&raw_frame(0, &[1, 2, 3])).unwrap();
    peer.write_all(&raw_frame(1, &[4, 5, 6])).unwrap();
    peer.shutdown(Shutdown::Both).unwrap();
    // Drive the reactor so the frames and the EOF are consumed.
    let node = net.node_at(0);
    for i in 0..10i64 {
        std::thread::sleep(Duration::from_millis(5));
        net.insert_tuple(node, "R", vec![Value::Int(i), Value::Int(i)])
            .expect("clean close at a frame boundary is not an error");
    }
    // Clean reconnect: the hello announces exactly the next sequence
    // number — accepted.
    let mut peer = rogue_connect(addr, 0xFEED, 2);
    peer.write_all(&raw_frame(2, &[9])).unwrap();
    peer.shutdown(Shutdown::Both).unwrap();
    for i in 0..10i64 {
        std::thread::sleep(Duration::from_millis(5));
        net.insert_tuple(node, "R", vec![Value::Int(100 + i), Value::Int(i)])
            .expect("a seamless reconnect is not an error");
    }
    // Gap reconnect: frames 3 and 4 died buffered in a "broken" connection;
    // the hello announcing 5 where 3 is expected must surface, not silently
    // re-pair (the old backend decoded the wrong message here).
    let _peer = rogue_connect(addr, 0xFEED, 5);
    expect_protocol_error(&mut net, "were lost");
}

#[test]
fn replayed_stream_is_detected() {
    let mut net = tcp_net();
    let addr = net.tcp_local_addrs().expect("tcp enabled")[5];
    let mut peer = rogue_connect(addr, 0xCAFE, 0);
    peer.write_all(&raw_frame(0, &[1])).unwrap();
    peer.shutdown(Shutdown::Both).unwrap();
    let node = net.node_at(0);
    for i in 0..10i64 {
        std::thread::sleep(Duration::from_millis(5));
        net.insert_tuple(node, "R", vec![Value::Int(i), Value::Int(i)])
            .expect("clean close is not an error");
    }
    // A "reconnect" that rewinds to an already-consumed sequence number is
    // a replay, not a resume.
    let _peer = rogue_connect(addr, 0xCAFE, 0);
    expect_protocol_error(&mut net, "replayed");
}

#[test]
fn large_frames_backpressure_and_shrink_through_the_real_transport() {
    // Tiny kernel buffers + a tuple whose wire frame exceeds SHRINK_AT
    // forces the transport through partial writes (userspace backpressure)
    // and the chunked-read + shrink path — and the run must still deliver.
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(8)
            .with_seed(5),
        catalog(),
    );
    net.enable_tcp_transport_with(TcpOptions {
        send_buffer: Some(4096),
        stall_timeout: Duration::from_secs(30),
    })
    .expect("bind loopback listeners");
    let poser = net.node_at(0);
    net.pose_query_sql(poser, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C")
        .unwrap();
    let big = "x".repeat(SHRINK_AT + 1024);
    net.insert_tuple(
        net.node_at(1),
        "S",
        vec![Value::Int(7), Value::Str(big.clone())],
    )
    .unwrap();
    net.insert_tuple(net.node_at(2), "R", vec![Value::Int(1), Value::Int(7)])
        .unwrap();
    assert_eq!(net.inbox(poser).len(), 1, "the join must still fire");
    assert!(
        net.inbox(poser)[0].to_string().contains(&big[..32]),
        "the large value survived the wire"
    );
    assert!(
        net.take_socket_stats().expect("tcp enabled").blocked_writes > 0,
        "a {}-byte frame through a 4 KiB SO_SNDBUF must hit backpressure",
        SHRINK_AT + 1024
    );
}

#[test]
fn frameconn_rejects_oversized_header_immediately() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    let mut fc = FrameConn::new(server, 1024).unwrap();
    // Announce 2000 bytes against a 1024-byte cap; send the header only.
    let mut header = [0u8; 12];
    header[8..].copy_from_slice(&2000u32.to_le_bytes());
    client.write_all(&header).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let mut out = Vec::new();
    let mut pool = BufPool::new();
    let err = fc
        .read_frames(&mut out, &mut pool)
        .expect_err("header must be judged");
    assert!(err.to_string().contains("outside (0, 1024]"), "{err}");
    assert!(out.is_empty());
}

/// A connected loopback pair: the raw sending socket and the receiving
/// `FrameConn`.
fn loopback(max_frame: u32) -> (TcpStream, FrameConn) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    (client, FrameConn::new(server, max_frame).unwrap())
}

/// Reads until `out` holds `want` frames (the peer stays open).
fn read_until(fc: &mut FrameConn, pool: &mut BufPool, out: &mut Vec<RawFrame>, want: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while out.len() < want {
        assert!(std::time::Instant::now() < deadline, "frames never arrived");
        assert!(fc.read_frames(out, pool).unwrap(), "peer stays open");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn malformed_length_is_rejected_with_no_body_byte_buffered() {
    // The header arrives together with body bytes, and — the harder case —
    // split across two reads, so it completes inside the reassembly buffer.
    for len in [0u32, 2000] {
        let mut stream = raw_frame(0, &[0x5A; 512]);
        stream[8..12].copy_from_slice(&len.to_le_bytes());
        let mut pool = BufPool::new();
        let mut out = Vec::new();

        let (mut client, mut fc) = loopback(1024);
        client.write_all(&stream).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let err = fc.read_frames(&mut out, &mut pool).unwrap_err();
        assert!(err.to_string().contains("outside (0, 1024]"), "{err}");
        assert_eq!(fc.read_buffer_capacity(), 0, "nothing was buffered");

        let (mut client, mut fc) = loopback(1024);
        client.write_all(&stream[..6]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(fc.read_frames(&mut out, &mut pool).unwrap());
        client.write_all(&stream[6..]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let err = fc.read_frames(&mut out, &mut pool).unwrap_err();
        assert!(err.to_string().contains("outside (0, 1024]"), "{err}");
        assert!(
            fc.read_buffer_capacity() < 32,
            "only the 12 header bytes may be buffered (capacity {})",
            fc.read_buffer_capacity()
        );
        assert!(out.is_empty());
    }
}

#[test]
fn connections_sharing_a_pool_never_see_each_others_bytes() {
    // One BufPool means one read buffer under both connections. Each
    // delivers half a frame, the reads interleave, then the other halves
    // arrive: whatever a connection needs past a read must have been copied
    // out of the shared buffer before the other connection reads into it.
    let (mut client_a, mut a) = loopback(cq_engine::wire::MAX_FRAME);
    let (mut client_b, mut b) = loopback(cq_engine::wire::MAX_FRAME);
    let mut pool = BufPool::new();
    let body_a: Vec<u8> = (0..3000u32).map(|i| (i % 97) as u8).collect();
    let body_b: Vec<u8> = (0..3000u32).map(|i| 128 + (i % 89) as u8).collect();
    let (stream_a, stream_b) = (raw_frame(7, &body_a), raw_frame(9, &body_b));
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    // Cuts inside the header (a) and inside the body (b).
    for (cut_a, cut_b) in [(5, 1500), (1500, 5), (12, 13)] {
        client_a.write_all(&stream_a[..cut_a]).unwrap();
        client_b.write_all(&stream_b[..cut_b]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(a.read_frames(&mut out_a, &mut pool).unwrap());
        assert!(b.read_frames(&mut out_b, &mut pool).unwrap());
        assert!(a.read_frames(&mut out_a, &mut pool).unwrap());
        assert!(out_a.is_empty() && out_b.is_empty());
        client_b.write_all(&stream_b[cut_b..]).unwrap();
        client_a.write_all(&stream_a[cut_a..]).unwrap();
        read_until(&mut b, &mut pool, &mut out_b, 1);
        read_until(&mut a, &mut pool, &mut out_a, 1);
        let (seq_a, frame_a) = out_a.pop().unwrap();
        let (seq_b, frame_b) = out_b.pop().unwrap();
        assert_eq!((seq_a, seq_b), (7, 9));
        assert!(
            frame_a == stream_a[8..],
            "stream a corrupted at cut {cut_a}"
        );
        assert!(
            frame_b == stream_b[8..],
            "stream b corrupted at cut {cut_b}"
        );
        pool.put(frame_a);
        pool.put(frame_b);
    }
}

#[test]
fn whole_frame_traffic_never_allocates_a_reassembly_buffer() {
    let (mut client, mut fc) = loopback(cq_engine::wire::MAX_FRAME);
    let mut pool = BufPool::new();
    let mut out = Vec::new();
    for seq in 0..20u64 {
        // Several frames per read as well as one.
        for burst in 0..=(seq % 3) {
            client
                .write_all(&raw_frame(3 * seq + burst, &[seq as u8; 300]))
                .unwrap();
        }
        read_until(&mut fc, &mut pool, &mut out, 1 + (seq % 3) as usize);
        for (_, buf) in out.drain(..) {
            assert_eq!(buf[4..], [seq as u8; 300]);
            pool.put(buf);
        }
    }
    assert_eq!(
        fc.read_buffer_capacity(),
        0,
        "reads that end on frame boundaries leave nothing to reassemble"
    );
}

#[test]
fn frameconn_shrinks_after_a_large_frame() {
    let (mut client, mut fc) = loopback(cq_engine::wire::MAX_FRAME);
    let body = vec![0xABu8; SHRINK_AT + 4096];
    let stream = raw_frame(0, &body);
    let mut out = Vec::new();
    let mut pool = BufPool::new();
    // The header and a sliver of the body first: the announced length must
    // not size the reassembly buffer — it grows with the bytes that arrive.
    client.write_all(&stream[..100]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert!(fc.read_frames(&mut out, &mut pool).unwrap());
    assert!(out.is_empty());
    assert!(
        (100..4096).contains(&fc.read_buffer_capacity()),
        "100 buffered bytes, not the announced {} (capacity {})",
        body.len(),
        fc.read_buffer_capacity()
    );
    let writer = std::thread::spawn(move || {
        client.write_all(&stream[100..]).unwrap();
        client // keep the connection open
    });
    read_until(&mut fc, &mut pool, &mut out, 1);
    let _client = writer.join().unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1.len(), 4 + SHRINK_AT + 4096);
    assert!(out[0].1[4..].iter().all(|&b| b == 0xAB));
    assert!(
        fc.counters().read_syscalls > (SHRINK_AT / READ_CHUNK) as u64,
        "a read moves at most {READ_CHUNK} bytes ({} reads)",
        fc.counters().read_syscalls
    );
    assert!(
        fc.read_buffer_capacity() < SHRINK_AT,
        "the reassembly buffer must release the large frame's allocation \
         (capacity {})",
        fc.read_buffer_capacity()
    );
}

/// A loopback pair whose sending `FrameConn` has a 4 KiB `SO_SNDBUF`, and
/// a slow reader thread (at most 8 KiB per millisecond) that collects
/// `total` bytes off the other end.
fn cramped_sender(total: usize) -> (FrameConn, std::thread::JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    cq_poll::set_send_buffer(&server, 4096).unwrap();
    let fc = FrameConn::new(server, cq_engine::wire::MAX_FRAME).unwrap();
    let reader = std::thread::spawn(move || {
        use std::io::Read;
        let mut client = client;
        let mut received = Vec::with_capacity(total);
        let mut chunk = [0u8; 8192];
        while received.len() < total {
            // A slow reader keeps the kernel buffer full so flushes stay
            // partial for most of the transfer.
            std::thread::sleep(Duration::from_millis(1));
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => received.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("reader: {e}"),
            }
        }
        received
    });
    (fc, reader)
}

#[test]
fn flush_survives_partial_writes_of_a_large_queue() {
    // Queue ~200 KB of frames, then push them through a 4 KiB SO_SNDBUF at
    // a slow reader: flushes short-write mid-frame, so the flush cursor is
    // exercised hard. The peer must receive the exact queued byte stream.
    let frames: Vec<Vec<u8>> = (0..200u64)
        .map(|seq| raw_frame(seq, &[(seq & 0xFF) as u8; 997]))
        .collect();
    let expected = frames.concat();
    let (mut fc, reader) = cramped_sender(expected.len());
    for (seq, frame) in frames.iter().enumerate() {
        fc.queue_frame(seq as u64, &frame[8..]);
    }
    assert_eq!(
        fc.queued_write_bytes(),
        expected.len(),
        "every queued frame waits whole, header included"
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while fc.wants_write() {
        assert!(std::time::Instant::now() < deadline, "flush never drained");
        fc.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        fc.blocked_writes() > 0,
        "200 KB through a 4 KiB kernel buffer must short-write"
    );
    drop(fc); // close so the reader's final read can observe EOF if needed
    let received = reader.join().unwrap();
    assert_eq!(received.len(), expected.len());
    assert!(
        received == expected,
        "byte stream corrupted by partial writes"
    );
}

#[test]
fn appends_between_blocked_flushes_keep_the_byte_stream_exact() {
    // Frames keep arriving while earlier ones are stuck behind a 4 KiB
    // kernel buffer: every flush that blocks may drop the written prefix of
    // the write buffer, and every append after it lands behind what is
    // left. The peer must see the exact byte stream, and the queue must
    // account for every byte appended and not yet written.
    let frames: Vec<Vec<u8>> = (0..300u64)
        .map(|seq| {
            raw_frame(
                seq,
                &vec![(seq % 251) as u8; 1000 + (seq as usize * 379) % 6000],
            )
        })
        .collect();
    let expected = frames.concat();
    let (mut fc, reader) = cramped_sender(expected.len());
    let mut pending = frames.iter().enumerate().peekable();
    let (mut appended, mut behind_blocked) = (0usize, 0u32);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pending.peek().is_some() || fc.wants_write() {
        assert!(std::time::Instant::now() < deadline, "flush never drained");
        if pending.peek().is_some() && fc.wants_write() {
            behind_blocked += 1;
        }
        // Three to five frames per round (~16 KB, twice what the reader
        // drains), then a flush.
        for (seq, frame) in pending.by_ref().take(3 + appended % 3) {
            fc.queue_frame(seq as u64, &frame[8..]);
            appended += frame.len();
        }
        fc.flush().unwrap();
        let written = fc.counters().bytes_written as usize;
        assert_eq!(
            fc.queued_write_bytes(),
            appended - written,
            "queued bytes after a flush: appended {appended}, written {written}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        behind_blocked >= 5,
        "appends must keep landing behind a blocked flush ({behind_blocked} times)"
    );
    drop(fc);
    let received = reader.join().unwrap();
    assert_eq!(received.len(), expected.len());
    assert!(
        received == expected,
        "byte stream corrupted by appends between blocked flushes"
    );
}

#[test]
fn pool_buffers_are_reused_and_large_ones_shrink() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    let mut fc = FrameConn::new(server, cq_engine::wire::MAX_FRAME).unwrap();
    let mut pool = BufPool::new();
    let mut out = Vec::new();

    // Steady state: one frame at a time, recycled after each delivery.
    // After the first miss primes the pool, every further frame is a hit.
    for seq in 0..50u64 {
        client.write_all(&raw_frame(seq, &[7u8; 256])).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while out.is_empty() {
            assert!(std::time::Instant::now() < deadline, "frame never arrived");
            assert!(fc.read_frames(&mut out, &mut pool).unwrap());
        }
        for (_, buf) in out.drain(..) {
            pool.put(buf);
        }
    }
    let (hits, misses) = pool.counters();
    assert_eq!(hits + misses, 50, "every frame drew one pool buffer");
    assert!(
        hits >= 49,
        "steady-state frames must reuse the pooled buffer \
         ({hits} hits / {misses} misses)"
    );
    assert_eq!(pool.buffered(), 1, "the one buffer cycles through the pool");

    // A buffer that ballooned past SHRINK_AT must not be retained at full
    // capacity — the pool shrinks it on put.
    let mut big = pool.get();
    big.reserve(SHRINK_AT + 1);
    pool.put(big);
    let recycled = pool.get();
    assert!(
        recycled.capacity() <= SHRINK_TO,
        "oversized buffers must shrink to {SHRINK_TO} on put \
         (capacity {})",
        recycled.capacity()
    );
}

#[test]
fn flush_timing_never_leaks_into_the_protocol() {
    // When a frame actually leaves userspace — in the reactor's one
    // coalesced write per poll, or piecemeal because a tiny kernel buffer
    // keeps pushing back — must be invisible to the protocol: a run on the
    // default socket buffers and a run on 4 KiB ones must deliver the same
    // notifications and count the same logical traffic and wire bytes.
    let run = |buffer: Option<usize>| {
        let mut net = Network::new(
            EngineConfig::new(Algorithm::DaiT)
                .with_nodes(8)
                .with_seed(5)
                .with_retained_notifications(true),
            catalog(),
        );
        net.enable_tcp_transport_with(TcpOptions {
            send_buffer: buffer,
            ..TcpOptions::default()
        })
        .expect("bind loopback listeners");
        let poser = net.node_at(0);
        net.pose_query_sql(poser, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C")
            .unwrap();
        net.pose_query_sql(net.node_at(3), "SELECT R.B, S.C FROM R, S WHERE R.A = S.C")
            .unwrap();
        for i in 0..30i64 {
            net.insert_tuple(net.node_at(1), "R", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
            net.insert_tuple(
                net.node_at(2),
                "S",
                vec![Value::Int(i % 7), Value::Str(format!("s{i}"))],
            )
            .unwrap();
        }
        let m = net.metrics();
        let total = m.total_traffic();
        (
            net.delivered_set(),
            m.notifications_delivered,
            total.messages,
            total.hops,
            m.faults.total_bytes_sent(),
        )
    };
    let roomy = run(None);
    let cramped = run(Some(4096));
    assert!(roomy.1 > 0, "the workload must deliver notifications");
    assert_eq!(roomy, cramped, "flush timing leaked into the protocol");
}

#[test]
fn frameconn_counts_write_backpressure() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    cq_poll::set_send_buffer(&server, 4096).unwrap();
    let mut fc = FrameConn::new(server, cq_engine::wire::MAX_FRAME).unwrap();
    // 2 MiB into a 4 KiB kernel buffer with a peer that never reads: the
    // flush must park bytes in userspace rather than block or error.
    let body = vec![0u8; 2 * 1024 * 1024];
    let frame = raw_frame(0, &body);
    fc.queue_frame(0, &frame[8..]);
    let drained = fc.flush().unwrap();
    assert!(!drained, "2 MiB cannot fit a 4 KiB kernel buffer");
    assert!(fc.blocked_writes() > 0);
    assert!(fc.wants_write());
    drop(client);
}
