//! Real-socket transport backend: a nonblocking, readiness-driven TCP
//! event loop over `std::net` loopback.
//!
//! One listener per node slot, lazily established per-`(from, to)` stream
//! pairs, and every [`crate::messages::Message`] serialized through [`crate::wire`] on send
//! and decoded back off the socket before dispatch. Unlike the original
//! blocking lockstep backend (write one frame, read one frame), every
//! socket here is **nonblocking** and owned by a single reactor:
//!
//! * a [`cq_poll::Poller`] (epoll on Linux) reports which sockets are
//!   readable or writable;
//! * each connection is a [`crate::frames::FrameConn`] with its own
//!   write buffer — a full kernel send buffer parks the remaining
//!   bytes in userspace (**write backpressure**) until the poller reports
//!   the socket writable — while every read of every connection lands in
//!   the reactor's one read buffer (owned by its [`BufPool`]); a connection
//!   keeps bytes of its own only while a frame is partly received;
//! * [`TcpTransport::poll`] is the explicit progress hook: it flushes the
//!   connections that queued bytes since the last call (a list, not a walk
//!   over the connection table), accepts pending connections, and drains
//!   readable sockets. [`TcpTransport::next_delivery`] never blocks — it
//!   hands out the head envelope only once its frame has fully arrived, and
//!   `Network::process_all` calls `poll(block = true)` whenever envelopes
//!   are outstanding but no frame is ready.
//!
//! The backend keeps a userspace FIFO of *envelopes* (sender, receiver,
//! message id) in exact enqueue order while only the message payload
//! crosses the wire; because each stream preserves order, frames
//! carry per-stream sequence numbers, and the FIFO fixes the global order,
//! a run over sockets dispatches the identical message sequence as the
//! in-memory simulator at the same seed — delivered sets and metrics match
//! by construction.
//!
//! Failure model: `enqueue` must be infallible (transport contract), so a
//! send that fails parks the error and [`TcpTransport::next_delivery`]
//! surfaces it as a typed [`EngineError::Protocol`]; messages enqueued
//! while an error is parked are counted and the count is reported in the
//! surfaced error. Frame/envelope **misalignment is detected, never
//! repaired silently**: every stream numbers its frames, a reconnect hello
//! announces the sender's next sequence number, and any gap (frames that
//! died buffered in a broken connection) or replay surfaces as a typed
//! protocol error instead of decoding the wrong message. Injected faults
//! are not this backend's business: the pump (`Network::pump`) draws loss,
//! duplication and delay before anything is enqueued here, and only the
//! copies that survive cross a socket — so a frame lost to a broken
//! connection is still a typed error, not a retransmit.
//!
//! # What a message costs here
//!
//! The receive path costs O(bytes received): no per-read zero-fill, no read
//! buffer per connection, no walk over idle connections, and a query's bytes
//! are rebuilt and validated once per *receiving node*
//! ([`wire::QueryInterner`], one per node slot, never shared across nodes —
//! what one process per node would see). On `cqbench`'s `tcp_dait` (32
//! nodes, ≈ 24 messages in ≈ 21 frames per insert, all 992 directed
//! streams opened lazily over a round) scoped timers put one insert at, µs before → after:
//! flush `write` 137 → 129 (measured on `writev`), reads 199 → 59, decode 105 → 45, enqueue 46 →
//! 41 (lazy connects 28 → 24 of it), accept + hello 51 → 11, slot scan 16 →
//! 2, `epoll_wait` 9 → 8 (EXPERIMENTS.md has the table and the method). Three things the numbers settle:
//!
//! * **Frames per flush is bound by the topology, not the flush policy.**
//!   The critical path of an insert is 2 deep and each of its ≈ 21 frames
//!   goes to a different peer, so 1.06 frames per `write` is the ceiling;
//!   what is left of a flush is the kernel's loopback send path.
//! * **The `WouldBlock` probe read stays.** Every readable event costs a
//!   second `read` that returns `WouldBlock`; dropping it measured 2–3 %
//!   and would change when an EOF is observed.
//! * **Connects stay lazy.** Opening the ≈ 990 streams a round uses costs
//!   ≈ 24–28 µs per insert amortised; opening them eagerly would only move
//!   that into set-up, and on a larger ring open pairs that never talk.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use cq_fasthash::FxHashMap;
use cq_poll::{Event, Interest, Poller};

use crate::error::{EngineError, Result};
use crate::frames::{BufPool, ConnCounters, FrameConn, RawFrame};
use crate::messages::Message;
use crate::transport::Envelope;
use crate::wire;

use cq_relational::Catalog;

/// Hello preamble bytes on every fresh stream: the sender's slot (u32 LE)
/// followed by the sequence number of the first frame this stream will
/// carry (u64 LE).
const HELLO_LEN: usize = 12;

/// How long one blocking [`TcpTransport::poll`] slice waits for readiness
/// before returning to the driver.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// The coalesced-flush bound: `enqueue` only buffers frames, and the reactor
/// flushes each connection once per poll — unless a connection's queued
/// bytes reach this bound, which forces an immediate flush so userspace
/// queueing (and therefore added latency) stays bounded.
const MAX_COALESCE_BYTES: usize = 256 * 1024;

/// Tuning knobs for the TCP backend — all optional; the defaults match
/// production behavior and tests override them to force specific paths
/// (tiny kernel buffers exercise backpressure, a short stall timeout makes
/// deadlock tests fast).
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Kernel send-buffer size (`SO_SNDBUF`) applied to every outgoing
    /// stream; `None` keeps the system default. Shrinking it forces the
    /// write path into userspace backpressure.
    pub send_buffer: Option<usize>,
    /// How long the transport may wait for socket progress while an
    /// envelope's frame is outstanding before the run fails with a typed
    /// stall error (a lost frame would otherwise hang the drive loop).
    pub stall_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            send_buffer: None,
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Aggregate socket-path statistics, drained through
/// [`crate::Network::take_socket_stats`]. Connection tallies fold in here
/// when a connection closes and when the stats are taken; pool counters come
/// from the shared inbox [`BufPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// `write` calls issued across all connections (including
    /// `WouldBlock` attempts).
    pub write_syscalls: u64,
    /// `read` calls issued across all connections (including `WouldBlock`
    /// probes and EOF reads).
    pub read_syscalls: u64,
    /// Bytes the kernel accepted for sending.
    pub bytes_written: u64,
    /// Bytes read off the sockets.
    pub bytes_read: u64,
    /// Frames queued for sending.
    pub frames_sent: u64,
    /// Complete frames reassembled off the wire.
    pub frames_received: u64,
    /// Times any flush parked bytes in userspace (write backpressure).
    pub blocked_writes: u64,
    /// Inbox frame buffers served from the recycling pool.
    pub pool_hits: u64,
    /// Inbox frame buffers that had to be freshly allocated.
    pub pool_misses: u64,
}

impl SocketStats {
    /// Frames sent per write syscall — > 1 means flushes genuinely
    /// coalesce (the eager-flush baseline is exactly 1 frame per write).
    pub fn frames_per_flush(&self) -> f64 {
        if self.write_syscalls == 0 {
            return 0.0;
        }
        self.frames_sent as f64 / self.write_syscalls as f64
    }

    /// Payload bytes moved per syscall, reads and writes combined.
    pub fn bytes_per_syscall(&self) -> f64 {
        let calls = self.write_syscalls + self.read_syscalls;
        if calls == 0 {
            return 0.0;
        }
        (self.bytes_written + self.bytes_read) as f64 / calls as f64
    }

    /// Fraction of inbox frame buffers served without allocating.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    /// Folds one connection's tallies into the aggregate.
    fn merge_conn(&mut self, c: &ConnCounters) {
        self.write_syscalls += c.write_syscalls;
        self.read_syscalls += c.read_syscalls;
        self.bytes_written += c.bytes_written;
        self.bytes_read += c.bytes_read;
        self.frames_sent += c.frames_out;
        self.frames_received += c.frames_in;
        self.blocked_writes += c.blocked_writes;
    }
}

/// The queued metadata for one in-flight message: everything an
/// [`Envelope`] carries except the payload, which is on the wire.
struct InFlight {
    from: cq_overlay::NodeHandle,
    to: cq_overlay::NodeHandle,
    id: Option<crate::faults::MsgId>,
    twin: bool,
}

/// Maps an I/O failure into the transport's typed protocol error.
fn io_err(context: &str, e: io::Error) -> EngineError {
    EngineError::Protocol {
        detail: format!("tcp transport: {context}: {e}"),
    }
}

/// A logical stream's key: `(sending slot, receiving slot)`.
type StreamKey = (u32, u32);

/// The sending side of one logical stream.
#[derive(Default)]
struct SendHalf {
    /// Table index of the outgoing connection; `None` until the first send
    /// and after the connection closed (the next send reconnects).
    conn: Option<usize>,
    /// Sequence number of the next frame. Survives reconnects — the hello
    /// announces it so the receiver can detect loss.
    next_seq: u64,
}

/// The receiving side of one logical stream.
#[derive(Default)]
struct RecvHalf {
    /// Table index of the incoming connection, once its hello checked out.
    conn: Option<usize>,
    /// Sequence number of the next frame expected. Survives reconnects —
    /// a hello must announce exactly this.
    next_seq: u64,
    /// Fully reassembled frames awaiting their envelope, in arrival order.
    inbox: VecDeque<Vec<u8>>,
}

/// What role a reactor connection is playing.
enum ConnKind {
    /// Established outgoing stream: this side only writes frames (a read
    /// event can only mean the peer closed).
    Out(StreamKey),
    /// Accepted stream still reading its [`HELLO_LEN`]-byte preamble.
    Handshake {
        /// The accepting slot.
        to: u32,
        /// Hello bytes received so far.
        buf: [u8; HELLO_LEN],
        /// How many of `buf`'s bytes are filled.
        have: usize,
    },
    /// Established incoming stream; the sending slot came from the hello.
    In(StreamKey),
}

/// One reactor-owned connection.
struct Conn {
    fc: FrameConn,
    kind: ConnKind,
    /// Whether the poller currently watches this socket for writability
    /// (kept in sync lazily so interest changes cost an `epoll_ctl` only
    /// when the state actually flips).
    armed_write: bool,
}

/// The TCP loopback backend. See the module docs for the reactor, ordering
/// and failure model.
pub(crate) struct TcpTransport {
    /// Schemas for decoding tuples read back off the wire.
    catalog: Catalog,
    /// Backend tuning (socket buffers, stall timeout).
    opts: TcpOptions,
    /// The readiness poller driving every socket below.
    poller: Poller,
    /// One nonblocking listener per node slot, bound on `127.0.0.1:0`,
    /// registered under tokens `0..slots`.
    listeners: Vec<TcpListener>,
    /// The bound address of each slot's listener.
    addrs: Vec<SocketAddr>,
    /// Connection table; token `slots + i` maps to `conns[i]`.
    conns: Vec<Option<Conn>>,
    /// Free slots in `conns` for reuse.
    free: Vec<usize>,
    /// Every stream's sending side, keyed `(sender, receiver)`.
    sending: FxHashMap<StreamKey, SendHalf>,
    /// Every stream's receiving side, keyed `(sender, receiver)`.
    receiving: FxHashMap<StreamKey, RecvHalf>,
    /// Envelope metadata in network-global FIFO order.
    queue: VecDeque<InFlight>,
    /// A send failure parked until the next `next_delivery` call.
    deferred: Option<EngineError>,
    /// Messages discarded while `deferred` was parked (reported in the
    /// surfaced error so a failed run says how much was lost).
    dropped_after_error: u64,
    /// The reactor's one read buffer and its recycling pool of inbox frame
    /// buffers, shared across every connection: `read_frames` reads into
    /// and draws from it and `next_delivery` returns each frame after
    /// decoding, so steady-state inbox traffic allocates nothing and no
    /// connection owns a read buffer.
    pool: BufPool,
    /// The queries each node slot has decoded so far. Per *receiving* node
    /// and never shared: a node skips re-validating only bytes it decoded
    /// itself, as one process per node would.
    interners: Vec<wire::QueryInterner>,
    /// Connections that went from nothing queued to bytes queued since the
    /// last reactor flush, in that order (the head envelope's stream comes
    /// first). A connection parked under backpressure is not listed: its
    /// armed write interest brings it back.
    dirty: VecDeque<usize>,
    /// Aggregate socket statistics (closed connections fold in here; live
    /// connection tallies are folded on [`TcpTransport::take_socket_stats`]).
    stats: SocketStats,
    /// Reusable poller event buffer.
    events: Vec<Event>,
    /// Reusable frame-reassembly output buffer.
    scratch: Vec<RawFrame>,
    /// Accumulated blocking wait time with zero readiness events while
    /// envelopes were outstanding (drives the stall timeout).
    stalled: Duration,
}

impl TcpTransport {
    /// Binds one nonblocking loopback listener per node slot and sets up
    /// the reactor.
    pub(crate) fn bind(slots: usize, catalog: Catalog, opts: TcpOptions) -> Result<Self> {
        let mut poller = Poller::new().map_err(|e| io_err("create poller", e))?;
        let mut listeners = Vec::with_capacity(slots);
        let mut addrs = Vec::with_capacity(slots);
        for slot in 0..slots {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| io_err(&format!("bind listener for node {slot}"), e))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| io_err(&format!("nonblocking listener for node {slot}"), e))?;
            poller
                .register(&listener, slot as u64, Interest::READ)
                .map_err(|e| io_err(&format!("register listener for node {slot}"), e))?;
            addrs.push(
                listener
                    .local_addr()
                    .map_err(|e| io_err(&format!("local addr for node {slot}"), e))?,
            );
            listeners.push(listener);
        }
        Ok(TcpTransport {
            catalog,
            opts,
            poller,
            listeners,
            addrs,
            conns: Vec::new(),
            free: Vec::new(),
            sending: FxHashMap::default(),
            receiving: FxHashMap::default(),
            queue: VecDeque::new(),
            deferred: None,
            dropped_after_error: 0,
            pool: BufPool::new(),
            interners: (0..slots).map(|_| wire::QueryInterner::new()).collect(),
            dirty: VecDeque::new(),
            stats: SocketStats::default(),
            events: Vec::new(),
            scratch: Vec::new(),
            stalled: Duration::ZERO,
        })
    }

    /// The bound listener addresses, indexed by node slot (tests point
    /// adversarial peers at these).
    pub(crate) fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The poller token of connection-table index `idx`.
    fn conn_token(&self, idx: usize) -> u64 {
        (self.listeners.len() + idx) as u64
    }

    /// Inserts a connection into the table and registers it readable.
    fn alloc_conn(&mut self, conn: Conn) -> Result<usize> {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = self.conn_token(idx);
        self.poller
            .register(conn.fc.stream(), token, Interest::READ)
            .map_err(|e| io_err("register connection", e))?;
        self.conns[idx] = Some(conn);
        Ok(idx)
    }

    /// Deregisters, unmaps and drops a connection, folding its I/O tallies
    /// into the aggregate stats. The stream's sequence counters survive —
    /// they are what lets a reconnect prove (or disprove) that no frame was
    /// lost in between.
    fn close_conn(&mut self, idx: usize) {
        if let Some(mut conn) = self.conns[idx].take() {
            self.stats.merge_conn(&conn.fc.take_counters());
            let _ = self.poller.deregister(conn.fc.stream());
            let held = match conn.kind {
                ConnKind::Out(key) => self.sending.get_mut(&key).map(|h| &mut h.conn),
                ConnKind::In(key) => self.receiving.get_mut(&key).map(|h| &mut h.conn),
                ConnKind::Handshake { .. } => None,
            };
            if let Some(held) = held.filter(|held| **held == Some(idx)) {
                *held = None;
            }
            self.free.push(idx);
        }
    }

    /// Arms or disarms write interest for `idx`, issuing the poller
    /// `modify` only when the state actually changes (level-triggered:
    /// leaving write interest on an idle socket would spin the poller, and
    /// re-modifying an unchanged one would cost an `epoll_ctl` per flush).
    fn set_write_interest(&mut self, idx: usize, want: bool) -> Result<()> {
        let token = self.conn_token(idx);
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        if conn.armed_write == want {
            return Ok(());
        }
        conn.armed_write = want;
        let interest = if want { Interest::BOTH } else { Interest::READ };
        self.poller
            .modify(conn.fc.stream(), token, interest)
            .map_err(|e| io_err("update interest", e))
    }

    /// Flushes a connection's write buffer (one `write` per syscall)
    /// and keeps the poller's write interest in sync: armed while bytes
    /// stay parked under backpressure, disarmed once the queue drains.
    fn flush_conn(&mut self, idx: usize) -> Result<()> {
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        match conn.fc.flush() {
            Ok(true) => self.set_write_interest(idx, false),
            Ok(false) => self.set_write_interest(idx, true),
            Err(e) => {
                let context = match conn.kind {
                    ConnKind::Out((from, to)) => format!("write {from}→{to}"),
                    _ => "write".to_string(),
                };
                self.close_conn(idx);
                Err(io_err(&context, e))
            }
        }
    }

    /// Opens a fresh outgoing connection for `key` and queues its hello,
    /// which announces `next_seq`. Returns its table index.
    fn connect(&mut self, key: StreamKey, next_seq: u64) -> Result<usize> {
        let (from, to) = key;
        let connect = || -> io::Result<TcpStream> {
            let stream = TcpStream::connect(self.addrs[to as usize])?;
            stream.set_nodelay(true)?;
            if let Some(bytes) = self.opts.send_buffer {
                cq_poll::set_send_buffer(&stream, bytes)?;
            }
            Ok(stream)
        };
        let stream = connect().map_err(|e| io_err(&format!("connect {from}→{to}"), e))?;
        let mut fc = FrameConn::new(stream, wire::MAX_FRAME)
            .map_err(|e| io_err(&format!("nonblocking stream {from}→{to}"), e))?;
        let mut hello = [0u8; HELLO_LEN];
        hello[..4].copy_from_slice(&from.to_le_bytes());
        hello[4..].copy_from_slice(&next_seq.to_le_bytes());
        fc.queue_bytes(&hello);
        let idx = self.alloc_conn(Conn {
            fc,
            kind: ConnKind::Out(key),
            armed_write: false,
        })?;
        self.dirty.push_back(idx); // the hello is queued
        Ok(idx)
    }

    /// Encodes one message *in place* at the end of the `key` stream's
    /// write buffer (no scratch buffer, no memcpy), connecting first if the
    /// stream has no live connection, and applies the coalesced flush
    /// policy: the frame normally just buffers — the reactor flushes once
    /// per poll — but a buffer at or past [`MAX_COALESCE_BYTES`] flushes
    /// immediately. Returns the exact stream bytes queued: the codec frame
    /// plus its 8-byte sequence header. A failed connect takes no sequence
    /// number.
    fn enqueue_frame(&mut self, key: StreamKey, msg: &Message) -> Result<usize> {
        let mut half = self.sending.entry(key).or_default();
        let idx = match half.conn {
            Some(idx) if self.conns[idx].as_ref().is_some_and(|c| !c.fc.is_eof()) => idx,
            stale => {
                let next_seq = half.next_seq;
                if let Some(old) = stale {
                    self.close_conn(old);
                }
                let idx = self.connect(key, next_seq)?;
                half = self.sending.get_mut(&key).expect("entered above");
                half.conn = Some(idx);
                idx
            }
        };
        let seq = half.next_seq;
        half.next_seq += 1;
        // Invariant: the stream's connection is live (checked or opened above).
        let conn = self.conns[idx].as_mut().expect("live outgoing conn");
        if !conn.fc.wants_write() {
            self.dirty.push_back(idx);
        }
        let appended = conn
            .fc
            .append_frame_with(seq, |buf| wire::encode_message(msg, buf));
        if conn.fc.queued_write_bytes() >= MAX_COALESCE_BYTES {
            self.flush_conn(idx)?;
        }
        Ok(appended)
    }

    /// Parks a transport error for [`TcpTransport::next_delivery`] to
    /// surface (only the first error is kept; later ones add to the drop
    /// count through [`TcpTransport::enqueue`]'s guard).
    fn defer(&mut self, e: EngineError) {
        if self.deferred.is_none() {
            self.deferred = Some(e);
        }
    }

    /// Takes the parked error, folding in how many messages were discarded
    /// while it waited.
    fn take_deferred(&mut self) -> Option<EngineError> {
        let e = self.deferred.take()?;
        let dropped = std::mem::take(&mut self.dropped_after_error);
        if dropped == 0 {
            return Some(e);
        }
        Some(match e {
            EngineError::Protocol { detail } => EngineError::Protocol {
                detail: format!(
                    "{detail} ({dropped} subsequent message(s) discarded while the error was pending)"
                ),
            },
            other => other,
        })
    }

    // ==================================================================
    // Reactor event handling
    // ==================================================================

    /// Accepts every pending connection on `slot`'s listener and starts
    /// their hello handshakes.
    fn accept_ready(&mut self, slot: usize) -> Result<()> {
        loop {
            match self.listeners[slot].accept() {
                Ok((stream, _)) => {
                    let fc = FrameConn::new(stream, wire::MAX_FRAME)
                        .map_err(|e| io_err(&format!("accept at node {slot}"), e))?;
                    self.alloc_conn(Conn {
                        fc,
                        kind: ConnKind::Handshake {
                            to: slot as u32,
                            buf: [0; HELLO_LEN],
                            have: 0,
                        },
                        armed_write: false,
                    })?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(&format!("accept at node {slot}"), e)),
            }
        }
    }

    /// Advances a handshake connection: buffers hello bytes and, once all
    /// [`HELLO_LEN`] arrived, validates the announced sequence number
    /// against the logical stream's expectation and promotes the
    /// connection to [`ConnKind::In`].
    fn read_handshake(&mut self, idx: usize) -> Result<()> {
        // Phase 1: pull bytes (at most HELLO_LEN in total, so frames queued
        // behind the hello are never consumed here).
        let (to, from, announced) = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return Ok(());
            };
            let ConnKind::Handshake { to, buf, have } = &mut conn.kind else {
                return Ok(());
            };
            loop {
                if *have == HELLO_LEN {
                    break;
                }
                match conn.fc.stream().read(&mut buf[*have..]) {
                    Ok(0) => {
                        // Closed before identifying itself: an aborted
                        // connect, not a protocol peer. Drop quietly.
                        self.close_conn(idx);
                        return Ok(());
                    }
                    Ok(n) => *have += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        let to = *to;
                        self.close_conn(idx);
                        return Err(io_err(&format!("read hello at node {to}"), e));
                    }
                }
            }
            let from = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
            let announced = u64::from_le_bytes(buf[4..].try_into().expect("8 bytes"));
            (*to, from, announced)
        };
        // Phase 2: validate the announced next-frame sequence number.
        let key = (from, to);
        let expected = self.receiving.get(&key).map_or(0, |half| half.next_seq);
        if announced != expected {
            self.close_conn(idx);
            let detail = if announced > expected {
                format!(
                    "stream {from}→{to}: reconnect announces next frame #{announced} but #{expected} was expected — {} frame(s) were lost in a broken connection",
                    announced - expected
                )
            } else {
                format!(
                    "stream {from}→{to}: hello announces next frame #{announced} but #{expected} was already received — replayed or duplicated stream"
                )
            };
            return Err(EngineError::Protocol { detail });
        }
        // Promote; a stale predecessor for the stream (sender reconnected)
        // is dropped — its frames were all consumed or the hello check
        // above would have caught the gap.
        let half = self.receiving.entry(key).or_default();
        if let Some(old) = half.conn.replace(idx).filter(|&old| old != idx) {
            self.close_conn(old);
        }
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.kind = ConnKind::In(key);
        }
        // Frames may already sit behind the hello in the kernel buffer.
        self.read_established(idx)
    }

    /// Drains an established incoming stream: reassembled frames are
    /// sequence-checked and appended to the pair's inbox. Frame buffers are
    /// pool-backed; `next_delivery` returns each one after decoding.
    fn read_established(&mut self, idx: usize) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        // Invariant: callers pass a live In connection.
        let conn = self.conns[idx].as_mut().expect("live incoming conn");
        let ConnKind::In(key) = conn.kind else {
            unreachable!("read_established on a non-In connection")
        };
        let (from, to) = key;
        let read_res = conn.fc.read_frames(&mut scratch, &mut self.pool);
        let half = self.receiving.entry(key).or_default();
        let mut seq_error = None;
        for (seq, frame) in scratch.drain(..) {
            if seq_error.is_some() {
                self.pool.put(frame);
                continue;
            }
            if seq != half.next_seq {
                self.pool.put(frame);
                seq_error = Some(EngineError::Protocol {
                    detail: format!(
                        "stream {from}→{to}: frame #{seq} arrived where #{} was expected — envelope/frame misalignment",
                        half.next_seq
                    ),
                });
                continue;
            }
            half.next_seq += 1;
            half.inbox.push_back(frame);
        }
        self.scratch = scratch;
        if let Some(e) = seq_error {
            self.close_conn(idx);
            return Err(e);
        }
        match read_res {
            Ok(true) => Ok(()),
            Ok(false) => {
                // Clean EOF at a frame boundary: the sender may reconnect;
                // the retained sequence number will vet its hello.
                self.close_conn(idx);
                Ok(())
            }
            Err(e) => {
                self.close_conn(idx);
                Err(io_err(&format!("read {from}→{to}"), e))
            }
        }
    }

    /// Handles a readable event on an outgoing stream — the receiver never
    /// writes, so readable means the peer closed (tolerated: the next send
    /// reconnects and the hello check vouches for continuity) or is
    /// violating the protocol.
    fn read_out(&mut self, idx: usize) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let read_res = {
            // Invariant: callers pass a live Out connection.
            let conn = self.conns[idx].as_mut().expect("live outgoing conn");
            conn.fc.read_frames(&mut scratch, &mut self.pool)
        };
        let unexpected = !scratch.is_empty();
        for (_, frame) in scratch.drain(..) {
            self.pool.put(frame);
        }
        self.scratch = scratch;
        if unexpected {
            self.close_conn(idx);
            return Err(EngineError::Protocol {
                detail: "received frames on a send-only stream".to_string(),
            });
        }
        match read_res {
            Ok(true) => Ok(()),
            Ok(false) | Err(_) => {
                self.close_conn(idx);
                Ok(())
            }
        }
    }

    /// Dispatches one readiness event.
    fn handle_event(&mut self, ev: Event) -> Result<()> {
        let slots = self.listeners.len();
        if (ev.token as usize) < slots {
            return self.accept_ready(ev.token as usize);
        }
        let idx = ev.token as usize - slots;
        if self.conns.get(idx).is_none_or(Option::is_none) {
            return Ok(()); // closed earlier in this batch
        }
        if ev.writable {
            // Invariant: checked non-None above.
            let conn = self.conns[idx].as_mut().expect("live conn");
            if conn.fc.wants_write() {
                self.flush_conn(idx)?;
            } else if !ev.readable {
                // Writable with nothing queued: drop the stale interest.
                self.set_write_interest(idx, false)?;
            }
        }
        if ev.readable {
            if self.conns.get(idx).is_none_or(Option::is_none) {
                return Ok(());
            }
            // Invariant: checked non-None above.
            match self.conns[idx].as_ref().expect("live conn").kind {
                ConnKind::Handshake { .. } => self.read_handshake(idx)?,
                ConnKind::In { .. } => self.read_established(idx)?,
                ConnKind::Out { .. } => self.read_out(idx)?,
            }
        }
        Ok(())
    }

    /// The progress hook, one reactor turn: flush every connection that
    /// queued bytes since the last turn — this is the **coalesced flush
    /// point**, one `write` per connection for everything buffered
    /// since the last poll, found through the `dirty` list rather than a
    /// walk over the connection table — wait for readiness (up to
    /// [`POLL_SLICE`] when `block`), and service every event. Tracks
    /// consecutive empty blocking waits so a frame lost to a broken stream
    /// fails the run with a typed stall error instead of hanging it.
    pub(crate) fn poll(&mut self, block: bool) -> Result<()> {
        if self.deferred.is_some() {
            return Ok(()); // next_delivery surfaces it first
        }
        // A failed flush leaves the rest listed for the next turn. An entry
        // can be stale (flushed early at `MAX_COALESCE_BYTES`, or closed and
        // its slot reused): then there is nothing to write.
        while let Some(idx) = self.dirty.pop_front() {
            if self.conns[idx].as_ref().is_some_and(|c| c.fc.wants_write()) {
                self.flush_conn(idx)?;
            }
        }
        let timeout = if block {
            Some(POLL_SLICE)
        } else {
            Some(Duration::ZERO)
        };
        self.events.clear();
        let n = self
            .poller
            .wait(&mut self.events, timeout)
            .map_err(|e| io_err("poller wait", e))?;
        let events = std::mem::take(&mut self.events);
        let mut result = Ok(());
        for ev in &events {
            result = self.handle_event(*ev);
            if result.is_err() {
                break;
            }
        }
        self.events = events;
        result?;
        if n > 0 {
            self.stalled = Duration::ZERO;
        } else if block && !self.queue.is_empty() {
            self.stalled += POLL_SLICE;
            if self.stalled >= self.opts.stall_timeout {
                let head = self
                    .queue
                    .front()
                    .map(|e| format!("{}→{}", e.from.index(), e.to.index()))
                    .unwrap_or_default();
                return Err(EngineError::Protocol {
                    detail: format!(
                        "tcp transport stalled: no socket progress for {:?} while waiting for the frame of envelope {head} ({} envelopes outstanding)",
                        self.opts.stall_timeout,
                        self.queue.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Encodes `e`'s message onto its stream and queues the envelope,
    /// returning the stream bytes queued: the codec frame plus its 8-byte
    /// sequence header. A send that fails queues no envelope and returns
    /// `0`: the error is parked for [`TcpTransport::next_delivery`].
    pub(crate) fn enqueue(&mut self, e: Envelope) -> u64 {
        if self.deferred.is_some() {
            // The transport already failed; the error surfaces first and
            // reports how many messages were discarded behind it.
            self.dropped_after_error += 1;
            return 0;
        }
        let (from, to, id, twin) = (e.from, e.to, e.id, e.twin);
        match self.enqueue_frame((from.index() as u32, to.index() as u32), &e.msg) {
            Ok(appended) => {
                self.queue.push_back(InFlight { from, to, id, twin });
                appended as u64
            }
            Err(e) => {
                self.defer(e);
                0
            }
        }
    }

    /// Removes and returns the head envelope once its frame has fully
    /// arrived, decoded; `None` while it is still in flight. Surfaces a
    /// parked send error first.
    pub(crate) fn next_delivery(&mut self) -> Result<Option<Envelope>> {
        if let Some(e) = self.take_deferred() {
            return Err(e);
        }
        let Some(env) = self.queue.front() else {
            return Ok(None);
        };
        let key = (env.from.index() as u32, env.to.index() as u32);
        let Some(frame) = self
            .receiving
            .get_mut(&key)
            .and_then(|h| h.inbox.pop_front())
        else {
            // The head envelope's frame is still in flight; the driver
            // calls `poll(block = true)` and retries.
            return Ok(None);
        };
        // Invariant: peeked non-empty above.
        let env = self.queue.pop_front().expect("peeked above");
        let queries = &mut self.interners[env.to.index()];
        let decoded = wire::decode_message_interned(&frame, &self.catalog, queries);
        // The frame buffer is pool-backed: recycle it for the next read,
        // whether or not the decode succeeded.
        self.pool.put(frame);
        let (msg, _) = decoded?;
        Ok(Some(Envelope {
            from: env.from,
            to: env.to,
            id: env.id,
            twin: env.twin,
            msg,
        }))
    }

    /// Whether no envelope is in flight and no error is parked.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.deferred.is_none()
    }

    /// Drains the aggregate socket statistics: closed connections' tallies,
    /// every live connection's, and the inbox pool's counters.
    pub(crate) fn take_socket_stats(&mut self) -> SocketStats {
        let mut stats = std::mem::take(&mut self.stats);
        for conn in self.conns.iter_mut().flatten() {
            stats.merge_conn(&conn.fc.take_counters());
        }
        let (hits, misses) = self.pool.take_counters();
        stats.pool_hits += hits;
        stats.pool_misses += misses;
        stats
    }
}
