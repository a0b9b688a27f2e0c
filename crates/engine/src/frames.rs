//! Nonblocking framed connections: the per-socket buffering layer under the
//! TCP transport's event loop.
//!
//! A [`FrameConn`] owns one nonblocking `TcpStream`, a read-reassembly
//! buffer, and **one contiguous write buffer** with a flush cursor:
//!
//! * **Read side** — every `read` lands in the one initialised
//!   [`READ_CHUNK`] buffer owned by the [`BufPool`] the caller passes to
//!   [`FrameConn::read_frames`] (the reactor has one pool, so one read
//!   buffer serves every connection and stays cache-resident). Complete
//!   frames are copied straight from it into pooled frame buffers; only a
//!   *trailing partial frame* is copied into the connection's own
//!   reassembly buffer, to be topped up by the next read. A stream that
//!   only ever delivers whole frames therefore never allocates a
//!   reassembly buffer at all (capacity 0), and no read pays a zero-fill:
//!   the receive path costs O(bytes received), not O(`READ_CHUNK`) per
//!   `read` or per connection. The frame length is validated as soon as
//!   the header arrives — a hostile or corrupt peer announcing a zero or
//!   oversized length is rejected *before* any body byte is buffered, and
//!   a large frame is reassembled chunk by chunk (never `frame_len` up
//!   front), so an attacker cannot make the receiver allocate
//!   `MAX_FRAME`-sized buffers from a 12-byte header. Once the consumer is
//!   done decoding a frame it returns the buffer with [`BufPool::put`], so
//!   steady-state frame traffic recycles a fixed set of buffers instead of
//!   allocating per frame. After a genuinely large frame is consumed the
//!   reassembly buffer is shrunk back (see [`SHRINK_AT`]/[`SHRINK_TO`]),
//!   so one big message does not pin its high-water allocation for the
//!   rest of the run.
//! * **Write side** — frames are *encoded in place* at the end of the
//!   write buffer ([`FrameConn::append_frame_with`] hands the encoder the
//!   buffer itself, positioned after the sequence header), so queueing a
//!   message costs zero intermediate copies. [`FrameConn::flush`] issues
//!   **one `write` of everything not yet flushed per syscall**, so the
//!   kernel crossing cost is paid per *flush*, not per frame. A full
//!   kernel buffer (`WouldBlock`) leaves the remainder queued in userspace
//!   — this is the transport's **backpressure** state, counted by
//!   [`FrameConn::blocked_writes`] — and the event loop re-flushes when the
//!   poller reports the socket writable again. A blocked flush drops the
//!   written prefix once it is at least as long as what is left, so it
//!   never moves more bytes than were written before it (amortised O(1)
//!   per byte) and the buffer stays under about twice its unflushed bytes.
//!   A drained buffer is reset in place (shrunk back past [`SHRINK_AT`]),
//!   so a steady-state enqueue/flush cycle allocates nothing.
//!
//! On-stream layout, repeated per frame:
//!
//! ```text
//! +--------------+----------------+------------------------+
//! | seq: u64 LE  | length: u32 LE | length bytes           |
//! | (per-stream  | (of the rest)  | (e.g. a `crate::wire`  |
//! |  frame seq)  |                |  version+payload body) |
//! +--------------+----------------+------------------------+
//! ```
//!
//! The `[length][bytes]` tail is exactly a [`crate::wire`] codec frame, so a
//! reassembled frame feeds `wire::decode_message` verbatim. The leading
//! sequence number is *transport* state: the sender numbers frames per
//! logical stream, and the receiver checks contiguity, so frames lost to a
//! reconnect (or replayed by a confused peer) are detected as a typed
//! protocol error instead of silently decoding the wrong message. The
//! sequencing policy lives in the transport; `FrameConn` carries the number.
//!
//! Every syscall and frame through a connection is tallied in
//! [`ConnCounters`] (reads, writes, bytes each way, frames each way,
//! blocked flushes), which the transport aggregates into its
//! [`SocketStats`](crate::transport_tcp::SocketStats) — the observable
//! basis for the bytes-per-syscall and frames-per-flush guarantees.
//!
//! This type is deliberately protocol-agnostic (lengths and sequence
//! numbers, never message contents): besides the transport, cqbench's
//! socket probe and the ledger's `socket-pump` kernel drive it directly.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Bytes pulled off the socket per `read` call — the size of the shared
/// read buffer a [`BufPool`] owns. A partial frame's reassembly buffer
/// grows by at most this much at a time, regardless of the announced frame
/// length.
pub const READ_CHUNK: usize = 64 * 1024;

/// Reassembly, write and pooled buffers above this capacity are shrunk
/// once their bytes are consumed.
pub const SHRINK_AT: usize = 256 * 1024;

/// Capacity the buffers shrink back to after servicing a large frame.
pub const SHRINK_TO: usize = 64 * 1024;

/// Per-frame header bytes: an 8-byte sequence number plus the 4-byte frame
/// length.
pub const FRAME_HEADER: usize = 12;

/// Most recycled buffers a [`BufPool`] retains; returns beyond this are
/// dropped so an inbox burst cannot pin its high-water buffer count.
const POOL_MAX: usize = 64;

/// One complete frame off the wire: the stream sequence number and the
/// `[length][bytes]` payload (length prefix included, ready for
/// [`crate::wire::decode_message`]). The buffer is drawn from the
/// [`BufPool`] given to [`FrameConn::read_frames`]; return it with
/// [`BufPool::put`] once decoded to keep the steady state allocation-free.
pub type RawFrame = (u64, Vec<u8>);

/// The receive-side buffers shared across connections: the one read buffer
/// every `read` lands in, and a recycling pool of frame buffers.
///
/// [`FrameConn::read_frames`] reads into the pool's [`READ_CHUNK`] buffer —
/// initialised once here, never zero-filled again — and draws the buffer
/// for each completed frame from the pool instead of allocating; the
/// consumer returns it after decoding. Oversized buffers are shrunk to
/// [`SHRINK_TO`] on return (the same discipline as the reassembly buffer),
/// and at most `POOL_MAX` buffers are retained.
#[derive(Debug)]
pub struct BufPool {
    /// Where reads land. Its contents are only meaningful to the
    /// `read_frames` call that filled them: everything a connection needs
    /// past that call is copied out before it returns.
    chunk: Vec<u8>,
    bufs: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool::new()
    }
}

impl BufPool {
    /// An empty pool with its read buffer.
    pub fn new() -> BufPool {
        BufPool {
            chunk: vec![0; READ_CHUNK],
            bufs: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A cleared buffer: recycled when one is available (a pool *hit*),
    /// freshly allocated otherwise (a *miss*).
    pub fn get(&mut self) -> Vec<u8> {
        match self.bufs.pop() {
            Some(mut buf) => {
                buf.clear();
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer for reuse. Buffers above [`SHRINK_AT`] capacity are
    /// shrunk back to [`SHRINK_TO`] first, and returns beyond the retention
    /// cap are dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.bufs.len() >= POOL_MAX {
            return;
        }
        if buf.capacity() > SHRINK_AT {
            buf.clear();
            buf.shrink_to(SHRINK_TO);
        }
        self.bufs.push(buf);
    }

    /// Buffers currently retained for reuse.
    pub fn buffered(&self) -> usize {
        self.bufs.len()
    }

    /// `(hits, misses)` since the last take, reset to zero.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    /// `(hits, misses)` without resetting.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Per-connection I/O tallies: every syscall the connection issued and
/// every frame it moved. `write_syscalls`/`read_syscalls` count *attempts*
/// (a `WouldBlock` probe crossed the kernel boundary too), so
/// bytes-per-syscall derived from these is honest about the real kernel
/// crossing cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnCounters {
    /// `write` calls issued (including ones that returned `WouldBlock`).
    pub write_syscalls: u64,
    /// `read` calls issued (including `WouldBlock` probes and the EOF read).
    pub read_syscalls: u64,
    /// Bytes the kernel accepted across all writes.
    pub bytes_written: u64,
    /// Bytes read off the socket.
    pub bytes_read: u64,
    /// Frames queued for sending (`append_frame_with`/`queue_frame`).
    pub frames_out: u64,
    /// Complete frames reassembled off the wire.
    pub frames_in: u64,
    /// Times a flush hit a full kernel buffer and parked bytes in
    /// userspace (entered backpressure).
    pub blocked_writes: u64,
}

/// A nonblocking socket with framed read/write buffers. See the module
/// docs for the layout, the copy discipline and the backpressure model.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    /// The head of the one frame the last read left unfinished (sequence
    /// header included); empty — and never allocated — while reads end on
    /// frame boundaries.
    rbuf: Vec<u8>,
    /// Outgoing bytes; frames are encoded in place at the end.
    wbuf: Vec<u8>,
    /// How many leading bytes of `wbuf` the kernel has accepted.
    wpos: usize,
    /// Largest frame length this connection accepts.
    max_frame: u32,
    /// The peer closed its write half (a clean EOF was observed).
    eof: bool,
    /// I/O tallies (see [`ConnCounters`]).
    counters: ConnCounters,
}

impl FrameConn {
    /// Wraps `stream`, switching it to nonblocking mode. `max_frame` bounds
    /// the frame length accepted from the peer (use
    /// [`crate::wire::MAX_FRAME`] for protocol streams).
    pub fn new(stream: TcpStream, max_frame: u32) -> io::Result<FrameConn> {
        stream.set_nonblocking(true)?;
        Ok(FrameConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            max_frame,
            eof: false,
            counters: ConnCounters::default(),
        })
    }

    /// The underlying socket (for addresses and socket options).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Queues raw bytes ahead of any frames — connection preambles (the
    /// transport's hello) use this. Call [`FrameConn::flush`] to send.
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Encodes one frame *in place* at the end of the write queue: the
    /// 8-byte sequence header is written, then `encode` appends the codec
    /// frame (`[len u32 LE][bytes]`) directly into the write buffer — no
    /// intermediate copy exists anywhere. Returns the total bytes
    /// queued for this frame (sequence header included).
    pub fn append_frame_with(&mut self, seq: u64, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
        let start = self.wbuf.len();
        self.wbuf.extend_from_slice(&seq.to_le_bytes());
        encode(&mut self.wbuf);
        let appended = self.wbuf.len() - start;
        debug_assert!(
            appended >= FRAME_HEADER,
            "encoder must append at least a length prefix"
        );
        debug_assert_eq!(
            crate::wire::frame_body_len(&self.wbuf[start + 8..]),
            Some(appended - FRAME_HEADER),
            "frame length prefix counts the remaining bytes"
        );
        self.counters.frames_out += 1;
        appended
    }

    /// Queues one pre-encoded frame (copying it into the write queue).
    /// `frame` must start with its own u32 LE length prefix counting the
    /// remaining bytes (the [`crate::wire`] encoders produce exactly this
    /// shape). Protocol senders encode in place with
    /// [`FrameConn::append_frame_with`] instead.
    pub fn queue_frame(&mut self, seq: u64, frame: &[u8]) {
        self.append_frame_with(seq, |buf| buf.extend_from_slice(frame));
    }

    /// Whether queued bytes are waiting for the socket to become writable.
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn queued_write_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Times a flush hit a full kernel buffer and left bytes queued — the
    /// number of times this connection entered backpressure.
    pub fn blocked_writes(&self) -> u64 {
        self.counters.blocked_writes
    }

    /// The connection's I/O tallies so far.
    pub fn counters(&self) -> &ConnCounters {
        &self.counters
    }

    /// Drains the I/O tallies, resetting them to zero (the transport folds
    /// these into its aggregate stats).
    pub fn take_counters(&mut self) -> ConnCounters {
        std::mem::take(&mut self.counters)
    }

    /// Whether the peer has closed its write half.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Current capacity of the partial-frame reassembly buffer: 0 until a
    /// read first ends mid-frame, and back under [`SHRINK_AT`] once a large
    /// frame is consumed.
    pub fn read_buffer_capacity(&self) -> usize {
        self.rbuf.capacity()
    }

    /// Writes as much queued data as the kernel accepts, one `write` of
    /// everything not yet flushed per syscall. Returns `true` when the
    /// buffer drained, `false` when the socket would block and the
    /// remainder stays queued (re-flush on the next writable event).
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wants_write() {
            self.counters.write_syscalls += 1;
            match (&self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(written) => {
                    self.counters.bytes_written += written as u64;
                    self.wpos += written;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.counters.blocked_writes += 1;
                    // Dropping the written prefix only once it is at least
                    // as long as the rest moves no more bytes than were
                    // written since the last drop, and keeps the buffer
                    // under twice the unflushed bytes.
                    if self.wpos >= self.queued_write_bytes() {
                        self.wbuf.drain(..self.wpos);
                        self.wpos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Fully drained: reset the buffer in place, releasing a large
        // frame's high-water allocation.
        self.wbuf.clear();
        self.wpos = 0;
        if self.wbuf.capacity() > SHRINK_AT {
            self.wbuf.shrink_to(SHRINK_TO);
        }
        Ok(true)
    }

    /// Reads everything currently available (one [`READ_CHUNK`] at a time,
    /// into `pool`'s shared read buffer) and appends every completed frame
    /// to `out`, with frame buffers drawn from `pool` (return them with
    /// [`BufPool::put`] after decoding). Returns `true` while the connection
    /// is open, `false` on a clean EOF at a frame boundary. Errors on
    /// malformed lengths — rejected as soon as the header is visible — and
    /// on an EOF that truncates a frame.
    pub fn read_frames(&mut self, out: &mut Vec<RawFrame>, pool: &mut BufPool) -> io::Result<bool> {
        if self.eof {
            return Ok(false);
        }
        // Borrowed out of the pool for the call so frames can be drawn from
        // the pool while the bytes just read are still being parsed.
        let mut chunk = std::mem::take(&mut pool.chunk);
        debug_assert_eq!(chunk.len(), READ_CHUNK);
        let res = self.read_through(&mut chunk, out, pool);
        pool.chunk = chunk;
        res
    }

    /// [`FrameConn::read_frames`]' read loop over the borrowed read buffer.
    fn read_through(
        &mut self,
        chunk: &mut [u8],
        out: &mut Vec<RawFrame>,
        pool: &mut BufPool,
    ) -> io::Result<bool> {
        loop {
            let res = self.stream.read(chunk);
            self.counters.read_syscalls += 1;
            match res {
                Ok(0) => {
                    self.eof = true;
                    let pending = self.rbuf.len();
                    if pending > 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("connection closed mid-frame ({pending} bytes of an unfinished frame buffered)"),
                        ));
                    }
                    return Ok(false);
                }
                Ok(n) => {
                    self.counters.bytes_read += n as u64;
                    self.take_frames(&chunk[..n], out, pool)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Splits a frame header into `(seq, len)`, judging the length the
    /// moment the header is complete — before any body byte of the frame is
    /// buffered.
    fn header(&self, bytes: &[u8]) -> io::Result<(u64, usize)> {
        let seq = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[8..FRAME_HEADER].try_into().expect("4 bytes"));
        if len == 0 || len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside (0, {}]", self.max_frame),
            ));
        }
        Ok((seq, len as usize))
    }

    /// Extracts every complete frame from `data`, the bytes one `read` just
    /// returned: first the frame an earlier read left unfinished in the
    /// reassembly buffer, then whole frames straight out of `data`; only a
    /// trailing partial frame is kept (copied) for the next read.
    fn take_frames(
        &mut self,
        mut data: &[u8],
        out: &mut Vec<RawFrame>,
        pool: &mut BufPool,
    ) -> io::Result<()> {
        if !self.rbuf.is_empty() {
            if self.rbuf.len() < FRAME_HEADER {
                let (head, rest) = data.split_at((FRAME_HEADER - self.rbuf.len()).min(data.len()));
                self.rbuf.extend_from_slice(head);
                data = rest;
                if self.rbuf.len() < FRAME_HEADER {
                    return Ok(());
                }
            }
            let (seq, len) = self.header(&self.rbuf)?;
            let total = FRAME_HEADER + len;
            let (body, rest) = data.split_at((total - self.rbuf.len()).min(data.len()));
            self.rbuf.extend_from_slice(body);
            data = rest;
            if self.rbuf.len() < total {
                return Ok(()); // body still arriving, chunk by chunk
            }
            emit(seq, &self.rbuf, out, pool);
            self.counters.frames_in += 1;
            // Release a large frame's high-water allocation.
            self.rbuf.clear();
            if self.rbuf.capacity() > SHRINK_AT {
                self.rbuf.shrink_to(SHRINK_TO);
            }
        }
        while data.len() >= FRAME_HEADER {
            let (seq, len) = self.header(data)?;
            let total = FRAME_HEADER + len;
            if data.len() < total {
                break;
            }
            let (whole, rest) = data.split_at(total);
            emit(seq, whole, out, pool);
            self.counters.frames_in += 1;
            data = rest;
        }
        self.rbuf.extend_from_slice(data);
        Ok(())
    }
}

/// Emits one complete frame, `stream` being its `[seq][len][bytes]` stream
/// form. The emitted frame keeps its length prefix: `[len][bytes]` is
/// exactly what `wire::decode_message` consumes. The buffer is recycled, not
/// allocated, once the pool is warm.
fn emit(seq: u64, stream: &[u8], out: &mut Vec<RawFrame>, pool: &mut BufPool) {
    let mut frame = pool.get();
    frame.extend_from_slice(&stream[8..]);
    out.push((seq, frame));
}
