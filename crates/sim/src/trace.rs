//! Trace files: [`FileSink`] streams every event of a traced run to disk in
//! either [`TraceFormat`]. The `experiments --trace DIR` flag attaches one
//! per run (see [`crate::set_trace_dir`]), and the `trace_dump` binary turns
//! a binary file back into the JSONL the text tooling reads.
//!
//! Both encodings are the engine's: [`TraceEvent::append_jsonl`] for a
//! line, [`wire::encode_trace_event`] for a frame. This module only buffers
//! and writes them.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;

use cq_engine::{wire, TraceEvent, TraceSink};

/// Serialization of a trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (`.jsonl`) — greppable, the default.
    #[default]
    Jsonl,
    /// One length-prefixed `cq_engine::wire` frame per event (`.trace`) —
    /// compact; the `trace_dump` tool converts it back to JSONL.
    Binary,
}

impl TraceFormat {
    /// The trace-file extension for this format.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "trace",
        }
    }

    /// Bytes buffered before the next `write(2)`. JSONL is sized to stay
    /// cache-resident rather than stream through a megabyte of cold lines;
    /// wire frames average tens of bytes, so a traced run emits hundreds of
    /// thousands of tiny appends and a 1 MiB mark amortizes them to a
    /// handful of syscalls per run without an async writer.
    fn high_water(self) -> usize {
        match self {
            TraceFormat::Jsonl => 1 << 18,
            TraceFormat::Binary => 1 << 20,
        }
    }
}

/// Streams events to a file — one JSON object per line or one
/// [`wire::encode_trace_event`] frame per event, as `format` says. Events
/// serialize straight into one large byte buffer that is written out
/// whenever it crosses the format's high-water mark (no per-line
/// intermediate, no `BufWriter` copy), on [`FileSink::flush`] and on drop.
#[derive(Debug)]
pub struct FileSink {
    inner: Mutex<Writer>,
}

#[derive(Debug)]
struct Writer {
    format: TraceFormat,
    file: File,
    buf: Vec<u8>,
    /// The first failed write. Nothing is written after it, so the file
    /// holds a prefix of the trace, and every [`FileSink::flush`] says so.
    error: Option<io::Error>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>, format: TraceFormat) -> io::Result<Self> {
        Ok(FileSink {
            inner: Mutex::new(Writer {
                format,
                file: File::create(path)?,
                // Headroom for the line or frame that crosses the mark.
                buf: Vec::with_capacity(format.high_water() + 512),
                error: None,
            }),
        })
    }

    /// Writes out the buffered events. Fails if any write since the sink
    /// was created failed, including one made while recording: the events
    /// it carried, and every event after it, are not in the file.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().expect("trace writer").flush()
    }
}

impl Writer {
    /// Writes the buffer out and empties it. An I/O error mid-trace must
    /// not kill the simulation, so it is kept for [`Writer::flush`] to
    /// report.
    fn write_out(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.file.write_all(&self.buf) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }

    fn flush(&mut self) -> io::Result<()> {
        self.write_out();
        match &self.error {
            Some(e) => Err(io::Error::new(
                e.kind(),
                format!("trace file lost events: {e}"),
            )),
            None => self.file.flush(),
        }
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl TraceSink for FileSink {
    fn record(&self, ev: &TraceEvent) {
        let mut w = self.inner.lock().expect("trace writer");
        match w.format {
            TraceFormat::Jsonl => {
                ev.append_jsonl(&mut w.buf);
                w.buf.push(b'\n');
            }
            TraceFormat::Binary => wire::encode_trace_event(ev, &mut w.buf),
        }
        if w.buf.len() >= w.format.high_water() {
            w.write_out();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/dev/full` opens, and fails every write with `ENOSPC`. Just enough
    /// events to cross the JSONL mark once leave the buffer empty, so the
    /// only write that fails is the one `record` makes: `flush` must still
    /// report it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_that_fails_while_recording_is_reported_by_flush() {
        let ev = TraceEvent::NodeFailed { tick: 0, node: 0 };
        let mut line = Vec::new();
        ev.append_jsonl(&mut line);
        let events = TraceFormat::Jsonl.high_water().div_ceil(line.len() + 1);

        let sink = FileSink::create("/dev/full", TraceFormat::Jsonl).unwrap();
        for _ in 0..events {
            sink.record(&ev);
        }
        let err = sink
            .flush()
            .expect_err("the events written to /dev/full are lost");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert!(sink.flush().is_err(), "a lost write stays reported");
    }
}
