//! Converts binary trace files (`--trace-format binary`) back to the JSONL
//! the text tooling reads.
//!
//! ```text
//! trace_dump FILE...
//! ```
//!
//! Each input is a stream of length-prefixed `cq_engine::wire` frames, one
//! [`TraceEvent`] per frame; the decoded events are printed to stdout as
//! JSONL, in order, exactly as `--trace-format jsonl` would have written
//! them. Decoding errors (truncation, corruption, a version mismatch) abort
//! with exit code 1 and a message naming the offending file and byte
//! offset, after every event decoded before that point has been printed
//! (`process::exit` runs no destructor, so the buffer is flushed first).
//! A reader that closes stdout early (`trace_dump FILE | head`) ends the
//! run with exit code 0; any other write error exits 1, naming it.
//!
//! [`TraceEvent`]: cq_engine::TraceEvent

use std::io::Write;

use cq_engine::wire;

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_dump FILE...");
        std::process::exit(2);
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut line = String::with_capacity(256);
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_else(|e| {
            let _ = out.flush();
            eprintln!("cannot read {file}: {e}");
            std::process::exit(1);
        });
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (ev, used) = wire::decode_trace_event(&bytes[pos..]).unwrap_or_else(|e| {
                let _ = out.flush();
                eprintln!("{file}: bad frame at byte {pos}: {e}");
                std::process::exit(1);
            });
            pos += used;
            line.clear();
            ev.to_jsonl(&mut line);
            line.push('\n');
            if let Err(e) = out.write_all(line.as_bytes()) {
                cq_sim::exit_on_write_error(e);
            }
        }
    }
    if let Err(e) = out.flush() {
        cq_sim::exit_on_write_error(e);
    }
}
