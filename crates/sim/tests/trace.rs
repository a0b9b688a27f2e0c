//! Trace files end to end: what [`FileSink`] writes is exactly what the
//! engine's encoders produce, a JSONL file parses back to the in-memory
//! event stream, and the `trace_dump` binary turns a binary file into the
//! same JSONL bytes (or names the byte offset where a file breaks off).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use cq_engine::{
    wire, Algorithm, EngineConfig, FaultConfig, Network, RingBufferSink, TraceEvent, TraceSink,
};
use cq_overlay::Id;
use cq_relational::{Catalog, DataType, RelationSchema, Value};
use cq_sim::{FileSink, TraceFormat};

/// Hands every event to each of its sinks, in order.
struct Fanout(Vec<Arc<dyn TraceSink>>);

impl TraceSink for Fanout {
    fn record(&self, ev: &TraceEvent) {
        for sink in &self.0 {
            sink.record(ev);
        }
    }
}

fn temp_path(name: &str, format: TraceFormat) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cq-{name}-{}.{}",
        std::process::id(),
        format.extension()
    ))
}

/// A lossy DAI-Q run on 16 nodes: one query, eight tuples per relation.
fn traced_run(sink: Arc<dyn TraceSink>) {
    let mut catalog = Catalog::new();
    for (name, attrs) in [
        ("R", [("A", DataType::Int), ("B", DataType::Int)]),
        ("S", [("D", DataType::Int), ("E", DataType::Int)]),
    ] {
        catalog
            .register(RelationSchema::of(name, &attrs).unwrap())
            .unwrap();
    }
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiQ)
            .with_nodes(16)
            .with_seed(7)
            .with_fault(FaultConfig::lossy(0.15, 99)),
        catalog,
    );
    net.set_tracer(sink);
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    for i in 0..8i64 {
        net.insert_tuple(
            net.node_at((i % 16) as usize),
            "R",
            vec![Value::Int(i), Value::Int(i % 3)],
        )
        .unwrap();
        net.insert_tuple(
            net.node_at(((i + 5) % 16) as usize),
            "S",
            vec![Value::Int(i), Value::Int(i % 2)],
        )
        .unwrap();
    }
}

fn trace_dump(path: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .arg(path)
        .output()
        .expect("the trace_dump binary runs")
}

#[test]
fn file_sink_writes_exactly_what_the_encoders_produce_in_either_format() {
    let events = [
        TraceEvent::MsgSend {
            tick: 3,
            node: 5,
            id: (5, 12),
            to: 9,
            target: Id(7),
            kind: "join-v",
            path: Some(vec![5, 7, 9]),
        },
        TraceEvent::MsgSend {
            tick: 3,
            node: 5,
            id: (5, 13),
            to: 2,
            target: Id(7),
            kind: "al-index",
            path: None,
        },
        TraceEvent::Phase {
            tick: 0,
            name: "install".into(),
        },
    ];
    for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
        let path = temp_path("file-sink", format);
        let sink = FileSink::create(&path, format).unwrap();
        for ev in &events {
            sink.record(ev);
        }
        sink.flush().unwrap();
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut want = Vec::new();
        for ev in &events {
            match format {
                TraceFormat::Jsonl => {
                    ev.append_jsonl(&mut want);
                    want.push(b'\n');
                }
                TraceFormat::Binary => wire::encode_trace_event(ev, &mut want),
            }
        }
        assert_eq!(written, want, "{format:?}");
    }
}

#[test]
fn jsonl_file_round_trips_the_in_memory_event_stream() {
    let path = temp_path("trace-roundtrip", TraceFormat::Jsonl);
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let jsonl = Arc::new(FileSink::create(&path, TraceFormat::Jsonl).unwrap());
    traced_run(Arc::new(Fanout(vec![ring.clone(), jsonl.clone()])));
    jsonl.flush().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let parsed: Vec<TraceEvent> = text
        .lines()
        .map(|line| {
            TraceEvent::parse_jsonl(line)
                .unwrap_or_else(|| panic!("unparseable trace line: {line}"))
        })
        .collect();

    // The file is a faithful serialization: parsing it back yields exactly
    // the events the in-memory sink saw, in order.
    assert!(
        parsed.iter().any(|e| e.kind() == "fault-drop"),
        "the lossy run must trace fault decisions"
    );
    assert_eq!(parsed, ring.events());
}

#[test]
fn binary_trace_dumps_back_to_byte_identical_jsonl() {
    // The same run streams into a JSONL sink and the buffered binary sink;
    // `trace_dump` on the binary file must print the JSONL file byte for
    // byte — the writer's batching is invisible on disk.
    let jsonl_path = temp_path("trace-bin-rt", TraceFormat::Jsonl);
    let bin_path = temp_path("trace-bin-rt", TraceFormat::Binary);
    let jsonl = Arc::new(FileSink::create(&jsonl_path, TraceFormat::Jsonl).unwrap());
    let binary = Arc::new(FileSink::create(&bin_path, TraceFormat::Binary).unwrap());
    traced_run(Arc::new(Fanout(vec![jsonl.clone(), binary.clone()])));
    jsonl.flush().unwrap();
    binary.flush().unwrap();

    let expected = std::fs::read(&jsonl_path).unwrap();
    let out = trace_dump(&bin_path);
    std::fs::remove_file(&jsonl_path).ok();
    std::fs::remove_file(&bin_path).ok();
    assert!(!expected.is_empty(), "the run must trace something");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == expected,
        "binary round-trip diverged from the JSONL file"
    );
}

#[test]
fn a_truncated_binary_trace_exits_1_naming_the_byte_offset() {
    let events = [
        TraceEvent::NodeFailed { tick: 1, node: 4 },
        TraceEvent::Phase {
            tick: 2,
            name: "stream".into(),
        },
        TraceEvent::Promote {
            tick: 3,
            node: 5,
            items: 9,
        },
    ];
    let mut bytes = Vec::new();
    let mut last_start = 0;
    for ev in &events {
        last_start = bytes.len();
        wire::encode_trace_event(ev, &mut bytes);
    }
    bytes.pop();
    let path = temp_path("trace-truncated", TraceFormat::Binary);
    std::fs::write(&path, &bytes).unwrap();
    let out = trace_dump(&path);
    std::fs::remove_file(&path).ok();

    assert_eq!(out.status.code(), Some(1));
    let mut printed = String::new();
    for ev in &events[..2] {
        ev.to_jsonl(&mut printed);
        printed.push('\n');
    }
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        printed,
        "the events before the cut are printed"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!(
            "{}: bad frame at byte {last_start}:",
            path.display()
        )),
        "names the file and the offset of the cut frame: {err}"
    );
}
