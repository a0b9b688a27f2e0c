//! Structured, causal event tracing across overlay → engine → sim.
//!
//! The paper's evaluation is built entirely on per-message accounting
//! (hops, filtering load, storage load, notifications), yet a finished run
//! only exposes the final [`crate::metrics::Metrics`] snapshot. This module
//! adds the missing window: every interesting engine action — a message
//! send with its hop-by-hop route, a fault decision, an index mutation, a
//! join evaluation, a replica promotion — can be emitted as a typed
//! [`TraceEvent`] into a pluggable [`TraceSink`].
//!
//! Design constraints:
//!
//! * **Zero cost when off.** The network holds an `Option<Arc<dyn
//!   TraceSink>>` that defaults to `None`; every emission site is a single
//!   branch on that option and builds the event inside a closure, so the
//!   disabled path allocates nothing and the simulation output is
//!   byte-identical with tracing compiled in.
//! * **Pure observation.** Sinks receive `&TraceEvent` and can never touch
//!   engine state, the RNG, or the metrics — enabling a sink cannot change
//!   a run's results, only record them.
//! * **Causality.** Every event carries the simulated tick (the network's
//!   logical clock) and the emitting node slot. Message events additionally
//!   carry a `(sender, seq)` [`MsgId`], so a delivered notification can be
//!   traced back through evaluator → rewriter → publisher hop by hop.
//! * **One schema.** Which fields an event kind carries, and how each is
//!   written in either encoding, is declared exactly once, in the
//!   `trace_events!` table below; the enum, its accessors, the JSONL
//!   writer and parser and the binary body codec are all generated from
//!   it. `engine::wire` only frames the binary bodies.
//!
//! One sink ships with the engine: [`RingBufferSink`], a bounded in-memory
//! buffer used by trace-driven tests. The engine writes no files; the trace
//! file writer (`cq_sim::FileSink`, JSONL or binary) and the `trace_dump`
//! tool that reads binary traces back live in `cq-sim`.

use std::collections::VecDeque;
use std::sync::Mutex;

use cq_overlay::Id;

use crate::error::Result;
use crate::messages::Message;
use crate::wire::{self, Reader, Sink};

pub use crate::faults::MsgId;

// ---------------------------------------------------------------------------
// The schema: field types, then the per-kind table.
// ---------------------------------------------------------------------------

/// Everything the codecs know about one *field type*. The table below
/// declares each field as `name: Type`; this macro maps the closed type
/// vocabulary to the Rust type (`ty`), the JSONL reader (`parse`), the
/// binary body writer and reader (`put` / `get`) and the JSONL writer
/// (`jsonl`):
///
/// | type | Rust type | JSONL `"name":…` | binary |
/// |---|---|---|---|
/// | `u64`, `u32` | same | decimal | fixed-width LE |
/// | `bool(d)` | `bool` | `true`/`false`, omitted when equal to the common-case value `d` | one byte |
/// | `MsgId` | [`MsgId`] | `[sender,seq]` | `u32` + `u64` |
/// | `Id` | [`Id`] | decimal | `u64` |
/// | `Label(TABLE)` | `&'static str` | string | one-byte index into `TABLE` |
/// | `Path` | `Option<Vec<u32>>` | `[a,b,…]`, omitted when `None` | flag byte, `u32` count, `u32`s |
/// | `String` | `String` | escaped string | `u32` length + UTF-8 |
/// | `GlobalTick` | `u64` | the tick, then `"node":4294967295` | `u64` |
///
/// `GlobalTick` is the tick of a network-wide event: its variant has no
/// `node` field, so the JSONL line carries `u32::MAX` in that position (and
/// the parser insists on it) while the binary body omits it.
///
/// The `jsonl` arms are one token muncher over a variant's fields. It
/// threads the literal text still owed to the line (`[...]`: the opening
/// `{"ev":"kind"`, a closing quote or bracket) into the next `concat!`, so
/// adjacent literals reach the staging buffer pre-merged, in one `put`.
macro_rules! field {
    (ty u64) => { u64 };
    (ty GlobalTick) => { u64 };
    (ty u32) => { u32 };
    (ty bool($d:expr)) => { bool };
    (ty MsgId) => { MsgId };
    (ty Id) => { Id };
    (ty Label($table:expr)) => { &'static str };
    (ty Path) => { Option<Vec<u32>> };
    (ty String) => { String };

    (parse u64, $l:ident, $k:expr) => { json_u64($l, $k)? };
    (parse GlobalTick, $l:ident, $k:expr) => {{
        json_u64($l, "\"node\":")?;
        json_u64($l, $k)?
    }};
    (parse u32, $l:ident, $k:expr) => { json_u64($l, $k)? as u32 };
    (parse bool($d:expr), $l:ident, $k:expr) => { json_bool($l, $k).unwrap_or($d) };
    (parse MsgId, $l:ident, $k:expr) => {{
        let pair = json_arr($l, $k)?;
        (*pair.first()? as u32, *pair.get(1)?)
    }};
    (parse Id, $l:ident, $k:expr) => { Id(json_u64($l, $k)?) };
    (parse Label($table:expr), $l:ident, $k:expr) => { intern(&$table, &json_str($l, $k)?)? };
    (parse Path, $l:ident, $k:expr) => {
        json_arr($l, $k).map(|p| p.into_iter().map(|n| n as u32).collect())
    };
    (parse String, $l:ident, $k:expr) => { json_str($l, $k)? };

    (put u64, $s:ident, $v:ident) => { wire::put_u64($s, *$v) };
    (put GlobalTick, $s:ident, $v:ident) => { wire::put_u64($s, *$v) };
    (put u32, $s:ident, $v:ident) => { wire::put_u32($s, *$v) };
    (put bool($d:expr), $s:ident, $v:ident) => { wire::put_bool($s, *$v) };
    (put MsgId, $s:ident, $v:ident) => {{
        wire::put_u32($s, $v.0);
        wire::put_u64($s, $v.1);
    }};
    (put Id, $s:ident, $v:ident) => { wire::put_u64($s, $v.0) };
    (put Label($table:expr), $s:ident, $v:ident) => { put_label($s, &$table, $v) };
    (put Path, $s:ident, $v:ident) => { put_path($s, $v.as_deref()) };
    (put String, $s:ident, $v:ident) => { wire::put_str($s, $v) };

    (get u64, $r:ident) => { $r.u64()? };
    (get GlobalTick, $r:ident) => { $r.u64()? };
    (get u32, $r:ident) => { $r.u32()? };
    (get bool($d:expr), $r:ident) => { $r.boolean()? };
    (get MsgId, $r:ident) => { ($r.u32()?, $r.u64()?) };
    (get Id, $r:ident) => { Id($r.u64()?) };
    (get Label($table:expr), $r:ident) => { get_label($r, &$table)? };
    (get Path, $r:ident) => { get_path($r)? };
    (get String, $r:ident) => { $r.string()? };

    (jsonl $w:ident [$($owed:literal),*]) => {
        $w.put(concat!($($owed,)* "}").as_bytes());
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: u64, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":").as_bytes());
        $w.put_u64(*$f);
        field!(jsonl $w [] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: GlobalTick, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":").as_bytes());
        $w.put_u64(*$f);
        field!(jsonl $w [",\"node\":4294967295"] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: u32, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":").as_bytes());
        $w.put_u64(*$f as u64);
        field!(jsonl $w [] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: bool($d:expr), $($rest:tt)*) => {
        if *$f == $d {
            $w.put(concat!($($owed),*).as_bytes());
        } else {
            $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":").as_bytes());
            $w.put(if $d { "false" } else { "true" }.as_bytes());
        }
        field!(jsonl $w [] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: MsgId, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":[").as_bytes());
        $w.put_u64($f.0 as u64);
        $w.put(b",");
        $w.put_u64($f.1);
        field!(jsonl $w ["]"] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: Id, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":").as_bytes());
        $w.put_u64($f.0);
        field!(jsonl $w [] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: Label($table:expr), $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":\"").as_bytes());
        $w.put($f.as_bytes());
        field!(jsonl $w ["\""] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: Path, $($rest:tt)*) => {
        $w.put(concat!($($owed),*).as_bytes());
        if let Some(path) = $f {
            $w.put(concat!(",\"", stringify!($f), "\":[").as_bytes());
            for (i, n) in path.iter().enumerate() {
                if i > 0 {
                    $w.put(b",");
                }
                $w.put_u64(*n as u64);
            }
            $w.put(b"]");
        }
        field!(jsonl $w [] $($rest)*);
    };
    (jsonl $w:ident [$($owed:literal),*] $f:ident: String, $($rest:tt)*) => {
        $w.put(concat!($($owed,)* ",\"", stringify!($f), "\":\"").as_bytes());
        $w.put_escaped($f);
        field!(jsonl $w ["\""] $($rest)*);
    };
}

/// `binding!(node; f f g g …)` is `Some(binding)` for the field called
/// `node` among a variant's fields, `None` when the variant has no such
/// field. Every field identifier is passed twice: the second
/// copy is compared against the literal name (matching ignores hygiene),
/// the first is the call-site identifier that names the `match` binding —
/// a `node` written in this macro's own body could not refer to it.
macro_rules! binding {
    ($name:ident;) => { None };
    (node; $b:ident node $($rest:ident)*) => { Some($b) };
    ($name:ident; $b:ident $other:ident $($rest:ident)*) => { binding!($name; $($rest)*) };
}

/// Generates [`TraceEvent`] and everything that depends on the shape of a
/// kind from one table. Each row is `tag, Variant, "label", { fields }`:
/// `tag` is the kind's index in [`TraceEvent::KINDS`] and the first byte of
/// its binary body, `"label"` its `"ev"` value in JSONL, and every field is
/// `name: Type` over the vocabulary of `field!`, encoded in declaration
/// order. Adding an event kind is one new row here plus its emission site.
macro_rules! trace_events {
    ($(
        $(#[$vmeta:meta])*
        $tag:literal, $V:ident, $label:literal, {
            $( $(#[$fmeta:meta])* $f:ident : $T:ident $(($arg:expr))? ),* $(,)?
        }
    )*) => {
        /// One traced engine action. Every variant carries `tick` (the network's
        /// logical clock when the event happened) and, except for the
        /// network-wide [`Phase`](TraceEvent::Phase), `node` (the slot of the
        /// node the action is attributed to).
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $V { $( $(#[$fmeta])* $f: field!(ty $T $(($arg))?) ),* },
            )*
        }

        wire::kinds!(pub TraceEvent; $($tag $V $label)*);

        impl TraceEvent {
            /// The logical clock the event carries.
            pub fn tick(&self) -> u64 {
                match self {
                    $(Self::$V { tick, .. })|* => *tick,
                }
            }

            /// The node slot the event is attributed to (`u32::MAX` for
            /// [`Phase`], which is network-wide).
            ///
            /// [`Phase`]: TraceEvent::Phase
            #[allow(unused_variables)]
            pub fn node(&self) -> u32 {
                let node: Option<&u32> = match self {
                    $(Self::$V { $($f),* } => binding!(node; $($f $f)*),)*
                };
                node.copied().unwrap_or(u32::MAX)
            }

            /// Serializes the event as one JSON object (no trailing newline). The
            /// format is flat and hand-rolled — the workspace vendors no serde — and
            /// [`TraceEvent::parse_jsonl`] is its exact inverse.
            ///
            /// Integers are formatted manually rather than through `write!` (the
            /// `std::fmt` machinery costs ~100 ns per call), adjacent literals are
            /// pre-merged per variant, and the line is staged in a fixed stack
            /// buffer so `out` sees one `extend_from_slice` per event rather than
            /// one per field (~40% cheaper): sink `record` runs a few hundred
            /// thousand times per traced experiment, and this function is nearly
            /// all of that cost. It is one flat match — a single jump-table
            /// dispatch per event, where going through the accessors would
            /// re-match the variant once per field and mispredict on a mixed
            /// stream.
            pub fn append_jsonl(&self, out: &mut Vec<u8>) {
                let mut line = Scratch::new(out);
                match self {
                    $(Self::$V { $($f),* } => {
                        field!(jsonl line ["{\"ev\":\"", $label, "\""] $($f: $T $(($arg))?,)*);
                    })*
                }
                line.finish();
            }

            /// Parses one line produced by [`TraceEvent::to_jsonl`]. Returns `None`
            /// for malformed input (including unknown event kinds and labels).
            pub fn parse_jsonl(line: &str) -> Option<TraceEvent> {
                Some(match json_str(line, "\"ev\":")?.as_str() {
                    $($label => Self::$V {
                        $($f: field!(
                            parse $T $(($arg))?, line, concat!("\"", stringify!($f), "\":")
                        )),*
                    },)*
                    _ => return None,
                })
            }

            /// Writes the binary body `engine::wire` frames: the kind tag, then
            /// the fields in declaration order.
            pub(crate) fn put_body<S: Sink>(&self, s: &mut S) {
                match self {
                    $(Self::$V { $($f),* } => {
                        wire::put_u8(s, $tag);
                        $(field!(put $T $(($arg))?, s, $f);)*
                    })*
                }
            }

            /// Reads one binary body back; every malformed input is a typed
            /// [`crate::EngineError::Protocol`].
            pub(crate) fn get_body(r: &mut Reader<'_>) -> Result<TraceEvent> {
                Ok(match r.u8()? {
                    $($tag => Self::$V { $($f: field!(get $T $(($arg))?, r)),* },)*
                    t => return Err(wire::err(format!("invalid trace-event tag {t}"))),
                })
            }
        }
    };
}

trace_events! {
    /// A protocol message left `node` toward `to` (resolved receiver).
    /// `path`, when captured, is the hop-by-hop overlay route starting at
    /// the sender (`path.len() - 1` hops); multisend batch members share
    /// their fan-out tree and carry no individual path.
    0, MsgSend, "msg-send", {
        /// Logical clock at emission.
        tick: u64,
        /// Sending node slot.
        node: u32,
        /// `(sender, seq)` message identifier.
        id: MsgId,
        /// Resolved receiver slot.
        to: u32,
        /// The identifier the message is addressed to.
        target: Id,
        /// Message kind label ([`crate::messages::Message::kind`]).
        kind: Label(Message::KINDS),
        /// Hop-by-hop route, sender first (unicast sends only).
        path: Path,
    }
    /// A protocol message was handed to its receiver's handler.
    1, MsgDeliver, "msg-deliver", {
        /// Logical clock at delivery.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// `(sender, seq)` message identifier.
        id: MsgId,
        /// Message kind label.
        kind: Label(Message::KINDS),
    }
    /// The fault layer dropped one transmission copy (a loss draw, a lost
    /// ack, or a receiver that died in flight).
    2, FaultDrop, "fault-drop", {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
    }
    /// The fault layer duplicated a transmission (two copies sent).
    3, FaultDuplicate, "fault-dup", {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
    }
    /// The fault layer delayed a transmission copy by `extra` pump ticks.
    4, FaultDelay, "fault-delay", {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
        /// Extra delay in pump ticks.
        extra: u64,
    }
    /// The reliable-delivery layer retransmitted an unacknowledged message.
    5, Retransmit, "retransmit", {
        /// Logical clock.
        tick: u64,
        /// Original sender slot (retransmissions originate here).
        node: u32,
        /// The retransmitted message.
        id: MsgId,
        /// Retransmission attempt number (1-based).
        attempt: u32,
    }
    /// A receiver's dedup window suppressed a duplicate arrival.
    6, DedupSuppressed, "dedup", {
        /// Logical clock.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// The suppressed message.
        id: MsgId,
    }
    /// A node failed abruptly (fault injection or scripted churn).
    7, NodeFailed, "node-fail", {
        /// Logical clock.
        tick: u64,
        /// The victim's slot.
        node: u32,
    }
    /// An entry was inserted into one of a node's index tables.
    8, IndexInsert, "index-insert", {
        /// Logical clock.
        tick: u64,
        /// Owning node slot.
        node: u32,
        /// Table name: `"alqt"`, `"vlqt"`, `"vltt"` or `"vstore"`.
        table: Label(TraceEvent::TABLES),
        /// `false` when the insert was a dedup hit (entry already present).
        fresh: bool(true),
    }
    /// Entries left one of a node's index tables (a failure wiped them, or
    /// churn transferred them to a new owner).
    9, IndexRemove, "index-remove", {
        /// Logical clock.
        tick: u64,
        /// The node the entries left.
        node: u32,
        /// Table name (or `"offline-store"` / `"all"` for transfers).
        table: Label(TraceEvent::TABLES),
        /// Number of entries removed.
        removed: u64,
        /// Why: `"fail"`, `"leave"` or `"transfer"`.
        reason: Label(TraceEvent::REASONS),
    }
    /// An evaluator matched rewritten queries against stored candidates.
    10, JoinEval, "join-eval", {
        /// Logical clock.
        tick: u64,
        /// Evaluator node slot.
        node: u32,
        /// Candidate pairs checked (the filtering load of this evaluation).
        candidates: u64,
        /// Pairs that actually matched (notifications produced).
        matches: u64,
    }
    /// Notifications arrived at a subscriber inbox (`offline == false`) or
    /// an offline successor store (`offline == true`). In counts mode
    /// (retention off) the event is emitted at the accounting site instead,
    /// since no message is materialized.
    11, NotifyDelivered, "notify", {
        /// Logical clock.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// Notifications in the batch.
        count: u64,
        /// Whether they went to an offline store rather than an inbox.
        offline: bool(false),
    }
    /// A primary item was mirrored onto a successor (k-successor
    /// replication).
    12, Replicate, "replicate", {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor receiving the mirror.
        to: u32,
    }
    /// A node promoted replicas into its primary tables after a failure.
    13, Promote, "promote", {
        /// Logical clock.
        tick: u64,
        /// The promoting node's slot.
        node: u32,
        /// Entries promoted.
        items: u64,
    }
    /// A named simulation phase began (emitted by the sim harness so traces
    /// can be segmented into warm-up / install / measured stream).
    14, Phase, "phase", {
        /// Logical clock at the phase boundary.
        tick: GlobalTick,
        /// Phase name.
        name: String,
    }
    /// A watcher's probe to `target` timed out: the target is now suspected
    /// (failure detection, `engine::recovery`).
    15, Suspect, "suspect", {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The suspected node's slot.
        target: u32,
    }
    /// A suspicion aged past the confirmation timeout: the watcher declared
    /// `target` dead and triggered stabilization + replica promotion.
    16, Confirm, "confirm", {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The declared-dead node's slot.
        target: u32,
        /// Whether the target really was dead (`false` marks a false
        /// confirmation of a slow-but-alive node).
        dead: bool(true),
    }
    /// A suspected node answered a probe after all (or was found alive at
    /// confirmation time): the suspicion was false.
    17, FalseSuspect, "false-suspect", {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The wrongly suspected node's slot.
        target: u32,
    }
    /// An anti-entropy round compared a primary's per-range digest with one
    /// of its successors' replica stores.
    18, DigestExchange, "digest-exchange", {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor whose replica store was compared.
        to: u32,
        /// Entries in the primary's range digest.
        items: u64,
        /// Entries the successor's store was missing.
        missing: u64,
    }
    /// Anti-entropy re-mirrored missing replica items onto a successor.
    19, Repair, "repair", {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor receiving the re-mirrored items.
        to: u32,
        /// Items re-mirrored.
        items: u64,
        /// Approximate wire bytes of the re-mirrored items.
        bytes: u64,
    }
}

impl TraceEvent {
    /// Index-table names an [`IndexInsert`](TraceEvent::IndexInsert) or
    /// [`IndexRemove`](TraceEvent::IndexRemove) may carry (`"offline-store"`
    /// and `"all"` appear on removals only).
    pub const TABLES: [&'static str; 6] =
        ["alqt", "vlqt", "vltt", "vstore", "offline-store", "all"];

    /// Reasons an [`IndexRemove`](TraceEvent::IndexRemove) may carry.
    pub const REASONS: [&'static str; 3] = ["fail", "leave", "transfer"];

    /// [`TraceEvent::append_jsonl`] into a `String` (convenience for tests
    /// and tooling; the sinks use the byte-level variant directly).
    pub fn to_jsonl(&self, out: &mut String) {
        let mut bytes = Vec::with_capacity(128);
        self.append_jsonl(&mut bytes);
        out.push_str(std::str::from_utf8(&bytes).expect("JSONL is ASCII or escaped UTF-8"));
    }
}

// --- `Label` and `Path` field codecs ---

/// Restores the static label equal to `s`; a string outside its table is
/// malformed input (the engine never emits one).
fn intern(table: &'static [&'static str], s: &str) -> Option<&'static str> {
    table.iter().find(|t| **t == s).copied()
}

fn put_label<S: Sink>(s: &mut S, table: &[&'static str], v: &str) {
    // Encoded as a one-byte table index; every emitted value is in its
    // table, but fall back to the raw string (index 0xff + string) so the
    // encoder stays total even for a label added without a table update.
    match table.iter().position(|t| *t == v) {
        Some(i) => wire::put_u8(s, i as u8),
        None => {
            wire::put_u8(s, 0xff);
            wire::put_str(s, v);
        }
    }
}

fn get_label(r: &mut Reader<'_>, table: &'static [&'static str]) -> Result<&'static str> {
    let i = r.u8()?;
    if i == 0xff {
        let s = r.string()?;
        return intern(table, &s).ok_or_else(|| wire::err(format!("unknown interned label {s:?}")));
    }
    table
        .get(i as usize)
        .copied()
        .ok_or_else(|| wire::err(format!("interned label index {i} out of range")))
}

fn put_path<S: Sink>(s: &mut S, path: Option<&[u32]>) {
    match path {
        None => wire::put_u8(s, 0),
        Some(p) => {
            wire::put_u8(s, 1);
            wire::put_u32(s, p.len() as u32);
            for n in p {
                wire::put_u32(s, *n);
            }
        }
    }
}

fn get_path(r: &mut Reader<'_>) -> Result<Option<Vec<u32>>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.count()?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(r.u32()?);
            }
            Ok(Some(p))
        }
        t => Err(wire::err(format!("invalid path flag {t}"))),
    }
}

/// Stack staging buffer for [`TraceEvent::append_jsonl`]: fields accumulate
/// in a fixed array so the destination `Vec` sees one `extend_from_slice`
/// per event instead of one per field. The rare line that outgrows the
/// array (a very long route path, an adversarial phase name) spills through
/// the cold path and stays correct.
const SCRATCH_LEN: usize = 256;

struct Scratch<'a> {
    out: &'a mut Vec<u8>,
    buf: [u8; SCRATCH_LEN],
    n: usize,
}

impl<'a> Scratch<'a> {
    #[inline(always)]
    fn new(out: &'a mut Vec<u8>) -> Self {
        Scratch {
            out,
            buf: [0u8; SCRATCH_LEN],
            n: 0,
        }
    }

    /// Always inlined: nearly every call site passes a `concat!`-ed literal,
    /// whose copy then compiles to fixed-size stores instead of a
    /// length-dispatched `memcpy`.
    #[inline(always)]
    fn put(&mut self, s: &[u8]) {
        if self.n + s.len() <= SCRATCH_LEN {
            self.buf[self.n..self.n + s.len()].copy_from_slice(s);
            self.n += s.len();
        } else {
            self.spill(s);
        }
    }

    /// Overflow path: drain the staged bytes, then retry (or bypass the
    /// array entirely for a chunk that could never fit).
    #[cold]
    fn spill(&mut self, s: &[u8]) {
        self.out.extend_from_slice(&self.buf[..self.n]);
        self.n = 0;
        if s.len() <= SCRATCH_LEN {
            self.buf[..s.len()].copy_from_slice(s);
            self.n = s.len();
        } else {
            self.out.extend_from_slice(s);
        }
    }

    /// A string value's characters, JSON-escaped (quotes, backslashes and
    /// control characters; everything else verbatim).
    fn put_escaped(&mut self, v: &str) {
        for c in v.chars() {
            match c {
                '"' => self.put(b"\\\""),
                '\\' => self.put(b"\\\\"),
                '\n' => self.put(b"\\n"),
                c if (c as u32) < 0x20 => {
                    self.put(format!("\\u{:04x}", c as u32).as_bytes());
                }
                c => self.put(c.encode_utf8(&mut [0u8; 4]).as_bytes()),
            }
        }
    }

    /// Appends `v` in decimal without going through `std::fmt` (the
    /// `std::fmt` machinery costs ~100 ns per call); pairs of digits come
    /// from a lookup table to halve the divide chain.
    #[inline(always)]
    fn put_u64(&mut self, mut v: u64) {
        const DIGITS2: [u8; 200] = {
            let mut t = [0u8; 200];
            let mut i = 0;
            while i < 100 {
                t[i * 2] = b'0' + (i / 10) as u8;
                t[i * 2 + 1] = b'0' + (i % 10) as u8;
                i += 1;
            }
            t
        };
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        while v >= 100 {
            let d = ((v % 100) as usize) * 2;
            v /= 100;
            i -= 2;
            tmp[i] = DIGITS2[d];
            tmp[i + 1] = DIGITS2[d + 1];
        }
        if v >= 10 {
            let d = (v as usize) * 2;
            i -= 2;
            tmp[i] = DIGITS2[d];
            tmp[i + 1] = DIGITS2[d + 1];
        } else {
            i -= 1;
            tmp[i] = b'0' + v as u8;
        }
        self.put(&tmp[i..]);
    }

    #[inline(always)]
    fn finish(self) {
        self.out.extend_from_slice(&self.buf[..self.n]);
    }
}

// --- minimal flat-JSON field readers (inverse of `to_jsonl` only) ---

/// Locates the raw value text after `pat`, the `"key":` prefix of a field.
fn json_raw<'a>(line: &'a str, pat: &str) -> Option<&'a str> {
    let start = line.find(pat)? + pat.len();
    Some(&line[start..])
}

fn json_u64(line: &str, pat: &str) -> Option<u64> {
    let raw = json_raw(line, pat)?;
    let end = raw.find(|c: char| !c.is_ascii_digit()).unwrap_or(raw.len());
    raw[..end].parse().ok()
}

fn json_bool(line: &str, pat: &str) -> Option<bool> {
    let raw = json_raw(line, pat)?;
    if raw.starts_with("true") {
        Some(true)
    } else if raw.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_str(line: &str, pat: &str) -> Option<String> {
    let raw = json_raw(line, pat)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

fn json_arr(line: &str, pat: &str) -> Option<Vec<u64>> {
    let raw = json_raw(line, pat)?.strip_prefix('[')?;
    let end = raw.find(']')?;
    let body = &raw[..end];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|n| n.trim().parse().ok()).collect()
}

/// A consumer of trace events. Implementations must be cheap and
/// side-effect-free with respect to the engine: they observe, never steer.
pub trait TraceSink: Send + Sync {
    /// Receives one event. Called synchronously on the simulation thread.
    fn record(&self, ev: &TraceEvent);
}

/// A bounded in-memory buffer keeping the most recent events. Used by
/// trace-driven tests and post-mortem inspection of small runs.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
}

impl RingBufferSink {
    /// A buffer holding at most `cap` events (older ones are dropped).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("trace buffer")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace buffer").len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, ev: &TraceEvent) {
        let mut buf = self.buf.lock().expect("trace buffer");
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(TraceEvent::parse_jsonl(""), None);
        assert_eq!(
            TraceEvent::parse_jsonl("{\"ev\":\"nope\",\"tick\":1}"),
            None
        );
        assert_eq!(TraceEvent::parse_jsonl("not json at all"), None);
        // A label outside its vocabulary, and a network-wide event that
        // lost its `node` placeholder.
        assert_eq!(
            TraceEvent::parse_jsonl(
                "{\"ev\":\"index-insert\",\"tick\":1,\"node\":2,\"table\":\"nope\"}"
            ),
            None
        );
        assert_eq!(
            TraceEvent::parse_jsonl("{\"ev\":\"phase\",\"tick\":1,\"name\":\"x\"}"),
            None
        );
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let sink = RingBufferSink::new(2);
        for t in 0..5 {
            sink.record(&TraceEvent::NodeFailed { tick: t, node: 0 });
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tick(), 3);
        assert_eq!(evs[1].tick(), 4);
    }

    #[test]
    fn accessors_find_their_fields_by_name() {
        let send = TraceEvent::MsgSend {
            tick: 3,
            node: 5,
            id: (5, 12),
            to: 9,
            target: Id(7),
            kind: "join-v",
            path: None,
        };
        assert_eq!((send.tick(), send.node()), (3, 5));
        assert_eq!((send.kind(), send.kind_index()), ("msg-send", 0));
        let phase = TraceEvent::Phase {
            tick: 8,
            name: "stream".into(),
        };
        assert_eq!((phase.tick(), phase.node()), (8, u32::MAX));
        assert_eq!(TraceEvent::KINDS[phase.kind_index()], "phase");
    }
}
