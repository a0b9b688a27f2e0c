//! Length-prefixed, versioned binary codec for protocol messages and trace
//! events — the engine's on-wire format.
//!
//! Every transport backend speaks the same byte-exact frame:
//!
//! ```text
//! +----------------+-----------+------------------------+
//! | length: u32 LE | version:  | payload                |
//! | (of the rest)  | u8 (= 1)  | (tag-prefixed body)    |
//! +----------------+-----------+------------------------+
//! ```
//!
//! The length covers the version byte plus the payload, so a framed reader
//! needs exactly two reads per message: 4 bytes of length, then `length`
//! bytes of frame.
//!
//! **One schema table per payload.** The [`Message`] table
//! (`crate::messages`) and the [`ReplicaItem`](crate::ReplicaItem) table (`crate::replication`)
//! declare each kind once, as a row `tag, Variant, "label", { field: Type }`.
//! `wire_enum!` generates from a table the enum, its `KINDS` / `kind_index`
//! / `kind`, the routing identifier read off the field marked `[route]`,
//! and the body codec: the tag byte, then the fields in row order. A
//! field's type is one of a closed vocabulary, the types that implement
//! `Field` here: `u32`, `u64`, [`Id`], [`Side`], `String`, [`QueryRef`],
//! `Arc<Tuple>`, length-prefixed lists of rewritten queries, notifications,
//! values or (in a bundle) messages, a boxed replica item, and the structs
//! `wire_struct!` lists. Queries, tuples, expressions and rewritten queries
//! keep hand-written codecs. [`TraceEvent`]s have their own table, beside
//! their type, on the same `Sink`/`Reader` primitives, and are only framed
//! here.
//!
//! [`encoded_len`] is *exact by construction*: the encoder is generic over
//! a byte sink, and the length computation runs the same encoder against a
//! counting sink — the two can never drift apart.
//!
//! Design points:
//!
//! * **Fixed-width integers, little-endian.** No varints: exactness and
//!   simplicity over compactness; the dominant payload bytes are strings
//!   and values anyway.
//! * **Decoding never panics.** Every read is bounds-checked and every
//!   malformed input — truncation, a bad tag, invalid UTF-8, an unknown
//!   version, garbage trailing a payload, a bundle inside a bundle —
//!   returns a typed [`EngineError::Protocol`]. Expressions are
//!   depth-limited so adversarial input cannot overflow the stack.
//! * **Decoding re-validates.** Queries and tuples are rebuilt through
//!   their validating constructors against the receiver's [`Catalog`], so a
//!   frame that decodes successfully yields the same invariant-checked
//!   values the sender held.
//! * **A receiver validates a query's bytes once.** A rewritten query
//!   carries its whole `JoinQuery`, so one tuple insert ships the same few
//!   encoded queries dozens of times. A receiver that keeps a
//!   [`QueryInterner`] ([`decode_message_interned`]) finds the encoded
//!   query's span without allocating, and rebuilds and re-validates it only
//!   when those exact bytes are new to it; see [`QueryInterner`] for the
//!   key, scope and bound. It is the same decoder either way — a lookup in
//!   front of the one `JoinQuery` constructor — so results and error texts
//!   do not depend on whether an interner is present.
//!
//! Version policy: the version byte is checked on every frame; a reader
//! that sees an unknown version rejects the frame (there is exactly one
//! version today). Any change to a body encoding — a new row, a field
//! added to a row, a new width — is one table edit and must bump
//! [`VERSION`]; readers never attempt cross-version decoding.
//! `tests/fixtures/wire_v1.bin` pins the version-1 bytes.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{
    BinOp, Catalog, Expr, Filter, JoinQuery, MatchTarget, Notification, QueryKey, QueryRef,
    QuerySpec, RewrittenQuery, SelectItem, Side, Timestamp, Tuple, Value,
};

use crate::error::{EngineError, Result};
use crate::messages::Message;
use crate::tables::keys::ValueKey;
use crate::trace::TraceEvent;

/// Wire-format version carried by every frame.
pub const VERSION: u8 = 1;

/// Upper bound on the framed length (version byte + payload) a reader will
/// accept — rejects absurd lengths before allocating a receive buffer.
pub const MAX_FRAME: u32 = 1 << 26;

/// Maximum nesting depth accepted when decoding an expression.
const MAX_DEPTH: u32 = 64;

pub(crate) fn err(detail: impl Into<String>) -> EngineError {
    EngineError::Protocol {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Sink abstraction: the encoder is generic over "where the bytes go", so the
// exact length comes from running the same code against a counter.
// ---------------------------------------------------------------------------

pub(crate) trait Sink: Sized {
    fn put(&mut self, bytes: &[u8]);

    /// Puts the `len` bytes of text that `write` formats. A sink that only
    /// counts takes `len` and never runs `write`.
    fn put_text(&mut self, len: usize, write: impl FnOnce(&mut Text<'_, Self>) -> fmt::Result);
}

/// A sink as a formatting target, for [`Sink::put_text`].
pub(crate) struct Text<'a, S>(&'a mut S);

impl<S: Sink> fmt::Write for Text<'_, S> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s.as_bytes());
        Ok(())
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_text(&mut self, len: usize, write: impl FnOnce(&mut Text<'_, Self>) -> fmt::Result) {
        let at = self.len();
        // `Text` never fails, so `write` only could by its own choice.
        let _ = write(&mut Text(self));
        debug_assert_eq!(self.len() - at, len, "text length computed wrongly");
    }
}

struct Count(u64);

impl Sink for Count {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }

    #[inline]
    fn put_text(&mut self, len: usize, _: impl FnOnce(&mut Text<'_, Self>) -> fmt::Result) {
        self.0 += len as u64;
    }
}

#[inline]
pub(crate) fn put_u8<S: Sink>(s: &mut S, v: u8) {
    s.put(&[v]);
}

#[inline]
pub(crate) fn put_u32<S: Sink>(s: &mut S, v: u32) {
    s.put(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64<S: Sink>(s: &mut S, v: u64) {
    s.put(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_bool<S: Sink>(s: &mut S, v: bool) {
    put_u8(s, v as u8);
}

pub(crate) fn put_str<S: Sink>(s: &mut S, v: &str) {
    put_u32(s, v.len() as u32);
    s.put(v.as_bytes());
}

// ---------------------------------------------------------------------------
// Bounds-checked reader.
// ---------------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(err(format!(
                "truncated frame: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn boolean(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(err(format!("invalid bool byte {v}"))),
        }
    }

    fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| err("string field is not valid UTF-8"))
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        self.str().map(str::to_string)
    }

    /// Reads a count prefix, sanity-checking it against the bytes that
    /// remain so a corrupt count cannot trigger a huge allocation (every
    /// element occupies at least one byte).
    pub(crate) fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(err(format!(
                "element count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// The schema machinery: the field vocabulary and the table macros.
// ---------------------------------------------------------------------------

/// What decoding a message reads besides the bytes: the receiver's catalog,
/// its query interner when it keeps one, and whether this frame's bundle
/// has been opened.
pub(crate) struct Decoder<'a> {
    catalog: &'a Catalog,
    queries: Option<&'a mut QueryInterner>,
    bundled: bool,
}

/// A type of the message schema's closed field vocabulary: how one field of
/// it is written and read back.
pub(crate) trait Field: Sized {
    /// Writes the value.
    fn put<S: Sink>(&self, s: &mut S);

    /// Reads one value back; every malformed input is a typed
    /// [`EngineError::Protocol`].
    fn get(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Self>;

    /// The identifier the value is routed by: an [`Id`]'s own, and for a
    /// table row or a `wire_struct!` the one its `[route]` field holds.
    fn route(&self) -> Option<Id> {
        None
    }
}

/// Generates a schema table's `KINDS`, `kind_index` and `kind`, and fails
/// the build unless its rows are in tag order. Tags are positions — in
/// `KINDS`, in per-kind counters and as the first body byte — so a row
/// inserted mid-table must fail here rather than silently renumber the
/// wire format. Both tables use it: `wire_enum!` and `trace_events!`.
macro_rules! kinds {
    ($vis:vis $E:ident; $($tag:literal $V:ident $label:literal)*) => {
        const _: () = {
            let tags = [$($tag),*];
            let mut i = 0;
            while i < tags.len() {
                assert!(tags[i] == i, concat!(stringify!($E), " rows must be in tag order"));
                i += 1;
            }
        };

        impl $E {
            /// All kind labels, in tag order.
            $vis const KINDS: [&'static str; [$($tag),*].len()] = [$($label),*];

            /// Index of this value's kind in `KINDS`, which is also its tag
            /// on the wire — a direct discriminant map, so per-kind
            /// accounting never compares strings.
            $vis fn kind_index(&self) -> usize {
                match self {
                    $(Self::$V { .. } => $tag,)*
                }
            }

            /// The label of this value's kind.
            $vis fn kind(&self) -> &'static str {
                Self::KINDS[self.kind_index()]
            }
        }
    };
}
pub(crate) use kinds;

/// A row's or struct's route: the one binding its `[route]` marker names,
/// or `None` when nothing is marked.
macro_rules! route {
    () => {
        None
    };
    ($r:ident) => {
        $crate::wire::Field::route($r)
    };
}
pub(crate) use route;

/// Generates a tagged enum and its [`Field`] codec from one table. Each row
/// is `tag, Variant, "label", { field: Type, … }` for a struct variant or
/// `tag, Variant, "label", (name: Type)` for a one-field tuple variant,
/// whose `name` only labels the payload. The body is the tag byte, then
/// the fields in row order; `[route]` before a field marks the one
/// [`Field::route`] reads (a tuple variant routes as its payload does).
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $E:ident {$(
            $(#[doc = $vdoc:literal])*
            $tag:literal, $V:ident, $label:literal,
            $({ $( $(#[doc = $fdoc:literal])* $([$r:ident])? $f:ident: $T:ty ),* $(,)? })?
            $(($p:ident: $P:ty))?
        )*}
    ) => {
        $(#[$meta])*
        $vis enum $E {$(
            $(#[doc = $vdoc])*
            $V $({ $( $(#[doc = $fdoc])* $f: $T ),* })? $(($P))?,
        )*}

        $crate::wire::kinds!($vis $E; $($tag $V $label)*);

        impl $crate::wire::Field for $E {
            fn put<S: $crate::wire::Sink>(&self, s: &mut S) {
                match self {$(
                    Self::$V $({ $($f),* })? $(($p))? => {
                        $crate::wire::put_u8(s, $tag);
                        $($($crate::wire::Field::put($f, s);)*)?
                        $($crate::wire::Field::put($p, s);)?
                    }
                )*}
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
                dec: &mut $crate::wire::Decoder<'_>,
            ) -> $crate::error::Result<Self> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $f = $crate::wire::Field::get(r, dec)?;)*)?
                        $(let $p = $crate::wire::Field::get(r, dec)?;)?
                        Self::$V $({ $($f),* })? $(($p))?
                    })*
                    t => {
                        let what = concat!("invalid ", stringify!($E), " tag");
                        return Err($crate::wire::err(format!("{what} {t}")));
                    }
                })
            }

            fn route(&self) -> Option<cq_overlay::Id> {
                match self {$(
                    Self::$V $({ $($($f: $r,)?)* .. })? $(($p))? => {
                        $crate::wire::route!($($($($r)?)*)? $($p)?)
                    }
                )*}
            }
        }
    };
}
pub(crate) use wire_enum;

/// `wire_struct! { P { a, [route] b, c } … }` makes each existing struct
/// `P` a [`Field`] encoded as the listed fields in that order. Every field
/// must be listed, since the reader builds `P` with a struct literal;
/// `[route]` marks the one [`Field::route`] reads.
macro_rules! wire_struct {
    ($($P:ident { $($([$r:ident])? $f:ident),* $(,)? })*) => {$(
        impl $crate::wire::Field for $P {
            fn put<S: $crate::wire::Sink>(&self, s: &mut S) {
                $($crate::wire::Field::put(&self.$f, s);)*
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
                dec: &mut $crate::wire::Decoder<'_>,
            ) -> $crate::error::Result<Self> {
                Ok(Self { $($f: $crate::wire::Field::get(r, dec)?),* })
            }

            fn route(&self) -> Option<cq_overlay::Id> {
                let Self { $($($f: $r,)?)* .. } = self;
                $crate::wire::route!($($($r)?)*)
            }
        }
    )*};
}
pub(crate) use wire_struct;

/// The vocabulary's leaf types, one row each: `Type => writer, reader;`.
macro_rules! leaf_fields {
    ($($T:ty => |$s:ident, $v:ident| $put:expr, |$r:ident, $dec:pat_param| $get:expr;)*) => {$(
        impl Field for $T {
            fn put<S: Sink>(&self, $s: &mut S) {
                let $v = self;
                $put;
            }

            fn get($r: &mut Reader<'_>, $dec: &mut Decoder<'_>) -> Result<Self> {
                $get
            }
        }
    )*};
}

leaf_fields! {
    u32 => |s, v| put_u32(s, *v), |r, _| r.u32();
    u64 => |s, v| put_u64(s, *v), |r, _| r.u64();
    Side => |s, v| put_u8(s, matches!(v, Side::Right) as u8), |r, _| get_side(r);
    String => |s, v| put_str(s, v), |r, _| r.string();
    QueryKey => |s, v| put_str(s, &v.0), |r, _| r.string().map(QueryKey);
    Value => |s, v| put_value(s, v), |r, _| get_value(r);
    QueryRef => |s, v| put_query(s, v), |r, dec| get_query(r, dec);
    ValueKey => |s, v| put_str(s, v.as_str()), |r, _| r.str().map(ValueKey::from);
    Vec<Value> => |s, v| put_list(s, v), |r, dec| get_list(r, dec);
    Vec<RewrittenQuery> => |s, v| put_list(s, v), |r, dec| get_list(r, dec);
    Vec<Notification> => |s, v| put_list(s, v), |r, dec| get_list(r, dec);
    Vec<Message> => |s, v| put_list(s, v), |r, dec| get_members(r, dec);
}

/// A boxed field is its contents: written, read back and routed as they are.
impl<T: Field> Field for Box<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        (**self).put(s);
    }

    fn get(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Self> {
        T::get(r, dec).map(Box::new)
    }

    fn route(&self) -> Option<Id> {
        (**self).route()
    }
}

impl Field for Id {
    fn put<S: Sink>(&self, s: &mut S) {
        put_u64(s, self.0);
    }

    fn get(r: &mut Reader<'_>, _: &mut Decoder<'_>) -> Result<Self> {
        r.u64().map(Id)
    }

    fn route(&self) -> Option<Id> {
        Some(*self)
    }
}

impl Field for Arc<Tuple> {
    fn put<S: Sink>(&self, s: &mut S) {
        put_str(s, self.relation());
        put_list(s, self.values());
        put_u64(s, self.pub_time().0);
        put_u64(s, self.seq());
    }

    fn get(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Self> {
        let relation = r.string()?;
        let values = get_list(r, dec)?;
        let pub_time = Timestamp(r.u64()?);
        let seq = r.u64()?;
        let schema = dec
            .catalog
            .get(&relation)
            .map_err(|e| err(format!("decoded tuple references unknown relation: {e}")))?
            .clone();
        Tuple::new(schema, values, pub_time, seq)
            .map(Arc::new)
            .map_err(|e| err(format!("decoded tuple failed validation: {e}")))
    }
}

impl Field for RewrittenQuery {
    fn put<S: Sink>(&self, s: &mut S) {
        // The legacy `Key(q')` text, formatted straight into the sink. No
        // decoder reads it back (identity comes from the parts that follow);
        // the field stays so frames keep their bytes until the fixture bump.
        let key_len = self.key_len();
        put_u32(s, key_len as u32);
        s.put_text(key_len, |text| self.write_key(text));
        put_query(s, self.query());
        self.bound_side().put(s);
        put_list(s, self.bound_values());
        match self.target() {
            MatchTarget::Attribute { attr, value } => {
                put_u8(s, 0);
                put_str(s, attr);
                put_value(s, value);
            }
            MatchTarget::ConditionValue { value } => {
                put_u8(s, 1);
                put_value(s, value);
            }
        }
        put_u64(s, self.trigger_time().0);
    }

    fn get(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Self> {
        // The sender's key text is read past, not trusted: `from_parts` takes
        // the rewriting's identity from the decoded parts.
        r.str()?;
        let query = get_query(r, dec)?;
        let bound_side = get_side(r)?;
        let bound_values = (0..r.count()?)
            .map(|_| get_value(r))
            .collect::<Result<_>>()?;
        let target_attr = match r.u8()? {
            0 => Some(r.str()?),
            1 => None,
            t => return Err(err(format!("invalid match-target tag {t}"))),
        };
        let target_value = get_value(r)?;
        let trigger_time = Timestamp(r.u64()?);
        Ok(RewrittenQuery::from_parts(
            query,
            bound_side,
            bound_values,
            target_attr,
            target_value,
            trigger_time,
        ))
    }
}

/// The one list codec: a `u32` count, then the items.
fn put_list<S: Sink, T: Field>(s: &mut S, items: &[T]) {
    put_u32(s, items.len() as u32);
    for item in items {
        item.put(s);
    }
}

fn get_list<T: Field>(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Vec<T>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::get(r, dec)?);
    }
    Ok(out)
}

/// A bundle's members. The engine never nests bundles, so a frame holds at
/// most one member list: a second one is a bundle inside a bundle, and is
/// rejected before any of it is read.
fn get_members(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Vec<Message>> {
    if std::mem::replace(&mut dec.bundled, true) {
        return Err(err("a bundle nested inside a bundle"));
    }
    get_list(r, dec)
}

wire_struct! {
    Notification { query_key, subscriber, values }
}

// ---------------------------------------------------------------------------
// Hand-written codecs: values, expressions and queries.
// ---------------------------------------------------------------------------

fn put_value<S: Sink>(s: &mut S, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(s, 0);
            s.put(&i.to_le_bytes());
        }
        Value::Str(t) => {
            put_u8(s, 1);
            put_str(s, t);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.u64()? as i64)),
        1 => Ok(Value::Str(r.string()?)),
        t => Err(err(format!("invalid value tag {t}"))),
    }
}

fn get_side(r: &mut Reader<'_>) -> Result<Side> {
    match r.u8()? {
        0 => Ok(Side::Left),
        1 => Ok(Side::Right),
        t => Err(err(format!("invalid side tag {t}"))),
    }
}

fn put_expr<S: Sink>(s: &mut S, e: &Expr) {
    match e {
        Expr::Attr(a) => {
            put_u8(s, 0);
            put_str(s, a);
        }
        Expr::Const(v) => {
            put_u8(s, 1);
            put_value(s, v);
        }
        Expr::Bin { op, lhs, rhs } => {
            put_u8(s, 2);
            let op = match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Concat => 3,
            };
            put_u8(s, op);
            put_expr(s, lhs);
            put_expr(s, rhs);
        }
    }
}

fn get_expr(r: &mut Reader<'_>, depth: u32) -> Result<Expr> {
    if depth > MAX_DEPTH {
        return Err(err("expression nesting exceeds the decoder depth limit"));
    }
    match r.u8()? {
        0 => Ok(Expr::Attr(r.string()?)),
        1 => Ok(Expr::Const(get_value(r)?)),
        2 => {
            let op = match r.u8()? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Concat,
                t => return Err(err(format!("invalid binop tag {t}"))),
            };
            let lhs = get_expr(r, depth + 1)?;
            let rhs = get_expr(r, depth + 1)?;
            Ok(Expr::bin(op, lhs, rhs))
        }
        t => Err(err(format!("invalid expression tag {t}"))),
    }
}

fn put_query<S: Sink>(s: &mut S, q: &JoinQuery) {
    put_str(s, &q.key().0);
    put_str(s, q.subscriber());
    put_u64(s, q.ins_time().0);
    put_str(s, q.relation(Side::Left));
    put_str(s, q.relation(Side::Right));
    put_u32(s, q.select().len() as u32);
    for item in q.select() {
        item.side.put(s);
        put_str(s, &item.attr);
    }
    put_expr(s, q.condition(Side::Left));
    put_expr(s, q.condition(Side::Right));
    put_u32(s, q.filters().len() as u32);
    for f in q.filters() {
        f.side.put(s);
        put_str(s, &f.attr);
        put_value(s, &f.value);
    }
}

/// Most decoded queries a [`QueryInterner`] retains.
pub const INTERN_CAP: usize = 1024;

/// A receiver's memory of the queries it has already decoded:
/// content-addressed, `encoded bytes → QueryRef`.
///
/// * **Key** — the exact bytes `put_query` wrote, all of them. Two
///   encodings that differ anywhere (same [`QueryKey`] or not) are two
///   entries and never alias; equal bytes decode to equal queries because
///   the decoder is a deterministic function of the bytes and the catalog.
///   A hit hands out a clone of the `Arc` the first decode built, so the
///   rewritten queries a node stores share one `JoinQuery` per query.
/// * **Scope** — one receiver and one [`Catalog`] (validation depends on
///   it). The TCP transport keeps one per receiving node: a node profits
///   only from bytes *it* decoded before, which is what one process per
///   node would see.
/// * **Bound** — the bytes come from a peer, so the table holds at most
///   [`INTERN_CAP`] entries, each proportional to bytes that peer actually
///   sent and that decoded to a valid query; an insert into a full table
///   clears it first (the `Arc`s already handed out live on). For the same
///   reason the table keeps `std`'s seeded hasher rather than the engine's
///   Fx tables: a peer cannot craft keys that collide. It is never
///   iterated, so the seed reaches no result.
#[derive(Debug, Default)]
pub struct QueryInterner {
    map: HashMap<Box<[u8]>, QueryRef>,
}

impl QueryInterner {
    /// An empty interner.
    pub fn new() -> QueryInterner {
        QueryInterner::default()
    }

    /// Queries currently retained (never more than [`INTERN_CAP`]).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn insert(&mut self, bytes: &[u8], query: &QueryRef) {
        if self.map.len() >= INTERN_CAP {
            self.map.clear();
        }
        self.map.insert(bytes.into(), Arc::clone(query));
    }
}

fn skim_str(r: &mut Reader<'_>) -> Option<()> {
    let n = r.u32().ok()? as usize;
    r.take(n).ok().map(drop)
}

fn skim_value(r: &mut Reader<'_>) -> Option<()> {
    match r.u8().ok()? {
        0 => r.take(8).ok().map(drop),
        1 => skim_str(r),
        _ => None,
    }
}

fn skim_expr(r: &mut Reader<'_>, depth: u32) -> Option<()> {
    if depth > MAX_DEPTH {
        return None;
    }
    match r.u8().ok()? {
        0 => skim_str(r),
        1 => skim_value(r),
        2 => {
            r.u8().ok()?;
            skim_expr(r, depth + 1)?;
            skim_expr(r, depth + 1)
        }
        _ => None,
    }
}

/// Walks one encoded query without building anything — the same bounds,
/// count and depth checks as [`decode_query`], no UTF-8, tag-range or
/// catalog checks — and returns the length of its span. `None` means only
/// "let the decoder judge these bytes".
fn skim_query(buf: &[u8]) -> Option<usize> {
    let r = &mut Reader::new(buf);
    skim_str(r)?; // key
    skim_str(r)?; // subscriber
    r.u64().ok()?; // ins_time
    skim_str(r)?; // relations
    skim_str(r)?;
    for _ in 0..r.count().ok()? {
        r.u8().ok()?;
        skim_str(r)?;
    }
    skim_expr(r, 0)?;
    skim_expr(r, 0)?;
    for _ in 0..r.count().ok()? {
        r.u8().ok()?;
        skim_str(r)?;
        skim_value(r)?;
    }
    Some(r.pos)
}

/// Decodes one query: through the receiver's interner when it has one and
/// these bytes are known to it, else by rebuilding and validating.
///
/// An entry's key is the bytes [`decode_query`] itself consumed, so a hit
/// returns exactly what decoding here would rebuild, whatever the skim
/// says; a skim that fails, or that disagrees with the decoder, can only
/// cost a miss.
fn get_query(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<QueryRef> {
    let Some(queries) = dec.queries.as_deref_mut() else {
        return decode_query(r, dec.catalog);
    };
    let rest = &r.buf[r.pos..];
    if let Some(span) = skim_query(rest) {
        if let Some(query) = queries.map.get(&rest[..span]) {
            r.pos += span;
            return Ok(Arc::clone(query));
        }
    }
    let start = r.pos;
    let query = decode_query(r, dec.catalog)?;
    queries.insert(&r.buf[start..r.pos], &query);
    Ok(query)
}

fn decode_query(r: &mut Reader<'_>, catalog: &Catalog) -> Result<QueryRef> {
    let key = QueryKey(r.string()?);
    let subscriber = r.string()?;
    let ins_time = Timestamp(r.u64()?);
    let relations = [r.string()?, r.string()?];
    let n = r.count()?;
    let mut select = Vec::with_capacity(n);
    for _ in 0..n {
        let side = get_side(r)?;
        let attr = r.string()?;
        select.push(SelectItem { side, attr });
    }
    let conditions = [get_expr(r, 0)?, get_expr(r, 0)?];
    let n = r.count()?;
    let mut filters = Vec::with_capacity(n);
    for _ in 0..n {
        let side = get_side(r)?;
        let attr = r.string()?;
        let value = get_value(r)?;
        filters.push(Filter { side, attr, value });
    }
    let spec = QuerySpec {
        key,
        subscriber,
        ins_time,
        relations,
        select,
        conditions,
        filters,
    };
    JoinQuery::new(spec, catalog)
        .map(Arc::new)
        .map_err(|e| err(format!("decoded query failed validation: {e}")))
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Appends one complete frame (length prefix, version byte, body). Single
/// pass: the body is written in place and the length patched afterwards.
fn put_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(VERSION);
    body(out);
    let framed = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&framed.to_le_bytes());
}

/// The exact length of [`put_frame`]'s output for the same body writer.
fn frame_len(body: impl FnOnce(&mut Count)) -> u64 {
    let mut c = Count(0);
    body(&mut c);
    4 + 1 + c.0
}

/// Appends one complete frame for a protocol message.
pub fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    put_frame(out, |s| msg.put(s));
}

/// The exact length in bytes of [`encode_message`]'s output for this
/// message — computed by running the encoder against a counting sink, so it
/// can never disagree with the real encoding.
pub fn encoded_len(msg: &Message) -> u64 {
    frame_len(|c| msg.put(c))
}

/// Structural check of one complete codec frame: `frame` must consist of a
/// u32 LE length prefix counting *exactly* the bytes that follow. Returns
/// the body length when the shape holds, `None` otherwise. Purely framing —
/// the version byte and payload are not inspected — so a caller can check
/// frame integrity without knowing the protocol: cqbench's socket probe and
/// the ledger's `socket-pump` row both do.
pub fn frame_body_len(frame: &[u8]) -> Option<usize> {
    if frame.len() < 4 {
        return None;
    }
    let announced = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    (frame.len() - 4 == announced).then_some(announced)
}

/// Appends one complete frame for a trace event (same frame layout as
/// protocol messages; the body starts with the event's kind index).
pub fn encode_trace_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    put_frame(out, |s| ev.put_body(s));
}

/// Splits one frame off the head of `buf`, validating the length prefix and
/// version byte, and reads its payload with `body`, which must consume all
/// of it. Returns the value and the frame's total length.
fn read_frame<T>(
    buf: &[u8],
    what: &str,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<(T, usize)> {
    if buf.len() < 4 {
        return Err(err(format!(
            "truncated frame: {} bytes, need 4 for the length prefix",
            buf.len()
        )));
    }
    let framed = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if framed == 0 {
        return Err(err("zero-length frame"));
    }
    if framed > MAX_FRAME {
        return Err(err(format!(
            "frame length {framed} exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let total = 4 + framed as usize;
    if buf.len() < total {
        return Err(err(format!(
            "truncated frame: length prefix says {framed}, {} bytes follow",
            buf.len() - 4
        )));
    }
    let version = buf[4];
    if version != VERSION {
        return Err(err(format!(
            "unsupported wire version {version} (expected {VERSION})"
        )));
    }
    let mut r = Reader::new(&buf[5..total]);
    let value = body(&mut r)?;
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} garbage bytes after the {what} payload",
            r.remaining()
        )));
    }
    Ok((value, total))
}

/// Decodes one message frame from the head of `buf`, returning the message
/// and the number of bytes consumed. Tuples and queries are re-validated
/// against `catalog`; every malformed input yields
/// [`EngineError::Protocol`].
pub fn decode_message(buf: &[u8], catalog: &Catalog) -> Result<(Message, usize)> {
    decode_with(buf, catalog, None)
}

/// [`decode_message`] for a receiver that remembers the queries it has
/// decoded: the same decoder, results and errors, with `queries` consulted
/// before a query is rebuilt. `queries` must only ever see this `catalog`.
pub fn decode_message_interned(
    buf: &[u8],
    catalog: &Catalog,
    queries: &mut QueryInterner,
) -> Result<(Message, usize)> {
    decode_with(buf, catalog, Some(queries))
}

fn decode_with(
    buf: &[u8],
    catalog: &Catalog,
    queries: Option<&mut QueryInterner>,
) -> Result<(Message, usize)> {
    let mut dec = Decoder {
        catalog,
        queries,
        bundled: false,
    };
    read_frame(buf, "message", |r| Message::get(r, &mut dec))
}

/// Decodes one trace-event frame from the head of `buf`, returning the
/// event and the number of bytes consumed.
pub fn decode_trace_event(buf: &[u8]) -> Result<(TraceEvent, usize)> {
    read_frame(buf, "trace-event", TraceEvent::get_body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ValueJoin;
    use crate::replication::ReplicaItem;
    use cq_relational::{DataType, RelationSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Str)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
            .unwrap();
        c
    }

    fn query(c: &Catalog) -> QueryRef {
        Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n1", 0),
                    subscriber: "n1".into(),
                    ins_time: Timestamp(3),
                    relations: ["R".into(), "S".into()],
                    select: vec![
                        SelectItem {
                            side: Side::Left,
                            attr: "B".into(),
                        },
                        SelectItem {
                            side: Side::Right,
                            attr: "D".into(),
                        },
                    ],
                    conditions: [Expr::attr("A"), Expr::attr("C")],
                    filters: vec![Filter {
                        side: Side::Right,
                        attr: "D".into(),
                        value: Value::Int(9),
                    }],
                },
                c,
            )
            .unwrap(),
        )
    }

    fn tuple(c: &Catalog) -> Arc<Tuple> {
        Arc::new(
            Tuple::new(
                c.get("R").unwrap().clone(),
                vec![Value::Int(7), Value::Str("x".into())],
                Timestamp(5),
                42,
            )
            .unwrap(),
        )
    }

    fn roundtrip(msg: &Message, c: &Catalog) -> Message {
        let mut buf = Vec::new();
        encode_message(msg, &mut buf);
        assert_eq!(buf.len() as u64, encoded_len(msg), "encoded_len is exact");
        let (decoded, used) = decode_message(&buf, c).unwrap();
        assert_eq!(used, buf.len(), "frame fully consumed");
        decoded
    }

    #[test]
    fn a_rewriting_takes_its_identity_from_its_parts_not_from_the_key_field() {
        let c = catalog();
        let rq = RewrittenQuery::rewrite_attribute(&query(&c), Side::Left, "A", "C", &tuple(&c))
            .unwrap()
            .unwrap();
        let msg = Message::Join {
            items: vec![rq.clone()],
            index_id: Id(1),
        };
        let mut frame = Vec::new();
        encode_message(&msg, &mut frame);
        // The key field carries the legacy text ...
        let key = b"n1#0/L+s:x+i:7";
        let at = frame
            .windows(key.len())
            .position(|w| w == key)
            .expect("the frame carries the key text");
        // ... which a decoder reads past: whatever a sender writes there,
        // the rewriting is the one its parts describe.
        frame[at..at + key.len()].fill(b'?');
        let (Message::Join { items, .. }, _) = decode_message(&frame, &c).unwrap() else {
            panic!("a join")
        };
        assert!(items[0].same_identity(&rq));
        assert_eq!(items[0].fingerprint(), rq.fingerprint());
        let mut again = Vec::new();
        encode_message(
            &Message::Join {
                items,
                index_id: Id(1),
            },
            &mut again,
        );
        assert!(again.windows(key.len()).any(|w| w == key));
    }

    #[test]
    fn message_round_trips_preserve_debug_form() {
        let c = catalog();
        let q = query(&c);
        let t = tuple(&c);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Left, "A", "C", &t)
            .unwrap()
            .unwrap();
        let n = Notification {
            query_key: QueryKey::derive("n1", 0),
            subscriber: "n1".into(),
            values: vec![Value::Int(1), Value::Str("y".into())],
        };
        let msgs = vec![
            Message::IndexQuery {
                query: Arc::clone(&q),
                index_side: Side::Right,
                index_attr: "C".into(),
                index_id: Id(11),
            },
            Message::AlIndexTuple {
                tuple: Arc::clone(&t),
                attr: "A".into(),
                index_id: Id(12),
            },
            Message::VlIndexTuple {
                tuple: Arc::clone(&t),
                attr: "A".into(),
                index_id: Id(13),
            },
            Message::Join {
                items: vec![rq.clone()],
                index_id: Id(14),
            },
            Message::JoinV(Box::new(ValueJoin {
                group: q.group_key(),
                items: vec![rq.clone()],
                tuple: Arc::clone(&t),
                side: Side::Left,
                value_key: "i:7".into(),
                index_id: Id(15),
            })),
            Message::StoreNotifications {
                subscriber_id: Id(16),
                notifications: vec![n.clone()],
            },
            Message::Notify {
                notifications: vec![n.clone()],
            },
            Message::Replicate {
                item: Box::new(ReplicaItem::Offline {
                    id: Id(17),
                    notification: n,
                }),
            },
            Message::Ping { from: 3, seq: 9 },
            Message::Pong { from: 4, seq: 9 },
            Message::Bundle(vec![
                Message::Ping { from: 1, seq: 2 },
                Message::Pong { from: 2, seq: 2 },
            ]),
        ];
        for msg in &msgs {
            let back = roundtrip(msg, &c);
            assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{}", msg.kind());
        }
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let c = catalog();
        let mut buf = Vec::new();
        encode_message(
            &Message::AlIndexTuple {
                tuple: tuple(&c),
                attr: "A".into(),
                index_id: Id(1),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            let e = decode_message(&buf[..cut], &c).unwrap_err();
            assert!(matches!(e, EngineError::Protocol { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let c = catalog();
        let mut buf = Vec::new();
        encode_message(&Message::Ping { from: 0, seq: 0 }, &mut buf);
        buf[4] = VERSION + 1;
        let e = decode_message(&buf, &c).unwrap_err();
        assert!(e.to_string().contains("unsupported wire version"));
    }

    #[test]
    fn unknown_relation_is_a_protocol_error() {
        let c = catalog();
        let mut other = Catalog::new();
        other
            .register(RelationSchema::of("T", &[("Z", DataType::Int)]).unwrap())
            .unwrap();
        let t = Arc::new(
            Tuple::new(
                other.get("T").unwrap().clone(),
                vec![Value::Int(1)],
                Timestamp(0),
                0,
            )
            .unwrap(),
        );
        let mut buf = Vec::new();
        encode_message(
            &Message::AlIndexTuple {
                tuple: t,
                attr: "Z".into(),
                index_id: Id(1),
            },
            &mut buf,
        );
        let e = decode_message(&buf, &c).unwrap_err();
        assert!(matches!(e, EngineError::Protocol { .. }));
    }

    #[test]
    fn trace_event_round_trips() {
        let events = vec![
            TraceEvent::MsgSend {
                tick: 1,
                node: 2,
                id: (2, 7),
                to: 3,
                target: Id(99),
                kind: "al-index",
                path: Some(vec![2, 5, 3]),
            },
            TraceEvent::Phase {
                tick: 4,
                name: "measured".into(),
            },
            TraceEvent::IndexRemove {
                tick: 5,
                node: 6,
                table: "vltt",
                removed: 3,
                reason: "transfer",
            },
        ];
        for ev in &events {
            let mut buf = Vec::new();
            encode_trace_event(ev, &mut buf);
            let (back, used) = decode_trace_event(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let c = catalog();
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.push(VERSION);
        let e = decode_message(&buf, &c).unwrap_err();
        assert!(e.to_string().contains("exceeds"));
    }

    #[test]
    fn frame_body_len_judges_only_the_structure() {
        let mut frame = 3u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[9, 9, 9]);
        assert_eq!(frame_body_len(&frame), Some(3));
        frame.push(0); // trailing garbage breaks the exact-length shape
        assert_eq!(frame_body_len(&frame), None);
        assert_eq!(frame_body_len(&[1, 0]), None); // shorter than a prefix
                                                   // A real encoder frame validates too.
        let mut buf = Vec::new();
        encode_message(
            &Message::Notify {
                notifications: Vec::new(),
            },
            &mut buf,
        );
        assert_eq!(frame_body_len(&buf), Some(buf.len() - 4));
    }
}
