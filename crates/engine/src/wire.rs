//! Length-prefixed, versioned binary codec for protocol messages and trace
//! events — the engine's on-wire format.
//!
//! The simulator passes [`Message`] values around as in-memory Rust values,
//! so "bytes sent" was previously a coarse per-variant size model. Real
//! deployments pay for every byte crossing a socket, so this module defines
//! the byte-exact frame every transport backend speaks:
//!
//! ```text
//! +----------------+-----------+------------------------+
//! | length: u32 LE | version:  | payload                |
//! | (of the rest)  | u8 (= 1)  | (tag-prefixed body)    |
//! +----------------+-----------+------------------------+
//! ```
//!
//! Message bodies are defined here; a trace event's body (its kind tag and
//! fields) is generated from the one schema in [`crate::trace`] on top of
//! this module's `Sink`/`Reader` primitives, and only framed here.
//!
//! The length covers the version byte plus the payload, so a framed reader
//! needs exactly two reads per message: 4 bytes of length, then `length`
//! bytes of frame. [`encoded_len`] is *exact by construction*: the encoder
//! is generic over a byte sink, and the length computation runs the same
//! encoder against a counting sink — the two can never drift apart.
//!
//! Design points:
//!
//! * **Fixed-width integers, little-endian.** No varints: exactness and
//!   simplicity over compactness; the dominant payload bytes are strings
//!   and values anyway.
//! * **Decoding never panics.** Every read is bounds-checked and every
//!   malformed input — truncation, a bad tag, invalid UTF-8, an unknown
//!   version, garbage trailing a payload — returns a typed
//!   [`EngineError::Protocol`]. Recursive payloads (expressions, bundles)
//!   are depth-limited so adversarial input cannot overflow the stack.
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
//! version today). Any change to a body encoding — new variant, field, or
//! width — must bump [`VERSION`]; readers never attempt cross-version
//! decoding.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{
    Catalog, Expr, Filter, JoinQuery, MatchTarget, Notification, QueryKey, QueryRef, QuerySpec,
    RewrittenQuery, SelectItem, Side, Timestamp, Tuple, Value,
};

use crate::error::{EngineError, Result};
use crate::messages::{Message, ValueJoin};
use crate::replication::ReplicaItem;
use crate::tables::{StoredQuery, StoredRewritten, StoredTuple, StoredValueTuple};
use crate::trace::TraceEvent;

/// Wire-format version carried by every frame.
pub const VERSION: u8 = 1;

/// Upper bound on the framed length (version byte + payload) a reader will
/// accept — rejects absurd lengths before allocating a receive buffer.
pub const MAX_FRAME: u32 = 1 << 26;

/// Binary operator tags, mirrored from `cq_relational::BinOp`.
const BINOPS: [cq_relational::BinOp; 4] = [
    cq_relational::BinOp::Add,
    cq_relational::BinOp::Sub,
    cq_relational::BinOp::Mul,
    cq_relational::BinOp::Concat,
];

/// Maximum nesting depth accepted when decoding recursive payloads
/// (expressions and bundles).
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
fn put_i64<S: Sink>(s: &mut S, v: i64) {
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

    fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
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
// Relational building blocks.
// ---------------------------------------------------------------------------

fn put_value<S: Sink>(s: &mut S, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(s, 0);
            put_i64(s, *i);
        }
        Value::Str(t) => {
            put_u8(s, 1);
            put_str(s, t);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Str(r.string()?)),
        t => Err(err(format!("invalid value tag {t}"))),
    }
}

fn put_values<S: Sink>(s: &mut S, vs: &[Value]) {
    put_u32(s, vs.len() as u32);
    for v in vs {
        put_value(s, v);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_value(r)?);
    }
    Ok(out)
}

fn put_side<S: Sink>(s: &mut S, side: Side) {
    put_u8(s, matches!(side, Side::Right) as u8);
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
            put_u8(s, BINOPS.iter().position(|b| b == op).unwrap_or(0) as u8);
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
            let op = r.u8()?;
            let op = *BINOPS
                .get(op as usize)
                .ok_or_else(|| err(format!("invalid binop tag {op}")))?;
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
        put_side(s, item.side);
        put_str(s, &item.attr);
    }
    put_expr(s, q.condition(Side::Left));
    put_expr(s, q.condition(Side::Right));
    put_u32(s, q.filters().len() as u32);
    for f in q.filters() {
        put_side(s, f.side);
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

/// What decoding a message reads besides the bytes: the receiver's catalog
/// and, when the receiver keeps one, its query interner.
struct Decoder<'a> {
    catalog: &'a Catalog,
    queries: Option<&'a mut QueryInterner>,
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

fn put_tuple<S: Sink>(s: &mut S, t: &Tuple) {
    put_str(s, t.relation());
    put_values(s, t.values());
    put_u64(s, t.pub_time().0);
    put_u64(s, t.seq());
}

fn get_tuple(r: &mut Reader<'_>, catalog: &Catalog) -> Result<Arc<Tuple>> {
    let relation = r.string()?;
    let values = get_values(r)?;
    let pub_time = Timestamp(r.u64()?);
    let seq = r.u64()?;
    let schema = catalog
        .get(&relation)
        .map_err(|e| err(format!("decoded tuple references unknown relation: {e}")))?
        .clone();
    Tuple::new(schema, values, pub_time, seq)
        .map(Arc::new)
        .map_err(|e| err(format!("decoded tuple failed validation: {e}")))
}

fn put_rewritten<S: Sink>(s: &mut S, rq: &RewrittenQuery) {
    // The legacy `Key(q')` text, formatted straight into the sink. No
    // decoder reads it back (identity comes from the parts that follow);
    // the field stays so frames keep their bytes until the fixture bump.
    let key_len = rq.key_len();
    put_u32(s, key_len as u32);
    s.put_text(key_len, |text| rq.write_key(text));
    put_query(s, rq.query());
    put_side(s, rq.bound_side());
    put_values(s, rq.bound_values());
    match rq.target() {
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
    put_u64(s, rq.trigger_time().0);
}

fn get_rewritten(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<RewrittenQuery> {
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

fn put_rewrittens<S: Sink>(s: &mut S, items: &[RewrittenQuery]) {
    put_u32(s, items.len() as u32);
    for rq in items {
        put_rewritten(s, rq);
    }
}

fn get_rewrittens(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<Vec<RewrittenQuery>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_rewritten(r, dec)?);
    }
    Ok(out)
}

fn put_notification<S: Sink>(s: &mut S, n: &Notification) {
    put_str(s, &n.query_key.0);
    put_str(s, &n.subscriber);
    put_values(s, &n.values);
}

fn get_notification(r: &mut Reader<'_>) -> Result<Notification> {
    Ok(Notification {
        query_key: QueryKey(r.string()?),
        subscriber: r.string()?,
        values: get_values(r)?,
    })
}

fn put_notifications<S: Sink>(s: &mut S, ns: &[Notification]) {
    put_u32(s, ns.len() as u32);
    for n in ns {
        put_notification(s, n);
    }
}

fn get_notifications(r: &mut Reader<'_>) -> Result<Vec<Notification>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_notification(r)?);
    }
    Ok(out)
}

fn put_replica_item<S: Sink>(s: &mut S, item: &ReplicaItem) {
    match item {
        ReplicaItem::Query(e) => {
            put_u8(s, 0);
            put_u64(s, e.index_id.0);
            put_query(s, &e.query);
            put_side(s, e.index_side);
            put_str(s, &e.index_attr);
        }
        ReplicaItem::Rewritten(e) => {
            put_u8(s, 1);
            put_u64(s, e.index_id.0);
            put_rewritten(s, &e.rq);
        }
        ReplicaItem::Tuple(e) => {
            put_u8(s, 2);
            put_u64(s, e.index_id.0);
            put_str(s, &e.attr);
            put_tuple(s, &e.tuple);
        }
        ReplicaItem::ValueTuple {
            group,
            value_key,
            entry,
        } => {
            put_u8(s, 3);
            put_str(s, group);
            put_str(s, value_key);
            put_u64(s, entry.index_id.0);
            put_side(s, entry.side);
            put_tuple(s, &entry.tuple);
        }
        ReplicaItem::Offline { id, notification } => {
            put_u8(s, 4);
            put_u64(s, id.0);
            put_notification(s, notification);
        }
    }
}

fn get_replica_item(r: &mut Reader<'_>, dec: &mut Decoder<'_>) -> Result<ReplicaItem> {
    match r.u8()? {
        0 => {
            let index_id = Id(r.u64()?);
            let query = get_query(r, dec)?;
            let index_side = get_side(r)?;
            let index_attr = r.string()?;
            Ok(ReplicaItem::Query(StoredQuery {
                index_id,
                query,
                index_side,
                index_attr,
            }))
        }
        1 => {
            let index_id = Id(r.u64()?);
            let rq = get_rewritten(r, dec)?;
            Ok(ReplicaItem::Rewritten(StoredRewritten { index_id, rq }))
        }
        2 => {
            let index_id = Id(r.u64()?);
            let attr = r.string()?;
            let tuple = get_tuple(r, dec.catalog)?;
            Ok(ReplicaItem::Tuple(StoredTuple {
                index_id,
                attr,
                tuple,
            }))
        }
        3 => {
            let group = r.string()?;
            let value_key = r.string()?;
            let index_id = Id(r.u64()?);
            let side = get_side(r)?;
            let tuple = get_tuple(r, dec.catalog)?;
            Ok(ReplicaItem::ValueTuple {
                group,
                value_key,
                entry: StoredValueTuple {
                    index_id,
                    side,
                    tuple,
                },
            })
        }
        4 => {
            let id = Id(r.u64()?);
            let notification = get_notification(r)?;
            Ok(ReplicaItem::Offline { id, notification })
        }
        t => Err(err(format!("invalid replica-item tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------------

fn put_message<S: Sink>(s: &mut S, m: &Message) {
    match m {
        Message::IndexQuery {
            query,
            index_side,
            index_attr,
            index_id,
        } => {
            put_u8(s, 0);
            put_query(s, query);
            put_side(s, *index_side);
            put_str(s, index_attr);
            put_u64(s, index_id.0);
        }
        Message::AlIndexTuple {
            tuple,
            attr,
            index_id,
        } => {
            put_u8(s, 1);
            put_tuple(s, tuple);
            put_str(s, attr);
            put_u64(s, index_id.0);
        }
        Message::VlIndexTuple {
            tuple,
            attr,
            index_id,
        } => {
            put_u8(s, 2);
            put_tuple(s, tuple);
            put_str(s, attr);
            put_u64(s, index_id.0);
        }
        Message::Join { items, index_id } => {
            put_u8(s, 3);
            put_rewrittens(s, items);
            put_u64(s, index_id.0);
        }
        Message::JoinV(vj) => {
            put_u8(s, 4);
            put_str(s, &vj.group);
            put_rewrittens(s, &vj.items);
            put_tuple(s, &vj.tuple);
            put_side(s, vj.side);
            put_str(s, &vj.value_key);
            put_u64(s, vj.index_id.0);
        }
        Message::StoreNotifications {
            subscriber_id,
            notifications,
        } => {
            put_u8(s, 5);
            put_u64(s, subscriber_id.0);
            put_notifications(s, notifications);
        }
        Message::Notify { notifications } => {
            put_u8(s, 6);
            put_notifications(s, notifications);
        }
        Message::Replicate { item } => {
            put_u8(s, 7);
            put_replica_item(s, item);
        }
        Message::Ping { from, seq } => {
            put_u8(s, 8);
            put_u32(s, *from);
            put_u64(s, *seq);
        }
        Message::Pong { from, seq } => {
            put_u8(s, 9);
            put_u32(s, *from);
            put_u64(s, *seq);
        }
        Message::Bundle(members) => {
            put_u8(s, 10);
            put_u32(s, members.len() as u32);
            for m in members {
                put_message(s, m);
            }
        }
    }
}

fn get_message(r: &mut Reader<'_>, dec: &mut Decoder<'_>, depth: u32) -> Result<Message> {
    if depth > MAX_DEPTH {
        return Err(err("bundle nesting exceeds the decoder depth limit"));
    }
    match r.u8()? {
        0 => {
            let query = get_query(r, dec)?;
            let index_side = get_side(r)?;
            let index_attr = r.string()?;
            let index_id = Id(r.u64()?);
            Ok(Message::IndexQuery {
                query,
                index_side,
                index_attr,
                index_id,
            })
        }
        1 => {
            let tuple = get_tuple(r, dec.catalog)?;
            let attr = r.string()?;
            let index_id = Id(r.u64()?);
            Ok(Message::AlIndexTuple {
                tuple,
                attr,
                index_id,
            })
        }
        2 => {
            let tuple = get_tuple(r, dec.catalog)?;
            let attr = r.string()?;
            let index_id = Id(r.u64()?);
            Ok(Message::VlIndexTuple {
                tuple,
                attr,
                index_id,
            })
        }
        3 => {
            let items = get_rewrittens(r, dec)?;
            let index_id = Id(r.u64()?);
            Ok(Message::Join { items, index_id })
        }
        4 => {
            let group = r.string()?;
            let items = get_rewrittens(r, dec)?;
            let tuple = get_tuple(r, dec.catalog)?;
            let side = get_side(r)?;
            let value_key = r.string()?;
            let index_id = Id(r.u64()?);
            Ok(Message::JoinV(ValueJoin {
                group,
                items,
                tuple,
                side,
                value_key,
                index_id,
            }))
        }
        5 => {
            let subscriber_id = Id(r.u64()?);
            let notifications = get_notifications(r)?;
            Ok(Message::StoreNotifications {
                subscriber_id,
                notifications,
            })
        }
        6 => Ok(Message::Notify {
            notifications: get_notifications(r)?,
        }),
        7 => Ok(Message::Replicate {
            item: Box::new(get_replica_item(r, dec)?),
        }),
        8 => {
            let from = r.u32()?;
            let seq = r.u64()?;
            Ok(Message::Ping { from, seq })
        }
        9 => {
            let from = r.u32()?;
            let seq = r.u64()?;
            Ok(Message::Pong { from, seq })
        }
        10 => {
            let n = r.count()?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(get_message(r, dec, depth + 1)?);
            }
            Ok(Message::Bundle(members))
        }
        t => Err(err(format!("invalid message tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Appends one complete frame (length prefix, version byte, body) for a
/// protocol message. Single-pass: the body is written in place and the
/// length patched afterwards.
pub fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(VERSION);
    put_message(out, msg);
    let framed = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&framed.to_le_bytes());
}

/// The exact length in bytes of [`encode_message`]'s output for this
/// message — computed by running the encoder against a counting sink, so it
/// can never disagree with the real encoding.
pub fn encoded_len(msg: &Message) -> u64 {
    let mut c = Count(0);
    put_message(&mut c, msg);
    4 + 1 + c.0
}

/// Structural check of one complete codec frame: `frame` must consist of a
/// u32 LE length prefix counting *exactly* the bytes that follow. Returns
/// the body length when the shape holds, `None` otherwise. Purely framing —
/// the version byte and payload are not inspected — so the transport's
/// buffering layer can assert frame integrity without knowing the protocol
/// (its command-stream reuse in `cq-sim` carries non-protocol bodies).
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
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(VERSION);
    ev.put_body(out);
    let framed = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&framed.to_le_bytes());
}

/// The exact length in bytes of [`encode_trace_event`]'s output.
pub fn trace_encoded_len(ev: &TraceEvent) -> u64 {
    let mut c = Count(0);
    ev.put_body(&mut c);
    4 + 1 + c.0
}

/// Splits one frame off the head of `buf`: validates the length prefix and
/// version byte and returns `(payload, total_bytes_consumed)`.
fn read_frame(buf: &[u8]) -> Result<(&[u8], usize)> {
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
    Ok((&buf[5..total], total))
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
    let mut dec = Decoder { catalog, queries };
    let (payload, total) = read_frame(buf)?;
    let mut r = Reader::new(payload);
    let msg = get_message(&mut r, &mut dec, 0)?;
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} garbage bytes after the message payload",
            r.remaining()
        )));
    }
    Ok((msg, total))
}

/// Decodes one trace-event frame from the head of `buf`, returning the
/// event and the number of bytes consumed.
pub fn decode_trace_event(buf: &[u8]) -> Result<(TraceEvent, usize)> {
    let (payload, total) = read_frame(buf)?;
    let mut r = Reader::new(payload);
    let ev = TraceEvent::get_body(&mut r)?;
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} garbage bytes after the trace-event payload",
            r.remaining()
        )));
    }
    Ok((ev, total))
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Message::JoinV(ValueJoin {
                group: q.group_key(),
                items: vec![rq.clone()],
                tuple: Arc::clone(&t),
                side: Side::Left,
                value_key: "i:7".into(),
                index_id: Id(15),
            }),
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
            assert_eq!(buf.len() as u64, trace_encoded_len(ev));
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
