//! The benchmark-local trace sink and the span analysis built on it.
//!
//! Spans are recorded from outside the program: the driver loop marks the
//! start and end of every op, and the engine's `TraceSink` hook reports
//! each message send and delivery. One op is one root span (the
//! `insert_tuple` / `pose_query_sql` call). Its children are the handler
//! intervals `[deliver_k, deliver_k+1)`; the root's self time is what no
//! handler covers, i.e. the publish step before the first delivery. Each
//! handler is *caused by* the handler in which its message was sent, which
//! gives the causal chain length of an op.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use cq_engine::{Message, TraceEvent, TraceSink};

/// What a timed record marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// The driver is about to run insert number `a` of the op list.
    InsertStart,
    /// The driver is about to run pose number `a` of the op list.
    PoseStart,
    OpEnd,
    /// `MsgSend` of message kind `a` (index into `Message::KINDS`).
    Send,
    /// `MsgDeliver` of message kind `a`.
    Deliver,
}

/// One timed record: `(Instant, kind, MsgId)` plus a payload word.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    pub t_ns: u64,
    pub id: (u32, u64),
    pub a: u32,
    pub mark: Mark,
}

/// Boundary counts taken at the sink (no timestamp needed).
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkCounts {
    pub events: u64,
    pub join_evals: u64,
    pub candidates: u64,
    pub matches: u64,
    pub notifications: u64,
}

struct Inner {
    recs: Vec<Rec>,
    counts: SinkCounts,
}

/// In-memory sink: timed records for op marks, sends and deliveries;
/// counters for everything else. Nothing is written out during a round.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

fn kind_index(kind: &str) -> u32 {
    Message::KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(Message::KINDS.len()) as u32
}

impl Recorder {
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                recs: Vec::with_capacity(cap),
                counts: SinkCounts::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("single driver thread never poisons the sink")
    }

    fn rec(&self, mark: Mark, id: (u32, u64), a: u32) -> Rec {
        Rec {
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            id,
            a,
            mark,
        }
    }

    pub fn op_start(&self, op: usize, is_insert: bool) {
        let mark = if is_insert {
            Mark::InsertStart
        } else {
            Mark::PoseStart
        };
        let rec = self.rec(mark, (0, 0), op as u32);
        self.lock().recs.push(rec);
    }

    pub fn op_end(&self) {
        let rec = self.rec(Mark::OpEnd, (0, 0), 0);
        self.lock().recs.push(rec);
    }

    /// Takes the recorded events out (after the round).
    pub fn take(&self) -> (Vec<Rec>, SinkCounts) {
        let mut inner = self.lock();
        (std::mem::take(&mut inner.recs), inner.counts)
    }
}

impl TraceSink for Recorder {
    fn record(&self, ev: &TraceEvent) {
        let mut inner = self.lock();
        inner.counts.events += 1;
        match ev {
            TraceEvent::MsgSend { id, kind, .. } => {
                let rec = self.rec(Mark::Send, *id, kind_index(kind));
                inner.recs.push(rec);
            }
            TraceEvent::MsgDeliver { id, kind, .. } => {
                let rec = self.rec(Mark::Deliver, *id, kind_index(kind));
                inner.recs.push(rec);
            }
            TraceEvent::JoinEval {
                candidates,
                matches,
                ..
            } => {
                inner.counts.join_evals += 1;
                inner.counts.candidates += candidates;
                inner.counts.matches += matches;
            }
            TraceEvent::NotifyDelivered { count, .. } => inner.counts.notifications += count,
            _ => {}
        }
    }
}

/// Which layer a handler interval is charged to, by message kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The op's own self time: the publish (or pose) step.
    Publish = 0,
    /// `al-index` handlers: attribute-level rewriters.
    Rewriter = 1,
    /// `vl-index`, `join`, `join-v` handlers: value-level evaluators.
    Evaluator = 2,
    /// `notify`, `store-notify` handlers.
    Notify = 3,
    /// `query`, `replicate`, `ping`, `pong`: storage and recovery traffic.
    Other = 4,
}

pub const ROLES: usize = 5;

fn role_of(kind: u32) -> Role {
    match Message::KINDS.get(kind as usize).copied() {
        Some("al-index") => Role::Rewriter,
        Some("vl-index" | "join" | "join-v") => Role::Evaluator,
        Some("notify" | "store-notify") => Role::Notify,
        _ => Role::Other,
    }
}

/// The spans of one op, reduced to what the report needs.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSpans {
    pub op: usize,
    pub is_insert: bool,
    pub wall_ns: u64,
    /// Self time per [`Role`]; sums to `wall_ns`.
    pub self_ns: [u64; ROLES],
    /// Handler intervals (children of the root span).
    pub handlers: u32,
    /// Longest causal chain of handlers (0 when nothing was delivered).
    pub depth: u32,
}

/// Everything the span pass extracts from one traced round.
#[derive(Debug, Default)]
pub struct Analysis {
    pub ops: Vec<OpSpans>,
    /// `MsgSend` → `MsgDeliver` latency of every message matched by id.
    pub send_to_deliver_ns: Vec<u64>,
    /// Deliveries whose send was never seen (tolerated, counted).
    pub orphan_delivers: u64,
}

/// Builds the span tree of every op from the flat record list.
pub fn analyze(recs: &[Rec]) -> Analysis {
    let mut out = Analysis::default();
    // send time and causing handler of every message still in flight; kept
    // across ops because the fault pump can deliver in a later op
    let mut in_flight: HashMap<(u32, u64), (u64, u64)> = HashMap::new();
    let mut i = 0;
    while i < recs.len() {
        if !matches!(recs[i].mark, Mark::InsertStart | Mark::PoseStart) {
            i += 1;
            continue;
        }
        let start = recs[i];
        let mut spans = OpSpans {
            op: start.a as usize,
            is_insert: start.mark == Mark::InsertStart,
            wall_ns: 0,
            self_ns: [0; ROLES],
            handlers: 0,
            depth: 0,
        };
        // the handler currently running: (role, began at, serial)
        let op_serial = (start.a as u64 + 1) << 32;
        let mut current = (Role::Publish, start.t_ns, op_serial);
        let mut depth_of: HashMap<u64, u32> = HashMap::new();
        depth_of.insert(op_serial, 0);
        i += 1;
        while i < recs.len() {
            let r = recs[i];
            i += 1;
            match r.mark {
                Mark::Send => {
                    in_flight.insert(r.id, (r.t_ns, current.2));
                }
                Mark::Deliver => {
                    spans.self_ns[current.0 as usize] += r.t_ns - current.1;
                    spans.handlers += 1;
                    let serial = op_serial + spans.handlers as u64;
                    let parent_depth = match in_flight.remove(&r.id) {
                        Some((sent_at, cause)) => {
                            out.send_to_deliver_ns.push(r.t_ns - sent_at);
                            // a cause from an earlier op counts as the root
                            depth_of.get(&cause).copied().unwrap_or(0)
                        }
                        None => {
                            out.orphan_delivers += 1;
                            0
                        }
                    };
                    let depth = parent_depth + 1;
                    depth_of.insert(serial, depth);
                    spans.depth = spans.depth.max(depth);
                    current = (role_of(r.a), r.t_ns, serial);
                }
                Mark::OpEnd => {
                    spans.self_ns[current.0 as usize] += r.t_ns - current.1;
                    spans.wall_ns = r.t_ns - start.t_ns;
                    break;
                }
                Mark::InsertStart | Mark::PoseStart => {
                    unreachable!("ops never nest: the driver is a closed loop")
                }
            }
        }
        out.ops.push(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, mark: Mark, id: (u32, u64), a: u32) -> Rec {
        Rec { t_ns, id, a, mark }
    }

    fn kind(name: &str) -> u32 {
        kind_index(name)
    }

    #[test]
    fn children_subtract_from_the_root_and_chain_by_cause() {
        // op 3: publish 0..10 sends m1; al-index 10..25 sends m2 and m3;
        // join 25..40; an orphan notify 40..45; op ends at 50.
        let recs = [
            rec(0, Mark::InsertStart, (0, 0), 3),
            rec(4, Mark::Send, (1, 1), kind("al-index")),
            rec(10, Mark::Deliver, (1, 1), kind("al-index")),
            rec(12, Mark::Send, (2, 1), kind("join")),
            rec(13, Mark::Send, (2, 2), kind("join")),
            rec(25, Mark::Deliver, (2, 1), kind("join")),
            rec(40, Mark::Deliver, (9, 9), kind("notify")),
            rec(45, Mark::Deliver, (2, 2), kind("join")),
            rec(50, Mark::OpEnd, (0, 0), 0),
        ];
        let a = analyze(&recs);
        assert_eq!(a.ops.len(), 1);
        let op = &a.ops[0];
        assert_eq!(
            (op.op, op.is_insert, op.wall_ns, op.handlers),
            (3, true, 50, 4)
        );
        assert_eq!(op.self_ns[Role::Publish as usize], 10);
        assert_eq!(op.self_ns[Role::Rewriter as usize], 15);
        assert_eq!(op.self_ns[Role::Evaluator as usize], 15 + 5);
        assert_eq!(op.self_ns[Role::Notify as usize], 5);
        assert_eq!(op.self_ns.iter().sum::<u64>(), op.wall_ns);
        // publish → al-index → join is the longest chain
        assert_eq!(op.depth, 2);
        assert_eq!(a.orphan_delivers, 1);
        let mut lat = a.send_to_deliver_ns.clone();
        lat.sort_unstable();
        assert_eq!(lat, vec![6, 13, 32]);
    }

    #[test]
    fn an_op_without_deliveries_is_all_publish() {
        let recs = [
            rec(100, Mark::PoseStart, (0, 0), 0),
            rec(130, Mark::OpEnd, (0, 0), 0),
        ];
        let a = analyze(&recs);
        assert_eq!(a.ops[0].self_ns[Role::Publish as usize], 30);
        assert_eq!(
            (a.ops[0].depth, a.ops[0].handlers, a.ops[0].is_insert),
            (0, 0, false)
        );
    }

    #[test]
    fn a_delivery_sent_in_an_earlier_op_hangs_off_the_root() {
        let recs = [
            rec(0, Mark::InsertStart, (0, 0), 0),
            rec(1, Mark::Send, (5, 5), kind("replicate")),
            rec(2, Mark::OpEnd, (0, 0), 0),
            rec(10, Mark::InsertStart, (0, 0), 1),
            rec(14, Mark::Deliver, (5, 5), kind("replicate")),
            rec(20, Mark::OpEnd, (0, 0), 0),
        ];
        let a = analyze(&recs);
        assert_eq!(a.ops[1].depth, 1);
        assert_eq!(a.ops[1].self_ns[Role::Other as usize], 6);
        assert_eq!(a.send_to_deliver_ns, vec![13]);
        assert_eq!(a.orphan_delivers, 0);
    }
}
