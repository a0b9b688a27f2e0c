//! Protocol messages exchanged between network nodes (Chapter 4).
//!
//! The [`Message`] table below is the whole message schema: one row per
//! kind, giving its tag, variant, label and fields. The enum, its kind
//! labels and routing identifier, and its wire codec are generated from it
//! (see [`crate::wire`]).

use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{Notification, QueryRef, RewrittenQuery, Side, Tuple};

use crate::replication::ReplicaItem;
use crate::tables::keys::ValueKey;
use crate::wire::{wire_enum, wire_struct, Field};

wire_enum! {
    /// A protocol message, addressed to the node responsible for an identifier.
    #[derive(Clone, Debug)]
    pub enum Message {
        /// `query(q, Id(n), IP(n))` — index a query at the attribute level
        /// (Section 4.3.1 / 4.4.1). The receiving node becomes one of the
        /// query's rewriters.
        0, IndexQuery, "query", {
            /// The query.
            query: QueryRef,
            /// Which join-condition side this rewriter represents.
            index_side: Side,
            /// `IndexA(q)` for this rewriter.
            index_attr: String,
            /// The attribute-level identifier the message targets (a replica
            /// identifier when the Section 4.7 replication scheme is active).
            [route] index_id: Id,
        }
        /// `al-index(t, A_i)` — a tuple arrives at the attribute level
        /// (Section 4.2); it triggers stored queries and is *not* stored.
        1, AlIndexTuple, "al-index", {
            /// The tuple.
            tuple: Arc<Tuple>,
            /// `IndexA(t)` — the attribute that routed the tuple here.
            attr: String,
            /// The attribute-level identifier targeted.
            [route] index_id: Id,
        }
        /// `vl-index(t, A_i)` — a tuple arrives at the value level
        /// (Section 4.2). Not used by DAI-V.
        2, VlIndexTuple, "vl-index", {
            /// The tuple.
            tuple: Arc<Tuple>,
            /// `IndexA(t)`.
            attr: String,
            /// The value-level identifier targeted.
            [route] index_id: Id,
        }
        /// `join(q'_1, ..., q'_j)` — rewritten queries of one query group
        /// reindexed at the value level (Sections 4.3.2/4.3.3). All items share
        /// the same target identifier because they share the join condition.
        3, Join, "join", {
            /// The rewritten queries.
            items: Vec<RewrittenQuery>,
            /// The value-level identifier targeted.
            [route] index_id: Id,
        }
        /// `join(q', t')` — DAI-V's combined message (Section 4.5): rewritten
        /// queries of one group plus the triggering tuple, which the evaluator
        /// stores after matching. The payload lives in [`ValueJoin`], boxed so
        /// that every message stays within the 48-byte size budget.
        4, JoinV, "join-v", (join: Box<ValueJoin>)
        /// Notification delivery toward `Successor(Id(n))` for an offline
        /// subscriber (Section 4.6). Online subscribers are contacted directly
        /// by IP and never see this message.
        5, StoreNotifications, "store-notify", {
            /// Identifier of the subscriber's key.
            [route] subscriber_id: Id,
            /// The notifications to hold until the subscriber reconnects.
            notifications: Vec<Notification>,
        }
        /// Direct notification delivery to an *online* subscriber (one hop to a
        /// known IP, Section 4.6). Modeled as a message so the fault layer can
        /// lose, duplicate or retransmit deliveries like any other traffic.
        6, Notify, "notify", {
            /// The notifications for the subscriber.
            notifications: Vec<Notification>,
        }
        /// Mirror one primary state item onto a successor (the k-successor
        /// replication scheme of the robustness layer). Node-addressed: sent
        /// directly to a known successor, never routed by identifier.
        7, Replicate, "replicate", {
            /// The item to mirror into the receiver's replica store.
            item: Box<ReplicaItem>,
        }
        /// Heartbeat probe from the failure-detection layer (`engine::recovery`):
        /// a ring neighbor asking "are you alive?". Node-addressed and
        /// fire-and-forget — probes never open ack windows; an unanswered probe
        /// *is* the failure signal.
        8, Ping, "ping", {
            /// The probing node's slot (where the pong returns).
            from: u32,
            /// Probe sequence number (recovery-layer local).
            seq: u64,
        }
        /// Heartbeat reply: the probed node confirming liveness.
        9, Pong, "pong", {
            /// The responding node's slot.
            from: u32,
            /// Echo of the probe's sequence number.
            seq: u64,
        }
        /// Several messages of one multisend batch coalesced for a single
        /// destination — one queue entry and one frame instead of one per
        /// message. Every multisend bundles, on every path: the receiver unwraps
        /// the members in order, so dispatch order is exactly what separate
        /// enqueues would produce, and the two observers of *logical* messages
        /// (the tracer and the fault pump) read a bundle member by member through
        /// the splitter, `Message::logical`. The engine never nests bundles, and
        /// a decoder rejects a bundle inside a bundle.
        10, Bundle, "bundle", (members: Vec<Message>)
    }
}

/// Payload of [`Message::JoinV`]: one group's rewritten queries plus the
/// triggering tuple and the store key it is filed under.
#[derive(Clone, Debug)]
pub struct ValueJoin {
    /// Group key of the queries (matching is group-scoped).
    pub group: String,
    /// The rewritten queries.
    pub items: Vec<RewrittenQuery>,
    /// The triggering tuple, to be stored at the evaluator.
    pub tuple: Arc<Tuple>,
    /// Which side of the group the tuple belongs to.
    pub side: Side,
    /// Canonical form of `valJC` (the store key).
    pub value_key: ValueKey,
    /// The value-level identifier targeted (`Hash(valJC)`).
    pub index_id: Id,
}

wire_struct! {
    ValueJoin { group, items, tuple, side, value_key, [route] index_id }
}

impl Message {
    /// Whether this is a heartbeat probe (ping or pong): fire-and-forget,
    /// never acknowledged, never counted as pending protocol work.
    pub(crate) fn is_probe(&self) -> bool {
        matches!(self, Message::Ping { .. } | Message::Pong { .. })
    }

    /// The identifier an identifier-routed message is addressed to: its
    /// `[route]` field (`None` for node-addressed kinds and bundles).
    pub fn index_id(&self) -> Option<Id> {
        self.route()
    }

    /// The splitter: the logical messages an envelope payload stands for —
    /// a bundle's members, anything else itself — in dispatch order, each
    /// with the identifier it targets: the one it carries
    /// ([`Message::index_id`]; the engine addresses every identifier-routed
    /// message to it), or the envelope's `target` for node-addressed kinds.
    pub(crate) fn logical(&self, target: Id) -> impl Iterator<Item = (Id, &Message)> {
        let members = match self {
            Message::Bundle(members) => members.as_slice(),
            single => std::slice::from_ref(single),
        };
        members
            .iter()
            .map(move |m| (m.index_id().unwrap_or(target), m))
    }

    /// The payload taken apart: a bundle's members, anything else itself.
    pub(crate) fn into_members(self) -> impl Iterator<Item = Message> {
        let (single, members) = match self {
            Message::Bundle(members) => (None, members),
            single => (Some(single), Vec::new()),
        };
        single.into_iter().chain(members)
    }

    /// [`Message::logical`] by value, handed to `f` one at a time: a lone
    /// message — every heartbeat probe — is never moved through an iterator.
    pub(crate) fn for_each_logical(self, target: Id, mut f: impl FnMut(Id, Message)) {
        let mut each = |m: Message| f(m.index_id().unwrap_or(target), m);
        match self {
            Message::Bundle(members) => members.into_iter().for_each(each),
            single => each(single),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::QueryKey;

    #[test]
    fn kinds_match_the_paper_message_names() {
        let msg = Message::StoreNotifications {
            subscriber_id: Id(1),
            notifications: vec![Notification {
                query_key: QueryKey::derive("n", 0),
                subscriber: "n".into(),
                values: vec![],
            }],
        };
        assert_eq!(msg.kind(), "store-notify");
    }
}
