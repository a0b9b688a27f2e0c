//! # cq-overlay — Chord DHT simulator
//!
//! The structured-overlay substrate of the continuous equi-join system
//! (the paper's Chapter 2): an in-process, deterministic Chord ring with
//!
//! * consistent hashing of string keys onto an `m`-bit identifier circle,
//! * per-node successor lists, predecessor pointers and finger tables,
//! * greedy `O(log N)` routing that walks real finger tables hop by hop,
//! * joins, voluntary leaves, abrupt failures, and the three periodic
//!   stabilization algorithms (`stabilize`, `fix_fingers`,
//!   `check_predecessor`),
//! * the paper's API extensions: `send(msg, I)` (= [`Ring::route`]) and
//!   `multisend(msg, L)` in both the recursive and the iterative design.
//!
//! All state lives inside [`Ring`]; nodes are addressed by stable
//! [`NodeHandle`]s so that a departed node can later rejoin with the same
//! identifier (needed for offline notification delivery, Section 4.6).
//!
//! ```
//! use cq_overlay::{IdSpace, Ring, hash_parts};
//!
//! // A stable 100-node network, as the experiments assume.
//! let ring = Ring::build(IdSpace::new(32), 100, "node-");
//!
//! // Index something under Hash(R + B + "7"), the paper's VIndex scheme.
//! let id = hash_parts(ring.space(), &["R", "B", "7"]);
//! let from = ring.alive_nodes().next().unwrap();
//! let route = ring.route(from, id).unwrap();
//! assert_eq!(route.owner, ring.owner_of(id).unwrap());
//! assert!(route.hops() <= 14); // O(log N)
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod id;
pub mod multisend;
pub mod node;
pub mod ring;
pub mod stats;

pub use error::{OverlayError, Result};
pub use hash::{fnv1a, hash_key, hash_parts, KeyHasher};
pub use id::{Id, IdSpace, MAX_BITS};
pub use multisend::{Multisend, MultisendOutcome};
pub use node::{Node, NodeHandle};
pub use ring::{Ring, Route, DEFAULT_SUCCESSOR_LIST_LEN};
pub use stats::TrafficStats;
