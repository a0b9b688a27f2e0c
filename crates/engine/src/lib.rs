//! # cq-engine — continuous two-way equi-join evaluation over a DHT
//!
//! The paper's primary contribution (Chapter 4): four distributed algorithms
//! that evaluate continuous two-way equi-join SQL queries on top of a Chord
//! overlay, built on a **two-level indexing** scheme:
//!
//! 1. **Attribute level** — queries and tuples are indexed under
//!    `Hash(relation + attribute)`. The nodes receiving queries become
//!    *rewriters*.
//! 2. **Value level** — as tuples arrive, rewriters substitute their values
//!    into the join condition, *rewriting* each triggered join query into a
//!    simple select-project query, and reindex it under
//!    `Hash(relation + attribute + value)` (or `Hash(value)` for DAI-V).
//!    The nodes receiving rewritten queries become *evaluators* and create
//!    notifications.
//!
//! The four algorithms differ in who stores what and when notifications are
//! created:
//!
//! | | rewriters | evaluators store | notify on |
//! |---|---|---|---|
//! | SAI   | one per query  | rewritten queries + tuples | both arrivals |
//! | DAI-Q | two per query  | tuples                     | rewritten-query arrival |
//! | DAI-T | two per query  | rewritten queries          | tuple arrival |
//! | DAI-V | two per query  | tuples (by condition value)| rewritten-query arrival |
//!
//! ```
//! use cq_engine::{Algorithm, EngineConfig, Network};
//! use cq_relational::{Catalog, DataType, RelationSchema, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap()).unwrap();
//! catalog.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap()).unwrap();
//!
//! let mut net = Network::new(EngineConfig::new(Algorithm::DaiT).with_nodes(32), catalog);
//! let poser = net.node_at(0);
//! net.pose_query_sql(poser, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C").unwrap();
//! net.insert_tuple(net.node_at(1), "R", vec![Value::Int(1), Value::Int(7)]).unwrap();
//! net.insert_tuple(net.node_at(2), "S", vec![Value::Int(7), Value::Int(9)]).unwrap();
//! assert_eq!(net.inbox(poser).len(), 1); // R(1,7) ⋈ S(7,9)
//! ```

#![warn(missing_docs)]

pub mod algo;
mod churn;
mod config;
mod error;
mod faults;
pub mod frames;
pub mod indexing;
mod jfrt;
mod messages;
mod metrics;
mod network;
mod node;
mod oracle;
mod protocol;
mod recovery;
mod replication;
pub mod tables;
mod trace;
mod transport;
mod transport_tcp;
pub mod wire;

pub use config::{Algorithm, EngineConfig, IndexStrategy};
pub use error::{EngineError, Result};
pub use faults::{ChurnModel, FaultConfig, SessionDist};
pub use messages::{Message, ValueJoin};
pub use metrics::{FaultCounters, Metrics, NodeLoad, RecoveryCounters, TrafficKind};
pub use network::Network;
pub use node::NodeState;
pub use oracle::Oracle;
pub use protocol::{Matches, QueryCounts};
pub use recovery::SuspicionConfig;
pub use replication::{ReplicaItem, ReplicaStore};
pub use transport_tcp::{SocketStats, TcpOptions};

pub use trace::{RingBufferSink, TraceEvent, TraceSink};
