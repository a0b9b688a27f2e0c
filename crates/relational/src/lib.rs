//! # cq-relational — data model and query language
//!
//! The relational substrate of the continuous equi-join system (the paper's
//! Chapter 3 plus the rewriting machinery of Chapter 4):
//!
//! * schemas, catalogs, typed tuples with publication times,
//! * the expression language of join conditions (arithmetic + string),
//! * continuous two-way equi-join queries with T1/T2 classification,
//! * an SQL parser for the supported subset,
//! * query rewriting (generalized projection) producing the select-project
//!   queries that are reindexed at the value level, and the notifications
//!   they emit.
//!
//! ```
//! use cq_relational::{parse_query, Catalog, DataType, QueryKey, RelationSchema, Timestamp};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(RelationSchema::of("Document", &[
//!     ("Id", DataType::Int), ("Title", DataType::Str),
//!     ("Conference", DataType::Str), ("AuthorId", DataType::Int),
//! ]).unwrap()).unwrap();
//! catalog.register(RelationSchema::of("Authors", &[
//!     ("Id", DataType::Int), ("Name", DataType::Str), ("Surname", DataType::Str),
//! ]).unwrap()).unwrap();
//!
//! // The paper's e-learning example query (Section 3.2).
//! let parsed = parse_query(
//!     "SELECT D.Title, D.Conference FROM Document AS D, Authors AS A \
//!      WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'",
//!     &catalog,
//! ).unwrap();
//! let query = parsed.into_query(QueryKey::derive("node-1", 0), "node-1",
//!                               Timestamp(0), &catalog).unwrap();
//! assert_eq!(query.relation(cq_relational::Side::Left), "Document");
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod expr;
pub mod parser;
pub mod query;
pub mod rewrite;
pub mod schema;
pub mod tuple;
pub mod value;

pub use error::{RelationalError, Result};
pub use expr::{BinOp, Expr};
pub use parser::{parse_query, ParsedQuery};
pub use query::{Filter, JoinQuery, QueryKey, QueryRef, QuerySpec, QueryType, SelectItem, Side};
pub use rewrite::{
    subscriber_hash, BoundValues, MatchTarget, Notification, RewriteBody, RewriteIdentity,
    Rewriting, RewrittenQuery, RewrittenRef, TargetRef,
};
pub use schema::{Attribute, Catalog, RelationSchema};
pub use tuple::Tuple;
pub use value::{DataType, Timestamp, Value, ValueRef};
