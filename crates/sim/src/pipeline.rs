//! Multi-way continuous joins as pipelines of two-way joins.
//!
//! The thesis lists multi-way joins as future work (Chapter 7); the authors
//! later realized them by composing two-way joins ("Continuous Multi-Way
//! Joins over Distributed Hash Tables"). This module implements that
//! composition on top of [`Network`]: a *stage* is an ordinary continuous
//! two-way join whose notifications are republished as tuples of a *derived
//! relation*, which the next stage joins against — so
//! `R ⋈ S ⋈ T = (R ⋈ S) ⋈ T` evaluates continuously, end to end, with every
//! intermediate step running the paper's distributed algorithms.
//!
//! The derived relation's schema must be registered in the catalog before
//! the network is built (its attributes correspond positionally to the
//! stage query's select list).
//!
//! ```
//! use cq_engine::{Algorithm, EngineConfig, Network};
//! use cq_relational::{Catalog, DataType, RelationSchema, Value};
//! use cq_sim::Pipeline;
//!
//! let mut catalog = Catalog::new();
//! for (name, attrs) in [
//!     ("R", [("A", DataType::Int), ("B", DataType::Int)]),
//!     ("S", [("C", DataType::Int), ("D", DataType::Int)]),
//!     ("T", [("E", DataType::Int), ("F", DataType::Int)]),
//!     ("RS", [("A", DataType::Int), ("D", DataType::Int)]), // derived
//! ] {
//!     catalog.register(RelationSchema::of(name, &attrs).unwrap()).unwrap();
//! }
//! let mut net = Network::new(EngineConfig::new(Algorithm::DaiT).with_nodes(32), catalog);
//! let driver = net.node_at(0);
//! let mut p = Pipeline::new(driver);
//! p.add_stage(&mut net, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C", "RS").unwrap();
//! p.add_final_stage(&mut net, "SELECT RS.A, T.F FROM RS, T WHERE RS.D = T.E").unwrap();
//!
//! net.insert_tuple(driver, "R", vec![Value::Int(1), Value::Int(5)]).unwrap();
//! net.insert_tuple(driver, "S", vec![Value::Int(5), Value::Int(9)]).unwrap();
//! net.insert_tuple(driver, "T", vec![Value::Int(9), Value::Int(42)]).unwrap();
//! p.pump(&mut net).unwrap();
//! assert_eq!(p.results(&net)[0].values, vec![Value::Int(1), Value::Int(42)]);
//! ```

use std::collections::HashSet;

use cq_engine::{EngineError, Network, Result};
use cq_overlay::NodeHandle;
use cq_relational::{Notification, QueryKey};

/// One stage feeding a derived relation.
#[derive(Clone, Debug)]
struct Feed {
    query: QueryKey,
    derived_relation: String,
    /// Content already republished (set semantics — duplicate notification
    /// contents must not produce duplicate derived tuples).
    seen: HashSet<Notification>,
    /// How much of the driver's inbox this feed has consumed.
    cursor: usize,
}

/// A continuous multi-way join evaluated as chained two-way stages.
#[derive(Clone, Debug)]
pub struct Pipeline {
    driver: NodeHandle,
    feeds: Vec<Feed>,
    final_queries: Vec<QueryKey>,
}

impl Pipeline {
    /// Creates a pipeline whose intermediate results flow through `driver`
    /// (the node that subscribes to every stage and republishes derived
    /// tuples).
    pub fn new(driver: NodeHandle) -> Self {
        Pipeline {
            driver,
            feeds: Vec::new(),
            final_queries: Vec::new(),
        }
    }

    /// The driver node.
    pub fn driver(&self) -> NodeHandle {
        self.driver
    }

    /// Adds an intermediate stage: `sql` is posed from the driver and its
    /// notifications are republished as tuples of `derived_relation`
    /// (which must exist in the catalog with one attribute per select item,
    /// positionally typed).
    pub fn add_stage(
        &mut self,
        net: &mut Network,
        sql: &str,
        derived_relation: &str,
    ) -> Result<QueryKey> {
        let schema = net.catalog().get(derived_relation)?.clone();
        let key = net.pose_query_sql(self.driver, sql)?;
        // Validate arity up front: pose_query_sql just succeeded, so the
        // posed-query log is non-empty and its last entry is this query.
        let query = net
            .posed_queries()
            .last()
            .expect("query was just posed")
            .clone();
        if query.select().len() != schema.arity() {
            return Err(EngineError::Relational(
                cq_relational::RelationalError::SchemaMismatch {
                    relation: derived_relation.to_string(),
                    detail: format!(
                        "stage selects {} values but the derived relation has {} attributes",
                        query.select().len(),
                        schema.arity()
                    ),
                },
            ));
        }
        self.feeds.push(Feed {
            query: key.clone(),
            derived_relation: derived_relation.to_string(),
            seen: HashSet::new(),
            cursor: 0,
        });
        Ok(key)
    }

    /// Adds the final stage: an ordinary query whose notifications are the
    /// pipeline's output (read them from the driver's inbox).
    pub fn add_final_stage(&mut self, net: &mut Network, sql: &str) -> Result<QueryKey> {
        let key = net.pose_query_sql(self.driver, sql)?;
        self.final_queries.push(key.clone());
        Ok(key)
    }

    /// Propagates pending intermediate results: republishes every new
    /// notification of every feeding stage as a derived tuple, repeating
    /// until no stage produces anything new. Returns the number of derived
    /// tuples inserted.
    ///
    /// Call after each batch of base-relation insertions (the simulator is
    /// synchronous; a deployment would run this continuously at the driver).
    pub fn pump(&mut self, net: &mut Network) -> Result<usize> {
        let mut inserted = 0usize;
        loop {
            let mut progressed = false;
            for fi in 0..self.feeds.len() {
                // Collect the new derived tuples for this feed first; the
                // insertions below may extend the inbox.
                let fresh: Vec<Notification> = {
                    let feed = &self.feeds[fi];
                    net.inbox(self.driver)
                        .iter()
                        .skip(feed.cursor)
                        .filter(|n| n.query_key == feed.query)
                        .filter(|n| !feed.seen.contains(*n))
                        .cloned()
                        .collect()
                };
                self.feeds[fi].cursor = net.inbox(self.driver).len();
                for n in fresh {
                    let rel = self.feeds[fi].derived_relation.clone();
                    net.insert_tuple(self.driver, &rel, n.values.clone())?;
                    self.feeds[fi].seen.insert(n);
                    inserted += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(inserted);
            }
        }
    }

    /// The pipeline's final results so far: distinct notification contents
    /// of the final-stage queries in the driver's inbox.
    pub fn results(&self, net: &Network) -> Vec<Notification> {
        let mut seen = HashSet::new();
        net.inbox(self.driver)
            .iter()
            .filter(|n| self.final_queries.contains(&n.query_key))
            .filter(|n| seen.insert((*n).clone()))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_engine::{Algorithm, EngineConfig};
    use cq_relational::{Catalog, DataType, RelationSchema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("T", &[("E", DataType::Int), ("F", DataType::Int)]).unwrap())
            .unwrap();
        // Derived relation: (R.A, S.D) pairs from stage one.
        c.register(
            RelationSchema::of("RS", &[("A", DataType::Int), ("D", DataType::Int)]).unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn three_way_join_via_pipeline() {
        let mut net = Network::new(EngineConfig::new(Algorithm::DaiT).with_nodes(48), catalog());
        let driver = net.node_at(0);
        let mut p = Pipeline::new(driver);
        // Stage 1: R ⋈ S on B = C, emitting (A, D) into RS.
        p.add_stage(&mut net, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C", "RS")
            .unwrap();
        // Stage 2: RS ⋈ T on D = E, emitting (A, F).
        p.add_final_stage(&mut net, "SELECT RS.A, T.F FROM RS, T WHERE RS.D = T.E")
            .unwrap();

        // R(1, 5) ⋈ S(5, 9) → RS(1, 9); RS(1, 9) ⋈ T(9, 42) → (1, 42).
        net.insert_tuple(driver, "R", vec![Value::Int(1), Value::Int(5)])
            .unwrap();
        net.insert_tuple(driver, "S", vec![Value::Int(5), Value::Int(9)])
            .unwrap();
        net.insert_tuple(driver, "T", vec![Value::Int(9), Value::Int(42)])
            .unwrap();
        let derived = p.pump(&mut net).unwrap();
        assert_eq!(derived, 1, "one RS tuple republished");

        let results = p.results(&net);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Value::Int(1), Value::Int(42)]);
    }

    #[test]
    fn pipeline_matches_brute_force_three_way_join() {
        let mut net = Network::new(EngineConfig::new(Algorithm::Sai).with_nodes(48), catalog());
        let driver = net.node_at(0);
        let mut p = Pipeline::new(driver);
        p.add_stage(&mut net, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C", "RS")
            .unwrap();
        p.add_final_stage(&mut net, "SELECT RS.A, T.F FROM RS, T WHERE RS.D = T.E")
            .unwrap();

        let mut rs_data = Vec::new();
        let mut s_data = Vec::new();
        let mut t_data = Vec::new();
        let mut x = 7u64;
        let mut rnd = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as i64
        };
        for _ in 0..25 {
            let (a, b) = (rnd(10), rnd(4));
            net.insert_tuple(driver, "R", vec![Value::Int(a), Value::Int(b)])
                .unwrap();
            rs_data.push((a, b));
            let (c, d) = (rnd(4), rnd(5));
            net.insert_tuple(driver, "S", vec![Value::Int(c), Value::Int(d)])
                .unwrap();
            s_data.push((c, d));
            let (e, f) = (rnd(5), rnd(10));
            net.insert_tuple(driver, "T", vec![Value::Int(e), Value::Int(f)])
                .unwrap();
            t_data.push((e, f));
            p.pump(&mut net).unwrap();
        }
        p.pump(&mut net).unwrap();

        // Brute-force three-way join with the pipeline's time semantics:
        // every base tuple was inserted after all queries, so every
        // combination is eligible.
        let mut expected = HashSet::new();
        for &(a, b) in &rs_data {
            for &(c, d) in &s_data {
                if b != c {
                    continue;
                }
                for &(e, f) in &t_data {
                    if d == e {
                        expected.insert(vec![Value::Int(a), Value::Int(f)]);
                    }
                }
            }
        }
        let got: HashSet<Vec<Value>> = p.results(&net).into_iter().map(|n| n.values).collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "workload should produce three-way matches");
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut net = Network::new(EngineConfig::new(Algorithm::DaiT).with_nodes(32), catalog());
        let driver = net.node_at(0);
        let mut p = Pipeline::new(driver);
        let err = p
            .add_stage(&mut net, "SELECT R.A FROM R, S WHERE R.B = S.C", "RS")
            .unwrap_err();
        assert!(matches!(err, EngineError::Relational(_)));
    }
}
