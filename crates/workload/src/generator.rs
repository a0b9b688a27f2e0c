//! Schema, tuple and query generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cq_relational::{Catalog, DataType, RelationSchema, Value};

use crate::zipf::Zipf;

/// Parameters of a synthetic workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of relations in the schema (`R0`, `R1`, ...).
    pub relations: usize,
    /// Attributes per relation (`A0`, `A1`, ...), all integers.
    pub attrs_per_relation: usize,
    /// Attribute value domain: values are drawn from `0..domain`.
    pub domain: i64,
    /// Zipf skew of attribute values; `0.0` = uniform. The paper "assumes a
    /// highly skewed distribution for all attributes".
    pub zipf_theta: f64,
    /// Probability that a generated query carries an extra
    /// `attr = const` filter.
    pub filter_probability: f64,
    /// *bos* ratio: the share of tuple insertions that go to relation `R0`
    /// when streaming over the pair `(R0, R1)` — `0.5` means balanced rates,
    /// `0.9` means `R0` receives 9× the tuples of `R1` (see DESIGN.md,
    /// "Substitutions").
    pub bos_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            relations: 2,
            attrs_per_relation: 4,
            domain: 100,
            zipf_theta: 0.9,
            filter_probability: 0.0,
            bos_ratio: 0.5,
            seed: 42,
        }
    }
}

/// A seeded workload generator bound to its synthetic catalog.
#[derive(Clone, Debug)]
pub struct Workload {
    cfg: WorkloadConfig,
    catalog: Catalog,
    zipf: Zipf,
    rng: StdRng,
}

impl Workload {
    /// Builds the generator and its catalog.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (fewer than two relations,
    /// no attributes, empty domain, or ratios outside `[0, 1]`).
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(cfg.relations >= 2, "need at least two relations to join");
        assert!(cfg.attrs_per_relation >= 1, "relations need attributes");
        assert!(cfg.domain >= 1, "domain must be non-empty");
        assert!(
            (0.0..=1.0).contains(&cfg.filter_probability),
            "filter probability in [0,1]"
        );
        assert!((0.0..=1.0).contains(&cfg.bos_ratio), "bos ratio in [0,1]");
        let mut catalog = Catalog::new();
        for r in 0..cfg.relations {
            let attrs: Vec<(String, DataType)> = (0..cfg.attrs_per_relation)
                .map(|a| (format!("A{a}"), DataType::Int))
                .collect();
            let attrs_ref: Vec<(&str, DataType)> =
                attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            catalog
                .register(RelationSchema::of(format!("R{r}"), &attrs_ref).expect("distinct"))
                .expect("distinct relation names");
        }
        let zipf = Zipf::new(cfg.domain as usize, cfg.zipf_theta);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Workload {
            cfg,
            catalog,
            zipf,
            rng,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// The synthetic catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Draws one attribute value from the configured distribution.
    pub fn random_value(&mut self) -> Value {
        Value::Int(self.zipf.sample(&mut self.rng) as i64)
    }

    /// A full tuple for relation `rel` (values drawn independently).
    pub fn random_tuple_values(&mut self) -> Vec<Value> {
        (0..self.cfg.attrs_per_relation)
            .map(|_| self.random_value())
            .collect()
    }

    /// Which relation the next streamed tuple belongs to, honouring the
    /// *bos* ratio over the pair `(R0, R1)`.
    pub fn next_stream_relation(&mut self) -> String {
        if self.rng.gen::<f64>() < self.cfg.bos_ratio {
            "R0".to_string()
        } else {
            "R1".to_string()
        }
    }

    /// A random type-T1 equi-join query over two distinct relations,
    /// rendered in the supported SQL subset.
    pub fn random_query_sql(&mut self) -> String {
        let r1 = self.rng.gen_range(0..self.cfg.relations);
        let mut r2 = self.rng.gen_range(0..self.cfg.relations);
        while r2 == r1 {
            r2 = self.rng.gen_range(0..self.cfg.relations);
        }
        self.query_between(r1, r2)
    }

    /// A random T1 query over a *specific* relation pair — the form the
    /// focused experiments use so all queries hit the `(R0, R1)` stream.
    pub fn query_between(&mut self, r1: usize, r2: usize) -> String {
        let a = self.cfg.attrs_per_relation;
        let ja1 = self.rng.gen_range(0..a);
        let ja2 = self.rng.gen_range(0..a);
        let s1 = self.rng.gen_range(0..a);
        let s2 = self.rng.gen_range(0..a);
        let mut sql = format!(
            "SELECT R{r1}.A{s1}, R{r2}.A{s2} FROM R{r1}, R{r2} WHERE R{r1}.A{ja1} = R{r2}.A{ja2}"
        );
        if self.rng.gen::<f64>() < self.cfg.filter_probability {
            let fa = self.rng.gen_range(0..a);
            let fv = self.zipf.sample(&mut self.rng);
            sql.push_str(&format!(" AND R{r2}.A{fa} = {fv}"));
        }
        sql
    }

    /// A random type-T2 query (compound arithmetic join condition) between
    /// two relations — only DAI-V can evaluate these.
    pub fn random_t2_query_sql(&mut self) -> String {
        let r1 = 0;
        let r2 = 1;
        let a = self.cfg.attrs_per_relation;
        let (x1, y1) = (self.rng.gen_range(0..a), self.rng.gen_range(0..a));
        let (x2, y2) = (self.rng.gen_range(0..a), self.rng.gen_range(0..a));
        let (c1, c2) = (self.rng.gen_range(1..5), self.rng.gen_range(1..5));
        let k = self.rng.gen_range(0..10);
        format!(
            "SELECT R{r1}.A0, R{r2}.A0 FROM R{r1}, R{r2} \
             WHERE {c1}*R{r1}.A{x1} + R{r1}.A{y1} + {k} = {c2}*R{r2}.A{x2} + R{r2}.A{y2} + {k}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::parse_query;

    #[test]
    fn catalog_has_requested_shape() {
        let w = Workload::new(WorkloadConfig {
            relations: 3,
            attrs_per_relation: 5,
            ..Default::default()
        });
        assert_eq!(w.catalog().len(), 3);
        assert_eq!(w.catalog().get("R2").unwrap().arity(), 5);
    }

    #[test]
    fn generated_queries_parse() {
        let mut w = Workload::new(WorkloadConfig {
            relations: 4,
            ..Default::default()
        });
        for _ in 0..100 {
            let sql = w.random_query_sql();
            parse_query(&sql, w.catalog()).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn generated_t2_queries_parse_as_t2() {
        let mut w = Workload::new(WorkloadConfig::default());
        for _ in 0..50 {
            let sql = w.random_t2_query_sql();
            let p = parse_query(&sql, w.catalog()).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let q = p
                .into_query(
                    cq_relational::QueryKey::derive("n", 0),
                    "n",
                    cq_relational::Timestamp(0),
                    w.catalog(),
                )
                .unwrap();
            assert_eq!(q.query_type(), cq_relational::QueryType::T2, "{sql}");
        }
    }

    #[test]
    fn filters_appear_with_probability_one() {
        let mut w = Workload::new(WorkloadConfig {
            filter_probability: 1.0,
            ..Default::default()
        });
        let sql = w.random_query_sql();
        assert!(sql.contains(" AND "), "{sql}");
    }

    #[test]
    fn bos_ratio_biases_the_stream() {
        let mut w = Workload::new(WorkloadConfig {
            bos_ratio: 0.9,
            ..Default::default()
        });
        let mut r0 = 0;
        for _ in 0..2000 {
            if w.next_stream_relation() == "R0" {
                r0 += 1;
            }
        }
        assert!(r0 > 1600, "R0 share {r0}/2000 should be ~1800");
    }

    #[test]
    fn values_respect_domain() {
        let mut w = Workload::new(WorkloadConfig {
            domain: 10,
            ..Default::default()
        });
        for _ in 0..500 {
            match w.random_value() {
                Value::Int(v) => assert!((0..10).contains(&v)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let mk = || {
            let mut w = Workload::new(WorkloadConfig {
                seed: 77,
                ..Default::default()
            });
            (0..10).map(|_| w.random_query_sql()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
