//! T1 — Table 4.1 "A comparison of all algorithms", regenerated from
//! measurements instead of prose.
//!
//! For each algorithm, one identical workload produces: messages per query
//! indexing, reindex messages per streamed tuple, what evaluators store
//! (rewritten queries vs tuples), and the notification count — the exact
//! contrasts the paper's table draws qualitatively.

use cq_engine::{Algorithm, TrafficKind};

use super::Scale;
use crate::harness::RunConfig;
use crate::parallel::run_many;
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let tuples = scale.pick(300, 800);
    let mut report = Report::new(
        "T1",
        &format!("Table 4.1: per-operation comparison (N={nodes}, Q={queries}, T={tuples})"),
        &[
            "algorithm",
            "index msgs/query",
            "tuple-index msgs/tuple",
            "reindex msgs/tuple",
            "stored rewritten",
            "stored tuples",
            "notifications",
        ],
    );
    let cfgs: Vec<RunConfig> = Algorithm::ALL
        .into_iter()
        .map(|alg| RunConfig {
            tuples,
            measure_stream_only: false,
            ..scale.config(alg)
        })
        .collect();
    for (alg, r) in Algorithm::ALL.into_iter().zip(run_many(&cfgs)) {
        let qi = r.traffic_of(TrafficKind::QueryIndex).messages as f64 / queries as f64;
        let ti = r.traffic_of(TrafficKind::TupleIndex).messages as f64 / tuples as f64;
        let ri = r.traffic_of(TrafficKind::Reindex).messages as f64 / tuples as f64;
        report.row(vec![
            alg.name().to_string(),
            fnum(qi),
            fnum(ti),
            fnum(ri),
            r.stored_rewritten.to_string(),
            r.stored_tuples.to_string(),
            r.notifications.to_string(),
        ]);
    }
    report.note("SAI: 1 rewriter/query, evaluators store both kinds");
    report.note("DAI-Q: 2 rewriters/query, evaluators store tuples only");
    report.note("DAI-T: 2 rewriters/query, evaluators store rewritten queries only; reindex once per distinct rewriting");
    report.note("DAI-V: 2 rewriters/query, h (not 2h) tuple-index msgs, evaluators keyed by condition value");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column `col`, by algorithm name.
    fn by_alg(r: &Report, col: usize) -> std::collections::HashMap<String, f64> {
        (0..r.len())
            .map(|i| (r.cell(i, 0), r.cell(i, col)))
            .collect()
    }

    #[test]
    fn dai_indexes_queries_twice() {
        let r = run(Scale::Quick);
        let per_alg = by_alg(&r, 1);
        assert!(
            (per_alg["SAI"] - 1.0).abs() < 1e-9,
            "SAI: one rewriter per query"
        );
        for alg in ["DAI-Q", "DAI-T", "DAI-V"] {
            assert!(
                (per_alg[alg] - 2.0).abs() < 1e-9,
                "{alg}: two rewriters per query"
            );
        }
    }

    #[test]
    fn dai_v_sends_half_the_tuple_index_messages() {
        let r = run(Scale::Quick);
        let per_alg = by_alg(&r, 2);
        // T1 algorithms index each tuple at 2h identifiers, DAI-V at h.
        assert!(
            (per_alg["SAI"] / per_alg["DAI-V"] - 2.0).abs() < 0.01,
            "SAI {} vs DAI-V {}",
            per_alg["SAI"],
            per_alg["DAI-V"]
        );
    }
}
