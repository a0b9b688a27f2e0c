//! `--compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both values, the ratio with its base, the bound from `BENCHMARK.json`
//! and a verdict. `--spread-of` turns several runs of one commit into the
//! spread file the verdict consults.
//!
//! A run file is what `--out` writes: a map from workload name to the object
//! the driver reads (`correct`, `attempted`, `failed`, `metrics`).

use crate::json::Json;
use crate::stats::quartile_spread;

/// Where `--compare` looks for the recorded spread.
const SPREAD_FILE: &str = "cqbench/baseline/spread.json";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A `(workload, metric)` pairing.
type Pairing = (String, String);

/// `pairing → value` of one run file, in file order.
fn values(run: &Json, path: &str) -> Result<Vec<(Pairing, f64)>, String> {
    let not_a_run_file = || format!("{path}: not a cqbench run file (workload → driver object)");
    let mut out = Vec::new();
    for (workload, body) in run.as_obj().ok_or_else(not_a_run_file)? {
        let metrics = body
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(not_a_run_file)?;
        for (metric, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(not_a_run_file)?;
            out.push(((workload.clone(), metric.clone()), v));
        }
    }
    Ok(out)
}

/// How `b` stands against `a` for a metric whose `better` direction and
/// `bound` come from `BENCHMARK.json`, given the recorded run-to-run
/// `spread` of that pairing. Returns the worsening (positive = worse) as a
/// share of `a`, and the verdict.
pub fn judge(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    spread: Option<f64>,
) -> (f64, &'static str) {
    let worse_by = if a == 0.0 {
        // no base to take a share of: any move in the bad direction is worse
        // than every bound, any other move is none
        let moved = if higher_is_better { -b } else { b };
        if moved > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        // the pairing's own noise exceeds its bound: nothing can be
        // concluded from one pair of runs
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    };
    (worse_by, verdict)
}

/// Prints the comparison; `Ok(false)` when a pairing of A is worse in B than
/// its bound allows, or missing from B.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bench = load("BENCHMARK.json")?;
    let defs = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let spread = load(SPREAD_FILE).ok();
    let a = values(&load(a_path)?, a_path)?;
    let b = values(&load(b_path)?, b_path)?;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    let (mut worse, mut missing) = (0, 0);
    for (key, va) in &a {
        let (workload, metric) = key;
        // a `--trace 1` run file holds per-layer metrics, which have no bound
        let def = defs
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(metric))
            .ok_or_else(|| format!("{a_path}: '{metric}' is not an end-to-end metric of BENCHMARK.json (a --trace 1 run?)"))?;
        let Some((_, vb)) = b.iter().find(|(k, _)| k == key) else {
            missing += 1;
            println!("{workload:<14} {metric:<18} {va:>14.4} {:>14}", "missing");
            continue;
        };
        let bound = def.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let higher = def.get("better").and_then(Json::as_str) == Some("higher");
        let noise = spread
            .as_ref()
            .and_then(|s| s.get("workloads")?.get(workload)?.get(metric)?.as_f64());
        let (_, verdict) = judge(*va, *vb, higher, bound, noise);
        worse += (verdict == "worse") as u32;
        println!(
            "{workload:<14} {metric:<18} {va:>14.4} {vb:>14.4} {:>9.4} {bound:>7.3} {:>7}  {verdict}",
            if *va == 0.0 { f64::NAN } else { vb / va },
            noise.map_or("-".to_string(), |s| format!("{s:.3}")),
        );
    }
    println!(
        "ratios are B/A with A ({a_path}) as the base; {worse} pairing(s) worse than their bound, {missing} missing from B ({b_path})"
    );
    Ok(worse == 0 && missing == 0)
}

/// Prints the quartile spread of every (workload, end-to-end metric) pairing
/// over the given run files, as a spread file.
pub fn spread_of(paths: &[String]) -> Result<(), String> {
    if paths.len() < 2 {
        return Err("--spread-of needs at least two run files".to_string());
    }
    let runs: Vec<_> = paths
        .iter()
        .map(|p| values(&load(p)?, p))
        .collect::<Result<_, _>>()?;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for (key, _) in &runs[0] {
        let sample: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(k, _)| k == key).map(|(_, v)| *v))
            .collect();
        if sample.len() < 2 {
            continue;
        }
        let entry = (key.1.clone(), Json::Num(quartile_spread(&sample)));
        match workloads.iter_mut().find(|(w, _)| w == &key.0) {
            Some((_, Json::Obj(fields))) => fields.push(entry),
            _ => workloads.push((key.0.clone(), Json::Obj(vec![entry]))),
        }
    }
    let doc = Json::Obj(vec![
        ("runs".to_string(), Json::Num(paths.len() as f64)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    println!("{}", doc.to_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        // lower is better: 100 → 108 is 8 % worse
        assert_eq!(judge(100.0, 108.0, false, 0.10, None).1, "ok");
        assert_eq!(judge(100.0, 112.0, false, 0.10, None).1, "worse");
        assert_eq!(judge(100.0, 50.0, false, 0.10, None).1, "ok");
        // higher is better: 100 → 85 is 15 % worse
        let (by, verdict) = judge(100.0, 85.0, true, 0.10, Some(0.02));
        assert!((by - 0.15).abs() < 1e-12);
        assert_eq!(verdict, "worse");
        // noise wider than the bound: no conclusion either way
        assert_eq!(judge(100.0, 85.0, true, 0.10, Some(0.2)).1, "unresolved");
        assert_eq!(judge(100.0, 101.0, true, 0.10, Some(0.2)).1, "unresolved");
        // an exact count with bound 0
        assert_eq!(judge(25.0, 25.0, false, 0.0, Some(0.0)).1, "ok");
        assert_eq!(judge(25.0, 25.5, false, 0.0, Some(0.0)).1, "worse");
        // no base: leaving 0 in the bad direction is worse than any bound
        assert_eq!(judge(0.0, 0.1, false, 0.25, None).1, "worse");
        assert_eq!(judge(0.0, 0.1, true, 0.25, None).1, "ok");
        assert_eq!(judge(0.0, 0.0, false, 0.0, None).1, "ok");
    }

    #[test]
    fn values_reads_a_run_file() {
        let run = Json::parse(
            r#"{"w": {"correct": true, "attempted": 3, "failed": 0, "metrics": {"m": {"value": 2.5, "unit": "s"}}}}"#,
        )
        .unwrap();
        assert_eq!(
            values(&run, "x").unwrap(),
            vec![(("w".to_string(), "m".to_string()), 2.5)]
        );
        assert!(values(&Json::Null, "x").is_err());
        // the driver's bare object names no workload, so it is not a run file
        let bare = Json::parse(r#"{"correct": true, "metrics": {}}"#).unwrap();
        assert!(values(&bare, "x").is_err());
    }
}
