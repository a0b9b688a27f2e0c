//! `cqbench` — the repository's reference benchmark.
//!
//! Replays six seeded workloads through the public API of
//! `cq_engine::Network`, verifies each against `cq_engine::Oracle`, and
//! prints every metric by name with its unit. See `README.md` beside this
//! package for the workloads, the metric definitions and how to run it.
//!
//! Every measured round runs in a fresh child process of this binary, so
//! rounds share no allocator or cache state and peak RSS is per round.

mod compare;
mod json;
mod metrics;
mod probes;
mod round;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use json::Json;
use metrics::{row, MetricDef, Row, END_TO_END, PER_LAYER};
use round::{run_round, RoundResult};
use verify::{verify, Verdict};
use workloads::{generate, Backend, Spec, WORKLOADS};

#[global_allocator]
static ALLOC: cq_bench::alloc_count::CountingAlloc = cq_bench::alloc_count::CountingAlloc;

const USAGE: &str = "usage:
  cqbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  cqbench --check [--seed N]
  cqbench --compare A.json B.json
  cqbench --spread-of RUN.json RUN.json...";

/// The run length `Spec::rounds` is sized for; `run_seconds` in
/// `BENCHMARK.json` (a unit test keeps the two equal).
pub const RUN_SECONDS: f64 = 16.0;
/// Fewest untraced rounds per workload: the determinism gate needs two to
/// compare. Also the round count of the `--check` smoke mode.
const MIN_ROUNDS: usize = 2;
/// What the traced round, the probes and the plain-simulator reference
/// round of a traced run cost, in untraced rounds given up for them.
const TRACE_COST_ROUNDS: usize = 3;
/// Stream shrink factor of the `--check` smoke mode.
const CHECK_SCALE: usize = 20;

#[derive(Clone, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    spread_of: Vec<String>,
    child: Option<String>,
    plain_sim: bool,
    scale: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: RUN_SECONDS,
        scale: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(text: String, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?,
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--spread-of" => args.spread_of = it.by_ref().cloned().collect(),
            "--child" => args.child = Some(value(&mut it, flag)?),
            "--plain-sim" => args.plain_sim = true,
            "--scale" => args.scale = number(value(&mut it, flag)?, flag)?,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.scale == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--scale and --seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if cfg!(debug_assertions) {
            return Err("refusing to measure a debug build: run with --release".to_string());
        }
        if let Some(mode) = &args.child {
            child_main(mode, &args).map(|()| true)
        } else if let Some((a, b)) = &args.compare {
            compare::compare(a, b)
        } else if !args.spread_of.is_empty() {
            compare::spread_of(&args.spread_of).map(|()| true)
        } else {
            parent_main(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cqbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Child side: one round per process.
// ---------------------------------------------------------------------------

fn print_layers<S: std::fmt::Display>(rows: &[(S, Option<f64>)]) {
    for (name, value) in rows {
        match value {
            Some(v) => println!("layer {name} {v}"),
            None => println!("layer {name} null"),
        }
    }
}

fn parse_layers(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|l| l.strip_prefix("layer "))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()))
        })
        .collect()
}

fn child_main(mode: &str, args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let spec = workloads::find(name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?
        .scaled_down(args.scale);
    let mut stream = generate(&spec, args.seed);
    let mut run_spec = spec;
    if args.plain_sim {
        run_spec = spec.on_plain_sim();
        stream = stream.without_fails();
    }
    let gen_ns_per_op = stream.gen_ns_per_op;
    match mode {
        "round" => {
            let (r, _net) = run_round(&run_spec, stream, false, None, usize::MAX)?;
            print!("{}", r.to_text());
            print_layers(&[("workload.gen_ns_per_op", Some(gen_ns_per_op))]);
            print_layers(&metrics::boundary_layers(&run_spec, &r));
        }
        "trace" => {
            let recorder = Arc::new(trace::Recorder::with_capacity(
                (spec.inserts * 384).min(4 << 20),
            ));
            let sink = Some(Arc::clone(&recorder));
            let (r, mut net) = run_round(&run_spec, stream, false, sink, usize::MAX)?;
            let (recs, counts) = recorder.take();
            print!("{}", r.to_text());
            // off the plain simulator the time between two deliveries is
            // mostly the fault pump or the socket, not the handler
            let handlers_timed = spec.backend == Backend::Sim;
            print_layers(&metrics::trace_layers(
                &trace::analyze(&recs),
                &counts,
                handlers_timed,
            ));
            if spec.backend == Backend::SimFaults {
                // a direct probe of digest cost on the final state
                let t0 = Instant::now();
                net.anti_entropy_now()
                    .map_err(|e| format!("anti-entropy round: {e}"))?;
                let ms = t0.elapsed().as_nanos() as f64 / 1e6;
                print_layers(&[("recovery.anti_entropy_ms", Some(ms))]);
            }
            drop(net);
            print_layers(&probes::run(&spec, &generate(&spec, args.seed)));
        }
        other => return Err(format!("unknown child mode '{other}'")),
    }
    Ok(())
}

/// Runs one child of this binary to completion and returns its stdout and
/// wall time. The child is waited for before this returns.
fn spawn_child(
    mode: &str,
    spec: &Spec,
    args: &Args,
    plain_sim: bool,
) -> Result<(String, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", spec.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--scale",
            &args.scale.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plain_sim {
        cmd.arg("--plain-sim");
    }
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("starting child round: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "child {mode} round of {} failed: {}",
            spec.name, out.status
        ));
    }
    let text =
        String::from_utf8(out.stdout).map_err(|_| "child printed invalid UTF-8".to_string())?;
    Ok((text, wall))
}

// ---------------------------------------------------------------------------
// Parent side: verification, round scheduling, reduction, report.
// ---------------------------------------------------------------------------

/// Everything measured for one workload.
struct Outcome {
    spec: Spec,
    verdict: Verdict,
    rounds: Vec<RoundResult>,
    round_walls: Vec<f64>,
    layers: Vec<Row>,
    problems: Vec<String>,
}

/// `RLIMIT_NOFILE` (soft) from `/proc/self/limits`.
fn open_file_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    let soft = line.split_whitespace().nth(3)?;
    if soft == "unlimited" {
        return Some(u64::MAX);
    }
    soft.parse().ok()
}

/// Fails before `tcp_dait` starts rather than in the middle of a round:
/// a full mesh needs two descriptors per node pair plus the listeners.
fn preflight(spec: &Spec) -> Result<(), String> {
    if spec.backend != Backend::Tcp {
        return Ok(());
    }
    let n = spec.nodes as u64;
    let need = 2 * n * (n - 1) + n + 64;
    match open_file_limit() {
        Some(have) if have < need => Err(format!(
            "{}: RLIMIT_NOFILE is {have}, the {n}-node TCP mesh needs {need} (raise it with ulimit -n)",
            spec.name
        )),
        _ => Ok(()),
    }
}

/// Names the first round whose counts differ from round 0. Replays must be
/// identical for the per-op minimum to mean anything, and later count-based
/// claims rest on counts repeating exactly.
fn determinism_problem(spec: &Spec, rounds: &[RoundResult]) -> Option<String> {
    let key = |r: &RoundResult| {
        (
            (r.msgs, r.hops, r.notifications),
            (
                r.load_top10_share.to_bits(),
                r.insert_ns.len(),
                r.pose_ns.len(),
            ),
            // socket reads split differently from run to run, and so do the
            // buffers they allocate
            (spec.backend != Backend::Tcp).then_some(r.allocs),
        )
    };
    let first = key(rounds.first()?);
    rounds.iter().position(|r| key(r) != first).map(|i| {
        format!(
            "round {i} is not a replay of round 0: (msgs, hops, notifications), (load share bits, inserts, poses), allocs = {:?} vs {:?}",
            key(&rounds[i]),
            first
        )
    })
}

fn lookup(rows: &[Row], name: &str) -> Option<f64> {
    rows.iter()
        .rev()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| *v)
}

/// The traced round, the reference round where one applies, and the
/// per-layer metrics that compare them with the untraced rounds.
fn traced_layers(o: &mut Outcome, args: &Args) -> Result<(), String> {
    let spec = o.spec;
    let (text, _) = spawn_child("trace", &spec, args, false)?;
    let traced = RoundResult::from_text(&text)?;
    o.layers.extend(parse_layers(&text));
    let traced_sum = traced.insert_ns.iter().sum::<u64>() as f64;
    let quiet_sum = metrics::quiet_insert_sum(&o.rounds) as f64;
    o.layers
        .push(row("trace.overhead_ratio", traced_sum / quiet_sum));
    if spec.backend != Backend::Sim {
        // the same stream on the plain simulator: what faults, or the wire,
        // add to an insert
        let (text, _) = spawn_child("round", &spec, args, true)?;
        let plain = [RoundResult::from_text(&text)?];
        let real = &o.rounds[..1];
        if spec.backend == Backend::SimFaults {
            let tax =
                metrics::quiet_insert_p50(real) as f64 / metrics::quiet_insert_p50(&plain) as f64;
            o.layers.push(row("recovery.fault_tax", tax));
        } else {
            let share = 1.0
                - metrics::quiet_insert_sum(&plain) as f64 / metrics::quiet_insert_sum(real) as f64;
            o.layers.push(row("socket.wire_share", share));
        }
    }
    Ok(())
}

/// How many untraced rounds `spec` gets: its fixed count, in proportion to
/// `--seconds`. Never fitted to the clock, so a slower commit is reduced over
/// as many rounds as a faster one.
fn rounds_for(spec: &Spec, args: &Args) -> usize {
    if args.check {
        return MIN_ROUNDS;
    }
    let rounds = (spec.rounds as f64 * args.seconds / RUN_SECONDS) as usize;
    let given_up = if args.trace { TRACE_COST_ROUNDS } else { 0 };
    rounds.saturating_sub(given_up).max(MIN_ROUNDS)
}

fn run_workloads(specs: &[Spec], args: &Args) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for spec in specs {
        preflight(spec)?;
        let verdict = verify(spec, args.seed)?;
        outcomes.push(Outcome {
            spec: *spec,
            problems: verdict.problems.clone(),
            verdict,
            rounds: Vec::new(),
            round_walls: Vec::new(),
            layers: Vec::new(),
        });
    }
    // Rounds interleave round-robin across workloads, so slow drift of the
    // machine spreads over all of them.
    let most = specs.iter().map(|s| rounds_for(s, args)).max();
    for round in 0..most.unwrap_or(0) {
        for o in &mut outcomes {
            if round >= rounds_for(&o.spec, args) {
                continue;
            }
            let (text, wall) = spawn_child("round", &o.spec, args, false)?;
            o.rounds.push(RoundResult::from_text(&text)?);
            o.round_walls.push(wall);
            if round == 0 {
                // boundary counts are the same in every round; keep one copy
                o.layers.extend(parse_layers(&text));
            }
        }
    }
    for o in &mut outcomes {
        o.problems.extend(determinism_problem(&o.spec, &o.rounds));
        let last = o.rounds.last().expect("at least one round ran");
        let (failed, attempted) = (last.failed, last.attempted);
        if o.spec.backend != Backend::SimFaults && failed > 0 {
            o.problems
                .push(format!("{failed} of {attempted} ops returned Err"));
        }
        if args.trace {
            traced_layers(o, args)?;
            let walls = &o.round_walls;
            let med = stats::median(walls);
            let (lo, hi) = walls
                .iter()
                .fold((f64::MAX, 0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
            o.layers.extend([
                row(
                    "tail.insert_p99_us",
                    metrics::quiet_insert_tail_us(&o.rounds),
                ),
                row("driver.round_wall_median_s", med),
                row("driver.round_wall_spread", (hi - lo) / med),
                row("driver.rounds", walls.len() as f64),
                row(
                    "driver.op_fail_share",
                    failed as f64 / attempted.max(1) as f64,
                ),
            ]);
        }
    }
    Ok(outcomes)
}

/// `{name: {"value": v, "unit": u}}` for every declared metric, in order.
/// A layer the workload does not exercise reads `null` in the printed report
/// and 0 here: the driver wants a number under every name.
fn metrics_json(defs: &[MetricDef], rows: &[Row]) -> Json {
    Json::Obj(
        defs.iter()
            .map(|(name, unit, _)| {
                let value = lookup(rows, name).unwrap_or(0.0);
                let fields = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

fn print_rows(defs: &[MetricDef], rows: &[Row]) {
    for (name, unit, better) in defs {
        let arrow = if *better == "higher" { "↑" } else { "↓" };
        match lookup(rows, name) {
            Some(v) => println!("  {name:<40} {v:>16.4} {unit} {arrow}"),
            None => println!("  {name:<40} {:>16} {unit}", "null"),
        }
    }
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs the selected workloads and prints the report; `Ok(false)` when any
/// workload failed verification or the determinism gate.
fn parent_main(args: &Args) -> Result<bool, String> {
    let mut args = args.clone();
    if args.check {
        args.scale = CHECK_SCALE;
        args.trace = false;
    }
    let args = &args;
    let specs: Vec<Spec> = match &args.workload {
        Some(name) => {
            vec![workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?]
        }
        None => WORKLOADS.to_vec(),
    };
    let specs: Vec<Spec> = specs
        .into_iter()
        .map(|s| s.scaled_down(args.scale))
        .collect();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "cqbench  seed {}  nproc {cpus}  scale 1/{}  commit {}  closed loop, 1 client, loopback only",
        args.seed,
        args.scale,
        git_head()
    );
    let t0 = Instant::now();
    let outcomes = run_workloads(&specs, args)?;
    let mut report = Vec::new();
    for o in &outcomes {
        let e2e = metrics::end_to_end(&o.rounds, o.verdict.recall);
        let inserts = o.rounds[0].insert_ns.len();
        println!(
            "\n{}  [{} rounds, median {:.2} s; {} inserts, {} beyond the tail percentile; {} poses; verified against {} expected notifications]",
            o.spec.name,
            o.rounds.len(),
            stats::median(&o.round_walls),
            inserts,
            stats::samples_beyond(inserts, stats::tail_permille(inserts)),
            o.rounds[0].pose_ns.len(),
            o.verdict.expected,
        );
        println!("  {}", o.spec.why);
        print_rows(END_TO_END, &e2e);
        if args.trace {
            print_rows(PER_LAYER, &o.layers);
        }
        for p in &o.problems {
            println!("  FAILED: {p}");
        }
        let last = o.rounds.last().expect("at least one round ran");
        // one metric family per run, as the driver reads it
        let metrics = if args.trace {
            metrics_json(PER_LAYER, &o.layers)
        } else {
            metrics_json(END_TO_END, &e2e)
        };
        let fields = vec![
            ("correct".to_string(), Json::Bool(o.problems.is_empty())),
            (
                "attempted".to_string(),
                Json::Num((last.attempted + o.verdict.attempted) as f64),
            ),
            (
                "failed".to_string(),
                Json::Num((last.failed + o.verdict.failed) as f64),
            ),
            ("metrics".to_string(), metrics),
        ];
        report.push((o.spec.name.to_string(), Json::Obj(fields)));
    }
    println!(
        "\n[{} workloads in {:.1} s]",
        outcomes.len(),
        t0.elapsed().as_secs_f64()
    );
    // With `--workload` the last line of stdout is the object the driver
    // reads; a run file maps each workload to such an object.
    let driver_line = args.workload.as_ref().map(|_| report[0].1.to_line());
    let run_file = Json::Obj(report).to_line();
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{run_file}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", driver_line.unwrap_or(run_file));
    Ok(outcomes.iter().all(|o| o.problems.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_count_is_fixed_by_workload_and_run_length() {
        let args = |seconds, trace, check| Args {
            seconds,
            trace,
            check,
            ..Args::default()
        };
        let sai = workloads::find("match_sai").unwrap();
        assert_eq!(rounds_for(&sai, &args(RUN_SECONDS, false, false)), 10);
        assert_eq!(rounds_for(&sai, &args(2.0 * RUN_SECONDS, false, false)), 20);
        // a traced run gives up rounds for its traced and reference children
        assert_eq!(rounds_for(&sai, &args(RUN_SECONDS, true, false)), 7);
        // never fewer than the determinism gate needs
        assert_eq!(rounds_for(&sai, &args(RUN_SECONDS / 2.0, true, false)), 2);
        assert_eq!(rounds_for(&sai, &args(1.0, false, false)), 2);
        assert_eq!(rounds_for(&sai, &args(RUN_SECONDS, false, true)), 2);
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let argv: Vec<String> = "--workload tcp_dait --seed 7 --seconds 16 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("tcp_dait"), 7, 16.0, false)
        );
        assert!(
            parse_args(&["--trace".to_string(), "1".to_string()])
                .unwrap()
                .trace
        );
        assert!(parse_args(&["--rounds".to_string(), "3".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
