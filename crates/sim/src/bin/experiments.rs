//! Regenerates the paper's evaluation figures and Table 4.1.
//!
//! ```text
//! experiments [--full] [--csv] [--jobs N] [--trace DIR] [--trace-format FMT] [ids...]
//!
//!   --full       paper-approaching scale (default: quick)
//!   --csv        also print CSV blocks after each table
//!   --jobs N     fan independent simulation runs over N worker threads
//!                (default: 1 = sequential; results are identical either way)
//!   --trace DIR  write one trace file per simulation run into DIR
//!                (created if missing; tracing observes only — the report
//!                output is identical with or without it)
//!   --trace-format FMT
//!                trace serialization: `jsonl` (default) or `binary`
//!                (wire-framed; convert back with the trace_dump tool)
//!   ids          e01..e16, t01, a01, ef01, ef02 (default: all); an unknown
//!                id is an error
//! ```
//!
//! A flag's value may also follow an `=` (`--jobs=4`).
//!
//! A reader that closes stdout early (`experiments | head`) ends the run
//! with exit code 0; any other write error exits 1, naming it.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use cq_sim::experiments::{all, ExperimentFn, Scale};
use cq_sim::TraceFormat;

fn parse_trace_format(s: &str) -> TraceFormat {
    match s {
        "jsonl" => TraceFormat::Jsonl,
        "binary" => TraceFormat::Binary,
        other => {
            eprintln!("unknown trace format {other} (expected `jsonl` or `binary`)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut csv = false;
    let mut trace: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // `--flag=value` and `--flag value` are one flag.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        let mut value = |expects: &str| {
            inline
                .or_else(|| iter.next().map(String::as_str))
                .unwrap_or_else(|| {
                    eprintln!("{flag} expects {expects}");
                    std::process::exit(2);
                })
        };
        match flag {
            "--full" if inline.is_none() => full = true,
            "--csv" if inline.is_none() => csv = true,
            "--trace" => trace = Some(PathBuf::from(value("a directory path"))),
            "--trace-format" => {
                cq_sim::set_trace_format(parse_trace_format(value("`jsonl` or `binary`")))
            }
            "--jobs" => {
                let n = value("a positive integer")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs expects a positive integer");
                        std::process::exit(2);
                    });
                cq_sim::set_jobs(n);
            }
            _ if flag.starts_with("--") => {
                eprintln!("unknown flag {arg}");
                std::process::exit(2);
            }
            _ => ids.push(arg.clone()),
        }
    }
    let scale = if full { Scale::Full } else { Scale::Quick };

    if let Some(dir) = trace {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("cannot create trace directory {}: {e}", dir.display());
            std::process::exit(2);
        });
        // Stderr only: stdout is diffed against the committed goldens.
        eprintln!("[tracing: one trace file per run into {}]", dir.display());
        cq_sim::set_trace_dir(Some(dir));
    }

    let registry = all();
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|want| registry.iter().all(|(id, _)| id != want))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = registry.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id(s): {}; known ids: {}",
            unknown.join(", "),
            known.join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<_> = if ids.is_empty() {
        registry
    } else {
        registry
            .into_iter()
            .filter(|(id, _)| ids.iter().any(|want| want == *id))
            .collect()
    };

    if let Err(e) = print_reports(&mut std::io::stdout(), selected, scale, csv) {
        cq_sim::exit_on_write_error(e);
    }
}

/// Runs each selected experiment in turn and prints its report as soon as
/// it is done.
fn print_reports(
    out: &mut impl Write,
    selected: Vec<(&str, ExperimentFn)>,
    scale: Scale,
    csv: bool,
) -> std::io::Result<()> {
    let scale_name = if scale == Scale::Full {
        "full"
    } else {
        "quick"
    };
    writeln!(
        out,
        "# Continuous equi-join experiments — scale: {scale_name}"
    )?;
    for (id, f) in selected {
        let start = Instant::now();
        let report = f(scale);
        let elapsed = start.elapsed();
        writeln!(out, "{}", report.render())?;
        if csv {
            writeln!(out, "```csv\n{}```", report.to_csv())?;
        }
        writeln!(out, "[{} finished in {:.2?}]\n", id, elapsed)?;
    }
    out.flush()
}
