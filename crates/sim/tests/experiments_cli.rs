//! The binaries reject bad arguments with exit code 2 instead of running on
//! them: `experiments` fails on an id it does not know rather than running
//! the ids it does (a typo in a list of ids must fail the command, not
//! shrink the run) and refuses a worker count of zero, and `tcp_cluster`
//! refuses a network of no nodes and, in its throughput mode, honours an
//! explicit `--tuples`. A reader that closes stdout early ends a binary's
//! run normally, and any other write error is reported, never a panic.

use std::process::{Command, Output, Stdio};

/// Each binary with arguments that make it print.
fn printing_runs() -> [(&'static str, Vec<String>); 3] {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../engine/tests/fixtures/trace_v1.trace"
    );
    let tcp = ["--nodes", "8", "--queries", "4", "--tuples", "20"];
    [
        (env!("CARGO_BIN_EXE_experiments"), vec!["e01".into()]),
        (env!("CARGO_BIN_EXE_trace_dump"), vec![trace.into()]),
        (
            env!("CARGO_BIN_EXE_tcp_cluster"),
            tcp.map(String::from).to_vec(),
        ),
    ]
}

fn run_into(bin: &str, args: &[String], stdout: impl Into<Stdio>) -> Output {
    Command::new(bin)
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("the binary runs")
}

#[test]
fn a_reader_that_closes_early_ends_the_run_normally() {
    for (bin, args) in printing_runs() {
        // The read end is gone before the spawn, so the first write fails
        // with `EPIPE`, as it does under `… | head` once head has exited.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = run_into(bin, &args, writer);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin}: {err}");
        assert!(err.is_empty(), "{bin} wrote to stderr: {err}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn any_other_write_error_is_named_and_fails_the_run() {
    for (bin, args) in printing_runs() {
        let full = std::fs::File::create("/dev/full").unwrap();
        let out = run_into(bin, &args, full);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {err}");
        assert!(err.contains("cannot write to stdout"), "{bin}: {err}");
        assert!(!err.contains("panicked"), "{bin}: {err}");
    }
}

#[test]
fn a_misspelled_id_next_to_a_valid_one_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e01", "ef2"])
        .output()
        .expect("the experiments binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ef2"), "names the bad id: {err}");
    for (id, _) in cq_sim::experiments::all() {
        assert!(err.contains(id), "lists known id {id}: {err}");
    }
}

#[test]
fn a_cluster_of_zero_nodes_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcp_cluster"))
        .args(["--nodes", "0"])
        .output()
        .expect("the tcp_cluster binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--nodes"), "names the bad flag: {err}");
    assert!(
        err.contains("usage: tcp_cluster"),
        "prints the usage: {err}"
    );
}

#[test]
fn a_worker_count_of_zero_is_rejected() {
    for args in [&["--jobs", "0", "e01"][..], &["--jobs=0", "e01"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--jobs"), "{args:?} names the bad flag: {err}");
    }
}

#[test]
fn the_throughput_run_honours_an_explicit_tuple_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcp_cluster"))
        .args(["--payload-size", "16", "--nodes", "2", "--tuples", "40"])
        .output()
        .expect("the tcp_cluster binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    let header = text.lines().next().unwrap_or_default();
    assert!(header.contains(" 40 tuples,"), "header: {header}");
}
