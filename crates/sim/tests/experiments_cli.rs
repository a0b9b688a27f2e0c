//! The binaries reject bad arguments with exit code 2 instead of running on
//! them: `experiments` fails on an id it does not know rather than running
//! the ids it does (a typo in a list of ids must fail the command, not
//! shrink the run), and `tcp_cluster` refuses a network of no nodes.

use std::process::Command;

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
