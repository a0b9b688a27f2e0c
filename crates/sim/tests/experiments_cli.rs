//! The `experiments` binary rejects an id it does not know instead of
//! running the ids it does: a typo in a list of ids must fail the command,
//! not shrink the run.

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
