//! `run_all --only` at the process boundary: a bad selection exits
//! non-zero, names the valid keys, and generates no dataset.

use std::process::Command;

#[test]
fn unknown_key_exits_nonzero_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "prop1,no_such_experiment"])
        .output()
        .expect("spawn run_all");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    for key in flashp_bench::experiments::REGISTRY.iter().map(|e| e.key) {
        assert!(stderr.contains(key), "missing {key}: {stderr}");
    }
    // Nothing ran: no dataset was generated and no table was printed.
    assert!(!stderr.contains("[harness]"), "{stderr}");
    assert!(out.stdout.is_empty());
}
