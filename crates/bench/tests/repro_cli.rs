//! The `repro` CLI's contract for names it does not know.

use std::process::Command;

/// An unknown experiment name is a usage error: exit code 2 and a
/// message on stderr, nothing on stdout.
#[test]
fn unknown_experiment_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no-such-experiment")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'no-such-experiment'"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}
