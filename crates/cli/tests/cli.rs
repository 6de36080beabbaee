//! `gsdram-sim` at its process boundary: flag validation and the
//! `perf check` entry point.

use std::path::Path;
use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsdram-sim"))
        .args(args)
        .output()
        .expect("spawn gsdram-sim")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Retired and misspelt flags fail before any simulation starts,
/// naming the flag instead of silently running a default machine.
#[test]
fn unknown_flags_fail_before_dispatch() {
    for flag in ["--shard", "--transactions"] {
        let out = sim(&["sweep", "fig9", flag, "200", "--quiet"]);
        assert!(!out.status.success(), "{flag} was accepted");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
    }
}

/// The committed throughput report passes the schema check.
#[test]
fn perf_check_accepts_the_committed_report() {
    let report = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_gsdram.json");
    let out = sim(&["perf", "check", report.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{}", stderr(&out));
}
