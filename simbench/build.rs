//! Stamps the compiler version, build profile and source commit into
//! the binary, so every result line says what produced it.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    // A source checkout without git metadata has no commit to report.
    let commit =
        capture("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SIMBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=SIMBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp when the checked-out commit moves; a path that does not
    // exist would force a rebuild on every run, so only existing ones.
    for p in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(p).exists() {
            println!("cargo:rerun-if-changed={p}");
        }
    }
}
