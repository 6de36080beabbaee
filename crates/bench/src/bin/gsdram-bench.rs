//! `gsdram-bench`: the simulator-throughput harness.
//!
//! - `gsdram-bench perf [--quick] [--out PATH]` measures cycles
//!   simulated per wall-clock second for every registry experiment
//!   (serially) and writes the report (default `BENCH_gsdram.json`).
//! - `gsdram-bench check <path>` validates a report's schema with the
//!   workspace's dependency-free JSON parser — structure only, never
//!   wall-clock values.
//!
//! See `docs/PERF.md` for the metric's definition and how the report
//! is kept honest.

// D2 (docs/LINTS.md): no wall-clock reads or threads from the
// clippy.toml method list in binaries either.
#![deny(clippy::disallowed_methods)]

use std::process::ExitCode;

use gsdram_bench::args::Args;
use gsdram_bench::perf;

fn main() -> ExitCode {
    let args = Args::from_env();
    match args.positional() {
        Some("perf") => {
            let text = perf::run(&args);
            let path = args
                .value("--out")
                .unwrap_or_else(|| perf::DEFAULT_OUT.to_string());
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(path) = args.positional_at(1) else {
                eprintln!("usage: gsdram-bench check <path>");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match perf::check(&text) {
                Ok(()) => {
                    println!("{path}: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: gsdram-bench perf [--quick] [--out PATH] | check <path>");
            ExitCode::FAILURE
        }
    }
}
