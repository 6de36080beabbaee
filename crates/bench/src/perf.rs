//! The `perf` mode: the committed speed claim behind the time-skip
//! engine.
//!
//! `gsdram-sim perf` runs every experiment in the registry serially
//! and reports *cycles simulated per wall-clock second* — the
//! simulator-throughput metric the time-skip engine (see
//! `docs/PERF.md`) is accountable to. The output, `BENCH_gsdram.json`,
//! is committed at the repo root so the perf trajectory is visible in
//! review diffs; `gsdram-sim perf check <path>` validates its schema
//! with the workspace's dependency-free JSON parser, deliberately
//! asserting nothing about wall-clock values (CI runners are not
//! benchmarking machines).
//!
//! Simulated-cycle counts are a pure function of each experiment's
//! specs, so two runs of `perf` may differ only in the wall-second and
//! rate fields. The report stamps `harness_threads` (the recording
//! machine's available parallelism) so its wall-clock rows can be read
//! in context.

use gsdram_core::json::Json;

use crate::args::Args;
use crate::experiments::{ExperimentDef, REGISTRY};
use crate::sweep::{self, SweepMode};

/// Schema tag written to (and required from) the report.
pub const SCHEMA: &str = "gsdram-bench-perf-v3";

/// Default output path, relative to the invocation directory.
pub const DEFAULT_OUT: &str = "BENCH_gsdram.json";

/// The downscaling flags `--quick` appends: every size knob any
/// registry experiment reads, pinned to CI-smoke scale.
const QUICK_FLAGS: &[&str] = &[
    "--txns",
    "200",
    "--tuples",
    "2048",
    "--sizes",
    "16",
    "--lines",
    "256",
    "--trials",
    "500",
    "--pairs",
    "2048",
    "--nodes",
    "4096",
    "--accesses",
    "512",
    "--elements",
    "8192",
];

/// `args` with [`QUICK_FLAGS`] appended.
fn with_quick_flags(args: &Args) -> Args {
    let mut argv: Vec<String> = args.raw().to_vec();
    argv.extend(QUICK_FLAGS.iter().map(|s| s.to_string()));
    Args::new(argv)
}

/// One experiment's measurement.
#[derive(Debug)]
pub struct PerfRow {
    /// Registry name.
    pub name: &'static str,
    /// Number of machine runs the experiment's specs expand to
    /// (0 for purely analytic experiments).
    pub runs: usize,
    /// Total simulated CPU cycles across those runs.
    pub simulated_cycles: u64,
    /// Wall-clock seconds spent simulating them, serially.
    pub wall_seconds: f64,
}

impl PerfRow {
    /// Cycles simulated per wall-clock second (0 for analytic rows).
    pub fn rate(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.simulated_cycles as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Measures one experiment: expands its specs under `args` and runs
/// them serially (parallel sweeps would measure scheduler luck, not
/// simulator throughput).
fn measure(def: &ExperimentDef, args: &Args) -> PerfRow {
    let specs = (def.specs)(args);
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "wall-clock throughput is this mode's deliverable, not simulation state"
    )]
    let start = std::time::Instant::now();
    let outcomes = sweep::run(&specs, SweepMode::Serial);
    let wall_seconds = start.elapsed().as_secs_f64();
    PerfRow {
        name: def.name,
        runs: outcomes.len(),
        simulated_cycles: outcomes.iter().map(|o| o.report.cpu_cycles).sum(),
        wall_seconds,
    }
}

/// Runs the whole registry and renders the report JSON.
pub fn run(args: &Args) -> String {
    let quick = args.flag("--quick");
    let eff = if quick {
        with_quick_flags(args)
    } else {
        args.clone()
    };
    let rows: Vec<PerfRow> = REGISTRY
        .iter()
        .map(|def| {
            let row = measure(def, &eff);
            eprintln!(
                "  {:<22} {:>3} runs  {:>14} cycles  {:>8.3} s  {:>12.0} cyc/s",
                row.name,
                row.runs,
                row.simulated_cycles,
                row.wall_seconds,
                row.rate()
            );
            row
        })
        .collect();
    render(&rows, quick, harness_threads())
}

/// The recording machine's available parallelism, stamped into the
/// report so its wall-clock rows can be read in context.
fn harness_threads() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the hardware thread count for the report stamp; spawns nothing"
    )]
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn render(rows: &[PerfRow], quick: bool, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"harness_threads\": {threads},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"runs\": {}, \"simulated_cycles\": {}, \"wall_seconds\": {:.3}, \"cycles_per_second\": {:.0}}}{}\n",
            r.name,
            r.runs,
            r.simulated_cycles,
            r.wall_seconds,
            r.rate(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let cycles: u64 = rows.iter().map(|r| r.simulated_cycles).sum();
    let secs: f64 = rows.iter().map(|r| r.wall_seconds).sum();
    out.push_str(&format!(
        "  \"total\": {{\"simulated_cycles\": {}, \"wall_seconds\": {:.3}, \"cycles_per_second\": {:.0}}}\n",
        cycles,
        secs,
        if secs > 0.0 { cycles as f64 / secs } else { 0.0 }
    ));
    out.push_str("}\n");
    out
}

/// Validates a perf report: schema tag, one well-formed row per
/// registry experiment (simulated cycles are deterministic, so
/// non-analytic rows must report runs and cycles), and a consistent
/// total. Wall-clock values are deliberately *not* asserted beyond
/// being non-negative numbers.
pub fn check(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("schema must be \"{SCHEMA}\", got {schema:?}"));
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("quick") | Some("full") => {}
        other => return Err(format!("mode must be \"quick\" or \"full\", got {other:?}")),
    }
    match doc.get("harness_threads").and_then(Json::as_f64) {
        Some(t) if t >= 1.0 => {}
        other => return Err(format!("harness_threads must be >= 1, got {other:?}")),
    }
    let rows = doc
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or("missing experiments array")?;
    let mut cycles_total = 0u64;
    let mut seen = Vec::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("experiment row without a name")?;
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.is_finite())
                .ok_or(format!("{name}: missing or negative {key}"))
        };
        let runs = num("runs")?;
        let cycles = num("simulated_cycles")?;
        num("wall_seconds")?;
        num("cycles_per_second")?;
        if runs > 0.0 && cycles == 0.0 {
            return Err(format!("{name}: {runs} runs simulated zero cycles"));
        }
        cycles_total += cycles as u64;
        seen.push(name);
    }
    for def in REGISTRY {
        if !seen.contains(&def.name) {
            return Err(format!("registry experiment {} has no row", def.name));
        }
    }
    if seen.len() != REGISTRY.len() {
        return Err(format!(
            "{} rows for {} registry experiments",
            seen.len(),
            REGISTRY.len()
        ));
    }
    let total = doc.get("total").ok_or("missing total")?;
    let total_cycles = total
        .get("simulated_cycles")
        .and_then(Json::as_f64)
        .ok_or("total without simulated_cycles")?;
    if total_cycles as u64 != cycles_total {
        return Err(format!(
            "total.simulated_cycles {total_cycles} != sum of rows {cycles_total}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny quick-mode sweep over two real experiments, rendered and
    /// re-validated through the checker (the registry-coverage leg is
    /// exercised against a synthetic full report below).
    #[test]
    fn render_and_check_roundtrip() {
        let eff = with_quick_flags(&Args::new(["--quick"]));
        let rows: Vec<PerfRow> = REGISTRY
            .iter()
            .filter(|d| d.name == "fig7" || d.name == "ablation_mapping")
            .map(|d| measure(d, &eff))
            .collect();
        assert_eq!(rows.len(), 2);
        // fig7 is analytic (no specs); ablation_mapping simulates.
        assert_eq!(rows.iter().filter(|r| r.runs == 0).count(), 1);
        assert!(rows.iter().any(|r| r.simulated_cycles > 0));

        // The renderer's output parses and passes every schema check
        // except registry coverage (only two rows here).
        let text = render(&rows, true, harness_threads());
        let err = check(&text).unwrap_err();
        assert!(err.contains("has no row"), "{err}");

        // Padding the missing registry rows satisfies the checker.
        let full: Vec<PerfRow> = REGISTRY
            .iter()
            .map(|d| PerfRow {
                name: d.name,
                runs: 1,
                simulated_cycles: 7,
                wall_seconds: 0.001,
            })
            .collect();
        check(&render(&full, false, 4)).expect("synthetic full report validates");
    }

    #[test]
    fn check_rejects_malformed_reports() {
        assert!(check("not json").is_err());
        assert!(check("{}").is_err());
        let wrong_schema = "{\"schema\": \"nope\", \"mode\": \"full\"}";
        assert!(check(wrong_schema).is_err());
        let no_threads = format!("{{\"schema\": \"{SCHEMA}\", \"mode\": \"full\"}}");
        let err = check(&no_threads).unwrap_err();
        assert!(err.contains("harness_threads"), "{err}");
        let bad_row = format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"full\", \"harness_threads\": 1, \"experiments\": [{{\"name\": \"fig9\", \"runs\": 3, \"simulated_cycles\": 0, \"wall_seconds\": 0.1, \"cycles_per_second\": 0}}]}}"
        );
        let err = check(&bad_row).unwrap_err();
        assert!(err.contains("zero cycles"), "{err}");
    }
}
