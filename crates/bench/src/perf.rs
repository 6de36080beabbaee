//! The `perf` mode: the committed speed claim behind the time-skip
//! engine.
//!
//! `gsdram-bench perf` runs every experiment in the registry serially
//! and reports *cycles simulated per wall-clock second* — the
//! simulator-throughput metric the time-skip engine (see
//! `docs/PERF.md`) is accountable to. The output, `BENCH_gsdram.json`,
//! is committed at the repo root so the perf trajectory is visible in
//! review diffs; `gsdram-bench check <path>` validates its schema with
//! the workspace's dependency-free JSON parser, deliberately asserting
//! nothing about wall-clock values (CI runners are not benchmarking
//! machines).
//!
//! Simulated-cycle counts are a pure function of each experiment's
//! specs, so two runs of `perf` may differ only in the wall-second and
//! rate fields.
//!
//! The report's second section, `shard`, times the sharded per-channel
//! advance (`gsdram_dram::shard`) against its serial twin on identical
//! waved multi-channel request streams, asserting the drained states
//! byte-identical before reporting the speedup — the committed
//! evidence that sharding never buys divergence. The speedup column is
//! only meaningful relative to `harness_threads` (the recording
//! machine's available parallelism, stamped into the report): on one
//! hardware thread the sharded run time-slices a single core and can
//! only show spawn overhead, so `speedup > 1` is expected *iff*
//! `harness_threads >= 2`.

use gsdram_core::json::Json;
use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_dram::controller::{AccessKind, ControllerConfig, MemController, MemRequest};
use gsdram_dram::mapping::{AddressMap, Interleave};
use gsdram_dram::shard;

use crate::args::Args;
use crate::experiments::{ExperimentDef, REGISTRY};
use crate::sweep::{self, SweepMode};

/// Schema tag written to (and required from) the report.
pub const SCHEMA: &str = "gsdram-bench-perf-v2";

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

/// One sharded-vs-serial controller-drain measurement.
#[derive(Debug)]
pub struct ShardRow {
    /// Channel-controller count.
    pub channels: usize,
    /// Requests pre-loaded across the controllers.
    pub requests: usize,
    /// Memory cycles each controller advanced through.
    pub mem_cycles: u64,
    /// Wall-clock seconds for the serial advance loop.
    pub serial_wall_seconds: f64,
    /// Wall-clock seconds for the thread-per-channel advance.
    pub sharded_wall_seconds: f64,
}

impl ShardRow {
    /// Serial wall-clock over sharded wall-clock (>1 means sharding won).
    pub fn speedup(&self) -> f64 {
        if self.sharded_wall_seconds > 0.0 {
            self.serial_wall_seconds / self.sharded_wall_seconds
        } else {
            0.0
        }
    }
}

/// Arrival-ordered request stream for the shard benchmark: `(channel,
/// request, arrival cycle)`, paced slightly faster than the random-row
/// service time so every channel stays saturated and queues build to a
/// few hundred entries over the run — the bandwidth-bound phase (a
/// prefetcher issuing faster than DRAM services) where `sync_memory`
/// actually leaps and the shard site earns its threads.
fn shard_stream(channels: usize, requests: usize, seed: u64) -> Vec<(usize, MemRequest, u64)> {
    let map = AddressMap::with_shape(64, 128, 8, 1, channels as u64, Interleave::ColumnFirst);
    let mut rng = SplitMix(seed);
    let pace = (40 / channels as u64).max(1);
    (0..requests)
        .map(|id| {
            let addr = rng.below(1 << 24) * 64;
            let loc = map.decompose(addr);
            let kind = if rng.below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let req = MemRequest {
                id: id as u64,
                loc,
                pattern: PatternId(0),
                kind,
            };
            (loc.channel, req, id as u64 * pace)
        })
        .collect()
}

/// Memory-cycle span of one enqueue→advance wave: comfortably past
/// [`shard::MIN_SPAN`] so the sharded run forks on every wave, and
/// wide enough that each worker's slice of scheduler work dwarfs the
/// per-wave thread-spawn cost.
const WAVE_SPAN: u64 = 32_768;

/// Runs the stream through fresh controllers in enqueue→advance waves
/// (enqueue the arrivals of the next `WAVE_SPAN` cycles, advance all
/// controllers to the wave horizon, repeat; then drain), returning the
/// end state and the wall-clock seconds spent advancing.
fn run_stream(
    channels: usize,
    stream: &[(usize, MemRequest, u64)],
    sharded: bool,
) -> (String, f64) {
    let mut ctls: Vec<MemController> = (0..channels)
        .map(|ch| {
            let mut c = MemController::new(ControllerConfig::default());
            c.set_channel(ch);
            c
        })
        .collect();
    let advance = if sharded {
        shard::advance_sharded
    } else {
        shard::advance_serial
    };
    let mut next = 0usize;
    let mut horizon = WAVE_SPAN;
    let mut wall = 0.0f64;
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "wall-clock throughput is this mode's deliverable, not simulation state"
    )]
    while next < stream.len() {
        while next < stream.len() && stream[next].2 < horizon {
            let (ch, req, at) = stream[next];
            // An advance lands on event times and may overshoot the
            // wave horizon by a few cycles; clamp like the bridge
            // clamps writeback arrivals. Serial and sharded states
            // are identical wave-for-wave, so the clamp is too.
            let at = at.max(ctls[ch].now());
            ctls[ch].enqueue(req, at);
            next += 1;
        }
        let start = std::time::Instant::now();
        advance(&mut ctls, horizon);
        wall += start.elapsed().as_secs_f64();
        horizon += WAVE_SPAN;
    }
    // Drain the backlog the oversubscribed pacing built up; keep
    // advancing in waves so the sharded run stays forked to the end.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "wall-clock throughput is this mode's deliverable, not simulation state"
    )]
    while ctls.iter().any(|c| c.pending() > 0) {
        horizon += WAVE_SPAN;
        let start = std::time::Instant::now();
        advance(&mut ctls, horizon);
        wall += start.elapsed().as_secs_f64();
    }
    let mut state = String::new();
    for (ch, c) in ctls.iter_mut().enumerate() {
        let mut done = Vec::new();
        c.take_completions_into(u64::MAX, &mut done);
        assert!(
            c.pending() == 0,
            "shard benchmark failed to drain channel {ch}"
        );
        state.push_str(&format!(
            "clock={} stats={:?} energy={:?} completions={:?}\n",
            c.now(),
            c.stats(),
            c.energy(),
            done
        ));
    }
    (state, wall)
}

/// Times the serial and sharded advance of identical controller sets
/// over the same waved request stream, asserting the end states
/// byte-identical before reporting wall-clock.
fn measure_shard(channels: usize, requests: usize) -> ShardRow {
    let stream = shard_stream(channels, requests, 0xC0FFEE);
    let mem_cycles = stream.last().map_or(0, |&(_, _, at)| at) + WAVE_SPAN;
    let (serial_state, serial_wall_seconds) = run_stream(channels, &stream, false);
    let (sharded_state, sharded_wall_seconds) = run_stream(channels, &stream, true);
    assert_eq!(
        serial_state, sharded_state,
        "sharded advance diverged from serial at {channels} channels"
    );
    ShardRow {
        channels,
        requests,
        mem_cycles,
        serial_wall_seconds,
        sharded_wall_seconds,
    }
}

/// The channel counts the shard section measures.
const SHARD_CHANNELS: [usize; 2] = [2, 4];

/// Runs the whole registry plus the shard drain benchmark and renders
/// the report JSON.
pub fn run(args: &Args) -> String {
    let quick = args.flag("--quick");
    let eff = if quick {
        let mut argv: Vec<String> = args.raw().to_vec();
        argv.extend(QUICK_FLAGS.iter().map(|s| s.to_string()));
        Args::new(argv)
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
    let requests = if quick { 4_000 } else { 40_000 };
    let threads = harness_threads();
    let shard_rows: Vec<ShardRow> = SHARD_CHANNELS
        .iter()
        .map(|&channels| {
            let row = measure_shard(channels, requests);
            eprintln!(
                "  shard ch{:<17} {:>10} reqs  serial {:>7.3} s  sharded {:>7.3} s  {:>5.2}x",
                row.channels,
                row.requests,
                row.serial_wall_seconds,
                row.sharded_wall_seconds,
                row.speedup()
            );
            row
        })
        .collect();
    if threads < 2 {
        eprintln!("  (1 harness thread: shard rows can only show overhead, not speedup)");
    }
    render(&rows, &shard_rows, quick, threads)
}

/// The recording machine's available parallelism, stamped into the
/// report so shard speedups can be read in context.
fn harness_threads() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the hardware thread count for the report stamp; spawns nothing"
    )]
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn render(rows: &[PerfRow], shard_rows: &[ShardRow], quick: bool, threads: usize) -> String {
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
    out.push_str("  \"shard\": [\n");
    for (i, r) in shard_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"channels\": {}, \"requests\": {}, \"mem_cycles\": {}, \"serial_wall_seconds\": {:.3}, \"sharded_wall_seconds\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.channels,
            r.requests,
            r.mem_cycles,
            r.serial_wall_seconds,
            r.sharded_wall_seconds,
            r.speedup(),
            if i + 1 < shard_rows.len() { "," } else { "" }
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
    let shard_rows = doc
        .get("shard")
        .and_then(Json::as_array)
        .ok_or("missing shard array")?;
    if shard_rows.is_empty() {
        return Err("shard array is empty".into());
    }
    for row in shard_rows {
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.is_finite())
                .ok_or(format!("shard row: missing or negative {key}"))
        };
        let channels = num("channels")?;
        if channels < 2.0 {
            return Err(format!(
                "shard row with {channels} channels — sharding needs at least 2"
            ));
        }
        if num("requests")? == 0.0 || num("mem_cycles")? == 0.0 {
            return Err("shard row drained no work".into());
        }
        num("serial_wall_seconds")?;
        num("sharded_wall_seconds")?;
        num("speedup")?;
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
        let args = Args::new(["--quick"]);
        let eff = {
            let mut argv: Vec<String> = args.raw().to_vec();
            argv.extend(QUICK_FLAGS.iter().map(|s| s.to_string()));
            Args::new(argv)
        };
        let rows: Vec<PerfRow> = REGISTRY
            .iter()
            .filter(|d| d.name == "fig7" || d.name == "ablation_mapping")
            .map(|d| measure(d, &eff))
            .collect();
        assert_eq!(rows.len(), 2);
        // fig7 is analytic (no specs); ablation_mapping simulates.
        assert_eq!(rows.iter().filter(|r| r.runs == 0).count(), 1);
        assert!(rows.iter().any(|r| r.simulated_cycles > 0));

        // A real (tiny) shard measurement: the drained-state equality
        // assert inside measure_shard is the interesting part.
        let shard_rows = vec![measure_shard(2, 512)];
        assert!(shard_rows[0].mem_cycles > 0);

        // The renderer's output parses and passes every schema check
        // except registry coverage (only two rows here).
        let text = render(&rows, &shard_rows, true, harness_threads());
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
        check(&render(&full, &shard_rows, false, 4)).expect("synthetic full report validates");

        // A report without the shard section fails the v2 checker.
        let err = check(&render(&full, &[], false, 4)).unwrap_err();
        assert!(err.contains("shard"), "{err}");
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
