//! The metrics a run reports, and their cross-check against the
//! benchmark's declaration in `BENCHMARK.json`.

use gsdram_core::json::Json;

use crate::stats::{median, ratio, tail};
use crate::{Rep, Run, Workload};

/// The benchmark declaration, compiled in so every run checks that it
/// emits exactly the declared metrics with the declared units.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, value, unit }
}

fn untraced(run: &Run) -> impl Iterator<Item = &Rep> {
    run.reps.iter().filter(|r| !r.traced)
}

fn traced(run: &Run) -> impl Iterator<Item = &Rep> {
    run.reps.iter().filter(|r| r.traced)
}

fn median_of<'a>(reps: impl Iterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.map(f).collect::<Vec<_>>())
}

/// A deterministic count of the run (from the first repetition, or the
/// first traced one for probe-only counts); 0 where the workload does
/// not exercise the layer.
fn count(run: &Run, name: &str) -> f64 {
    let probe_counts = traced(run).next().map(|r| &r.trace_counts);
    run.reps[0]
        .counts
        .get(name)
        .or_else(|| probe_counts.and_then(|c| c.get(name)))
        .map_or(0.0, |&v| v as f64)
}

/// DRAM requests served (reads and writebacks).
fn served(run: &Run) -> f64 {
    count(run, "dram.reads") + count(run, "dram.writes")
}

/// The end-to-end metrics, from the untraced repetitions: host time
/// medians, and throughputs over the median run time.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let runs: Vec<f64> = untraced(run).map(|r| r.run_s).collect();
    let run_s = median(&runs);
    let (run_tail, _) = tail(&runs);
    let req_per_s = ratio(served(run), run_s);
    let (ops, sharded_req_per_s) = match run.workload {
        // Bare controllers execute DRAM commands, and the stream runs a
        // second time through the sharded advance.
        Workload::DramSaturate => (
            [
                "dram.cmd_act",
                "dram.cmd_pre",
                "dram.cmd_rd",
                "dram.cmd_wr",
                "dram.cmd_ref",
            ]
            .iter()
            .map(|n| count(run, n))
            .sum(),
            ratio(served(run), median_of(untraced(run), |r| r.sharded_s)),
        ),
        // One-channel machines: the bridge's shard gate needs two busy
        // controllers, so the sharded path is the serial one.
        Workload::HtapGs | Workload::GemmGs => (count(run, "exec.ops"), req_per_s),
    };
    vec![
        metric("setup_s", "s", median_of(untraced(run), |r| r.setup_s)),
        metric("run_s", "s", run_s),
        metric("run_s_tail", "s", run_tail),
        metric(
            "sim_cycles_per_s",
            "1/s",
            ratio(count(run, "system.sim_cycles"), run_s),
        ),
        metric("ops_per_s", "1/s", ratio(ops, run_s)),
        metric("dram_req_per_s", "1/s", req_per_s),
        metric("dram_sharded_req_per_s", "1/s", sharded_req_per_s),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// The per-layer metrics: deterministic counts, and medians of the
/// traced repetitions' per-layer host times.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let c = |name: &str| count(run, name);
    let layer =
        |name: &str| median_of(traced(run), |r| r.layer_s.get(name).copied().unwrap_or(0.0));
    let enqueued = c("bridge.dram_enqueues_read") + c("bridge.dram_enqueues_write");
    let sim_s = crate::table1().seconds(c("system.sim_cycles") as u64);
    let dram_host_s = layer("dram.enqueue_s") + layer("dram.advance_s");
    let requests = c("saturate.requests");
    let counts = [
        ("workloads.next_op_calls", "count"),
        ("workloads.on_load_value_calls", "count"),
        ("exec.ops", "count"),
        ("exec.mem_ops", "count"),
        ("l1.hits", "count"),
        ("l1.misses", "count"),
        ("l2.hits", "count"),
        ("l2.misses", "count"),
        ("cache.fills", "count"),
        ("cache.evictions", "count"),
        ("cache.dirty_evictions", "count"),
        ("coherence.overlap_flushes_fetch", "count"),
        ("coherence.overlap_flushes_store", "count"),
        ("dbi.marks", "count"),
        ("dbi.clears", "count"),
        ("dbi.row_queries", "count"),
        ("dbi.empty_row_queries", "count"),
        ("bridge.dram_enqueues_read", "count"),
        ("bridge.dram_enqueues_write", "count"),
        ("bridge.completions", "count"),
        ("bridge.gather_splits", "count"),
        ("dram.reads", "count"),
        ("dram.writes", "count"),
        ("dram.cmd_act", "count"),
        ("dram.cmd_pre", "count"),
        ("dram.cmd_rd", "count"),
        ("dram.cmd_wr", "count"),
        ("dram.cmd_ref", "count"),
        ("dram.queue_depth_p50", "requests"),
        ("dram.queue_depth_p99", "requests"),
        ("dram.read_latency_p50", "mem_cycles"),
        ("dram.read_latency_p99", "mem_cycles"),
        ("telemetry.events", "count"),
        ("system.sim_cycles", "cpu_cycles"),
    ];
    let mut out: Vec<Metric> = counts
        .iter()
        .map(|&(name, unit)| metric(name, unit, c(name)))
        .collect();
    let shard_serial = layer("dram.advance_s");
    let shard_sharded = layer("shard.sharded_s");
    out.extend([
        metric("workloads.setup_s", "s", layer("workloads.setup_s")),
        metric("workloads.next_op_s", "s", layer("workloads.next_op_s")),
        metric(
            "exec.ops_per_dram_req",
            "ratio",
            ratio(c("exec.ops"), enqueued),
        ),
        metric("system.self_s", "s", layer("system.self_s")),
        metric(
            "l1.hit_ratio",
            "ratio",
            ratio(c("l1.hits"), c("l1.hits") + c("l1.misses")),
        ),
        metric(
            "dram.row_hit_ratio",
            "ratio",
            ratio(c("dram.row_hits"), c("dram.column_accesses")),
        ),
        metric(
            "dram.sim_bandwidth_gbs",
            "GB/s",
            ratio(served(run) * 64.0, sim_s) / 1e9,
        ),
        metric("dram.enqueue_s", "s", layer("dram.enqueue_s")),
        metric("dram.advance_s", "s", layer("dram.advance_s")),
        metric("dram.ns_per_req", "ns", ratio(dram_host_s, requests) * 1e9),
        metric("shard.serial_s", "s", shard_serial),
        metric("shard.sharded_s", "s", shard_sharded),
        metric("shard.speedup", "ratio", ratio(shard_serial, shard_sharded)),
        metric(
            "telemetry.overhead_ratio",
            "ratio",
            ratio(
                median_of(traced(run), |r| r.run_s),
                median_of(untraced(run), |r| r.run_s),
            ),
        ),
    ]);
    out
}

/// The process's peak resident set in MB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `(name, unit)` pairs `spec` declares for a traced (`per_layer`)
/// or untraced (`end_to_end`) run.
pub fn declared(spec: &str, trace: bool) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(spec).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Checks that `emitted` holds exactly the `declared` metrics, each
/// once with its declared unit and a finite value; end-to-end values
/// must also be positive, since none of them can honestly be 0.
pub fn validate(
    emitted: &[Metric],
    declared: &[(String, String)],
    positive: bool,
) -> Result<(), String> {
    for m in emitted {
        match declared.iter().find(|(n, _)| n == m.name) {
            None => return Err(format!("metric `{}` is not declared", m.name)),
            Some((_, unit)) if unit != m.unit => {
                return Err(format!(
                    "metric `{}` has unit `{}`, declared `{unit}`",
                    m.name, m.unit
                ))
            }
            Some(_) => {}
        }
        if emitted.iter().filter(|o| o.name == m.name).count() > 1 {
            return Err(format!("metric `{}` is emitted twice", m.name));
        }
        if !m.value.is_finite() || (positive && m.value <= 0.0) {
            return Err(format!(
                "metric `{}` has no valid value: {}",
                m.name, m.value
            ));
        }
    }
    match declared
        .iter()
        .find(|(n, _)| !emitted.iter().any(|m| m.name == n.as_str()))
    {
        Some((n, _)) => Err(format!("declared metric `{n}` is not emitted")),
        None => Ok(()),
    }
}

/// The final result line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let ms = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(ms)),
    ])
    .to_json_string()
}
