//! Outside-in host-time benchmark of the GS-DRAM simulator.
//!
//! Three workloads drive the simulator only through its public API:
//! `htap_gs` and `gemm_gs` run whole machines (the paper's fig11 HTAP
//! mix and fig13 GEMM on GS-DRAM), `dram_saturate` feeds bare memory
//! controllers an open-loop request stream. A run repeats its workload
//! until the time budget is spent; untraced repetitions give the
//! end-to-end host-time metrics, traced ones (spans and counts recorded
//! around the benchmark's own calls into each layer) the per-layer
//! metrics. Every repetition is checked, and every deterministic count
//! must repeat exactly. See `README.md` for the metric tables.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gsdram_core::json::Json;

pub mod machine;
pub mod metrics;
pub mod probe;
pub mod saturate;
pub mod spans;
pub mod stats;

use machine::GemmReference;
use metrics::Metric;
use probe::{Probe, SharedProbe};
use spans::{Clock, SpanId, Spans};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig11 HTAP on the GS-DRAM layout: gathers beside transactions.
    HtapGs,
    /// fig13 GS-DRAM tiled GEMM: dispatch- and cache-bound.
    GemmGs,
    /// Open-loop stream into bare controllers, serial then sharded.
    DramSaturate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::HtapGs, Workload::GemmGs, Workload::DramSaturate];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HtapGs => "htap_gs",
            Workload::GemmGs => "gemm_gs",
            Workload::DramSaturate => "dram_saturate",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    /// `htap_gs` table size in tuples.
    pub tuples: u64,
    /// `gemm_gs` matrix dimension.
    pub gemm_n: usize,
    /// `dram_saturate` requests per pass.
    pub requests: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn full() -> Self {
        Sizes {
            tuples: 1 << 20,
            gemm_n: 512,
            requests: 100_000,
        }
    }

    /// Sizes small enough for the self-test.
    pub fn tiny() -> Self {
        Sizes {
            tuples: 4096,
            gemm_n: 64,
            requests: 4000,
        }
    }
}

/// The Table-1 clocks every workload runs at (4 GHz CPU, DDR3-1600),
/// for converting cycles to simulated time.
pub(crate) fn table1() -> gsdram_system::SystemConfig {
    gsdram_system::SystemConfig::table1(1, 1 << 20)
}

/// Deterministic counts of one repetition, by name.
pub type Counts = BTreeMap<&'static str, u64>;

/// A correctness check on one repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// `got` must equal `want`.
    Eq(&'static str, u64, u64),
    /// The value must be positive.
    Positive(&'static str, u64),
    /// The condition must hold.
    Holds(&'static str, bool),
}

impl Check {
    /// Whether the check passed.
    pub fn ok(&self) -> bool {
        match *self {
            Check::Eq(_, got, want) => got == want,
            Check::Positive(_, v) => v > 0,
            Check::Holds(_, ok) => ok,
        }
    }

    /// The check's name.
    pub fn name(&self) -> &'static str {
        match *self {
            Check::Eq(n, ..) | Check::Positive(n, _) | Check::Holds(n, _) => n,
        }
    }

    fn describe(&self) -> String {
        match *self {
            Check::Eq(n, got, want) => format!("{n}: got {got}, want {want}"),
            Check::Positive(n, v) => format!("{n}: {v} is not positive"),
            Check::Holds(n, _) => format!("{n}: does not hold"),
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Whether probes were attached (spans, observer, wrapped programs).
    pub traced: bool,
    /// Host seconds to build the machine or controllers and generate
    /// the workload's inputs.
    pub setup_s: f64,
    /// Host seconds of the timed simulation (`Machine::run`, or the
    /// serial pass of `dram_saturate`).
    pub run_s: f64,
    /// Host seconds of the sharded pass (`dram_saturate` only).
    pub sharded_s: f64,
    /// Modelled results and work counts that every repetition, traced
    /// or not, must reproduce exactly.
    pub counts: Counts,
    /// Counts only the probes see; every traced repetition must
    /// reproduce them exactly.
    pub trace_counts: Counts,
    /// Per-layer host seconds (traced repetitions).
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

/// Times `f`. With a probe (a traced repetition) the call is also
/// recorded as a span named `name` under `parent`, whose id `f` gets
/// for its own children.
pub(crate) fn timed<T>(
    probe: Option<&SharedProbe>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, f64) {
    let Some(probe) = probe else {
        let start = Instant::now();
        let out = f(None);
        return (out, start.elapsed().as_secs_f64());
    };
    let id = {
        let mut p = probe.borrow_mut();
        let rep = p.rep;
        p.spans.open(rep, name, parent)
    };
    let out = f(Some(id));
    let mut p = probe.borrow_mut();
    p.spans.close(id);
    (out, p.spans.get(id).dur_s())
}

/// Fewest untraced repetitions of a measuring run: enough that the
/// tail percentile (ten samples beyond it) sits at or above the median.
pub const MIN_REPS: usize = 2 * stats::TAIL_BEYOND + 1;

/// Fewest repetitions of a traced run: two untraced, two traced.
pub const MIN_TRACED_REPS: usize = 4;

/// No new repetition starts after this many seconds, whatever the
/// budget, so a run on a slow host still ends in time.
pub const HARD_STOP_S: f64 = 120.0;

/// One benchmark run: every repetition made, and what they share.
#[derive(Debug)]
pub struct Run {
    /// The workload run.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// The sizes run.
    pub sizes: Sizes,
    /// Every repetition, in order.
    pub reps: Vec<Rep>,
    /// The spans of the traced repetitions.
    pub spans: Spans,
}

/// Repeats `workload` until `seconds` have passed and enough
/// repetitions exist. With `trace`, untraced and traced repetitions
/// alternate, starting untraced.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Run {
    let probe: SharedProbe = Rc::new(RefCell::new(Probe {
        spans: Spans::new(Clock::calibrated()),
        events: Default::default(),
        rep: 0,
        parent: 0,
    }));
    // The gold checksum is the checker's, computed once, untimed.
    let reference = (workload == Workload::GemmGs).then(|| GemmReference::new(sizes));
    let one = |probe: Option<&SharedProbe>, root: Option<SpanId>| match workload {
        Workload::HtapGs => machine::htap_rep(sizes, seed, probe, root),
        Workload::GemmGs => machine::gemm_rep(
            sizes,
            reference.as_ref().expect("built for gemm_gs"),
            probe,
            root,
        ),
        Workload::DramSaturate => saturate::rep(sizes, seed, probe, root),
    };
    let min_reps = if trace { MIN_TRACED_REPS } else { MIN_REPS };
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let i = reps.len();
        let rep = if trace && i % 2 == 1 {
            probe.borrow_mut().rep = u32::try_from(i).unwrap_or(u32::MAX);
            let (rep, _) = timed(Some(&probe), "rep", None, |root| one(Some(&probe), root));
            rep
        } else {
            one(None, None)
        };
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= HARD_STOP_S || (elapsed >= seconds && reps.len() >= min_reps) {
            break;
        }
    }
    let spans = Rc::try_unwrap(probe)
        .expect("no probe outlives the run")
        .into_inner()
        .spans;
    Run {
        workload,
        seed,
        sizes: sizes.clone(),
        reps,
        spans,
    }
}

/// Judges every repetition: a repetition fails when a check fails or
/// when its deterministic counts differ from the first repetition's
/// (the first traced one's, for probe-only counts). Returns the number
/// failed and why.
pub fn assess(reps: &[Rep]) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let first_traced = reps.iter().find(|r| r.traced);
    for (i, r) in reps.iter().enumerate() {
        let mut why: Vec<String> = r
            .checks
            .iter()
            .filter(|c| !c.ok())
            .map(Check::describe)
            .collect();
        why.extend(differing(&reps[0].counts, &r.counts));
        if let (true, Some(t)) = (r.traced, first_traced) {
            why.extend(differing(&t.trace_counts, &r.trace_counts));
        }
        if !why.is_empty() {
            failures.push(format!("rep {i}: {}", why.join("; ")));
        }
    }
    (failures.len() as u64, failures)
}

fn differing(want: &Counts, got: &Counts) -> Option<String> {
    let keys: Vec<&str> = want
        .keys()
        .chain(got.keys())
        .filter(|k| want.get(*k) != got.get(*k))
        .copied()
        .collect();
    (!keys.is_empty()).then(|| format!("counts differ from the first repetition: {keys:?}"))
}

impl Run {
    /// The metrics of this run: the end-to-end set for an untraced run,
    /// the per-layer set for a traced one.
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        if trace {
            metrics::per_layer(self)
        } else {
            metrics::end_to_end(self)
        }
    }

    /// What produced this run and what it observed, for the record.
    pub fn stamp(&self) -> Json {
        let s = &self.sizes;
        let first = &self.reps[0].counts;
        let runs: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.run_s)
            .collect();
        let (_, pct) = stats::tail(&runs);
        let n = |v: u64| Json::Num(v as f64);
        let text = |v: &str| Json::Str(v.to_string());
        let mut m: Vec<(String, Json)> = vec![
            ("workload".into(), text(self.workload.name())),
            ("seed".into(), n(self.seed)),
        ];
        let sizes: Vec<(&str, Json)> = match self.workload {
            Workload::HtapGs => vec![
                ("txn_seed", n(self.seed)),
                ("tuples", n(s.tuples)),
                ("txn_mix", text("1 read-only, 1 write-only field")),
            ],
            Workload::GemmGs => vec![
                (
                    "input",
                    text("fig13 closed-form init; the seed does not change it"),
                ),
                ("n", n(s.gemm_n as u64)),
                ("tile", n(machine::GEMM_TILE as u64)),
                ("stripes", n(machine::GEMM_STRIPES as u64)),
            ],
            Workload::DramSaturate => vec![
                ("stream_seed", n(self.seed)),
                ("requests", n(s.requests as u64)),
                ("channels", n(saturate::CHANNELS as u64)),
                ("arrival_gap_mem_cycles", n(saturate::ARRIVAL_GAP)),
                ("wave_span_mem_cycles", n(saturate::WAVE_SPAN)),
                ("late_arrivals", n(first["saturate.late_arrivals"])),
                ("late_max_mem_cycles", n(first["saturate.late_max_cycles"])),
            ],
        };
        m.extend(sizes.into_iter().map(|(k, v)| (k.to_string(), v)));
        m.extend([
            ("max_queue_depth".into(), n(first["dram.queue_depth_max"])),
            (
                "traced_reps".into(),
                n(self.reps.iter().filter(|r| r.traced).count() as u64),
            ),
            ("run_s_samples".into(), n(runs.len() as u64)),
            (
                "run_s_values".into(),
                Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("run_s_tail_percentile".into(), Json::Num(pct)),
            ("sample_every".into(), n(spans::SAMPLE_EVERY)),
            ("timer_ns".into(), n(self.spans.clock().timer_ns())),
            (
                "available_parallelism".into(),
                n(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
            ),
            ("rustc".into(), text(env!("SIMBENCH_RUSTC"))),
            ("profile".into(), text(env!("SIMBENCH_PROFILE"))),
            ("commit".into(), text(env!("SIMBENCH_COMMIT"))),
        ]);
        Json::Obj(m)
    }
}
