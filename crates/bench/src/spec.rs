//! Declarative run specifications.
//!
//! A [`RunSpec`] is pure data: a machine shape ([`MachineSpec`]) plus a
//! workload ([`WorkloadSpec`]). [`RunSpec::execute`] builds the
//! machine, runs the workload to completion, verifies the functional
//! result where one is analytically known, and returns a
//! [`RunOutcome`] whose [`StatsNode`] tree is a pure function of the
//! spec — which is what lets the sweep runner execute specs on worker
//! threads and still produce output bit-identical to a serial run.

use gsdram_core::port::EventSink;
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::PatternId;
use gsdram_dram::controller::{RowPolicy, SchedPolicy};
use gsdram_dram::mapping::MapHash;
use gsdram_dram::timing::TimingPack;
use gsdram_patterns::{Compiled, PatternLayout, PatternSpec};
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::Program;
use gsdram_telemetry::{Collector, Telemetry};
use gsdram_workloads::filter::FilterQuery;
use gsdram_workloads::gemm::{program as gemm_program, Gemm, GemmVariant};
use gsdram_workloads::graph::{scan as graph_scan, updates as graph_updates, Graph, GraphLayout};
use gsdram_workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};
use gsdram_workloads::kvstore::{inserts, lookups, KvLayout, KvStore};
use gsdram_workloads::transpose::{program as transpose_program, Transpose, TransposeLayout};

use crate::args::Args;
use crate::listing::{self, Entry};

/// Channel/rank counts the CLI accepts: powers of two so every
/// XOR-matrix mapping stage stays bijective (and `MAX_INDEX_BITS`
/// bounds them well above any plausible config).
const ACCEPTED_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Validates a `--channels`/`--ranks` count, with a proper CLI error
/// instead of the assert the XOR stages would otherwise hit.
fn validate_count(what: &str, n: usize) -> Result<(), String> {
    if ACCEPTED_COUNTS.contains(&n) {
        return Ok(());
    }
    Err(format!(
        "invalid {what} {n}: accepted values are 1, 2, 4, 8, 16 \
         (power-of-two counts keep the XOR-matrix mapping stages bijective)"
    ))
}

/// The registered scheduling engines as listing entries (for the
/// did-you-mean error on a bad `--sched`).
fn sched_entries() -> Vec<Entry> {
    vec![
        Entry::new("fr-fcfs", "first-ready FCFS (Table 1 default)"),
        Entry::new("fcfs", "strict arrival order per bank"),
        Entry::new("fr-fcfs-cap", "FR-FCFS with starvation cap (`:N` to set)"),
        Entry::new("bank-rr", "bank-round-robin batches (`:N` to set)"),
    ]
}

/// The mapping presets as listing entries.
fn mapping_entries() -> Vec<Entry> {
    MapHash::VARIANTS
        .iter()
        .map(|&(_, name, note)| Entry::new(name, note))
        .collect()
}

/// The timing packs as listing entries.
fn timing_entries() -> Vec<Entry> {
    TimingPack::VARIANTS
        .iter()
        .map(|&(_, name, note)| Entry::new(name, note))
        .collect()
}

/// The machine half of a run spec (everything `SystemConfig` needs).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Core count.
    pub cores: usize,
    /// Simulated memory bytes.
    pub mem_bytes: usize,
    /// Stride prefetcher on?
    pub prefetch: bool,
    /// Impulse-style controller-side gather instead of GS-DRAM?
    pub impulse: bool,
    /// Memory scheduling policy.
    pub sched: SchedPolicy,
    /// XOR-stage preset of the physical-address map.
    pub mapping: MapHash,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// DRAM ranks.
    pub ranks: usize,
    /// DRAM channels.
    pub channels: usize,
    /// DDR timing pack.
    pub timing: TimingPack,
}

impl MachineSpec {
    /// The Table 1 machine (FR-FCFS, open row, 1 rank/channel).
    pub fn table1(cores: usize, mem_bytes: usize) -> MachineSpec {
        MachineSpec {
            cores,
            mem_bytes,
            prefetch: false,
            impulse: false,
            sched: SchedPolicy::FrFcfs,
            mapping: MapHash::Direct,
            row_policy: RowPolicy::Open,
            ranks: 1,
            channels: 1,
            timing: TimingPack::Ddr3_1600,
        }
    }

    /// Enables the stride prefetcher. Builder-style.
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Switches to the Impulse gather baseline. Builder-style.
    pub fn with_impulse(mut self) -> Self {
        self.impulse = true;
        self
    }

    /// Applies the shared machine flags (`--prefetch`, `--impulse`,
    /// `--fcfs`, `--sched <policy>`, `--mapping <hash>`,
    /// `--timing <pack>`, `--closed-row`, `--ranks`, `--channels`) on
    /// top of this spec — the one definition both `gsdram-sim` and the
    /// experiment registry use.
    ///
    /// Unknown policy/preset names and out-of-range counts are hard
    /// CLI errors (with a did-you-mean suggestion and the accepted
    /// listing), not warn-and-keep: a silently substituted machine
    /// would produce figures for a config the user never asked for.
    pub fn with_args(mut self, args: &Args) -> Result<Self, String> {
        if args.flag("--prefetch") {
            self.prefetch = true;
        }
        if args.flag("--impulse") {
            self.impulse = true;
        }
        if args.flag("--fcfs") {
            self.sched = SchedPolicy::Fcfs;
        }
        if let Some(s) = args.value("--sched") {
            match SchedPolicy::parse(&s) {
                Some(p) => self.sched = p,
                None => {
                    return Err(listing::unknown(
                        "--sched",
                        &s,
                        "scheduling policies",
                        &sched_entries(),
                    ))
                }
            }
        }
        if let Some(s) = args.value("--mapping") {
            match MapHash::parse(&s) {
                Some(h) => self.mapping = h,
                None => {
                    return Err(listing::unknown(
                        "--mapping",
                        &s,
                        "mapping presets",
                        &mapping_entries(),
                    ))
                }
            }
        }
        if let Some(s) = args.value("--timing") {
            match TimingPack::parse(&s) {
                Some(t) => self.timing = t,
                None => {
                    return Err(listing::unknown(
                        "--timing",
                        &s,
                        "timing packs",
                        &timing_entries(),
                    ))
                }
            }
        }
        if args.flag("--closed-row") {
            self.row_policy = RowPolicy::Closed;
        }
        self.ranks = args.usize("--ranks", self.ranks);
        self.channels = args.usize("--channels", self.channels);
        validate_count("--ranks", self.ranks)?;
        validate_count("--channels", self.channels)?;
        Ok(self)
    }

    /// The `SystemConfig` this spec describes.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::table1(self.cores, self.mem_bytes);
        if self.prefetch {
            cfg = cfg.with_prefetch();
        }
        if self.impulse {
            cfg = cfg.with_impulse();
        }
        if self.timing != TimingPack::default() {
            cfg = cfg.with_timing(self.timing);
        }
        cfg.controller.policy = self.sched;
        cfg.controller.row_policy = self.row_policy;
        cfg.mapping = self.mapping;
        cfg.with_ranks(self.ranks).with_channels(self.channels)
    }

    /// Builds the machine.
    pub fn build(&self) -> Machine {
        Machine::new(self.config())
    }

    /// One-line description for reports. The non-default axes
    /// (`mapping=`, `timing=`) only appear when set, so descriptions
    /// of Table 1 machines — and hence the frozen figure JSON — are
    /// unchanged by new axes.
    pub fn describe(&self) -> String {
        format!(
            "cores={} mem={}MiB{}{} sched={} row={} ranks={} channels={}{}{}",
            self.cores,
            self.mem_bytes >> 20,
            if self.prefetch { " prefetch" } else { "" },
            if self.impulse { " impulse" } else { "" },
            self.sched.label(),
            match self.row_policy {
                RowPolicy::Open => "open",
                RowPolicy::Closed => "closed",
            },
            self.ranks,
            self.channels,
            if self.mapping == MapHash::Direct {
                String::new()
            } else {
                format!(" mapping={}", self.mapping.label())
            },
            if self.timing == TimingPack::default() {
                String::new()
            } else {
                format!(" timing={}", self.timing.label())
            }
        )
    }
}

/// The workload half of a run spec.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// §5.1 transactions: `txns` random transactions of mix `spec`.
    Transactions {
        /// Storage mechanism.
        layout: Layout,
        /// Read/write mix.
        spec: TxnSpec,
        /// Table size.
        tuples: u64,
        /// Transactions to run.
        txns: u64,
        /// Workload RNG seed.
        seed: u64,
    },
    /// §5.1 analytics: sum of `columns` over the table.
    Analytics {
        /// Storage mechanism.
        layout: Layout,
        /// Table size.
        tuples: u64,
        /// Fields to sum.
        columns: Vec<usize>,
    },
    /// §5.1 HTAP: core 0 runs analytics over column 0, core 1 endless
    /// transactions; stops when the analytics query completes.
    Htap {
        /// Storage mechanism.
        layout: Layout,
        /// Table size.
        tuples: u64,
        /// Transaction mix for the endless thread.
        spec: TxnSpec,
        /// Workload RNG seed.
        seed: u64,
    },
    /// §5.2 GEMM.
    Gemm {
        /// Matrix dimension.
        n: usize,
        /// Mechanism.
        variant: GemmVariant,
        /// Outer-loop sampling (`None` = simulate everything).
        sample: Option<usize>,
    },
    /// Extension: selective projection `WHERE field0 < threshold`.
    Filter {
        /// Storage mechanism.
        layout: Layout,
        /// Table size.
        tuples: u64,
        /// Selection threshold on field 0.
        threshold: u64,
        /// Expected match count (verified when `Some`).
        expected_matches: Option<u64>,
    },
    /// Extension: out-of-place matrix transpose.
    Transpose {
        /// Source layout.
        layout: TransposeLayout,
        /// Matrix dimension.
        n: usize,
    },
    /// §5.3 key-value store lookups (scan keys, read value).
    KvLookups {
        /// Pair-array layout.
        layout: KvLayout,
        /// Number of pairs.
        pairs: u64,
        /// Scan window.
        scan_len: u64,
        /// Lookups to run.
        count: u64,
        /// Workload RNG seed.
        seed: u64,
    },
    /// §5.3 key-value store inserts.
    KvInserts {
        /// Pair-array layout.
        layout: KvLayout,
        /// Number of pairs.
        pairs: u64,
        /// Inserts to run.
        count: u64,
        /// Workload RNG seed.
        seed: u64,
    },
    /// §5.3 graph traversal scan (sum one field of every node).
    GraphScan {
        /// Node-array layout.
        layout: GraphLayout,
        /// Node count.
        nodes: u64,
        /// Field to scan.
        field: usize,
    },
    /// Extension: a `gsdram-patterns` spec — an arbitrary declarative
    /// gather/scatter index stream over a word array.
    Pattern {
        /// The parsed pattern spec.
        spec: PatternSpec,
        /// Data-array layout (row vs GS-DRAM gathered addressing).
        layout: PatternLayout,
    },
    /// §5.3 graph node updates.
    GraphUpdates {
        /// Node-array layout.
        layout: GraphLayout,
        /// Node count.
        nodes: u64,
        /// Updates to run.
        count: u64,
        /// Workload RNG seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        match self {
            WorkloadSpec::Transactions {
                layout,
                spec,
                tuples,
                txns,
                seed,
            } => format!(
                "transactions {} mix={} tuples={tuples} txns={txns} seed={seed}",
                layout.label(),
                spec.label()
            ),
            WorkloadSpec::Analytics {
                layout,
                tuples,
                columns,
            } => {
                format!(
                    "analytics {} tuples={tuples} columns={columns:?}",
                    layout.label()
                )
            }
            WorkloadSpec::Htap {
                layout,
                tuples,
                spec,
                seed,
            } => format!(
                "htap {} tuples={tuples} mix={} seed={seed}",
                layout.label(),
                spec.label()
            ),
            WorkloadSpec::Gemm { n, variant, sample } => {
                format!("gemm {} n={n} sample={sample:?}", variant.label())
            }
            WorkloadSpec::Filter {
                layout,
                tuples,
                threshold,
                ..
            } => format!(
                "filter {} tuples={tuples} threshold={threshold}",
                layout.label()
            ),
            WorkloadSpec::Transpose { layout, n } => {
                format!("transpose {} n={n}", layout.label())
            }
            WorkloadSpec::KvLookups {
                layout,
                pairs,
                scan_len,
                count,
                seed,
            } => format!(
                "kv-lookups {} pairs={pairs} scan={scan_len} count={count} seed={seed}",
                layout.label()
            ),
            WorkloadSpec::KvInserts {
                layout,
                pairs,
                count,
                seed,
            } => {
                format!(
                    "kv-inserts {} pairs={pairs} count={count} seed={seed}",
                    layout.label()
                )
            }
            WorkloadSpec::GraphScan {
                layout,
                nodes,
                field,
            } => {
                format!("graph-scan {} nodes={nodes} field={field}", layout.label())
            }
            WorkloadSpec::Pattern { spec, layout } => {
                format!("pattern {} layout={}", spec.describe(), layout.label())
            }
            WorkloadSpec::GraphUpdates {
                layout,
                nodes,
                count,
                seed,
            } => {
                format!(
                    "graph-updates {} nodes={nodes} count={count} seed={seed}",
                    layout.label()
                )
            }
        }
    }
}

/// One experiment data point: machine × workload, with a stable id.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Stable identifier (used as the stats-node name and in logs),
    /// e.g. `fig10/pref/k1/gs-dram`.
    pub id: String,
    /// Machine shape.
    pub machine: MachineSpec,
    /// Workload.
    pub workload: WorkloadSpec,
}

/// The result of executing one [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The spec that produced this outcome.
    pub spec: RunSpec,
    /// The raw machine report.
    pub report: RunReport,
    /// Sampling scale factor (1.0 unless the workload sampled).
    pub scale: f64,
    /// Simulated seconds ( `cpu_cycles / f_cpu`, unscaled).
    pub seconds: f64,
    /// Workload-specific extra counters (matches, throughput, …).
    extra: Vec<(String, f64)>,
}

impl RunOutcome {
    /// `cpu_cycles × scale` — the figure-level cycle count (sampled
    /// workloads scale back to the full problem).
    pub fn scaled_cycles(&self) -> f64 {
        self.report.cpu_cycles as f64 * self.scale
    }

    /// A workload-specific extra value by name.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The outcome as a stats subtree named after the spec id:
    /// spec descriptions + derived gauges + the full machine report.
    pub fn stats(&self) -> StatsNode {
        let mut node = StatsNode::new(self.spec.id.clone())
            .text("machine", self.spec.machine.describe())
            .text("workload", self.spec.workload.describe())
            .gauge("seconds", self.seconds)
            .gauge("scale", self.scale)
            .gauge("scaled_cycles", self.scaled_cycles());
        for (k, v) in &self.extra {
            node = node.gauge(k.clone(), *v);
        }
        node.child(self.report.stats_node("report"))
    }
}

/// Creates and initialises a §5.1 table, honouring the Impulse
/// baseline: Impulse runs on a commodity (unshuffled) module, so the
/// GS-DRAM layout is allocated without the shuffle while keeping the
/// pattern metadata that marks the page gatherable.
fn create_table(m: &mut Machine, layout: Layout, tuples: u64, impulse: bool) -> Table {
    if impulse && layout == Layout::GsDram {
        let base = m.pattmalloc(tuples * 64, false, PatternId(7));
        let t = Table {
            layout,
            tuples,
            base,
        };
        for tu in 0..tuples {
            for f in 0..8u64 {
                m.poke(t.field_addr(tu, f as usize), tu * 8 + f);
            }
        }
        t
    } else {
        Table::create(m, layout, tuples)
    }
}

fn run_all(m: &mut Machine, p: &mut dyn Program) -> RunReport {
    let mut programs: Vec<&mut dyn Program> = vec![p];
    m.run(&mut programs, StopWhen::AllDone)
}

impl RunSpec {
    /// Executes the spec: builds the machine, runs the workload,
    /// verifies analytically-known results, and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if a workload's verified result (column sums, match
    /// counts, transaction completion) is wrong — a simulator bug, not
    /// an experiment outcome.
    pub fn execute(&self) -> RunOutcome {
        self.execute_inner(None)
    }

    /// Executes the spec with a telemetry [`Collector`] attached,
    /// returning the outcome together with everything the collector
    /// gathered (event ring, histograms, per-pattern/per-bank
    /// breakdowns). `capacity` bounds the raw-event and occupancy
    /// ring buffers.
    ///
    /// Observation never perturbs simulation: the outcome (and its
    /// stats tree) is bit-identical to [`RunSpec::execute`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RunSpec::execute`].
    pub fn execute_traced(&self, capacity: usize) -> (RunOutcome, Telemetry) {
        let collector = Collector::with_capacity(capacity);
        let outcome = self.execute_inner(Some(collector.sink()));
        (outcome, collector.into_telemetry())
    }

    fn execute_inner(&self, sink: Option<Box<dyn EventSink>>) -> RunOutcome {
        let mut m = self.machine.build();
        if let Some(sink) = sink {
            m.attach_observer(sink);
        }
        let impulse = self.machine.impulse;
        let mut extra: Vec<(String, f64)> = Vec::new();
        let mut scale = 1.0f64;
        let report = match &self.workload {
            WorkloadSpec::Transactions {
                layout,
                spec,
                tuples,
                txns,
                seed,
            } => {
                let table = create_table(&mut m, *layout, *tuples, impulse);
                let mut p = transactions(table, *spec, *txns, *seed);
                let r = run_all(&mut m, &mut p);
                assert_eq!(
                    r.progress[0], *txns,
                    "{}: all transactions must commit",
                    self.id
                );
                r
            }
            WorkloadSpec::Analytics {
                layout,
                tuples,
                columns,
            } => {
                let table = create_table(&mut m, *layout, *tuples, impulse);
                let mut p = analytics(table, columns);
                let r = run_all(&mut m, &mut p);
                let want = columns
                    .iter()
                    .fold(0u64, |a, &f| a.wrapping_add(table.expected_column_sum(f)));
                assert_eq!(r.results[0], want, "{}: column sum mismatch", self.id);
                r
            }
            WorkloadSpec::Htap {
                layout,
                tuples,
                spec,
                seed,
            } => {
                let table = create_table(&mut m, *layout, *tuples, impulse);
                let mut anal = analytics(table, &[0]);
                let mut txn = transactions(table, *spec, u64::MAX, *seed);
                let r = {
                    let mut programs: Vec<&mut dyn Program> = vec![&mut anal, &mut txn];
                    m.run(&mut programs, StopWhen::CoreDone(0))
                };
                let secs = r.seconds(m.config());
                extra.push((
                    "txn_throughput_mps".into(),
                    r.progress[1] as f64 / secs / 1e6,
                ));
                r
            }
            WorkloadSpec::Gemm { n, variant, sample } => {
                let g = Gemm::create(&mut m, *n, *variant);
                g.init(&mut m);
                let (mut p, (full, simulated)) = gemm_program(g, *sample);
                scale = full as f64 / simulated as f64;
                run_all(&mut m, &mut p)
            }
            WorkloadSpec::Filter {
                layout,
                tuples,
                threshold,
                expected_matches,
            } => {
                let table = create_table(&mut m, *layout, *tuples, impulse);
                let mut q = FilterQuery::new(table, 0, *threshold);
                let r = run_all(&mut m, &mut q);
                if let Some(want) = expected_matches {
                    assert_eq!(q.matches(), *want, "{}: match count", self.id);
                }
                extra.push(("matches".into(), q.matches() as f64));
                r
            }
            WorkloadSpec::Transpose { layout, n } => {
                let t = Transpose::create(&mut m, *layout, *n);
                let mut p = transpose_program(t);
                run_all(&mut m, &mut p)
            }
            WorkloadSpec::KvLookups {
                layout,
                pairs,
                scan_len,
                count,
                seed,
            } => {
                let kv = KvStore::create(&mut m, *layout, *pairs);
                let mut p = lookups(kv, *scan_len, *count, *seed);
                run_all(&mut m, &mut p)
            }
            WorkloadSpec::KvInserts {
                layout,
                pairs,
                count,
                seed,
            } => {
                let kv = KvStore::create(&mut m, *layout, *pairs);
                let mut p = inserts(kv, *count, *seed);
                let r = run_all(&mut m, &mut p);
                assert_eq!(r.progress[0], *count, "{}: all inserts must land", self.id);
                r
            }
            WorkloadSpec::GraphScan {
                layout,
                nodes,
                field,
            } => {
                let g = Graph::create(&mut m, *layout, *nodes);
                let mut p = graph_scan(g, *field);
                let r = run_all(&mut m, &mut p);
                // Σ_v (8v + field): the scan sum is analytically known.
                let n = *nodes;
                let want = 8u64
                    .wrapping_mul(n.wrapping_mul(n.wrapping_sub(1)) / 2)
                    .wrapping_add(*field as u64 * n);
                assert_eq!(r.results[0], want, "{}: scan sum mismatch", self.id);
                r
            }
            WorkloadSpec::GraphUpdates {
                layout,
                nodes,
                count,
                seed,
            } => {
                let g = Graph::create(&mut m, *layout, *nodes);
                let mut p = graph_updates(g, *count, *seed);
                let r = run_all(&mut m, &mut p);
                assert_eq!(r.progress[0], *count, "{}: all updates must land", self.id);
                r
            }
            WorkloadSpec::Pattern { spec, layout } => {
                let c = Compiled::new(spec.clone());
                let data = c.create(&mut m, *layout);
                let mut p = c.program(*layout, data);
                let r = run_all(&mut m, &mut p);
                assert_eq!(
                    r.progress[0],
                    c.expected_units(),
                    "{}: all pattern accesses must complete",
                    self.id
                );
                assert_eq!(
                    r.results[0],
                    c.expected_sum(),
                    "{}: pattern checksum mismatch",
                    self.id
                );
                m.drain_caches();
                for (addr, want) in c.expected_finals(data) {
                    assert_eq!(
                        m.peek(addr),
                        want,
                        "{}: scatter final value at {addr:#x}",
                        self.id
                    );
                }
                extra.push(("accesses".into(), c.count() as f64));
                r
            }
        };
        let seconds = report.seconds(m.config());
        RunOutcome {
            spec: self.clone(),
            report,
            scale,
            seconds,
            extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytics_spec_executes_and_reports() {
        let spec = RunSpec {
            id: "test/analytics".into(),
            machine: MachineSpec::table1(1, 8 << 20),
            workload: WorkloadSpec::Analytics {
                layout: Layout::GsDram,
                tuples: 2048,
                columns: vec![0],
            },
        };
        let o = spec.execute();
        assert!(o.report.cpu_cycles > 0);
        assert_eq!(o.report.dram.reads, 2048 / 8);
        let stats = o.stats();
        assert_eq!(stats.name(), "test/analytics");
        assert_eq!(stats.counter_at("report/dram/reads"), Some(2048 / 8));
        assert!(stats.gauge_at("seconds").unwrap() > 0.0);
    }

    #[test]
    fn identical_specs_produce_identical_stats() {
        let spec = RunSpec {
            id: "test/txn".into(),
            machine: MachineSpec::table1(1, 8 << 20),
            workload: WorkloadSpec::Transactions {
                layout: Layout::RowStore,
                spec: TxnSpec {
                    read_only: 1,
                    write_only: 1,
                    read_write: 0,
                },
                tuples: 1024,
                txns: 100,
                seed: 42,
            },
        };
        assert_eq!(spec.execute().stats(), spec.execute().stats());
    }

    #[test]
    fn machine_spec_args_roundtrip() {
        let args = Args::new(["--prefetch", "--fcfs", "--ranks", "2"]);
        let ms = MachineSpec::table1(1, 1 << 20).with_args(&args).unwrap();
        assert!(ms.prefetch);
        assert_eq!(ms.sched, SchedPolicy::Fcfs);
        assert_eq!(ms.ranks, 2);
        let cfg = ms.config();
        assert!(cfg.prefetch);
        assert_eq!(cfg.controller.ranks, 2);
    }

    #[test]
    fn machine_spec_sched_mapping_args() {
        let args = Args::new(["--sched", "fr-fcfs-cap:6", "--mapping", "xor-bank"]);
        let ms = MachineSpec::table1(1, 1 << 20).with_args(&args).unwrap();
        assert_eq!(ms.sched, SchedPolicy::FrFcfsCap { cap: 6 });
        assert_eq!(ms.mapping, MapHash::XorBank);
        let cfg = ms.config();
        assert_eq!(cfg.controller.policy, SchedPolicy::FrFcfsCap { cap: 6 });
        assert_eq!(cfg.mapping, MapHash::XorBank);
    }

    #[test]
    fn machine_spec_timing_and_channel_args() {
        let args = Args::new(["--timing", "ddr4-2400", "--channels", "4"]);
        let ms = MachineSpec::table1(1, 1 << 20).with_args(&args).unwrap();
        assert_eq!(ms.timing, TimingPack::Ddr4_2400);
        assert_eq!(ms.channels, 4);
        let cfg = ms.config();
        assert_eq!(cfg.cpu_per_mem, 3);
        assert_eq!(cfg.channels, 4);
    }

    #[test]
    fn machine_spec_rejects_unknown_names_with_suggestions() {
        let base = || MachineSpec::table1(1, 1 << 20);
        let e = base()
            .with_args(&Args::new(["--sched", "fr-fcsf"]))
            .unwrap_err();
        assert!(e.contains("did you mean 'fr-fcfs'"), "{e}");
        let e = base()
            .with_args(&Args::new(["--mapping", "xor-bnak"]))
            .unwrap_err();
        assert!(e.contains("did you mean 'xor-bank'"), "{e}");
        let e = base()
            .with_args(&Args::new(["--timing", "ddr4-2433"]))
            .unwrap_err();
        assert!(e.contains("did you mean 'ddr4-2400'"), "{e}");
        // Every error carries the full listing for the flag.
        assert!(e.contains("ddr3-1600"), "{e}");
    }

    #[test]
    fn machine_spec_rejects_non_power_of_two_counts() {
        let e = MachineSpec::table1(1, 1 << 20)
            .with_args(&Args::new(["--channels", "3"]))
            .unwrap_err();
        assert!(e.contains("invalid --channels 3"), "{e}");
        assert!(e.contains("1, 2, 4, 8, 16"), "{e}");
        let e = MachineSpec::table1(1, 1 << 20)
            .with_args(&Args::new(["--ranks", "6"]))
            .unwrap_err();
        assert!(e.contains("invalid --ranks 6"), "{e}");
    }

    #[test]
    fn describe_appends_non_default_axes_only() {
        let ms = MachineSpec::table1(1, 1 << 20);
        assert_eq!(
            ms.describe(),
            "cores=1 mem=1MiB sched=fr-fcfs row=open ranks=1 channels=1"
        );
        let mut ms = ms;
        ms.sched = SchedPolicy::BankRr { batch: 4 };
        ms.mapping = MapHash::XorBank;
        assert_eq!(
            ms.describe(),
            "cores=1 mem=1MiB sched=bank-rr4 row=open ranks=1 channels=1 mapping=xor-bank"
        );
        ms.timing = TimingPack::Ddr4_2400;
        assert_eq!(
            ms.describe(),
            "cores=1 mem=1MiB sched=bank-rr4 row=open ranks=1 channels=1 mapping=xor-bank timing=ddr4-2400"
        );
    }
}
