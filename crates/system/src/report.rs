//! Run-report assembly: gathering every component's statistics into
//! one [`RunReport`] / stats tree at the end of a
//! [`Machine::run`](crate::Machine::run).

#![expect(
    clippy::disallowed_types,
    reason = "float leaf: report values derived from finished integer counters; never feeds simulated timing"
)]

use gsdram_cache::cache::CacheStats;
use gsdram_cache::dbi::DbiStats;
use gsdram_cache::prefetch::PrefetchStats;
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_dram::controller::ControllerStats;
use gsdram_dram::energy::EnergyBreakdown;
use gsdram_telemetry::Histogram;

use crate::bridge::ChannelReport;
use crate::config::SystemConfig;
use crate::energy::EnergyReport;
use crate::exec::StopWhen;
use crate::machine::Machine;
use crate::ops::Program;

/// Everything measured during one [`Machine::run`](crate::Machine::run).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock CPU cycles from run start to the stop condition.
    pub cpu_cycles: u64,
    /// Per-core finish (or cutoff) times in CPU cycles.
    pub core_cycles: Vec<u64>,
    /// Total operations executed (all cores).
    pub ops: u64,
    /// Memory operations executed (loads + stores).
    pub mem_ops: u64,
    /// Per-core L1 statistics.
    pub l1: Vec<CacheStats>,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// Memory controller statistics, merged over all channels.
    pub dram: ControllerStats,
    /// Per-channel telemetry (routed load, controller counters,
    /// energy). Always populated; emitted as a `dram_channels` subtree
    /// only for multi-channel machines, so single-channel figure JSON
    /// is byte-identical to the pre-channel era. The per-channel
    /// entries merge exactly to the `dram`/`dram_energy` totals (the
    /// merge-exactness test pins this).
    pub dram_channels: Vec<ChannelReport>,
    /// Per-channel read-latency histograms (arrival to data-burst
    /// completion, in memory cycles). Maintained unconditionally by
    /// the controllers — present whether or not an observer was
    /// attached, so report JSON never depends on observation.
    pub dram_read_latency: Vec<Histogram>,
    /// Per-channel DRAM queue-depth histograms (reads + writes
    /// outstanding, sampled at each column-command retire).
    pub dram_queue_depth: Vec<Histogram>,
    /// DRAM energy breakdown.
    pub dram_energy: EnergyBreakdown,
    /// CPU + DRAM energy totals.
    pub energy: EnergyReport,
    /// Per-core `Program::progress()` at stop.
    pub progress: Vec<u64>,
    /// Per-core `Program::result()` at stop.
    pub results: Vec<u64>,
    /// Per-core stride-prefetcher statistics.
    pub prefetch: Vec<PrefetchStats>,
    /// Dirty-Block-Index statistics (coherence fast-path counters).
    pub dbi: DbiStats,
}

impl RunReport {
    /// Execution time in seconds at the configured clock.
    pub fn seconds(&self, cfg: &SystemConfig) -> f64 {
        cfg.seconds(self.cpu_cycles)
    }
}

impl ReportStats for RunReport {
    /// The whole run as one stats tree:
    ///
    /// ```text
    /// <name>: cpu_cycles, ops, mem_ops
    ///   cores:   core0..coreN (cycles, progress, result)
    ///   l1[i]:   cache counters per core
    ///   l2:      cache counters
    ///   dram:    controller counters
    ///   dram_hist: per-channel read-latency / queue-depth histograms
    ///   dram_energy: energy breakdown (nJ)
    ///   energy:  CPU + DRAM totals (mJ)
    ///   prefetch[i]: per-core prefetcher counters
    ///   dbi:     Dirty-Block-Index counters
    /// ```
    fn stats_node(&self, name: &str) -> StatsNode {
        let mut cores = StatsNode::new("cores");
        for (i, cycles) in self.core_cycles.iter().enumerate() {
            cores = cores.child(
                StatsNode::new(format!("core{i}"))
                    .counter("cycles", *cycles)
                    .counter("progress", self.progress.get(i).copied().unwrap_or(0))
                    .counter("result", self.results.get(i).copied().unwrap_or(0)),
            );
        }
        StatsNode::new(name)
            .counter("cpu_cycles", self.cpu_cycles)
            .counter("ops", self.ops)
            .counter("mem_ops", self.mem_ops)
            .child(cores)
            .children_from(
                self.l1
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.stats_node(&format!("l1_{i}"))),
            )
            .child(self.l2.stats_node("l2"))
            .child(self.dram.stats_node("dram"))
            .children_from(
                // Single-channel machines skip the subtree entirely:
                // the frozen single-channel baselines must not move.
                (self.dram_channels.len() > 1).then(|| {
                    let mut n = StatsNode::new("dram_channels");
                    for (ch, r) in self.dram_channels.iter().enumerate() {
                        n = n.child(r.stats_node(&format!("ch{ch}")));
                    }
                    n
                }),
            )
            .child({
                let mut hist = StatsNode::new("dram_hist");
                for (ch, h) in self.dram_read_latency.iter().enumerate() {
                    hist = hist.child(h.stats_node(&format!("read_latency_ch{ch}")));
                }
                for (ch, h) in self.dram_queue_depth.iter().enumerate() {
                    hist = hist.child(h.stats_node(&format!("queue_depth_ch{ch}")));
                }
                hist
            })
            .child(self.dram_energy.stats_node("dram_energy"))
            .child(self.energy.stats_node("energy"))
            .children_from(
                self.prefetch
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.stats_node(&format!("prefetch_{i}"))),
            )
            .child(self.dbi.stats_node("dbi"))
    }
}

impl Machine {
    /// Assembles the [`RunReport`] for a run that started at `start`
    /// and ended on `stop`.
    pub(crate) fn report(
        &self,
        stop: StopWhen,
        start: u64,
        programs: &[&mut dyn Program],
    ) -> RunReport {
        let core_cycles: Vec<u64> = self.cores.iter().map(|c| c.time - start).collect();
        let cpu_cycles = match stop {
            StopWhen::AllDone => core_cycles.iter().copied().max().unwrap_or(0),
            StopWhen::CoreDone(i) => core_cycles[i],
        };
        let ops: u64 = self.cores.iter().map(|c| c.ops).sum();
        let mem_ops: u64 = self.cores.iter().map(|c| c.mem_ops).sum();
        let l1: Vec<CacheStats> = self.hier.l1.iter().map(|c| c.stats()).collect();
        let l2 = self.hier.l2.stats();
        let dram = self.bridge.stats();
        let dram_energy = self.bridge.energy();
        let energy = self.cpu_energy.report(
            &self.cfg,
            cpu_cycles,
            ops,
            l1.iter().map(|s| s.hits + s.misses).sum(),
            l2.hits + l2.misses,
            dram_energy,
        );
        RunReport {
            cpu_cycles,
            core_cycles,
            ops,
            mem_ops,
            l1,
            l2,
            dram,
            dram_channels: self.bridge.channel_reports(),
            dram_read_latency: self.bridge.read_latency_hists(),
            dram_queue_depth: self.bridge.queue_depth_hists(),
            dram_energy,
            energy,
            progress: programs.iter().map(|p| p.progress()).collect(),
            results: programs.iter().map(|p| p.result()).collect(),
            prefetch: self.hier.prefetchers.iter().map(|p| p.stats()).collect(),
            dbi: self.coherence.dbi.stats(),
        }
    }
}
