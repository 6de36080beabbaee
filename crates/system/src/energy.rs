//! Processor energy model (the McPAT substitution — DESIGN.md §2).
//!
//! The paper estimates processor energy with McPAT (§5.1). The energy
//! differences it reports are driven by execution time (static/clock
//! power × seconds) and activity (per-operation and per-cache-access
//! dynamic energy); this model keeps exactly those two terms with
//! constants representative of a small in-order core at 4 GHz in a
//! ~22 nm-class process.

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "float leaf: report values derived from finished integer counters; never feeds simulated timing"
)]

use crate::config::SystemConfig;
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_dram::energy::EnergyBreakdown;

/// Per-component CPU energy constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuEnergyModel {
    /// Static + clock-tree power per core, watts.
    pub static_w_per_core: f64,
    /// Dynamic energy per executed operation, nanojoules.
    pub nj_per_op: f64,
    /// Dynamic energy per L1 access, nanojoules.
    pub nj_per_l1: f64,
    /// Dynamic energy per L2 access, nanojoules.
    pub nj_per_l2: f64,
}

impl Default for CpuEnergyModel {
    fn default() -> Self {
        CpuEnergyModel {
            static_w_per_core: 1.0,
            nj_per_op: 0.15,
            nj_per_l1: 0.05,
            nj_per_l2: 0.5,
        }
    }
}

/// CPU + DRAM energy totals for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Static/clock energy, millijoules.
    pub cpu_static_mj: f64,
    /// Core dynamic energy, millijoules.
    pub cpu_dynamic_mj: f64,
    /// Cache dynamic energy, millijoules.
    pub cache_mj: f64,
    /// DRAM energy, millijoules.
    pub dram_mj: f64,
}

impl ReportStats for EnergyReport {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .gauge("cpu_static_mj", self.cpu_static_mj)
            .gauge("cpu_dynamic_mj", self.cpu_dynamic_mj)
            .gauge("cache_mj", self.cache_mj)
            .gauge("dram_mj", self.dram_mj)
            .gauge("total_mj", self.total_mj())
    }
}

impl EnergyReport {
    /// Total system energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.cpu_static_mj + self.cpu_dynamic_mj + self.cache_mj + self.dram_mj
    }
}

impl CpuEnergyModel {
    /// Folds run activity into an [`EnergyReport`].
    pub fn report(
        &self,
        cfg: &SystemConfig,
        cpu_cycles: u64,
        ops: u64,
        l1_accesses: u64,
        l2_accesses: u64,
        dram: EnergyBreakdown,
    ) -> EnergyReport {
        let seconds = cfg.seconds(cpu_cycles);
        EnergyReport {
            cpu_static_mj: self.static_w_per_core * cfg.cores as f64 * seconds * 1e3,
            cpu_dynamic_mj: ops as f64 * self.nj_per_op * 1e-6,
            cache_mj: (l1_accesses as f64 * self.nj_per_l1 + l2_accesses as f64 * self.nj_per_l2)
                * 1e-6,
            dram_mj: dram.total_mj(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_scales_with_activity() {
        let cfg = SystemConfig::table1(1, 1 << 20);
        let m = CpuEnergyModel::default();
        let small = m.report(&cfg, 1000, 100, 100, 10, EnergyBreakdown::default());
        let big = m.report(&cfg, 2000, 200, 200, 20, EnergyBreakdown::default());
        assert!(big.total_mj() > small.total_mj());
        assert!((big.cpu_static_mj - 2.0 * small.cpu_static_mj).abs() < 1e-12);
    }

    #[test]
    fn static_term_matches_power_times_time() {
        let cfg = SystemConfig::table1(2, 1 << 20);
        let m = CpuEnergyModel::default();
        // 4e9 cycles at 4 GHz = 1 second; 2 cores × 1 W = 2 J = 2000 mJ.
        let r = m.report(&cfg, 4_000_000_000, 0, 0, 0, EnergyBreakdown::default());
        assert!((r.cpu_static_mj - 2000.0).abs() < 1e-6);
        assert_eq!(r.cpu_dynamic_mj, 0.0);
    }

    #[test]
    fn dram_term_passes_through() {
        let cfg = SystemConfig::table1(1, 1 << 20);
        let m = CpuEnergyModel::default();
        let dram = EnergyBreakdown {
            read_nj: 2_000_000.0,
            ..Default::default()
        };
        let r = m.report(&cfg, 0, 0, 0, 0, dram);
        assert!((r.dram_mj - 2.0).abs() < 1e-9);
    }
}
