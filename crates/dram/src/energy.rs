//! DRAM energy model in the style of DRAMPower / Micron TN-41-01.
//!
//! The paper estimates DRAM energy with DRAMPower (§5.1); we implement
//! the same IDD-current methodology: every command contributes a charge
//! term `(IDD_op − IDD_background) × VDD × duration`, and background
//! standby power accrues with time, split between active (some bank
//! open) and precharged (all banks closed) states.
//!
//! Currents are per chip; a rank multiplies by the chip count. The
//! defaults are representative of a 2 Gb x8 DDR3-1600 device.

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    clippy::default_numeric_fallback,
    reason = "float leaf: report values derived from finished integer counters; never feeds simulated timing"
)]

use crate::timing::{Cycles, TimingParams};
use gsdram_core::stats::{ReportStats, StatsNode};

/// IDD currents (mA) and supply voltage for one DRAM chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// One-bank ACTIVATE-PRECHARGE current.
    pub idd0: f64,
    /// Precharge standby current.
    pub idd2n: f64,
    /// Active standby current.
    pub idd3n: f64,
    /// Read burst current.
    pub idd4r: f64,
    /// Write burst current.
    pub idd4w: f64,
    /// Refresh current.
    pub idd5: f64,
    /// Precharge power-down current (CKE low).
    pub idd2p: f64,
    /// Idle cycles before the controller drops into precharge
    /// power-down.
    pub powerdown_threshold: u64,
    /// I/O + termination energy per bit transferred (pJ/bit).
    pub io_pj_per_bit: f64,
    /// Number of chips in the rank.
    pub chips: usize,
}

impl PowerParams {
    /// Representative 2 Gb x8 DDR3-1600 device in an 8-chip rank.
    pub fn ddr3_1600_x8() -> Self {
        PowerParams {
            vdd: 1.5,
            idd0: 70.0,
            idd2n: 42.0,
            idd3n: 45.0,
            idd4r: 180.0,
            idd4w: 185.0,
            idd5: 215.0,
            idd2p: 12.0,
            powerdown_threshold: 30,
            io_pj_per_bit: 6.0,
            chips: 8,
        }
    }

    /// Representative 8 Gb x8 DDR4-2400 device in an 8-chip rank:
    /// lower VDD and standby currents than DDR3, larger refresh
    /// current for the denser die. Paired with
    /// [`TimingParams::ddr4_2400`](crate::timing::TimingParams::ddr4_2400).
    pub fn ddr4_2400_x8() -> Self {
        PowerParams {
            vdd: 1.2,
            idd0: 55.0,
            idd2n: 34.0,
            idd3n: 38.0,
            idd4r: 140.0,
            idd4w: 145.0,
            idd5: 190.0,
            idd2p: 10.0,
            powerdown_threshold: 30,
            io_pj_per_bit: 4.5,
            chips: 8,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::ddr3_1600_x8()
    }
}

/// Accumulated DRAM energy, in nanojoules, per rank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// ACTIVATE + PRECHARGE pair energy.
    pub activation_nj: f64,
    /// Read burst energy.
    pub read_nj: f64,
    /// Write burst energy.
    pub write_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
    /// Background standby energy (active + precharged).
    pub background_nj: f64,
    /// I/O and termination energy.
    pub io_nj: f64,
}

impl ReportStats for EnergyBreakdown {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .gauge("activation_nj", self.activation_nj)
            .gauge("read_nj", self.read_nj)
            .gauge("write_nj", self.write_nj)
            .gauge("refresh_nj", self.refresh_nj)
            .gauge("background_nj", self.background_nj)
            .gauge("io_nj", self.io_nj)
            .gauge("total_mj", self.total_mj())
    }
}

impl EnergyBreakdown {
    /// Folds another rank's energy into this one — the one aggregation
    /// point for multi-channel/multi-rank totals.
    pub fn merge(&mut self, other: &Self) {
        // Exhaustive on purpose (rule D9): a new field does not compile
        // until this fold handles it.
        let Self {
            activation_nj,
            read_nj,
            write_nj,
            refresh_nj,
            background_nj,
            io_nj,
        } = *other;
        self.activation_nj += activation_nj;
        self.read_nj += read_nj;
        self.write_nj += write_nj;
        self.refresh_nj += refresh_nj;
        self.background_nj += background_nj;
        self.io_nj += io_nj;
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.activation_nj
            + self.read_nj
            + self.write_nj
            + self.refresh_nj
            + self.background_nj
            + self.io_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }
}

/// Energy meter fed by the memory controller as it issues commands and
/// advances time.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    power: PowerParams,
    timing: TimingParams,
    acc: EnergyBreakdown,
    /// Cycles spent with at least one bank active / all precharged.
    active_cycles: Cycles,
    precharged_cycles: Cycles,
    /// Cycles spent in precharge power-down.
    powerdown_cycles: Cycles,
}

impl EnergyMeter {
    /// A meter for the given device parameters.
    pub fn new(power: PowerParams, timing: TimingParams) -> Self {
        EnergyMeter {
            power,
            timing,
            acc: EnergyBreakdown::default(),
            active_cycles: 0,
            precharged_cycles: 0,
            powerdown_cycles: 0,
        }
    }

    fn charge_nj(&self, current_ma: f64, cycles: Cycles) -> f64 {
        // mA × V × ns = pJ; divide by 1000 for nJ. Multiply by rank size.
        let ns = self.timing.cycles_to_ns(cycles);
        current_ma * self.power.vdd * ns * self.power.chips as f64 / 1000.0
    }

    /// Records one ACTIVATE-PRECHARGE pair (charged at ACT issue).
    pub fn on_activate(&mut self) {
        // Micron TN-41-01: E = (IDD0·tRC − IDD3N·tRAS − IDD2N·(tRC−tRAS))·VDD
        let t = &self.timing;
        let e = self.charge_nj(self.power.idd0, t.rc)
            - self.charge_nj(self.power.idd3n, t.ras)
            - self.charge_nj(self.power.idd2n, t.rc - t.ras);
        self.acc.activation_nj += e;
    }

    /// Records one read burst of `bytes` bytes.
    pub fn on_read(&mut self, bytes: u64) {
        self.acc.read_nj += self.charge_nj(self.power.idd4r - self.power.idd3n, self.timing.burst);
        self.acc.io_nj += self.power.io_pj_per_bit * (bytes * 8) as f64 / 1000.0;
    }

    /// Records one write burst of `bytes` bytes.
    pub fn on_write(&mut self, bytes: u64) {
        self.acc.write_nj += self.charge_nj(self.power.idd4w - self.power.idd3n, self.timing.burst);
        self.acc.io_nj += self.power.io_pj_per_bit * (bytes * 8) as f64 / 1000.0;
    }

    /// Records one all-bank refresh.
    pub fn on_refresh(&mut self) {
        self.acc.refresh_nj += self.charge_nj(self.power.idd5 - self.power.idd2n, self.timing.rfc);
    }

    /// Accrues background energy for `cycles` spent with (`active`) or
    /// without a bank open.
    pub fn on_elapsed(&mut self, cycles: Cycles, active: bool) {
        if active {
            self.active_cycles += cycles;
            self.acc.background_nj += self.charge_nj(self.power.idd3n, cycles);
        } else {
            self.precharged_cycles += cycles;
            self.acc.background_nj += self.charge_nj(self.power.idd2n, cycles);
        }
    }

    /// Accrues background energy for an *idle* gap (no requests queued,
    /// all banks precharged): after
    /// [`PowerParams::powerdown_threshold`] cycles of standby the rank
    /// drops into precharge power-down (IDD2P). This is an energy-only
    /// model: the wake-up latency (tXP, a few cycles) is folded into the
    /// threshold rather than charged to the next request.
    pub fn on_idle_gap(&mut self, cycles: Cycles) {
        let standby = cycles.min(self.power.powerdown_threshold);
        let pd = cycles - standby;
        self.precharged_cycles += standby;
        self.powerdown_cycles += pd;
        self.acc.background_nj += self.charge_nj(self.power.idd2n, standby);
        self.acc.background_nj += self.charge_nj(self.power.idd2p, pd);
    }

    /// Cycles spent in precharge power-down.
    pub fn powerdown_cycles(&self) -> Cycles {
        self.powerdown_cycles
    }

    /// The energy accumulated so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.acc
    }

    /// Cycles spent in (active, precharged) standby.
    pub fn standby_cycles(&self) -> (Cycles, Cycles) {
        (self.active_cycles, self.precharged_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(PowerParams::ddr3_1600_x8(), TimingParams::ddr3_1600())
    }

    #[test]
    fn activation_energy_is_positive() {
        let mut m = meter();
        m.on_activate();
        let e = m.breakdown();
        assert!(e.activation_nj > 0.0, "{:?}", e);
        assert_eq!(e.total_nj(), e.activation_nj);
    }

    #[test]
    fn read_and_write_include_io() {
        let mut m = meter();
        m.on_read(64);
        let r = m.breakdown();
        assert!(r.read_nj > 0.0);
        assert!((r.io_nj - 6.0 * 512.0 / 1000.0).abs() < 1e-9);
        let mut m = meter();
        m.on_write(64);
        assert!(m.breakdown().write_nj > 0.0);
    }

    #[test]
    fn background_active_exceeds_precharged() {
        let mut a = meter();
        a.on_elapsed(1000, true);
        let mut p = meter();
        p.on_elapsed(1000, false);
        assert!(a.breakdown().background_nj > p.breakdown().background_nj);
        assert_eq!(a.standby_cycles(), (1000, 0));
        assert_eq!(p.standby_cycles(), (0, 1000));
    }

    #[test]
    fn refresh_energy_scales_with_trfc() {
        let mut m = meter();
        m.on_refresh();
        assert!(m.breakdown().refresh_nj > 0.0);
    }

    #[test]
    fn energy_magnitudes_are_physical() {
        // An activate on an 8-chip DDR3 rank is on the order of
        // tens of nanojoules; a read burst a few nJ.
        let mut m = meter();
        m.on_activate();
        let act = m.breakdown().activation_nj;
        assert!(act > 1.0 && act < 100.0, "activation {act} nJ");
        let mut m = meter();
        m.on_read(64);
        let rd = m.breakdown().read_nj + m.breakdown().io_nj;
        assert!(rd > 0.5 && rd < 50.0, "read {rd} nJ");
    }

    #[test]
    fn powerdown_saves_background_energy() {
        let mut idle = meter();
        idle.on_idle_gap(10_000);
        let mut standby = meter();
        standby.on_elapsed(10_000, false);
        assert!(
            idle.breakdown().background_nj < 0.5 * standby.breakdown().background_nj,
            "power-down must cut idle energy substantially"
        );
        assert!(idle.powerdown_cycles() > 9_000);
        // Short gaps never enter power-down.
        let mut short = meter();
        short.on_idle_gap(20);
        assert_eq!(short.powerdown_cycles(), 0);
    }

    #[test]
    fn breakdown_merge_sums_every_component() {
        let mut m = meter();
        m.on_activate();
        m.on_read(64);
        let a = m.breakdown();
        let mut n = meter();
        n.on_write(64);
        n.on_refresh();
        n.on_elapsed(100, false);
        let b = n.breakdown();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.activation_nj, a.activation_nj + b.activation_nj);
        assert_eq!(merged.read_nj, a.read_nj + b.read_nj);
        assert_eq!(merged.write_nj, a.write_nj + b.write_nj);
        assert_eq!(merged.refresh_nj, a.refresh_nj + b.refresh_nj);
        assert_eq!(merged.background_nj, a.background_nj + b.background_nj);
        assert_eq!(merged.io_nj, a.io_nj + b.io_nj);
        // Merging the default is the identity.
        let before = merged;
        merged.merge(&EnergyBreakdown::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn totals_sum_components() {
        let mut m = meter();
        m.on_activate();
        m.on_read(64);
        m.on_write(64);
        m.on_refresh();
        m.on_elapsed(100, true);
        let b = m.breakdown();
        let sum =
            b.activation_nj + b.read_nj + b.write_nj + b.refresh_nj + b.background_nj + b.io_nj;
        assert!((b.total_nj() - sum).abs() < 1e-12);
        assert!((b.total_mj() - sum * 1e-6).abs() < 1e-18);
    }
}
