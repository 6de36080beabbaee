//! The end-to-end simulated machine (paper §4, §5).
//!
//! A [`Machine`] is the Table 1 system: 1–2 in-order 4 GHz cores with
//! private pattern-tagged L1s, a shared L2, a stride prefetcher, an
//! FR-FCFS DDR3-1600 memory controller, and a GS-DRAM(8,3,3) module
//! holding the actual data. Programs ([`crate::ops::Program`]) drive it
//! with `pattload`/`pattstore`/compute operations; the machine performs
//! both the *timing* (cycle accounting through caches and DRAM) and the
//! *function* (real data moves through the shuffle/CTL datapath), so
//! results can be verified bit-for-bit while latency, bandwidth and
//! energy are measured.
//!
//! The machine itself is a thin composition shell over port-connected
//! components (see `docs/ARCHITECTURE.md` for the picture):
//!
//! - [`crate::exec`] — the core scheduler ([`Machine::run`]'s loop);
//! - [`crate::hier`] — L1s/L2/prefetchers and the demand access path;
//! - [`crate::coherence`] — the §4.1 pattern-overlap rules + DBI;
//! - [`crate::bridge`] — controllers, the GS-DRAM module, delivery;
//! - [`crate::report`] — end-of-run statistics assembly.
//!
//! Cross-component traffic that must stay ordered (dirty evictions on
//! their way to DRAM, the line moving between DRAM and the caches)
//! flows through machine-owned scratch buffers, so the steady-state
//! access path does not allocate. Every component announces its actions
//! on the machine's [`EventHub`]; attach an observer with
//! [`Machine::attach_observer`] to trace a run (an unobserved machine
//! pays one branch per event site).

use gsdram_cache::cache::EvictedLine;
use gsdram_core::port::{EventHub, EventSink};
use gsdram_core::PatternId;
use gsdram_dram::controller::Completion;

use crate::bridge::DramBridge;
use crate::coherence::CoherenceEngine;
use crate::config::SystemConfig;
use crate::energy::CpuEnergyModel;
use crate::exec::CoreSet;
use crate::hier::CacheHier;
use crate::page::PageTable;

pub use crate::exec::StopWhen;
pub use crate::report::RunReport;

/// The simulated system. See the [module docs](self) for the overview.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    pub(crate) pages: PageTable,
    pub(crate) cores: CoreSet,
    pub(crate) hier: CacheHier,
    pub(crate) coherence: CoherenceEngine,
    pub(crate) bridge: DramBridge,
    pub(crate) cpu_energy: CpuEnergyModel,
    pub(crate) events: EventHub,
    /// Dirty lines evicted from the hierarchy, in eviction order,
    /// awaiting their DRAM writeback (drained eagerly; non-empty only
    /// within one access/delivery step).
    pub(crate) wb: Vec<EvictedLine>,
    /// Scratch for one line's words moving between DRAM and the caches.
    pub(crate) line_buf: Vec<u64>,
    /// Scratch for draining controller completions without a per-poll
    /// allocation (non-empty only within one delivery step).
    pub(crate) comp_buf: Vec<Completion>,
}

impl Machine {
    /// Builds the machine described by `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let pages = PageTable::new(cfg.memory_bytes as u64, cfg.row_bytes());
        let cores = CoreSet::new(cfg.cores);
        let hier = CacheHier::new(&cfg);
        let coherence = CoherenceEngine::new(&cfg);
        let bridge = DramBridge::new(&cfg);
        Machine {
            cfg,
            pages,
            cores,
            hier,
            coherence,
            bridge,
            cpu_energy: CpuEnergyModel::default(),
            events: EventHub::new(),
            wb: Vec::new(),
            line_buf: Vec::new(),
            comp_buf: Vec::new(),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The `pattmalloc` allocator (paper §4.3).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pages
    }

    /// Allocates `bytes` of pattern-capable memory (§4.3) and returns its
    /// base address.
    pub fn pattmalloc(&mut self, bytes: u64, shuffle: bool, pattern: PatternId) -> u64 {
        self.pages.pattmalloc(bytes, shuffle, pattern)
    }

    /// Allocates plain memory.
    pub fn malloc(&mut self, bytes: u64) -> u64 {
        self.pages.malloc(bytes)
    }

    /// Attaches an observer that sees every [`SimEvent`] the components
    /// emit, replacing (and returning) any previous one.
    ///
    /// [`SimEvent`]: gsdram_core::port::SimEvent
    pub fn attach_observer(&mut self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.events.attach(sink)
    }

    /// Detaches and returns the current observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn EventSink>> {
        self.events.detach()
    }

    /// Writes `value` at `addr` directly into the DRAM module (bypassing
    /// caches and timing) — initialisation convenience.
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.bridge.poke(&self.pages, addr, value);
    }

    /// Reads the value at `addr` from the DRAM module, *ignoring* cached
    /// dirty data. Call [`Machine::drain_caches`] first for an up-to-date
    /// view.
    pub fn peek(&self, addr: u64) -> u64 {
        self.bridge.peek(&self.pages, addr)
    }

    /// Functionally writes back every dirty line (L2 first, then the
    /// L1s, so newer L1 data wins) to the DRAM module and leaves the
    /// caches clean, so [`Machine::peek`] observes the programs' final
    /// state.
    pub fn drain_caches(&mut self) {
        for (key, data) in self.hier.drain_dirty() {
            self.coherence.mark_clean(key);
            self.bridge.write_line(&self.pages, key, &data);
        }
    }

    /// Writes an evicted dirty line back to DRAM: clears its DBI bit,
    /// performs the functional write, and enqueues the timing write(s).
    fn dram_write(&mut self, ev: EvictedLine, at_cpu: u64) {
        // The line's data reaches DRAM here: its DBI dirty bit clears.
        self.coherence.mark_clean(ev.key);
        self.bridge.write_line(&self.pages, ev.key, &ev.data);
        self.bridge.enqueue_write(ev.key, at_cpu, &mut self.events);
    }

    /// Flushes every pending writeback collected by the hierarchy or
    /// coherence engine to DRAM, in eviction order, at `at_cpu`.
    pub(crate) fn drain_writebacks(&mut self, at_cpu: u64) {
        if self.wb.is_empty() {
            return;
        }
        let mut wb = std::mem::take(&mut self.wb);
        for ev in wb.drain(..) {
            self.dram_write(ev, at_cpu);
        }
        debug_assert!(self.wb.is_empty(), "writebacks must not cascade");
        self.wb = wb;
    }
}
