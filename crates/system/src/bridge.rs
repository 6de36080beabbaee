//! The DRAM bridge: everything below the caches.
//!
//! [`DramBridge`] owns the GS-DRAM module (the actual data), the
//! per-channel memory controllers (the timing, with a pluggable
//! scheduling engine — FR-FCFS by default), the address map (with its
//! configurable bank-hash stage), and the outstanding-fetch tracking that ties controller-level
//! sub-requests back to logical line fetches. It speaks two clock
//! domains: callers pass CPU-cycle times; controllers run on
//! memory-controller cycles (the bridge converts at the boundary).
//!
//! A logical fetch is one column command under GS-DRAM and one
//! default-pattern command per covered line under Impulse; the bridge
//! hides that difference behind `DramBridge::enqueue_fetch` /
//! `DramBridge::enqueue_write` and reports a fetch as a single
//! `FetchDone` once its last sub-request completes. Delivery back
//! into the caches (fills, pending stores, core wake-ups) is the
//! machine's composition job and lives in the `impl Machine` block
//! here.
//!
//! Hot-path note: word-address and sub-request expansion reuse
//! per-bridge scratch buffers, so steady-state fetch/writeback traffic
//! does not allocate.

// D3 (docs/LINTS.md): addresses move between widths only through
// gsdram_core::cast, never a bare `as`.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::collections::BTreeMap;

use gsdram_cache::cache::LineKey;
use gsdram_cache::overlap::OverlapCalc;
use gsdram_core::port::{EventHub, MemReq, SimEvent};
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::{cast, ColumnId, Geometry, GsModule, PatternId, RowId};
use gsdram_dram::controller::{
    AccessKind, Completion, ControllerStats, MemController, MemRequest, ReqId,
};
use gsdram_dram::energy::EnergyBreakdown;
use gsdram_dram::mapping::AddressMap;
use gsdram_telemetry::Histogram;

use crate::config::{GatherSupport, SystemConfig};
use crate::machine::Machine;
use crate::ops::Program;
use crate::page::PageTable;

/// A core blocked on an in-flight line fetch, with the request to
/// finish once data arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// The blocked core.
    pub(crate) core: usize,
    /// The request to complete on delivery.
    pub(crate) req: MemReq,
}

/// One logical line fetch in flight at the controllers.
#[derive(Debug, Clone)]
struct Outstanding {
    key: LineKey,
    shuffled: bool,
    waiters: Vec<Waiter>,
    /// Sub-requests still in flight (1 for GS-DRAM; the number of
    /// covered lines for an Impulse gather).
    remaining: usize,
    /// Completion time of the latest finished sub-request (mem cycles).
    done_at: u64,
}

/// A logical line fetch whose last sub-request has completed, ready for
/// cache delivery.
#[derive(Debug)]
pub(crate) struct FetchDone {
    /// The fetched line.
    pub(crate) key: LineKey,
    /// Whether the line travelled the shuffle datapath.
    pub(crate) shuffled: bool,
    /// Cores to wake and requests to finish.
    pub(crate) waiters: Vec<Waiter>,
    /// Completion time of the slowest sub-request (mem cycles).
    pub(crate) done_at: u64,
}

/// What the bridge enqueued on one channel: the cross-channel load
/// split, counted at the enqueue boundary (controller stats count
/// issued commands; this counts logical sub-requests routed there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelLoadStats {
    /// Read sub-requests routed to the channel.
    pub reads: u64,
    /// Write sub-requests routed to the channel.
    pub writes: u64,
}

impl ChannelLoadStats {
    /// Folds another channel's load into this one — the aggregation
    /// point the per-channel merge-exactness test exercises.
    pub fn merge(&mut self, other: &Self) {
        // Exhaustive on purpose (rule D9): a new field does not compile
        // until this fold handles it.
        let Self { reads, writes } = *other;
        self.reads += reads;
        self.writes += writes;
    }
}

impl ReportStats for ChannelLoadStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .counter("enq_reads", self.reads)
            .counter("enq_writes", self.writes)
    }
}

/// One channel's telemetry snapshot: routed load, controller counters
/// and energy, reported as a per-channel subtree when a machine has
/// more than one channel.
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Sub-requests the bridge routed to the channel.
    pub load: ChannelLoadStats,
    /// The channel controller's counters.
    pub dram: ControllerStats,
    /// The channel's energy breakdown.
    pub energy: EnergyBreakdown,
}

impl ReportStats for ChannelReport {
    fn stats_node(&self, name: &str) -> StatsNode {
        self.load
            .stats_node(name)
            .child(self.dram.stats_node("dram"))
            .child(self.energy.stats_node("energy"))
    }
}

/// The DRAM side of the machine. See the [module docs](self).
#[derive(Debug)]
pub struct DramBridge {
    module: GsModule,
    map: AddressMap,
    controllers: Vec<MemController>,
    loads: Vec<ChannelLoadStats>,
    overlap: OverlapCalc,
    gather: GatherSupport,
    chips: usize,
    cpu_per_mem: u64,
    outstanding: BTreeMap<ReqId, Outstanding>,
    by_key: BTreeMap<LineKey, ReqId>,
    /// Maps each DRAM sub-request to its logical fetch.
    parent_of: BTreeMap<ReqId, ReqId>,
    next_req: ReqId,
    /// Word-address scratch for functional line reads/writes.
    addr_buf: Vec<u64>,
    /// Sub-request scratch for enqueue expansion.
    sub_buf: Vec<(u64, PatternId)>,
}

impl DramBridge {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        let rows = cfg.memory_bytes / cast::to_usize(cfg.row_bytes());
        #[expect(
            clippy::expect_used,
            reason = "rows.max(1) keeps the geometry constructor total"
        )]
        let geom = Geometry::ddr3_row(&cfg.gsdram, rows.max(1)).expect("valid geometry");
        DramBridge {
            module: GsModule::new(cfg.gsdram.clone(), geom),
            map: AddressMap::with_shape(
                cast::widen(cfg.l2.line_bytes),
                128,
                cast::widen(cfg.controller.banks),
                cast::widen(cfg.controller.ranks),
                cast::widen(cfg.channels.max(1)),
                gsdram_dram::mapping::Interleave::ColumnFirst,
            )
            .with_hash(cfg.mapping),
            controllers: (0..cfg.channels.max(1))
                .map(|ch| {
                    let mut c = MemController::new(cfg.controller.clone());
                    c.set_channel(ch);
                    c
                })
                .collect(),
            loads: vec![ChannelLoadStats::default(); cfg.channels.max(1)],
            overlap: OverlapCalc::new(cfg.gsdram.clone(), cast::widen(cfg.l2.line_bytes), 128),
            gather: cfg.gather,
            chips: cfg.gsdram.chips(),
            cpu_per_mem: cfg.cpu_per_mem,
            outstanding: BTreeMap::new(),
            by_key: BTreeMap::new(),
            parent_of: BTreeMap::new(),
            next_req: 0,
            addr_buf: Vec::new(),
            sub_buf: Vec::new(),
        }
    }

    pub(crate) fn channels(&self) -> usize {
        self.controllers.len()
    }

    pub(crate) fn to_mem(&self, cpu: u64) -> u64 {
        cpu / self.cpu_per_mem
    }

    pub(crate) fn to_cpu(&self, mem: u64) -> u64 {
        mem * self.cpu_per_mem
    }

    fn row_col(&self, addr: u64) -> (RowId, ColumnId, usize) {
        let rb = self.overlap.row_bytes();
        let row = cast::to_u32(addr / rb);
        let off = addr % rb;
        (
            RowId(row),
            ColumnId(cast::to_u32(off / 64)),
            cast::to_usize((off % 64) / 8),
        )
    }

    /// Which word-address semantics a line uses (see
    /// [`crate::coherence::CoherenceEngine::addr_semantics`]).
    fn addr_semantics(&self, pages: &PageTable, key: LineKey) -> bool {
        let shuffled = pages.info(key.addr).shuffle;
        shuffled || (self.gather == GatherSupport::Impulse && !key.pattern.is_default())
    }

    /// Writes `value` at `addr` directly into the DRAM module.
    pub(crate) fn poke(&mut self, pages: &PageTable, addr: u64, value: u64) {
        let shuffled = pages.info(addr).shuffle;
        let (row, col, word) = self.row_col(addr);
        let element = cast::index(col.0) * self.chips + word;
        #[expect(
            clippy::expect_used,
            reason = "row/element derive from an address the page table vetted"
        )]
        self.module
            .write_element(row, element, shuffled, value)
            .expect("poke within modelled memory");
    }

    /// Reads the value at `addr` from the DRAM module.
    pub(crate) fn peek(&self, pages: &PageTable, addr: u64) -> u64 {
        let shuffled = pages.info(addr).shuffle;
        let (row, col, word) = self.row_col(addr);
        let element = cast::index(col.0) * self.chips + word;
        #[expect(
            clippy::expect_used,
            reason = "row/element derive from an address the page table vetted"
        )]
        self.module
            .read_element(row, element, shuffled)
            .expect("peek within modelled memory")
    }

    /// Functionally writes a line's words into the DRAM module.
    pub(crate) fn write_line(&mut self, pages: &PageTable, key: LineKey, data: &[u64]) {
        let shuffled = pages.info(key.addr).shuffle;
        let sem = self.addr_semantics(pages, key);
        let mut addrs = std::mem::take(&mut self.addr_buf);
        self.overlap.word_addresses_into(key, sem, &mut addrs);
        for (a, v) in addrs.iter().zip(data) {
            let (row, col, word) = self.row_col(*a);
            let element = cast::index(col.0) * self.chips + word;
            #[expect(
                clippy::expect_used,
                reason = "word addresses come from OverlapCalc over a resident line"
            )]
            self.module
                .write_element(row, element, shuffled, *v)
                .expect("writeback within modelled memory");
        }
        self.addr_buf = addrs;
    }

    /// Functionally reads a line's words from the DRAM module into
    /// `out` (cleared first).
    pub(crate) fn read_line_into(&mut self, pages: &PageTable, key: LineKey, out: &mut Vec<u64>) {
        let shuffled = pages.info(key.addr).shuffle;
        let sem = self.addr_semantics(pages, key);
        let mut addrs = std::mem::take(&mut self.addr_buf);
        self.overlap.word_addresses_into(key, sem, &mut addrs);
        out.clear();
        for a in &addrs {
            let (row, col, word) = self.row_col(*a);
            let element = cast::index(col.0) * self.chips + word;
            out.push(
                #[expect(
                    clippy::expect_used,
                    reason = "word addresses come from OverlapCalc over a resident line"
                )]
                self.module
                    .read_element(row, element, shuffled)
                    .expect("fetch within modelled memory"),
            );
        }
        self.addr_buf = addrs;
    }

    fn alloc_req_id(&mut self) -> ReqId {
        self.next_req += 1;
        self.next_req
    }

    /// The DRAM sub-requests backing one logical line fetch/writeback:
    /// one pattern command under GS-DRAM; one default-pattern command
    /// per covered line under Impulse. Written into `out` (cleared
    /// first).
    fn collect_subs(&self, key: LineKey, out: &mut Vec<(u64, PatternId)>) {
        out.clear();
        if self.gather == GatherSupport::Impulse && !key.pattern.is_default() {
            out.extend(
                self.overlap
                    .overlapping_lines(key, PatternId::DEFAULT, true)
                    .into_iter()
                    .map(|k| (k.addr, PatternId::DEFAULT)),
            );
        } else {
            out.push((key.addr, key.pattern));
        }
    }

    /// Enqueues the DRAM write(s) backing a line writeback (timing
    /// only; pair with [`DramBridge::write_line`] for the function).
    pub(crate) fn enqueue_write(&mut self, key: LineKey, at_cpu: u64, events: &mut EventHub) {
        let mut subs = std::mem::take(&mut self.sub_buf);
        self.collect_subs(key, &mut subs);
        if subs.len() > 1 {
            let (at_mem, n) = (self.to_mem(at_cpu), cast::len_to_u32(subs.len()));
            events.emit(|| SimEvent::GatherSplit {
                addr: key.addr,
                pattern: key.pattern,
                subs: n,
                at_mem,
            });
        }
        for &(a, pattern) in &subs {
            // One decompose drives both routing and coordinates: the
            // map's channel stage picks the controller (under the
            // default ColumnFirst split, channel bits sit just above
            // the row-offset bits, so one DRAM row — and hence every
            // gathered line — stays on one channel).
            let loc = self.map.decompose(a);
            let ch = loc.channel;
            let at = self.to_mem(at_cpu).max(self.controllers[ch].now());
            let id = self.alloc_req_id();
            let req = MemRequest {
                id,
                loc,
                pattern,
                kind: AccessKind::Write,
            };
            self.loads[ch].writes += 1;
            self.controllers[ch].enqueue(req, at);
            events.emit(|| SimEvent::DramEnqueue {
                id,
                channel: ch,
                addr: a,
                pattern,
                write: true,
                at_mem: at,
            });
        }
        self.sub_buf = subs;
    }

    /// Enqueues the DRAM fetch(es) backing a line fetch and registers
    /// the logical outstanding entry.
    pub(crate) fn enqueue_fetch(
        &mut self,
        key: LineKey,
        shuffled: bool,
        waiters: Vec<Waiter>,
        at_cpu: u64,
        events: &mut EventHub,
    ) {
        let mut subs = std::mem::take(&mut self.sub_buf);
        self.collect_subs(key, &mut subs);
        if subs.len() > 1 {
            let (at_mem, n) = (self.to_mem(at_cpu), cast::len_to_u32(subs.len()));
            events.emit(|| SimEvent::GatherSplit {
                addr: key.addr,
                pattern: key.pattern,
                subs: n,
                at_mem,
            });
        }
        let parent = self.alloc_req_id();
        self.outstanding.insert(
            parent,
            Outstanding {
                key,
                shuffled,
                waiters,
                remaining: subs.len(),
                done_at: 0,
            },
        );
        self.by_key.insert(key, parent);
        for &(a, pattern) in &subs {
            let loc = self.map.decompose(a);
            let ch = loc.channel;
            let at = self.to_mem(at_cpu).max(self.controllers[ch].now());
            let id = self.alloc_req_id();
            self.parent_of.insert(id, parent);
            let req = MemRequest {
                id,
                loc,
                pattern,
                kind: AccessKind::Read,
            };
            self.loads[ch].reads += 1;
            self.controllers[ch].enqueue(req, at);
            events.emit(|| SimEvent::DramEnqueue {
                id,
                channel: ch,
                addr: a,
                pattern,
                write: false,
                at_mem: at,
            });
        }
        self.sub_buf = subs;
    }

    /// Whether a fetch of `key` is already in flight.
    pub(crate) fn in_flight(&self, key: LineKey) -> bool {
        self.by_key.contains_key(&key)
    }

    /// Attaches `waiter` to an in-flight fetch of `key`. Returns
    /// `false` if none is in flight.
    pub(crate) fn attach_waiter(&mut self, key: LineKey, waiter: Waiter) -> bool {
        let Some(&id) = self.by_key.get(&key) else {
            return false;
        };
        #[expect(
            clippy::expect_used,
            reason = "by_key and outstanding are inserted/removed together"
        )]
        let out = self.outstanding.get_mut(&id).expect("tracked");
        out.waiters.push(waiter);
        true
    }

    /// Advances every channel to `t_mem`.
    pub(crate) fn advance_all(&mut self, t_mem: u64, events: &mut EventHub) {
        for c in &mut self.controllers {
            c.advance_observed(t_mem, events);
        }
    }

    /// Whether every channel is provably quiet through memory cycle
    /// `t_mem`: no command can issue and no completion becomes due.
    /// Cheap (cached horizons only, no scheduling scans), so the
    /// per-op sync path can use it as a leap guard.
    pub(crate) fn quiescent_until(&self, t_mem: u64) -> bool {
        self.controllers.iter().all(|c| c.quiescent_until(t_mem))
    }

    /// Leaps every channel's clock (and energy cursor) to `t_mem`.
    /// Equivalent to [`advance_channel`](Self::advance_channel) on each
    /// channel; meant for the quiescent case where the caller skips
    /// completion polling entirely.
    pub(crate) fn leap_to(&mut self, t_mem: u64, events: &mut EventHub) {
        for c in &mut self.controllers {
            c.advance_observed(t_mem, events);
        }
    }

    /// Drains the completions due by `t_mem` on channel `ch` into
    /// `out` (appended in recorded order; `out` is not cleared), so the
    /// steady-state delivery loop reuses one machine-owned buffer
    /// instead of allocating per poll.
    pub(crate) fn take_channel_completions_into(
        &mut self,
        ch: usize,
        t_mem: u64,
        out: &mut Vec<Completion>,
    ) {
        self.controllers[ch].take_completions_into(t_mem, out);
    }

    pub(crate) fn advance_channel_until_completion(
        &mut self,
        ch: usize,
        events: &mut EventHub,
    ) -> Option<u64> {
        self.controllers[ch].advance_until_completion_observed(events)
    }

    /// Records one controller completion. Returns the finished logical
    /// fetch when this was the last sub-request of a read; `None` for
    /// writeback completions and partial Impulse gathers.
    pub(crate) fn note_completion(
        &mut self,
        c: Completion,
        events: &mut EventHub,
    ) -> Option<FetchDone> {
        events.emit(|| SimEvent::DramComplete {
            id: c.id,
            at_mem: c.at,
        });
        let parent = self.parent_of.remove(&c.id)?;
        {
            #[expect(
                clippy::expect_used,
                reason = "parent_of entries are created with their outstanding entry"
            )]
            let out = self.outstanding.get_mut(&parent).expect("parent tracked");
            out.done_at = out.done_at.max(c.at);
            out.remaining -= 1;
            if out.remaining > 0 {
                return None; // an Impulse gather is still collecting lines
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "remaining just hit zero, the entry is still present"
        )]
        let out = self.outstanding.remove(&parent).expect("parent tracked");
        self.by_key.remove(&out.key);
        Some(FetchDone {
            key: out.key,
            shuffled: out.shuffled,
            waiters: out.waiters,
            done_at: out.done_at,
        })
    }

    /// Controller statistics summed over all channels.
    pub(crate) fn stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for c in &self.controllers {
            total.merge(&c.stats());
        }
        total
    }

    /// Per-channel read-latency histograms (arrival to data-burst
    /// completion, memory cycles). Maintained unconditionally by the
    /// controllers, so report output never depends on observation.
    pub(crate) fn read_latency_hists(&self) -> Vec<Histogram> {
        self.controllers
            .iter()
            .map(|c| c.read_latency_hist().clone())
            .collect()
    }

    /// Per-channel queue-depth histograms (occupancy sampled at each
    /// column-command retire).
    pub(crate) fn queue_depth_hists(&self) -> Vec<Histogram> {
        self.controllers
            .iter()
            .map(|c| c.queue_depth_hist().clone())
            .collect()
    }

    /// Per-channel telemetry snapshots (routed load, controller
    /// counters, energy), in channel order.
    pub(crate) fn channel_reports(&self) -> Vec<ChannelReport> {
        self.controllers
            .iter()
            .zip(&self.loads)
            .map(|(c, &load)| ChannelReport {
                load,
                dram: c.stats(),
                energy: c.energy(),
            })
            .collect()
    }

    /// DRAM energy summed over all channels.
    pub(crate) fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for c in &self.controllers {
            total.merge(&c.energy());
        }
        total
    }
}

impl Machine {
    /// Applies a completed logical fetch: fills caches, applies pending
    /// stores, wakes waiting cores, feeds loaded values to programs.
    fn deliver(&mut self, done: FetchDone, programs: &mut [&mut dyn Program]) {
        let done_cpu = self.bridge.to_cpu(done.done_at);
        let shuffle_penalty = if done.shuffled {
            self.cfg.shuffle_latency
        } else {
            0
        };

        // Fill L2 (unless a writeback landed the line there meanwhile).
        let mut buf = std::mem::take(&mut self.line_buf);
        if self.hier.l2.contains(done.key) {
            self.hier.l2.probe(done.key, false);
            buf.clear();
            #[expect(clippy::expect_used, reason = "contains() held on the line above")]
            buf.extend_from_slice(self.hier.l2.data(done.key).expect("resident"));
        } else {
            self.bridge.read_line_into(&self.pages, done.key, &mut buf);
            self.hier
                .fill_l2(done.key, &buf, &mut self.wb, &mut self.events);
            self.drain_writebacks(done_cpu);
        }

        for w in done.waiters {
            let wake = done_cpu + self.cfg.l1.latency + shuffle_penalty;
            if !self.hier.l1[w.core].contains(done.key) {
                self.hier
                    .fill_l1(w.core, done.key, &buf, &mut self.wb, &mut self.events);
                self.drain_writebacks(done_cpu);
            }
            let word = w.req.word_index(64);
            #[expect(
                clippy::expect_used,
                reason = "fill_l1 ran above for any core missing the line"
            )]
            let value = if let Some(v) = w.req.store_value() {
                self.invalidate_overlaps_on_store(w.core, done.key, done_cpu);
                self.hier.l1[w.core].probe(done.key, true);
                let d = self.hier.l1[w.core].data_mut(done.key).expect("filled");
                d[word] = v;
                v
            } else {
                self.hier.l1[w.core].data(done.key).expect("filled")[word]
            };
            if w.req.store_value().is_none() {
                programs[w.core].on_load_value(value);
            }
            let core = self.cores.core_mut(w.core);
            core.waiting = false;
            core.time = core.time.max(wake);
        }
        self.line_buf = buf;
    }

    /// Advances the memory system to CPU time `t`, delivering any
    /// completions.
    pub(crate) fn sync_memory(&mut self, t_cpu: u64, programs: &mut [&mut dyn Program]) {
        let t_mem = self.bridge.to_mem(t_cpu);
        if self.bridge.quiescent_until(t_mem) {
            // Every channel's horizon proves nothing can issue and no
            // completion comes due by `t_mem`: leap the clocks and skip
            // the completion-polling loop.
            self.bridge.leap_to(t_mem, &mut self.events);
            return;
        }
        // Advance every channel to the horizon first, then drain and
        // deliver per channel. Delivery can enqueue fresh writebacks;
        // those land at or after `t_mem` and are processed by the next
        // sync, on every path identically.
        self.bridge.advance_all(t_mem, &mut self.events);
        let mut comps = std::mem::take(&mut self.comp_buf);
        for ch in 0..self.bridge.channels() {
            comps.clear();
            self.bridge
                .take_channel_completions_into(ch, t_mem, &mut comps);
            for c in comps.drain(..) {
                if let Some(done) = self.bridge.note_completion(c, &mut self.events) {
                    self.deliver(done, programs);
                }
            }
        }
        self.comp_buf = comps;
    }

    /// All active cores are blocked: advance DRAM until at least one
    /// demand completion is delivered.
    pub(crate) fn advance_until_completion(&mut self, programs: &mut [&mut dyn Program]) {
        loop {
            let mut progressed = false;
            let mut comps = std::mem::take(&mut self.comp_buf);
            for ch in 0..self.bridge.channels() {
                let Some(t) = self
                    .bridge
                    .advance_channel_until_completion(ch, &mut self.events)
                else {
                    continue;
                };
                comps.clear();
                self.bridge.take_channel_completions_into(ch, t, &mut comps);
                for c in comps.drain(..) {
                    if let Some(done) = self.bridge.note_completion(c, &mut self.events) {
                        self.deliver(done, programs);
                    }
                }
                progressed = true;
            }
            self.comp_buf = comps;
            assert!(
                progressed,
                "deadlock: cores waiting but no memory traffic outstanding"
            );
            if self.cores.any_ready() {
                return;
            }
        }
    }
}
