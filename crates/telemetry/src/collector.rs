//! The telemetry collector: an [`EventSink`] that folds the
//! [`SimEvent`] stream into bounded traces and histograms.
//!
//! A [`Collector`] is a cheap shared handle (the machine owns one clone
//! inside its event hub, the caller keeps another to read results). It
//! feeds a [`Telemetry`], which keeps:
//!
//! * a bounded ring buffer of raw events (oldest dropped first, with a
//!   drop counter — telemetry never grows without bound);
//! * per-channel read-latency and queue-depth [`Histogram`]s;
//! * per-pattern breakdowns (reads/writes, row outcomes, chip-conflict
//!   counts from gather splits, a latency histogram);
//! * per-bank breakdowns (row outcomes, current/longest row-hit
//!   streaks, activates/precharges);
//! * a bounded per-channel DRAM queue occupancy timeline.
//!
//! Collection is observation-only: the collector sees events *after*
//! all timing decisions are made, so an observed run simulates exactly
//! like an unobserved one.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use gsdram_core::port::{DramCmdKind, EventSink, RowOutcome, SchedDecisionKind, SimEvent};
use gsdram_core::stats::{ReportStats, StatsNode};

use crate::hist::Histogram;

/// Default ring-buffer capacity (raw events and, per channel,
/// occupancy samples).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Per-pattern service breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternStats {
    /// Reads served with this pattern.
    pub reads: u64,
    /// Writes served with this pattern.
    pub writes: u64,
    /// Column commands that hit the open row.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_closed: u64,
    /// Accesses that closed another row first.
    pub row_conflicts: u64,
    /// Extra per-line sub-requests gathers of this pattern expanded
    /// into (the Impulse baseline's chip conflicts, paper §3).
    pub chip_conflicts: u64,
    /// Read latencies, memory cycles.
    pub read_latency: Histogram,
}

/// Back-end engine decisions observed, folded from
/// [`SimEvent::SchedDecision`] events (all channels merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Row hits serviced ahead of an older pending request.
    pub row_hit_bypasses: u64,
    /// Starvation-cap promotions of the oldest request.
    pub starvation_promotions: u64,
    /// Batch-scheduler bank-cursor rotations.
    pub batch_rotations: u64,
    /// Write-drain mode entries.
    pub drain_entries: u64,
    /// Write-drain mode exits.
    pub drain_exits: u64,
}

/// Per-bank service breakdown, keyed by `(channel, bank)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankStats {
    /// Column commands that hit the open row.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_closed: u64,
    /// Accesses that closed another row first.
    pub row_conflicts: u64,
    /// ACTIVATE commands issued to this bank.
    pub activates: u64,
    /// PRECHARGE commands issued to this bank.
    pub precharges: u64,
    /// Row hits served since the last non-hit (in progress).
    pub current_streak: u64,
    /// Longest run of consecutive row hits observed.
    pub longest_streak: u64,
}

impl BankStats {
    fn note_outcome(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => {
                self.row_hits += 1;
                self.current_streak += 1;
                self.longest_streak = self.longest_streak.max(self.current_streak);
            }
            RowOutcome::Closed => {
                self.row_closed += 1;
                self.current_streak = 0;
            }
            RowOutcome::Conflict => {
                self.row_conflicts += 1;
                self.current_streak = 0;
            }
        }
    }
}

/// Everything one collector gathered. Plain data: `Clone + Send`, so
/// sweep workers can ship snapshots back to the parent thread.
#[derive(Debug, Clone)]
pub struct Telemetry {
    capacity: usize,
    /// Most recent raw events, oldest first.
    events: VecDeque<SimEvent>,
    /// Events pushed out of the ring.
    dropped: u64,
    /// Every event ever seen (kept + dropped).
    total_events: u64,
    /// Per-channel read latency (arrival → data burst end), mem cycles.
    read_latency: Vec<Histogram>,
    /// Per-channel controller queue depth sampled at column issue.
    queue_depth: Vec<Histogram>,
    /// Per-channel `(at_mem, depth)` occupancy samples, oldest dropped
    /// first past `capacity`.
    occupancy: Vec<VecDeque<(u64, u32)>>,
    /// Occupancy samples pushed out of their timelines.
    occupancy_dropped: u64,
    /// Running queue depth per channel (from enqueue/complete events).
    depth_now: Vec<u32>,
    /// Channel of each in-flight request id (completions do not carry
    /// the channel).
    inflight: BTreeMap<u64, usize>,
    /// Per-pattern breakdowns, keyed by pattern id.
    patterns: BTreeMap<u8, PatternStats>,
    /// Per-bank breakdowns, keyed by `(channel, bank)`.
    banks: BTreeMap<(usize, usize), BankStats>,
    /// REFRESH commands observed (all banks, per channel merged).
    refreshes: u64,
    /// Gather-split events observed.
    gather_splits: u64,
    /// Cache fill events observed.
    cache_fills: u64,
    /// Cache eviction events observed.
    cache_evicts: u64,
    /// Coherence overlap flushes observed.
    overlap_flushes: u64,
    /// Scheduler/write-drain engine decisions observed.
    decisions: DecisionStats,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Telemetry {
    /// An empty telemetry store whose ring buffers keep at most
    /// `capacity` entries (0 keeps histograms/breakdowns only).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            total_events: 0,
            read_latency: Vec::new(),
            queue_depth: Vec::new(),
            occupancy: Vec::new(),
            occupancy_dropped: 0,
            depth_now: Vec::new(),
            inflight: BTreeMap::new(),
            patterns: BTreeMap::new(),
            banks: BTreeMap::new(),
            refreshes: 0,
            gather_splits: 0,
            cache_fills: 0,
            cache_evicts: 0,
            overlap_flushes: 0,
            decisions: DecisionStats::default(),
        }
    }

    fn grow_channel(&mut self, ch: usize) {
        if ch >= self.read_latency.len() {
            self.read_latency.resize_with(ch + 1, Histogram::new);
            self.queue_depth.resize_with(ch + 1, Histogram::new);
            self.occupancy.resize_with(ch + 1, VecDeque::new);
            self.depth_now.resize(ch + 1, 0);
        }
    }

    fn sample_occupancy(&mut self, ch: usize, at: u64) {
        let depth = self.depth_now[ch];
        let lane = &mut self.occupancy[ch];
        if self.capacity == 0 {
            return;
        }
        if lane.len() == self.capacity {
            lane.pop_front();
            self.occupancy_dropped += 1;
        }
        lane.push_back((at, depth));
    }

    /// Folds one event into the store.
    // D6: one arm per event and no wildcard, so a new `SimEvent`
    // variant does not compile until this fold handles it.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn on_event(&mut self, ev: &SimEvent) {
        self.total_events += 1;
        if self.capacity > 0 {
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(*ev);
        } else {
            self.dropped += 1;
        }
        match *ev {
            SimEvent::DramEnqueue {
                id,
                channel,
                at_mem,
                ..
            } => {
                self.grow_channel(channel);
                self.depth_now[channel] += 1;
                self.inflight.insert(id, channel);
                self.sample_occupancy(channel, at_mem);
            }
            SimEvent::DramComplete { id, at_mem } => {
                if let Some(ch) = self.inflight.remove(&id) {
                    self.depth_now[ch] = self.depth_now[ch].saturating_sub(1);
                    self.sample_occupancy(ch, at_mem);
                }
            }
            SimEvent::DramCommand {
                channel,
                bank,
                kind,
                ..
            } => match kind {
                DramCmdKind::Activate => {
                    if let Some(b) = bank {
                        self.banks.entry((channel, b)).or_default().activates += 1;
                    }
                }
                DramCmdKind::Precharge => {
                    if let Some(b) = bank {
                        self.banks.entry((channel, b)).or_default().precharges += 1;
                    }
                }
                DramCmdKind::Refresh => self.refreshes += 1,
                DramCmdKind::Read | DramCmdKind::Write => {}
            },
            SimEvent::DramService {
                channel,
                bank,
                pattern,
                write,
                outcome,
                queue_depth,
                arrived_at_mem,
                done_at_mem,
                ..
            } => {
                self.grow_channel(channel);
                let latency = done_at_mem.saturating_sub(arrived_at_mem);
                self.queue_depth[channel].record(queue_depth as u64);
                let p = self.patterns.entry(pattern.0).or_default();
                match outcome {
                    RowOutcome::Hit => p.row_hits += 1,
                    RowOutcome::Closed => p.row_closed += 1,
                    RowOutcome::Conflict => p.row_conflicts += 1,
                }
                if write {
                    p.writes += 1;
                } else {
                    p.reads += 1;
                    p.read_latency.record(latency);
                    self.read_latency[channel].record(latency);
                }
                self.banks
                    .entry((channel, bank))
                    .or_default()
                    .note_outcome(outcome);
            }
            SimEvent::GatherSplit { pattern, subs, .. } => {
                self.gather_splits += 1;
                self.patterns.entry(pattern.0).or_default().chip_conflicts +=
                    u64::from(subs.saturating_sub(1));
            }
            SimEvent::SchedDecision { kind, .. } => match kind {
                SchedDecisionKind::RowHitBypass => self.decisions.row_hit_bypasses += 1,
                SchedDecisionKind::StarvationPromotion => self.decisions.starvation_promotions += 1,
                SchedDecisionKind::BatchRotation => self.decisions.batch_rotations += 1,
                SchedDecisionKind::DrainEnter => self.decisions.drain_entries += 1,
                SchedDecisionKind::DrainExit => self.decisions.drain_exits += 1,
            },
            SimEvent::CacheFill { .. } => self.cache_fills += 1,
            SimEvent::CacheEvict { .. } => self.cache_evicts += 1,
            SimEvent::OverlapFlush { .. } => self.overlap_flushes += 1,
        }
    }

    /// Scheduler/write-drain engine decisions observed so far.
    pub fn decisions(&self) -> DecisionStats {
        self.decisions
    }

    /// The retained raw events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.events.iter()
    }

    /// Events pushed out of the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every event ever seen (retained + dropped).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Channels any DRAM event has touched.
    pub fn channels(&self) -> usize {
        self.read_latency.len()
    }

    /// Read-latency histogram of channel `ch`, if it saw traffic.
    pub fn read_latency(&self, ch: usize) -> Option<&Histogram> {
        self.read_latency.get(ch)
    }

    /// Queue-depth-at-issue histogram of channel `ch`.
    pub fn queue_depth(&self, ch: usize) -> Option<&Histogram> {
        self.queue_depth.get(ch)
    }

    /// `(at_mem, depth)` occupancy samples of channel `ch`, oldest
    /// first (a bounded window of the most recent samples).
    pub fn occupancy(&self, ch: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.occupancy.get(ch).into_iter().flatten().copied()
    }

    /// Per-pattern breakdowns, ascending by pattern id.
    pub fn patterns(&self) -> impl Iterator<Item = (u8, &PatternStats)> {
        self.patterns.iter().map(|(&p, s)| (p, s))
    }

    /// Per-bank breakdowns, ascending by `(channel, bank)`.
    pub fn banks(&self) -> impl Iterator<Item = ((usize, usize), &BankStats)> {
        self.banks.iter().map(|(&k, s)| (k, s))
    }
}

impl ReportStats for Telemetry {
    /// The whole collection as one subtree: event totals, per-channel
    /// histograms, per-pattern and per-bank breakdowns.
    fn stats_node(&self, name: &str) -> StatsNode {
        let mut channels = StatsNode::new("channels");
        for ch in 0..self.channels() {
            channels = channels.child(
                StatsNode::new(format!("ch{ch}"))
                    .child(self.read_latency[ch].stats_node("read_latency"))
                    .child(self.queue_depth[ch].stats_node("queue_depth")),
            );
        }
        let mut patterns = StatsNode::new("patterns");
        for (p, s) in self.patterns() {
            patterns = patterns.child(
                StatsNode::new(format!("p{p}"))
                    .counter("reads", s.reads)
                    .counter("writes", s.writes)
                    .counter("row_hits", s.row_hits)
                    .counter("row_closed", s.row_closed)
                    .counter("row_conflicts", s.row_conflicts)
                    .counter("chip_conflicts", s.chip_conflicts)
                    .child(s.read_latency.stats_node("read_latency")),
            );
        }
        let mut banks = StatsNode::new("banks");
        for ((ch, b), s) in self.banks() {
            banks = banks.child(
                StatsNode::new(format!("ch{ch}_bank{b}"))
                    .counter("row_hits", s.row_hits)
                    .counter("row_closed", s.row_closed)
                    .counter("row_conflicts", s.row_conflicts)
                    .counter("activates", s.activates)
                    .counter("precharges", s.precharges)
                    .counter("longest_hit_streak", s.longest_streak),
            );
        }
        StatsNode::new(name)
            .counter("total_events", self.total_events)
            .counter("retained_events", self.events.len() as u64)
            .counter("dropped_events", self.dropped)
            .counter("refreshes", self.refreshes)
            .counter("gather_splits", self.gather_splits)
            .counter("cache_fills", self.cache_fills)
            .counter("cache_evicts", self.cache_evicts)
            .counter("overlap_flushes", self.overlap_flushes)
            .counter("sched_hit_bypasses", self.decisions.row_hit_bypasses)
            .counter("sched_promotions", self.decisions.starvation_promotions)
            .counter("sched_batch_rotations", self.decisions.batch_rotations)
            .counter("drain_entries", self.decisions.drain_entries)
            .counter("drain_exits", self.decisions.drain_exits)
            .child(channels)
            .child(patterns)
            .child(banks)
    }
}

/// A shared handle to a [`Telemetry`] store that can hand out
/// [`EventSink`] boxes for `Machine::attach_observer`.
///
/// `attach_observer` takes ownership of its sink, so the collector
/// clones an inner `Rc` into the sink closure and keeps another clone
/// for the caller to read results from ([`Collector::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Rc<RefCell<Telemetry>>,
}

impl Collector {
    /// A collector with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A collector whose ring buffers keep at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Collector {
            inner: Rc::new(RefCell::new(Telemetry::with_capacity(capacity))),
        }
    }

    /// A boxed sink feeding this collector — pass to
    /// `Machine::attach_observer` (or any `EventHub::attach`).
    pub fn sink(&self) -> Box<dyn EventSink> {
        let inner = Rc::clone(&self.inner);
        Box::new(move |ev: &SimEvent| inner.borrow_mut().on_event(ev))
    }

    /// A copy of everything collected so far.
    pub fn snapshot(&self) -> Telemetry {
        self.inner.borrow().clone()
    }

    /// Consumes the handle, returning the collected telemetry without
    /// copying when this was the last handle (falls back to a clone if
    /// a sink is still alive).
    pub fn into_telemetry(self) -> Telemetry {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_core::port::EventHub;
    use gsdram_core::PatternId;

    fn service(id: u64, ch: usize, bank: usize, outcome: RowOutcome, lat: u64) -> SimEvent {
        SimEvent::DramService {
            id,
            channel: ch,
            bank,
            pattern: PatternId(7),
            write: false,
            outcome,
            queue_depth: 3,
            arrived_at_mem: 1000,
            done_at_mem: 1000 + lat,
        }
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let mut t = Telemetry::with_capacity(4);
        for id in 0..10 {
            t.on_event(&SimEvent::DramComplete { id, at_mem: id });
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total_events(), 10);
        // The retained window is the most recent events.
        let first = t.events().next().unwrap();
        assert_eq!(*first, SimEvent::DramComplete { id: 6, at_mem: 6 });
    }

    #[test]
    fn service_events_feed_histograms_and_breakdowns() {
        let c = Collector::with_capacity(128);
        let mut hub = EventHub::new();
        hub.attach(c.sink());
        hub.emit(|| service(1, 0, 2, RowOutcome::Closed, 30));
        hub.emit(|| service(2, 0, 2, RowOutcome::Hit, 10));
        hub.emit(|| service(3, 0, 2, RowOutcome::Hit, 10));
        hub.emit(|| service(4, 0, 2, RowOutcome::Conflict, 60));
        hub.emit(|| service(5, 1, 0, RowOutcome::Hit, 12));
        let t = c.snapshot();
        assert_eq!(t.channels(), 2);
        assert_eq!(t.read_latency(0).unwrap().count(), 4);
        assert_eq!(t.read_latency(0).unwrap().max(), 60);
        assert_eq!(t.read_latency(1).unwrap().count(), 1);
        assert_eq!(t.queue_depth(0).unwrap().count(), 4);
        let (p, ps) = t.patterns().next().unwrap();
        assert_eq!(p, 7);
        assert_eq!(ps.reads, 5);
        assert_eq!(ps.row_hits, 3);
        let bank = t.banks().find(|(k, _)| *k == (0, 2)).unwrap().1;
        assert_eq!(bank.row_hits, 2);
        assert_eq!(bank.longest_streak, 2);
        assert_eq!(bank.current_streak, 0, "conflict resets the streak");
    }

    #[test]
    fn occupancy_timeline_tracks_enqueue_and_complete() {
        let mut t = Telemetry::with_capacity(16);
        for id in 0..3u64 {
            t.on_event(&SimEvent::DramEnqueue {
                id,
                channel: 0,
                addr: 0,
                pattern: PatternId(0),
                write: false,
                at_mem: 10 + id,
            });
        }
        t.on_event(&SimEvent::DramComplete { id: 0, at_mem: 50 });
        let samples: Vec<(u64, u32)> = t.occupancy(0).collect();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[2], (12, 3));
        assert_eq!(samples[3], (50, 2));
    }

    #[test]
    fn gather_splits_count_chip_conflicts() {
        let mut t = Telemetry::with_capacity(16);
        t.on_event(&SimEvent::GatherSplit {
            addr: 0,
            pattern: PatternId(7),
            subs: 8,
            at_mem: 5,
        });
        let ps = t.patterns().next().unwrap().1;
        assert_eq!(ps.chip_conflicts, 7);
        let node = t.stats_node("telemetry");
        assert_eq!(node.counter_at("gather_splits"), Some(1));
        assert_eq!(node.counter_at("patterns/p7/chip_conflicts"), Some(7));
    }
}
