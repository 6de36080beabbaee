//! The traced run's probes into the simulator's public API: a wrapping
//! [`Program`] that counts and samples `next_op`/`on_load_value`, and
//! an [`EventSink`] that counts events by layer. Both share one
//! [`Probe`] with the run's spans, since the sink must be `'static`.

use std::cell::RefCell;
use std::rc::Rc;

use gsdram_core::port::{EventSink, SimEvent};
use gsdram_system::ops::{Op, Program};

use crate::spans::{Clock, SpanId, Spans, SAMPLE_EVERY};

/// Event counts of one traced repetition, by the layer that emitted
/// them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Every event seen.
    pub events: u64,
    /// Lines installed into any cache.
    pub cache_fills: u64,
    /// Victims pushed out by fills.
    pub cache_evictions: u64,
    /// Victims that held modified data.
    pub cache_dirty_evictions: u64,
    /// Coherence flushes ahead of a fetch.
    pub overlap_flushes_fetch: u64,
    /// Coherence invalidations by a store.
    pub overlap_flushes_store: u64,
    /// Fetches the bridge enqueued at a controller.
    pub enqueues_read: u64,
    /// Writebacks the bridge enqueued at a controller.
    pub enqueues_write: u64,
    /// Data bursts the controllers finished.
    pub completions: u64,
    /// Gathers split into several sub-requests.
    pub gather_splits: u64,
}

impl EventCounts {
    fn add(&mut self, ev: &SimEvent) {
        self.events += 1;
        match ev {
            SimEvent::CacheFill { .. } => self.cache_fills += 1,
            SimEvent::CacheEvict { dirty, .. } => {
                self.cache_evictions += 1;
                self.cache_dirty_evictions += u64::from(*dirty);
            }
            SimEvent::OverlapFlush { store: false, .. } => self.overlap_flushes_fetch += 1,
            SimEvent::OverlapFlush { store: true, .. } => self.overlap_flushes_store += 1,
            SimEvent::DramEnqueue { write: false, .. } => self.enqueues_read += 1,
            SimEvent::DramEnqueue { write: true, .. } => self.enqueues_write += 1,
            SimEvent::DramComplete { .. } => self.completions += 1,
            SimEvent::GatherSplit { .. } => self.gather_splits += 1,
            SimEvent::DramCommand { .. }
            | SimEvent::DramService { .. }
            | SimEvent::SchedDecision { .. } => {}
        }
    }
}

/// What the probes of one traced repetition share.
#[derive(Debug)]
pub struct Probe {
    /// Every span of the run.
    pub spans: Spans,
    /// Event counts of the current repetition.
    pub events: EventCounts,
    /// The current repetition.
    pub rep: u32,
    /// The span sampled calls are children of (the `Machine::run`
    /// span while it is open).
    pub parent: SpanId,
}

/// A [`Probe`] shared by the wrapping programs and the sink.
pub type SharedProbe = Rc<RefCell<Probe>>;

/// Times one sampled call to `f` and records it under the probe's
/// current parent span.
fn sampled<T>(probe: &SharedProbe, clock: Clock, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = clock.now_ns();
    let out = f();
    let end = clock.now_ns();
    let mut p = probe.borrow_mut();
    let (rep, parent) = (p.rep, p.parent);
    p.spans.sample(rep, name, parent, start, end, SAMPLE_EVERY);
    out
}

/// A [`Program`] wrapper that counts every `next_op`/`on_load_value`
/// call and times one in [`SAMPLE_EVERY`].
pub struct TracedProgram<'a> {
    inner: &'a mut dyn Program,
    probe: SharedProbe,
    clock: Clock,
    /// `next_op` calls so far.
    pub next_op_calls: u64,
    /// `on_load_value` calls so far.
    pub on_load_value_calls: u64,
}

impl<'a> TracedProgram<'a> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: &'a mut dyn Program, probe: &SharedProbe) -> Self {
        let clock = probe.borrow().spans.clock();
        TracedProgram {
            inner,
            probe: Rc::clone(probe),
            clock,
            next_op_calls: 0,
            on_load_value_calls: 0,
        }
    }
}

impl Program for TracedProgram<'_> {
    fn next_op(&mut self) -> Option<Op> {
        self.next_op_calls += 1;
        if !self.next_op_calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_op();
        }
        let inner = &mut *self.inner;
        sampled(&self.probe, self.clock, "Program::next_op", || {
            inner.next_op()
        })
    }

    fn on_load_value(&mut self, value: u64) {
        self.on_load_value_calls += 1;
        if !self.on_load_value_calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.on_load_value(value);
        }
        let inner = &mut *self.inner;
        sampled(&self.probe, self.clock, "Program::on_load_value", || {
            inner.on_load_value(value)
        })
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn result(&self) -> u64 {
        self.inner.result()
    }
}

/// An [`EventSink`] counting events into the probe, timing one event
/// in [`SAMPLE_EVERY`].
pub struct CountingSink {
    probe: SharedProbe,
    clock: Clock,
    seen: u64,
}

impl CountingSink {
    /// A sink recording into `probe`.
    pub fn new(probe: &SharedProbe) -> Self {
        let clock = probe.borrow().spans.clock();
        CountingSink {
            probe: Rc::clone(probe),
            clock,
            seen: 0,
        }
    }
}

impl EventSink for CountingSink {
    fn on_event(&mut self, ev: &SimEvent) {
        self.seen += 1;
        if !self.seen.is_multiple_of(SAMPLE_EVERY) {
            return self.probe.borrow_mut().events.add(ev);
        }
        let probe = &self.probe;
        sampled(probe, self.clock, "observer", || {
            probe.borrow_mut().events.add(ev)
        });
    }
}
