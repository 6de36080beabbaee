//! # gsdram-telemetry
//!
//! Telemetry for the GS-DRAM simulator: the first-class consumer of the
//! [`SimEvent`] observer contract defined in `gsdram-core::port`.
//!
//! The paper's evaluation (§5) turns on *where* a gather's latency goes
//! — chip conflicts, row-buffer hits vs. misses, bank queueing — and an
//! aggregate mean cannot show that. This crate provides:
//!
//! * [`hist`] — log-bucketed (HDR-style) [`Histogram`]s with exact
//!   merge: element-wise bucket addition, so merging per-channel
//!   histograms is bit-identical to having recorded one stream;
//! * [`collector`] — a bounded ring-buffer [`Collector`] that attaches
//!   to a machine via `Machine::attach_observer` and folds the event
//!   stream into histograms, per-pattern and per-bank breakdowns
//!   (row-hit streaks, chip-conflict counts) and a DRAM queue
//!   occupancy timeline;
//! * [`chrome`] — an exporter to Chrome trace-event JSON, loadable in
//!   Perfetto (`ui.perfetto.dev`) or `chrome://tracing`;
//!
//! Generic JSON parsing lives in `gsdram_core::json` (promoted out of
//! this crate so downstream crates don't reach into telemetry for a
//! codec); the `gsdram-trace-check` binary and the trace tests use it.
//!
//! Everything here is observation-only: attaching a collector never
//! changes simulated timing, and the figure JSON of an observed run is
//! byte-identical to an unobserved one (a property the system and
//! bench test suites pin).
//!
//! ```
//! use gsdram_core::port::{EventHub, SimEvent, DramCmdKind, RowOutcome};
//! use gsdram_core::PatternId;
//! use gsdram_telemetry::Collector;
//!
//! let collector = Collector::with_capacity(1024);
//! let mut hub = EventHub::new();
//! hub.attach(collector.sink());
//! hub.emit(|| SimEvent::DramService {
//!     id: 1, channel: 0, bank: 3, pattern: PatternId(7), write: false,
//!     outcome: RowOutcome::Hit, queue_depth: 2,
//!     arrived_at_mem: 100, done_at_mem: 130,
//! });
//! let t = collector.snapshot();
//! assert_eq!(t.read_latency(0).unwrap().count(), 1);
//! ```
//!
//! [`SimEvent`]: gsdram_core::port::SimEvent
//! [`Histogram`]: hist::Histogram
//! [`Collector`]: collector::Collector

// The determinism contract (docs/LINTS.md), for non-test code: the
// clippy.toml type and method lists, no panicking shortcuts and
// integer-only simulation state.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_arithmetic,
        clippy::default_numeric_fallback
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod collector;
pub mod hist;

pub use chrome::chrome_trace;
pub use collector::{Collector, DecisionStats, Telemetry, DEFAULT_CAPACITY};
pub use hist::Histogram;
