//! # gsdram-system
//!
//! The end-to-end GS-DRAM system simulator (paper §4–§5): in-order cores
//! executing `pattload`/`pattstore` streams over pattern-tagged caches,
//! a stride prefetcher, an FR-FCFS DDR3-1600 controller and a functional
//! GS-DRAM(8,3,3) module — with CPU and DRAM energy accounting.
//!
//! * [`config`] — the Table 1 system parameters;
//! * [`page`] — `pattmalloc` and per-page pattern metadata (§4.3);
//! * [`ops`] — the program/op interface (§4.2);
//! * [`machine`] — the [`Machine`]: composition shell and public API;
//! * [`exec`] — the core scheduler and run loop;
//! * [`hier`] — L1s/L2/prefetchers and the demand access path;
//! * [`coherence`] — the §4.1 pattern-overlap coherence engine + DBI;
//! * [`bridge`] — memory controllers, the GS-DRAM module, delivery;
//! * [`report`] — end-of-run statistics assembly ([`RunReport`]);
//! * [`energy`] — the McPAT-substitute processor energy model;
//! * [`trace`] — memory-trace capture and replay.
//!
//! The machine performs timing *and* functional simulation; see
//! `docs/ARCHITECTURE.md` for how the components connect and how to
//! observe a run through [`Machine::attach_observer`].
//!
//! ```
//! use gsdram_system::config::SystemConfig;
//! use gsdram_system::machine::{Machine, StopWhen};
//! use gsdram_system::ops::{Op, Program, ScriptedProgram};
//! use gsdram_core::PatternId;
//!
//! let mut m = Machine::new(SystemConfig::table1(1, 1 << 20));
//! let base = m.pattmalloc(8 * 64, true, PatternId(7));
//! for t in 0..8 { m.poke(base + t * 64, t); } // field 0 of 8 tuples
//! let mut p = ScriptedProgram::new(
//!     (0..8).map(|k| Op::Load { pc: 1, addr: base + 8 * k, pattern: PatternId(7) }).collect(),
//! );
//! let report = {
//!     let mut programs: Vec<&mut dyn Program> = vec![&mut p];
//!     m.run(&mut programs, StopWhen::AllDone)
//! };
//! assert_eq!(report.dram.reads, 1); // one gather fetched all 8 fields
//! ```

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

pub mod bridge;
pub mod coherence;
pub mod config;
pub mod energy;
pub mod exec;
pub mod hier;
pub mod machine;
pub mod ops;
pub mod page;
pub mod report;
pub mod trace;

pub use config::SystemConfig;
pub use machine::{Machine, RunReport, StopWhen};
pub use ops::{Op, Program};
