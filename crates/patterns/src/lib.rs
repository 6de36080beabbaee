//! # gsdram-patterns
//!
//! A Spatter-style pattern-spec workload engine: declarative JSON
//! specs describe gather/scatter index streams — uniform stride
//! (including the non-power-of-2 strides GS-DRAM's shuffle cannot
//! realign), mostly-stride with deviation, strided blocks with gaps,
//! windowed random, and fully indirect index arrays with optional
//! duplicate addresses — and this crate compiles any spec into the
//! lazy op-stream machinery that drives the full machine.
//!
//! The paper evaluates two applications; this subsystem evaluates the
//! *mechanism*: where pattern-ID translation wins (power-of-two
//! strides), where the win shrinks (strides with a small power-of-two
//! factor), and where it collapses entirely (odd strides, random and
//! data-dependent streams). The pipeline:
//!
//! 1. [`spec`] — parse + validate the JSON spec ([`PatternSpec`]),
//!    strict and panic-free on hostile input;
//! 2. [`stream`] — materialize the seeded index stream
//!    ([`AccessStream`], SplitMix64-deterministic);
//! 3. [`compile`] — allocate/initialise the dataset and emit the op
//!    stream ([`Compiled`]), with analytically-known checksums and
//!    last-writer-wins final values for verification.
//!
//! ```
//! use gsdram_patterns::{Compiled, PatternLayout, PatternSpec};
//! use gsdram_system::config::SystemConfig;
//! use gsdram_system::machine::{Machine, StopWhen};
//! use gsdram_system::ops::Program;
//!
//! let spec = PatternSpec::parse(
//!     r#"{"elements": 4096, "pattern": {"type": "stride", "stride": 8}}"#,
//! ).unwrap();
//! let c = Compiled::new(spec);
//! let mut m = Machine::new(SystemConfig::table1(1, c.mem_bytes_hint()));
//! let data = c.create(&mut m, PatternLayout::GsDram);
//! let mut p = c.program(PatternLayout::GsDram, data);
//! let mut programs: Vec<&mut dyn Program> = vec![&mut p];
//! let r = m.run(&mut programs, StopWhen::AllDone);
//! assert_eq!(r.results[0], c.expected_sum());
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

pub mod builtin;
pub mod compile;
pub mod spec;
pub mod stream;

pub use builtin::{builtin, BUILTIN_NAMES};
pub use compile::{Compiled, PatternData, PatternLayout};
pub use spec::{AccessOp, Generator, PatternSpec, SpecError};
pub use stream::{gather_q, materialize, AccessStream};
