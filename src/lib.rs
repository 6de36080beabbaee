//! # gsdram
//!
//! A from-scratch Rust reproduction of **Gather-Scatter DRAM: In-DRAM
//! Address Translation to Improve the Spatial Locality of Non-unit
//! Strided Accesses** (Seshadri et al., MICRO-48, 2015).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`core`] — the GS-DRAM substrate: data shuffling (§3.2), per-chip
//!   column translation (§3.3), the functional module model, chip-
//!   conflict analysis and the §6 extensions;
//! * [`dram`] — a DDR3-1600 timing/energy substrate with an FR-FCFS
//!   memory controller (the Table 1 memory system);
//! * [`cache`] — pattern-tagged caches, overlap coherence and a stride
//!   prefetcher (§4.1, §5.1);
//! * [`system`] — the end-to-end machine: in-order cores executing
//!   `pattload`/`pattstore` (§4.2) over `pattmalloc`-managed pages
//!   (§4.3), with CPU + DRAM energy accounting;
//! * [`workloads`] — the evaluated applications: in-memory database,
//!   GEMM, key-value store and graph processing (§5).
//!
//! ## Quickstart
//!
//! One `pattload` with pattern 7 gathers one field of eight tuples:
//!
//! ```
//! use gsdram::core::{GsModule, GsDramConfig, Geometry, RowId, ColumnId, PatternId};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = GsDramConfig::gs_dram_8_3_3();
//! let geom = Geometry::ddr3_row(&cfg, 1)?;
//! let mut dram = GsModule::new(cfg, geom);
//! for t in 0..8u64 {
//!     let tuple: Vec<u64> = (0..8).map(|f| t * 100 + f).collect();
//!     dram.write_line(RowId(0), ColumnId(t as u32), PatternId(0), true, &tuple)?;
//! }
//! let field0 = dram.read_line(RowId(0), ColumnId(0), PatternId(7), true)?;
//! assert_eq!(field0, vec![0, 100, 200, 300, 400, 500, 600, 700]);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end system runs and `gsdram-sim sweep` for
//! the experiment registry that regenerates every table and figure of the
//! paper.

// The determinism contract (docs/LINTS.md), for non-test code: no wall
// clock, threads or hash-order iteration (clippy.toml), no panicking
// shortcuts.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used
    )
)]
#![warn(missing_docs)]

pub use gsdram_cache as cache;
pub use gsdram_core as core;
pub use gsdram_dram as dram;
pub use gsdram_system as system;
pub use gsdram_workloads as workloads;
