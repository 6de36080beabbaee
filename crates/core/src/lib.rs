//! # gsdram-core
//!
//! Functional model of **Gather-Scatter DRAM** (Seshadri et al.,
//! MICRO-48, 2015): a commodity-DRAM substrate that lets the memory
//! controller gather or scatter power-of-two strided access patterns
//! with a single column command.
//!
//! The substrate combines two mechanisms:
//!
//! * **Column-ID-based data shuffling** ([`shuffle`], paper §3.2): the
//!   memory controller permutes the 8-byte words of each cache line by
//!   a butterfly network controlled by the line's column address, so the
//!   words of any power-of-two stride land on distinct chips.
//! * **Pattern-ID-based column translation** ([`ctl`], paper §3.3): each
//!   chip computes its own column as `(chip_id & pattern_id) XOR
//!   column_id`, so one READ/WRITE touches a different column per chip.
//!
//! [`GsModule`] glues both into a functional module model; [`analysis`]
//! quantifies chip conflicts and reproduces the paper's Figure 7;
//! [`mat`] implements the §6.3 intra-chip (per-MAT) translation and ECC
//! extensions.
//!
//! ## Quickstart
//!
//! ```
//! use gsdram_core::{GsModule, GsDramConfig, Geometry, RowId, ColumnId, PatternId};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's evaluated GS-DRAM(8,3,3): 8 chips, 64-byte lines.
//! let cfg = GsDramConfig::gs_dram_8_3_3();
//! let geom = Geometry::ddr3_row(&cfg, 1)?;
//! let mut dram = GsModule::new(cfg, geom);
//!
//! // Store eight 8-field tuples, one per cache line (pattern 0).
//! for t in 0..8u64 {
//!     let tuple: Vec<u64> = (0..8).map(|f| t * 100 + f).collect();
//!     dram.write_line(RowId(0), ColumnId(t as u32), PatternId(0), true, &tuple)?;
//! }
//!
//! // One READ with pattern 7 (stride 8) gathers field 0 of all eight
//! // tuples into a single cache line.
//! let field0 = dram.read_line(RowId(0), ColumnId(0), PatternId(7), true)?;
//! assert_eq!(field0, vec![0, 100, 200, 300, 400, 500, 600, 700]);
//! # Ok(())
//! # }
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

pub mod analysis;
pub mod cast;
mod config;
pub mod cost;
pub mod ctl;
pub mod ecc;
mod error;
mod ids;
pub mod json;
pub mod mat;
mod module;
pub mod plan;
pub mod port;
pub mod rng;
pub mod shuffle;
pub mod stats;
pub mod time;

pub use config::{Geometry, GsDramConfig};
pub use error::{AccessError, ConfigError};
pub use ids::{ChipId, ColumnId, PatternId, RowId};
pub use module::{
    column_containing, gather_slots, gathered_elements, gathered_elements_into, GatherSlot,
    GsModule,
};
