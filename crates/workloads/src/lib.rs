//! # gsdram-workloads
//!
//! The applications the GS-DRAM paper evaluates (§5), implemented as lazy
//! op-stream programs over the [`gsdram_system`] machine:
//!
//! * [`imdb`] — the in-memory database: transactions, analytics and HTAP
//!   over Row Store / Column Store / GS-DRAM layouts (§5.1);
//! * [`gemm`] — matrix-matrix multiplication: naive, tiled, tiled+SIMD
//!   with software gather, and GS-DRAM pattern loads (§5.2);
//! * [`kvstore`] — key-value store lookups via pattern-1 key gathers
//!   (§5.3);
//! * [`graph`] — graph traversal/update phases via pattern-7 field
//!   gathers (§5.3);
//! * [`filter`] — a data-dependent selective-projection query (an
//!   extension experiment: scan benefit vs selectivity crossover);
//! * [`transpose`] — matrix transpose via gathered tile columns;
//! * [`common`] — block-generated program plumbing and a deterministic RNG.

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

pub mod common;
pub mod filter;
pub mod gemm;
pub mod graph;
pub mod imdb;
pub mod kvstore;
pub mod transpose;
