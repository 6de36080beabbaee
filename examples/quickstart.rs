//! Quickstart: the GS-DRAM substrate in isolation.
//!
//! Builds the paper's running example (a table of tuples, Figures 1–7):
//! stores tuples as ordinary cache lines, then gathers one field of
//! many tuples with a single column command.
//!
//! Run: `cargo run --example quickstart`

#![expect(
    clippy::print_stdout,
    reason = "examples are demos: their console narrative is the deliverable"
)]
use gsdram::core::{
    analysis::{reads_for_stride, MappingScheme},
    ColumnId, Geometry, GsDramConfig, GsModule, PatternId, RowId,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The evaluated configuration: 8 chips, 3 shuffle stages, 3-bit
    // pattern IDs → 64-byte cache lines, strides 1..8 gatherable.
    let cfg = GsDramConfig::gs_dram_8_3_3();
    let geom = Geometry::ddr3_row(&cfg, 1)?;
    let mut dram = GsModule::new(cfg.clone(), geom);

    // A tiny database table: 16 tuples of eight 8-byte fields, one
    // tuple per cache line. Value convention: tuple*100 + field.
    println!("storing 16 tuples (pattern 0, shuffled) ...");
    for t in 0..16u64 {
        let tuple: Vec<u64> = (0..8).map(|f| t * 100 + f).collect();
        dram.write_line(RowId(0), ColumnId(t as u32), PatternId(0), true, &tuple)?;
    }

    // Ordinary access: one tuple per READ.
    let tuple5 = dram.read_line(RowId(0), ColumnId(5), PatternId(0), true)?;
    println!("READ col 5, pattern 0  -> tuple 5        = {tuple5:?}");

    // Gathered access: field 3 of tuples 0..8 with ONE read command.
    // (pattern 7 = stride 8; column 3 selects field 3 — §4.3.)
    let field3 = dram.read_line(RowId(0), ColumnId(3), PatternId(7), true)?;
    println!("READ col 3, pattern 7  -> field 3 of 0..8 = {field3:?}");
    assert_eq!(field3, (0..8).map(|t| t * 100 + 3).collect::<Vec<u64>>());

    // And field 3 of the next eight tuples (columns 8..16).
    let field3b = dram.read_line(RowId(0), ColumnId(8 + 3), PatternId(7), true)?;
    println!("READ col 11, pattern 7 -> field 3 of 8..16 = {field3b:?}");

    // Scatter: update field 0 of tuples 0..8 with one WRITE command.
    dram.write_line(
        RowId(0),
        ColumnId(0),
        PatternId(7),
        true,
        &[90, 91, 92, 93, 94, 95, 96, 97],
    )?;
    let tuple2 = dram.read_line(RowId(0), ColumnId(2), PatternId(0), true)?;
    println!("after pattern-7 scatter, tuple 2          = {tuple2:?}");
    assert_eq!(tuple2[0], 92);

    // Why the shuffle matters: READ commands needed for one line of a
    // stride-8 gather under each mapping.
    println!();
    println!("READs per gathered line (stride 8):");
    println!(
        "  naive word-i-to-chip-i mapping: {}",
        reads_for_stride(&cfg, MappingScheme::Naive, 8)
    );
    println!(
        "  column-ID shuffled mapping:     {}",
        reads_for_stride(&cfg, MappingScheme::Shuffled, 8)
    );
    Ok(())
}
