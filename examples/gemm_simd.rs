//! GEMM with SIMD over GS-DRAM (paper §5.2): shows how pattern loads
//! eliminate the software gather of B-column values into SIMD
//! registers, and verifies the gathered data functionally.
//!
//! Run: `cargo run --release --example gemm_simd`

#![expect(
    clippy::print_stdout,
    reason = "examples are demos: their console narrative is the deliverable"
)]
use gsdram::core::PatternId;
use gsdram::system::config::SystemConfig;
use gsdram::system::machine::{Machine, StopWhen};
use gsdram::system::ops::{Op, Program, ScriptedProgram};
use gsdram::workloads::gemm::{program, Gemm, GemmVariant};

fn main() {
    let n = 128;

    // Part 1: functional demo — pattern-7 loads really do return B's
    // tile columns.
    let mut m = Machine::new(SystemConfig::table1(1, 16 << 20));
    let g = Gemm::create(&mut m, n, GemmVariant::GsDram { tile: 32 });
    g.init(&mut m);
    let ops: Vec<Op> = (0..8)
        .map(|k| Op::Load {
            pc: 1,
            addr: g.b_gather_addr(k, 5),
            pattern: PatternId(7),
        })
        .collect();
    let mut probe = ScriptedProgram::new(ops);
    {
        let mut programs: Vec<&mut dyn Program> = vec![&mut probe];
        m.run(&mut programs, StopWhen::AllDone);
    }
    println!(
        "column 5 of B's first tile via ONE gathered line: {:?}",
        probe.loaded_values()
    );
    let want: Vec<u64> = (0..8).map(|k| (k * n + 5 + 1) as u64).collect();
    assert_eq!(probe.loaded_values(), &want[..]);

    // Part 2: timing — baseline software gather vs pattern loads.
    println!();
    println!("{n}x{n} GEMM, dot-product SIMD, register-blocked micro-kernel:");
    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "variant", "Mcycles", "Mops", "energy (mJ)"
    );
    let mut cycles = Vec::new();
    for variant in [
        GemmVariant::Naive,
        GemmVariant::Tiled { tile: 32 },
        GemmVariant::TiledSimd { tile: 32 },
        GemmVariant::GsDram { tile: 32 },
    ] {
        let mut m = Machine::new(SystemConfig::table1(1, 16 << 20));
        let g = Gemm::create(&mut m, n, variant);
        g.init(&mut m);
        let (mut p, _) = program(g, None);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>14.2}",
            variant.label(),
            r.cpu_cycles as f64 / 1e6,
            r.ops as f64 / 1e6,
            r.energy.total_mj()
        );
        cycles.push((variant.label(), r.cpu_cycles));
    }
    let simd = cycles[2].1 as f64;
    let gs = cycles[3].1 as f64;
    println!();
    println!(
        "GS-DRAM vs best tiled+SIMD: {:.1}% faster (paper: ~10%)",
        (1.0 - gs / simd) * 100.0
    );
}
