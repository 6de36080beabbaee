//! The stride-access planner: covering arbitrary (including
//! non-power-of-2) strides with a minimal mix of pattern commands
//! (paper §3.1's "similar approach can be used to support
//! non-power-of-2 strides" + the §6 extensions).
//!
//! Run: `cargo run --example stride_planner`

#![expect(
    clippy::print_stdout,
    reason = "examples are demos: their console narrative is the deliverable"
)]
use gsdram::core::plan::{baseline_commands, plan_stats, plan_stride};
use gsdram::core::GsDramConfig;

fn main() {
    let cfg = GsDramConfig::gs_dram_8_3_3();
    println!("planning gathers of 64 elements from one 8 KB DRAM row");
    println!("(GS-DRAM(8,3,3): patterns 0..8, 8 words per command)\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "stride", "commands", "baseline", "saved", "efficiency"
    );
    for stride in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16] {
        let count = 64.min(1024 / stride);
        let plan = plan_stride(&cfg, 128, 0, stride, count);
        let stats = plan_stats(&cfg, &plan);
        let base = baseline_commands(&cfg, 0, stride, count);
        println!(
            "{:<8} {:>10} {:>12} {:>11}% {:>9.0}%",
            stride,
            stats.commands,
            base,
            (100 * (base - stats.commands)) / base.max(1),
            stats.efficiency() * 100.0
        );
    }

    println!("\nthe stride-3 plan mixes patterns (first five commands):");
    let plan = plan_stride(&cfg, 128, 0, 3, 64);
    for p in plan.iter().take(5) {
        let elements: Vec<usize> = p.useful.iter().map(|u| u.1).collect();
        println!(
            "  pattern {} col {:>3} -> {} useful words {:?}",
            p.pattern.0,
            p.col.0,
            p.useful.len(),
            elements
        );
    }
}
