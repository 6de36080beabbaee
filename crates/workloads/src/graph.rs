//! Graph-processing workload (paper §5.3).
//!
//! Nodes are 64-byte objects with eight 8-byte fields (rank, degree,
//! flags, …). Two phases with different access patterns share the same
//! structure:
//!
//! * **update** — operations on individual nodes read/write several
//!   fields of one node (pattern 0, one line);
//! * **scan** — traversal passes read *one* field of many nodes; on
//!   GS-DRAM the rank field of eight nodes arrives in one pattern-7
//!   gathered line.

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;

use crate::common::{IterProgram, SplitMix, SCAN_CHUNK};

/// Node-array storage mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphLayout {
    /// Array of 64-byte node structs.
    NodeMajor,
    /// Same array on GS-DRAM with the stride-8 alternate pattern.
    GsDram,
}

impl GraphLayout {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            GraphLayout::NodeMajor => "Node-major",
            GraphLayout::GsDram => "GS-DRAM (patt 7)",
        }
    }
}

/// An allocated node array.
#[derive(Debug, Clone, Copy)]
pub struct Graph {
    /// Mechanism.
    pub layout: GraphLayout,
    /// Node count.
    pub nodes: u64,
    /// Base address.
    pub base: u64,
}

impl Graph {
    /// Allocates `nodes` nodes; field `f` of node `v` is initialised to
    /// `v * 8 + f`.
    pub fn create(m: &mut Machine, layout: GraphLayout, nodes: u64) -> Graph {
        let bytes = nodes * 64;
        let base = match layout {
            GraphLayout::NodeMajor => m.malloc(bytes),
            GraphLayout::GsDram => m.pattmalloc(bytes, true, PatternId(7)),
        };
        let g = Graph {
            layout,
            nodes,
            base,
        };
        for v in 0..nodes {
            for f in 0..8u64 {
                m.poke(g.field_addr(v, f as usize), v * 8 + f);
            }
        }
        g
    }

    /// Address of field `f` of node `v`.
    pub fn field_addr(&self, v: u64, f: usize) -> u64 {
        self.base + v * 64 + f as u64 * 8
    }
}

/// A traversal pass summing field `field` of every node (e.g. a
/// PageRank accumulation over ranks).
pub fn scan(g: Graph, field: usize) -> IterProgram {
    match g.layout {
        GraphLayout::NodeMajor => {
            IterProgram::new(g.nodes.div_ceil(SCAN_CHUNK), move |chunk, ops| {
                let first = chunk * SCAN_CHUNK;
                for v in first..(first + SCAN_CHUNK).min(g.nodes) {
                    ops.push(Op::Load {
                        pc: 0xD00,
                        addr: g.field_addr(v, field),
                        pattern: PatternId(0),
                    });
                    ops.push(Op::Compute(1));
                }
            })
        }
        GraphLayout::GsDram => IterProgram::new(g.nodes / 8, move |grp, ops| {
            for k in 0..8 {
                ops.push(Op::Load {
                    pc: 0xD10,
                    addr: g.base + (8 * grp + field as u64) * 64 + 8 * k,
                    pattern: PatternId(7),
                });
                ops.push(Op::Compute(1));
            }
        }),
    }
}

/// `count` node updates: each reads three fields of a random node and
/// writes two (pattern 0 on both layouts — one cache line per node).
pub fn updates(g: Graph, count: u64, seed: u64) -> IterProgram {
    let mut rng = SplitMix(seed);
    IterProgram::with_block_units(count, move |_, ops| {
        let v = rng.below(g.nodes);
        for (pc, f) in [(0xD20, 0), (0xD21, 1), (0xD22, 2)] {
            ops.push(Op::Load {
                pc,
                addr: g.field_addr(v, f),
                pattern: PatternId(0),
            });
        }
        for (pc, f) in [(0xD23, 0), (0xD24, 3)] {
            ops.push(Op::Store {
                pc,
                addr: g.field_addr(v, f),
                pattern: PatternId(0),
                value: rng.next_u64(),
            });
        }
        ops.push(Op::Compute(8));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::StopWhen;
    use gsdram_system::ops::Program;

    fn run(layout: GraphLayout, f: impl Fn(Graph) -> IterProgram) -> gsdram_system::RunReport {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20));
        let g = Graph::create(&mut m, layout, 4096);
        let mut p = f(g);
        let mut programs: Vec<&mut dyn Program> = vec![&mut p];
        m.run(&mut programs, StopWhen::AllDone)
    }

    #[test]
    fn scan_sums_match_across_layouts() {
        let a = run(GraphLayout::NodeMajor, |g| scan(g, 2));
        let b = run(GraphLayout::GsDram, |g| scan(g, 2));
        assert_eq!(a.results[0], b.results[0]);
        // Σ_v (8v + 2) over 4096 nodes.
        let n = 4096u64;
        assert_eq!(a.results[0], 8 * (n * (n - 1) / 2) + 2 * n);
    }

    #[test]
    fn gs_scan_is_faster_and_lighter() {
        let a = run(GraphLayout::NodeMajor, |g| scan(g, 0));
        let b = run(GraphLayout::GsDram, |g| scan(g, 0));
        assert_eq!(a.dram.reads, 4096);
        assert_eq!(b.dram.reads, 512);
        assert!(b.cpu_cycles < a.cpu_cycles);
    }

    #[test]
    fn updates_are_layout_neutral() {
        let a = run(GraphLayout::NodeMajor, |g| updates(g, 256, 9));
        let b = run(GraphLayout::GsDram, |g| updates(g, 256, 9));
        assert_eq!(a.progress[0], 256);
        assert_eq!(b.progress[0], 256);
        let ratio = b.cpu_cycles as f64 / a.cpu_cycles as f64;
        assert!(ratio < 1.15, "update overhead ratio {ratio}");
    }
}
