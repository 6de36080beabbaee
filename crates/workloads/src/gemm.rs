//! General matrix-matrix multiplication (paper §5.2, Figure 13).
//!
//! `C = A × B` with the dot-product loop vectorized over `k`: SIMD
//! needs `B[k..k+2][j]` — a *column* pair — in one register. The paper's
//! mechanisms:
//!
//! * **Naive** — untiled scalar ijk (the normalisation baseline of
//!   Figure 13);
//! * **Tiled** — cache-blocked scalar;
//! * **Tiled + SIMD** — cache-blocked with a *software gather*: packing a
//!   B column segment into xmm registers costs scalar loads + pack ops
//!   ("the software must gather the values of a column into a SIMD
//!   register");
//! * **GS-DRAM** — B stored in contiguous 8×8 tiles; `pattload` with
//!   pattern 7 reads a tile column directly into xmm registers,
//!   eliminating the software gather.
//!
//! The micro-kernel is register-blocked over 8 rows of `A` (an 8×8×
//! 8-MAC block): the B-column gather is amortised over those 8 rows,
//! which is what bounds GS-DRAM's benefit to the ~10% the paper reports
//! against a baseline that "spends most of its time in the L1 cache".

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;

use crate::common::IterProgram;

/// The GEMM mechanisms compared in Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// Untiled scalar ijk (normalisation baseline).
    Naive,
    /// Cache-blocked scalar with the given square tile.
    Tiled {
        /// Cache-block edge (elements).
        tile: usize,
    },
    /// Cache-blocked SIMD with software gather of B columns.
    TiledSimd {
        /// Cache-block edge (elements).
        tile: usize,
    },
    /// GS-DRAM: 8×8-tiled B + pattern-7 SIMD column loads.
    GsDram {
        /// Cache-block edge (elements).
        tile: usize,
    },
}

impl GemmVariant {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            GemmVariant::Naive => "Naive".to_string(),
            GemmVariant::Tiled { tile } => format!("Tiled({tile})"),
            GemmVariant::TiledSimd { tile } => format!("Tiled+SIMD({tile})"),
            GemmVariant::GsDram { tile } => format!("GS-DRAM({tile})"),
        }
    }
}

/// An allocated GEMM problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Gemm {
    /// Matrix dimension (n×n).
    pub n: usize,
    /// Mechanism.
    pub variant: GemmVariant,
    a: u64,
    b: u64,
    c: u64,
}

impl Gemm {
    /// Allocates A, B and C for `variant`. For [`GemmVariant::GsDram`],
    /// B is allocated with `pattmalloc(…, SHUFFLE, 7)` and stored in
    /// contiguous 8×8 tiles; otherwise all matrices are row-major.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a multiple of 8 (and of the tile size for
    /// tiled variants).
    pub fn create(m: &mut Machine, n: usize, variant: GemmVariant) -> Gemm {
        assert!(n.is_multiple_of(8), "n must be a multiple of 8");
        if let GemmVariant::Tiled { tile }
        | GemmVariant::TiledSimd { tile }
        | GemmVariant::GsDram { tile } = variant
        {
            assert!(
                tile % 8 == 0 && n.is_multiple_of(tile),
                "tile must divide n and be a multiple of 8"
            );
        }
        let bytes = (n * n * 8) as u64;
        let a = m.malloc(bytes);
        let b = match variant {
            GemmVariant::GsDram { .. } => m.pattmalloc(bytes, true, PatternId(7)),
            _ => m.malloc(bytes),
        };
        let c = m.malloc(bytes);
        Gemm {
            n,
            variant,
            a,
            b,
            c,
        }
    }

    /// Address of `A[i][k]` (row-major).
    pub fn a_addr(&self, i: usize, k: usize) -> u64 {
        self.a + ((i * self.n + k) * 8) as u64
    }

    /// Address of `C[i][j]` (row-major).
    pub fn c_addr(&self, i: usize, j: usize) -> u64 {
        self.c + ((i * self.n + j) * 8) as u64
    }

    /// Address of `B[k][j]` under the variant's layout.
    pub fn b_addr(&self, k: usize, j: usize) -> u64 {
        match self.variant {
            GemmVariant::GsDram { .. } => {
                // 8×8 tiles, tile-row-major; each tile is 512 B (8 lines).
                let tiles_per_row = self.n / 8;
                let tile = (k / 8) * tiles_per_row + (j / 8);
                self.b + (tile * 512 + (k % 8) * 64 + (j % 8) * 8) as u64
            }
            _ => self.b + ((k * self.n + j) * 8) as u64,
        }
    }

    /// The `pattload` address that gathers tile-column `j` words
    /// `k..k+2` of B's 8×8 tile containing `(k, j)` (Figure 8 address
    /// arithmetic: line of "tuple" `j`, offset `8k` within the gathered
    /// line).
    pub fn b_gather_addr(&self, k: usize, j: usize) -> u64 {
        let tiles_per_row = self.n / 8;
        let tile = (k / 8) * tiles_per_row + (j / 8);
        self.b + (tile * 512 + (j % 8) * 64 + (k % 8) * 8) as u64
    }

    /// Populates A and B with deterministic values (`i*n+k` style).
    pub fn init(&self, m: &mut Machine) {
        for i in 0..self.n {
            for k in 0..self.n {
                m.poke(self.a_addr(i, k), (i * self.n + k) as u64);
                m.poke(self.b_addr(i, k), (i * self.n + k + 1) as u64);
            }
        }
    }
}

/// Builds the op stream for one GEMM run.
///
/// `sample_outer` limits the outermost loop (i rows for naive, row-tile
/// stripes otherwise) to the given count. The returned pair is
/// `(full, simulated)` outer iterations; `full / simulated` scales the
/// measured cycles back to the full problem (used by the Figure 13
/// harness for n ≥ 256). `None` simulates everything (`full == simulated`).
pub fn program(g: Gemm, sample_outer: Option<usize>) -> (IterProgram, (usize, usize)) {
    match g.variant {
        GemmVariant::Naive => naive(g, sample_outer),
        GemmVariant::Tiled { tile } => tiled_scalar(g, tile, sample_outer),
        GemmVariant::TiledSimd { tile } => tiled_simd(g, tile, sample_outer, false),
        GemmVariant::GsDram { tile } => tiled_simd(g, tile, sample_outer, true),
    }
}

fn naive(g: Gemm, sample: Option<usize>) -> (IterProgram, (usize, usize)) {
    let n = g.n;
    let rows = sample.map_or(n, |s| s.min(n));
    // for i { for j { acc = 0; for k { acc += A[i][k] * B[k][j] } } }
    let ops = (0..rows).flat_map(move |i| {
        (0..n).flat_map(move |j| {
            (0..n).step_by(8).flat_map(move |k| {
                // One A line per 8 k; 8 B loads (column walk); 8 fma + idx.
                let mut v: Vec<Op> = Vec::with_capacity(10);
                v.push(Op::Load {
                    pc: 0xA00,
                    addr: g.a_addr(i, k),
                    pattern: PatternId(0),
                });
                for kk in 0..8 {
                    v.push(Op::Load {
                        pc: 0xB00,
                        addr: g.b_addr(k + kk, j),
                        pattern: PatternId(0),
                    });
                }
                v.push(Op::Compute(11)); // 8 fma + 3 loop/address ops
                v
            })
        })
    });
    (IterProgram::new(Box::new(ops)), (n, rows))
}

fn tiled_scalar(g: Gemm, t: usize, sample: Option<usize>) -> (IterProgram, (usize, usize)) {
    let n = g.n;
    let stripes = n / t;
    let run = sample.map_or(stripes, |s| s.min(stripes));
    let ops = (0..run).flat_map(move |ti| {
        (0..n / t).flat_map(move |tj| {
            (0..n / t).flat_map(move |tk| {
                (0..t).flat_map(move |jj| {
                    let j = tj * t + jj;
                    (0..t).step_by(8).flat_map(move |ks| {
                        let k = tk * t + ks;
                        (0..t).step_by(8).flat_map(move |is| {
                            let i0 = ti * t + is;
                            // 8 scalar B loads, then per row: A line +
                            // 8 scalar fma.
                            let mut v: Vec<Op> = Vec::with_capacity(18);
                            for kk in 0..8 {
                                v.push(Op::Load {
                                    pc: 0xB10,
                                    addr: g.b_addr(k + kk, j),
                                    pattern: PatternId(0),
                                });
                            }
                            for r in 0..8 {
                                v.push(Op::Load {
                                    pc: 0xA10 + r as u64,
                                    addr: g.a_addr(i0 + r, k),
                                    pattern: PatternId(0),
                                });
                                v.push(Op::Compute(11));
                            }
                            v.push(Op::Compute(2));
                            v
                        })
                    })
                })
            })
        })
    });
    (IterProgram::new(Box::new(ops)), (stripes, run))
}

/// The shared tiled-SIMD structure; `gs` selects the B-column access:
/// software gather (8 scalar loads + 4 packs) vs 4 pattern-7 `pattload`s
/// into xmm registers.
fn tiled_simd(g: Gemm, t: usize, sample: Option<usize>, gs: bool) -> (IterProgram, (usize, usize)) {
    let n = g.n;
    let stripes = n / t;
    let run = sample.map_or(stripes, |s| s.min(stripes));
    let ops = (0..run).flat_map(move |ti| {
        (0..n / t).flat_map(move |tj| {
            (0..n / t).flat_map(move |tk| {
                (0..t).flat_map(move |jj| {
                    let j = tj * t + jj;
                    (0..t).step_by(8).flat_map(move |ks| {
                        let k = tk * t + ks;
                        (0..t).step_by(8).flat_map(move |is| {
                            let i0 = ti * t + is;
                            let mut v: Vec<Op> = Vec::with_capacity(16);
                            if gs {
                                // 4 × pattload xmm: B[k..k+8][j], two
                                // column values per load, one gathered
                                // line for all four.
                                for kk in (0..8).step_by(2) {
                                    v.push(Op::Load16 {
                                        pc: 0xB20,
                                        addr: g.b_gather_addr(k + kk, j),
                                        pattern: PatternId(7),
                                    });
                                }
                            } else {
                                // Software gather: 8 scalar loads + 4
                                // packs (unpcklpd).
                                for kk in 0..8 {
                                    v.push(Op::Load {
                                        pc: 0xB30,
                                        addr: g.b_addr(k + kk, j),
                                        pattern: PatternId(0),
                                    });
                                }
                                v.push(Op::Compute(4));
                            }
                            // 8 A rows × (one A line as 4 xmm loads → 1
                            // line access + 3 issue slots, 4 SIMD fma).
                            for r in 0..8 {
                                v.push(Op::Load16 {
                                    pc: 0xA20 + r as u64,
                                    addr: g.a_addr(i0 + r, k),
                                    pattern: PatternId(0),
                                });
                                v.push(Op::Compute(7));
                            }
                            v.push(Op::Compute(2));
                            v
                        })
                    })
                })
            })
        })
    });
    (IterProgram::new(Box::new(ops)), (stripes, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::StopWhen;
    use gsdram_system::ops::Program;

    fn run(n: usize, variant: GemmVariant) -> (u64, gsdram_system::RunReport) {
        let mut m = Machine::new(SystemConfig::table1(1, 32 << 20));
        let g = Gemm::create(&mut m, n, variant);
        g.init(&mut m);
        let (mut p, (full, simulated)) = program(g, None);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(full, simulated);
        (r.cpu_cycles, r)
    }

    #[test]
    fn b_layouts_are_bijective() {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20));
        let g = Gemm::create(&mut m, 32, GemmVariant::GsDram { tile: 32 });
        let mut seen = std::collections::HashSet::new();
        for k in 0..32 {
            for j in 0..32 {
                assert!(
                    seen.insert(g.b_addr(k, j)),
                    "duplicate address for ({k},{j})"
                );
            }
        }
    }

    #[test]
    fn gather_addr_reads_tile_columns() {
        // Functional check: pattern-7 loads at b_gather_addr return
        // B[k][j] for the tiled layout.
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20));
        let g = Gemm::create(&mut m, 16, GemmVariant::GsDram { tile: 16 });
        g.init(&mut m);
        let mut ops = Vec::new();
        for (k, j) in [(0, 0), (3, 5), (9, 2), (15, 15), (8, 8)] {
            ops.push(Op::Load {
                pc: 1,
                addr: g.b_gather_addr(k, j),
                pattern: PatternId(7),
            });
        }
        let mut p = gsdram_system::ops::ScriptedProgram::new(ops);
        {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone);
        }
        let want: Vec<u64> = [(0usize, 0usize), (3, 5), (9, 2), (15, 15), (8, 8)]
            .iter()
            .map(|&(k, j)| (k * 16 + j + 1) as u64)
            .collect();
        assert_eq!(p.loaded_values(), &want[..]);
    }

    #[test]
    fn tiling_beats_naive_at_scale() {
        let (naive, _) = run(64, GemmVariant::Naive);
        let (tiled, _) = run(64, GemmVariant::TiledSimd { tile: 32 });
        assert!(tiled < naive, "tiled {tiled} !< naive {naive}");
    }

    #[test]
    fn gsdram_beats_tiled_simd() {
        let (simd, r_simd) = run(64, GemmVariant::TiledSimd { tile: 32 });
        let (gs, r_gs) = run(64, GemmVariant::GsDram { tile: 32 });
        assert!(gs < simd, "gs {gs} !< simd {simd}");
        // The win comes from fewer instructions (no software gather).
        assert!(r_gs.ops < r_simd.ops);
        // Improvement should be in the single-digit-to-teens percent
        // range, not a blowout (the baseline is L1-resident).
        let gain = 1.0 - gs as f64 / simd as f64;
        assert!(gain > 0.02 && gain < 0.30, "gain {gain}");
    }

    #[test]
    fn simd_beats_scalar_tiled() {
        let (scalar, _) = run(64, GemmVariant::Tiled { tile: 32 });
        let (simd, _) = run(64, GemmVariant::TiledSimd { tile: 32 });
        assert!(simd < scalar);
    }

    #[test]
    fn sampling_scales_consistently() {
        let mut m = Machine::new(SystemConfig::table1(1, 32 << 20));
        let g = Gemm::create(&mut m, 64, GemmVariant::TiledSimd { tile: 16 });
        g.init(&mut m);
        let (_p, sampled) = program(g, Some(2));
        assert_eq!(sampled, (4, 2)); // 4 stripes, 2 simulated
    }

    #[test]
    fn variant_labels() {
        assert_eq!(GemmVariant::Naive.label(), "Naive");
        assert_eq!(GemmVariant::GsDram { tile: 32 }.label(), "GS-DRAM(32)");
        assert_eq!(
            GemmVariant::TiledSimd { tile: 16 }.label(),
            "Tiled+SIMD(16)"
        );
    }
}
