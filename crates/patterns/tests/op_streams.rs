//! Op-stream digests for [`Compiled::program`]: every builtin spec,
//! under both layouts, must emit exactly the op stream and progress
//! trace it emitted when the digests below were recorded.
//!
//! Each digest is FNV-1a over explicit fields (op kind, `pc`, `addr`,
//! pattern, store value, compute cycles) plus `progress()` after every
//! op — the same scheme as `crates/workloads/tests/op_streams.rs`.
//!
//! Run with `cargo test -p gsdram-patterns --test op_streams`. A
//! mismatch prints the full recomputed table.

use gsdram_patterns::{builtin, Compiled, PatternData, PatternLayout, BUILTIN_NAMES};
use gsdram_system::ops::{Op, Program};

/// FNV-1a, 64-bit, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(ops, final progress, digest)` of the whole stream of `p`.
fn digest(p: &mut dyn Program) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    let mut n = 0;
    while let Some(op) = p.next_op() {
        match op {
            Op::Load { pc, addr, pattern } => {
                h.word(0);
                h.word(pc);
                h.word(addr);
                h.word(u64::from(pattern.0));
            }
            Op::Load16 { pc, addr, pattern } => {
                h.word(1);
                h.word(pc);
                h.word(addr);
                h.word(u64::from(pattern.0));
            }
            Op::Store {
                pc,
                addr,
                pattern,
                value,
            } => {
                h.word(2);
                h.word(pc);
                h.word(addr);
                h.word(u64::from(pattern.0));
                h.word(value);
            }
            Op::Compute(c) => {
                h.word(3);
                h.word(u64::from(c));
            }
        }
        h.word(p.progress());
        n += 1;
    }
    (n, p.progress(), h.0)
}

/// Every builtin × layout, named. The dataset bases are fixed so the
/// digests do not depend on the allocator.
fn all_digests() -> Vec<(String, (u64, u64, u64))> {
    let data = PatternData {
        base: 1 << 20,
        idx_base: 16 << 20,
    };
    let mut out = Vec::new();
    for name in BUILTIN_NAMES {
        let c = Compiled::new(builtin(name).expect("builtin resolves"));
        for layout in [PatternLayout::Row, PatternLayout::GsDram] {
            let mut p = c.program(layout, data);
            out.push((format!("{name}/{}", layout.label()), digest(&mut p)));
        }
    }
    out
}

/// Digests recorded from the generator as first written (a boxed
/// `flat_map` iterator); `(name, ops, final progress, FNV-1a digest)`.
const WANT: &[(&str, u64, u64, u64)] = &[
    ("stride2/row", 65536, 32768, 0x4c9987f2f3018a25),
    ("stride2/gs-dram", 65536, 32768, 0xfa3c34cf60a3f4a5),
    ("stride8/row", 16384, 8192, 0x9537ec182ffad045),
    ("stride8/gs-dram", 16384, 8192, 0xb0716cd4c265f0c5),
    ("stride7/row", 18724, 9362, 0xb15c38e88cab2ee3),
    ("stride7/gs-dram", 18724, 9362, 0xb15c38e88cab2ee3),
    ("mostly-stride/row", 16384, 8192, 0x3003da985b575e12),
    ("mostly-stride/gs-dram", 16384, 8192, 0x022951e4a3f8b8da),
    ("stride-gap/row", 32768, 16384, 0x1f7de5616da7b0e5),
    ("stride-gap/gs-dram", 32768, 16384, 0x1f7de5616da7b0e5),
    ("window-random/row", 16384, 8192, 0x7c43de7d1e6e04d6),
    ("window-random/gs-dram", 16384, 8192, 0x7c43de7d1e6e04d6),
    ("indirect/row", 24576, 8192, 0x3c3bf2af6ff0f46d),
    ("indirect/gs-dram", 24576, 8192, 0x3c3bf2af6ff0f46d),
    ("dup-scatter/row", 24576, 8192, 0x5008d605506b47c5),
    ("dup-scatter/gs-dram", 24576, 8192, 0x5008d605506b47c5),
];

#[test]
fn op_streams_match_recorded_digests() {
    let got = all_digests();
    let table: String = got
        .iter()
        .map(|(name, (ops, progress, h))| {
            format!("    (\"{name}\", {ops}, {progress}, {h:#018x}),\n")
        })
        .collect();
    let same = got.len() == WANT.len()
        && got
            .iter()
            .zip(WANT)
            .all(|((name, (ops, progress, h)), want)| {
                (name.as_str(), *ops, *progress, *h) == *want
            });
    assert!(
        same,
        "op-stream digests drifted; recomputed table:\n{table}"
    );
}
