//! Key-value store workload (paper §5.3).
//!
//! An array of 16-byte pairs (8-byte key, 8-byte value). Inserts benefit
//! from key and value sharing a cache line (pattern 0); lookups that
//! scan keys benefit from cache lines containing *only keys* — exactly
//! what pattern 1 (stride 2) gathers: "the cache line (Patt 1, Col 0)
//! corresponds to the first four keys" (Figure 7 discussion).

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;

use crate::common::{IterProgram, SplitMix};

/// Storage mechanism for the pair array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvLayout {
    /// Plain interleaved pairs; scans read keys and values.
    Interleaved,
    /// Interleaved pairs on GS-DRAM; scans gather keys with pattern 1.
    GsDram,
}

impl KvLayout {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            KvLayout::Interleaved => "Interleaved",
            KvLayout::GsDram => "GS-DRAM (patt 1)",
        }
    }
}

/// An allocated key-value store.
#[derive(Debug, Clone, Copy)]
pub struct KvStore {
    /// Mechanism.
    pub layout: KvLayout,
    /// Number of pairs.
    pub pairs: u64,
    /// Base address.
    pub base: u64,
}

impl KvStore {
    /// Allocates and fills the store; key of pair `i` is `i * 2 + 1`,
    /// value is `i * 2 + 2`.
    pub fn create(m: &mut Machine, layout: KvLayout, pairs: u64) -> KvStore {
        let bytes = pairs * 16;
        let base = match layout {
            KvLayout::Interleaved => m.malloc(bytes),
            KvLayout::GsDram => m.pattmalloc(bytes, true, PatternId(1)),
        };
        let kv = KvStore {
            layout,
            pairs,
            base,
        };
        for i in 0..pairs {
            m.poke(kv.key_addr(i), i * 2 + 1);
            m.poke(kv.value_addr(i), i * 2 + 2);
        }
        kv
    }

    /// Address of pair `i`'s key.
    pub fn key_addr(&self, i: u64) -> u64 {
        self.base + i * 16
    }

    /// Address of pair `i`'s value.
    pub fn value_addr(&self, i: u64) -> u64 {
        self.base + i * 16 + 8
    }

    /// The `pattload` address gathering the key of pair `i` (pattern 1):
    /// key `i` is element `2i` of its row; the stride-2 gathered line of
    /// `chips` keys starts at the aligned group of `chips` pairs.
    fn key_gather_addr(&self, i: u64) -> u64 {
        // Element 2i lives at column (2i)/8, word (2i)%8. The pattern-1
        // line containing it: group of 8 keys = pairs (i & !7) .. +8,
        // spread over two adjacent columns. Address = line of column
        // group + word offset; Figure-8 arithmetic:
        let group = i / 8; // 8 keys per gathered line (8 chips)
        let word = i % 8;
        // Column pair (2*group*16/..): the gathered line's issued column
        // is the one whose low bits select the key sub-pattern: for
        // stride 2, issued col c with c&1 == 0 gathers even elements
        // (keys). Two consecutive columns hold 8 pairs = 1 group.
        self.base + group * 128 + word * 8
    }
}

/// Scans the first `scan_len` keys looking for `needle_idx`'s key,
/// then reads the matching value — repeated `lookups` times at random
/// targets within `scan_len`.
pub fn lookups(kv: KvStore, scan_len: u64, lookups: u64, seed: u64) -> IterProgram {
    let mut rng = SplitMix(seed);
    let (pc, pattern) = match kv.layout {
        KvLayout::Interleaved => (0xC00, PatternId(0)),
        KvLayout::GsDram => (0xC10, PatternId(1)),
    };
    IterProgram::with_block_units(lookups, move |_, v| {
        let target = rng.below(scan_len);
        for i in 0..=target {
            let addr = match kv.layout {
                KvLayout::Interleaved => kv.key_addr(i),
                KvLayout::GsDram => kv.key_gather_addr(i),
            };
            v.push(Op::Load { pc, addr, pattern });
            v.push(Op::Compute(1)); // compare + branch
        }
        v.push(Op::Load {
            pc: 0xC20,
            addr: kv.value_addr(target),
            pattern: PatternId(0),
        });
        v.push(Op::Compute(5));
    })
}

/// Inserts `count` pairs at random slots (key + value writes — one line
/// on either layout).
pub fn inserts(kv: KvStore, count: u64, seed: u64) -> IterProgram {
    let mut rng = SplitMix(seed);
    IterProgram::with_block_units(count, move |_, v| {
        let i = rng.below(kv.pairs);
        v.push(Op::Store {
            pc: 0xC30,
            addr: kv.key_addr(i),
            pattern: PatternId(0),
            value: rng.next_u64() | 1,
        });
        v.push(Op::Store {
            pc: 0xC40,
            addr: kv.value_addr(i),
            pattern: PatternId(0),
            value: rng.next_u64(),
        });
        v.push(Op::Compute(5));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::StopWhen;
    use gsdram_system::ops::Program;

    fn run(layout: KvLayout, f: impl Fn(KvStore) -> IterProgram) -> gsdram_system::RunReport {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20));
        let kv = KvStore::create(&mut m, layout, 4096);
        let mut p = f(kv);
        let mut programs: Vec<&mut dyn Program> = vec![&mut p];
        m.run(&mut programs, StopWhen::AllDone)
    }

    #[test]
    fn gather_addr_returns_keys() {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20));
        let kv = KvStore::create(&mut m, KvLayout::GsDram, 256);
        let ops: Vec<Op> = (0..32)
            .map(|i| Op::Load {
                pc: 1,
                addr: kv.key_gather_addr(i),
                pattern: PatternId(1),
            })
            .collect();
        let mut p = gsdram_system::ops::ScriptedProgram::new(ops);
        {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone);
        }
        let want: Vec<u64> = (0..32).map(|i| i * 2 + 1).collect();
        assert_eq!(p.loaded_values(), &want[..]);
    }

    #[test]
    fn gs_lookups_fetch_fewer_lines() {
        let plain = run(KvLayout::Interleaved, |kv| lookups(kv, 2048, 16, 3));
        let gs = run(KvLayout::GsDram, |kv| lookups(kv, 2048, 16, 3));
        assert!(
            gs.dram.reads * 3 < plain.dram.reads * 2,
            "gs {} vs plain {}",
            gs.dram.reads,
            plain.dram.reads
        );
        assert!(gs.cpu_cycles < plain.cpu_cycles);
    }

    #[test]
    fn inserts_cost_the_same_on_both_layouts() {
        let plain = run(KvLayout::Interleaved, |kv| inserts(kv, 300, 5));
        let gs = run(KvLayout::GsDram, |kv| inserts(kv, 300, 5));
        assert_eq!(plain.progress[0], 300);
        assert_eq!(gs.progress[0], 300);
        let ratio = gs.cpu_cycles as f64 / plain.cpu_cycles as f64;
        assert!(ratio < 1.15, "insert overhead ratio {ratio}");
    }
}
