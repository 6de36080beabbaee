//! Op-stream digests: every workload generator, under every layout and
//! variant, must emit exactly the op stream and progress trace it
//! emitted when the digests below were recorded.
//!
//! The figure baselines under `crates/bench/tests/baselines/` pin what
//! the machine makes of these streams; this test pins the streams
//! themselves, so a generator rewrite is checked op by op and not only
//! through the cycle counts it happens to move. Each digest is FNV-1a
//! over explicit fields (op kind, `pc`, `addr`, pattern, store value,
//! compute cycles) plus `progress()` after every op.
//!
//! Run with `cargo test -p gsdram-workloads --test op_streams`. A
//! mismatch prints the full recomputed table.

use gsdram_system::config::SystemConfig;
use gsdram_system::ops::{Op, Program};
use gsdram_system::Machine;
use gsdram_workloads::gemm::{self, Gemm, GemmVariant};
use gsdram_workloads::graph::{self, Graph, GraphLayout};
use gsdram_workloads::imdb::{self, Layout, Table, TxnSpec};
use gsdram_workloads::kvstore::{self, KvLayout, KvStore};
use gsdram_workloads::transpose::{self, Transpose, TransposeLayout};

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

/// `(ops, final progress, digest)` of at most `limit` ops of `p`.
fn digest(p: &mut dyn Program, limit: u64) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    let mut n = 0;
    while n < limit {
        let Some(op) = p.next_op() else { break };
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

fn machine() -> Machine {
    Machine::new(SystemConfig::table1(1, 4 << 20))
}

/// Every generator × layout/variant, named.
fn all_digests() -> Vec<(String, (u64, u64, u64))> {
    let mut out = Vec::new();
    let mut add = |name: String, p: &mut dyn Program, limit: u64| {
        out.push((name, digest(p, limit)));
    };

    // imdb: tuples not a multiple of 8, so the GS-DRAM group count
    // truncates.
    let layouts = [
        (Layout::RowStore, "row"),
        (Layout::ColumnStore, "col"),
        (Layout::GsDram, "gs"),
    ];
    let all_kinds = TxnSpec {
        read_only: 2,
        write_only: 1,
        read_write: 2,
    };
    for (layout, tag) in layouts {
        let table = Table {
            layout,
            tuples: 1003,
            base: 1 << 16,
        };
        add(
            format!("imdb/txn/{tag}/2-1-2"),
            &mut imdb::transactions(table, all_kinds, 300, 7),
            u64::MAX,
        );
        add(
            format!("imdb/txn-endless/{tag}/2-1-2"),
            &mut imdb::transactions(table, all_kinds, u64::MAX, 99),
            20_000,
        );
        add(
            format!("imdb/analytics/{tag}/2"),
            &mut imdb::analytics(table, &[2]),
            u64::MAX,
        );
        add(
            format!("imdb/analytics/{tag}/0,3,7"),
            &mut imdb::analytics(table, &[0, 3, 7]),
            u64::MAX,
        );
    }
    let row = Table {
        layout: Layout::RowStore,
        tuples: 4096,
        base: 0,
    };
    for spec in TxnSpec::FIGURE9.iter().chain(&[
        TxnSpec {
            read_only: 0,
            write_only: 0,
            read_write: 0,
        },
        TxnSpec {
            read_only: 8,
            write_only: 0,
            read_write: 0,
        },
    ]) {
        add(
            format!("imdb/txn/row/{}", spec.label()),
            &mut imdb::transactions(row, *spec, 200, 13),
            u64::MAX,
        );
    }

    // kvstore
    for (layout, tag) in [(KvLayout::Interleaved, "plain"), (KvLayout::GsDram, "gs")] {
        let kv = KvStore {
            layout,
            pairs: 4096,
            base: 1 << 16,
        };
        add(
            format!("kv/lookups/{tag}"),
            &mut kvstore::lookups(kv, 300, 40, 3),
            u64::MAX,
        );
        add(
            format!("kv/inserts/{tag}"),
            &mut kvstore::inserts(kv, 300, 5),
            u64::MAX,
        );
    }

    // graph: node count not a multiple of 8.
    for (layout, tag) in [
        (GraphLayout::NodeMajor, "node"),
        (GraphLayout::GsDram, "gs"),
    ] {
        let g = Graph {
            layout,
            nodes: 1003,
            base: 1 << 16,
        };
        add(
            format!("graph/scan/{tag}"),
            &mut graph::scan(g, 2),
            u64::MAX,
        );
        add(
            format!("graph/updates/{tag}"),
            &mut graph::updates(g, 300, 9),
            u64::MAX,
        );
    }

    // transpose
    for (layout, tag) in [
        (TransposeLayout::RowMajor, "row"),
        (TransposeLayout::GsDram, "gs"),
    ] {
        let t = Transpose::create(&mut machine(), layout, 32);
        add(
            format!("transpose/{tag}/32"),
            &mut transpose::program(t),
            u64::MAX,
        );
    }

    // gemm: full runs at n = 32 and sampled runs at n = 64.
    let variants = [
        GemmVariant::Naive,
        GemmVariant::Tiled { tile: 16 },
        GemmVariant::Tiled { tile: 32 },
        GemmVariant::TiledSimd { tile: 16 },
        GemmVariant::TiledSimd { tile: 32 },
        GemmVariant::GsDram { tile: 16 },
        GemmVariant::GsDram { tile: 32 },
    ];
    for (n, sample) in [(32, None), (64, Some(2))] {
        for variant in variants {
            let g = Gemm::create(&mut machine(), n, variant);
            let (mut p, (full, simulated)) = gemm::program(g, sample);
            let name = format!(
                "gemm/{}/n{n}/sample{sample:?}/{full}of{simulated}",
                variant.label()
            );
            add(name, &mut p, u64::MAX);
        }
    }
    out
}

/// Digests recorded from the generators as first written (nested
/// boxed iterators); `(name, ops, final progress, FNV-1a digest)`.
const WANT: &[(&str, u64, u64, u64)] = &[
    ("imdb/txn/row/2-1-2", 3900, 300, 0xb38051a83aaf9080),
    (
        "imdb/txn-endless/row/2-1-2",
        20000,
        1538,
        0x62235916afd45371,
    ),
    ("imdb/analytics/row/2", 2006, 0, 0x26071a15bca4f19d),
    ("imdb/analytics/row/0,3,7", 4012, 0, 0x4a0ff58cbe44b827),
    ("imdb/txn/col/2-1-2", 3900, 300, 0x382309707622ff04),
    (
        "imdb/txn-endless/col/2-1-2",
        20000,
        1538,
        0xc33c632c65512e7b,
    ),
    ("imdb/analytics/col/2", 2006, 0, 0x45cd506fcfa47c1c),
    ("imdb/analytics/col/0,3,7", 6018, 0, 0x53aee071bab101ae),
    ("imdb/txn/gs/2-1-2", 3900, 300, 0xb38051a83aaf9080),
    ("imdb/txn-endless/gs/2-1-2", 20000, 1538, 0x62235916afd45371),
    ("imdb/analytics/gs/2", 2000, 0, 0xed137c00df7d30f5),
    ("imdb/analytics/gs/0,3,7", 6000, 0, 0x10be72042e502c25),
    ("imdb/txn/row/1-0-1", 1200, 200, 0xb6abe496b4a12921),
    ("imdb/txn/row/2-1-0", 1400, 200, 0x0d82545c6fffd17a),
    ("imdb/txn/row/0-2-2", 2200, 200, 0xaed9016a6c02f8ab),
    ("imdb/txn/row/2-4-0", 2600, 200, 0xdecba988f96184c2),
    ("imdb/txn/row/5-0-1", 2800, 200, 0x8942fcafc6746a4c),
    ("imdb/txn/row/2-0-4", 3400, 200, 0x8fd5033e063994f6),
    ("imdb/txn/row/6-1-0", 3000, 200, 0x893e8799daafbfb3),
    ("imdb/txn/row/4-2-2", 3800, 200, 0x04f2c9fbbccdc211),
    ("imdb/txn/row/0-0-0", 200, 200, 0x28d26a0a9980e8ed),
    ("imdb/txn/row/8-0-0", 3400, 200, 0xc5db5edd5e6f412d),
    ("kv/lookups/plain", 10338, 40, 0x33025db9901c597c),
    ("kv/inserts/plain", 900, 300, 0xaa7453b977433db3),
    ("kv/lookups/gs", 10338, 40, 0x09b4ee521469b44d),
    ("kv/inserts/gs", 900, 300, 0xaa7453b977433db3),
    ("graph/scan/node", 2006, 0, 0xf3d4288907422f67),
    ("graph/updates/node", 1800, 300, 0xc093a740a684837a),
    ("graph/scan/gs", 2000, 0, 0x91c1c535c1fcf3e5),
    ("graph/updates/gs", 1800, 300, 0xc093a740a684837a),
    ("transpose/row/32", 2176, 0, 0x729b91060c92a925),
    ("transpose/gs/32", 2176, 0, 0x8eb28fb98c54e725),
    (
        "gemm/Naive/n32/sampleNone/32of32",
        40960,
        0,
        0x23a9aab6a1e41725,
    ),
    (
        "gemm/Tiled(16)/n32/sampleNone/2of2",
        12800,
        0,
        0x2b436fabe3c08725,
    ),
    (
        "gemm/Tiled(32)/n32/sampleNone/1of1",
        12800,
        0,
        0x4e4170245b968b25,
    ),
    (
        "gemm/Tiled+SIMD(16)/n32/sampleNone/2of2",
        13312,
        0,
        0xc843e005f75d7f25,
    ),
    (
        "gemm/Tiled+SIMD(32)/n32/sampleNone/1of1",
        13312,
        0,
        0x6148b9471dd30b25,
    ),
    (
        "gemm/GS-DRAM(16)/n32/sampleNone/2of2",
        10752,
        0,
        0x0ad8e4d9a097c125,
    ),
    (
        "gemm/GS-DRAM(32)/n32/sampleNone/1of1",
        10752,
        0,
        0xd860ef16b2899e25,
    ),
    (
        "gemm/Naive/n64/sampleSome(2)/64of2",
        10240,
        0,
        0x6edad942cc3fcb25,
    ),
    (
        "gemm/Tiled(16)/n64/sampleSome(2)/4of2",
        51200,
        0,
        0xdb06f65ad8f05f25,
    ),
    (
        "gemm/Tiled(32)/n64/sampleSome(2)/2of2",
        102400,
        0,
        0xb65c1955b156cf25,
    ),
    (
        "gemm/Tiled+SIMD(16)/n64/sampleSome(2)/4of2",
        53248,
        0,
        0x814d01d8dc033525,
    ),
    (
        "gemm/Tiled+SIMD(32)/n64/sampleSome(2)/2of2",
        106496,
        0,
        0x1fa9ac25a5aae325,
    ),
    (
        "gemm/GS-DRAM(16)/n64/sampleSome(2)/4of2",
        43008,
        0,
        0x7a126e8741320725,
    ),
    (
        "gemm/GS-DRAM(32)/n64/sampleSome(2)/2of2",
        86016,
        0,
        0xafe93a5f5cb27b25,
    ),
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
