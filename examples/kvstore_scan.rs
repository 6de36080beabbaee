//! Key-value store over GS-DRAM (paper §5.3): lookups scan cache lines
//! of *keys only* (pattern 1, stride 2), while inserts keep the
//! pair-per-line layout (pattern 0).
//!
//! Run: `cargo run --release --example kvstore_scan`

#![expect(
    clippy::print_stdout,
    reason = "examples are demos: their console narrative is the deliverable"
)]
use gsdram::system::config::SystemConfig;
use gsdram::system::machine::{Machine, StopWhen};
use gsdram::system::ops::Program;
use gsdram::workloads::kvstore::{inserts, lookups, KvLayout, KvStore};

fn main() {
    let pairs: u64 = 32 * 1024;
    println!("key-value store with {pairs} 16-byte pairs (8 B key + 8 B value)\n");
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "operation", "layout", "Mcycles", "DRAM reads"
    );
    for (opname, is_lookup) in [("64 lookup scans", true), ("4000 inserts", false)] {
        for layout in [KvLayout::Interleaved, KvLayout::GsDram] {
            let mut m = Machine::new(SystemConfig::table1(1, (pairs as usize * 16) * 4));
            let kv = KvStore::create(&mut m, layout, pairs);
            let mut p = if is_lookup {
                lookups(kv, pairs / 2, 64, 1)
            } else {
                inserts(kv, 4000, 1)
            };
            let r = {
                let mut programs: Vec<&mut dyn Program> = vec![&mut p];
                m.run(&mut programs, StopWhen::AllDone)
            };
            println!(
                "{:<22} {:>12} {:>12.2} {:>14}",
                opname,
                match layout {
                    KvLayout::Interleaved => "plain",
                    KvLayout::GsDram => "GS-DRAM",
                },
                r.cpu_cycles as f64 / 1e6,
                r.dram.reads
            );
        }
    }
    println!();
    println!("pattern-1 gathers halve the lines a key scan touches (8 keys per");
    println!("line instead of 4 key-value pairs); inserts are unaffected.");
}
