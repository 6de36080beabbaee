//! End-to-end HTAP demo (paper §5.1): real-time analytics and
//! transactions on the *same* table, on the full simulated machine
//! (cores + caches + prefetcher + FR-FCFS DDR3 + GS-DRAM).
//!
//! Compares the three storage mechanisms and prints analytics latency,
//! transaction throughput and energy.
//!
//! Run: `cargo run --release --example imdb_htap`

#![expect(
    clippy::print_stdout,
    reason = "examples are demos: their console narrative is the deliverable"
)]
use gsdram::system::config::SystemConfig;
use gsdram::system::machine::{Machine, StopWhen};
use gsdram::system::ops::Program;
use gsdram::workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};

fn main() {
    let tuples: u64 = 64 * 1024;
    println!("HTAP on a {tuples}-tuple table: analytics (sum of column 0) on core 0,");
    println!("endless transactions (1 read + 1 write field) on core 1, with prefetching.\n");
    println!(
        "{:<13} {:>15} {:>16} {:>12}",
        "mechanism", "analytics (Mc)", "txn thr. (M/s)", "energy (mJ)"
    );
    for layout in Layout::ALL {
        let cfg = SystemConfig::table1(2, (tuples as usize * 64) * 2).with_prefetch();
        let mut m = Machine::new(cfg);
        let table = Table::create(&mut m, layout, tuples);
        let mut anal = analytics(table, &[0]);
        let spec = TxnSpec {
            read_only: 1,
            write_only: 1,
            read_write: 0,
        };
        let mut txn = transactions(table, spec, u64::MAX, 2026);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut anal, &mut txn];
            m.run(&mut programs, StopWhen::CoreDone(0))
        };
        // (No sum check here: the transaction thread concurrently
        // mutates random fields, so the scanned column is a moving
        // target — the single-threaded analytics example and tests
        // verify sums exactly.)
        let secs = r.seconds(m.config());
        println!(
            "{:<13} {:>15.2} {:>16.2} {:>12.2}",
            layout.label(),
            r.cpu_cycles as f64 / 1e6,
            r.progress[1] as f64 / secs / 1e6,
            r.energy.total_mj()
        );
    }
    println!();
    println!("GS-DRAM gets the column store's analytics latency AND the row");
    println!("store's (or better) transaction throughput — the paper's headline.");
}
