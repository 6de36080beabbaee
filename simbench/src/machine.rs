//! The two whole-machine workloads: `htap_gs` (the fig11 HTAP mix on
//! the GS-DRAM layout) and `gemm_gs` (the fig13 GS-DRAM tiled GEMM).

use std::collections::HashMap;

use gsdram_core::PatternId;
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::{Op, Program};
use gsdram_telemetry::Histogram;
use gsdram_workloads::gemm::{program as gemm_program, Gemm, GemmVariant};
use gsdram_workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};

use crate::probe::{CountingSink, SharedProbe, TracedProgram};
use crate::spans::SpanId;
use crate::{timed, Check, Counts, Rep, Sizes};

/// The fig11 transaction mix: one read-only and one write-only field.
const HTAP_MIX: TxnSpec = TxnSpec {
    read_only: 1,
    write_only: 1,
    read_write: 0,
};

/// Memory for a table of `tuples` 64-byte tuples, as fig11 sizes it.
fn table_mem(tuples: u64) -> usize {
    usize::try_from(tuples * 64 * 2).expect("table fits the host address space")
}

/// Memory for three n×n matrices of 8-byte words, as fig13 sizes it.
fn gemm_mem(n: usize) -> usize {
    (3 * n * n * 8 + (8 << 20)).max(16 << 20)
}

/// One `htap_gs` repetition: core 0 sums column 0 with stride-8
/// gathers while core 1 runs endless transactions (txn stream seeded
/// by `seed`), stopping when core 0 finishes.
pub(crate) fn htap_rep(
    sizes: &Sizes,
    seed: u64,
    probe: Option<&SharedProbe>,
    root: Option<SpanId>,
) -> Rep {
    let cfg = SystemConfig::table1(2, table_mem(sizes.tuples));
    let ((mut m, table, create_s), setup_s) = timed(probe, "setup", root, |sp| {
        let mut m = Machine::new(cfg);
        let (table, create_s) = timed(probe, "Table::create", sp, |_| {
            Table::create(&mut m, Layout::GsDram, sizes.tuples)
        });
        (m, table, create_s)
    });
    let mut anal = analytics(table, &[0]);
    let mut txn = transactions(table, HTAP_MIX, u64::MAX, seed);
    let mut rep = run_machine(
        &mut m,
        &mut [&mut anal, &mut txn],
        StopWhen::CoreDone(0),
        probe,
        root,
    );
    rep.setup_s = setup_s;
    rep.layer_s.insert("workloads.setup_s", create_s);
    rep.checks.push(Check::Eq(
        "htap.analytics_values",
        anal.values_seen(),
        sizes.tuples,
    ));
    rep.checks.push(Check::Positive(
        "htap.txn_progress",
        rep.counts["core1.progress"],
    ));
    rep
}

/// The gold result of one `gemm_gs` run: the loaded-value checksum of
/// the generated op stream replayed against flat memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmReference {
    /// Wrapping sum of every loaded value (low word of 16-byte loads).
    pub sum: u64,
    /// Loads in the stream.
    pub loads: u64,
    /// Loads that touched a word the init data does not cover, or used
    /// a pattern the flat model does not know.
    pub unmapped: u64,
}

/// fig13's tile edge for the GS-DRAM GEMM.
pub const GEMM_TILE: usize = 32;

/// Outer-loop stripes simulated, as fig13 samples them for n >= 256.
pub const GEMM_STRIPES: usize = 2;

const GEMM_VARIANT: GemmVariant = GemmVariant::GsDram { tile: GEMM_TILE };

impl GemmReference {
    /// Builds the problem once, reads the poked init data back into a
    /// flat word map, and replays the same generated op stream over it.
    pub fn new(sizes: &Sizes) -> Self {
        let n = sizes.gemm_n;
        let mut m = Machine::new(SystemConfig::table1(1, gemm_mem(n)));
        let g = Gemm::create(&mut m, n, GEMM_VARIANT);
        g.init(&mut m);
        let mut mem = HashMap::with_capacity(2 * n * n);
        for i in 0..n {
            for k in 0..n {
                for addr in [g.a_addr(i, k), g.b_addr(i, k)] {
                    mem.insert(addr, m.peek(addr));
                }
            }
        }
        let (mut p, _) = gemm_program(g, Some(GEMM_STRIPES));
        let mut r = GemmReference {
            sum: 0,
            loads: 0,
            unmapped: 0,
        };
        while let Some(op) = p.next_op() {
            let (addr, pattern) = match op {
                Op::Load { addr, pattern, .. } | Op::Load16 { addr, pattern, .. } => {
                    (addr, pattern)
                }
                Op::Store { .. } | Op::Compute(_) => continue,
            };
            r.loads += 1;
            match gathered_word(addr, pattern).and_then(|a| mem.get(&a)) {
                Some(v) => r.sum = r.sum.wrapping_add(*v),
                None => r.unmapped += 1,
            }
        }
        r
    }
}

/// The physical word a GS-DRAM(8,3,3) access reads on a shuffled page:
/// pattern 0 reads the addressed word; pattern 7 (stride 8) swaps the
/// line's index within its aligned group of eight lines with the word
/// offset, so word `k` of gathered line `j` is word `j` of line `k`.
/// `None` for patterns this flat model does not cover.
fn gathered_word(addr: u64, pattern: PatternId) -> Option<u64> {
    match pattern.0 {
        0 => Some(addr & !7),
        7 => {
            let (line, word) = (addr / 64, addr % 64 / 8);
            Some(((line & !7) | word) * 64 + (line & 7) * 8)
        }
        _ => None,
    }
}

/// One `gemm_gs` repetition: the fig13 GS-DRAM tiled GEMM, outer loop
/// sampled, checked against `reference`.
pub(crate) fn gemm_rep(
    sizes: &Sizes,
    reference: &GemmReference,
    probe: Option<&SharedProbe>,
    root: Option<SpanId>,
) -> Rep {
    let n = sizes.gemm_n;
    let cfg = SystemConfig::table1(1, gemm_mem(n));
    let ((mut m, g, create_s), setup_s) = timed(probe, "setup", root, |sp| {
        let mut m = Machine::new(cfg);
        let (g, create_s) = timed(probe, "Gemm::create+init", sp, |_| {
            let g = Gemm::create(&mut m, n, GEMM_VARIANT);
            g.init(&mut m);
            g
        });
        (m, g, create_s)
    });
    let (mut p, _) = gemm_program(g, Some(GEMM_STRIPES));
    let mut rep = run_machine(&mut m, &mut [&mut p], StopWhen::AllDone, probe, root);
    rep.setup_s = setup_s;
    rep.layer_s.insert("workloads.setup_s", create_s);
    let got = rep.counts["core0.result"];
    rep.checks
        .push(Check::Eq("gemm.checksum", got, reference.sum));
    rep.checks
        .push(Check::Eq("gemm.loads", p.values_seen(), reference.loads));
    rep.checks
        .push(Check::Eq("gemm.reference_unmapped", reference.unmapped, 0));
    rep
}

/// Runs `programs` on `m` under `stop`, timing the `Machine::run` call.
/// A traced repetition wraps every program, attaches a counting
/// observer and records the per-layer times under the run span.
fn run_machine(
    m: &mut Machine,
    programs: &mut [&mut dyn Program],
    stop: StopWhen,
    probe: Option<&SharedProbe>,
    root: Option<SpanId>,
) -> Rep {
    let mut rep = Rep::default();
    let Some(probe) = probe else {
        let (report, run_s) = timed(None, "Machine::run", None, |_| m.run(programs, stop));
        rep.run_s = run_s;
        rep.counts = report_counts(&report);
        return rep;
    };
    probe.borrow_mut().events = Default::default();
    m.attach_observer(Box::new(CountingSink::new(probe)));
    let mut wrapped: Vec<TracedProgram> = programs
        .iter_mut()
        .map(|p| TracedProgram::new(&mut **p, probe))
        .collect();
    let mut run_span = 0;
    let (report, run_s) = timed(Some(probe), "Machine::run", root, |sp| {
        run_span = sp.expect("a traced run has a span");
        probe.borrow_mut().parent = run_span;
        let mut refs: Vec<&mut dyn Program> =
            wrapped.iter_mut().map(|w| w as &mut dyn Program).collect();
        m.run(&mut refs, stop)
    });
    m.detach_observer();
    rep.run_s = run_s;
    rep.traced = true;
    rep.counts = report_counts(&report);

    let p = probe.borrow();
    let ev = p.events;
    let t = &mut rep.trace_counts;
    t.insert(
        "workloads.next_op_calls",
        wrapped.iter().map(|w| w.next_op_calls).sum(),
    );
    t.insert(
        "workloads.on_load_value_calls",
        wrapped.iter().map(|w| w.on_load_value_calls).sum(),
    );
    t.insert("cache.fills", ev.cache_fills);
    t.insert("cache.evictions", ev.cache_evictions);
    t.insert("cache.dirty_evictions", ev.cache_dirty_evictions);
    t.insert("coherence.overlap_flushes_fetch", ev.overlap_flushes_fetch);
    t.insert("coherence.overlap_flushes_store", ev.overlap_flushes_store);
    t.insert("bridge.dram_enqueues_read", ev.enqueues_read);
    t.insert("bridge.dram_enqueues_write", ev.enqueues_write);
    t.insert("bridge.completions", ev.completions);
    t.insert("bridge.gather_splits", ev.gather_splits);
    t.insert("telemetry.events", ev.events);
    rep.layer_s.insert(
        "workloads.next_op_s",
        p.spans.child_s(run_span, "Program::next_op"),
    );
    rep.layer_s
        .insert("system.self_s", p.spans.self_s(run_span));
    rep
}

/// The deterministic results of a machine run that every repetition,
/// traced or not, must reproduce exactly.
fn report_counts(r: &RunReport) -> Counts {
    let mut c = Counts::new();
    c.insert("system.sim_cycles", r.cpu_cycles);
    c.insert("exec.ops", r.ops);
    c.insert("exec.mem_ops", r.mem_ops);
    c.insert("l1.hits", r.l1.iter().map(|s| s.hits).sum());
    c.insert("l1.misses", r.l1.iter().map(|s| s.misses).sum());
    c.insert("l2.hits", r.l2.hits);
    c.insert("l2.misses", r.l2.misses);
    c.insert("dbi.marks", r.dbi.marks);
    c.insert("dbi.clears", r.dbi.clears);
    c.insert("dbi.row_queries", r.dbi.row_queries);
    c.insert("dbi.empty_row_queries", r.dbi.empty_row_queries);
    c.insert("core0.result", r.results[0]);
    c.insert("core1.progress", r.progress.get(1).copied().unwrap_or(0));
    dram_counts(
        &mut c,
        &r.dram,
        r.dram_queue_depth.iter(),
        r.dram_read_latency.iter(),
    );
    c
}

/// Controller counters and per-channel histogram quantiles, shared by
/// the machine workloads and `dram_saturate`.
pub(crate) fn dram_counts<'a>(
    c: &mut Counts,
    s: &gsdram_dram::controller::ControllerStats,
    depth: impl Iterator<Item = &'a Histogram>,
    latency: impl Iterator<Item = &'a Histogram>,
) {
    let (depth, latency) = (merged(depth), merged(latency));
    c.insert("dram.reads", s.reads);
    c.insert("dram.writes", s.writes);
    c.insert("dram.row_hits", s.row_hits);
    c.insert(
        "dram.column_accesses",
        s.row_hits + s.row_closed + s.row_conflicts,
    );
    c.insert("dram.cmd_act", s.activates);
    c.insert("dram.cmd_pre", s.precharges);
    c.insert("dram.cmd_rd", s.reads);
    c.insert("dram.cmd_wr", s.writes);
    c.insert("dram.cmd_ref", s.refreshes);
    c.insert("dram.queue_depth_p50", depth.quantile(0.5));
    c.insert("dram.queue_depth_p99", depth.quantile(0.99));
    c.insert("dram.queue_depth_max", depth.max());
    c.insert("dram.read_latency_p50", latency.quantile(0.5));
    c.insert("dram.read_latency_p99", latency.quantile(0.99));
}

fn merged<'a>(hs: impl Iterator<Item = &'a Histogram>) -> Histogram {
    let mut all = Histogram::new();
    hs.for_each(|h| all.merge(h));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern7_swaps_line_and_word_within_a_group() {
        // Word 3 of gathered line 5 is word 5 of line 3 (group base 512).
        assert_eq!(
            gathered_word(512 + 5 * 64 + 3 * 8, PatternId(7)),
            Some(512 + 3 * 64 + 5 * 8)
        );
        assert_eq!(gathered_word(0x1238, PatternId(0)), Some(0x1238));
        assert_eq!(gathered_word(0, PatternId(3)), None);
    }
}
