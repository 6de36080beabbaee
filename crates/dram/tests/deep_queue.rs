//! Deep-queue behaviour pins: seeded open-loop streams that arrive
//! faster than the controller serves them, so the read and write queues
//! grow to hundreds or thousands of requests — the regime the figure
//! baselines (queue depth ≤ ~40) never reach.
//!
//! Each of the 32 configurations (4 engines × open/closed row policy ×
//! 32/8 and 4/1 write watermarks × 1–2 ranks) runs its stream in
//! enqueue→advance waves and drains, and everything observable is folded
//! into one FNV-1a digest over explicit fields: the command trace
//! `(at, rank, command kind, bank, row/col)`, the completion stream,
//! every `ControllerStats` counter and the final clock. The committed
//! digests pin the scheduling order exactly; any change to which
//! request a step picks moves them.

use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_dram::command::DramCommand;
use gsdram_dram::controller::{
    AccessKind, Completion, ControllerConfig, ControllerStats, MemController, MemRequest,
    RowPolicy, SchedPolicy,
};
use gsdram_dram::mapping::{AddressMap, Interleave};

/// Requests per stream.
const REQUESTS: u64 = 2_000;

/// Memory cycles per enqueue→advance wave.
const WAVE_SPAN: u64 = 1_024;

/// Every scheduling engine, at its default parameter.
const ENGINES: [SchedPolicy; 4] = [
    SchedPolicy::FrFcfs,
    SchedPolicy::Fcfs,
    SchedPolicy::FrFcfsCap {
        cap: SchedPolicy::DEFAULT_CAP,
    },
    SchedPolicy::BankRr {
        batch: SchedPolicy::DEFAULT_BATCH,
    },
];

/// The committed digests, one per configuration, in matrix order,
/// recorded with the whole-queue linear scan the indexed queues
/// replaced.
const DIGESTS: [(&str, u64); 32] = [
    ("fr-fcfs Open 32/8 r1", 0xaceceb9ba876a320),
    ("fr-fcfs Open 32/8 r2", 0x393444e9d524e4d1),
    ("fr-fcfs Open 4/1 r1", 0x754fca7576d95a51),
    ("fr-fcfs Open 4/1 r2", 0xfd353a21f12ebbdd),
    ("fr-fcfs Closed 32/8 r1", 0x5ef16615e2cdb34c),
    ("fr-fcfs Closed 32/8 r2", 0x39a482fef1255570),
    ("fr-fcfs Closed 4/1 r1", 0x312d8deccf88b8e6),
    ("fr-fcfs Closed 4/1 r2", 0x9dace350f4130590),
    ("fcfs Open 32/8 r1", 0x492c389abca67914),
    ("fcfs Open 32/8 r2", 0xb9854a8a4141dac8),
    ("fcfs Open 4/1 r1", 0xdb8196130d95ce1d),
    ("fcfs Open 4/1 r2", 0xbfb52d5041c5f335),
    ("fcfs Closed 32/8 r1", 0xde3a465ee1bffe7e),
    ("fcfs Closed 32/8 r2", 0x31607086f5266ebb),
    ("fcfs Closed 4/1 r1", 0x22ba6fa0763ed86b),
    ("fcfs Closed 4/1 r2", 0xbcd5f5a0e9295927),
    ("fr-fcfs-cap4 Open 32/8 r1", 0x63fed3dbb3fcce81),
    ("fr-fcfs-cap4 Open 32/8 r2", 0xaa019102580f9e0c),
    ("fr-fcfs-cap4 Open 4/1 r1", 0x1802f5e9c21d5de7),
    ("fr-fcfs-cap4 Open 4/1 r2", 0xdae81ed456e71b9a),
    ("fr-fcfs-cap4 Closed 32/8 r1", 0x67f0072d3ad686f0),
    ("fr-fcfs-cap4 Closed 32/8 r2", 0x7c88ad197bed870f),
    ("fr-fcfs-cap4 Closed 4/1 r1", 0xce925b8adf42bfe3),
    ("fr-fcfs-cap4 Closed 4/1 r2", 0xa821b8eaffb17dde),
    ("bank-rr4 Open 32/8 r1", 0x9843ad688bc07f89),
    ("bank-rr4 Open 32/8 r2", 0xfdc79719e44c6a8e),
    ("bank-rr4 Open 4/1 r1", 0x77bbae1fba768e00),
    ("bank-rr4 Open 4/1 r2", 0x0ca4c04428d0605a),
    ("bank-rr4 Closed 32/8 r1", 0xe8a0426f785377ac),
    ("bank-rr4 Closed 32/8 r2", 0x894b6b1c9159a13d),
    ("bank-rr4 Closed 4/1 r1", 0x3f3650a71d36df07),
    ("bank-rr4 Closed 4/1 r2", 0xd3870f30b6774482),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The seeded stream: half the requests walk a few hot rows (row hits
/// for the hit-first engines to reorder), half are uniform random lines;
/// one in four is a write. Arrivals are 0–7 cycles apart, far faster
/// than the channel drains them.
fn stream(map: &AddressMap, seed: u64) -> Vec<(MemRequest, u64)> {
    let mut rng = SplitMix(seed);
    let mut at = 0;
    let mut hot = [0u64; 4];
    for h in &mut hot {
        *h = rng.below(1 << 20) * 64;
    }
    (0..REQUESTS)
        .map(|id| {
            at += rng.below(8);
            let addr = if rng.flip() {
                let h = &mut hot[rng.below(4) as usize];
                *h += 64;
                *h
            } else {
                rng.below(1 << 24) * 64
            };
            let kind = if rng.below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let req = MemRequest {
                id,
                loc: map.decompose(addr),
                pattern: PatternId((addr / 64 % 8) as u8),
                kind,
            };
            (req, at)
        })
        .collect()
}

fn hash_command(h: &mut Fnv, cmd: &DramCommand) {
    let (kind, operand) = match *cmd {
        DramCommand::Activate { row, .. } => (0, u64::from(row.0)),
        DramCommand::Precharge { .. } => (1, 0),
        DramCommand::Read { col, .. } => (2, u64::from(col.0)),
        DramCommand::Write { col, .. } => (3, u64::from(col.0)),
        DramCommand::Refresh => (4, 0),
    };
    h.word(kind);
    h.word(cmd.bank().map_or(u64::MAX, |b| b as u64));
    h.word(operand);
}

fn hash_stats(h: &mut Fnv, s: &ControllerStats) {
    // Exhaustive on purpose: a new counter does not compile until it is
    // hashed here.
    let ControllerStats {
        reads,
        writes,
        row_hits,
        row_closed,
        row_conflicts,
        activates,
        precharges,
        refreshes,
        total_read_latency,
        min_read_latency,
        max_read_latency,
        bus_busy_cycles,
        sched_hit_bypasses,
        sched_promotions,
        sched_batch_rotations,
        drain_entries,
        drain_exits,
    } = *s;
    for w in [
        reads,
        writes,
        row_hits,
        row_closed,
        row_conflicts,
        activates,
        precharges,
        refreshes,
        total_read_latency,
        min_read_latency,
        max_read_latency,
        bus_busy_cycles,
        sched_hit_bypasses,
        sched_promotions,
        sched_batch_rotations,
        drain_entries,
        drain_exits,
    ] {
        h.word(w);
    }
}

/// Runs one configuration and returns its digest and the deepest queue
/// occupancy it reached.
fn run(cfg: ControllerConfig, seed: u64) -> (u64, u64) {
    let map = AddressMap::with_ranks(64, 128, 8, cfg.ranks as u64, Interleave::ColumnFirst);
    let reqs = stream(&map, seed);
    let mut c = MemController::new(cfg);
    c.enable_trace();
    let mut done: Vec<Completion> = Vec::new();
    let mut next = 0;
    let mut wave_end = 0;
    while next < reqs.len() || c.pending() > 0 {
        wave_end += WAVE_SPAN;
        while next < reqs.len() && reqs[next].1 < wave_end {
            let (req, at) = reqs[next];
            c.enqueue(req, at);
            next += 1;
        }
        c.advance(wave_end);
        c.take_completions_into(wave_end, &mut done);
    }
    let end = c.drain();
    c.take_completions_into(end, &mut done);
    assert_eq!(done.len(), reqs.len(), "every request completes once");

    let mut h = Fnv::new();
    for t in c.trace().expect("tracing enabled") {
        h.word(t.at);
        h.word(t.rank as u64);
        hash_command(&mut h, &t.cmd);
    }
    for d in &done {
        h.word(d.id);
        h.word(d.at);
    }
    hash_stats(&mut h, &c.stats());
    h.word(c.now());
    (h.0, c.queue_depth_hist().max())
}

/// Every configuration of the matrix, labelled, in `DIGESTS` order.
fn matrix() -> Vec<(String, ControllerConfig)> {
    let mut out = Vec::new();
    for policy in ENGINES {
        for row_policy in [RowPolicy::Open, RowPolicy::Closed] {
            for (high, low) in [(32, 8), (4, 1)] {
                for ranks in [1, 2] {
                    let label = format!("{} {row_policy:?} {high}/{low} r{ranks}", policy.label());
                    let cfg = ControllerConfig {
                        policy,
                        row_policy,
                        write_high_watermark: high,
                        write_low_watermark: low,
                        ranks,
                        ..ControllerConfig::default()
                    };
                    out.push((label, cfg));
                }
            }
        }
    }
    out
}

#[test]
fn deep_queue_digests_are_pinned() {
    let mut actual = Vec::new();
    for (i, (label, cfg)) in matrix().into_iter().enumerate() {
        let (digest, max_depth) = run(cfg, 0xDEE9_0000 + i as u64);
        assert!(
            max_depth >= 150,
            "{label}: queues only reached depth {max_depth}; the stream no longer saturates"
        );
        actual.push((label, digest));
    }
    let table: String = actual
        .iter()
        .map(|(l, d)| format!("    ({l:?}, {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = DIGESTS.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(
        actual, expected,
        "deep-queue digests moved; actual:\n{table}"
    );
}
