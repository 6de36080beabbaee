//! `dram_saturate`: an open-loop request stream into bare Table-1
//! memory controllers, advanced serially and then sharded.
//!
//! Requests arrive on a fixed schedule in simulated time (one every
//! [`ARRIVAL_GAP`] memory cycles, uniform random lines, 3:1 reads to
//! writes), independent of how fast the controllers serve them. They
//! are enqueued in waves of [`WAVE_SPAN`] cycles, each followed by one
//! advance of every controller to the wave's end; once the stream is
//! spent the backlog drains in further waves. The same stream then runs
//! through fresh controllers with the sharded advance, and the two end
//! states must be equal.

use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_dram::controller::{
    AccessKind, Completion, ControllerConfig, ControllerStats, MemController, MemRequest,
};
use gsdram_dram::energy::EnergyBreakdown;
use gsdram_dram::mapping::{AddressMap, Interleave};
use gsdram_dram::shard;

use crate::machine::dram_counts;
use crate::probe::SharedProbe;
use crate::spans::SpanId;
use crate::{table1, timed, Check, Counts, Rep, Sizes};

/// Channels, one bare Table-1 controller each.
pub const CHANNELS: usize = 2;

/// Memory cycles between arrivals over all channels: the open loop's
/// fixed rate. At 40 the queues hold a few hundred requests (median
/// about 220, maximum about 600) without growing without bound.
pub const ARRIVAL_GAP: u64 = 40;

/// Memory cycles per enqueue→advance wave: past the shard site's
/// minimum span, so the sharded pass forks on every wave.
pub const WAVE_SPAN: u64 = 32_768;

/// One request: its channel, the request, and when it is due (memory
/// cycles).
type Arrival = (usize, MemRequest, u64);

/// The request stream for `seed`: `sizes.requests` uniform random lines
/// over 1 GiB, one write in four, due every [`ARRIVAL_GAP`] cycles.
pub fn stream(sizes: &Sizes, seed: u64) -> Vec<Arrival> {
    let map = AddressMap::with_shape(64, 128, 8, 1, CHANNELS as u64, Interleave::ColumnFirst);
    let mut rng = SplitMix(seed);
    (0..sizes.requests as u64)
        .map(|id| {
            let loc = map.decompose(rng.below(1 << 24) * 64);
            let kind = if rng.below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let req = MemRequest {
                id,
                loc,
                pattern: PatternId(0),
                kind,
            };
            (loc.channel, req, id * ARRIVAL_GAP)
        })
        .collect()
}

fn controllers() -> Vec<MemController> {
    (0..CHANNELS)
        .map(|ch| {
            let mut c = MemController::new(ControllerConfig::default());
            c.set_channel(ch);
            c
        })
        .collect()
}

/// What one pass through the controllers left behind.
struct Pass {
    /// Host seconds of the whole pass (enqueues and advances).
    secs: f64,
    /// Host seconds inside the `MemController::enqueue` waves.
    enqueue_s: f64,
    /// Host seconds inside the advance calls.
    advance_s: f64,
    /// Requests that arrived after their controller's clock had passed
    /// their due time, and the worst such delay (memory cycles).
    late: (u64, u64),
    /// Every completion, per controller, in the order it was taken.
    completions: Vec<Vec<Completion>>,
}

/// Which shard-site entry point a pass advances the controllers with.
#[derive(Debug, Clone, Copy)]
enum Advance {
    Serial,
    Sharded,
}

impl Advance {
    fn call(self, ctls: &mut [MemController], to: u64) {
        match self {
            Advance::Serial => shard::advance_serial(ctls, to),
            Advance::Sharded => shard::advance_sharded(ctls, to),
        }
    }

    /// Span names: the whole pass, and each advance call.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Advance::Serial => ("serial", "shard::advance_serial"),
            Advance::Sharded => ("sharded", "shard::advance_sharded"),
        }
    }
}

/// Runs `arrivals` through `ctls` in waves, advancing with `advance`.
fn pass(
    ctls: &mut [MemController],
    arrivals: &[Arrival],
    advance: Advance,
    probe: Option<&SharedProbe>,
    root: Option<SpanId>,
) -> Pass {
    let (pass_name, advance_name) = advance.names();
    let (mut enqueue_s, mut advance_s) = (0.0, 0.0);
    let (mut late, mut late_max) = (0u64, 0u64);
    let mut completions = vec![Vec::with_capacity(arrivals.len()); ctls.len()];
    let (_, secs) = timed(probe, pass_name, root, |sp| {
        let mut next = 0;
        let mut horizon = WAVE_SPAN;
        while next < arrivals.len() || ctls.iter().any(|c| c.pending() > 0) {
            let (_, e) = timed(probe, "MemController::enqueue", sp, |_| {
                while let Some(&(ch, req, due)) = arrivals.get(next).filter(|a| a.2 < horizon) {
                    // An advance lands on event times and may pass the
                    // wave end by a few cycles; a request due before
                    // its controller's clock arrives late.
                    let at = due.max(ctls[ch].now());
                    if at > due {
                        late += 1;
                        late_max = late_max.max(at - due);
                    }
                    ctls[ch].enqueue(req, at);
                    next += 1;
                }
            });
            let (_, a) = timed(probe, advance_name, sp, |_| advance.call(ctls, horizon));
            // Drain on this thread every wave, as the bridge does, so
            // completion storage never grows inside a shard's thread.
            for (c, done) in ctls.iter_mut().zip(&mut completions) {
                c.take_completions_into(u64::MAX, done);
            }
            enqueue_s += e;
            advance_s += a;
            horizon += WAVE_SPAN;
        }
    });
    Pass {
        secs,
        enqueue_s,
        advance_s,
        late: (late, late_max),
        completions,
    }
}

/// The drained end state of one controller: everything the serial and
/// sharded passes must agree on.
#[derive(Debug, PartialEq)]
struct EndState {
    clock: u64,
    pending: usize,
    stats: ControllerStats,
    energy: EnergyBreakdown,
    completions: Vec<Completion>,
}

fn end_state(ctls: &[MemController], completions: Vec<Vec<Completion>>) -> Vec<EndState> {
    ctls.iter()
        .zip(completions)
        .map(|(c, completions)| EndState {
            clock: c.now(),
            pending: c.pending(),
            stats: c.stats(),
            energy: c.energy(),
            completions,
        })
        .collect()
}

/// One `dram_saturate` repetition.
pub(crate) fn rep(
    sizes: &Sizes,
    seed: u64,
    probe: Option<&SharedProbe>,
    root: Option<SpanId>,
) -> Rep {
    let ((arrivals, stream_s, mut serial, mut sharded), setup_s) =
        timed(probe, "setup", root, |sp| {
            let (arrivals, stream_s) = timed(probe, "stream", sp, |_| stream(sizes, seed));
            let serial = controllers();
            let sharded = controllers();
            (arrivals, stream_s, serial, sharded)
        });
    let mut s = pass(&mut serial, &arrivals, Advance::Serial, probe, root);
    let mut p = pass(&mut sharded, &arrivals, Advance::Sharded, probe, root);

    let mut rep = Rep {
        traced: probe.is_some(),
        setup_s,
        run_s: s.secs,
        sharded_s: p.secs,
        ..Rep::default()
    };
    let mut stats = ControllerStats::default();
    serial.iter().for_each(|c| stats.merge(&c.stats()));
    let clock = serial.iter().map(MemController::now).max().unwrap_or(0);
    let c: &mut Counts = &mut rep.counts;
    c.insert("system.sim_cycles", table1().to_cpu_cycles(clock));
    c.insert("saturate.requests", arrivals.len() as u64);
    c.insert("saturate.late_arrivals", s.late.0);
    c.insert("saturate.late_max_cycles", s.late.1);
    dram_counts(
        c,
        &stats,
        serial.iter().map(MemController::queue_depth_hist),
        serial.iter().map(MemController::read_latency_hist),
    );

    let serial_state = end_state(&serial, std::mem::take(&mut s.completions));
    let sharded_state = end_state(&sharded, std::mem::take(&mut p.completions));
    let mut seen = vec![false; arrivals.len()];
    let mut dup = 0u64;
    for d in serial_state.iter().flat_map(|e| &e.completions) {
        match seen.get_mut(d.id as usize) {
            Some(s) if !*s => *s = true,
            _ => dup += 1,
        }
    }
    let once = seen.iter().filter(|s| **s).count() as u64;
    rep.checks.extend([
        Check::Eq("saturate.completed_once", once, arrivals.len() as u64),
        Check::Eq("saturate.duplicate_completions", dup, 0),
        Check::Holds(
            "saturate.sharded_equals_serial",
            serial_state == sharded_state,
        ),
    ]);
    if rep.traced {
        rep.layer_s.insert("workloads.setup_s", stream_s);
        rep.layer_s.insert("dram.enqueue_s", s.enqueue_s);
        rep.layer_s.insert("dram.advance_s", s.advance_s);
        rep.layer_s.insert("shard.sharded_s", p.advance_s);
    }
    rep
}
