//! Leap ≡ step: differential property tests for the time-skip engine.
//!
//! The time-skip contract ([`gsdram_core::time`]) promises that leaping
//! a component's clock to its reported horizon observes exactly the
//! state a cycle-by-cycle walk would have produced. These tests check
//! the promise three ways: the RefreshTimer and WriteDrain engines in
//! isolation over SplitMix-seeded schedules, and the whole controller
//! by running identical request streams with the engine on and off and
//! comparing everything observable — completions, statistics, clock
//! and the full command trace.

use gsdram_core::port::EventHub;
use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_dram::controller::{
    AccessKind, ControllerConfig, ControllerStats, MemController, MemRequest, RowPolicy,
    SchedPolicy,
};
use gsdram_dram::mapping::AddressMap;
use gsdram_dram::refresh::RefreshTimer;
use gsdram_dram::wdrain::WriteDrain;

/// The refresh schedule reached by leaping straight to `horizon()` is
/// the one a cycle-by-cycle scan of `due_by` produces, and the horizon
/// is exact: the timer is never due one cycle before it.
#[test]
fn refresh_timer_leap_matches_step() {
    let mut rng = SplitMix(0x5EED_0001);
    for case in 0..32 {
        let refi = rng.range(5, 400);
        let end = refi * rng.range(3, 40);

        let mut step = RefreshTimer::new(true, refi);
        let mut fired_step = Vec::new();
        for t in 0..end {
            if step.due_by(t) {
                fired_step.push(t);
                step.advance_period();
            }
        }

        let mut leap = RefreshTimer::new(true, refi);
        let mut fired_leap = Vec::new();
        while let Some(due) = leap.horizon() {
            if due >= end {
                break;
            }
            assert!(!leap.due_by(due - 1), "case {case}: due before the horizon");
            assert!(leap.due_by(due), "case {case}: not due at the horizon");
            fired_leap.push(due);
            leap.advance_period();
        }

        assert_eq!(fired_step, fired_leap, "case {case}");
        assert_eq!(step.next_due(), leap.next_due(), "case {case}");
    }

    assert_eq!(
        RefreshTimer::new(false, 100).horizon(),
        None,
        "a disabled timer must report an empty horizon"
    );
}

/// Re-evaluating the drain hysteresis every cycle of a dwell emits the
/// same edge sequence as evaluating it once per depth change — the
/// deferral the controller's leap path relies on (queue depth only
/// changes at enqueue/issue, which invalidate the horizon).
#[test]
fn write_drain_leap_matches_step() {
    let mut rng = SplitMix(0x5EED_0002);
    for case in 0..64 {
        let high = rng.range(2, 12) as usize;
        let low = rng.below(high as u64) as usize;
        let mut depth = 0usize;
        let schedule: Vec<(usize, u64)> = (0..rng.range(10, 60))
            .map(|_| {
                depth = if rng.flip() {
                    depth + 1
                } else {
                    depth.saturating_sub(1)
                };
                (depth, rng.range(1, 8))
            })
            .collect();

        let mut step = WriteDrain::new(high, low);
        let mut edges_step = Vec::new();
        for (i, &(d, dwell)) in schedule.iter().enumerate() {
            for _ in 0..dwell {
                if let Some(e) = step.update(d) {
                    edges_step.push((i, e));
                }
            }
        }

        let mut leap = WriteDrain::new(high, low);
        let mut edges_leap = Vec::new();
        for (i, &(d, _)) in schedule.iter().enumerate() {
            if let Some(e) = leap.update(d) {
                edges_leap.push((i, e));
            }
        }

        assert_eq!(edges_step, edges_leap, "case {case}");
        assert_eq!(step.is_draining(), leap.is_draining(), "case {case}");
    }
}

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

type Observed = (Vec<(u64, u64)>, ControllerStats, u64, String);

/// Runs `reqs` through a controller with the time-skip engine on or
/// off, advancing through the same observation schedule, and returns
/// everything an outside observer can see.
fn run_with(
    time_skip: bool,
    reqs: &[(u64, bool, u64)],
    cfg: &ControllerConfig,
    observe: &[u64],
) -> Observed {
    let mut mc = MemController::new(cfg.clone());
    mc.set_time_skip(time_skip);
    mc.enable_trace();
    let map = AddressMap::table1();
    let mut events = EventHub::new();
    let mut done = Vec::new();
    let mut next = 0usize;
    let enq = |mc: &mut MemController, i: usize| {
        let (addr, is_write, at) = reqs[i];
        mc.enqueue(
            MemRequest {
                id: i as u64,
                loc: map.decompose(addr),
                pattern: PatternId((addr % 8) as u8),
                kind: if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            },
            at,
        );
    };
    for &t in observe {
        while next < reqs.len() && reqs[next].2 <= t {
            enq(&mut mc, next);
            next += 1;
        }
        mc.advance_observed(t, &mut events);
        mc.take_completions_into(t, &mut done);
    }
    while next < reqs.len() {
        enq(&mut mc, next);
        next += 1;
    }
    let end = mc.drain();
    mc.take_completions_into(end, &mut done);
    (
        done.iter().map(|c| (c.id, c.at)).collect(),
        mc.stats(),
        mc.now(),
        format!("{:?}", mc.trace()),
    )
}

/// Two-run diff: identical seeded request streams and observation
/// schedules, time-skip engine on vs off, across all four scheduling
/// engines, both row policies, default and drain-triggering (4/1)
/// write watermarks, 1–2 ranks, refresh on/off. Every observable —
/// completion schedule, statistics, final clock, command trace — must
/// match exactly.
#[test]
fn controller_leap_equals_step_two_run_diff() {
    let mut rng = SplitMix(0x5EED_0003);
    for case in 0..64 {
        let n = rng.range(1, 80) as usize;
        let mut arrival = 0u64;
        let reqs: Vec<(u64, bool, u64)> = (0..n)
            .map(|_| {
                arrival += rng.below(150);
                (rng.next_u64() % (1 << 26), rng.flip(), arrival)
            })
            .collect();
        let mut observe: Vec<u64> = (0..rng.range(5, 40))
            .map(|_| rng.below(arrival + 2000))
            .collect();
        observe.sort_unstable();
        let (write_high_watermark, write_low_watermark) = if rng.flip() { (4, 1) } else { (32, 8) };
        let cfg = ControllerConfig {
            policy: ENGINES[rng.below(ENGINES.len() as u64) as usize],
            row_policy: if rng.flip() {
                RowPolicy::Closed
            } else {
                RowPolicy::Open
            },
            write_high_watermark,
            write_low_watermark,
            refresh: rng.flip(),
            ranks: if rng.flip() { 2 } else { 1 },
            ..ControllerConfig::default()
        };
        let leap = run_with(true, &reqs, &cfg, &observe);
        let step = run_with(false, &reqs, &cfg, &observe);
        assert_eq!(leap, step, "case {case}: leap and step worlds diverged");
    }
}
