//! Sharded per-channel controller advance.
//!
//! Once a machine has N independent channel controllers, advancing
//! them to a common horizon is embarrassingly parallel — controllers
//! share no state, each one's event stream is fully determined by its
//! own queues, and the caller merges results *after* every controller
//! has reached the horizon. That makes the sharded advance
//! bit-identical to the serial loop by construction: there is no
//! cross-thread communication to order, only a fork at a common start
//! time and a join at a common horizon (the same `Horizon`/next-event
//! contract the time-skip engine already guarantees per controller).
//!
//! Observation is the one thing that cannot shard: an attached
//! [`EventHub`] is a single mutable event sink with a global order, so
//! both functions here advance under private detached hubs and drop
//! every event.
//!
//! The machine itself always advances its channels serially (a
//! per-op memory sync never spans enough work to pay for a thread);
//! these functions are driven directly on bare controllers by
//! simbench's `dram_saturate` drain. This module is the second
//! sanctioned D8 site after the bench sweep runner, and carries the
//! same proof obligation: a sharded ≡ serial state diff
//! (`sharded_matches_serial_advance` here, and the equal-end-state
//! check in simbench's drain).

use crate::controller::MemController;
use crate::timing::Cycles;
use gsdram_core::port::EventHub;

/// Advances every controller to `to` on the calling thread, events
/// dropped — the serial twin of [`advance_sharded`], used by the
/// determinism proofs and as the baseline a sharded drain is timed
/// against.
pub fn advance_serial(ctls: &mut [MemController], to: Cycles) {
    let mut hub = EventHub::new();
    for c in ctls.iter_mut() {
        c.advance_observed(to, &mut hub);
    }
}

/// Advances every controller to `to`, one thread per non-quiescent
/// controller, quiescent ones leapt on the calling thread. Events are
/// dropped (each shard advances under a private detached hub).
///
/// Equivalent to [`advance_serial`] state-for-state: controllers are
/// disjoint, each advance is deterministic given its own queues, and
/// the scope joins every shard before returning.
#[expect(
    clippy::disallowed_methods,
    reason = "the channel-shard site: disjoint controllers fork at a common start and join at a common horizon, no shared state, proven bit-identical to the serial loop in this module's tests and simbench's dram_saturate drain"
)]
pub fn advance_sharded(ctls: &mut [MemController], to: Cycles) {
    std::thread::scope(|scope| {
        for c in ctls.iter_mut() {
            if c.quiescent_until(to) {
                // Pure clock leap; cheaper than a thread.
                let mut hub = EventHub::new();
                c.advance_observed(to, &mut hub);
            } else {
                scope.spawn(move || {
                    let mut hub = EventHub::new();
                    c.advance_observed(to, &mut hub);
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{AccessKind, ControllerConfig, MemController, MemRequest};
    use crate::mapping::AddressMap;
    use gsdram_core::PatternId;

    /// A deterministic SplitMix64 stream for request addresses.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Builds `channels` controllers pre-loaded with an identical
    /// deterministic request mix (mapped through a multi-channel
    /// address map, scattered to each request's channel).
    fn loaded_controllers(channels: usize, requests: usize, seed: u64) -> Vec<MemController> {
        let map = AddressMap::with_shape(
            64,
            128,
            8,
            1,
            channels as u64,
            crate::mapping::Interleave::ColumnFirst,
        );
        let mut ctls: Vec<MemController> = (0..channels)
            .map(|ch| {
                let mut c = MemController::new(ControllerConfig::default());
                c.set_channel(ch);
                c
            })
            .collect();
        let mut rng = Rng(seed);
        for id in 0..requests {
            let addr = (rng.next() % (1 << 24)) * 64;
            let loc = map.decompose(addr);
            let kind = if rng.next().is_multiple_of(4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let at = rng.next() % 50_000;
            ctls[loc.channel].enqueue(
                MemRequest {
                    id: id as u64,
                    loc,
                    pattern: PatternId(0),
                    kind,
                },
                at,
            );
        }
        ctls
    }

    fn snapshot(ctls: &mut [MemController]) -> String {
        let mut out = String::new();
        for c in ctls.iter_mut() {
            let mut done = Vec::new();
            c.take_completions_into(u64::MAX, &mut done);
            out.push_str(&format!(
                "clock={} pending={} stats={:?} energy={:?} completions={:?}\n",
                c.now(),
                c.pending(),
                c.stats(),
                c.energy(),
                done
            ));
        }
        out
    }

    #[test]
    fn sharded_matches_serial_advance() {
        for channels in [2usize, 4] {
            let horizon = 400_000u64;
            let mut serial = loaded_controllers(channels, 600, 7);
            let mut sharded = loaded_controllers(channels, 600, 7);
            // At least two controllers have work left before the
            // horizon, so the sharded run really forks threads.
            let busy = serial.iter().filter(|c| !c.quiescent_until(horizon));
            assert!(busy.count() >= 2, "{channels} channels");
            advance_serial(&mut serial, horizon);
            advance_sharded(&mut sharded, horizon);
            assert_eq!(
                snapshot(&mut serial),
                snapshot(&mut sharded),
                "{channels} channels"
            );
        }
    }

    #[test]
    fn repeated_sharded_advances_stay_deterministic() {
        let run = || {
            let mut ctls = loaded_controllers(4, 400, 99);
            // Advance in several uneven hops, sharding each time.
            for to in [10_000u64, 50_000, 123_456, 300_000] {
                advance_sharded(&mut ctls, to);
            }
            snapshot(&mut ctls)
        };
        assert_eq!(run(), run());
    }
}
