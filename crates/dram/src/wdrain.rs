//! Write-drain engine: watermark hysteresis deciding when the
//! controller services writes instead of reads.
//!
//! Reads are latency-critical and writes are not, so the controller
//! normally lets reads bypass the write queue. Left unchecked that
//! starves writebacks, so once the write queue reaches a *high
//! watermark* the engine enters drain mode and services writes until
//! the queue shrinks to a *low watermark* (batching writes amortises
//! the bus read↔write turnaround). The controller's scheduling step
//! asks the pure [`WriteDrain::would_serve`] which queue to draw from,
//! then commits the mode with [`WriteDrain::update`], which reports
//! each enter/exit transition for `ControllerStats` and telemetry.

/// A drain-mode edge reported by [`WriteDrain::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainTransition {
    /// The write queue reached the high watermark: drain mode starts.
    Entered,
    /// The write queue shrank to the low watermark: drain mode ends.
    Exited,
}

/// Watermark-hysteresis write-drain state machine.
#[derive(Debug, Clone, Copy)]
pub struct WriteDrain {
    high: usize,
    low: usize,
    draining: bool,
}

impl WriteDrain {
    /// An engine entering drain mode at `high` queued writes and
    /// leaving it at `low`.
    pub fn new(high: usize, low: usize) -> Self {
        WriteDrain {
            high,
            low,
            draining: false,
        }
    }

    /// Whether drain mode is currently active.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// The hysteresis: the drain mode the engine is in once it has seen
    /// `depth` queued writes. The enter check runs before the exit
    /// check, so degenerate `high <= low` watermarks never latch.
    pub fn would_drain(&self, depth: usize) -> bool {
        let mut draining = self.draining;
        if depth >= self.high {
            draining = true;
        }
        if depth <= self.low {
            draining = false;
        }
        draining
    }

    /// Whether the scheduling step at `depth` queued writes services
    /// writes: always in drain mode, and opportunistically when no read
    /// is ready. Pure, so the controller can decide before it commits
    /// the mode with [`update`](Self::update).
    pub fn would_serve(&self, depth: usize, have_ready_read: bool) -> bool {
        depth > 0 && (self.would_drain(depth) || !have_ready_read)
    }

    /// Commits [`would_drain`](Self::would_drain) for the current
    /// write-queue depth, reporting an edge when the mode flips. Called
    /// once per scheduling step.
    pub fn update(&mut self, depth: usize) -> Option<DrainTransition> {
        let was = self.draining;
        self.draining = self.would_drain(depth);
        match (was, self.draining) {
            (false, true) => Some(DrainTransition::Entered),
            (true, false) => Some(DrainTransition::Exited),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_enters_high_exits_low() {
        let mut w = WriteDrain::new(4, 1);
        assert_eq!(w.update(3), None);
        assert!(!w.is_draining());
        assert_eq!(w.update(4), Some(DrainTransition::Entered));
        assert!(w.is_draining());
        // Stays in drain mode between the watermarks — no edge.
        assert_eq!(w.update(3), None);
        assert_eq!(w.update(2), None);
        assert!(w.is_draining());
        assert_eq!(w.update(1), Some(DrainTransition::Exited));
        assert!(!w.is_draining());
        assert_eq!(w.update(0), None);
    }

    #[test]
    fn serves_writes_when_draining_or_idle() {
        let mut w = WriteDrain::new(4, 1);
        // Not draining: writes only when no read is ready.
        assert!(!w.would_serve(2, true));
        assert!(w.would_serve(2, false));
        assert!(!w.would_serve(0, false), "nothing to serve");
        // Reaching the high watermark serves writes even with ready
        // reads, before and after the mode is committed, and keeps
        // serving them between the watermarks.
        assert!(w.would_serve(4, true));
        w.update(4);
        assert!(w.would_serve(4, true));
        assert!(w.would_serve(2, true));
    }

    #[test]
    fn degenerate_watermarks_never_latch() {
        // high <= low: the exit check runs after the enter check, so
        // the engine can never stay latched in drain mode (matches the
        // pre-extraction controller behaviour).
        let mut w = WriteDrain::new(2, 2);
        assert_eq!(w.update(2), None);
        assert!(!w.is_draining());
        assert_eq!(w.update(3), Some(DrainTransition::Entered));
        assert_eq!(w.update(2), Some(DrainTransition::Exited));
    }
}
