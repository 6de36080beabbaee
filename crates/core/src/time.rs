//! The time-skip engine: the one place simulated clocks are allowed to
//! move.
//!
//! Event-driven components do not tick; they expose the *exact* next
//! cycle at which their state can change (their **horizon**) and the
//! simulation leaps straight there. This module owns the two pieces of
//! that contract:
//!
//! * [`TimeFold`] — folds per-component horizons into the global "next
//!   interesting cycle" (a plain min over `u64` cycle counts, with
//!   "never" represented as absence rather than a sentinel);
//! * [`Horizon`] — a component-side cache of its own next-event bound,
//!   with explicit staleness so a component can memoise the bound its
//!   scheduling scan just computed and invalidate it on any state
//!   change.
//!
//! The contract a component's `next_event()` must satisfy (see
//! `docs/PERF.md`):
//!
//! 1. **Exactness downward**: no observable state change (command
//!    issue, completion, statistic, emitted event) may occur strictly
//!    before the reported cycle, absent new input.
//! 2. **Monotonicity**: as the component's observation time advances
//!    without new input, the reported cycle never moves earlier — so a
//!    cached bound stays a valid lower bound until invalidated.
//! 3. **Liveness**: advancing *to* the reported cycle makes progress
//!    (issues a command, fires a refresh, retires a request).
//!
//! Direct clock mutation (`now += 1`-style unit ticking) outside this
//! module is forbidden in simulation crates — rule D7, enforced by the
//! workspace's `tests/source_contract.rs`.

/// Folds component horizons into the earliest "next interesting cycle".
///
/// The fold is a plain min; the value of an empty fold is `None`
/// ("nothing will ever happen without new input"), never a sentinel
/// cycle count, so callers cannot confuse idleness with cycle
/// `u64::MAX`.
///
/// ```
/// use gsdram_core::time::TimeFold;
/// let mut f = TimeFold::new();
/// assert_eq!(f.earliest(), None);
/// f.fold(70);
/// f.fold_opt(None); // an idle component contributes nothing
/// f.fold_opt(Some(40));
/// assert_eq!(f.earliest(), Some(40));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeFold {
    next: Option<u64>,
}

impl TimeFold {
    /// An empty fold: no component has reported a horizon yet.
    pub const fn new() -> Self {
        TimeFold { next: None }
    }

    /// Folds in a component whose state next changes at cycle `at`.
    pub fn fold(&mut self, at: u64) {
        self.next = Some(match self.next {
            Some(t) => t.min(at),
            None => at,
        });
    }

    /// Folds in a component horizon; `None` means the component is idle
    /// and contributes nothing.
    pub fn fold_opt(&mut self, at: Option<u64>) {
        if let Some(at) = at {
            self.fold(at);
        }
    }

    /// The earliest folded cycle, or `None` if every component was idle.
    pub fn earliest(&self) -> Option<u64> {
        self.next
    }

    /// The earliest folded cycle, or `idle` if every component was idle.
    pub fn earliest_or(&self, idle: u64) -> u64 {
        self.next.unwrap_or(idle)
    }
}

/// A component-side cache of its own next-event bound.
///
/// Three states, kept distinct so staleness is never conflated with
/// idleness:
///
/// * **stale** — the bound must be recomputed (any state change:
///   enqueue, command issue, refresh);
/// * **next at `t`** — no observable state change before cycle `t`;
/// * **idle** — nothing will ever happen without new input.
///
/// By the monotonicity leg of the time-skip contract, a non-stale bound
/// remains valid as observation time advances; only *state changes*
/// invalidate it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Horizon {
    /// The bound is unknown and must be recomputed.
    #[default]
    Stale,
    /// No observable state change strictly before this cycle.
    NextAt(u64),
    /// No observable state change ever, absent new input.
    Idle,
}

impl Horizon {
    /// Marks the bound stale (call on every state change).
    pub fn invalidate(&mut self) {
        *self = Horizon::Stale;
    }

    /// Records a freshly computed bound (`None` = idle).
    pub fn learn(&mut self, bound: Option<u64>) {
        *self = match bound {
            Some(t) => Horizon::NextAt(t),
            None => Horizon::Idle,
        };
    }

    /// The cached bound, or `None` if stale **or** idle — use
    /// [`Horizon::is_stale`] to tell the two apart.
    pub fn known(&self) -> Option<u64> {
        match *self {
            Horizon::NextAt(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the bound must be recomputed.
    pub fn is_stale(&self) -> bool {
        matches!(self, Horizon::Stale)
    }

    /// Whether the cache proves nothing observable happens up to and
    /// including cycle `to` — i.e. an advance to `to` may skip its
    /// scheduling scan entirely. Stale caches never permit a skip.
    pub fn skips(&self, to: u64) -> bool {
        match *self {
            Horizon::Stale => false,
            Horizon::NextAt(t) => to < t,
            Horizon::Idle => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_takes_the_minimum_and_ignores_idle() {
        let mut f = TimeFold::new();
        assert_eq!(f.earliest(), None);
        assert_eq!(f.earliest_or(99), 99);
        f.fold_opt(None);
        assert_eq!(f.earliest(), None, "idle components contribute nothing");
        f.fold(70);
        f.fold(40);
        f.fold(55);
        f.fold_opt(Some(41));
        assert_eq!(f.earliest(), Some(40));
        assert_eq!(f.earliest_or(99), 40);
    }

    #[test]
    fn horizon_states_are_distinct() {
        let mut h = Horizon::default();
        assert!(h.is_stale());
        assert_eq!(h.known(), None);
        assert!(!h.skips(0), "stale never permits a skip");

        h.learn(Some(10));
        assert!(!h.is_stale());
        assert_eq!(h.known(), Some(10));
        assert!(h.skips(9), "advance short of the bound skips");
        assert!(!h.skips(10), "advance to the bound must scan");

        h.learn(None);
        assert!(!h.is_stale());
        assert_eq!(h.known(), None);
        assert!(h.skips(u64::MAX), "idle skips everything");

        h.invalidate();
        assert!(h.is_stale());
        assert!(!h.skips(u64::MAX));
    }
}
