//! The core scheduler: per-core execution state and the event loop that
//! interleaves N in-order cores with the memory system.
//!
//! Each core owns a local clock; the scheduler always steps the
//! earliest runnable (not done, not waiting on DRAM) core, bringing the
//! memory system up to that core's time first so completions that wake
//! an earlier core are never missed. Memory operations leave the core
//! through the port types of [`gsdram_core::port`]: the scheduler
//! translates each [`Op`] into a [`MemReq`] and hands it to the access
//! path in [`crate::hier`].

use gsdram_core::port::{MemReq, ReqKind};

use crate::machine::Machine;
use crate::ops::{Op, Program};

/// CPU cycles of dispatch bandwidth every op spends in its core's issue
/// slot. This is a per-op cost, not a stepped simulation clock: core
/// clocks otherwise leap by op latencies and to memory completions.
const ISSUE_SLOT_CYCLES: u64 = 1;

/// When a [`Machine::run`] ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// All programs have returned `None`.
    AllDone,
    /// The given core's program finished (other cores are cut off there —
    /// the HTAP methodology of §5.1).
    CoreDone(usize),
}

/// One in-order core's execution state.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    /// The core's local clock in CPU cycles.
    pub(crate) time: u64,
    /// Whether the core is blocked on an outstanding DRAM fetch.
    pub(crate) waiting: bool,
    /// Whether the core's program has finished.
    pub(crate) done: bool,
    /// Operations executed.
    pub(crate) ops: u64,
    /// Memory operations executed.
    pub(crate) mem_ops: u64,
}

/// The set of in-order cores, with the scheduling queries the run loop
/// needs.
#[derive(Debug)]
pub struct CoreSet {
    cores: Vec<CoreState>,
}

impl CoreSet {
    pub(crate) fn new(n: usize) -> Self {
        CoreSet {
            cores: (0..n)
                .map(|_| CoreState {
                    time: 0,
                    waiting: false,
                    done: false,
                    ops: 0,
                    mem_ops: 0,
                })
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cores.len()
    }

    pub(crate) fn core(&self, i: usize) -> &CoreState {
        &self.cores[i]
    }

    pub(crate) fn core_mut(&mut self, i: usize) -> &mut CoreState {
        &mut self.cores[i]
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, CoreState> {
        self.cores.iter()
    }

    /// Aligns every core to the latest local clock (consecutive `run`s
    /// share one machine) and clears waiting/done flags. Returns the
    /// common start time.
    pub(crate) fn start(&mut self) -> u64 {
        let start = self.cores.iter().map(|c| c.time).max().unwrap_or(0);
        for c in &mut self.cores {
            c.time = start;
            c.waiting = false;
            c.done = false;
        }
        start
    }

    /// The earliest runnable core and its local time.
    pub(crate) fn pick_runnable(&self) -> Option<(usize, u64)> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done && !c.waiting)
            .min_by_key(|(_, c)| c.time)
            .map(|(i, c)| (i, c.time))
    }

    pub(crate) fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.done)
    }

    /// Whether any core can make progress without a DRAM completion.
    pub(crate) fn any_ready(&self) -> bool {
        self.cores.iter().any(|c| !c.done && !c.waiting)
    }
}

impl Machine {
    /// Runs `programs` (one per core) until `stop`, returning the
    /// measurements. Statistics are cumulative per machine; use a fresh
    /// machine per measured configuration.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the configured core
    /// count, or a program accesses a page with a disallowed pattern.
    pub fn run(
        &mut self,
        programs: &mut [&mut dyn Program],
        stop: StopWhen,
    ) -> crate::report::RunReport {
        assert_eq!(programs.len(), self.cores.len(), "one program per core");
        let start = self.cores.start();

        loop {
            // Stop condition.
            let stop_hit = match stop {
                StopWhen::AllDone => self.cores.all_done(),
                StopWhen::CoreDone(i) => self.cores.core(i).done,
            };
            if stop_hit {
                break;
            }

            // Pick the earliest runnable core.
            let Some((i, t)) = self.cores.pick_runnable() else {
                if self.cores.all_done() {
                    break;
                }
                self.advance_until_completion(programs);
                continue;
            };

            // Bring memory up to date; a delivered completion may wake an
            // earlier core, so re-pick.
            self.sync_memory(t, programs);
            let i = self.cores.pick_runnable().map(|(i, _)| i).unwrap_or(i);

            match programs[i].next_op() {
                None => {
                    self.cores.core_mut(i).done = true;
                }
                Some(op) => {
                    let core = self.cores.core_mut(i);
                    core.ops += 1;
                    core.time += ISSUE_SLOT_CYCLES;
                    match op {
                        Op::Compute(c) => {
                            self.cores.core_mut(i).time += c as u64;
                        }
                        Op::Load { pc, addr, pattern } => {
                            let req = MemReq {
                                pc,
                                addr,
                                pattern,
                                kind: ReqKind::Load,
                            };
                            if let Some(resp) = self.access(i, req) {
                                programs[i].on_load_value(resp.value);
                            }
                        }
                        Op::Load16 { pc, addr, pattern } => {
                            let req = MemReq {
                                pc,
                                addr,
                                pattern,
                                kind: ReqKind::LoadWide,
                            };
                            if let Some(resp) = self.access(i, req) {
                                programs[i].on_load_value(resp.value);
                            }
                        }
                        Op::Store {
                            pc,
                            addr,
                            pattern,
                            value,
                        } => {
                            let req = MemReq {
                                pc,
                                addr,
                                pattern,
                                kind: ReqKind::Store(value),
                            };
                            self.access(i, req);
                        }
                    }
                }
            }
        }

        self.report(stop, start, programs)
    }
}
