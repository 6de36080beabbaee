//! The sweep runner: executes a batch of independent [`RunSpec`]s,
//! serially or on `std::thread::scope` worker threads.
//!
//! Specs are pure data and [`RunSpec::execute`] is deterministic, so
//! the only thing parallelism could perturb is ordering — the runner
//! therefore writes each outcome into the slot indexed by its position
//! in the input, making [`run_parallel`] bit-identical to
//! [`run_serial`] (a property `crates/bench/tests/engine.rs` proves on
//! real experiments).

use gsdram_telemetry::Telemetry;

use crate::spec::{RunOutcome, RunSpec};

/// How a sweep should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// One spec at a time, in input order.
    Serial,
    /// Worker threads (`0` = one per available core).
    Parallel(usize),
}

impl SweepMode {
    /// Resolves `--serial` / `--threads N` flags; parallel with one
    /// thread per core by default.
    pub fn from_args(args: &crate::args::Args) -> SweepMode {
        if args.flag("--serial") {
            SweepMode::Serial
        } else {
            SweepMode::Parallel(args.usize("--threads", 0))
        }
    }
}

fn default_threads() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "thread-count discovery only; never touches sim state"
    )]
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The generic parallel engine behind [`run_parallel`] and
/// [`run_traced`]: workers claim indices from a shared counter and
/// return `(index, result)` lists; the parent scatters them back into
/// input order, so completion order never shows in the result.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanctioned parallel engine: workers claim indices off one counter, results scatter to input-order slots, bit-identical to serial per tests/engine.rs"
)]
fn run_parallel_with<T: Send>(
    specs: &[RunSpec],
    threads: usize,
    exec: impl Fn(&RunSpec) -> T + Sync,
) -> Vec<T> {
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let threads = threads.min(specs.len()).max(1);
    if threads <= 1 {
        return specs.iter().map(exec).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    std::thread::scope(|scope| {
        let gathered: Vec<Vec<(usize, T)>> = {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let next = &next;
                let exec = &exec;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        mine.push((i, exec(&specs[i])));
                    }
                    mine
                }));
            }
            #[expect(
                clippy::expect_used,
                reason = "a panicked worker must abort the sweep, not yield partial figures"
            )]
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        };
        for (i, outcome) in gathered.into_iter().flatten() {
            slots[i] = Some(outcome);
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "the scoped threads above filled every slot exactly once"
    )]
    slots
        .into_iter()
        .map(|s| s.expect("every spec executed"))
        .collect()
}

/// Executes every spec in input order on the calling thread.
pub fn run_serial(specs: &[RunSpec]) -> Vec<RunOutcome> {
    specs.iter().map(RunSpec::execute).collect()
}

/// Executes every spec across `threads` scoped worker threads
/// (`0` = one per available core). Outcomes come back in input order
/// regardless of completion order.
pub fn run_parallel(specs: &[RunSpec], threads: usize) -> Vec<RunOutcome> {
    run_parallel_with(specs, threads, RunSpec::execute)
}

/// Executes the specs in the given mode.
pub fn run(specs: &[RunSpec], mode: SweepMode) -> Vec<RunOutcome> {
    match mode {
        SweepMode::Serial => run_serial(specs),
        SweepMode::Parallel(n) => run_parallel(specs, n),
    }
}

/// Executes the specs in the given mode with a telemetry collector
/// attached to every run ([`RunSpec::execute_traced`]). `capacity`
/// bounds each collector's event/occupancy ring buffers. Observation
/// never perturbs simulation, so the outcomes are bit-identical to
/// [`run`] — and traced parallel sweeps stay bit-identical to traced
/// serial ones, because both go through the same slot-scatter engine.
pub fn run_traced(
    specs: &[RunSpec],
    mode: SweepMode,
    capacity: usize,
) -> Vec<(RunOutcome, Telemetry)> {
    let exec = |s: &RunSpec| s.execute_traced(capacity);
    match mode {
        SweepMode::Serial => specs.iter().map(exec).collect(),
        SweepMode::Parallel(n) => run_parallel_with(specs, n, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, WorkloadSpec};
    use gsdram_workloads::imdb::Layout;

    fn small_specs() -> Vec<RunSpec> {
        Layout::ALL
            .iter()
            .map(|&layout| RunSpec {
                id: format!("sweep-test/{}", layout.label()),
                machine: MachineSpec::table1(1, 4 << 20),
                workload: WorkloadSpec::Analytics {
                    layout,
                    tuples: 1024,
                    columns: vec![0],
                },
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_order_and_content() {
        let specs = small_specs();
        let serial = run_serial(&specs);
        let parallel = run_parallel(&specs, 3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.spec.id, p.spec.id);
            assert_eq!(s.stats(), p.stats());
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let specs = small_specs();
        assert_eq!(run_parallel(&specs, 0).len(), specs.len());
    }
}
