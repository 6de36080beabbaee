//! Minimal micro-benchmark harness for the `harness = false` bench
//! targets. The workspace builds offline with no external crates, so
//! instead of `criterion` each bench target is a plain `main()` that
//! drives [`Runner`]: auto-calibrated iteration counts, wall-clock
//! timing via [`std::time::Instant`], and a name filter from argv so
//! `cargo bench --bench substrate -- shuffle` works as expected.

use std::time::Duration;

pub use std::hint::black_box;

/// How long each measurement loop runs before we trust the ns/iter
/// figure. Long enough to dominate timer noise, short enough that a
/// full `cargo bench` stays in seconds.
const TARGET: Duration = Duration::from_millis(20);

/// Runs named closures and prints one `ns/iter` line per bench.
#[derive(Debug)]
pub struct Runner {
    filter: Option<String>,
}

impl Runner {
    /// Builds a runner from the process arguments. Cargo passes
    /// `--bench` (and sometimes other flags) to the target; any
    /// non-flag argument is treated as a substring filter on bench
    /// names.
    pub fn from_env() -> Runner {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner { filter }
    }

    /// A runner that executes every bench (useful from tests).
    pub fn all() -> Runner {
        Runner { filter: None }
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Times `f`, doubling the iteration count until the measurement
    /// loop runs for the target duration, then prints ns/iter. Expensive bodies
    /// (one iteration already past the target) are reported from a
    /// single iteration.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        f(); // warm-up
        let mut iters: u64 = 1;
        loop {
            #[expect(
                clippy::disallowed_types,
                clippy::disallowed_methods,
                reason = "wall-clock ns/iter is this harness's deliverable, not simulation state"
            )]
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = start.elapsed();
            if dt >= TARGET || iters >= 1 << 30 {
                let ns = dt.as_nanos() as f64 / iters as f64;
                println!("{name:<44} {ns:>14.1} ns/iter  ({iters} iters)");
                return;
            }
            iters = iters.saturating_mul(2);
        }
    }
}
