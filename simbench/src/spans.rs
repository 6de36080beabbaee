//! In-memory span recorder for the traced run.
//!
//! A span is one timed call from the benchmark into a simulator layer:
//! name, start, end, parent, and the repetition it belongs to (the id
//! every span of one repetition shares). Calls made millions of times
//! per run (`Program::next_op`, the observer) are sampled: one call in
//! [`SAMPLE_EVERY`] becomes a span whose `weight` says how many calls
//! it stands for, with the timer's own cost subtracted. Spans stay in
//! memory until the run ends and are then written as one Chrome trace.

use std::time::Instant;

/// One call in this many is timed for the per-call layers. Prime, so
/// the samples do not lock onto one phase of a workload's periodic op
/// stream (GEMM's inner loop repeats every 16 ops).
pub const SAMPLE_EVERY: u64 = 4099;

/// A monotonic nanosecond clock shared by every recorder of one run,
/// carrying its own calibrated read cost.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    timer_ns: u64,
}

impl Clock {
    /// Starts the clock and measures what one timed empty interval
    /// costs (the median of many back-to-back reads).
    pub fn calibrated() -> Self {
        let origin = Instant::now();
        let mut gaps: Vec<u64> = (0..2001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                nanos(b.duration_since(a))
            })
            .collect();
        gaps.sort_unstable();
        Clock {
            origin,
            timer_ns: gaps[gaps.len() / 2],
        }
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// The calibrated cost of one timed interval, in nanoseconds.
    pub fn timer_ns(&self) -> u64 {
        self.timer_ns
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Index of a span within its [`Spans`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The repetition this span belongs to.
    pub rep: u32,
    /// The call timed, e.g. `Machine::run`.
    pub name: &'static str,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds on the run's [`Clock`].
    pub start_ns: u64,
    /// End, nanoseconds on the run's [`Clock`].
    pub end_ns: u64,
    /// Calls this span stands for (1 unless sampled).
    pub weight: u64,
}

impl Span {
    /// Duration of the recorded interval in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// Estimated time of all the calls this span stands for.
    pub fn weighted_s(&self) -> f64 {
        self.dur_s() * self.weight as f64
    }
}

/// Every span of one benchmark run.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder on `clock`.
    pub fn new(clock: Clock) -> Self {
        Spans {
            clock,
            spans: Vec::new(),
        }
    }

    /// The recorder's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, rep: u32, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.clock.now_ns();
        self.spans.push(Span {
            rep,
            name,
            parent,
            start_ns: now,
            end_ns: now,
            weight: 1,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.clock.now_ns();
    }

    /// Records a sampled call timed from `start_ns` to `end_ns`,
    /// standing for `weight` calls; the timer's own cost is subtracted.
    pub fn sample(
        &mut self,
        rep: u32,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        weight: u64,
    ) {
        let end_ns = end_ns.saturating_sub(self.clock.timer_ns).max(start_ns);
        self.spans.push(Span {
            rep,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            weight,
        });
    }

    /// All spans, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Estimated total time of the calls named `name` made directly
    /// under span `parent`.
    pub fn child_s(&self, parent: SpanId, name: &str) -> f64 {
        self.children(parent)
            .filter(|s| s.name == name)
            .map(Span::weighted_s)
            .sum()
    }

    /// Self time of span `id`: its duration minus the estimated time
    /// of its children.
    pub fn self_s(&self, id: SpanId) -> f64 {
        let kids: f64 = self.children(id).map(Span::weighted_s).sum();
        (self.spans[id].dur_s() - kids).max(0.0)
    }

    fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        // Children are recorded after their parent opens.
        self.spans[id + 1..]
            .iter()
            .filter(move |s| s.parent == Some(id))
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, one thread row per repetition.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"weight\":{}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.weight
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_weighted_children() {
        let mut s = Spans::new(Clock::calibrated());
        let root = s.open(0, "run", None);
        s.spans[root].start_ns = 0;
        s.spans[root].end_ns = 10_000;
        s.spans.push(Span {
            rep: 0,
            name: "next_op",
            parent: Some(root),
            start_ns: 100,
            end_ns: 110,
            weight: 100,
        });
        assert!((s.child_s(root, "next_op") - 1_000e-9).abs() < 1e-15);
        assert!((s.self_s(root) - 9_000e-9).abs() < 1e-15);
        let json = s.to_chrome_json();
        assert!(json.contains("\"name\":\"next_op\"") && json.contains("\"weight\":100"));
    }
}
