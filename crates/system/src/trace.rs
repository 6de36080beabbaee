//! Memory-trace capture and replay.
//!
//! Simulators of this kind are commonly driven from traces as well as
//! from synthetic workloads. This module defines a line-oriented text
//! format for `pattload`/`pattstore`/compute streams and two adapters:
//!
//! * [`TraceRecorder`] wraps any [`Program`] and tees every op it
//!   yields into a writer;
//! * [`TraceReplayer`] plays a recorded trace back as a [`Program`].
//!
//! Format (one op per line, `#` comments ignored):
//!
//! ```text
//! L <addr> <pattern> <pc>            # 8-byte load
//! W <addr> <pattern> <pc>            # 16-byte (xmm) load
//! S <addr> <pattern> <pc> <value>    # 8-byte store
//! C <cycles>                         # compute batch
//! ```
//!
//! Addresses and values are hexadecimal; pattern and pc decimal.

use std::io::{self, BufRead, Write};

use gsdram_core::PatternId;

use crate::ops::{Op, Program};

/// Serialises one op as a trace line.
pub fn format_op(op: &Op) -> String {
    match op {
        Op::Load { pc, addr, pattern } => format!("L {addr:x} {} {pc}", pattern.0),
        Op::Load16 { pc, addr, pattern } => format!("W {addr:x} {} {pc}", pattern.0),
        Op::Store {
            pc,
            addr,
            pattern,
            value,
        } => {
            format!("S {addr:x} {} {pc} {value:x}", pattern.0)
        }
        Op::Compute(c) => format!("C {c}"),
    }
}

/// Parses one trace line (empty/comment lines return `Ok(None)`).
///
/// # Errors
///
/// Returns [`io::Error`] with `InvalidData` on malformed lines.
pub fn parse_line(line: &str) -> io::Result<Option<Op>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{msg}: {line}"));
    let fields: Vec<&str> = line.split_whitespace().collect();
    let hex = |i: usize, name: &str| -> io::Result<u64> {
        let f = fields.get(i).ok_or_else(|| bad(name))?;
        u64::from_str_radix(f, 16).map_err(|_| bad(name))
    };
    match fields[0] {
        kind @ ("L" | "W" | "S") => {
            let addr = hex(1, "missing/invalid addr")?;
            let pattern = fields
                .get(2)
                .and_then(|f| f.parse::<u8>().ok())
                .ok_or_else(|| bad("missing/invalid pattern"))?;
            let pc = fields
                .get(3)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| bad("missing/invalid pc"))?;
            let pattern = PatternId(pattern);
            let op = match kind {
                "L" => Op::Load { pc, addr, pattern },
                "W" => Op::Load16 { pc, addr, pattern },
                _ => {
                    let value = hex(4, "missing/invalid value")?;
                    Op::Store {
                        pc,
                        addr,
                        pattern,
                        value,
                    }
                }
            };
            Ok(Some(op))
        }
        "C" => {
            let c = fields
                .get(1)
                .and_then(|f| f.parse::<u32>().ok())
                .ok_or_else(|| bad("missing/invalid cycle count"))?;
            Ok(Some(Op::Compute(c)))
        }
        _ => Err(bad("unknown op kind")),
    }
}

/// Tees the ops of an inner program into a writer while running it.
///
/// ```
/// use gsdram_system::ops::{Op, Program, ScriptedProgram};
/// use gsdram_system::trace::TraceRecorder;
/// let inner = ScriptedProgram::new(vec![Op::Compute(5)]);
/// let mut rec = TraceRecorder::new(inner, Vec::new());
/// while rec.next_op().is_some() {}
/// let (_, bytes) = rec.into_parts();
/// assert_eq!(String::from_utf8(bytes).unwrap(), "C 5\n");
/// ```
#[derive(Debug)]
pub struct TraceRecorder<P, W> {
    inner: P,
    out: W,
    ops_written: u64,
}

impl<P: Program, W: Write> TraceRecorder<P, W> {
    /// Wraps `inner`, writing each yielded op to `out`.
    pub fn new(inner: P, out: W) -> Self {
        TraceRecorder {
            inner,
            out,
            ops_written: 0,
        }
    }

    /// Finishes recording, returning the inner program and writer.
    pub fn into_parts(self) -> (P, W) {
        (self.inner, self.out)
    }

    /// Ops recorded so far.
    pub fn ops_written(&self) -> u64 {
        self.ops_written
    }
}

impl<P: Program, W: Write> Program for TraceRecorder<P, W> {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.inner.next_op()?;
        #[expect(
            clippy::expect_used,
            reason = "Program::next_op cannot carry IO errors; a broken trace sink is fatal"
        )]
        writeln!(self.out, "{}", format_op(&op)).expect("trace write failed");
        self.ops_written += 1;
        Some(op)
    }

    fn on_load_value(&mut self, value: u64) {
        self.inner.on_load_value(value);
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn result(&self) -> u64 {
        self.inner.result()
    }
}

/// Plays a recorded trace back as a program, folding loaded values into
/// a checksum like the synthetic workloads do.
#[derive(Debug)]
pub struct TraceReplayer<R> {
    lines: io::Lines<R>,
    sum: u64,
    ops_replayed: u64,
}

impl<R: BufRead> TraceReplayer<R> {
    /// A replayer over `reader`.
    pub fn new(reader: R) -> Self {
        TraceReplayer {
            lines: reader.lines(),
            sum: 0,
            ops_replayed: 0,
        }
    }

    /// Ops replayed so far.
    pub fn ops_replayed(&self) -> u64 {
        self.ops_replayed
    }
}

impl<R: BufRead> Program for TraceReplayer<R> {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            #[expect(
                clippy::expect_used,
                reason = "Program::next_op cannot carry IO errors; a broken trace source is fatal"
            )]
            let line = self.lines.next()?.expect("trace read failed");
            #[expect(
                clippy::expect_used,
                reason = "replaying a corrupt trace is fatal; carrying on would skew results silently"
            )]
            match parse_line(&line).expect("malformed trace line") {
                Some(op) => {
                    self.ops_replayed += 1;
                    return Some(op);
                }
                None => continue,
            }
        }
    }

    fn on_load_value(&mut self, value: u64) {
        self.sum = self.sum.wrapping_add(value);
    }

    fn progress(&self) -> u64 {
        self.ops_replayed
    }

    fn result(&self) -> u64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::machine::{Machine, StopWhen};
    use crate::ops::ScriptedProgram;
    use std::io::BufReader;

    #[test]
    fn format_parse_round_trip() {
        let ops = [
            Op::Load {
                pc: 12,
                addr: 0xdeadb0,
                pattern: PatternId(7),
            },
            Op::Load16 {
                pc: 3,
                addr: 0x40,
                pattern: PatternId(0),
            },
            Op::Store {
                pc: 9,
                addr: 0x1000,
                pattern: PatternId(1),
                value: 0xfeed,
            },
            Op::Compute(37),
        ];
        for op in ops {
            let line = format_op(&op);
            let back = parse_line(&line).unwrap().expect("op line");
            assert_eq!(back, op, "{line}");
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# header").unwrap(), None);
    }

    #[test]
    fn malformed_lines_error() {
        for bad in ["X 1 2 3", "L zz 0 1", "L 40", "S 40 0 1", "C", "C x"] {
            assert!(parse_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn record_then_replay_is_cycle_identical() {
        let build_ops = |base: u64| -> Vec<Op> {
            (0..64u64)
                .flat_map(|i| {
                    [
                        Op::Load {
                            pc: 1,
                            addr: base + i * 72 % 4096,
                            pattern: PatternId(0),
                        },
                        Op::Store {
                            pc: 2,
                            addr: base + i * 40 % 4096,
                            pattern: PatternId(0),
                            value: i,
                        },
                        Op::Compute(3),
                    ]
                })
                .collect()
        };

        // Record.
        let mut m = Machine::new(SystemConfig::table1(1, 1 << 20));
        let base = m.malloc(4096);
        let mut trace = Vec::new();
        let mut rec = TraceRecorder::new(ScriptedProgram::new(build_ops(base)), &mut trace);
        let r1 = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut rec];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(rec.ops_written(), 192);

        // Replay on a fresh machine.
        let mut m = Machine::new(SystemConfig::table1(1, 1 << 20));
        let base2 = m.malloc(4096);
        assert_eq!(base, base2, "deterministic allocator");
        let mut rep = TraceReplayer::new(BufReader::new(&trace[..]));
        let r2 = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut rep];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(rep.ops_replayed(), 192);
        assert_eq!(
            r1.cpu_cycles, r2.cpu_cycles,
            "replay must be cycle-identical"
        );
        assert_eq!(r1.dram.reads, r2.dram.reads);
        assert_eq!(r1.results[0], r2.results[0]);
    }

    #[test]
    fn randomized_program_round_trips_through_trace() {
        use gsdram_core::rng::SplitMix;
        use gsdram_core::stats::ReportStats;

        // A randomized op stream covering every trace line kind,
        // recorded and replayed on identically configured machines:
        // the two runs must agree on the whole report, not just a few
        // headline counters.
        let region = 1u64 << 16;
        let mut rng = SplitMix(0x5eed_cafe);
        let mut ops = Vec::new();
        for _ in 0..400 {
            let addr_off = rng.below(region / 8) * 8;
            let pc = rng.range(1, 64);
            match rng.below(4) {
                0 => ops.push((0u8, addr_off, pc, 0u64)),
                1 => ops.push((1, addr_off & !15, pc, 0)),
                2 => ops.push((2, addr_off, pc, rng.next_u64())),
                _ => ops.push((3, 0, rng.range(1, 20), 0)),
            }
        }
        let build = |base: u64| -> Vec<Op> {
            ops.iter()
                .map(|&(kind, off, pc, value)| match kind {
                    0 => Op::Load {
                        pc,
                        addr: base + off,
                        pattern: PatternId(0),
                    },
                    1 => Op::Load16 {
                        pc,
                        addr: base + off,
                        pattern: PatternId(0),
                    },
                    2 => Op::Store {
                        pc,
                        addr: base + off,
                        pattern: PatternId(0),
                        value,
                    },
                    _ => Op::Compute(pc as u32),
                })
                .collect()
        };

        let mut m = Machine::new(SystemConfig::table1(1, 1 << 20));
        let base = m.malloc(region);
        let mut trace = Vec::new();
        let mut rec = TraceRecorder::new(ScriptedProgram::new(build(base)), &mut trace);
        let r1 = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut rec];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(rec.ops_written(), 400);

        let mut m = Machine::new(SystemConfig::table1(1, 1 << 20));
        let base2 = m.malloc(region);
        assert_eq!(base, base2, "deterministic allocator");
        let mut rep = TraceReplayer::new(BufReader::new(&trace[..]));
        let r2 = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut rep];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(rep.ops_replayed(), 400);
        assert_eq!(
            r1.stats_node("run").to_json(),
            r2.stats_node("run").to_json(),
            "replayed run must reproduce the full report"
        );
    }
}
