//! Shared workload plumbing: block-generated op streams as programs.

use gsdram_system::ops::{Op, Program};

/// Pushes block `b`'s ops onto an empty buffer.
type BlockFn = Box<dyn FnMut(u64, &mut Vec<Op>)>;

/// A [`Program`] whose op stream is generated one block at a time,
/// folding loaded values into a checksum and counting completed work
/// units.
///
/// A generator is a block count plus one block function
/// `FnMut(block_index, out)`, called once per block in index order
/// with an empty `out` to fill. [`next_op`](Program::next_op) serves
/// the block's ops from that one reusable buffer, so producing an op
/// costs a buffer read, and the loop nest above the block body costs
/// one call per block — a mixed-radix decode of the flat block index
/// (see [`loop_indices`]) — with no allocation once the buffer has
/// grown to the largest block.
///
/// Programs built with [`with_block_units`](IterProgram::with_block_units)
/// count each block as one unit of [`progress`](Program::progress)
/// (one transaction, one lookup, one access), credited when the
/// block's last op is emitted; an empty block counts nothing.
/// Programs built with [`new`](IterProgram::new) report no progress.
///
/// ```
/// use gsdram_system::ops::{Op, Program};
/// use gsdram_workloads::common::IterProgram;
///
/// // Three blocks of `b + 1` compute ops each, one unit per block.
/// let mut p = IterProgram::with_block_units(3, |b, out| {
///     out.extend((0..=b).map(|_| Op::Compute(1)));
/// });
/// let mut ops = 0;
/// while p.next_op().is_some() {
///     ops += 1;
/// }
/// assert_eq!((ops, p.progress()), (6, 3));
/// ```
pub struct IterProgram {
    block: BlockFn,
    blocks: u64,
    next_block: u64,
    buf: Vec<Op>,
    pos: usize,
    block_units: bool,
    sum: u64,
    values_seen: u64,
    units: u64,
}

impl std::fmt::Debug for IterProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterProgram")
            .field("blocks", &self.blocks)
            .field("next_block", &self.next_block)
            .field("sum", &self.sum)
            .field("values_seen", &self.values_seen)
            .field("units", &self.units)
            .finish_non_exhaustive()
    }
}

impl IterProgram {
    /// A program of `blocks` blocks, block `b` being whatever
    /// `block(b, out)` pushes onto `out`. Reports no progress.
    pub fn new(blocks: u64, block: impl FnMut(u64, &mut Vec<Op>) + 'static) -> Self {
        IterProgram {
            block: Box::new(block),
            blocks,
            next_block: 0,
            buf: Vec::new(),
            pos: 0,
            block_units: false,
            sum: 0,
            values_seen: 0,
            units: 0,
        }
    }

    /// As [`new`](IterProgram::new), counting each block as one unit of
    /// progress once its last op has been emitted.
    pub fn with_block_units(blocks: u64, block: impl FnMut(u64, &mut Vec<Op>) + 'static) -> Self {
        IterProgram {
            block_units: true,
            ..IterProgram::new(blocks, block)
        }
    }

    /// Number of load values observed.
    pub fn values_seen(&self) -> u64 {
        self.values_seen
    }
}

impl Program for IterProgram {
    fn next_op(&mut self) -> Option<Op> {
        while self.pos == self.buf.len() {
            if self.next_block == self.blocks {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            (self.block)(self.next_block, &mut self.buf);
            self.next_block += 1;
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        if self.block_units && self.pos == self.buf.len() {
            self.units += 1;
        }
        Some(op)
    }

    fn on_load_value(&mut self, value: u64) {
        self.sum = self.sum.wrapping_add(value);
        self.values_seen += 1;
    }

    fn progress(&self) -> u64 {
        self.units
    }

    fn result(&self) -> u64 {
        self.sum
    }
}

/// The loop indices of flat block index `b` in a nest whose loops run
/// `trips` times each, outermost first: the mixed-radix digits of `b`.
///
/// ```
/// use gsdram_workloads::common::loop_indices;
///
/// // for i in 0..2 { for j in 0..3 { for k in 0..4 { .. } } }
/// assert_eq!(loop_indices(0, [2, 3, 4]), [0, 0, 0]);
/// assert_eq!(loop_indices(1 * 12 + 2 * 4 + 3, [2, 3, 4]), [1, 2, 3]);
/// ```
pub fn loop_indices<const N: usize>(mut b: u64, trips: [u64; N]) -> [u64; N] {
    let mut out = [0; N];
    for (digit, trip) in out.iter_mut().zip(trips).rev() {
        *digit = b % trip;
        b /= trip;
    }
    out
}

/// Elements per block of a plain one-field scan (Column Store
/// analytics, the node-major graph scan): the GS-DRAM scans' gathered
/// group of 8, so every scan streams in 16-op blocks.
pub(crate) const SCAN_CHUNK: u64 = 8;

/// The deterministic generator workloads use, re-exported from
/// [`gsdram_core::rng`] so every crate shares one implementation.
pub use gsdram_core::rng::SplitMix;

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_core::PatternId;

    #[test]
    fn iter_program_streams_and_sums() {
        let ops = [
            Op::Compute(1),
            Op::Load {
                pc: 0,
                addr: 0,
                pattern: PatternId(0),
            },
        ];
        let mut p = IterProgram::new(1, move |_, out| out.extend(ops));
        assert_eq!(p.next_op(), Some(ops[0]));
        assert_eq!(p.next_op(), Some(ops[1]));
        assert_eq!(p.next_op(), None);
        p.on_load_value(5);
        p.on_load_value(7);
        assert_eq!(p.result(), 12);
        assert_eq!(p.values_seen(), 2);
        assert_eq!(p.progress(), 0);
    }

    #[test]
    fn block_units_count_progress() {
        // Blocks 0 and 2 are empty; block b otherwise holds b ops.
        let mut p = IterProgram::with_block_units(5, |b, out| {
            if b % 2 == 1 {
                out.extend((0..b).map(|_| Op::Compute(1)));
            }
        });
        let mut trace = Vec::new();
        while p.next_op().is_some() {
            trace.push(p.progress());
        }
        assert_eq!(trace, [1, 1, 1, 2]);
    }

    #[test]
    fn blocks_are_generated_in_order_and_once() {
        let mut p = IterProgram::new(4, |b, out| out.push(Op::Compute(b as u32)));
        let mut got = Vec::new();
        while let Some(op) = p.next_op() {
            got.push(op);
        }
        assert_eq!(got, (0..4).map(Op::Compute).collect::<Vec<_>>());
        assert_eq!(p.next_op(), None);
    }

    #[test]
    fn loop_indices_decode_nests() {
        let trips = [3, 1, 4, 2];
        let mut b = 0;
        for i in 0..3 {
            for j in 0..1 {
                for k in 0..4 {
                    for l in 0..2 {
                        assert_eq!(loop_indices(b, trips), [i, j, k, l]);
                        b += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix(1);
        for _ in 0..100 {
            assert!(c.below(10) < 10);
        }
    }
}
