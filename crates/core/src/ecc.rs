//! ECC DIMM support for GS-DRAM (paper §6.3).
//!
//! An ECC DIMM adds a ninth chip carrying 8 check bits per 64-bit word
//! (Hamming SEC-DED). For pattern-0 accesses the ECC chip simply reads
//! the same column as the data chips. For a non-zero pattern, the eight
//! data words come from eight *different* columns — so their check
//! bytes live in eight different ECC-chip columns. §6.3's fix: give the
//! ECC chip intra-chip (per-tile) column translation and lay its check
//! bytes out with the same column-ID shuffle as the data, so tile `t`
//! runs the identical `(t & pattern) ⊕ column` math as data chip `t`
//! and every pattern remains ECC-protected in a single access.
//!
//! [`EccModule`] implements that end to end — including real SEC-DED
//! encode/decode, so injected single-bit faults are corrected and
//! double-bit faults detected under every access pattern.

use crate::error::AccessError;
use crate::{gather_slots, ColumnId, Geometry, GsDramConfig, GsModule, PatternId, RowId};

/// Outcome of decoding one 72-bit SEC-DED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Codeword clean.
    Clean(u64),
    /// One bit flipped; corrected transparently.
    Corrected(u64),
    /// Two bit errors detected (uncorrectable).
    DoubleError,
}

/// Number of check bits per 64-bit word (Hamming(72,64) SEC-DED).
pub const CHECK_BITS: u32 = 8;

/// Position of data bit `i` (0-based) within the 72-bit codeword,
/// skipping the power-of-two check-bit positions (1-based positions).
fn data_position(i: u32) -> u32 {
    // Codeword positions are 1..=72; positions 1,2,4,8,16,32,64 hold
    // check bits; everything else holds data bits in order.
    let mut pos: u32 = 1;
    let mut seen = 0;
    loop {
        if !pos.is_power_of_two() {
            if seen == i {
                return pos;
            }
            seen += 1;
        }
        pos += 1;
    }
}

/// Encodes `data` into its 8 check bits (7 Hamming + 1 overall parity).
pub fn encode(data: u64) -> u8 {
    let mut check: u8 = 0;
    // Hamming bits c0..c6 cover positions with the matching bit set.
    for c in 0..7u32 {
        let mask_bit = 1u32 << c;
        let mut parity = 0u64;
        for i in 0..64u32 {
            if data_position(i) & mask_bit != 0 {
                parity ^= (data >> i) & 1;
            }
        }
        check |= (parity as u8) << c;
    }
    // Overall parity over data + the 7 Hamming bits (for double-error
    // detection).
    let total = (data.count_ones() + (check & 0x7f).count_ones()) & 1;
    check |= (total as u8) << 7_u32;
    check
}

/// Decodes a (data, check) pair, correcting single-bit data or check
/// errors and flagging double errors.
pub fn decode(data: u64, check: u8) -> Decode {
    // Hamming syndrome: recomputed check bits vs the stored ones.
    let syndrome = (encode(data) ^ check) & 0x7f;
    // Whole-codeword parity: a clean codeword is even by construction
    // (the stored parity bit completes it); odd means exactly one bit
    // of the 72 flipped.
    let odd = (data.count_ones() + check.count_ones()) & 1 == 1;
    match (syndrome, odd) {
        (0, false) => Decode::Clean(data),
        (0, true) => Decode::Corrected(data), // the parity bit itself flipped
        (_, false) => Decode::DoubleError,    // two flips cancel the parity
        (pos, true) => {
            let pos = pos as u32;
            if pos.is_power_of_two() {
                // A stored Hamming check bit was hit; data is intact.
                return Decode::Corrected(data);
            }
            for i in 0..64u32 {
                if data_position(i) == pos {
                    return Decode::Corrected(data ^ (1u64 << i));
                }
            }
            // Syndrome points past the codeword: miscorrection risk —
            // treat as uncorrectable.
            Decode::DoubleError
        }
    }
}

/// A GS-DRAM module with a ninth, intra-chip-translating ECC chip
/// (§6.3): every gather/scatter pattern carries SEC-DED protection.
///
/// ```
/// use gsdram_core::{ecc::EccModule, ColumnId, Geometry, GsDramConfig, PatternId, RowId};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = GsDramConfig::gs_dram_8_3_3();
/// let mut m = EccModule::new(cfg.clone(), Geometry::ddr3_row(&cfg, 1)?);
/// m.write_line(RowId(0), ColumnId(0), PatternId(0), true, &[1, 2, 3, 4, 5, 6, 7, 8])?;
/// // Flip a bit under the gathered view; the read corrects it.
/// m.inject_data_error(RowId(0), ColumnId(0), PatternId(7), true, 0, 1 << 5);
/// let line = m.read_line(RowId(0), ColumnId(0), PatternId(7), true)?;
/// assert!(line.is_usable());
/// assert_eq!(line.data[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EccModule {
    data: GsModule,
    /// Check bytes, stored in a shadow module with identical shuffle +
    /// CTL math: "chip" `t` of this module is tile `t` of the ECC chip.
    ecc: GsModule,
}

/// Result of a protected gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedLine {
    /// The (corrected) line in assembly order.
    pub data: Vec<u64>,
    /// Per-word decode outcome.
    pub outcomes: Vec<Decode>,
}

impl ProtectedLine {
    /// Whether every word decoded cleanly or was corrected.
    pub fn is_usable(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| !matches!(o, Decode::DoubleError))
    }
}

impl EccModule {
    /// A zeroed ECC module.
    pub fn new(cfg: GsDramConfig, geom: Geometry) -> Self {
        EccModule {
            data: GsModule::new(cfg.clone(), geom),
            ecc: GsModule::new(cfg, geom),
        }
    }

    /// The module's configuration.
    pub fn config(&self) -> &GsDramConfig {
        self.data.config()
    }

    /// Writes a line with any pattern, updating check bytes alongside.
    ///
    /// # Errors
    ///
    /// As [`GsModule::write_line`].
    pub fn write_line(
        &mut self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
        line: &[u64],
    ) -> Result<(), AccessError> {
        self.data.write_line(row, col, pattern, shuffled, line)?;
        let checks: Vec<u64> = line.iter().map(|w| encode(*w) as u64).collect();
        self.ecc.write_line(row, col, pattern, shuffled, &checks)
    }

    /// Reads a line with any pattern, decoding each word against its
    /// gathered check byte.
    ///
    /// # Errors
    ///
    /// As [`GsModule::read_line`].
    pub fn read_line(
        &self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
    ) -> Result<ProtectedLine, AccessError> {
        let data = self.data.read_line(row, col, pattern, shuffled)?;
        let checks = self.ecc.read_line(row, col, pattern, shuffled)?;
        let outcomes: Vec<Decode> = data
            .iter()
            .zip(&checks)
            .map(|(w, c)| decode(*w, *c as u8))
            .collect();
        let corrected = outcomes
            .iter()
            .zip(&data)
            .map(|(o, w)| match o {
                Decode::Clean(v) | Decode::Corrected(v) => *v,
                Decode::DoubleError => *w,
            })
            .collect();
        Ok(ProtectedLine {
            data: corrected,
            outcomes,
        })
    }

    /// Flips `bits` of the stored word backing the `word`-th slot of the
    /// `(pattern, col)` gather — fault injection for tests and the
    /// reliability harness.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn inject_data_error(
        &mut self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
        word: usize,
        bits: u64,
    ) {
        let slots = gather_slots(self.data.config(), pattern, col, shuffled);
        let s = slots[word];
        let element = s.chip_col as usize * self.data.config().chips()
            + if shuffled {
                (s.chip
                    ^ self
                        .data
                        .config()
                        .shuffle_fn()
                        .control(ColumnId(s.chip_col), self.data.config().shuffle_stages()))
                    as usize
            } else {
                s.chip as usize
            };
        #[expect(
            clippy::expect_used,
            reason = "element < chips * cols by the modulo arithmetic above"
        )]
        let v = self
            .data
            .read_element(row, element, shuffled)
            .expect("in range");
        #[expect(
            clippy::expect_used,
            reason = "same element just read successfully on this row"
        )]
        self.data
            .write_element(row, element, shuffled, v ^ bits)
            .expect("in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_clean() {
        for data in [0u64, u64::MAX, 0xdead_beef_cafe_f00d, 1, 1 << 63] {
            assert_eq!(decode(data, encode(data)), Decode::Clean(data));
        }
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        let data = 0x0123_4567_89ab_cdef_u64;
        let check = encode(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            assert_eq!(
                decode(corrupted, check),
                Decode::Corrected(data),
                "bit {bit}"
            );
        }
        // Check-bit flips are also tolerated.
        for bit in 0..8 {
            let d = decode(data, check ^ (1 << bit));
            assert_eq!(d, Decode::Corrected(data), "check bit {bit}");
        }
    }

    #[test]
    fn detects_double_bit_flips() {
        let data = 0x1122_3344_5566_7788_u64;
        let check = encode(data);
        let mut detected = 0;
        let mut total = 0;
        for b1 in 0..64 {
            for b2 in (b1 + 1)..64.min(b1 + 9) {
                let corrupted = data ^ (1u64 << b1) ^ (1u64 << b2);
                total += 1;
                if decode(corrupted, check) == Decode::DoubleError {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, total, "SEC-DED must flag all double errors");
    }

    fn module() -> EccModule {
        let cfg = GsDramConfig::gs_dram_8_3_3();
        let geom = Geometry::new(&cfg, 1, 16).unwrap();
        let mut m = EccModule::new(cfg, geom);
        for col in 0..16u32 {
            let line: Vec<u64> = (0..8).map(|w| col as u64 * 100 + w).collect();
            m.write_line(RowId(0), ColumnId(col), PatternId(0), true, &line)
                .unwrap();
        }
        m
    }

    #[test]
    fn clean_gathers_are_protected_under_every_pattern() {
        let m = module();
        for p in 0..8u8 {
            for c in 0..16u32 {
                let line = m
                    .read_line(RowId(0), ColumnId(c), PatternId(p), true)
                    .unwrap();
                assert!(line.is_usable(), "pattern {p} col {c}");
                assert!(line.outcomes.iter().all(|o| matches!(o, Decode::Clean(_))));
            }
        }
    }

    #[test]
    fn single_fault_corrected_in_a_gather() {
        let mut m = module();
        // Flip one bit under word 3 of the (pattern 7, col 0) gather.
        m.inject_data_error(RowId(0), ColumnId(0), PatternId(7), true, 3, 1 << 17);
        let line = m
            .read_line(RowId(0), ColumnId(0), PatternId(7), true)
            .unwrap();
        assert!(line.is_usable());
        assert!(matches!(line.outcomes[3], Decode::Corrected(_)));
        // The corrected value equals the pattern-0 ground truth.
        let want: Vec<u64> = (0..8).map(|t| t * 100).collect();
        assert_eq!(line.data, want);
    }

    #[test]
    fn double_fault_detected_in_a_gather() {
        let mut m = module();
        m.inject_data_error(RowId(0), ColumnId(2), PatternId(3), true, 5, 0b11);
        let line = m
            .read_line(RowId(0), ColumnId(2), PatternId(3), true)
            .unwrap();
        assert!(!line.is_usable());
        assert_eq!(line.outcomes[5], Decode::DoubleError);
        // The other seven words are untouched.
        assert!(
            line.outcomes
                .iter()
                .filter(|o| matches!(o, Decode::Clean(_)))
                .count()
                == 7
        );
    }

    #[test]
    fn pattern_scatter_updates_check_bytes() {
        let mut m = module();
        m.write_line(
            RowId(0),
            ColumnId(0),
            PatternId(7),
            true,
            &[9, 8, 7, 6, 5, 4, 3, 2],
        )
        .unwrap();
        // Both the scattered view and the tuple view verify cleanly.
        let gathered = m
            .read_line(RowId(0), ColumnId(0), PatternId(7), true)
            .unwrap();
        assert_eq!(gathered.data, vec![9, 8, 7, 6, 5, 4, 3, 2]);
        assert!(gathered.is_usable());
        for c in 0..8u32 {
            let tuple = m
                .read_line(RowId(0), ColumnId(c), PatternId(0), true)
                .unwrap();
            assert!(tuple.is_usable(), "tuple {c}");
        }
    }
}
