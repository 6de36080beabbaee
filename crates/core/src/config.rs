//! GS-DRAM module parameters: the `GS-DRAM(c,s,p)` notation of paper §3.5.

use crate::error::ConfigError;
use crate::shuffle::ShuffleFn;

/// Parameters of a GS-DRAM module: `GS-DRAM(c,s,p)` plus the programmable
/// shuffling function `f` of §6.1 (`GS-DRAM(c,s,p,f)`).
///
/// * `chips` — DRAM chips per rank; each contributes one 8-byte word per
///   column access, so the cache line is `8 × chips` bytes.
/// * `shuffle_stages` — stages of the column-ID-based data-shuffling
///   network in the memory controller (§3.2).
/// * `pattern_bits` — width of the pattern ID broadcast with each column
///   command (§3.3).
///
/// The paper's running example is GS-DRAM(4,2,2); its evaluation uses
/// GS-DRAM(8,3,3) (§3.6).
///
/// ```
/// use gsdram_core::GsDramConfig;
/// let cfg = GsDramConfig::gs_dram_8_3_3();
/// assert_eq!(cfg.chips(), 8);
/// assert_eq!(cfg.line_bytes(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GsDramConfig {
    chips: usize,
    shuffle_stages: u8,
    pattern_bits: u8,
    shuffle_fn: ShuffleFn,
}

impl GsDramConfig {
    /// Builds and validates a `GS-DRAM(c,s,p)` configuration with the
    /// default (low-column-bits) shuffle function.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `chips` is not a power of two ≥ 2, if
    /// `shuffle_stages > log2(chips)`, or if `pattern_bits > 8`.
    pub fn new(chips: usize, shuffle_stages: u8, pattern_bits: u8) -> Result<Self, ConfigError> {
        Self::with_shuffle_fn(chips, shuffle_stages, pattern_bits, ShuffleFn::LowBits)
    }

    /// Like [`GsDramConfig::new`] but with an explicit programmable
    /// shuffling function (§6.1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GsDramConfig::new`].
    pub fn with_shuffle_fn(
        chips: usize,
        shuffle_stages: u8,
        pattern_bits: u8,
        shuffle_fn: ShuffleFn,
    ) -> Result<Self, ConfigError> {
        if chips < 2 {
            return Err(ConfigError::TooFewChips(chips));
        }
        if !chips.is_power_of_two() {
            return Err(ConfigError::ChipsNotPowerOfTwo(chips));
        }
        let log_chips = chips.trailing_zeros() as u8;
        if shuffle_stages > log_chips {
            return Err(ConfigError::TooManyShuffleStages {
                stages: shuffle_stages,
                chips,
            });
        }
        if pattern_bits > 8 {
            return Err(ConfigError::PatternBitsTooWide(pattern_bits));
        }
        Ok(GsDramConfig {
            chips,
            shuffle_stages,
            pattern_bits,
            shuffle_fn,
        })
    }

    /// The paper's explanatory configuration: 4 chips, 2 shuffle stages,
    /// 2-bit pattern IDs (32-byte cache lines).
    pub fn gs_dram_4_2_2() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constant parameters; validated by the config tests"
        )]
        Self::new(4, 2, 2).expect("4,2,2 is a valid configuration")
    }

    /// The paper's evaluated configuration: 8 chips, 3 shuffle stages,
    /// 3-bit pattern IDs (64-byte cache lines) — §3.6, Table 1.
    pub fn gs_dram_8_3_3() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constant parameters; validated by the config tests"
        )]
        Self::new(8, 3, 3).expect("8,3,3 is a valid configuration")
    }

    /// Number of chips in the rank.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// `log2(chips)`: the number of chip-ID bits.
    pub fn chip_bits(&self) -> u8 {
        self.chips.trailing_zeros() as u8
    }

    /// Number of shuffle stages `s`.
    pub fn shuffle_stages(&self) -> u8 {
        self.shuffle_stages
    }

    /// Width of the pattern ID in bits `p`.
    pub fn pattern_bits(&self) -> u8 {
        self.pattern_bits
    }

    /// The programmable shuffle function `f` (§6.1).
    pub fn shuffle_fn(&self) -> &ShuffleFn {
        &self.shuffle_fn
    }

    /// Cache-line size in bytes: 8 bytes per chip.
    pub fn line_bytes(&self) -> usize {
        self.chips * 8
    }

    /// Largest pattern ID representable: `2^p − 1`.
    pub fn max_pattern(&self) -> u8 {
        ((1u16 << self.pattern_bits) - 1) as u8
    }

    /// All pattern IDs expressible with this configuration, in order.
    pub fn patterns(&self) -> impl Iterator<Item = crate::PatternId> {
        (0..=self.max_pattern()).map(crate::PatternId)
    }
}

impl Default for GsDramConfig {
    /// Defaults to the evaluated GS-DRAM(8,3,3) configuration.
    fn default() -> Self {
        Self::gs_dram_8_3_3()
    }
}

/// Geometry of the portion of a module modelled functionally: how many
/// rows per bank-slice and how many cache-line columns per row.
///
/// A DDR3 x8 chip supplies 1 KB per activated row, so an 8-chip rank row
/// is 8 KB = 128 cache lines; [`Geometry::ddr3_row`] captures that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    rows: usize,
    cols_per_row: usize,
}

impl Geometry {
    /// Builds and validates a geometry for the given configuration.
    ///
    /// # Errors
    ///
    /// `cols_per_row` must be a power of two at least `2^pattern_bits`
    /// (column translation XORs the low pattern bits of the column
    /// address, which must not escape the row); `rows` must be nonzero.
    pub fn new(cfg: &GsDramConfig, rows: usize, cols_per_row: usize) -> Result<Self, ConfigError> {
        let min = 1usize << cfg.pattern_bits();
        if !cols_per_row.is_power_of_two() || cols_per_row < min {
            return Err(ConfigError::BadColumnsPerRow {
                cols: cols_per_row,
                min,
            });
        }
        if rows == 0 {
            return Err(ConfigError::ZeroRows);
        }
        Ok(Geometry { rows, cols_per_row })
    }

    /// Standard DDR3 geometry: 128 cache-line columns per row (8 KB rows
    /// for an 8-chip rank), with the requested number of rows.
    ///
    /// # Errors
    ///
    /// Propagates [`Geometry::new`] validation.
    pub fn ddr3_row(cfg: &GsDramConfig, rows: usize) -> Result<Self, ConfigError> {
        Self::new(cfg, rows, 128)
    }

    /// Number of rows modelled.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cache-line columns per row.
    pub fn cols_per_row(&self) -> usize {
        self.cols_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        let c = GsDramConfig::gs_dram_4_2_2();
        assert_eq!((c.chips(), c.shuffle_stages(), c.pattern_bits()), (4, 2, 2));
        assert_eq!(c.line_bytes(), 32);
        assert_eq!(c.max_pattern(), 3);
        let c = GsDramConfig::gs_dram_8_3_3();
        assert_eq!((c.chips(), c.shuffle_stages(), c.pattern_bits()), (8, 3, 3));
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.max_pattern(), 7);
        assert_eq!(c.chip_bits(), 3);
    }

    #[test]
    fn rejects_bad_chip_counts() {
        assert!(matches!(
            GsDramConfig::new(3, 1, 1),
            Err(ConfigError::ChipsNotPowerOfTwo(3))
        ));
        assert!(matches!(
            GsDramConfig::new(1, 0, 0),
            Err(ConfigError::TooFewChips(1))
        ));
        assert!(matches!(
            GsDramConfig::new(0, 0, 0),
            Err(ConfigError::TooFewChips(0))
        ));
    }

    #[test]
    fn rejects_too_many_stages() {
        assert!(matches!(
            GsDramConfig::new(4, 3, 2),
            Err(ConfigError::TooManyShuffleStages {
                stages: 3,
                chips: 4
            })
        ));
        assert!(GsDramConfig::new(4, 2, 2).is_ok());
    }

    #[test]
    fn rejects_wide_pattern_bits() {
        assert!(matches!(
            GsDramConfig::new(8, 3, 9),
            Err(ConfigError::PatternBitsTooWide(9))
        ));
        // Wider-than-chip-bits patterns are allowed (§6.2 wide pattern IDs).
        assert!(GsDramConfig::new(8, 3, 6).is_ok());
    }

    #[test]
    fn geometry_validation() {
        let cfg = GsDramConfig::gs_dram_8_3_3();
        assert!(Geometry::new(&cfg, 4, 128).is_ok());
        assert!(matches!(
            Geometry::new(&cfg, 4, 100),
            Err(ConfigError::BadColumnsPerRow { cols: 100, .. })
        ));
        assert!(matches!(
            Geometry::new(&cfg, 4, 4),
            Err(ConfigError::BadColumnsPerRow { cols: 4, min: 8 })
        ));
        assert!(matches!(
            Geometry::new(&cfg, 0, 128),
            Err(ConfigError::ZeroRows)
        ));
        let g = Geometry::ddr3_row(&cfg, 16).unwrap();
        assert_eq!(g.cols_per_row(), 128);
        assert_eq!(g.rows(), 16);
    }

    #[test]
    fn patterns_iterator_is_exhaustive() {
        let cfg = GsDramConfig::gs_dram_4_2_2();
        let pats: Vec<_> = cfg.patterns().map(|p| p.0).collect();
        assert_eq!(pats, vec![0, 1, 2, 3]);
    }
}
