//! Hardware-cost accounting (paper §4.4).
//!
//! The paper argues GS-DRAM is cheap: per-chip column translation is a
//! few gates, the pattern ID rides on spare address pins, and the
//! processor-side additions are a few tag bits. This module reproduces
//! that arithmetic for any `GS-DRAM(c,s,p)` so the claims are checkable
//! and parameter sweeps can report cost alongside benefit.

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "float leaf: report values derived from finished integer counters; never feeds simulated timing"
)]

use crate::GsDramConfig;

/// DRAM-side costs: the per-module column translation logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramSideCost {
    /// Bitwise gates across all CTLs (AND + XOR + MUX, `p` bits each,
    /// one CTL per chip — Figure 5).
    pub logic_gates: usize,
    /// Chip-ID register bits across the module.
    pub register_bits: usize,
    /// Extra pins needed on the channel to carry the pattern ID, after
    /// reusing the spare column-command address pins (§3.6/§4.4: DDR4
    /// has two spare address pins on column commands).
    pub extra_pins: usize,
}

/// Processor-side costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSideCost {
    /// Pattern-ID bits added to each cache tag entry.
    pub tag_bits_per_line: usize,
    /// Cache-area overhead of the extended tags, as a fraction (the
    /// paper: "less than 0.6% of the cache size" for 3-bit IDs).
    pub cache_area_overhead: f64,
    /// Bits added to each page-table/TLB entry (shuffle flag + alternate
    /// pattern ID — §4.1/§4.4).
    pub pte_bits: usize,
    /// Cache lines to check/invalidate per read-exclusive request
    /// (§4.4: `chips` lines).
    pub invalidations_per_store: usize,
    /// Shuffle/unshuffle latency in cycles (one per stage — §3.6).
    pub shuffle_latency: usize,
}

/// Computes the DRAM-side cost of a configuration.
///
/// Gate counting per CTL (Figure 5): a `p`-bit AND, a `p`-bit XOR and a
/// `p`-bit 2:1 mux = `3p` gate-equivalents; `c` CTLs per module.
///
/// ```
/// use gsdram_core::{cost::dram_side_cost, GsDramConfig};
/// // §4.4: "roughly 72 logic gates and 24 bits of register storage".
/// let d = dram_side_cost(&GsDramConfig::gs_dram_8_3_3(), 2);
/// assert_eq!((d.logic_gates, d.register_bits, d.extra_pins), (72, 24, 1));
/// ```
pub fn dram_side_cost(cfg: &GsDramConfig, spare_addr_pins: usize) -> DramSideCost {
    let p = cfg.pattern_bits() as usize;
    let c = cfg.chips();
    DramSideCost {
        logic_gates: 3 * p * c,
        register_bits: p * c,
        extra_pins: p.saturating_sub(spare_addr_pins),
    }
}

/// Computes the processor-side cost for a cache with `line_bytes` lines
/// and `tag_bits` baseline tag width.
pub fn cpu_side_cost(cfg: &GsDramConfig, line_bytes: usize, tag_bits: usize) -> CpuSideCost {
    let p = cfg.pattern_bits() as usize;
    // Overhead = added tag bits over (data + tag) bits per line.
    let per_line_bits = line_bytes * 8 + tag_bits;
    CpuSideCost {
        tag_bits_per_line: p,
        cache_area_overhead: p as f64 / per_line_bits as f64,
        pte_bits: 1 + p,
        invalidations_per_store: cfg.chips(),
        shuffle_latency: cfg.shuffle_stages() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_for_gs_dram_8_3_3() {
        let cfg = GsDramConfig::gs_dram_8_3_3();
        // §4.4: "the overall cost is roughly 72 logic gates and 24 bits
        // of register storage".
        let d = dram_side_cost(&cfg, 2);
        assert_eq!(d.logic_gates, 72);
        assert_eq!(d.register_bits, 24);
        // "a 3-bit pattern ID requires only one additional pin" given
        // DDR4's two spare column-command address pins.
        assert_eq!(d.extra_pins, 1);
    }

    #[test]
    fn cache_overhead_below_paper_bound() {
        // §4.4: "the cost of this addition is less than 0.6% of the
        // cache size" — 3 pattern bits on a 64-byte line with a ~40-bit
        // tag.
        let cfg = GsDramConfig::gs_dram_8_3_3();
        let c = cpu_side_cost(&cfg, 64, 40);
        assert_eq!(c.tag_bits_per_line, 3);
        assert!(c.cache_area_overhead < 0.006, "{}", c.cache_area_overhead);
        assert_eq!(c.pte_bits, 4);
        assert_eq!(c.invalidations_per_store, 8);
        assert_eq!(c.shuffle_latency, 3);
    }

    #[test]
    fn explanatory_config_is_even_cheaper() {
        let cfg = GsDramConfig::gs_dram_4_2_2();
        let d = dram_side_cost(&cfg, 2);
        assert_eq!(d.logic_gates, 3 * 2 * 4);
        assert_eq!(d.register_bits, 8);
        assert_eq!(d.extra_pins, 0, "2-bit IDs fit the spare pins");
    }

    #[test]
    fn wide_patterns_cost_more_pins() {
        let cfg = GsDramConfig::new(8, 3, 6).unwrap();
        let d = dram_side_cost(&cfg, 2);
        assert_eq!(d.extra_pins, 4);
        assert_eq!(d.register_bits, 48);
    }
}
