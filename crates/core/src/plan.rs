//! Access planning: choosing the cheapest sequence of `(pattern,
//! column)` commands for an arbitrary strided access.
//!
//! GS-DRAM natively gathers power-of-two strides (§3.5). The paper
//! notes that non-power-of-two strides "pose some additional challenges
//! (e.g., alignment)" but that "a similar approach can be used to
//! support non-power-of-2 strides as well" (§3.1) — concretely, the
//! memory controller (or a software library above `pattload`) can cover
//! an odd-stride access with a mix of patterns, each command returning
//! some useful and some dead words.
//!
//! [`plan_stride`] implements that as a greedy set-cover over one row's
//! elements: at each uncovered target element it picks the pattern
//! whose gathered line covers the most remaining targets. For
//! power-of-two strides within the pattern reach it degenerates to the
//! native single-pattern plan (100 % useful words); for other strides
//! it provably never does worse than the pattern-0 (cache-line)
//! baseline.

use crate::{gathered_elements, ColumnId, GsDramConfig, PatternId};

/// One planned column command and the useful words it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Pattern ID to issue.
    pub pattern: PatternId,
    /// Column ID to issue.
    pub col: ColumnId,
    /// Indices *within the gathered line* (0..chips) holding wanted
    /// elements, paired with the element they deliver.
    pub useful: Vec<(usize, usize)>,
}

/// Summary of a plan's efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Column commands issued.
    pub commands: usize,
    /// Wanted elements delivered.
    pub useful_words: usize,
    /// Total words transferred (`commands × chips`).
    pub total_words: usize,
}

impl PlanStats {
    /// Fraction of transferred words that were wanted.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "report-only ratio; never feeds simulated timing"
    )]
    pub fn efficiency(&self) -> f64 {
        if self.total_words == 0 {
            0.0
        } else {
            self.useful_words as f64 / self.total_words as f64
        }
    }
}

/// Plans the commands to gather row elements `start, start + stride,
/// …` (`count` of them) from a single DRAM row.
///
/// ```
/// use gsdram_core::{plan::{plan_stride, plan_stats}, GsDramConfig};
/// let cfg = GsDramConfig::gs_dram_8_3_3();
/// // A native power-of-two stride plans to one command per 8 elements.
/// let p = plan_stride(&cfg, 128, 0, 8, 32);
/// assert_eq!(plan_stats(&cfg, &p).commands, 4);
/// // An odd stride still covers everything, mixing patterns.
/// let p = plan_stride(&cfg, 128, 0, 3, 32);
/// let covered: usize = p.iter().map(|a| a.useful.len()).sum();
/// assert_eq!(covered, 32);
/// ```
///
/// # Panics
///
/// Panics if any target element falls outside the row
/// (`cols_per_row × chips` elements).
pub fn plan_stride(
    cfg: &GsDramConfig,
    cols_per_row: usize,
    start: usize,
    stride: usize,
    count: usize,
) -> Vec<PlannedAccess> {
    let row_elements = cols_per_row * cfg.chips();
    let targets: Vec<usize> = (0..count).map(|i| start + i * stride).collect();
    assert!(
        targets.iter().all(|&e| e < row_elements),
        "targets must stay within one row"
    );
    let mut wanted = vec![false; row_elements];
    for &t in &targets {
        wanted[t] = true;
    }
    let mut remaining = targets.len();
    let mut plan = Vec::new();
    let mut cursor = 0usize;
    while remaining > 0 {
        // Next uncovered target.
        while !wanted[cursor] {
            cursor += 1;
        }
        // Pick the pattern covering the most remaining targets through
        // the line containing `cursor`.
        let mut best: Option<(usize, PlannedAccess)> = None;
        for pattern in cfg.patterns() {
            let col = crate::column_containing(cfg, pattern, cursor, true);
            let elements = gathered_elements(cfg, pattern, col, true);
            let useful: Vec<(usize, usize)> = elements
                .iter()
                .enumerate()
                .filter(|(_, e)| wanted[**e])
                .map(|(w, e)| (w, *e))
                .collect();
            let score = useful.len();
            let candidate = PlannedAccess {
                pattern,
                col,
                useful,
            };
            match &best {
                Some((s, _)) if *s >= score => {}
                _ => best = Some((score, candidate)),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "pattern 0 (unit stride) always produces a candidate line"
        )]
        let (_, access) = best.expect("at least pattern 0 exists");
        debug_assert!(
            !access.useful.is_empty(),
            "chosen line must cover the cursor"
        );
        for &(_, e) in &access.useful {
            wanted[e] = false;
            remaining -= 1;
        }
        plan.push(access);
    }
    plan
}

/// Statistics for a plan under the given configuration.
pub fn plan_stats(cfg: &GsDramConfig, plan: &[PlannedAccess]) -> PlanStats {
    PlanStats {
        commands: plan.len(),
        useful_words: plan.iter().map(|p| p.useful.len()).sum(),
        total_words: plan.len() * cfg.chips(),
    }
}

/// The pattern-0 baseline: commands needed to touch the same elements
/// with ordinary cache-line reads.
pub fn baseline_commands(cfg: &GsDramConfig, start: usize, stride: usize, count: usize) -> usize {
    let chips = cfg.chips();
    let mut lines: Vec<usize> = (0..count).map(|i| (start + i * stride) / chips).collect();
    lines.dedup();
    lines.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GsDramConfig {
        GsDramConfig::gs_dram_8_3_3()
    }

    fn covered(plan: &[PlannedAccess]) -> Vec<usize> {
        let mut e: Vec<usize> = plan
            .iter()
            .flat_map(|p| p.useful.iter().map(|u| u.1))
            .collect();
        e.sort_unstable();
        e
    }

    #[test]
    fn pow2_strides_use_one_command_per_line() {
        let cfg = cfg();
        for stride in [1usize, 2, 4, 8] {
            let plan = plan_stride(&cfg, 128, 0, stride, 64);
            let stats = plan_stats(&cfg, &plan);
            assert_eq!(stats.commands, 64 / 8, "stride {stride}");
            assert!((stats.efficiency() - 1.0).abs() < 1e-12, "stride {stride}");
            assert_eq!(
                covered(&plan),
                (0..64).map(|i| i * stride).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn plan_covers_exactly_the_targets() {
        let cfg = cfg();
        for (start, stride, count) in [(0, 3, 40), (5, 7, 30), (2, 12, 20), (1, 5, 50)] {
            let plan = plan_stride(&cfg, 128, start, stride, count);
            let want: Vec<usize> = (0..count).map(|i| start + i * stride).collect();
            assert_eq!(covered(&plan), want, "({start},{stride},{count})");
        }
    }

    #[test]
    fn odd_strides_beat_the_cache_line_baseline() {
        let cfg = cfg();
        for stride in [3usize, 5, 6, 7, 12] {
            let count = 64;
            let plan = plan_stride(&cfg, 128, 0, stride, count);
            let stats = plan_stats(&cfg, &plan);
            let base = baseline_commands(&cfg, 0, stride, count);
            assert!(
                stats.commands <= base,
                "stride {stride}: {} planned vs {} baseline",
                stats.commands,
                base
            );
        }
    }

    #[test]
    fn stride_3_mixes_patterns_profitably() {
        let cfg = cfg();
        let plan = plan_stride(&cfg, 128, 0, 3, 64);
        let stats = plan_stats(&cfg, &plan);
        let base = baseline_commands(&cfg, 0, 3, 64);
        assert!(stats.commands < base, "{} !< {base}", stats.commands);
        // Multiple distinct patterns appear in the plan.
        let mut pats: Vec<u8> = plan.iter().map(|p| p.pattern.0).collect();
        pats.sort_unstable();
        pats.dedup();
        assert!(pats.len() > 1, "plan uses {pats:?}");
    }

    #[test]
    fn misaligned_pow2_strides_still_plan_fully() {
        let cfg = cfg();
        // Start offset 3 with stride 8: the §3.1 alignment challenge.
        let plan = plan_stride(&cfg, 128, 3, 8, 32);
        let want: Vec<usize> = (0..32).map(|i| 3 + i * 8).collect();
        assert_eq!(covered(&plan), want);
        let stats = plan_stats(&cfg, &plan);
        assert_eq!(stats.commands, 4, "aligned-in-field stride 8 gathers fully");
        assert!((stats.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_stride_uses_default_lines() {
        let cfg = cfg();
        // Stride 128: one element per 16 lines — nothing gathers better
        // than pattern 0 (for a 3-bit pattern ID) but the plan must
        // still terminate and cover.
        let plan = plan_stride(&cfg, 128, 0, 128, 8);
        assert_eq!(covered(&plan), (0..8).map(|i| i * 128).collect::<Vec<_>>());
        assert_eq!(plan.len(), 8);
    }

    #[test]
    #[should_panic(expected = "within one row")]
    fn out_of_row_targets_rejected() {
        let cfg = cfg();
        plan_stride(&cfg, 128, 0, 64, 100);
    }

    #[test]
    fn stats_arithmetic() {
        let s = PlanStats {
            commands: 4,
            useful_words: 16,
            total_words: 32,
        };
        assert!((s.efficiency() - 0.5).abs() < 1e-12);
        let z = PlanStats {
            commands: 0,
            useful_words: 0,
            total_words: 0,
        };
        assert_eq!(z.efficiency(), 0.0);
    }
}
