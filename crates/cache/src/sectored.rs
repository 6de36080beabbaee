//! A sectored cache (Liptay, IBM S/360 M85; §4.1's rejected
//! alternative).
//!
//! Instead of tagging whole gathered lines with a pattern ID, a
//! sectored cache keeps line-granularity tags with per-8-byte-sector
//! valid/dirty bits, and stores each gathered word in its *home* line's
//! sector. The paper rejects this design for two reasons it makes
//! measurable here:
//!
//! 1. a gathered access scatters its `chips` words over `chips`
//!    different tag entries (poor tag utilisation, and "a mechanism
//!    that does not store the gathered values in the same cache line
//!    cannot extract the full benefits of SIMD optimizations");
//! 2. written sectors evict as *partial* lines, forcing
//!    read-modify-write at the cache–DRAM interface ("writebacks may
//!    require read-modify-writes").
//!
//! The `ablation_sectored` harness drives this structure and the
//! pattern-tagged [`SetAssocCache`](crate::cache::SetAssocCache) with
//! the same gathered-access streams and reports those costs.

use crate::cache::CacheConfig;
use gsdram_core::cast;

/// Statistics for a sectored cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectoredStats {
    /// Sector-granularity hits.
    pub hits: u64,
    /// Sector-granularity misses (absent line or invalid sector).
    pub misses: u64,
    /// Line (tag) evictions.
    pub evictions: u64,
    /// Evictions of lines with dirty sectors.
    pub writebacks: u64,
    /// Writebacks whose dirty mask did not cover the whole line —
    /// each needs a read-modify-write at the DRAM interface.
    pub partial_writebacks: u64,
}

impl SectoredStats {
    /// Miss ratio over all sector lookups.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::as_conversions,
        reason = "report-only ratio; never feeds simulated timing"
    )]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid_mask: u8,
    dirty_mask: u8,
    lru: u64,
    data: Vec<u64>,
}

/// An evicted sectored line: possibly partial (see
/// [`SectoredStats::partial_writebacks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedSectors {
    /// Line-aligned address.
    pub addr: u64,
    /// Bit `i` set = sector `i` holds valid data.
    pub valid_mask: u8,
    /// Bit `i` set = sector `i` is dirty.
    pub dirty_mask: u8,
    /// The line's words (only sectors in `valid_mask` are meaningful).
    pub data: Vec<u64>,
}

impl EvictedSectors {
    /// Whether writing this line back needs a read-modify-write (dirty
    /// but not fully valid).
    pub fn needs_rmw(&self, words_per_line: usize) -> bool {
        let full = if words_per_line >= 8 {
            0xff
        } else {
            (1u8 << words_per_line) - 1
        };
        self.dirty_mask != 0 && self.valid_mask != full
    }
}

/// An LRU set-associative sectored cache with 8-byte sectors.
///
/// ```
/// use gsdram_cache::{cache::CacheConfig, sectored::SectoredCache};
/// let mut c = SectoredCache::new(CacheConfig::l1_32k());
/// c.fill_sector(0x48, 7);
/// assert!(c.probe(0x48, false));      // that sector is resident
/// assert!(!c.probe(0x40, false));     // its line-mate is not
/// let (tags, utilisation) = c.tag_utilisation();
/// assert_eq!(tags, 1);
/// assert_eq!(utilisation, 0.125);     // 1 of 8 sectors valid
/// ```
#[derive(Debug, Clone)]
pub struct SectoredCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    lru_gen: u64,
    stats: SectoredStats,
}

impl SectoredCache {
    /// An empty sectored cache of the given shape.
    ///
    /// # Panics
    ///
    /// Panics unless lines have at most 8 sectors (one mask byte) and
    /// the set count is a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.words_per_line() <= 8, "one mask byte per line");
        let sets = cfg.sets();
        assert!(sets.is_power_of_two());
        SectoredCache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc); sets],
            lru_gen: 0,
            stats: SectoredStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> SectoredStats {
        self.stats
    }

    fn split(&self, addr: u64) -> (usize, u64, usize) {
        let line_bytes = cast::widen(self.cfg.line_bytes);
        let line = addr / line_bytes;
        let set = cast::to_usize(line % cast::widen(self.sets.len()));
        let sector = cast::to_usize((addr % line_bytes) / 8);
        (set, line, sector)
    }

    /// Looks up the sector holding `addr`; counts a hit or miss.
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        self.lru_gen += 1;
        let gen = self.lru_gen;
        let (set, tag, sector) = self.split(addr);
        for l in &mut self.sets[set] {
            if l.tag == tag && l.valid_mask & (1 << sector) != 0 {
                l.lru = gen;
                if write {
                    l.dirty_mask |= 1 << sector;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts one sector's data, allocating (or reusing) its home
    /// line's tag. Returns an eviction victim if a tag had to be
    /// replaced.
    pub fn fill_sector(&mut self, addr: u64, value: u64) -> Option<EvictedSectors> {
        self.lru_gen += 1;
        let gen = self.lru_gen;
        let (set, tag, sector) = self.split(addr);
        let words = self.cfg.words_per_line();
        // Sector merge into an existing tag.
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            l.valid_mask |= 1 << sector;
            l.data[sector] = value;
            l.lru = gen;
            return None;
        }
        let mut new_line = Line {
            tag,
            valid_mask: 1 << sector,
            dirty_mask: 0,
            lru: gen,
            data: vec![0; words],
        };
        new_line.data[sector] = value;
        let assoc = self.cfg.assoc;
        let set_lines = &mut self.sets[set];
        if set_lines.len() < assoc {
            set_lines.push(new_line);
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "set_lines.len() == assoc >= 1 on this path"
        )]
        let pos = set_lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("non-empty");
        let victim = std::mem::replace(&mut set_lines[pos], new_line);
        self.stats.evictions += 1;
        let ev = EvictedSectors {
            addr: victim.tag * cast::widen(self.cfg.line_bytes),
            valid_mask: victim.valid_mask,
            dirty_mask: victim.dirty_mask,
            data: victim.data,
        };
        if ev.dirty_mask != 0 {
            self.stats.writebacks += 1;
            if ev.needs_rmw(words) {
                self.stats.partial_writebacks += 1;
            }
        }
        Some(ev)
    }

    /// Number of tag entries currently holding at least one valid
    /// sector, and the mean fraction of valid sectors per entry —
    /// the tag-utilisation metric of the §4.1 comparison.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::as_conversions,
        reason = "report-only ratio; never feeds simulated timing"
    )]
    pub fn tag_utilisation(&self) -> (usize, f64) {
        let lines: Vec<&Line> = self.sets.iter().flatten().collect();
        let tags = lines.len();
        if tags == 0 {
            return (0, 0.0);
        }
        let words = cast::len_to_u32(self.cfg.words_per_line());
        let avg = lines
            .iter()
            .map(|l| f64::from(l.valid_mask.count_ones()) / f64::from(words))
            .sum::<f64>()
            / tags as f64;
        (tags, avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SectoredCache {
        SectoredCache::new(CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn sector_fill_and_probe() {
        let mut c = cache();
        assert!(!c.probe(0x48, false));
        c.fill_sector(0x48, 7);
        assert!(c.probe(0x48, false));
        // Another sector of the same line is still a miss.
        assert!(!c.probe(0x40, false));
        assert_eq!(c.tag_utilisation().0, 1);
    }

    #[test]
    fn sectors_merge_into_one_tag() {
        let mut c = cache();
        for w in 0..8u64 {
            c.fill_sector(0x40 + w * 8, w);
        }
        let (tags, util) = c.tag_utilisation();
        assert_eq!(tags, 1);
        assert!((util - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gathered_access_scatters_across_tags() {
        // The §4.1 problem: one stride-8 gathered line of 8 words lands
        // in 8 different tag entries at 1/8 utilisation each.
        let mut c = cache();
        for k in 0..8u64 {
            c.fill_sector(k * 64, k); // word 0 of 8 consecutive lines
        }
        let (tags, util) = c.tag_utilisation();
        assert_eq!(tags, 8);
        assert!((util - 0.125).abs() < 1e-12);
    }

    #[test]
    fn partial_dirty_eviction_needs_rmw() {
        let mut c = cache();
        // Set 0 lines: line addresses 0, 1024, 2048 (16 sets × 64 B).
        c.fill_sector(0, 1);
        c.probe(0, true); // dirty sector 0 only
        c.fill_sector(1024, 2);
        let ev = c.fill_sector(2048, 3).expect("eviction");
        assert_eq!(ev.addr, 0);
        assert_eq!(ev.dirty_mask, 1);
        assert!(ev.needs_rmw(8));
        assert_eq!(c.stats().partial_writebacks, 1);
    }

    #[test]
    fn full_line_eviction_needs_no_rmw() {
        let mut c = cache();
        for w in 0..8u64 {
            c.fill_sector(w * 8, w);
            c.probe(w * 8, true);
        }
        c.fill_sector(1024, 0);
        let ev = c.fill_sector(2048, 0).expect("eviction");
        assert_eq!(ev.valid_mask, 0xff);
        assert!(!ev.needs_rmw(8));
        assert_eq!(c.stats().partial_writebacks, 0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = cache();
        c.fill_sector(0, 1);
        c.fill_sector(1024, 2);
        c.probe(0, false); // 0 becomes MRU
        let ev = c.fill_sector(2048, 3).expect("eviction");
        assert_eq!(ev.addr, 1024);
    }

    #[test]
    fn miss_rate() {
        let mut c = cache();
        c.probe(0, false);
        c.fill_sector(0, 1);
        c.probe(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
