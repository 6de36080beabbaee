//! Pattern-ID-aware set-associative caches (paper §4.1).
//!
//! GS-DRAM keeps ordinary, non-sectored caches; the only change is that
//! each tag is extended with the `p`-bit pattern ID the line was fetched
//! with ("less than 0.6% cache area cost" — §4.4). Two cache lines with
//! the same address but different pattern IDs are distinct entries that
//! may *partially overlap* in memory; the coherence rules for that live
//! in [`crate::overlap`] and the system crate.

use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::{cast, PatternId};

/// Identity of a cached line: the line-aligned address plus the pattern
/// ID it was gathered with (§4.1 "each cache line can be uniquely
/// identified using the cache line address and the pattern ID").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineKey {
    /// Line-aligned byte address.
    pub addr: u64,
    /// Pattern the line was fetched with.
    pub pattern: PatternId,
}

impl LineKey {
    /// Key for `addr` rounded down to a line boundary.
    pub fn new(addr: u64, line_bytes: u64, pattern: PatternId) -> Self {
        LineKey {
            addr: addr / line_bytes * line_bytes,
            pattern,
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in CPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Table 1 L1: 32 KB, 8-way, 64 B lines.
    pub fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 3,
        }
    }

    /// Table 1 L2: 2 MB, 8-way, 64 B lines.
    pub fn l2_2m() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// 8-byte words per line.
    pub fn words_per_line(&self) -> usize {
        self.line_bytes / 8
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Dirty lines written back (by eviction or invalidation).
    pub writebacks: u64,
    /// Lines removed by explicit invalidation.
    pub invalidations: u64,
}

impl ReportStats for CacheStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .counter("hits", self.hits)
            .counter("misses", self.misses)
            .counter("evictions", self.evictions)
            .counter("writebacks", self.writebacks)
            .counter("invalidations", self.invalidations)
            .gauge("miss_rate", self.miss_rate())
    }
}

impl CacheStats {
    /// Miss ratio over all lookups.
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

/// A line pushed out of the cache, with its data if dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Identity of the evicted line.
    pub key: LineKey,
    /// Whether it held modified data that must be written back.
    pub dirty: bool,
    /// The line's words.
    pub data: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Slot {
    key: LineKey,
    dirty: bool,
    lru: u64,
    data: Vec<u64>,
}

/// An LRU set-associative write-back, write-allocate cache with
/// pattern-extended tags.
///
/// ```
/// use gsdram_cache::cache::{CacheConfig, LineKey, SetAssocCache};
/// use gsdram_core::PatternId;
/// let mut c = SetAssocCache::new(CacheConfig::l1_32k());
/// let key = LineKey::new(0x1000, 64, PatternId(7));
/// assert!(!c.probe(key, false));
/// c.fill(key, vec![0; 8]);
/// assert!(c.probe(key, false));
/// // Same address under the default pattern is a different line.
/// assert!(!c.probe(LineKey::new(0x1000, 64, PatternId(0)), false));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Slot>>,
    lru_gen: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// An empty cache of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide into a whole power-of-
    /// two number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocCache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc); sets],
            lru_gen: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, key: LineKey) -> usize {
        let line = key.addr / cast::widen(self.cfg.line_bytes);
        cast::to_usize(line % cast::widen(self.sets.len()))
    }

    /// Looks up `key`; on a hit updates LRU (and the dirty bit if
    /// `write`) and returns `true`. Counts a hit or miss.
    pub fn probe(&mut self, key: LineKey, write: bool) -> bool {
        self.lru_gen += 1;
        let gen = self.lru_gen;
        let set = self.set_index(key);
        for slot in &mut self.sets[set] {
            if slot.key == key {
                slot.lru = gen;
                if write {
                    slot.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Whether `key` is present, without touching LRU or statistics.
    pub fn contains(&self, key: LineKey) -> bool {
        let set = self.set_index(key);
        self.sets[set].iter().any(|s| s.key == key)
    }

    /// Whether `key` is present and dirty (no LRU/stat effects).
    pub fn is_dirty(&self, key: LineKey) -> bool {
        let set = self.set_index(key);
        self.sets[set].iter().any(|s| s.key == key && s.dirty)
    }

    /// Immutable view of a resident line's words.
    pub fn data(&self, key: LineKey) -> Option<&[u64]> {
        let set = self.set_index(key);
        self.sets[set]
            .iter()
            .find(|s| s.key == key)
            .map(|s| s.data.as_slice())
    }

    /// Mutable view of a resident line's words; marks it dirty.
    pub fn data_mut(&mut self, key: LineKey) -> Option<&mut [u64]> {
        let set = self.set_index(key);
        self.sets[set].iter_mut().find(|s| s.key == key).map(|s| {
            s.dirty = true;
            s.data.as_mut_slice()
        })
    }

    /// Inserts a clean line, evicting the LRU way if the set is full.
    /// Returns the eviction victim (with data, for writeback) if any.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line of words, or the key is
    /// already resident (fill must follow a miss).
    pub fn fill(&mut self, key: LineKey, data: Vec<u64>) -> Option<EvictedLine> {
        assert_eq!(
            data.len(),
            self.cfg.words_per_line(),
            "fill data must be one line"
        );
        assert!(!self.contains(key), "double fill of {key:?}");
        self.lru_gen += 1;
        let gen = self.lru_gen;
        let set_idx = self.set_index(key);
        let assoc = self.cfg.assoc;
        let set = &mut self.sets[set_idx];
        let new_slot = Slot {
            key,
            dirty: false,
            lru: gen,
            data,
        };
        if set.len() < assoc {
            set.push(new_slot);
            return None;
        }
        // Every slot is resident (invalidation removes slots): evict
        // the LRU one.
        #[expect(clippy::expect_used, reason = "set.len() == assoc >= 1 on this path")]
        let pos = set
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.lru)
            .map(|(i, _)| i)
            .expect("set is non-empty");
        let victim = std::mem::replace(&mut set[pos], new_slot);
        self.stats.evictions += 1;
        if victim.dirty {
            self.stats.writebacks += 1;
        }
        Some(EvictedLine {
            key: victim.key,
            dirty: victim.dirty,
            data: victim.data,
        })
    }

    /// [`SetAssocCache::fill`] from a borrowed line: callers holding a
    /// scratch buffer (the DRAM bridge's line path) install a copy
    /// without first cloning into an owned `Vec` at the call site.
    ///
    /// # Panics
    ///
    /// As [`SetAssocCache::fill`].
    pub fn fill_from(&mut self, key: LineKey, data: &[u64]) -> Option<EvictedLine> {
        self.fill(key, data.to_vec())
    }

    /// Removes `key` if present; returns it (for writeback when dirty).
    pub fn invalidate(&mut self, key: LineKey) -> Option<EvictedLine> {
        let set = self.set_index(key);
        let pos = self.sets[set].iter().position(|s| s.key == key)?;
        let victim = self.sets[set].swap_remove(pos);
        self.stats.invalidations += 1;
        if victim.dirty {
            self.stats.writebacks += 1;
        }
        Some(EvictedLine {
            key: victim.key,
            dirty: victim.dirty,
            data: victim.data,
        })
    }

    /// All resident keys (diagnostics/tests).
    pub fn resident_keys(&self) -> Vec<LineKey> {
        self.sets.iter().flatten().map(|s| s.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    fn key(addr: u64) -> LineKey {
        LineKey::new(addr, 64, PatternId(0))
    }

    #[test]
    fn key_is_line_aligned() {
        assert_eq!(key(0x1009).addr, 0x1000);
        assert_eq!(key(0x103f).addr, 0x1000);
        assert_eq!(key(0x1040).addr, 0x1040);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(key(0), false));
        c.fill(key(0), vec![1; 8]);
        assert!(c.probe(key(0), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.data(key(0)).unwrap(), &[1; 8]);
    }

    #[test]
    fn pattern_distinguishes_lines() {
        let mut c = tiny();
        let a = LineKey::new(0, 64, PatternId(0));
        let b = LineKey::new(0, 64, PatternId(7));
        c.fill(a, vec![1; 8]);
        c.fill(b, vec![2; 8]);
        assert_eq!(c.data(a).unwrap(), &[1; 8]);
        assert_eq!(c.data(b).unwrap(), &[2; 8]);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines mapping to set 0: addresses 0, 256, 512 (4 sets × 64 B).
        c.fill(key(0), vec![0; 8]);
        c.fill(key(256), vec![1; 8]);
        c.probe(key(0), false); // 0 becomes MRU
        let ev = c.fill(key(512), vec![2; 8]).expect("must evict");
        assert_eq!(ev.key, key(256));
        assert!(c.contains(key(0)));
        assert!(c.contains(key(512)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(key(0), vec![0; 8]);
        c.probe(key(0), true); // dirty
        c.fill(key(256), vec![1; 8]);
        let ev = c.fill(key(512), vec![2; 8]).expect("must evict");
        assert_eq!(ev.key, key(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_probe_marks_dirty() {
        let mut c = tiny();
        c.fill(key(0), vec![0; 8]);
        assert!(!c.is_dirty(key(0)));
        c.probe(key(0), true);
        assert!(c.is_dirty(key(0)));
    }

    #[test]
    fn data_mut_marks_dirty() {
        let mut c = tiny();
        c.fill(key(0), vec![0; 8]);
        c.data_mut(key(0)).unwrap()[3] = 99;
        assert!(c.is_dirty(key(0)));
        assert_eq!(c.data(key(0)).unwrap()[3], 99);
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut c = tiny();
        c.fill(key(0), vec![7; 8]);
        c.probe(key(0), true);
        let ev = c.invalidate(key(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, vec![7; 8]);
        assert!(!c.contains(key(0)));
        assert!(c.invalidate(key(0)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn table1_shapes() {
        let l1 = CacheConfig::l1_32k();
        assert_eq!(l1.sets(), 64);
        assert_eq!(l1.words_per_line(), 8);
        let l2 = CacheConfig::l2_2m();
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.probe(key(0), false);
        c.fill(key(0), vec![0; 8]);
        c.probe(key(0), false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resident_keys_lists_contents() {
        let mut c = tiny();
        c.fill(key(0), vec![0; 8]);
        c.fill(key(64), vec![0; 8]);
        let mut keys = c.resident_keys();
        keys.sort();
        assert_eq!(keys, vec![key(0), key(64)]);
    }
}
