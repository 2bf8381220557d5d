//! Set-associative cache model with LRU replacement.

/// A set-associative cache with true-LRU replacement.
///
/// Used for every level of the hierarchy (L1I, L1D, L2, LLC) and — with a
/// "line size" of one page — for the TLBs.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2 of the line size.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
    /// Memoized most-recent access: the line and its slot. The entry
    /// most recently accessed cannot have been evicted since (an
    /// eviction would itself be a newer access that re-aims the memo),
    /// so a repeat access is a guaranteed hit that skips the set scan —
    /// the common case for consecutive same-line accesses (an emulated
    /// loop's data, a basic block's fetches).
    last_line: u64,
    last_slot: usize,
    pub accesses: u64,
    pub misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// `line_bytes` lines. All three must be powers of two with
    /// `size_bytes >= ways * line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two or inconsistent.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Cache {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        let lines = size_bytes / line_bytes;
        assert!(
            lines as usize >= ways,
            "cache must have at least one set ({size_bytes} bytes, {ways} ways)"
        );
        let sets = lines as usize / ways;
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            last_line: u64::MAX,
            last_slot: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    ///
    /// Inlined for the memoized repeat-line hit; the set scan and the
    /// LRU eviction stay out of line.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.tick += 1;
        self.accesses += 1;
        if line == self.last_line {
            // Memoized fast path: identical bookkeeping to a scanned hit
            // (tick, access count, LRU stamp), minus the set scan.
            self.stamps[self.last_slot] = self.tick;
            return true;
        }
        self.access_scan(line)
    }

    /// The set-scan half of [`Cache::access`] (tick and access count
    /// already bumped).
    #[inline(never)]
    fn access_scan(&mut self, line: u64) -> bool {
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.tick;
            self.last_line = line;
            self.last_slot = base + way;
            return true;
        }
        self.misses += 1;
        // Evict LRU.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        self.last_line = line;
        self.last_slot = base + victim;
        false
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Number of sets (used by batched charging to prove two resident
    /// lines cannot interact through LRU state).
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Miss rate over all accesses so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Resets counters but keeps contents (for warmup-then-measure runs).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0), "cold miss");
        assert!(c.access(0), "hit");
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line misses");
        assert_eq!(c.accesses, 4);
        assert_eq!(c.misses, 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways, 64B lines, 2 sets (256 bytes total).
        let mut c = Cache::new(256, 2, 64);
        // Set 0 gets lines 0, 2, 4 (addresses 0, 128, 256).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256)); // evicts line 0 (LRU)
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(256), "line 4 still resident");
    }

    #[test]
    fn lru_updates_on_hit() {
        let mut c = Cache::new(256, 2, 64);
        c.access(0);
        c.access(128);
        c.access(0); // touch line 0 -> line 2 becomes LRU
        c.access(256); // evicts line 2
        assert!(c.access(0), "line 0 protected by its recent hit");
        assert!(!c.access(128), "line 2 was evicted");
    }

    #[test]
    fn page_granularity_works_as_tlb() {
        let mut tlb = Cache::new(64 * 4096, 4, 4096);
        assert!(!tlb.access(0x400000));
        assert!(tlb.access(0x400FFF), "same page");
        assert!(!tlb.access(0x401000), "next page");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(1000, 2, 64);
    }

    /// The last-line memo must be observationally identical to the
    /// scanning path: same hit/miss sequence, same counters, same LRU
    /// behavior — including after the memoized line's set churns.
    #[test]
    fn memoized_repeat_hits_match_scan_semantics() {
        let mut c = Cache::new(256, 2, 64); // 2 ways, 2 sets
        assert!(!c.access(0), "cold miss primes the memo");
        for _ in 0..10 {
            assert!(c.access(32), "memoized same-line hits");
        }
        assert_eq!(c.accesses, 11);
        assert_eq!(c.misses, 1);
        // Fill set 0's other way, then re-touch line 0 (a scan-path hit:
        // the memo now holds line 2) so line 2 becomes the LRU victim.
        assert!(!c.access(128));
        assert!(c.access(0));
        assert!(!c.access(256), "set 0 full -> evicts line 2 (LRU)");
        assert!(c.access(0), "line 0 protected by its recent touch");
        assert!(!c.access(128), "line 2 was the eviction victim");
        assert_eq!(c.misses, 4);
        assert_eq!(c.accesses, 16);
    }
}
