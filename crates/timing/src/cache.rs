//! Set-associative cache timing models (tag arrays only — data values
//! live in the functional emulator).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total size in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles (charged on a hit at this level).
    pub latency: u64,
}

impl CacheParams {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size / (self.line * self.ways as u64)
    }
}

/// Hit/miss counters for a cache level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

/// An LRU set-associative cache (tags only).
///
/// Runs once per retired instruction (and again per memory access), so
/// the tag store is a flat `[set × way]` array indexed by shift/mask —
/// the power-of-two geometry is asserted at construction.
#[derive(Debug, Clone)]
pub struct CacheModel {
    params: CacheParams,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    // slots[set * ways + way] = (tag, stamp, valid).
    slots: Vec<(u64, u64, bool)>,
    // Line and flat slot index of the most recent hit or fill. A repeat
    // access to the same line skips the set scan: nothing ran in
    // between, so that slot still holds the line and a full scan would
    // hit it. `u64::MAX` = invalid (initial state and after flush).
    last_line: u64,
    last_slot: usize,
    tick: u64,
    /// Access statistics.
    pub stats: CacheLevelStats,
}

impl CacheModel {
    /// Build a cache with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry.
    pub fn new(params: CacheParams) -> CacheModel {
        assert!(
            params.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = params.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        CacheModel {
            params,
            line_shift: params.line.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            slots: vec![(0, 0, false); (sets as usize) * params.ways],
            last_line: u64::MAX,
            last_slot: 0,
            tick: 0,
            stats: CacheLevelStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Access `paddr`; returns `true` on hit. A miss fills the line
    /// (evicting LRU; ties break toward the lowest way, matching the
    /// first-minimum scan this replaced).
    #[inline]
    pub fn access(&mut self, paddr: u64) -> bool {
        self.tick += 1;
        let line = paddr >> self.line_shift;
        if line == self.last_line {
            self.slots[self.last_slot].1 = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.access_set(line)
    }

    /// The set scan of [`CacheModel::access`] for a line other than the
    /// last one (`tick` already advanced).
    fn access_set(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let base = set * self.params.ways;
        let ways = &mut self.slots[base..base + self.params.ways];
        let mut victim = 0;
        let mut victim_key = (true, u64::MAX);
        for (i, w) in ways.iter_mut().enumerate() {
            if w.2 && w.0 == tag {
                w.1 = self.tick;
                self.stats.hits += 1;
                self.last_line = line;
                self.last_slot = base + i;
                return true;
            }
            let key = (w.2, w.1);
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        self.stats.misses += 1;
        ways[victim] = (tag, self.tick, true);
        self.last_line = line;
        self.last_slot = base + victim;
        false
    }

    /// Whether `paddr` lies in the line of the most recent access, so
    /// accessing it again is a hit.
    #[inline]
    pub fn is_last_line(&self, paddr: u64) -> bool {
        paddr >> self.line_shift == self.last_line
    }

    /// Account `n` further accesses to the line of the most recent
    /// access — exactly `n` calls of [`CacheModel::access`] on it, which
    /// all hit the same slot and only move the LRU clock. A cache with
    /// no last line (fresh or flushed) has nothing to repeat, and the
    /// call does nothing.
    pub fn repeat_last(&mut self, n: u64) {
        if n == 0 || self.last_line == u64::MAX {
            return;
        }
        self.tick += n;
        if let Some(slot) = self.slots.get_mut(self.last_slot) {
            slot.1 = self.tick;
        }
        self.stats.hits += n;
    }

    /// Drop all lines.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.2 = false;
        }
        self.last_line = u64::MAX;
    }
}

/// A tiny fully-associative TLB model (the functional walker translates
/// every access; the TLB decides whether to *charge* for the walk).
#[derive(Debug, Clone)]
pub struct TlbModel {
    entries: Vec<(u64, u64)>, // (vpn, stamp)
    capacity: usize,
    tick: u64,
    /// Hit/miss statistics.
    pub stats: CacheLevelStats,
}

impl TlbModel {
    /// A TLB with `capacity` entries.
    pub fn new(capacity: usize) -> TlbModel {
        TlbModel {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            stats: CacheLevelStats::default(),
        }
    }

    /// Access the page of `vaddr`; returns `true` on hit and fills on
    /// miss. Hits swap to the front of the scan order — eviction is by
    /// stamp, so this only shortens future scans for hot pages.
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.tick += 1;
        let vpn = vaddr >> 12;
        if let Some(i) = self.entries.iter().position(|&(v, _)| v == vpn) {
            self.hit_to_front(i, vpn);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
            }
        }
        self.entries.push((vpn, self.tick));
        false
    }

    /// Account `n` further accesses to the page of `vaddr` — the same
    /// state as `n` calls of [`TlbModel::access`]. When the page is
    /// resident (the caller has just accessed it) every call hits, so
    /// they fold into one clock advance and one move to the front; a
    /// page that is not resident falls back to the calls themselves.
    pub fn repeat(&mut self, vaddr: u64, n: u64) {
        if n == 0 {
            return;
        }
        let vpn = vaddr >> 12;
        match self.entries.iter().position(|&(v, _)| v == vpn) {
            Some(i) => {
                self.tick += n;
                self.hit_to_front(i, vpn);
                self.stats.hits += n;
            }
            None => {
                for _ in 0..n {
                    self.access(vaddr);
                }
            }
        }
    }

    /// Restamp hit entry `i` (page `vpn`) with the current tick and swap
    /// it to the front. Written as two whole-entry stores rather than a
    /// stamp store followed by a swap, whose reload of the just-stored
    /// entry the host cannot forward.
    #[inline]
    fn hit_to_front(&mut self, i: usize, vpn: u64) {
        let front = self.entries[0];
        self.entries[i] = front;
        self.entries[0] = (vpn, self.tick);
    }

    /// Flush all translations (satp write / sfence.vma).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

/// A gshare branch direction predictor plus a direct-mapped BTB — a
/// stand-in for the Gem5 tournament predictor of Table 3.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    history: u64,
    counters: Vec<u8>,
    btb: Vec<(u64, bool)>, // (pc, valid) — predicts "taken target known"
    /// Prediction statistics: hits = correct, misses = mispredictions.
    pub stats: CacheLevelStats,
}

impl BranchPredictor {
    /// A predictor with 2^`bits` two-bit counters.
    pub fn new(bits: u32) -> BranchPredictor {
        BranchPredictor {
            history: 0,
            counters: vec![1; 1 << bits],
            btb: vec![(0, false); 1024],
            stats: CacheLevelStats::default(),
        }
    }

    /// Record the outcome of a conditional branch at `pc`; returns `true`
    /// if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        // Saturating two-bit counter step, indexed [taken][counter]. The
        // outcome is guest data the host cannot predict any better than
        // the guest, so the update reads a table instead of branching.
        const STEP: [[u8; 4]; 2] = [[0, 0, 1, 2], [1, 2, 3, 3]];
        let mask = self.counters.len() as u64 - 1;
        let idx = (((pc >> 2) ^ self.history) & mask) as usize;
        let ctr = &mut self.counters[idx];
        let correct = (*ctr >= 2) == taken;
        *ctr = STEP[taken as usize][*ctr as usize & 3];
        self.history = ((self.history << 1) | taken as u64) & mask;
        self.stats.hits += correct as u64;
        self.stats.misses += !correct as u64;
        correct
    }

    /// Record an indirect/unconditional jump at `pc`; returns `true` if
    /// the BTB already knew it (no redirect bubble).
    pub fn btb_lookup_update(&mut self, pc: u64) -> bool {
        let idx = ((pc >> 2) as usize) & (self.btb.len() - 1);
        let hit = self.btb[idx] == (pc, true);
        self.btb[idx] = (pc, true);
        self.stats.hits += hit as u64;
        self.stats.misses += !hit as u64;
        hit
    }
}

// ---- snapshot/restore ----
//
// The timing models are host-side but their state is guest-visible
// through `rdcycle`, so snapshots must carry it. Everything serializes
// to plain `u64` words: the owning `PipelineModel` concatenates the
// component streams in a fixed order and the geometry (slot counts,
// capacities) is implied by the config the restored model was built
// with.

/// Cursor over a flat word stream produced by the `save_words` methods.
pub(crate) struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    pub(crate) fn new(words: &'a [u64]) -> WordReader<'a> {
        WordReader { words, pos: 0 }
    }

    /// Next word; a truncated stream is a host harness bug (the stream
    /// is length-checked by the snapshot container before it gets here),
    /// so running out reads as zero rather than panicking mid-restore.
    pub(crate) fn next(&mut self) -> u64 {
        let v = self.words.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v
    }
}

impl CacheModel {
    pub(crate) fn save_words(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        out.push(self.last_line);
        out.push(self.last_slot as u64);
        out.push(self.stats.hits);
        out.push(self.stats.misses);
        for &(tag, stamp, valid) in &self.slots {
            out.push(tag);
            out.push(stamp);
            out.push(valid as u64);
        }
    }

    pub(crate) fn load_words(&mut self, r: &mut WordReader<'_>) {
        self.tick = r.next();
        self.last_line = r.next();
        self.last_slot = (r.next() as usize).min(self.slots.len().saturating_sub(1));
        self.stats.hits = r.next();
        self.stats.misses = r.next();
        for slot in &mut self.slots {
            *slot = (r.next(), r.next(), r.next() != 0);
        }
    }
}

impl TlbModel {
    pub(crate) fn save_words(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        out.push(self.stats.hits);
        out.push(self.stats.misses);
        out.push(self.entries.len() as u64);
        // Entry order is the scan order (hits swap to the front), so it
        // is part of the state, not an implementation detail.
        for &(vpn, stamp) in &self.entries {
            out.push(vpn);
            out.push(stamp);
        }
    }

    pub(crate) fn load_words(&mut self, r: &mut WordReader<'_>) {
        self.tick = r.next();
        self.stats.hits = r.next();
        self.stats.misses = r.next();
        let n = (r.next() as usize).min(self.capacity);
        self.entries.clear();
        for _ in 0..n {
            let vpn = r.next();
            let stamp = r.next();
            self.entries.push((vpn, stamp));
        }
    }
}

impl BranchPredictor {
    pub(crate) fn save_words(&self, out: &mut Vec<u64>) {
        out.push(self.history);
        out.push(self.stats.hits);
        out.push(self.stats.misses);
        for &c in &self.counters {
            out.push(c as u64);
        }
        for &(pc, valid) in &self.btb {
            out.push(pc);
            out.push(valid as u64);
        }
    }

    pub(crate) fn load_words(&mut self, r: &mut WordReader<'_>) {
        self.history = r.next();
        self.stats.hits = r.next();
        self.stats.misses = r.next();
        for c in &mut self.counters {
            *c = r.next() as u8 & 3;
        }
        for slot in &mut self.btb {
            *slot = (r.next(), r.next() != 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_words(c: &CacheModel) -> Vec<u64> {
        let mut out = Vec::new();
        c.save_words(&mut out);
        out
    }

    fn tlb_words(t: &TlbModel) -> Vec<u64> {
        let mut out = Vec::new();
        t.save_words(&mut out);
        out
    }

    fn small() -> CacheModel {
        // 4 sets × 2 ways × 64B lines = 512 B.
        CacheModel::new(CacheParams {
            size: 512,
            line: 64,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn associativity_and_lru_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*line = 256).
        c.access(0x0);
        c.access(0x100);
        c.access(0x0); // touch: 0x100 becomes LRU
        c.access(0x200); // evicts 0x100
        assert!(c.access(0x0));
        assert!(!c.access(0x100), "was evicted");
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0x40);
        c.flush();
        assert!(!c.access(0x40));
    }

    #[test]
    fn sets_geometry() {
        let p = CacheParams {
            size: 32 << 10,
            line: 64,
            ways: 4,
            latency: 2,
        };
        assert_eq!(p.sets(), 128);
    }

    #[test]
    fn tlb_hits_within_page_misses_across() {
        let mut t = TlbModel::new(4);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn tlb_lru_and_flush() {
        let mut t = TlbModel::new(2);
        t.access(0x1000);
        t.access(0x2000);
        t.access(0x1000); // 0x2000 is LRU
        t.access(0x3000); // evict 0x2000
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
        t.flush();
        assert!(!t.access(0x1000));
    }

    #[test]
    fn repeat_last_equals_repeated_hits() {
        let (mut a, mut b) = (small(), small());
        for c in [&mut a, &mut b] {
            c.access(0x0);
            c.access(0x100);
            c.access(0x0);
        }
        for _ in 0..5 {
            assert!(a.access(0x10));
        }
        assert!(b.is_last_line(0x10) && !b.is_last_line(0x100));
        b.repeat_last(5);
        assert_eq!(cache_words(&a), cache_words(&b));
        // The LRU clock moved: 0x100 is still the victim.
        a.access(0x200);
        b.access(0x200);
        assert!(a.access(0x0) && b.access(0x0));
        // Nothing to repeat on a flushed cache.
        b.flush();
        b.repeat_last(3);
        assert_eq!(b.stats.hits, a.stats.hits);
    }

    #[test]
    fn tlb_repeat_equals_repeated_accesses() {
        for n in [0, 1, 4] {
            let (mut a, mut b) = (TlbModel::new(3), TlbModel::new(3));
            for t in [&mut a, &mut b] {
                t.access(0x1000);
                t.access(0x2000);
                t.access(0x3000); // filled at the back of the scan order
            }
            for _ in 0..n {
                a.access(0x3abc);
            }
            b.repeat(0x3000, n);
            assert_eq!(tlb_words(&a), tlb_words(&b), "n={n}");
            // A page that is not resident replays the accesses.
            for _ in 0..n {
                a.access(0x9000);
            }
            b.repeat(0x9000, n);
            assert_eq!(tlb_words(&a), tlb_words(&b), "n={n}");
        }
    }

    #[test]
    fn predictor_learns_a_loop() {
        let mut p = BranchPredictor::new(12);
        // A loop branch taken 100 times: after warmup it must predict well.
        for _ in 0..100 {
            p.predict_and_update(0x8000_0000, true);
        }
        assert!(p.stats.hits > 80, "hits={}", p.stats.hits);
    }

    #[test]
    fn btb_learns_jump_targets() {
        let mut p = BranchPredictor::new(12);
        assert!(!p.btb_lookup_update(0x1000));
        assert!(p.btb_lookup_update(0x1000));
    }
}
