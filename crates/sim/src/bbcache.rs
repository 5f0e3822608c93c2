//! Predecoded basic-block cache: the interpreter's hot-loop fast path.
//!
//! The steady-state cost of [`crate::Machine::step`] is dominated by
//! re-running `mmu::translate` and `decode` for code that has not
//! changed since the last time it executed. This cache removes both
//! from the hot path by caching, per 4 KiB fetch page, the fetch
//! translation *and* the decoded form of every instruction word on the
//! page. A sibling data TLB caches paged load/store translations under
//! the same contract (keyed additionally on the access direction, since
//! only a write-translation proves the walker set the PTE's D bit).
//!
//! Correctness is an invalidation contract, not a fast path:
//!
//! * Any store or AMO into a cached code line (self-modifying code)
//!   bumps the bus-wide code epoch ([`crate::Bus::code_epoch`]); the
//!   machine compares epochs before every fetch and flushes. The bus
//!   tracks cached lines in a line-granular bitmap, mirroring the LR/SC
//!   reservation fast path, so untracked stores stay cheap.
//! * The page-table-entry lines a cached translation walked through are
//!   marked in the same bitmap, so PTE mutation flushes the stale
//!   translation even without an `SFENCE.VMA`.
//! * `FENCE.I` and `SFENCE.VMA` therefore require no action: the cache
//!   snoops every store, so any block a fence would have to invalidate
//!   was already flushed at the store that dirtied it — strictly
//!   earlier than the fence demands. (Real hardware needs the fences
//!   because its fetch pipeline and TLBs do *not* snoop stores; the
//!   `tests/bbcache_diff.rs` proptests replay fence-heavy and
//!   fence-free self-modifying streams to hold this argument to
//!   bit-exactness.)
//! * Cross-hart privilege shootdowns
//!   ([`crate::Extension::coherence_epoch`]) flush nothing here. They
//!   rewrite privilege tables, which neither the walker nor the decoder
//!   reads: a decode slot is a pure function of its code-epoch-guarded
//!   bytes, and `pkr` and the paging context live in the [`FetchKey`].
//!   The privilege decision stays with the extension's per-commit check
//!   (the shootdown flushes the PCU's own caches) and, for compiled
//!   code, with the block's guard.
//!
//! The same contract covers compiled code: the superblock JIT's blocks
//! and head state live in the page entry they were compiled from
//! ([`crate::jit::PageBlocks`]) and go whenever that entry's decode slots
//! do — a code-epoch flush or a conflict re-key. Each entry carries a
//! generation that every such drop moves, so a block link (which names
//! an entry at a generation) dies with its target page. A block bakes
//! in no privilege state beyond its [`crate::JitGuard`], which dispatch
//! compares on every entry and link, so shootdowns leave blocks alone
//! too.
//!
//! Entries are validated against everything `mmu::translate` reads for
//! an `Exec` access — virtual page, privilege level, `satp`, the
//! SUM/MXR bits of `mstatus`, and `pkr` — so a hit is exactly the
//! translation the walker would have produced (the walker already set
//! the A bit when the entry was filled, so skipping the re-walk is also
//! memory-identical).

use crate::csr::mstatus;
use crate::decode::Decoded;
use crate::jit::PageBlocks;
use crate::trap::Priv;

/// Instruction slots per page: 4 KiB of 4-byte-aligned instructions.
pub const PAGE_SLOTS: usize = 1024;

/// Direct-mapped entry count; must be a power of two. The index hashes
/// `satp` in with the virtual page so one guest page hot under several
/// address spaces (kernel, tasks) occupies several entries instead of
/// re-keying — and slot-clearing — a single one on every gate crossing.
const ENTRIES: usize = 256;

/// Direct-mapped data-translation entries; must be a power of two.
const DTLB_ENTRIES: usize = 128;

/// Sentinel for an invalid entry (no canonical Sv39 vpage is all-ones).
const INVALID: u64 = u64::MAX;

/// The fetch context an entry was filled under. Two fetches with equal
/// keys are translated identically by `mmu::translate`, given the same
/// page-table memory (which the code-line bitmap guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchKey {
    /// `satp` at fill time.
    pub satp: u64,
    /// `pkr` at fill time.
    pub pkr: u64,
    /// Privilege level packed with the SUM/MXR `mstatus` bits.
    pub mode: u64,
}

impl FetchKey {
    /// Build the key for the current fetch context.
    #[inline]
    pub fn new(priv_level: Priv, satp: u64, mstatus_val: u64, pkr: u64) -> FetchKey {
        FetchKey {
            satp,
            pkr,
            mode: (priv_level as u64) | (mstatus_val & (mstatus::SUM | mstatus::MXR)),
        }
    }
}

/// One direct-mapped page entry: a fetch translation plus the decoded
/// instructions of that page.
struct Entry {
    /// Virtual page number (`vaddr >> 12`), [`INVALID`] when empty.
    vpage: u64,
    key: FetchKey,
    /// Physical base of the page the translation resolved to.
    phys_base: u64,
    /// Page-table reads the fill-time walk performed. Replayed into
    /// every hit's [`crate::Retired::walk_reads`] so modeled timing is
    /// bit-identical to the uncached interpreter (the depth cannot
    /// change while the entry is valid — a PTE store flushes it).
    walk_reads: u8,
    /// Decode slots indexed by `(vaddr >> 2) & 0x3ff`; allocated on the
    /// first decode fill so idle entries cost nothing, and reused (just
    /// cleared) across re-keys.
    slots: Option<Box<[Option<Decoded>; PAGE_SLOTS]>>,
    /// Moves whenever the entry's translation or decode slots are
    /// dropped or re-keyed; a [`PageAt`] naming an older generation no
    /// longer resolves.
    gen: u64,
    /// Superblocks compiled from `slots`, with their heads' promotion
    /// state; dropped together with the slots.
    code: PageBlocks,
}

impl Entry {
    fn empty() -> Entry {
        Entry {
            vpage: INVALID,
            key: FetchKey {
                satp: 0,
                pkr: 0,
                mode: 0,
            },
            phys_base: 0,
            walk_reads: 0,
            slots: None,
            gen: 0,
            code: PageBlocks::default(),
        }
    }

    /// Drop everything compiled from this entry and move its
    /// generation, so links into its blocks stop resolving. Returns the
    /// number of blocks dropped.
    fn drop_code(&mut self) -> usize {
        self.gen += 1;
        self.code.clear()
    }
}

/// A fetch entry at one generation: resolves only while nothing the
/// entry held has been dropped or re-keyed since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageAt {
    entry: u16,
    gen: u64,
}

/// A cached code page as the superblock JIT sees it: translation,
/// decode slots and compiled blocks, read without touching hit/miss
/// accounting.
pub(crate) struct CodePage<'a> {
    /// This entry at its current generation.
    pub(crate) at: PageAt,
    pub(crate) phys_base: u64,
    pub(crate) walk_reads: u8,
    pub(crate) slots: &'a [Option<Decoded>; PAGE_SLOTS],
    pub(crate) code: &'a mut PageBlocks,
    /// Compiled blocks held across every entry.
    pub(crate) held: &'a mut usize,
}

/// One data-translation entry. Data accesses are keyed like fetches
/// plus the access direction: a write-translation proves the walker
/// set the D bit, a read-translation does not, so the two must never
/// answer for each other.
#[derive(Debug, Clone, Copy)]
struct DtlbEntry {
    /// Virtual page number, [`INVALID`] when empty.
    vpage: u64,
    key: FetchKey,
    /// `true` for store/AMO translations.
    write: bool,
    /// Physical base of the resolved page.
    phys_base: u64,
    /// Fill-time walk depth, replayed on every hit.
    walk_reads: u8,
}

impl DtlbEntry {
    fn empty() -> DtlbEntry {
        DtlbEntry {
            vpage: INVALID,
            key: FetchKey {
                satp: 0,
                pkr: 0,
                mode: 0,
            },
            write: false,
            phys_base: 0,
            walk_reads: 0,
        }
    }
}

/// Hit/miss/flush tallies, split into the decode cache proper and the
/// embedded fetch-translation cache. Exposed through `isa-obs` as the
/// `bbcache.*` counter block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BbStats {
    /// Fetches answered entirely from a cached slot.
    pub decode_hits: u64,
    /// Fetches that had to load + decode (translation may still hit).
    pub decode_misses: u64,
    /// Fetch translations answered from a cached entry.
    pub tlb_hits: u64,
    /// Fetch translations that re-ran the walker.
    pub tlb_misses: u64,
    /// Data translations answered from a cached entry.
    pub dtlb_hits: u64,
    /// Data translations that re-ran the walker (paged accesses only;
    /// bare/M-mode accesses bypass the data TLB entirely).
    pub dtlb_misses: u64,
    /// Whole-cache flushes (a store into a cached code or PTE line).
    pub flushes: u64,
    /// Fetch lookups that found a *different* valid page in the
    /// direct-mapped entry. These are capacity/conflict evictions, not
    /// cold misses, and are kept out of the hit-rate denominator.
    pub key_conflicts: u64,
    /// Data lookups that found a different valid translation occupying
    /// the direct-mapped slot.
    pub dtlb_conflicts: u64,
}

impl BbStats {
    /// Snapshot into the `isa-obs` counter block. Flushes are tallied
    /// on the decode side.
    pub fn counters(&self) -> isa_obs::BbCounters {
        isa_obs::BbCounters {
            decode: isa_obs::CacheCounters {
                hits: self.decode_hits,
                misses: self.decode_misses,
                flushes: self.flushes,
                conflicts: self.key_conflicts,
            },
            tlb: isa_obs::CacheCounters {
                hits: self.tlb_hits,
                misses: self.tlb_misses,
                flushes: 0,
                conflicts: self.key_conflicts,
            },
            dtlb: isa_obs::CacheCounters {
                hits: self.dtlb_hits,
                misses: self.dtlb_misses,
                flushes: 0,
                conflicts: self.dtlb_conflicts,
            },
        }
    }
}

/// What a lookup found.
pub enum Lookup {
    /// Translation and decode both cached.
    Hit {
        /// Physical fetch address.
        paddr: u64,
        /// The cached decode.
        d: Decoded,
        /// Page-table reads the original walk performed (replay into
        /// the retired event).
        walk_reads: u8,
    },
    /// Translation cached, instruction slot empty — load + decode, then
    /// call [`BbCache::fill_slot`].
    Translated {
        /// Physical fetch address.
        paddr: u64,
        /// Page-table reads the original walk performed.
        walk_reads: u8,
    },
    /// Nothing cached for this (page, context) — walk, then call
    /// [`BbCache::fill_translation`].
    Miss,
}

/// The predecoded basic-block cache. One per [`crate::Machine`]; all
/// cross-hart coherence goes through the bus epoch, so the cache itself
/// is single-threaded state.
pub struct BbCache {
    entries: Vec<Entry>,
    /// Data-translation entries, same invalidation contract as the
    /// fetch side (PTE lines marked at fill, epoch flush on mutation).
    dtlb: Vec<DtlbEntry>,
    /// Last bus code epoch this cache was synchronized to.
    code_epoch: u64,
    /// Compiled superblocks held across all entries.
    blocks: usize,
    /// Counter tallies.
    pub stats: BbStats,
}

impl Default for BbCache {
    fn default() -> Self {
        BbCache::new()
    }
}

impl BbCache {
    /// An empty cache.
    pub fn new() -> BbCache {
        BbCache {
            entries: (0..ENTRIES).map(|_| Entry::empty()).collect(),
            dtlb: vec![DtlbEntry::empty(); DTLB_ENTRIES],
            code_epoch: 0,
            blocks: 0,
            stats: BbStats::default(),
        }
    }

    /// Compare the bus code epoch against the last value seen and
    /// flush everything when it moved: a store dirtied a cached code
    /// *or PTE* line, which invalidates decoded bytes and every
    /// translation (fetch and data). Called before every fetch; the
    /// common no-change case costs one compare. Returns whether the
    /// flush dropped any compiled block.
    #[inline]
    pub fn sync_epochs(&mut self, code_epoch: u64) -> bool {
        if self.code_epoch == code_epoch {
            return false;
        }
        self.code_epoch = code_epoch;
        self.flush_all()
    }

    #[inline]
    pub(crate) fn index(vpage: u64, key: &FetchKey) -> usize {
        // Fibonacci hashing over (vpage, satp): consecutive pages of
        // one address space spread, and the same page under different
        // address spaces lands in different entries.
        let h = vpage
            .wrapping_add(key.satp.rotate_left(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 40) as usize) & (ENTRIES - 1)
    }

    /// Look up the fetch at `vaddr` (must be 4-byte aligned) under `key`.
    #[inline]
    pub fn lookup(&mut self, vaddr: u64, key: &FetchKey) -> Lookup {
        let vpage = vaddr >> 12;
        let e = &self.entries[Self::index(vpage, key)];
        if e.vpage != vpage || e.key != *key {
            if e.vpage == INVALID {
                // Cold: nothing was ever here (or a flush emptied it).
                self.stats.tlb_misses += 1;
                self.stats.decode_misses += 1;
            } else {
                // A different valid (page, context) occupies the slot:
                // a conflict eviction, not a cold miss. Keeping these
                // out of the miss tallies keeps `hit_rate` honest.
                self.stats.key_conflicts += 1;
            }
            return Lookup::Miss;
        }
        self.stats.tlb_hits += 1;
        let paddr = e.phys_base | (vaddr & 0xfff);
        let walk_reads = e.walk_reads;
        let slot = (vaddr as usize >> 2) & (PAGE_SLOTS - 1);
        match e.slots.as_ref().and_then(|s| s[slot]) {
            Some(d) => {
                self.stats.decode_hits += 1;
                Lookup::Hit {
                    paddr,
                    d,
                    walk_reads,
                }
            }
            None => {
                self.stats.decode_misses += 1;
                Lookup::Translated { paddr, walk_reads }
            }
        }
    }

    #[inline]
    fn dindex(vpage: u64, key: &FetchKey, write: bool) -> usize {
        // Sv39 vpages fit in 27 bits, so the write direction can ride
        // in a high bit of the same Fibonacci hash.
        let h = (vpage | ((write as u64) << 45))
            .wrapping_add(key.satp.rotate_left(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 40) as usize) & (DTLB_ENTRIES - 1)
    }

    /// Look up a paged data access at `vaddr` under `key`; `write`
    /// selects store/AMO translations. Returns `(paddr, walk_reads)` on
    /// a hit. Callers must [`BbCache::sync_epochs`] first and must not
    /// consult the TLB for bare/M-mode accesses (the walker's early-out
    /// is already cheaper than a lookup).
    #[inline]
    pub fn lookup_data(&mut self, vaddr: u64, key: &FetchKey, write: bool) -> Option<(u64, u8)> {
        let vpage = vaddr >> 12;
        let e = &self.dtlb[Self::dindex(vpage, key, write)];
        if e.vpage == vpage && e.write == write && e.key == *key {
            self.stats.dtlb_hits += 1;
            Some((e.phys_base | (vaddr & 0xfff), e.walk_reads))
        } else {
            if e.vpage == INVALID {
                self.stats.dtlb_misses += 1;
            } else {
                self.stats.dtlb_conflicts += 1;
            }
            None
        }
    }

    /// Install a data translation for `vaddr`'s page. `phys_base` must
    /// be the page-aligned physical base the walker resolved; the caller
    /// marks the walked PTE lines so mutation flushes this entry.
    pub fn fill_data(
        &mut self,
        vaddr: u64,
        key: FetchKey,
        write: bool,
        phys_base: u64,
        walk_reads: u8,
    ) {
        let vpage = vaddr >> 12;
        let e = &mut self.dtlb[Self::dindex(vpage, &key, write)];
        *e = DtlbEntry {
            vpage,
            key,
            write,
            phys_base: phys_base & !0xfff,
            walk_reads,
        };
    }

    /// Install the translation for `vaddr`'s page, evicting whatever
    /// occupied the direct-mapped slot — decode slots and compiled
    /// blocks included. `phys_base` must be the page-aligned physical
    /// base the walker resolved.
    pub fn fill_translation(&mut self, vaddr: u64, key: FetchKey, phys_base: u64, walk_reads: u8) {
        let vpage = vaddr >> 12;
        let e = &mut self.entries[Self::index(vpage, &key)];
        e.vpage = vpage;
        e.key = key;
        e.phys_base = phys_base & !0xfff;
        e.walk_reads = walk_reads;
        if let Some(s) = e.slots.as_deref_mut() {
            s.fill(None);
        }
        self.blocks -= e.drop_code();
    }

    /// Cache the decode of the instruction at `vaddr` in its page entry.
    /// A no-op if the entry was evicted between lookup and fill.
    #[inline]
    pub fn fill_slot(&mut self, vaddr: u64, key: &FetchKey, d: Decoded) {
        let vpage = vaddr >> 12;
        let e = &mut self.entries[Self::index(vpage, key)];
        if e.vpage == vpage && e.key == *key {
            let s = e.slots.get_or_insert_with(|| {
                vec![None; PAGE_SLOTS]
                    .into_boxed_slice()
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("vec length is PAGE_SLOTS"))
            });
            s[(vaddr as usize >> 2) & (PAGE_SLOTS - 1)] = Some(d);
        }
    }

    /// Drop every entry (counted as one flush). Code-epoch movement — a
    /// store into a cached code or PTE line — is the only cause;
    /// `FENCE.I`/`SFENCE.VMA` need no flush of their own because every
    /// block they could affect was already dropped here when the
    /// underlying store happened (see the module docs). Returns whether
    /// any compiled block was dropped.
    pub fn flush_all(&mut self) -> bool {
        self.stats.flushes += 1;
        let held = self.blocks;
        for e in &mut self.entries {
            e.vpage = INVALID;
            self.blocks -= e.drop_code();
        }
        for e in &mut self.dtlb {
            e.vpage = INVALID;
        }
        held > 0
    }

    /// The cached code page at `vaddr` under `key`, for the superblock
    /// JIT: `None` when the page is not cached under `key` or has no
    /// decode slot filled yet. Non-counting, so neither dispatch nor
    /// compilation perturbs the `bbcache.*` tallies.
    pub(crate) fn code_page(&mut self, vaddr: u64, key: &FetchKey) -> Option<CodePage<'_>> {
        let vpage = vaddr >> 12;
        let entry = Self::index(vpage, key);
        let e = &mut self.entries[entry];
        if e.vpage != vpage || e.key != *key {
            return None;
        }
        Some(CodePage {
            at: PageAt {
                entry: entry as u16,
                gen: e.gen,
            },
            phys_base: e.phys_base,
            walk_reads: e.walk_reads,
            slots: e.slots.as_deref()?,
            code: &mut e.code,
            held: &mut self.blocks,
        })
    }

    /// The compiled blocks of the entry `at` names — one generation
    /// compare — or `None` once anything it held was dropped.
    #[inline]
    pub(crate) fn blocks_at(&mut self, at: PageAt) -> Option<&mut PageBlocks> {
        let e = &mut self.entries[at.entry as usize];
        (e.gen == at.gen).then_some(&mut e.code)
    }

    /// Credit `n` fetches served from a compiled superblock: each
    /// JIT-executed op corresponds to exactly one [`Lookup::Hit`] the
    /// stepped interpreter would have counted (the block was compiled
    /// from filled decode slots), so crediting keeps the `bbcache.*`
    /// counters bit-identical with the JIT on or off.
    #[inline]
    pub fn credit_jit(&mut self, n: u64) {
        self.stats.tlb_hits += n;
        self.stats.decode_hits += n;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::addr;
    use crate::decode::decode;
    use crate::{Extension, Machine, DEFAULT_RAM_BASE as RAM};
    use isa_asm::{Asm, Reg::*};

    fn key() -> FetchKey {
        FetchKey::new(Priv::M, 0, 0, 0)
    }

    fn nop() -> Decoded {
        decode(0x0000_0013).expect("nop decodes")
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut bb = BbCache::new();
        let k = key();
        assert!(matches!(bb.lookup(0x8000_0000, &k), Lookup::Miss));
        bb.fill_translation(0x8000_0000, k, 0x8000_0000, 3);
        match bb.lookup(0x8000_0004, &k) {
            Lookup::Translated { paddr, walk_reads } => {
                assert_eq!(paddr, 0x8000_0004);
                assert_eq!(walk_reads, 3);
            }
            _ => panic!("expected translation-only hit"),
        }
        bb.fill_slot(0x8000_0004, &k, nop());
        match bb.lookup(0x8000_0004, &k) {
            Lookup::Hit {
                paddr,
                d,
                walk_reads,
            } => {
                assert_eq!(paddr, 0x8000_0004);
                assert_eq!(d, nop());
                assert_eq!(walk_reads, 3, "hit replays the fill-time walk count");
            }
            _ => panic!("expected full hit"),
        }
        assert_eq!(bb.stats.decode_hits, 1);
        assert_eq!(bb.stats.tlb_hits, 2);
    }

    #[test]
    fn key_mismatch_misses() {
        let mut bb = BbCache::new();
        let k = key();
        bb.fill_translation(0x8000_0000, k, 0x8000_0000, 0);
        bb.fill_slot(0x8000_0000, &k, nop());
        // Different satp: same page must miss.
        let other = FetchKey::new(Priv::S, 8 << 60, 0, 0);
        assert!(matches!(bb.lookup(0x8000_0000, &other), Lookup::Miss));
        // Different privilege level alone must miss too.
        let user = FetchKey::new(Priv::U, 0, 0, 0);
        assert!(matches!(bb.lookup(0x8000_0000, &user), Lookup::Miss));
    }

    #[test]
    fn epoch_change_flushes() {
        let mut bb = BbCache::new();
        let k = key();
        bb.fill_translation(0x8000_0000, k, 0x8000_0000, 0);
        bb.fill_slot(0x8000_0000, &k, nop());
        bb.sync_epochs(0); // no movement: entry survives
        assert!(matches!(bb.lookup(0x8000_0000, &k), Lookup::Hit { .. }));
        bb.sync_epochs(1); // code epoch moved: everything goes
        assert!(matches!(bb.lookup(0x8000_0000, &k), Lookup::Miss));
        assert_eq!(bb.stats.flushes, 1);
    }

    /// An extension whose coherence (shootdown) epoch a test moves by
    /// hand.
    #[derive(Default)]
    pub(crate) struct Shootdowns(pub(crate) u64);

    impl Extension for Shootdowns {
        fn coherence_epoch(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn shootdown_keeps_unrelated_translations_live() {
        // A cross-hart privilege shootdown (coherence epoch move)
        // rewrites privilege tables, not code or page tables: decode
        // slots and fetch and data translations all survive it.
        let mut a = Asm::new(RAM);
        a.label("top");
        a.addi(A0, A0, 1);
        a.j("top");
        let mut m = Machine::new(Shootdowns(0));
        m.set_jit(false);
        m.load_program(&a.assemble().unwrap());
        m.run_steps(4); // fills the translation and both slots
        let k = FetchKey::new(
            Priv::M,
            m.cpu.csrs.read_raw(addr::SATP),
            m.cpu.csrs.read_raw(addr::MSTATUS),
            m.cpu.csrs.read_raw(addr::PKR),
        );
        let bb = m.bbcache.as_deref_mut().expect("bbcache on");
        bb.fill_data(0x5000, k, false, 0x8000_3000, 3);
        let before = bb.stats;
        m.ext.0 = 7;
        m.run_steps(4);
        let bb = m.bbcache.as_deref_mut().expect("bbcache on");
        let s = bb.stats;
        assert_eq!(
            s.decode_hits - before.decode_hits,
            4,
            "every fetch still hits"
        );
        assert_eq!(s.decode_misses, before.decode_misses);
        assert_eq!(s.flushes, 0, "a shootdown flushes nothing");
        assert_eq!(bb.lookup_data(0x5008, &k, false), Some((0x8000_3008, 3)));
        // A code-epoch move still drops everything.
        bb.sync_epochs(m.bus.code_epoch() + 1);
        assert!(matches!(bb.lookup(RAM, &k), Lookup::Miss));
        assert!(bb.lookup_data(0x5000, &k, false).is_none());
        assert_eq!(bb.stats.flushes, 1);
    }

    #[test]
    fn conflict_evictions_counted_separately() {
        let mut bb = BbCache::new();
        let k = key();
        bb.fill_translation(0x8000_0000, k, 0x8000_0000, 0);
        // Find a colliding page: the lookup sees a *valid* foreign
        // entry, which is a conflict, not a cold miss.
        let home = BbCache::index(0x8000_0000u64 >> 12, &k);
        let colliding = (1u64..)
            .map(|i| 0x8000_0000 + i * 4096)
            .find(|&v| BbCache::index(v >> 12, &k) == home)
            .expect("a colliding page exists");
        let cold = bb.stats.tlb_misses;
        assert!(matches!(bb.lookup(colliding, &k), Lookup::Miss));
        assert_eq!(bb.stats.key_conflicts, 1);
        assert_eq!(bb.stats.tlb_misses, cold, "conflicts are not misses");
        assert_eq!(bb.stats.decode_misses, 0);
        // Same split on the data side.
        bb.fill_data(0x5000, k, false, 0x8000_3000, 0);
        let dhome = BbCache::dindex(0x5000u64 >> 12, &k, false);
        let dcoll = (1u64..)
            .map(|i| 0x5000 + i * 4096)
            .find(|&v| BbCache::dindex(v >> 12, &k, false) == dhome)
            .expect("a colliding data page exists");
        assert!(bb.lookup_data(dcoll, &k, false).is_none());
        assert_eq!(bb.stats.dtlb_conflicts, 1);
        assert_eq!(bb.stats.dtlb_misses, 0);
    }

    #[test]
    fn dtlb_separates_reads_from_writes() {
        let mut bb = BbCache::new();
        let k = FetchKey::new(Priv::S, 8 << 60, 0, 0);
        assert!(bb.lookup_data(0x5000, &k, false).is_none());
        bb.fill_data(0x5000, k, false, 0x8000_3000, 3);
        assert_eq!(bb.lookup_data(0x5008, &k, false), Some((0x8000_3008, 3)));
        // A read-translation must never answer a write (D-bit proof).
        assert!(bb.lookup_data(0x5008, &k, true).is_none());
        bb.fill_data(0x5008, k, true, 0x8000_3000, 3);
        assert_eq!(bb.lookup_data(0x5010, &k, true), Some((0x8000_3010, 3)));
        // Key changes (pkr here) miss both directions.
        let denied = FetchKey::new(Priv::S, 8 << 60, 0, 0b01 << 6);
        assert!(bb.lookup_data(0x5000, &denied, false).is_none());
        assert_eq!(bb.stats.dtlb_hits, 2);
    }

    #[test]
    fn flush_drops_data_translations_too() {
        let mut bb = BbCache::new();
        let k = FetchKey::new(Priv::S, 8 << 60, 0, 0);
        bb.fill_data(0x5000, k, false, 0x8000_3000, 3);
        bb.sync_epochs(1);
        assert!(bb.lookup_data(0x5000, &k, false).is_none());
    }

    #[test]
    fn eviction_clears_stale_slots() {
        let mut bb = BbCache::new();
        let k = key();
        bb.fill_translation(0x8000_0000, k, 0x8000_0000, 0);
        bb.fill_slot(0x8000_0000, &k, nop());
        // Find a page that collides in the hashed direct-mapped array;
        // it evicts the old page wholesale.
        let home = BbCache::index(0x8000_0000u64 >> 12, &k);
        let colliding = (1u64..)
            .map(|i| 0x8000_0000 + i * 4096)
            .find(|&v| BbCache::index(v >> 12, &k) == home)
            .expect("a colliding page exists");
        bb.fill_translation(colliding, k, colliding, 0);
        match bb.lookup(colliding, &k) {
            Lookup::Translated { .. } => {}
            _ => panic!("stale slot leaked across eviction"),
        }
        assert!(matches!(bb.lookup(0x8000_0000, &k), Lookup::Miss));
    }
}
