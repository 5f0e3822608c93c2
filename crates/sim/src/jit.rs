//! Superblock JIT over the basic-block cache.
//!
//! The bbcache (PR 3) removed translate+decode from the hot loop; the
//! per-instruction *dispatch* — epoch sync, cache lookup, PCU
//! instruction check, timing virtual call — remained. This layer
//! translates hot basic blocks into straight-line [`Op`] arrays that
//! execute without re-entering [`crate::Machine::step`] at all, chains
//! blocks to their resolved successors so hot loops never re-hash, and
//! hoists the PCU instruction-bitmap check to one per-block guard.
//!
//! ## The guard
//!
//! A block is compiled under a [`JitGuard`]: the active/inactive check
//! regime, the ISA domain, the coherence epoch, and — crucially — the
//! *contents* of the domain's instruction bitmap. Comparing the bitmap
//! words themselves (not a version counter) makes the guard exactly as
//! fresh as the stepped interpreter's bypass register (`ipr`): a table
//! rewrite that the stepped path would not observe until `pflh` or a
//! shootdown is, by construction, also unobserved here, and anything
//! that *does* reload the bypass register produces different words and
//! fails the guard. Every block entry compares the full guard; any
//! mismatch falls back to the interpreter (`guard_misses`).
//!
//! The PCU only vends an *active* guard when its fast path is pure —
//! bypass register valid, no legal-instruction cache, no pending
//! shootdown, no fault plan, not poisoned, no event ring — so skipping the
//! per-instruction [`crate::Extension::check_inst`] call changes no
//! architectural or exported state. The per-op bookkeeping that remains
//! (commit count, check tally) is replayed through
//! [`crate::Extension::jit_commit`].
//!
//! ## Invalidation
//!
//! Blocks reuse the bbcache contract verbatim: the bus `code_epoch`
//! (SMC and PTE stores) and the extension `coherence_epoch` (privilege
//! shootdowns) are compared on every dispatch and the whole cache is
//! dropped on movement. In-block stores are followed by an epoch check
//! so a store that invalidates its own block deoptimizes *at the
//! causing store*, and MMIO stores (the halt latch) deoptimize so the
//! run loop observes them immediately. Snapshots never serialize JIT
//! state: restore brings the cache up cold and the walk-replay
//! invariant keeps digests bit-identical.
//!
//! ## Determinism
//!
//! Blocks are bounded by [`MAX_OPS`], never cross a step budget, and
//! are only entered when no interrupt is pending and the virtual timer
//! cannot fire inside them — `Session` quanta, `SmpSession` rounds, and
//! watchdog budgets observe identical step counts with the JIT on or
//! off. Under `Smp::run_concurrent` (real host threads, already
//! nondeterministic), remote SMC or shootdowns become visible at block
//! boundaries, within [`MAX_OPS`] retired instructions.

use crate::bbcache::{BbCache, FetchKey, PAGE_SLOTS};
use crate::cpu::{ExtEvents, Extension, Machine, Retired};
use crate::decode::{Decoded, Kind};
use crate::trap::Priv;
use isa_obs::DeoptReason;

/// Words in the guard's instruction-bitmap image (one bit per [`Kind`]).
pub const GUARD_WORDS: usize = Kind::COUNT.div_ceil(64);

/// Promotion threshold: dispatch visits to a block head (under one
/// fetch context) before it is compiled.
pub const HOT_THRESHOLD: u32 = 16;

/// Maximum instructions per superblock. Also the bound on how stale a
/// concurrently-published invalidation can be observed (see module docs).
pub const MAX_OPS: usize = 64;

// Dynamic timing records name their op by a `u8` index.
const _: () = assert!(MAX_OPS <= u8::MAX as usize + 1);

/// Compiled blocks retained between flushes; compilation pauses at the
/// cap (dispatch still runs) rather than evicting, since epoch flushes
/// already bound the set's lifetime.
const MAX_BLOCKS: usize = 4096;

/// Direct-mapped dispatch-map entries; must be a power of two.
const MAP_ENTRIES: usize = 2048;

/// Direct-mapped promotion-counter entries; must be a power of two.
const HEAT_ENTRIES: usize = 1024;

/// Sentinel block id for "no link resolved yet".
const NO_LINK: u32 = u32::MAX;

/// Heat value marking a head as not worth compiling (uncompilable lead
/// instruction). Evicted like any other heat entry, so a poisoned head
/// is retried only after its slot is recycled.
const POISON: u32 = u32::MAX;

/// The privilege regime a superblock was compiled under. Equality of
/// the whole struct is the per-block entry check that replaces the
/// per-instruction PCU bitmap lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitGuard {
    /// Whether the PCU instruction check applies at all (outside
    /// M-mode and domain 0). Inactive guards allow every class, exactly
    /// like [`crate::Extension::check_inst`]'s early-out.
    pub active: bool,
    /// ISA domain the block was validated for.
    pub domain: u64,
    /// Extension coherence epoch at compile time.
    pub epoch: u64,
    /// The domain's instruction bitmap at compile time (all-zero for
    /// inactive guards).
    pub words: [u64; GUARD_WORDS],
}

impl JitGuard {
    /// The guard of an extension with no privilege checks at all
    /// ([`crate::NullExtension`] and friends).
    pub const INACTIVE: JitGuard = JitGuard {
        active: false,
        domain: 0,
        epoch: 0,
        words: [0; GUARD_WORDS],
    };

    /// Whether `kind` passes this guard's bitmap — the compile-time
    /// image of the stepped per-instruction check.
    #[inline]
    pub fn allows(&self, kind: Kind) -> bool {
        if !self.active {
            return true;
        }
        let i = kind.class_index();
        self.words[i / 64] >> (i % 64) & 1 != 0
    }
}

/// Whether `kind` may appear mid-block: straight-line ALU and plain
/// loads/stores. Everything serializing (CSR, fences, ecall/ebreak,
/// xret, wfi, custom) and everything with cross-step state (LR/SC,
/// AMOs) ends a block so the interpreter's exact semantics apply.
#[inline]
fn plain_op(kind: Kind) -> bool {
    !(kind.is_serializing()
        || kind.is_amo()
        || matches!(kind, Kind::LrW | Kind::LrD | Kind::ScW | Kind::ScD)
        || control_flow(kind))
}

/// Whether `kind` transfers control (may only be a block's last op).
#[inline]
fn control_flow(kind: Kind) -> bool {
    kind.is_branch() || matches!(kind, Kind::Jal | Kind::Jalr)
}

/// Whether a just-interpreted instruction of this kind leaves the PC at
/// a potential block head (so the run loop should probe the dispatch
/// map again). `None` kinds are fetch/decode faults — the trap vector
/// is a head.
#[inline]
pub(crate) fn ends_block(kind: Option<Kind>) -> bool {
    kind.is_none_or(|k| !plain_op(k))
}

/// One compiled instruction (its retire-event template lives in
/// [`Block::tmpls`] at the same index).
struct Op {
    d: Decoded,
    /// Load or store: drain extension events and check for deopt.
    is_mem: bool,
    /// Store: re-check epochs and RAM-ness after executing.
    is_store: bool,
}

/// How a completed block decides its successor.
enum BlockEnd {
    /// Last op is a conditional branch.
    Branch {
        /// Taken-path target.
        taken: u64,
        /// Fallthrough pc.
        fall: u64,
    },
    /// Last op is a direct jump (`jal`) or the block simply runs into
    /// its successor (page end, cold slot, uncompilable next op).
    Fixed(u64),
    /// Last op is an indirect jump (`jalr`): successor varies, resolved
    /// through the dispatch map each time.
    Indirect,
}

/// A compiled superblock.
struct Block {
    guard: JitGuard,
    key: FetchKey,
    ops: Box<[Op]>,
    /// Per-op retire-event templates (pc, fetch physical address, kind,
    /// raw, privilege, fill-time walk depth, `next_pc = pc + 4`), handed
    /// to [`crate::TimingSink::retire_block`] as they are.
    tmpls: Box<[Retired]>,
    end: BlockEnd,
    /// Resolved successor block ids ([`NO_LINK`] until first taken).
    /// Links are ids into the same generation's block list — a flush
    /// drops blocks and links together, so a resolved link can never
    /// dangle.
    link_taken: u32,
    link_fall: u32,
}

#[derive(Debug, Clone, Copy)]
struct MapEntry {
    pc: u64,
    key: FetchKey,
    id: u32,
}

#[derive(Debug, Clone, Copy)]
struct HeatEntry {
    pc: u64,
    tag: u64,
    heat: u32,
}

/// Superblock-JIT tallies, exported as the `jit.*` counter block.
#[derive(Debug, Default, Clone, Copy)]
pub struct JitStats {
    /// Blocks compiled.
    pub compiled: u64,
    /// Block entries (guard passed, ops executed).
    pub entered: u64,
    /// Instructions retired inside blocks.
    pub ops: u64,
    /// Block-to-block transfers through a resolved link (no re-hash).
    pub linked: u64,
    /// Block entries refused because the guard mismatched.
    pub guard_misses: u64,
    /// Blocks exited early (trap, MMIO store, epoch movement).
    pub deopts: u64,
    /// Whole-cache flushes (code or coherence epoch movement).
    pub flushes: u64,
    /// Per-reason bail events, indexed by [`DeoptReason`]. Wider than
    /// `deopts`: it also counts pre-dispatch refusals (guard miss,
    /// pending interrupt, timer window, step budget), so
    /// `deopt_by[Guard] == guard_misses` and
    /// `deopt_by[Trap] + deopt_by[Mmio] + deopt_by[Epoch] >= deopts`
    /// (pre-entry epoch re-reads land on `Epoch` without a `deopts`
    /// tick).
    pub deopt_by: [u64; DeoptReason::COUNT],
}

impl JitStats {
    /// Snapshot into the `isa-obs` counter block.
    pub fn counters(&self) -> isa_obs::JitCounters {
        isa_obs::JitCounters {
            compiled: self.compiled,
            entered: self.entered,
            ops: self.ops,
            linked: self.linked,
            guard_misses: self.guard_misses,
            deopts: self.deopts,
            flushes: self.flushes,
            deopt_by: self.deopt_by,
        }
    }

    fn note(&mut self, reason: DeoptReason) {
        self.deopt_by[reason.index()] += 1;
    }
}

/// The per-machine superblock cache: compiled blocks, the direct-mapped
/// dispatch map, and promotion counters. Purely host-side state — never
/// snapshotted, always rebuilt cold after restore.
pub struct Jit {
    blocks: Vec<Block>,
    map: Vec<MapEntry>,
    heat: Vec<HeatEntry>,
    code_epoch: u64,
    ext_epoch: u64,
    /// Slots for the executed records of one block that differ from its
    /// templates ([`crate::TimingSink::retire_block`]'s `dynamic`),
    /// grown to the longest block run so records are written in place.
    dynamic: Vec<(u8, Retired)>,
    /// Counter tallies.
    pub stats: JitStats,
}

impl Default for Jit {
    fn default() -> Self {
        Jit::new()
    }
}

impl Jit {
    /// An empty JIT cache.
    pub fn new() -> Jit {
        Jit {
            blocks: Vec::new(),
            map: vec![
                MapEntry {
                    pc: u64::MAX,
                    key: FetchKey::new(Priv::M, 0, 0, 0),
                    id: NO_LINK,
                };
                MAP_ENTRIES
            ],
            heat: vec![
                HeatEntry {
                    pc: u64::MAX,
                    tag: 0,
                    heat: 0,
                };
                HEAT_ENTRIES
            ],
            code_epoch: 0,
            ext_epoch: 0,
            dynamic: Vec::new(),
            stats: JitStats::default(),
        }
    }

    /// Compare both epochs against the last values seen and drop every
    /// block on movement. Same contract as [`BbCache::sync_epochs`],
    /// except blocks bake privilege decisions, so the coherence epoch
    /// flushes them too (the bbcache keeps its translations).
    #[inline]
    fn sync_epochs(&mut self, code_epoch: u64, ext_epoch: u64) {
        if self.code_epoch != code_epoch || self.ext_epoch != ext_epoch {
            self.code_epoch = code_epoch;
            self.ext_epoch = ext_epoch;
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.blocks.is_empty() {
            self.stats.flushes += 1;
        }
        self.blocks.clear();
        for e in &mut self.map {
            e.pc = u64::MAX;
        }
        for e in &mut self.heat {
            e.pc = u64::MAX;
            e.heat = 0;
        }
    }

    #[inline]
    fn map_index(pc: u64, key: &FetchKey) -> usize {
        let h = (pc >> 2)
            .wrapping_add(key.satp.rotate_left(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 40) as usize) & (MAP_ENTRIES - 1)
    }

    #[inline]
    fn heat_index(pc: u64, tag: u64) -> usize {
        let h = (pc >> 2)
            .wrapping_add(tag.rotate_left(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 40) as usize) & (HEAT_ENTRIES - 1)
    }

    #[inline]
    fn key_tag(key: &FetchKey) -> u64 {
        key.satp ^ key.pkr.rotate_left(23) ^ key.mode.rotate_left(47)
    }

    /// Look up a compiled block for `(pc, key)`.
    #[inline]
    fn lookup(&self, pc: u64, key: &FetchKey) -> Option<u32> {
        let e = &self.map[Self::map_index(pc, key)];
        (e.pc == pc && e.key == *key).then_some(e.id)
    }

    fn insert(&mut self, pc: u64, key: FetchKey, block: Block) -> u32 {
        let id = self.blocks.len() as u32;
        self.blocks.push(block);
        self.map[Self::map_index(pc, &key)] = MapEntry { pc, key, id };
        self.stats.compiled += 1;
        id
    }

    /// Bump the promotion counter for a dispatch miss at `(pc, key)`;
    /// returns `true` when the head just crossed [`HOT_THRESHOLD`].
    fn bump_heat(&mut self, pc: u64, key: &FetchKey) -> bool {
        let tag = Self::key_tag(key);
        let e = &mut self.heat[Self::heat_index(pc, tag)];
        if e.pc == pc && e.tag == tag {
            if e.heat == POISON {
                return false;
            }
            e.heat += 1;
            e.heat >= HOT_THRESHOLD
        } else {
            // Conflict or cold: take over the direct-mapped slot.
            *e = HeatEntry { pc, tag, heat: 1 };
            false
        }
    }

    fn set_heat(&mut self, pc: u64, key: &FetchKey, heat: u32) {
        let tag = Self::key_tag(key);
        let e = &mut self.heat[Self::heat_index(pc, tag)];
        if e.pc == pc && e.tag == tag {
            e.heat = heat;
        }
    }
}

/// Compile the straight-line block at `pc0` from already-filled bbcache
/// decode slots. Pure read: no cache state or accounting is perturbed
/// (`peek_page` is non-counting), so compiling is digest-invisible.
/// Returns `None` when the head instruction itself is uncompilable.
fn compile(
    bb: &BbCache,
    guard: &JitGuard,
    pc0: u64,
    key: &FetchKey,
    priv_level: Priv,
) -> Option<Block> {
    let (phys_base, walk_reads, slots) = bb.peek_page(pc0, key)?;
    let mut ops: Vec<Op> = Vec::new();
    let mut tmpls: Vec<Retired> = Vec::new();
    let mut end = None;
    let mut pc = pc0;
    while ops.len() < MAX_OPS && pc >> 12 == pc0 >> 12 {
        let Some(d) = slots[(pc as usize >> 2) & (PAGE_SLOTS - 1)] else {
            break; // cold slot: end the block, interpreter fills it
        };
        // An instruction the guard denies would trap: leave it (and its
        // audit/denial bookkeeping) entirely to the interpreter.
        if !guard.allows(d.kind) || !(plain_op(d.kind) || control_flow(d.kind)) {
            break;
        }
        let kind = d.kind;
        // The template replays the fill-time walk depth exactly like a
        // bbcache hit, so modeled timing is bit-identical to stepping.
        tmpls.push(Retired {
            pc,
            fetch_paddr: phys_base | (pc & 0xfff),
            next_pc: pc.wrapping_add(4),
            kind: Some(kind),
            raw: d.raw,
            priv_level,
            mem: None,
            branch_taken: false,
            trap_cause: None,
            walk_reads,
            ext: ExtEvents::default(),
        });
        ops.push(Op {
            d,
            is_mem: kind.is_load() || kind.is_store(),
            is_store: kind.is_store(),
        });
        if control_flow(kind) {
            end = Some(match kind {
                Kind::Jal => BlockEnd::Fixed(pc.wrapping_add(d.imm as u64)),
                Kind::Jalr => BlockEnd::Indirect,
                _ => BlockEnd::Branch {
                    taken: pc.wrapping_add(d.imm as u64),
                    fall: pc.wrapping_add(4),
                },
            });
            break;
        }
        pc = pc.wrapping_add(4);
    }
    if ops.is_empty() {
        return None;
    }
    let end = end.unwrap_or(BlockEnd::Fixed(pc));
    Some(Block {
        guard: *guard,
        key: *key,
        ops: ops.into_boxed_slice(),
        tmpls: tmpls.into_boxed_slice(),
        end,
        link_taken: NO_LINK,
        link_fall: NO_LINK,
    })
}

/// Outcome of executing one block.
struct BlockExit {
    /// Steps consumed (committed instructions + at most one trap).
    executed: u64,
    /// `false` when the block exited early (trap, MMIO store, epoch
    /// movement) and the chain must deoptimize to the interpreter.
    completed: bool,
    /// Why the block exited early (set iff `!completed`).
    reason: Option<DeoptReason>,
}

impl<E: Extension> Machine<E> {
    /// Execute up to `budget` steps, routing hot code through compiled
    /// superblocks. Architecturally (and in modeled cycles, trap
    /// counts, CSR state, exported counters that stepped execution
    /// moves) equivalent to calling [`Machine::step`] `budget` times
    /// and stopping after a step that halts the hart. Returns the steps
    /// consumed.
    pub fn run_steps(&mut self, budget: u64) -> u64 {
        let mut done = 0u64;
        // Only probe the dispatch map when the PC can be a block head:
        // after control transfers, traps, interrupts, and block-ender
        // instructions. Mid-straight-line PCs never start a block.
        let mut probe = true;
        while done < budget {
            if probe && self.jit.is_some() {
                done += self.jit_run(budget - done);
                if done >= budget || self.bus.halted().is_some() {
                    break;
                }
            }
            // Interpret at least one instruction (cold code, a
            // block-ender, a guard miss, or a pending interrupt) before
            // probing again.
            let ev = self.step();
            done += 1;
            if self.bus.halted().is_some() {
                break;
            }
            probe = match &ev {
                None => true, // interrupt redirect
                Some(r) => {
                    r.trap_cause.is_some()
                        || r.next_pc != r.pc.wrapping_add(4)
                        || ends_block(r.kind)
                }
            };
        }
        done
    }

    /// Compile the block at `(pc, key)` into `jit` and map it. On
    /// failure, poisons the head (uncompilable lead instruction) or
    /// re-arms the promotion counter (cold decode slot, so the very
    /// next interpreted visit fills it and compilation retries).
    fn jit_compile(&self, jit: &mut Jit, guard: &JitGuard, pc: u64, key: &FetchKey) -> Option<u32> {
        let bb = self.bbcache.as_deref()?;
        match compile(bb, guard, pc, key, self.cpu.priv_level) {
            Some(b) => Some(jit.insert(pc, *key, b)),
            None => {
                let cold_slot = bb
                    .peek_page(pc, key)
                    .is_none_or(|(_, _, s)| s[(pc as usize >> 2) & (PAGE_SLOTS - 1)].is_none());
                let h = if cold_slot { HOT_THRESHOLD } else { POISON };
                jit.set_heat(pc, key, h);
                None
            }
        }
    }

    /// Dispatch loop: enter the block at the current PC if one is
    /// compiled and its guard matches, chain through resolved links,
    /// and stop strictly before `fuel` runs out or anything needs the
    /// interpreter. Returns the steps consumed.
    fn jit_run(&mut self, fuel: u64) -> u64 {
        // The event ring and the profile want every step; leave the
        // whole fast path to them.
        if self.obs.per_step() {
            return 0;
        }
        // Never enter a block while an interrupt is deliverable (the
        // stepped path would redirect this very step) …
        if self.pending_interrupt().is_some() {
            if let Some(j) = self.jit.as_mut() {
                j.stats.note(DeoptReason::Interrupt);
            }
            return 0;
        }
        // … and never let the virtual timer fire inside a block: with
        // `timer_phase + f < timer_every` for every in-block step f,
        // the stepped path would not have fired either.
        let fuel = match self.timer_every {
            Some(n) => {
                let left = n.saturating_sub(self.timer_phase());
                if left <= 1 {
                    if let Some(j) = self.jit.as_mut() {
                        j.stats.note(DeoptReason::Timer);
                    }
                    return 0;
                }
                fuel.min(left - 1)
            }
            None => fuel,
        };
        if fuel == 0 || self.bbcache.is_none() {
            return 0;
        }
        let Some(guard) = self.ext.jit_guard(&self.cpu) else {
            return 0;
        };
        let mut jit = match self.jit.take() {
            Some(j) => j,
            None => return 0,
        };
        let code_epoch = self.bus.code_epoch();
        jit.sync_epochs(code_epoch, self.ext.coherence_epoch());

        let key = {
            use crate::csr::addr;
            let c = &self.cpu.csrs;
            FetchKey::new(
                self.cpu.priv_level,
                c.read_raw(addr::SATP),
                c.read_raw(addr::MSTATUS),
                c.read_raw(addr::PKR),
            )
        };
        let flat = self.timing.flat_cost();
        let mut executed = 0u64;
        let mut via_link = NO_LINK;
        loop {
            let pc = self.cpu.pc;
            let (id, linked) = if via_link != NO_LINK {
                (via_link, true)
            } else {
                if !pc.is_multiple_of(4) {
                    break; // the interpreter raises the misaligned trap
                }
                match jit.lookup(pc, &key) {
                    Some(id) => (id, false),
                    None => {
                        if !jit.bump_heat(pc, &key) || jit.blocks.len() >= MAX_BLOCKS {
                            break;
                        }
                        match self.jit_compile(&mut jit, &guard, pc, &key) {
                            Some(id) => (id, false),
                            None => break,
                        }
                    }
                }
            };
            let block = &jit.blocks[id as usize];
            if block.guard != guard || block.key != key {
                jit.stats.guard_misses += 1;
                jit.stats.note(DeoptReason::Guard);
                if linked {
                    // A resolved link outlived its guard: retry this pc
                    // through the dispatch map.
                    via_link = NO_LINK;
                    continue;
                }
                // The mapped block was compiled under a different
                // regime (e.g. the same code hot in another domain):
                // recompile under the current guard and replace the map
                // entry. The stale block stays until the next flush;
                // links into it fail the same guard check.
                if jit.blocks.len() >= MAX_BLOCKS
                    || self.jit_compile(&mut jit, &guard, pc, &key).is_none()
                {
                    break;
                }
                continue;
            }
            if linked {
                jit.stats.linked += 1;
            }
            if executed + block.ops.len() as u64 > fuel {
                jit.stats.note(DeoptReason::Budget);
                break; // would cross the step budget: let the caller decide
            }
            // Concurrent invalidations (run_concurrent only) surface at
            // block granularity: re-read both epochs before entering.
            if self.bus.code_epoch() != code_epoch || self.ext.coherence_epoch() != guard.epoch {
                jit.stats.note(DeoptReason::Epoch);
                break;
            }
            jit.stats.entered += 1;
            let block = &jit.blocks[id as usize];
            let exit = match flat {
                Some(cost) => self.exec_block::<true>(block, &mut jit.dynamic, code_epoch, cost),
                None => self.exec_block::<false>(block, &mut jit.dynamic, code_epoch, 0),
            };
            executed += exit.executed;
            jit.stats.ops += exit.executed;
            if !exit.completed {
                let reason = exit.reason.unwrap_or(DeoptReason::Trap);
                jit.stats.deopts += 1;
                jit.stats.note(reason);
                if self.obs.is_enabled() {
                    let t = self.cpu.csrs.read_raw(crate::csr::addr::CYCLE);
                    self.obs.request(t, || isa_obs::ReqEvent::Deopt { reason });
                }
                break;
            }
            if self.bus.halted().is_some() {
                break;
            }
            // Resolve the successor: record the link the first time so
            // the hot path never re-hashes.
            let next_pc = self.cpu.pc;
            via_link = {
                let block = &jit.blocks[id as usize];
                let (slot_val, target) = match block.end {
                    BlockEnd::Fixed(t) => (block.link_taken, t),
                    BlockEnd::Branch { taken, fall } => {
                        if next_pc == taken {
                            (block.link_taken, taken)
                        } else {
                            (block.link_fall, fall)
                        }
                    }
                    BlockEnd::Indirect => (NO_LINK, next_pc),
                };
                if slot_val != NO_LINK && next_pc == target {
                    slot_val
                } else if next_pc == target {
                    match jit.lookup(next_pc, &key) {
                        Some(nid) => {
                            let block = &mut jit.blocks[id as usize];
                            match block.end {
                                BlockEnd::Fixed(_) => block.link_taken = nid,
                                BlockEnd::Branch { taken, .. } => {
                                    if next_pc == taken {
                                        block.link_taken = nid;
                                    } else {
                                        block.link_fall = nid;
                                    }
                                }
                                BlockEnd::Indirect => {}
                            }
                            nid
                        }
                        None => NO_LINK,
                    }
                } else {
                    NO_LINK
                }
            };
            if via_link == NO_LINK && matches!(jit.blocks[id as usize].end, BlockEnd::Indirect) {
                // Indirect targets re-hash; anything else falls back to
                // the top of the loop (heat/compile) on the next pass.
                via_link = jit.lookup(next_pc, &key).unwrap_or(NO_LINK);
            }
        }
        // The stepped path only advances the phase when a timer is
        // armed; mirror that so the snapshot seam stays bit-identical.
        if self.timer_every.is_some() {
            self.set_timer_phase(self.timer_phase() + executed);
        }
        self.steps += executed;
        self.jit = Some(jit);
        executed
    }

    /// Execute one compiled block. Per op this replays exactly what
    /// [`Machine::step`] does on the bbcache fast path — commit
    /// bookkeeping, walk-count replay, execute, retire — minus the
    /// dispatch the guard already hoisted.
    ///
    /// Every op executes into the next free `dynamic` slot. Only
    /// loads/stores and the last executed op start it from their
    /// template and keep it (it is not read back until the block
    /// retires). Every other op's executed record equals its template,
    /// so [`crate::TimingSink::retire_block`] reads that from
    /// [`Block::tmpls`]; such an op writes nothing into the slot, which
    /// the next kept record takes over. `FLAT` is set for a flat-cost
    /// sink (NullTiming), which never reads events: nothing is kept and
    /// the block is charged `ops × flat_cost`, the same sum a per-event
    /// loop produces.
    fn exec_block<const FLAT: bool>(
        &mut self,
        b: &Block,
        dynamic: &mut Vec<(u8, Retired)>,
        code_epoch: u64,
        flat_cost: u64,
    ) -> BlockExit {
        let active = b.guard.active;
        let last = b.ops.len() - 1;
        if dynamic.len() < b.ops.len() {
            dynamic.resize(b.ops.len(), (0, b.tmpls[0]));
        }
        let mut recorded = 0;
        let mut executed = 0u64;
        let mut committed = 0u64;
        let mut completed = true;
        let mut reason = None;
        for (i, (op, tmpl)) in b.ops.iter().zip(b.tmpls.iter()).enumerate() {
            executed += 1;
            if tmpl.walk_reads > 0 {
                self.cpu.csrs.count_walk();
            }
            // The per-instruction check the guard stands in for still
            // moves the PCU commit counter and check tally.
            self.ext.jit_commit(active);
            let tracked = op.is_mem || i == last;
            let slot = &mut dynamic[recorded];
            if tracked {
                slot.1 = *tmpl;
                if !FLAT {
                    slot.0 = i as u8;
                    recorded += 1;
                }
            }
            let ev = &mut slot.1;
            match self.execute(&op.d, ev) {
                Ok(next_pc) => {
                    self.cpu.pc = next_pc;
                    ev.next_pc = next_pc;
                    committed += 1;
                }
                Err(e) => {
                    // INSTRET is architectural at the moment the trap
                    // is taken; settle the batched count first.
                    self.cpu.csrs.add_instret(committed);
                    committed = 0;
                    let cause = Some(e.cause());
                    self.take_trap(e);
                    let next_pc = self.cpu.pc;
                    if !tracked {
                        *ev = *tmpl;
                    }
                    ev.trap_cause = cause;
                    ev.next_pc = next_pc;
                    ev.ext = self.ext.drain_events();
                    if !FLAT && !tracked {
                        dynamic[recorded].0 = i as u8;
                        recorded += 1;
                    }
                    completed = false;
                    reason = Some(DeoptReason::Trap);
                    break;
                }
            }
            if op.is_mem {
                // Stepped execution drains extension events at the end
                // of every step; only memory ops can generate any here
                // (check_phys), so per-mem-op draining is equivalent.
                ev.ext = self.ext.drain_events();
                if op.is_store {
                    let in_ram = match ev.mem {
                        Some(m) => self.bus.in_ram(m.paddr, m.len.into()),
                        None => true,
                    };
                    // An MMIO store (halt latch, console) or a store
                    // that moved an epoch (SMC, PTE write, privilege-
                    // table write) deoptimizes at the causing store.
                    if !in_ram
                        || self.bus.code_epoch() != code_epoch
                        || self.ext.coherence_epoch() != b.guard.epoch
                    {
                        completed = false;
                        reason = Some(if in_ram {
                            DeoptReason::Epoch
                        } else {
                            DeoptReason::Mmio
                        });
                        break;
                    }
                }
            }
        }
        // Blocks never contain CSR reads (only plain/control-flow ops
        // compile), so batching INSTRET across the block is invisible.
        self.cpu.csrs.add_instret(committed);
        // Every op in the block was fetched (at compile time) from a
        // filled decode slot the stepped path would have hit.
        if let Some(bb) = self.bbcache.as_deref_mut() {
            bb.credit_jit(executed);
        }
        let cycles = if FLAT {
            executed * flat_cost
        } else {
            self.timing.retire_block(&b.tmpls, &dynamic[..recorded])
        };
        self.cpu.csrs.add_cycles(cycles);
        BlockExit {
            executed,
            completed,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::addr;
    use crate::decode::decode;
    use crate::{mmio, Machine, NullExtension, DEFAULT_RAM_BASE as RAM};
    use isa_asm::{encode, Asm, Program, Reg::*};

    fn kind(raw: u32) -> Kind {
        decode(raw).expect("test word decodes").kind
    }

    #[test]
    fn inactive_guard_allows_everything() {
        let g = JitGuard::INACTIVE;
        assert!(g.allows(kind(encode::addi(A0, A0, 1))));
        assert!(g.allows(kind(0x0000_0073))); // ecall
        assert!(g.allows(kind(0x1050_0073))); // wfi
    }

    #[test]
    fn active_guard_follows_its_bitmap() {
        let add = kind(encode::addi(A0, A0, 1));
        let mut g = JitGuard {
            active: true,
            domain: 3,
            epoch: 0,
            words: [0; GUARD_WORDS],
        };
        assert!(!g.allows(add), "all-zero bitmap denies");
        let i = add.class_index();
        g.words[i / 64] |= 1 << (i % 64);
        assert!(g.allows(add), "set bit allows exactly that class");
    }

    #[test]
    fn heat_promotes_at_threshold_and_poison_sticks() {
        let mut jit = Jit::new();
        let key = FetchKey::new(Priv::M, 0, 0, 0);
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(!jit.bump_heat(RAM, &key), "below threshold stays cold");
        }
        assert!(jit.bump_heat(RAM, &key), "crossing the threshold promotes");
        jit.set_heat(RAM, &key, POISON);
        for _ in 0..4 * HOT_THRESHOLD {
            assert!(!jit.bump_heat(RAM, &key), "poisoned heads never promote");
        }
        // A conflicting head evicts the slot and restarts from 1.
        let tag = Jit::key_tag(&key);
        let idx = Jit::heat_index(RAM, tag);
        let other = (1u64..)
            .map(|i| RAM + i * 4)
            .find(|&p| Jit::heat_index(p, tag) == idx)
            .expect("a colliding head exists");
        assert!(!jit.bump_heat(other, &key), "conflict takeover starts cold");
        assert!(!jit.bump_heat(RAM, &key), "evicted head restarts cold");
    }

    /// Interpret `prog` for `warm` steps with the JIT latched off so
    /// the bbcache decode slots fill exactly as stepped execution
    /// leaves them, then hand back machine + fetch key for `compile`.
    fn warmed(prog: &Program, warm: u64) -> (Machine<NullExtension>, FetchKey) {
        let mut m = Machine::new(NullExtension);
        m.set_jit(false);
        m.load_program(prog);
        m.run_steps(warm);
        let key = FetchKey::new(
            Priv::M,
            m.cpu.csrs.read_raw(addr::SATP),
            m.cpu.csrs.read_raw(addr::MSTATUS),
            m.cpu.csrs.read_raw(addr::PKR),
        );
        (m, key)
    }

    fn halt_tail(a: &mut Asm) {
        a.li(T6, mmio::HALT);
        a.sd(Zero, T6, 0);
    }

    #[test]
    fn compile_ends_at_control_flow() {
        let mut a = Asm::new(RAM);
        a.addi(A0, Zero, 1);
        a.xor(A1, A1, A0);
        a.j("tail");
        a.label("tail");
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (m, key) = warmed(&prog, 64);
        let bb = m.bbcache.as_deref().unwrap();
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        assert_eq!(b.ops.len(), 3, "two ALU ops plus the jal");
        match b.end {
            BlockEnd::Fixed(t) => assert_eq!(t, prog.symbol("tail")),
            _ => panic!("jal ends the block with a fixed successor"),
        }
    }

    #[test]
    fn compile_branch_and_indirect_ends() {
        let mut a = Asm::new(RAM);
        a.label("top");
        a.addi(A0, A0, 1);
        a.bnez(S1, "top"); // S1 is 0: falls through, slot still fills
        a.jalr(Zero, Ra, 0);
        a.label("tail");
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (mut m, key) = warmed(&prog, 0);
        m.cpu.regs[Ra as usize] = prog.symbol("tail");
        m.run_steps(8); // addi, bnez, jalr, halt tail: every slot fills
        let bb = m.bbcache.as_deref().unwrap();
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        assert_eq!(b.ops.len(), 2);
        match b.end {
            BlockEnd::Branch { taken, fall } => {
                assert_eq!(taken, RAM);
                assert_eq!(fall, RAM + 8);
            }
            _ => panic!("bnez ends the block as a branch"),
        }
        let j = compile(bb, &JitGuard::INACTIVE, RAM + 8, &key, Priv::M).expect("compiles");
        assert_eq!(j.ops.len(), 1);
        assert!(matches!(j.end, BlockEnd::Indirect), "jalr is indirect");
    }

    #[test]
    fn compile_stops_before_serializing_and_cold_slots() {
        let mut a = Asm::new(RAM);
        a.addi(A0, A0, 1);
        a.fence_i(); // serializing: must not enter a block
        a.addi(A1, A1, 1);
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (m, key) = warmed(&prog, 64);
        let bb = m.bbcache.as_deref().unwrap();
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        assert_eq!(b.ops.len(), 1, "block stops before the fence");
        assert!(matches!(b.end, BlockEnd::Fixed(t) if t == RAM + 4));
        // A serializing head is uncompilable.
        assert!(compile(bb, &JitGuard::INACTIVE, RAM + 4, &key, Priv::M).is_none());
        // An uncached page has nothing to compile from.
        assert!(compile(bb, &JitGuard::INACTIVE, RAM + 0x10_0000, &key, Priv::M).is_none());
    }

    #[test]
    fn compile_caps_blocks_at_max_ops() {
        let mut a = Asm::new(RAM);
        for _ in 0..MAX_OPS + 8 {
            a.addi(A0, A0, 1);
        }
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (m, key) = warmed(&prog, (MAX_OPS + 16) as u64);
        let bb = m.bbcache.as_deref().unwrap();
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        assert_eq!(b.ops.len(), MAX_OPS);
        assert!(matches!(b.end, BlockEnd::Fixed(t) if t == RAM + 4 * MAX_OPS as u64));
    }

    #[test]
    fn guard_denied_head_is_uncompilable() {
        let mut a = Asm::new(RAM);
        a.addi(A0, A0, 1);
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (m, key) = warmed(&prog, 8);
        let bb = m.bbcache.as_deref().unwrap();
        let denied = JitGuard {
            active: true,
            domain: 1,
            epoch: 0,
            words: [0; GUARD_WORDS],
        };
        assert!(
            compile(bb, &denied, RAM, &key, Priv::M).is_none(),
            "a denied head traps in the interpreter, never in a block"
        );
    }

    #[test]
    fn epoch_movement_flushes_blocks_and_heat() {
        let mut a = Asm::new(RAM);
        a.label("top");
        a.addi(A0, A0, 1);
        a.j("top");
        let prog = a.assemble().unwrap();
        let (m, key) = warmed(&prog, 8);
        let bb = m.bbcache.as_deref().unwrap();
        let mut jit = Jit::new();
        jit.sync_epochs(0, 0);
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        jit.insert(RAM, key, b);
        assert_eq!(jit.lookup(RAM, &key), Some(0));
        jit.sync_epochs(0, 0);
        assert_eq!(jit.lookup(RAM, &key), Some(0), "stable epochs keep blocks");
        assert_eq!(jit.stats.flushes, 0);
        jit.sync_epochs(1, 0);
        assert_eq!(jit.lookup(RAM, &key), None, "code epoch flushes");
        assert_eq!(jit.stats.flushes, 1);
        let b = compile(bb, &JitGuard::INACTIVE, RAM, &key, Priv::M).expect("compiles");
        jit.insert(RAM, key, b);
        jit.sync_epochs(1, 7);
        assert_eq!(jit.lookup(RAM, &key), None, "coherence epoch flushes too");
        assert_eq!(jit.stats.flushes, 2);
        // Flushing an already-empty jit is not a flush event.
        jit.sync_epochs(2, 7);
        assert_eq!(jit.stats.flushes, 2);
    }

    #[test]
    fn run_steps_matches_stepped_exactly_and_engages() {
        let mut a = Asm::new(RAM);
        a.li(A0, 0);
        a.li(S1, 400);
        a.label("top");
        a.addi(A0, A0, 1);
        a.xor(A1, A1, A0);
        a.addi(S1, S1, -1);
        a.bnez(S1, "top");
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();

        let mut j = Machine::new(NullExtension);
        j.load_program(&prog);
        let mut s = Machine::new(NullExtension);
        s.set_jit(false);
        s.load_program(&prog);

        let dj = j.run_steps(100_000);
        let ds = s.run_steps(100_000);
        assert_eq!(dj, ds, "consumed steps identical");
        assert_eq!(j.cpu.regs, s.cpu.regs);
        assert_eq!(j.cpu.pc, s.cpu.pc);
        assert_eq!(j.steps, s.steps);
        assert_eq!(
            j.cpu.csrs.read_raw(addr::CYCLE),
            s.cpu.csrs.read_raw(addr::CYCLE),
            "modeled cycles identical"
        );
        assert_eq!(j.bus.halted(), s.bus.halted());
        let stats = &j.jit.as_ref().unwrap().stats;
        assert!(stats.compiled > 0 && stats.entered > 0, "got {stats:?}");
        assert!(
            stats.ops > j.steps / 2,
            "most steps retire inside blocks: {stats:?} of {}",
            j.steps
        );
    }
}
