//! Superblock JIT over the basic-block cache.
//!
//! The bbcache (PR 3) removed translate+decode from the hot loop; the
//! per-instruction *dispatch* — epoch sync, cache lookup, PCU
//! instruction check, timing virtual call — remained. This layer
//! translates hot basic blocks into straight-line [`Op`] arrays that
//! execute without re-entering [`crate::Machine::step`] at all, chains
//! blocks to their resolved successors so hot loops never re-probe, and
//! hoists the PCU instruction-bitmap check to one per-block guard.
//!
//! ## The guard
//!
//! A block is compiled under a [`JitGuard`]: the active/inactive check
//! regime and — crucially — the *contents* of the current domain's
//! instruction bitmap. Comparing the bitmap words themselves (not a
//! version counter) makes the guard exactly as fresh as the stepped
//! interpreter's bypass register (`ipr`): a table rewrite that the
//! stepped path would not observe until `pflh` or a shootdown is, by
//! construction, also unobserved here, and anything that *does* reload
//! the bypass register produces different words and fails the guard.
//! Every block entry compares the full guard; a mismatch recompiles the
//! block under the current guard (`guard_misses`).
//!
//! The guard names no domain: a block bakes in only the regime and the
//! bitmap, and its loads and stores still run the extension's physical
//! check when they execute. Domains with equal bitmaps therefore share
//! their blocks, so code hot under several tenant domains compiles once.
//!
//! The PCU only vends an *active* guard when its fast path is pure —
//! bypass register valid, no legal-instruction cache, no pending
//! shootdown, no fault plan, not poisoned, no event ring — so skipping the
//! per-instruction [`crate::Extension::check_inst`] call changes no
//! architectural or exported state. The per-op bookkeeping that remains
//! (commit count, check tally) is replayed through
//! [`crate::Extension::jit_commit`].
//!
//! ## Where blocks live
//!
//! The bbcache is the only code cache indexed by `(pc, FetchKey)`. A
//! block and its head's promotion state live in the page entry whose
//! decode slots it was compiled from ([`PageBlocks`]); dispatch reaches
//! it only through that entry, and a link names the entry at a
//! generation. So every bbcache drop — code-epoch flush (SMC, PTE
//! stores) or conflict re-key — drops that page's blocks and the links
//! into them. A privilege shootdown drops nothing: it clears the PCU's
//! bypass register, so no guard is vended until a stepped check reloads
//! it from the new tables, and then a changed bitmap fails the guard.
//! The coherence epoch only ends a running chain. In-block stores are
//! followed by an epoch check so a store that invalidates its own block
//! deoptimizes *at the causing store*, and MMIO stores (the halt latch)
//! deoptimize so the run loop observes them immediately. Snapshots
//! never serialize JIT state: restore brings the cache up cold and the
//! walk-replay invariant keeps digests bit-identical.
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

use crate::bbcache::{BbCache, CodePage, FetchKey, PageAt, PAGE_SLOTS};
use crate::cpu::{ExtEvents, Extension, Machine, Retired};
use crate::decode::{Decoded, Kind};
use crate::trap::Priv;
use isa_obs::{DeoptReason, JitCounters};

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

/// Compiled blocks held across a machine's bbcache; compilation pauses
/// at the cap (dispatch still runs) rather than evicting, since bbcache
/// flushes and re-keys already bound the set's lifetime.
const MAX_BLOCKS: usize = 4096;

/// [`Head::block`] of a head with no compiled block.
const NO_BLOCK: u16 = u16::MAX;

/// Heat value marking a head as not worth compiling (uncompilable lead
/// instruction). It sticks until the head's page entry is dropped.
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
    /// The domain's instruction bitmap at compile time (all-zero for
    /// inactive guards).
    pub words: [u64; GUARD_WORDS],
}

impl JitGuard {
    /// The guard of an extension with no privilege checks at all
    /// ([`crate::NullExtension`] and friends).
    pub const INACTIVE: JitGuard = JitGuard {
        active: false,
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

/// Decode-slot index of `pc` within its page.
#[inline]
fn slot_of(pc: u64) -> usize {
    (pc as usize >> 2) & (PAGE_SLOTS - 1)
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
    /// through dispatch each time.
    Indirect,
}

/// A compiled block's address: its page entry at a generation, and its
/// index among that entry's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockId {
    page: PageAt,
    index: u16,
}

/// A compiled superblock.
struct Block {
    guard: JitGuard,
    ops: Box<[Op]>,
    /// Per-op retire-event templates (pc, fetch physical address, kind,
    /// raw, privilege, fill-time walk depth, `next_pc = pc + 4`), handed
    /// to [`crate::TimingSink::retire_block`] as they are.
    tmpls: Box<[Retired]>,
    end: BlockEnd,
    /// Resolved successors, re-resolved when missing or when their page
    /// entry has moved on (one generation compare).
    link_taken: Option<BlockId>,
    link_fall: Option<BlockId>,
}

/// Promotion state of one block head.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Decode slot of the head instruction.
    slot: u16,
    /// Index of the head's block in [`PageBlocks::blocks`], or
    /// [`NO_BLOCK`].
    block: u16,
    /// Dispatch probes so far (saturating at [`HOT_THRESHOLD`]), or
    /// [`POISON`].
    heat: u32,
}

/// The superblocks compiled from one bbcache page entry and the
/// promotion state of that page's block heads. It lives in the entry,
/// beside the decode slots it was compiled from, and the bbcache drops it
/// whenever it drops or re-keys those slots.
#[derive(Default)]
pub(crate) struct PageBlocks {
    /// Heads dispatch has probed on this page, sorted by slot.
    heads: Vec<Head>,
    /// Compiled blocks at stable indices; a block is taken out of its
    /// place while it executes, and a poisoned head's block is dropped.
    blocks: Vec<Option<Box<Block>>>,
}

impl PageBlocks {
    /// Drop every head and block; returns how many blocks were held.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.blocks.len();
        self.heads.clear();
        self.blocks.clear();
        n
    }

    /// Index of the head at `slot`, created cold on first probe.
    fn head(&mut self, slot: u16) -> usize {
        self.heads
            .binary_search_by_key(&slot, |h| h.slot)
            .unwrap_or_else(|i| {
                let cold = Head {
                    slot,
                    block: NO_BLOCK,
                    heat: 0,
                };
                self.heads.insert(i, cold);
                i
            })
    }

    /// The block compiled at `slot`, if any; probes no heat.
    fn compiled(&self, slot: u16) -> Option<u16> {
        let i = self.heads.binary_search_by_key(&slot, |h| h.slot).ok()?;
        Some(self.heads[i].block).filter(|&b| b != NO_BLOCK)
    }
}

/// Count one bail to the interpreter in `stats.deopt_by`.
fn note(stats: &mut JitCounters, reason: DeoptReason) {
    stats.deopt_by[reason.index()] += 1;
}

/// The JIT's per-machine host state: tallies and the retire buffer.
/// Its blocks live in the bbcache (see the module docs).
#[derive(Default)]
pub struct Jit {
    /// Slots for the executed records of one block that differ from its
    /// templates ([`crate::TimingSink::retire_block`]'s `dynamic`),
    /// grown to the longest block run so records are written in place.
    dynamic: Vec<(u8, Retired)>,
    /// Counter tallies (the `jit.*` counter block).
    pub stats: JitCounters,
}

/// Compile the straight-line block at `pc0` from `page`'s already-filled
/// decode slots. Pure read, so compiling is digest-invisible. Returns
/// `None` when the head instruction itself is uncompilable.
fn compile(page: &CodePage<'_>, guard: &JitGuard, pc0: u64, priv_level: Priv) -> Option<Block> {
    let mut ops: Vec<Op> = Vec::new();
    let mut tmpls: Vec<Retired> = Vec::new();
    let mut end = None;
    let mut pc = pc0;
    while ops.len() < MAX_OPS && pc >> 12 == pc0 >> 12 {
        let Some(d) = page.slots[slot_of(pc)] else {
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
            fetch_paddr: page.phys_base | (pc & 0xfff),
            next_pc: pc.wrapping_add(4),
            kind: Some(kind),
            raw: d.raw,
            priv_level,
            mem: None,
            branch_taken: false,
            trap_cause: None,
            walk_reads: page.walk_reads,
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
        ops: ops.into_boxed_slice(),
        tmpls: tmpls.into_boxed_slice(),
        end,
        link_taken: None,
        link_fall: None,
    })
}

/// The block to enter at `pc`, taken out of its page entry (hand it
/// back with [`put_block`]): through `link` while that is live and
/// compiled under `guard`, else through the head state in `pc`'s page
/// entry. A probe of a head whose decode slot is filled bumps its heat;
/// the probe that reaches [`HOT_THRESHOLD`] compiles the block, and one
/// that finds it compiled under another guard recompiles it in place.
/// An uncompilable head is poisoned. `None` leaves `pc` to the
/// interpreter.
fn enter(
    bb: &mut BbCache,
    stats: &mut JitCounters,
    link: Option<BlockId>,
    pc: u64,
    key: &FetchKey,
    guard: &JitGuard,
    priv_level: Priv,
) -> Option<(BlockId, Box<Block>)> {
    if let Some(id) = link {
        if let Some(b) = bb
            .blocks_at(id.page)
            .and_then(|p| p.blocks[id.index as usize].take())
        {
            if b.guard == *guard {
                stats.linked += 1;
                return Some((id, b));
            }
            put_block(bb, id, b); // dispatch counts the miss and recompiles
        }
    }
    if !pc.is_multiple_of(4) {
        return None; // the interpreter raises the misaligned trap
    }
    let page = bb.code_page(pc, key)?;
    let slot = slot_of(pc);
    // A cold slot is not a visit yet: the interpreter fills it first, so
    // a head only ever promotes with its lead instruction decoded.
    page.slots[slot]?;
    let h = page.code.head(slot as u16);
    let head = page.code.heads[h];
    if head.heat == POISON {
        return None;
    }
    if head.block != NO_BLOCK {
        let id = BlockId {
            page: page.at,
            index: head.block,
        };
        match page.code.blocks[head.block as usize].take() {
            Some(b) if b.guard == *guard => return Some((id, b)),
            _ => {
                stats.guard_misses += 1;
                note(stats, DeoptReason::Guard);
            }
        }
    } else {
        let heat = (head.heat + 1).min(HOT_THRESHOLD);
        page.code.heads[h].heat = heat;
        if heat < HOT_THRESHOLD || *page.held >= MAX_BLOCKS {
            return None;
        }
    }
    let compiled = compile(&page, guard, pc, priv_level);
    let head = &mut page.code.heads[h];
    let Some(b) = compiled else {
        head.heat = POISON;
        head.block = NO_BLOCK;
        return None;
    };
    stats.compiled += 1;
    if head.block == NO_BLOCK {
        head.block = page.code.blocks.len() as u16;
        page.code.blocks.push(None);
        *page.held += 1;
    }
    let id = BlockId {
        page: page.at,
        index: head.block,
    };
    Some((id, Box::new(b)))
}

/// Hand a block taken by [`enter`] back to its page entry — or drop it,
/// if the entry was flushed or re-keyed while it ran.
fn put_block(bb: &mut BbCache, id: BlockId, b: Box<Block>) {
    if let Some(p) = bb.blocks_at(id.page) {
        p.blocks[id.index as usize] = Some(b);
    }
}

/// The live successor of `b`, which just completed with the PC at
/// `next_pc`: its resolved link for that edge, re-resolved through the
/// page entry of `next_pc` when missing or stale. Indirect jumps
/// dispatch every time.
fn successor(bb: &mut BbCache, b: &mut Block, next_pc: u64, key: &FetchKey) -> Option<BlockId> {
    let edge = match b.end {
        BlockEnd::Fixed(t) if next_pc == t => &mut b.link_taken,
        BlockEnd::Branch { taken, .. } if next_pc == taken => &mut b.link_taken,
        BlockEnd::Branch { fall, .. } if next_pc == fall => &mut b.link_fall,
        _ => return None,
    };
    if !edge.is_some_and(|id| bb.blocks_at(id.page).is_some()) {
        *edge = bb.code_page(next_pc, key).and_then(|page| {
            let index = page.code.compiled(slot_of(next_pc) as u16)?;
            Some(BlockId {
                page: page.at,
                index,
            })
        });
    }
    *edge
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
        // Only dispatch when the PC can be a block head: after control
        // transfers, traps, interrupts, and block-ender instructions.
        // Mid-straight-line PCs never start a block.
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
            // A fetch/decode fault (no kind) lands on the trap vector,
            // which is a head too.
            probe = match &ev {
                None => true, // interrupt redirect
                Some(r) => {
                    r.trap_cause.is_some()
                        || r.next_pc != r.pc.wrapping_add(4)
                        || r.kind.is_none_or(|k| !plain_op(k))
                }
            };
        }
        done
    }

    /// Run compiled blocks from the current PC while the JIT and the
    /// bbcache are on and nothing needs the per-step interpreter.
    /// Returns the steps consumed.
    fn jit_run(&mut self, fuel: u64) -> u64 {
        // The event ring and the profile want every step; leave the
        // whole fast path to them.
        if self.obs.per_step() || self.bbcache.is_none() {
            return 0;
        }
        let Some(mut jit) = self.jit.take() else {
            return 0;
        };
        let executed = self.jit_chain(&mut jit, fuel);
        self.jit = Some(jit);
        executed
    }

    /// Dispatch loop: enter the block at the current PC if one is
    /// compiled (or just got hot) and its guard matches, chain through
    /// resolved links, and stop strictly before `fuel` runs out or
    /// anything needs the interpreter. Returns the steps consumed.
    fn jit_chain(&mut self, jit: &mut Jit, fuel: u64) -> u64 {
        // Never enter a block while an interrupt is deliverable (the
        // stepped path would redirect this very step) …
        if self.pending_interrupt().is_some() {
            note(&mut jit.stats, DeoptReason::Interrupt);
            return 0;
        }
        // … and never let the virtual timer fire inside a block: with
        // `timer_phase + f < timer_every` for every in-block step f,
        // the stepped path would not have fired either.
        let fuel = match self.timer_every {
            Some(n) => {
                let left = n.saturating_sub(self.timer_phase());
                if left <= 1 {
                    note(&mut jit.stats, DeoptReason::Timer);
                    return 0;
                }
                fuel.min(left - 1)
            }
            None => fuel,
        };
        if fuel == 0 {
            return 0;
        }
        let Some(guard) = self.ext.jit_guard(&self.cpu) else {
            return 0;
        };
        let code_epoch = self.bus.code_epoch();
        let ext_epoch = self.ext.coherence_epoch();
        // Dispatch reads the bbcache like a fetch does, so it first
        // applies the same contract, for the code epoch the chain checks.
        let bb = self.bbcache.as_deref_mut();
        if bb.is_some_and(|bb| bb.sync_epochs(code_epoch)) {
            jit.stats.flushes += 1;
        }
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
        let priv_level = self.cpu.priv_level;
        let mut executed = 0u64;
        let mut link = None;
        while let Some(bb) = self.bbcache.as_deref_mut() {
            let pc = self.cpu.pc;
            let Some((id, mut block)) =
                enter(bb, &mut jit.stats, link, pc, &key, &guard, priv_level)
            else {
                break;
            };
            if executed + block.ops.len() as u64 > fuel {
                note(&mut jit.stats, DeoptReason::Budget);
                put_block(bb, id, block);
                break; // would cross the step budget: let the caller decide
            }
            // Concurrent invalidations (run_concurrent only) surface at
            // block granularity: re-read both epochs before entering. A
            // moved coherence epoch is a shootdown the guard read above
            // predates; the interpreter's next check honours it.
            if self.bus.code_epoch() != code_epoch || self.ext.coherence_epoch() != ext_epoch {
                note(&mut jit.stats, DeoptReason::Epoch);
                put_block(bb, id, block);
                break;
            }
            jit.stats.entered += 1;
            let (ran, deopt) = self.exec_block(&block, &mut jit.dynamic, code_epoch, ext_epoch);
            executed += ran;
            jit.stats.ops += ran;
            if let Some(reason) = deopt {
                jit.stats.deopts += 1;
                note(&mut jit.stats, reason);
                if self.obs.is_enabled() {
                    let t = self.cpu.csrs.read_raw(crate::csr::addr::CYCLE);
                    self.obs.request(t, || isa_obs::ReqEvent::Deopt { reason });
                }
            }
            let stop = deopt.is_some() || self.bus.halted().is_some();
            let Some(bb) = self.bbcache.as_deref_mut() else {
                break;
            };
            link = if stop {
                None
            } else {
                successor(bb, &mut block, self.cpu.pc, &key)
            };
            put_block(bb, id, block);
            if stop {
                break;
            }
        }
        // The stepped path only advances the phase when a timer is
        // armed; mirror that so the snapshot seam stays bit-identical.
        if self.timer_every.is_some() {
            self.set_timer_phase(self.timer_phase() + executed);
        }
        self.steps += executed;
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
    /// the next kept record takes over.
    ///
    /// Returns the steps consumed (committed instructions plus at most
    /// one trap) and, when the block exited early — trap, MMIO store,
    /// epoch movement — why, so the chain deoptimizes to the
    /// interpreter.
    fn exec_block(
        &mut self,
        b: &Block,
        dynamic: &mut Vec<(u8, Retired)>,
        code_epoch: u64,
        ext_epoch: u64,
    ) -> (u64, Option<DeoptReason>) {
        let active = b.guard.active;
        let last = b.ops.len() - 1;
        if dynamic.len() < b.ops.len() {
            dynamic.resize(b.ops.len(), (0, b.tmpls[0]));
        }
        let mut recorded = 0;
        let mut executed = 0u64;
        let mut committed = 0u64;
        let mut deopt = None;
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
                *slot = (i as u8, *tmpl);
                recorded += 1;
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
                    if !tracked {
                        slot.0 = i as u8;
                        recorded += 1;
                    }
                    deopt = Some(DeoptReason::Trap);
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
                        || self.ext.coherence_epoch() != ext_epoch
                    {
                        deopt = Some(if in_ram {
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
        let cycles = self.timing.retire_block(&b.tmpls, &dynamic[..recorded]);
        self.cpu.csrs.add_cycles(cycles);
        (executed, deopt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbcache::tests::Shootdowns;
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
            words: [0; GUARD_WORDS],
        };
        assert!(!g.allows(add), "all-zero bitmap denies");
        let i = add.class_index();
        g.words[i / 64] |= 1 << (i % 64);
        assert!(g.allows(add), "set bit allows exactly that class");
    }

    /// Interpret `prog` for `warm` steps with the JIT latched off so
    /// the bbcache decode slots fill exactly as stepped execution
    /// leaves them, then hand back machine + fetch key for `compile`.
    fn warmed(prog: &Program, warm: u64) -> (Machine<NullExtension>, FetchKey) {
        warmed_on(NullExtension, prog, warm)
    }

    fn warmed_on<E: Extension>(ext: E, prog: &Program, warm: u64) -> (Machine<E>, FetchKey) {
        let mut m = Machine::new(ext);
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

    fn cache<E: Extension>(m: &mut Machine<E>) -> &mut BbCache {
        m.bbcache.as_deref_mut().expect("bbcache on")
    }

    fn compile_at(
        m: &mut Machine<NullExtension>,
        guard: &JitGuard,
        pc: u64,
        key: &FetchKey,
    ) -> Option<Block> {
        compile(&cache(m).code_page(pc, key)?, guard, pc, Priv::M)
    }

    /// Dispatch at `pc` the way `jit_chain` does, handing the block
    /// straight back to its page.
    fn probe<E: Extension>(
        m: &mut Machine<E>,
        stats: &mut JitCounters,
        pc: u64,
        key: &FetchKey,
    ) -> Option<BlockId> {
        let bb = cache(m);
        let (id, b) = enter(bb, stats, None, pc, key, &JitGuard::INACTIVE, Priv::M)?;
        put_block(bb, id, b);
        Some(id)
    }

    /// Probe `pc` until it compiles (at most [`HOT_THRESHOLD`] probes).
    fn promote<E: Extension>(
        m: &mut Machine<E>,
        stats: &mut JitCounters,
        pc: u64,
        key: &FetchKey,
    ) -> BlockId {
        (0..HOT_THRESHOLD)
            .find_map(|_| probe(m, stats, pc, key))
            .expect("a warm head promotes")
    }

    fn halt_tail(a: &mut Asm) {
        a.li(T6, mmio::HALT);
        a.sd(Zero, T6, 0);
    }

    fn spin_loop() -> Program {
        let mut a = Asm::new(RAM);
        a.label("top");
        a.addi(A0, A0, 1);
        a.j("top");
        a.assemble().unwrap()
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
        let (mut m, key) = warmed(&prog, 64);
        let b = compile_at(&mut m, &JitGuard::INACTIVE, RAM, &key).expect("compiles");
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
        let b = compile_at(&mut m, &JitGuard::INACTIVE, RAM, &key).expect("compiles");
        assert_eq!(b.ops.len(), 2);
        match b.end {
            BlockEnd::Branch { taken, fall } => {
                assert_eq!(taken, RAM);
                assert_eq!(fall, RAM + 8);
            }
            _ => panic!("bnez ends the block as a branch"),
        }
        let j = compile_at(&mut m, &JitGuard::INACTIVE, RAM + 8, &key).expect("compiles");
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
        let (mut m, key) = warmed(&prog, 64);
        let g = JitGuard::INACTIVE;
        let b = compile_at(&mut m, &g, RAM, &key).expect("compiles");
        assert_eq!(b.ops.len(), 1, "block stops before the fence");
        assert!(matches!(b.end, BlockEnd::Fixed(t) if t == RAM + 4));
        // A serializing head is uncompilable.
        assert!(compile_at(&mut m, &g, RAM + 4, &key).is_none());
        // An uncached page has nothing to compile from.
        assert!(compile_at(&mut m, &g, RAM + 0x10_0000, &key).is_none());
    }

    #[test]
    fn compile_caps_blocks_at_max_ops() {
        let mut a = Asm::new(RAM);
        for _ in 0..MAX_OPS + 8 {
            a.addi(A0, A0, 1);
        }
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (mut m, key) = warmed(&prog, (MAX_OPS + 16) as u64);
        let b = compile_at(&mut m, &JitGuard::INACTIVE, RAM, &key).expect("compiles");
        assert_eq!(b.ops.len(), MAX_OPS);
        assert!(matches!(b.end, BlockEnd::Fixed(t) if t == RAM + 4 * MAX_OPS as u64));
    }

    #[test]
    fn guard_denied_head_is_uncompilable() {
        let mut a = Asm::new(RAM);
        a.addi(A0, A0, 1);
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (mut m, key) = warmed(&prog, 8);
        let denied = JitGuard {
            active: true,
            words: [0; GUARD_WORDS],
        };
        assert!(
            compile_at(&mut m, &denied, RAM, &key).is_none(),
            "a denied head traps in the interpreter, never in a block"
        );
    }

    #[test]
    fn heat_promotes_at_threshold_and_poison_sticks() {
        let mut a = Asm::new(RAM);
        a.addi(A0, A0, 1);
        a.fence_i();
        halt_tail(&mut a);
        let prog = a.assemble().unwrap();
        let (mut m, key) = warmed(&prog, 8);
        let mut stats = JitCounters::default();
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(
                probe(&mut m, &mut stats, RAM, &key).is_none(),
                "below threshold stays cold"
            );
        }
        let id = probe(&mut m, &mut stats, RAM, &key).expect("crossing the threshold promotes");
        assert_eq!(stats.compiled, 1);
        assert_eq!(
            probe(&mut m, &mut stats, RAM, &key),
            Some(id),
            "the head now dispatches"
        );
        assert_eq!(stats.compiled, 1, "a compiled head is not recompiled");
        // The fence head is uncompilable: it poisons at the threshold …
        for _ in 0..4 * HOT_THRESHOLD {
            assert!(probe(&mut m, &mut stats, RAM + 4, &key).is_none());
        }
        assert_eq!(stats.compiled, 1, "poisoned heads never compile");
        let page = cache(&mut m).code_page(RAM, &key).expect("page cached");
        let fence = page.code.head(1);
        assert_eq!(page.code.heads[fence].heat, POISON);
        // … while a head whose decode slot is still cold gathers no heat.
        let cold = slot_of(prog.end() + 0x100) as u16;
        assert!(page.code.compiled(cold).is_none());
        for _ in 0..2 * HOT_THRESHOLD {
            assert!(probe(&mut m, &mut stats, prog.end() + 0x100, &key).is_none());
        }
        let page = cache(&mut m).code_page(RAM, &key).expect("page cached");
        assert!(
            page.code.heads.iter().all(|h| h.slot != cold),
            "cold slots hold no head"
        );
    }

    /// An active guard whose bitmap allows exactly `kinds`.
    fn allowing(kinds: &[Kind]) -> JitGuard {
        let mut g = JitGuard {
            active: true,
            words: [0; GUARD_WORDS],
        };
        for k in kinds {
            let i = k.class_index();
            g.words[i / 64] |= 1 << (i % 64);
        }
        g
    }

    #[test]
    fn guard_change_recompiles_in_place() {
        let (mut m, key) = warmed(&spin_loop(), 8);
        let mut stats = JitCounters::default();
        let id = promote(&mut m, &mut stats, RAM, &key);
        let loop_only = allowing(&[Kind::Addi, Kind::Jal]);
        let wider = allowing(&[Kind::Addi, Kind::Jal, Kind::Mul]);
        let bb = cache(&mut m);
        let mut entry = |guard: &JitGuard| {
            let (at, b) = enter(bb, &mut stats, None, RAM, &key, guard, Priv::M)
                .expect("the head dispatches");
            assert_eq!(at, id, "same head, same place: links into it stay valid");
            assert_eq!(b.guard, *guard);
            put_block(bb, at, b);
        };
        entry(&loop_only);
        entry(&loop_only);
        entry(&wider);
        assert_eq!(
            (stats.guard_misses, stats.compiled, stats.linked),
            (2, 3, 0),
            "each new bitmap recompiles once; an equal one re-enters"
        );
    }

    #[test]
    fn epoch_movement_flushes_blocks_and_heat() {
        let (mut m, key) = warmed_on(Shootdowns(0), &spin_loop(), 8);
        let code = m.bus.code_epoch();
        let mut stats = JitCounters::default();
        let id = promote(&mut m, &mut stats, RAM, &key);
        // A shootdown moves only the coherence epoch: the block keeps
        // its page generation, and dispatch re-enters it uncompiled.
        m.ext.0 = 7;
        m.set_jit(true);
        m.run_steps(64);
        let run = m.jit.as_ref().expect("jit on").stats;
        assert_eq!((run.compiled, run.flushes), (0, 0), "{run:?}");
        assert!(run.entered > 0, "{run:?}");
        m.set_jit(false);
        let bb = cache(&mut m);
        assert!(bb.blocks_at(id.page).is_some(), "a shootdown keeps blocks");
        assert!(!bb.sync_epochs(code), "a stable code epoch keeps blocks");
        assert!(bb.sync_epochs(code + 1), "code epoch flushes blocks");
        assert!(bb.blocks_at(id.page).is_none(), "and kills links into them");
        // Heat went with the blocks: the head starts cold again.
        m.run_steps(8);
        assert!(probe(&mut m, &mut stats, RAM, &key).is_none());
        // Flushing a cache holding no blocks drops none.
        assert!(!cache(&mut m).sync_epochs(code + 2));
    }

    #[test]
    fn eviction_drops_the_pages_blocks_and_links_into_them() {
        // A loop on the RAM base page calls a helper on the next page, so
        // the helper's block links back into the loop's page.
        let mut a = Asm::new(RAM);
        a.label("top");
        a.addi(A0, A0, 1);
        a.j("far");
        a.align(4096);
        a.label("far");
        a.addi(A1, A1, 1);
        a.j("top");
        let prog = a.assemble().unwrap();
        let far = prog.symbol("far");
        let (mut m, key) = warmed(&prog, 16);
        let mut stats = JitCounters::default();
        let home = promote(&mut m, &mut stats, RAM, &key);
        let helper = promote(&mut m, &mut stats, far, &key);
        let bb = cache(&mut m);
        let (_, mut b) = enter(
            bb,
            &mut stats,
            Some(helper),
            far,
            &key,
            &JitGuard::INACTIVE,
            Priv::M,
        )
        .expect("live link");
        assert_eq!(
            successor(bb, &mut b, RAM, &key),
            Some(home),
            "helper links home"
        );
        // Re-key the loop page's entry with a page that maps onto it.
        let colliding = (1u64..)
            .map(|i| RAM + i * 4096)
            .find(|&v| BbCache::index(v >> 12, &key) == BbCache::index(RAM >> 12, &key))
            .expect("a colliding page exists");
        bb.fill_translation(colliding, key, colliding, 0);
        assert!(
            bb.blocks_at(home.page).is_none(),
            "the evicted page's blocks are gone"
        );
        assert!(
            bb.blocks_at(helper.page).is_some(),
            "the helper's page keeps its block"
        );
        assert_eq!(
            successor(bb, &mut b, RAM, &key),
            None,
            "the link into it is dropped"
        );
        assert!(b.link_taken.is_none());
        let linked = stats.linked;
        assert!(
            enter(
                bb,
                &mut stats,
                Some(home),
                RAM,
                &key,
                &JitGuard::INACTIVE,
                Priv::M
            )
            .is_none(),
            "a dead link dispatches, and the evicted page is not cached"
        );
        assert_eq!(stats.linked, linked);
        put_block(bb, helper, b);
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
