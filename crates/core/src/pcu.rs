//! The Privilege Check Unit (PCU) — ISA-Grid's hardware extension
//! (§3.3, §4), implemented against the `isa-sim` [`Extension`] seam.

use isa_obs::{AuditKind, AuditLog, AuditRecord, CacheKind, CheckKind, Counters, Obs, TraceEvent};
use isa_sim::csr::addr;
use isa_sim::{Bus, CpuState, Decoded, Exception, ExtEvents, Extension, Flow, Kind, Priv};

use crate::cache::{CacheStats, PrivCache, PrivCacheState};
use crate::domain::{DomainId, DomainSpec, GateId, GateSpec};
use crate::integrity::{SealStore, SealVerdict};
use crate::layout::{
    mask_slot, GridLayout, INST_BITMAP_WORDS, MASK_SLOTS, REG_GROUPS, REG_GROUP_CSRS,
    SGT_FLAG_VALID,
};
use crate::shootdown::{ShootdownCell, FLUSH_CYCLES_PER_ENTRY};
use isa_fault::{CacheSel, FaultKind, FaultPlan};
use std::sync::Arc;

/// Default for [`PcuConfig::shootdown_deadline_polls`]: how many commit
/// polls a pending shootdown may go undelivered (due to injected
/// drops/delays) before the PCU gives up retrying, flushes, and faults
/// the offending hart (`GridIntegrityFault` on the epoch).
pub const SHOOTDOWN_DEADLINE_POLLS: u32 = 16;

/// Sizing of the domain privilege cache (§4.3, §7 "Configuration").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcuConfig {
    /// Entries in the instruction-bitmap HPT cache.
    pub inst_cache: usize,
    /// Entries in the register-bitmap HPT cache.
    pub reg_cache: usize,
    /// Entries in the bit-mask-array HPT cache.
    pub mask_cache: usize,
    /// Entries in the SGT cache (0 = no SGT cache, the `8E.N` config).
    pub sgt_cache: usize,
    /// Enable the instruction-privilege register cache bypass (§4.3
    /// "Cache Bypass For Saving Energy").
    pub bypass: bool,
    /// Implement the three HPT caches as one unified cache with typed
    /// tags (§4.3: "may improve the overall hit rate but incur increased
    /// hardware complexity"). Entry count = `inst_cache`.
    pub unified_hpt: bool,
    /// Entries in the Draco-style legal-instruction cache (§8 "Cache
    /// Optimization"): caches (domain, instruction bytes) pairs whose
    /// check already passed, skipping the check logic entirely on a hit.
    /// 0 disables it. Value-dependent checks (CSR writes under a
    /// bit-mask) are never short-circuited.
    pub legal_cache: usize,
    /// Fail-closed integrity layer: verify table-word seals on every
    /// Grid Cache refill and cache-line seals on every hit, resolving
    /// corruption as scrub-and-re-walk or deny + `GridIntegrityFault`.
    /// On by default; turn off only to demonstrate the unprotected
    /// stale-allow window.
    pub integrity: bool,
    /// Commit polls a pending shootdown may stay undelivered before the
    /// PCU restores coherence by flushing anyway and faults the hart.
    /// Default [`SHOOTDOWN_DEADLINE_POLLS`]; the chaos sweep compresses
    /// or relaxes the window through this knob.
    pub shootdown_deadline_polls: u32,
}

impl PcuConfig {
    /// The paper's `16E.` configuration: 16 entries per cache.
    pub fn sixteen_e() -> PcuConfig {
        PcuConfig {
            inst_cache: 16,
            reg_cache: 16,
            mask_cache: 16,
            sgt_cache: 16,
            bypass: true,
            unified_hpt: false,
            legal_cache: 0,
            integrity: true,
            shootdown_deadline_polls: SHOOTDOWN_DEADLINE_POLLS,
        }
    }

    /// The paper's `8E.` configuration: 8 entries per cache.
    pub fn eight_e() -> PcuConfig {
        PcuConfig {
            inst_cache: 8,
            reg_cache: 8,
            mask_cache: 8,
            sgt_cache: 8,
            ..Self::sixteen_e()
        }
    }

    /// The paper's `8E.N` configuration: 8-entry HPT caches, no SGT cache.
    pub fn eight_e_n() -> PcuConfig {
        PcuConfig {
            sgt_cache: 0,
            ..Self::eight_e()
        }
    }

    /// `8E.` with the cache bypass disabled (energy ablation of §4.3).
    pub fn eight_e_no_bypass() -> PcuConfig {
        PcuConfig {
            bypass: false,
            ..Self::eight_e()
        }
    }

    /// `8E.` with a unified HPT cache of 24 entries (same total storage
    /// as three 8-entry caches).
    pub fn unified_24e() -> PcuConfig {
        PcuConfig {
            inst_cache: 24,
            unified_hpt: true,
            ..Self::eight_e()
        }
    }

    /// `8E.` plus a Draco-style legal-instruction cache (§8).
    pub fn eight_e_draco(entries: usize) -> PcuConfig {
        PcuConfig {
            legal_cache: entries,
            ..Self::eight_e()
        }
    }

    /// Start building a configuration field by field; the builder's
    /// preset shorthands (`.sixteen_e()`, …) load a named configuration
    /// as the starting point.
    ///
    /// ```
    /// use isa_grid::PcuConfig;
    /// let cfg = PcuConfig::builder().sixteen_e().sgt_cache(32).build();
    /// assert_eq!(cfg.inst_cache, 16);
    /// assert_eq!(cfg.sgt_cache, 32);
    /// ```
    pub fn builder() -> PcuConfigBuilder {
        PcuConfigBuilder {
            cfg: PcuConfig::eight_e(),
        }
    }
}

/// Builder for [`PcuConfig`] — the supported way to construct
/// non-preset configurations (instead of bare struct literals).
#[derive(Debug, Clone)]
pub struct PcuConfigBuilder {
    cfg: PcuConfig,
}

impl PcuConfigBuilder {
    /// Load the `16E.` preset as the starting point.
    pub fn sixteen_e(mut self) -> Self {
        self.cfg = PcuConfig::sixteen_e();
        self
    }

    /// Load the `8E.` preset as the starting point.
    pub fn eight_e(mut self) -> Self {
        self.cfg = PcuConfig::eight_e();
        self
    }

    /// Load the `8E.N` preset as the starting point.
    pub fn eight_e_n(mut self) -> Self {
        self.cfg = PcuConfig::eight_e_n();
        self
    }

    /// Entries in the instruction-bitmap HPT cache.
    pub fn inst_cache(mut self, entries: usize) -> Self {
        self.cfg.inst_cache = entries;
        self
    }

    /// Entries in the register-bitmap HPT cache.
    pub fn reg_cache(mut self, entries: usize) -> Self {
        self.cfg.reg_cache = entries;
        self
    }

    /// Entries in the bit-mask-array HPT cache.
    pub fn mask_cache(mut self, entries: usize) -> Self {
        self.cfg.mask_cache = entries;
        self
    }

    /// Entries in the SGT cache (0 disables it, as in `8E.N`).
    pub fn sgt_cache(mut self, entries: usize) -> Self {
        self.cfg.sgt_cache = entries;
        self
    }

    /// Enable or disable the instruction-privilege register bypass.
    pub fn bypass(mut self, on: bool) -> Self {
        self.cfg.bypass = on;
        self
    }

    /// Use one unified HPT cache with typed tags instead of three.
    pub fn unified_hpt(mut self, on: bool) -> Self {
        self.cfg.unified_hpt = on;
        self
    }

    /// Entries in the Draco-style legal-instruction cache (0 disables).
    pub fn legal_cache(mut self, entries: usize) -> Self {
        self.cfg.legal_cache = entries;
        self
    }

    /// Enable or disable the fail-closed integrity layer (on by
    /// default).
    pub fn integrity(mut self, on: bool) -> Self {
        self.cfg.integrity = on;
        self
    }

    /// Commit polls a pending shootdown may stay undelivered before the
    /// PCU flushes anyway and faults the hart (default
    /// [`SHOOTDOWN_DEADLINE_POLLS`]).
    pub fn shootdown_deadline_polls(mut self, polls: u32) -> Self {
        self.cfg.shootdown_deadline_polls = polls;
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> PcuConfig {
        self.cfg
    }
}

impl Default for PcuConfig {
    fn default() -> Self {
        PcuConfig::eight_e()
    }
}

/// The ISA-Grid register file of Table 2.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct GridRegs {
    domain: u64,
    pdomain: u64,
    domain_nr: u64,
    csr_cap: u64,
    csr_mask: u64,
    inst_cap: u64,
    gate_addr: u64,
    gate_nr: u64,
    hcsp: u64,
    hcsb: u64,
    hcsl: u64,
    tmemb: u64,
    tmeml: u64,
}

/// Aggregate PCU event counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PcuStats {
    /// Instruction privilege checks performed (active domains only).
    pub inst_checks: u64,
    /// Explicit CSR privilege checks performed.
    pub csr_checks: u64,
    /// `hccall`/`hccalls` executed.
    pub gate_calls: u64,
    /// `hcrets` executed.
    pub gate_returns: u64,
    /// Privilege violations raised.
    pub faults: u64,
    /// `pfch` instructions executed.
    pub prefetches: u64,
    /// `pflh` instructions executed.
    pub flushes: u64,
    /// Legal-instruction-cache hits (checks skipped entirely).
    pub legal_hits: u64,
    /// Physical accesses blocked by the trusted-memory fence.
    pub tmem_denials: u64,
    /// Cross-hart shootdowns this PCU published (table mutations and
    /// PCU fences).
    pub shootdowns_sent: u64,
    /// Shootdowns this PCU honored by flushing before its next commit.
    pub shootdowns_taken: u64,
    /// Live cache entries discarded by shootdown flushes.
    pub shootdown_flushed: u64,
    /// Modeled cycles spent re-warming caches after shootdowns.
    pub shootdown_flush_cycles: u64,
}

/// Per-cache statistics snapshot.
///
/// This is the observability layer's [`isa_obs::CacheBank`]: the same
/// `inst`/`reg`/`mask`/`sgt` fields as before, plus the legal-cache
/// tally that previously needed a separate accessor.
pub type GridCacheStats = isa_obs::CacheBank;

/// The thread-shippable essence of a configured [`Pcu`]: cache
/// configuration, trusted-memory layout and Table 2 register values,
/// plus a handle on the machine's shared seal store and a checksum over
/// the register file. See [`Pcu::snapshot`].
#[derive(Debug, Clone)]
pub struct PcuSnapshot {
    cfg: PcuConfig,
    layout: Option<GridLayout>,
    regs: GridRegs,
    seals: Arc<SealStore>,
    seal: u64,
}

/// Checksum over the Table 2 register file, stamped into snapshots and
/// re-verified at [`PcuSnapshot::build`]: a bit flipped in cached
/// snapshot state is detected before the mirror ever checks anything.
fn regs_seal(regs: &GridRegs) -> u64 {
    let fields = [
        regs.domain,
        regs.pdomain,
        regs.domain_nr,
        regs.csr_cap,
        regs.csr_mask,
        regs.inst_cap,
        regs.gate_addr,
        regs.gate_nr,
        regs.hcsp,
        regs.hcsb,
        regs.hcsl,
        regs.tmemb,
        regs.tmeml,
    ];
    let mut s = isa_fault::SEED_REMAP;
    for f in fields {
        s = isa_fault::mix64(s ^ f);
    }
    s
}

impl PcuSnapshot {
    /// Reconstruct a PCU from the snapshot: same tables and registers,
    /// cold private caches, zeroed statistics (the same contract as
    /// [`Pcu::mirror`]). Trusted memory is not touched. If the register
    /// file fails checksum verification (a fault was injected with
    /// [`PcuSnapshot::corrupt`]) the PCU comes up *poisoned*: it denies
    /// every non-M-mode check fail-closed rather than enforcing — or
    /// silently skipping — a corrupted policy.
    pub fn build(&self) -> Pcu {
        let mut p = Pcu::new(self.cfg);
        p.layout = self.layout;
        p.regs = self.regs;
        p.seals = Arc::clone(&self.seals);
        if self.cfg.integrity && regs_seal(&self.regs) != self.seal {
            p.poisoned = true;
        }
        p
    }

    /// Chaos-harness hook: flip `bit` of one Table 2 register word
    /// (selected by `entropy`) *without* updating the checksum,
    /// modeling corruption of cached PCU state in transit.
    pub fn corrupt(&mut self, entropy: u64, bit: u32) {
        let mask = 1u64 << (bit % 64);
        let r = &mut self.regs;
        match entropy % 13 {
            0 => r.domain ^= mask,
            1 => r.pdomain ^= mask,
            2 => r.domain_nr ^= mask,
            3 => r.csr_cap ^= mask,
            4 => r.csr_mask ^= mask,
            5 => r.inst_cap ^= mask,
            6 => r.gate_addr ^= mask,
            7 => r.gate_nr ^= mask,
            8 => r.hcsp ^= mask,
            9 => r.hcsb ^= mask,
            10 => r.hcsl ^= mask,
            11 => r.tmemb ^= mask,
            _ => r.tmeml ^= mask,
        }
    }
}

/// Tag-space prefixes when the three HPT caches share one storage.
const UTAG_INST: u64 = 1 << 60;
const UTAG_REG: u64 = 2 << 60;
const UTAG_MASK: u64 = 3 << 60;

/// The instruction-privilege register: the cache-bypass latch holding the
/// current domain's instruction bitmap (§4.3).
#[derive(Debug, Default, Clone, Copy)]
struct InstPrivReg {
    domain: u64,
    words: [u64; INST_BITMAP_WORDS],
    valid: bool,
}

/// The Privilege Check Unit.
///
/// Plug it into a [`isa_sim::Machine`] and configure domains and gates
/// through the host-side API (which plays the role of domain-0 software
/// writing the in-memory structures):
///
/// ```
/// use isa_grid::{GridLayout, Pcu, PcuConfig, DomainSpec, GateSpec, DomainId};
/// use isa_sim::{Machine, Bus};
///
/// let mut m = Machine::new(Pcu::new(PcuConfig::eight_e()));
/// let layout = GridLayout::new(0x8380_0000, 1 << 20);
/// m.ext.install(&mut m.bus, layout);
/// let d = m.ext.add_domain(&mut m.bus, &DomainSpec::compute_only());
/// let g = m.ext.add_gate(&mut m.bus, GateSpec {
///     gate_addr: 0x8000_0000,
///     dest_addr: 0x8000_1000,
///     dest_domain: d,
/// });
/// assert_eq!(d, DomainId(1));
/// assert_eq!(m.ext.current_domain(), DomainId::INIT);
/// ```
#[derive(Debug)]
pub struct Pcu {
    cfg: PcuConfig,
    layout: Option<GridLayout>,
    regs: GridRegs,
    inst_cache: PrivCache,
    reg_cache: PrivCache,
    mask_cache: PrivCache,
    sgt_cache: PrivCache,
    legal_cache: PrivCache,
    ipr: InstPrivReg,
    ev: ExtEvents,
    /// The machine's observability handle; only the event ring reads
    /// what the PCU emits.
    obs: Obs,
    /// SMP coherence cell shared with the other harts' PCUs, plus the
    /// hart this PCU belongs to. `None` on single-hart machines.
    shoot: Option<Arc<ShootdownCell>>,
    hart: usize,
    /// Aggregate counters for the evaluation harnesses.
    pub stats: PcuStats,
    /// Structured log of every denied check (bounded; always on — the
    /// cost lands only on the rare fault path and never adds modeled
    /// cycles).
    audit: AuditLog,
    /// Seal registry over the trusted-memory tables, shared by every
    /// mirror of this machine so legitimate cross-hart updates never
    /// false-positive.
    seals: Arc<SealStore>,
    /// Deterministic fault schedule, when the chaos harness is attached.
    faults: Option<FaultPlan>,
    /// Instruction-check commits observed (drives the fault schedule).
    commits: u64,
    /// Set when snapshot verification failed: deny everything outside
    /// M-mode (fail closed on undecodable PCU state).
    poisoned: bool,
    /// Outstanding injected shootdown delivery failures (drops/delays).
    shoot_defer: u32,
    /// Consecutive polls the current pending shootdown has gone
    /// undelivered; bounded by [`SHOOTDOWN_DEADLINE_POLLS`].
    shoot_defer_polls: u32,
    /// Fault-injection/detection tallies.
    fstats: FaultLayerStats,
    /// Cache scrubs already folded into `fstats` (reconciliation mark).
    scrubs_seen: u64,
    /// A privilege-cache lookup missed since the last reconciliation. A
    /// scrub reports a miss, so this is the only time a cache's
    /// `corrupt_detected` can have moved; `drain_events` reconciles
    /// only then.
    scrub_pending: bool,
    /// Test-only seeded bug: when set, a failed instruction-bitmap check
    /// is *not* enforced — the forbidden instruction executes anyway.
    /// Exists so the differential oracle has a known-bad PCU to catch;
    /// never set outside tests.
    skip_inst_check: bool,
}

/// Tallies of the fail-closed integrity layer, mapped into the
/// `run.fault_*` counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultLayerStats {
    /// Faults the attached plan actually applied.
    pub injected: u64,
    /// Corruptions detected (seal mismatch, scrub, poisoned snapshot,
    /// expired shootdown).
    pub detected: u64,
    /// Detections recovered in place (scrub + re-walk) without a trap.
    pub recovered: u64,
    /// Detections resolved as deny + architectural trap.
    pub denied: u64,
    /// Shootdown deliveries that blew the bounded-backoff deadline.
    pub shootdown_expired: u64,
}

/// Plain-data image of every piece of mutable [`Pcu`] state, produced
/// by [`Pcu::export_state`] and consumed by [`Pcu::import_state`].
///
/// Excluded on purpose: the [`PcuConfig`] (part of the machine recipe,
/// which the restoring caller rebuilds), the observability handle and hart id
/// (host-side attachments), the shared [`SealStore`] and
/// [`crate::ShootdownCell`] (exported once per machine, not per PCU),
/// the per-step event accumulator (always empty at step boundaries),
/// and the test-only seeded-bug switch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcuState {
    /// The 13 Grid CSRs in address order: `domain`, `pdomain`,
    /// `domain_nr`, `csr_cap`, `csr_mask`, `inst_cap`, `gate_addr`,
    /// `gate_nr`, `hcsp`, `hcsb`, `hcsl`, `tmemb`, `tmeml`.
    pub regs: [u64; 13],
    /// Installed trusted-memory layout, if any.
    pub layout: Option<GridLayout>,
    /// Instruction-bitmap shadow register: owning domain.
    pub ipr_domain: u64,
    /// Instruction-bitmap shadow register: bitmap words.
    pub ipr_words: [u64; INST_BITMAP_WORDS],
    /// Instruction-bitmap shadow register: valid bit.
    pub ipr_valid: bool,
    /// HPT instruction-bitmap cache image.
    pub inst_cache: PrivCacheState,
    /// HPT register-bitmap cache image.
    pub reg_cache: PrivCacheState,
    /// HPT mask-slot cache image.
    pub mask_cache: PrivCacheState,
    /// SGT gate-entry cache image.
    pub sgt_cache: PrivCacheState,
    /// Legal-instruction decision cache image.
    pub legal_cache: PrivCacheState,
    /// Check/fault/flush counters.
    pub stats: PcuStats,
    /// Fail-closed integrity-layer counters.
    pub fstats: FaultLayerStats,
    /// Scrub recoveries already reconciled into `fstats`.
    pub scrubs_seen: u64,
    /// Commit counter driving fault-plan firing.
    pub commits: u64,
    /// Fail-closed poison latch.
    pub poisoned: bool,
    /// Remaining deferred shootdown polls (fault-injection backoff).
    pub shoot_defer: u32,
    /// Polls consumed while deferring the pending shootdown.
    pub shoot_defer_polls: u32,
    /// Attached fault schedule with its live cursor, if any.
    pub faults: Option<FaultPlan>,
    /// Privilege-event audit log.
    pub audit: AuditLog,
}

impl Pcu {
    /// A PCU with the given cache configuration. Until
    /// [`Pcu::install`] runs, the CPU is in domain-0 and nothing is
    /// restricted — exactly the paper's reset state (§4.4).
    pub fn new(cfg: PcuConfig) -> Pcu {
        let mut p = Pcu {
            cfg,
            layout: None,
            regs: GridRegs {
                domain_nr: 1,
                ..GridRegs::default()
            },
            inst_cache: PrivCache::new(cfg.inst_cache),
            reg_cache: PrivCache::new(cfg.reg_cache),
            mask_cache: PrivCache::new(cfg.mask_cache),
            sgt_cache: PrivCache::new(cfg.sgt_cache),
            legal_cache: PrivCache::new(cfg.legal_cache),
            ipr: InstPrivReg::default(),
            ev: ExtEvents::default(),
            obs: Obs::off(),
            shoot: None,
            hart: 0,
            stats: PcuStats::default(),
            audit: AuditLog::new(),
            seals: SealStore::new(),
            faults: None,
            commits: 0,
            poisoned: false,
            shoot_defer: 0,
            shoot_defer_polls: 0,
            fstats: FaultLayerStats::default(),
            scrubs_seen: 0,
            scrub_pending: false,
            skip_inst_check: false,
        };
        if !cfg.integrity {
            p.set_integrity(false);
        }
        p
    }

    /// A fresh PCU for another hart that shares this PCU's installed
    /// tables: same configuration, layout and Table 2 registers (both
    /// harts read the same in-memory structures), but cold private
    /// caches and zeroed statistics. Unlike [`Pcu::install`] it does
    /// *not* touch trusted memory. Carve a per-hart trusted stack with
    /// [`Pcu::set_trusted_stack`] afterwards, and attach the shared
    /// [`ShootdownCell`] with [`Pcu::attach_shootdown`].
    pub fn mirror(&self) -> Pcu {
        self.snapshot().build()
    }

    /// A plain-data snapshot of this PCU's configuration, layout and
    /// Table 2 registers. Unlike `Pcu` itself (which holds an
    /// observability handle), the snapshot is `Send + Sync`, so a parallel runner can
    /// capture it once and [`PcuSnapshot::build`] per-hart mirrors
    /// inside worker threads.
    pub fn snapshot(&self) -> PcuSnapshot {
        PcuSnapshot {
            cfg: self.cfg,
            layout: self.layout,
            regs: self.regs,
            seals: Arc::clone(&self.seals),
            seal: regs_seal(&self.regs),
        }
    }

    /// Attach a deterministic fault schedule (the chaos harness): due
    /// events are applied at instruction-check commit boundaries.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Enable or disable the fail-closed integrity layer at runtime
    /// (both the table-word seals and the cache-line seals).
    pub fn set_integrity(&mut self, on: bool) {
        self.cfg.integrity = on;
        self.inst_cache.set_integrity(on);
        self.reg_cache.set_integrity(on);
        self.mask_cache.set_integrity(on);
        self.sgt_cache.set_integrity(on);
        self.legal_cache.set_integrity(on);
    }

    /// The integrity layer's injection/detection tallies.
    pub fn fault_stats(&self) -> FaultLayerStats {
        self.fstats
    }

    /// The shared trusted-memory seal store.
    pub fn seal_store(&self) -> &Arc<SealStore> {
        &self.seals
    }

    /// Whether snapshot verification poisoned this PCU (fail-closed
    /// deny-everything mode).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Join the SMP coherence protocol: shootdowns published through
    /// `cell` by other harts flush this PCU's caches before its next
    /// commit, and this PCU's table mutations / fences publish to them.
    pub fn attach_shootdown(&mut self, cell: Arc<ShootdownCell>, hart: usize) {
        assert!(hart < cell.harts(), "hart {hart} outside the cell");
        self.shoot = Some(cell);
        self.hart = hart;
    }

    /// The shared shootdown cell, if this PCU participates in one.
    pub fn shootdown_cell(&self) -> Option<&Arc<ShootdownCell>> {
        self.shoot.as_ref()
    }

    /// Initialize the in-memory privilege structures: zero the tables and
    /// point the Table 2 base registers at them. This is what domain-0
    /// firmware does right after reset.
    pub fn install(&mut self, bus: &mut Bus, layout: GridLayout) {
        let zero = vec![0u8; (layout.tstack_base() - layout.tmem_base) as usize];
        bus.write_bytes(layout.tmem_base, &zero);
        // Engage the integrity layer over the freshly zeroed tables:
        // absent seals verify against an expected value of 0.
        self.seals.reset(layout.tmem_base, layout.tstack_base());
        self.regs = GridRegs {
            domain: 0,
            pdomain: 0,
            domain_nr: 1, // domain-0 exists implicitly
            csr_cap: layout.csr_cap(),
            csr_mask: layout.csr_mask(),
            inst_cap: layout.inst_cap(),
            gate_addr: layout.gate_addr(),
            gate_nr: 0,
            hcsp: layout.tstack_base(),
            hcsb: layout.tstack_base(),
            hcsl: layout.tmem_end(),
            tmemb: layout.tmem_base,
            tmeml: layout.tmem_end(),
        };
        self.layout = Some(layout);
        self.inst_cache.flush();
        self.reg_cache.flush();
        self.mask_cache.flush();
        self.sgt_cache.flush();
        self.legal_cache.flush();
        self.ipr.valid = false;
        self.publish_shootdown();
    }

    /// The active layout.
    ///
    /// # Panics
    ///
    /// Panics if [`Pcu::install`] has not run.
    pub fn layout(&self) -> GridLayout {
        self.layout.expect("PCU not installed")
    }

    /// Register a new ISA domain by writing its bitmaps and masks into
    /// the HPT (what the domain-0 registration function does at runtime).
    ///
    /// # Panics
    ///
    /// Panics if the PCU is not installed or the domain table is full.
    pub fn add_domain(&mut self, bus: &mut Bus, spec: &DomainSpec) -> DomainId {
        let layout = self.layout();
        let id = self.regs.domain_nr;
        assert!(id < layout.max_domains, "domain table full");
        self.regs.domain_nr += 1;
        for (w, word) in spec.inst_bitmap.iter().enumerate() {
            self.write_sealed(bus, layout.inst_word_addr(id, w), *word);
        }
        self.write_sealed_bytes(bus, layout.reg_group_addr(id, 0), &spec.reg_bits);
        for (s, m) in spec.masks.iter().enumerate() {
            self.write_sealed(bus, layout.mask_addr(id, s), *m);
        }
        DomainId(id)
    }

    /// Re-write the privileges of an existing domain.
    ///
    /// # Panics
    ///
    /// Panics for unregistered domains or domain-0.
    pub fn update_domain(&mut self, bus: &mut Bus, id: DomainId, spec: &DomainSpec) {
        let layout = self.layout();
        assert!(id.0 != 0 && id.0 < self.regs.domain_nr, "unknown {id}");
        for (w, word) in spec.inst_bitmap.iter().enumerate() {
            self.write_sealed(bus, layout.inst_word_addr(id.0, w), *word);
        }
        self.write_sealed_bytes(bus, layout.reg_group_addr(id.0, 0), &spec.reg_bits);
        for (s, m) in spec.masks.iter().enumerate() {
            self.write_sealed(bus, layout.mask_addr(id.0, s), *m);
        }
        // Stale privileges may be cached; domain-0 flushes after updates,
        // and remote harts must flush before their next commit.
        self.inst_cache.flush();
        self.reg_cache.flush();
        self.mask_cache.flush();
        self.legal_cache.flush();
        self.ipr.valid = false;
        self.publish_shootdown();
    }

    /// Register an unforgeable switching gate in the SGT (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if the PCU is not installed, the SGT is full, or the
    /// destination domain does not exist.
    pub fn add_gate(&mut self, bus: &mut Bus, spec: GateSpec) -> GateId {
        let layout = self.layout();
        let id = self.regs.gate_nr;
        assert!(id < layout.max_gates, "SGT full");
        assert!(
            spec.dest_domain.0 < self.regs.domain_nr,
            "gate destination {} not registered",
            spec.dest_domain
        );
        self.regs.gate_nr += 1;
        let e = layout.sgt_entry_addr(id);
        self.write_sealed(bus, e, spec.gate_addr);
        self.write_sealed(bus, e + 8, spec.dest_addr);
        self.write_sealed(bus, e + 16, spec.dest_domain.0);
        self.write_sealed(bus, e + 24, SGT_FLAG_VALID);
        GateId(id)
    }

    /// Allocate a trusted stack for extended gates (`hccalls`/`hcrets`).
    /// `base`/`limit` must lie in trusted memory.
    ///
    /// # Panics
    ///
    /// Panics on a range outside trusted memory.
    pub fn set_trusted_stack(&mut self, base: u64, limit: u64) {
        assert!(
            base >= self.regs.tmemb && limit <= self.regs.tmeml && base <= limit,
            "trusted stack must lie inside trusted memory"
        );
        self.regs.hcsb = base;
        self.regs.hcsp = base;
        self.regs.hcsl = limit;
    }

    /// Save the trusted-stack registers of the current thread (domain-0's
    /// context-switch support, §5.2).
    pub fn save_trusted_stack(&self) -> (u64, u64, u64) {
        (self.regs.hcsp, self.regs.hcsb, self.regs.hcsl)
    }

    /// Restore previously saved trusted-stack registers.
    pub fn restore_trusted_stack(&mut self, sp: u64, sb: u64, sl: u64) {
        self.regs.hcsp = sp;
        self.regs.hcsb = sb;
        self.regs.hcsl = sl;
    }

    /// The domain the core currently runs in.
    pub fn current_domain(&self) -> DomainId {
        DomainId(self.regs.domain)
    }

    /// Force the current domain (testing / reset support only — real
    /// switches go through gates).
    #[doc(hidden)]
    pub fn force_domain(&mut self, d: DomainId) {
        self.regs.pdomain = self.regs.domain;
        self.regs.domain = d.0;
        self.ipr.valid = false;
    }

    /// Chaos-harness hook for targeted tests: flip the permit bit for
    /// `csr` (the read bit, or the write bit when `write`) in the cached
    /// register-bitmap line, if resident. Returns false when the line is
    /// not cached.
    #[doc(hidden)]
    pub fn corrupt_cached_reg_bit(&mut self, csr: u16, write: bool) -> bool {
        let domain = self.regs.domain;
        let group = csr as usize / REG_GROUP_CSRS;
        let unified = self.cfg.unified_hpt;
        let tag = (domain * REG_GROUPS as u64 + group as u64) | if unified { UTAG_REG } else { 0 };
        let bit = ((csr as usize % REG_GROUP_CSRS) * 2 + usize::from(write)) as u32;
        let cache = if unified {
            &mut self.inst_cache
        } else {
            &mut self.reg_cache
        };
        cache.corrupt_tagged(tag, bit)
    }

    /// Committed-instruction count on this hart — the clock the attached
    /// fault schedule is pinned to. Harnesses read it to offset injected
    /// plans past boot.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Chaos-harness hook: flip one bit of domain `id`'s instruction
    /// bitmap in trusted memory *without* resealing — a soft error aimed
    /// at a specific tenant. Local caches are flushed and a shootdown
    /// published so every hart re-walks the corrupt word and resolves it
    /// fail-closed (scrub-or-deny). Returns the flipped word's address;
    /// `None` when the PCU is uninstalled or the domain unregistered.
    #[doc(hidden)]
    pub fn chaos_flip_domain_inst_bit(
        &mut self,
        bus: &mut Bus,
        id: DomainId,
        bit: u32,
    ) -> Option<u64> {
        self.layout?;
        if id.0 == 0 || id.0 >= self.regs.domain_nr {
            return None;
        }
        let word = (bit as usize / 64) % INST_BITMAP_WORDS;
        let addr = self.layout_inst_addr(id.0, word);
        let old = bus.load(addr, 8).unwrap_or(0);
        bus.write_u64(addr, old ^ (1u64 << (bit % 64)));
        self.inst_cache.flush();
        self.reg_cache.flush();
        self.mask_cache.flush();
        self.legal_cache.flush();
        self.ipr.valid = false;
        self.publish_shootdown();
        self.fstats.injected += 1;
        self.note_fault_event();
        self.obs.emit(|| TraceEvent::FaultInjected {
            kind: "chaos_table_flip",
            detail: addr,
        });
        Some(addr)
    }

    /// Chaos-harness hook: defer this hart's next `polls` shootdown
    /// deliveries (as an injected `ShootdownDelay` would), jamming the
    /// coherence window so a subsequent publish can blow the delivery
    /// deadline.
    #[doc(hidden)]
    pub fn chaos_defer_shootdowns(&mut self, polls: u32) {
        self.shoot_defer = self.shoot_defer.saturating_add(polls);
        self.fstats.injected += 1;
        self.note_fault_event();
        let detail = u64::from(polls);
        self.obs.emit(|| TraceEvent::FaultInjected {
            kind: "chaos_shootdown_jam",
            detail,
        });
    }

    /// Legal-instruction-cache statistics (Draco ablation).
    pub fn legal_cache_stats(&self) -> CacheStats {
        self.legal_cache.stats
    }

    /// Snapshot the privilege-cache statistics.
    pub fn cache_stats(&self) -> GridCacheStats {
        GridCacheStats {
            inst: self.inst_cache.stats,
            reg: self.reg_cache.stats,
            mask: self.mask_cache.stats,
            sgt: self.sgt_cache.stats,
            legal: self.legal_cache.stats,
        }
    }

    /// Snapshot everything the PCU counts into the unified
    /// [`Counters`] registry (the timing and run sections are filled in
    /// by whoever owns the timing model and the run loop).
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            caches: self.cache_stats(),
            ..Counters::default()
        };
        c.checks.inst = self.stats.inst_checks;
        c.checks.csr = self.stats.csr_checks;
        c.checks.faults = self.stats.faults;
        c.checks.tmem_denials = self.stats.tmem_denials;
        c.gates.calls = self.stats.gate_calls;
        c.gates.returns = self.stats.gate_returns;
        c.gates.prefetches = self.stats.prefetches;
        c.gates.flushes = self.stats.flushes;
        c.run.trace_dropped = self.obs.dropped();
        c.run.audit_denied = self.audit.total();
        c.run.fault_injected = self.fstats.injected;
        c.run.fault_detected = self.fstats.detected;
        c.run.fault_recovered = self.fstats.recovered;
        c.run.fault_denied = self.fstats.denied;
        c.run.fault_shootdown_expired = self.fstats.shootdown_expired;
        c.smp.shootdowns = self.stats.shootdowns_sent;
        c.smp.shootdown_acks = self.stats.shootdowns_taken;
        c.smp.flushed_entries = self.stats.shootdown_flushed;
        c.smp.flush_cycles = self.stats.shootdown_flush_cycles;
        c
    }

    // ---- snapshot/restore ----

    /// Swap in a different trusted-memory seal store. Machine forks
    /// need this: [`Pcu::mirror`]/[`PcuSnapshot::build`] *share* the
    /// store by design (mirror PCUs of one machine verify against one
    /// baseline), so an independent fork must replace it with a
    /// [`SealStore::fork`] copy or its writes would reseal the original.
    pub fn replace_seal_store(&mut self, seals: Arc<SealStore>) {
        self.seals = seals;
    }

    /// Test-only seeded-bug switch: skip enforcement of failed
    /// instruction-bitmap checks. See the field docs; used by the
    /// differential-oracle tests to prove divergence detection.
    #[doc(hidden)]
    pub fn set_skip_inst_check(&mut self, skip: bool) {
        self.skip_inst_check = skip;
    }

    /// Export every piece of mutable PCU state (snapshot seam). The
    /// shared structures — seal store, shootdown cell — are exported
    /// separately, once per machine, by the replay harness; the
    /// observability handle is host-side and excluded. Call at a step boundary (the
    /// per-step event accumulator is excluded because `drain_events`
    /// empties it at the end of every step).
    pub fn export_state(&self) -> PcuState {
        let r = &self.regs;
        PcuState {
            regs: [
                r.domain,
                r.pdomain,
                r.domain_nr,
                r.csr_cap,
                r.csr_mask,
                r.inst_cap,
                r.gate_addr,
                r.gate_nr,
                r.hcsp,
                r.hcsb,
                r.hcsl,
                r.tmemb,
                r.tmeml,
            ],
            layout: self.layout,
            ipr_domain: self.ipr.domain,
            ipr_words: self.ipr.words,
            ipr_valid: self.ipr.valid,
            inst_cache: self.inst_cache.export_state(),
            reg_cache: self.reg_cache.export_state(),
            mask_cache: self.mask_cache.export_state(),
            sgt_cache: self.sgt_cache.export_state(),
            legal_cache: self.legal_cache.export_state(),
            stats: self.stats,
            fstats: self.fstats,
            scrubs_seen: self.scrubs_seen,
            commits: self.commits,
            poisoned: self.poisoned,
            shoot_defer: self.shoot_defer,
            shoot_defer_polls: self.shoot_defer_polls,
            faults: self.faults.clone(),
            audit: self.audit.clone(),
        }
    }

    /// Restore state exported by [`Pcu::export_state`] into a PCU built
    /// with the same [`PcuConfig`]. Cache-line and table seals restore
    /// verbatim (pending corruption survives the round trip); the
    /// shootdown attachment and seal store are left as-is — the caller
    /// restores those shared structures once per machine.
    pub fn import_state(&mut self, s: &PcuState) {
        let [domain, pdomain, domain_nr, csr_cap, csr_mask, inst_cap, gate_addr, gate_nr, hcsp, hcsb, hcsl, tmemb, tmeml] =
            s.regs;
        self.regs = GridRegs {
            domain,
            pdomain,
            domain_nr,
            csr_cap,
            csr_mask,
            inst_cap,
            gate_addr,
            gate_nr,
            hcsp,
            hcsb,
            hcsl,
            tmemb,
            tmeml,
        };
        self.layout = s.layout;
        self.ipr = InstPrivReg {
            domain: s.ipr_domain,
            words: s.ipr_words,
            valid: s.ipr_valid,
        };
        self.inst_cache.import_state(&s.inst_cache);
        self.reg_cache.import_state(&s.reg_cache);
        self.mask_cache.import_state(&s.mask_cache);
        self.sgt_cache.import_state(&s.sgt_cache);
        self.legal_cache.import_state(&s.legal_cache);
        self.stats = s.stats;
        self.fstats = s.fstats;
        self.scrubs_seen = s.scrubs_seen;
        // Restored caches may hold detections not yet reconciled.
        self.scrub_pending = true;
        self.commits = s.commits;
        self.poisoned = s.poisoned;
        self.shoot_defer = s.shoot_defer;
        self.shoot_defer_polls = s.shoot_defer_polls;
        self.faults = s.faults.clone();
        self.audit = s.audit.clone();
        self.ev = ExtEvents::default();
    }

    // ---- internals ----

    /// Whether checks apply: M-mode is domain-0 firmware territory, and
    /// domain-0 itself "is given all the privileges by default" (§4.4).
    fn active(&self, cpu: &CpuState) -> bool {
        cpu.priv_level != Priv::M && self.regs.domain != 0
    }

    fn tmem_read(&self, bus: &mut Bus, a: u64) -> u64 {
        bus.load(a, 8).unwrap_or(0)
    }

    /// A trusted-memory read on a Grid Cache refill path: verified
    /// against the seal store when integrity is on. A mismatch means the
    /// word was corrupted outside the architectural write paths; the
    /// walk aborts with `GridIntegrityFault` and the caller resolves the
    /// check as deny.
    fn tmem_read_verified(&mut self, bus: &mut Bus, a: u64) -> Result<u64, Exception> {
        let v = self.tmem_read(bus, a);
        if !self.cfg.integrity {
            return Ok(v);
        }
        match self.seals.verify(a, v) {
            SealVerdict::Ok => Ok(v),
            SealVerdict::Corrupt => Err(Exception::GridIntegrityFault(a)),
        }
    }

    /// Write one trusted-table word through the architectural path and
    /// seal it.
    fn write_sealed(&mut self, bus: &mut Bus, addr: u64, value: u64) {
        bus.write_u64(addr, value);
        self.seals.seal(addr, value);
    }

    /// Write a byte run into the trusted tables and seal every touched
    /// 8-byte word (the table layouts keep these runs word-aligned).
    fn write_sealed_bytes(&mut self, bus: &mut Bus, addr: u64, bytes: &[u8]) {
        bus.write_bytes(addr, bytes);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.seals
                .seal(addr + (i * 8) as u64, u64::from_le_bytes(w));
        }
    }

    /// Fetch (through the HPT cache) one word of the instruction bitmap.
    fn inst_word(&mut self, bus: &mut Bus, domain: u64, w: usize) -> Result<u64, Exception> {
        let mut tag = domain * INST_BITMAP_WORDS as u64 + w as u64;
        if self.cfg.unified_hpt {
            tag |= UTAG_INST;
        }
        if let Some(p) = self.inst_cache.lookup(tag) {
            self.obs.emit(|| TraceEvent::Cache {
                cache: CacheKind::HptInst,
                hit: true,
            });
            return Ok(p[0]);
        }
        self.obs.emit(|| TraceEvent::Cache {
            cache: CacheKind::HptInst,
            hit: false,
        });
        self.ev.hpt_inst_miss += 1;
        self.scrub_pending = true;
        let word = self.tmem_read_verified(bus, self.layout_inst_addr(domain, w))?;
        self.inst_cache.insert(tag, [word, 0, 0, 0]);
        Ok(word)
    }

    fn layout_inst_addr(&self, domain: u64, w: usize) -> u64 {
        self.regs.inst_cap + domain * crate::layout::INST_BITMAP_STRIDE + (w * 8) as u64
    }

    fn layout_reg_group_addr(&self, domain: u64, g: usize) -> u64 {
        self.regs.csr_cap
            + domain * crate::layout::REG_BITMAP_STRIDE
            + (g * REG_GROUP_CSRS * 2 / 8) as u64
    }

    fn layout_mask_addr(&self, domain: u64, s: usize) -> u64 {
        self.regs.csr_mask + domain * crate::layout::MASK_STRIDE + (s * 8) as u64
    }

    /// The current domain's instruction bitmap, via the bypass register
    /// when enabled.
    fn ipr_words(&mut self, bus: &mut Bus) -> Result<[u64; INST_BITMAP_WORDS], Exception> {
        let domain = self.regs.domain;
        if self.cfg.bypass && self.ipr.valid && self.ipr.domain == domain {
            return Ok(self.ipr.words);
        }
        let mut words = [0u64; INST_BITMAP_WORDS];
        for (w, slot) in words.iter_mut().enumerate() {
            *slot = self.inst_word(bus, domain, w)?;
        }
        if self.cfg.bypass {
            self.ipr = InstPrivReg {
                domain,
                words,
                valid: true,
            };
        }
        Ok(words)
    }

    /// Fetch (through the HPT cache) the register-bitmap bits for `csr`:
    /// returns (readable, writable).
    fn reg_bits(
        &mut self,
        bus: &mut Bus,
        domain: u64,
        csr: u16,
    ) -> Result<(bool, bool), Exception> {
        let group = csr as usize / REG_GROUP_CSRS;
        let unified = self.cfg.unified_hpt;
        let tag = (domain * REG_GROUPS as u64 + group as u64) | if unified { UTAG_REG } else { 0 };
        let cache = if unified {
            &mut self.inst_cache
        } else {
            &mut self.reg_cache
        };
        let hit = cache.lookup(tag);
        self.obs.emit(|| TraceEvent::Cache {
            cache: CacheKind::HptReg,
            hit: hit.is_some(),
        });
        let payload = match hit {
            Some(p) => p,
            None => {
                self.ev.hpt_reg_miss += 1;
                self.scrub_pending = true;
                let base = self.layout_reg_group_addr(domain, group);
                let mut p = [0u64; 4];
                for (i, slot) in p.iter_mut().enumerate() {
                    *slot = self.tmem_read_verified(bus, base + (i * 8) as u64)?;
                }
                let cache = if unified {
                    &mut self.inst_cache
                } else {
                    &mut self.reg_cache
                };
                cache.insert(tag, p);
                p
            }
        };
        let bit = (csr as usize % REG_GROUP_CSRS) * 2;
        let word = payload[bit / 64];
        let r = word >> (bit % 64) & 1 != 0;
        let w = word >> (bit % 64 + 1) & 1 != 0;
        Ok((r, w))
    }

    /// Fetch (through the HPT cache) the write bit-mask for `slot`.
    fn mask_for(&mut self, bus: &mut Bus, domain: u64, slot: usize) -> Result<u64, Exception> {
        let unified = self.cfg.unified_hpt;
        let tag = (domain * MASK_SLOTS as u64 + slot as u64) | if unified { UTAG_MASK } else { 0 };
        let cache = if unified {
            &mut self.inst_cache
        } else {
            &mut self.mask_cache
        };
        if let Some(p) = cache.lookup(tag) {
            self.obs.emit(|| TraceEvent::Cache {
                cache: CacheKind::HptMask,
                hit: true,
            });
            return Ok(p[0]);
        }
        self.obs.emit(|| TraceEvent::Cache {
            cache: CacheKind::HptMask,
            hit: false,
        });
        self.ev.hpt_mask_miss += 1;
        self.scrub_pending = true;
        let m = self.tmem_read_verified(bus, self.layout_mask_addr(domain, slot))?;
        let cache = if unified {
            &mut self.inst_cache
        } else {
            &mut self.mask_cache
        };
        cache.insert(tag, [m, 0, 0, 0]);
        Ok(m)
    }

    /// Fetch (through the SGT cache) gate entry `gid`:
    /// `[gate_addr, dest_addr, dest_domain, flags]`.
    fn sgt_entry(&mut self, bus: &mut Bus, gid: u64) -> Result<[u64; 4], Exception> {
        if let Some(p) = self.sgt_cache.lookup(gid) {
            self.obs.emit(|| TraceEvent::Cache {
                cache: CacheKind::Sgt,
                hit: true,
            });
            return Ok(p);
        }
        self.obs.emit(|| TraceEvent::Cache {
            cache: CacheKind::Sgt,
            hit: false,
        });
        self.ev.sgt_miss += 1;
        self.scrub_pending = true;
        let base = self.regs.gate_addr + gid * crate::layout::SGT_ENTRY_BYTES;
        let mut p = [0u64; 4];
        for (i, slot) in p.iter_mut().enumerate() {
            *slot = self.tmem_read_verified(bus, base + (i * 8) as u64)?;
        }
        self.sgt_cache.insert(gid, p);
        Ok(p)
    }

    fn fault(&mut self, e: Exception) -> Exception {
        self.stats.faults += 1;
        e
    }

    /// Record a denied check in the audit log, then count the fault.
    /// Every privilege violation the PCU raises goes through here so
    /// the log captures the full (PC, instruction, cause) context.
    fn deny(&mut self, cpu: &CpuState, kind: AuditKind, raw: u32, e: Exception) -> Exception {
        let detail = e.tval();
        self.deny_with_detail(cpu, kind, raw, e, detail)
    }

    /// [`Self::deny`] with an explicit audit `detail` word, for sites
    /// (like shootdown-deadline expiry) that pack extra context into the
    /// audit record beyond the exception's trap value.
    fn deny_with_detail(
        &mut self,
        cpu: &CpuState,
        kind: AuditKind,
        raw: u32,
        e: Exception,
        detail: u64,
    ) -> Exception {
        self.audit.push(AuditRecord {
            pc: cpu.pc,
            raw,
            priv_level: cpu.priv_level as u8,
            domain: self.regs.domain as u16,
            kind,
            cause: e.cause(),
            detail,
        });
        // Flag the denial on the step's drained events so the request
        // tracer can attribute it to the request in flight.
        self.ev.denied = true;
        self.ev.deny_cause = e.cause();
        self.ev.deny_detail = e.tval();
        self.fault(e)
    }

    /// Resolve a corrupt-table detection fail-closed: count it, emit the
    /// integrity trace event, audit the denial and raise the fault.
    fn integrity_deny(&mut self, cpu: &CpuState, raw: u32, e: Exception) -> Exception {
        self.fstats.detected += 1;
        self.fstats.denied += 1;
        self.note_fault_event();
        let detail = e.tval();
        self.obs.emit(|| TraceEvent::IntegrityEvent {
            scope: "table",
            detail,
            recovered: false,
        });
        self.deny(cpu, AuditKind::Integrity, raw, e)
    }

    /// Mark one fault-layer event (injection or detection) on the
    /// current step's event record.
    fn note_fault_event(&mut self) {
        self.ev.fault_events = self.ev.fault_events.saturating_add(1);
    }

    /// A prefetch walk hit a corrupt table word: detection without a
    /// trap — the word is simply not cached, and the demand walk that
    /// actually needs it resolves fail-closed.
    fn note_prefetch_skip(&mut self, addr: u64) {
        self.fstats.detected += 1;
        self.fstats.recovered += 1;
        self.note_fault_event();
        self.obs.emit(|| TraceEvent::IntegrityEvent {
            scope: "prefetch",
            detail: addr,
            recovered: true,
        });
    }

    /// Fold cache-scrub detections (seal-mismatch hits scrubbed inside
    /// `PrivCache::lookup`) into the fault tallies and the step's event
    /// record. Scrubs are detect-and-recover: the re-walk from trusted
    /// memory is the recovery.
    fn reconcile_scrubs(&mut self) {
        let total = self.inst_cache.corrupt_detected
            + self.reg_cache.corrupt_detected
            + self.mask_cache.corrupt_detected
            + self.sgt_cache.corrupt_detected
            + self.legal_cache.corrupt_detected;
        let fresh = total - self.scrubs_seen;
        if fresh == 0 {
            return;
        }
        self.scrubs_seen = total;
        self.fstats.detected += fresh;
        self.fstats.recovered += fresh;
        self.ev.fault_events = self
            .ev
            .fault_events
            .saturating_add(fresh.min(u64::from(u16::MAX)) as u16);
        self.obs.emit(|| TraceEvent::IntegrityEvent {
            scope: "cache",
            detail: fresh,
            recovered: true,
        });
    }

    /// Drain and apply every fault-schedule event due at the current
    /// commit.
    fn poll_faults(&mut self, bus: &mut Bus) {
        loop {
            let due = match self.faults.as_mut() {
                Some(plan) => plan.next_due(self.commits),
                None => return,
            };
            match due {
                Some(kind) => self.apply_fault(bus, kind),
                None => return,
            }
        }
    }

    fn cache_for_mut(&mut self, sel: CacheSel) -> &mut PrivCache {
        match sel {
            CacheSel::Inst => &mut self.inst_cache,
            CacheSel::Reg => &mut self.reg_cache,
            CacheSel::Mask => &mut self.mask_cache,
            CacheSel::Sgt => &mut self.sgt_cache,
            CacheSel::Legal => &mut self.legal_cache,
        }
    }

    /// Apply one scheduled fault. Injections that find nothing to
    /// corrupt (an empty cache, an uninstalled PCU) are skipped without
    /// being counted — only applied faults appear in `fault_injected`.
    fn apply_fault(&mut self, bus: &mut Bus, kind: FaultKind) {
        let applied: Option<u64> = match kind {
            FaultKind::TableBitFlip { entropy, bit } => self.flip_table_word(bus, entropy, bit),
            FaultKind::CacheCorrupt {
                cache,
                entropy,
                bit,
            } => self
                .cache_for_mut(cache)
                .corrupt_entry(entropy, bit)
                .then_some(cache as u64),
            FaultKind::CacheEvict { cache, entropy } => self
                .cache_for_mut(cache)
                .evict_entry(entropy)
                .then_some(cache as u64),
            FaultKind::ShootdownDrop => {
                self.shoot_defer = self.shoot_defer.saturating_add(1);
                Some(1)
            }
            FaultKind::ShootdownDelay { polls } => {
                self.shoot_defer = self.shoot_defer.saturating_add(polls);
                Some(polls as u64)
            }
            // Snapshot flips are applied by the harness at snapshot-build
            // time (`PcuSnapshot::corrupt`), not at commit boundaries.
            FaultKind::SnapshotBitFlip { .. } => None,
        };
        if let Some(detail) = applied {
            self.fstats.injected += 1;
            self.note_fault_event();
            let name = kind.name();
            self.obs
                .emit(|| TraceEvent::FaultInjected { kind: name, detail });
        }
    }

    /// Flip `bit` of one privilege-table word in trusted memory,
    /// selected deterministically by `entropy` across the installed
    /// regions (inst bitmap / reg bitmap / bit-mask array / SGT). The
    /// flip goes around the architectural write path: no reseal, no
    /// shootdown — exactly what a soft error looks like.
    fn flip_table_word(&mut self, bus: &mut Bus, entropy: u64, bit: u32) -> Option<u64> {
        self.layout?;
        let domains = self.regs.domain_nr.max(1);
        let sub = entropy >> 2;
        let inst_pick = |pcu: &Pcu| {
            pcu.layout_inst_addr(
                sub % domains,
                ((sub >> 16) % INST_BITMAP_WORDS as u64) as usize,
            )
        };
        let addr = match entropy % 4 {
            0 => inst_pick(self),
            1 => {
                let g = ((sub >> 16) % REG_GROUPS as u64) as usize;
                self.layout_reg_group_addr(sub % domains, g) + ((sub >> 40) % 4) * 8
            }
            2 => self.layout_mask_addr(sub % domains, ((sub >> 16) % MASK_SLOTS as u64) as usize),
            _ if self.regs.gate_nr > 0 => {
                self.regs.gate_addr
                    + (sub % self.regs.gate_nr) * crate::layout::SGT_ENTRY_BYTES
                    + ((sub >> 16) % 4) * 8
            }
            _ => inst_pick(self),
        };
        let old = bus.load(addr, 8).unwrap_or(0);
        bus.write_u64(addr, old ^ (1u64 << (bit % 64)));
        Some(addr)
    }

    /// The audit log of denied checks accumulated so far.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Drain the audit log, returning the retained records and
    /// resetting the drop counter.
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        self.audit.take()
    }

    fn gate_call(
        &mut self,
        cpu: &mut CpuState,
        bus: &mut Bus,
        d: &Decoded,
        extended: bool,
    ) -> Result<Flow, Exception> {
        self.stats.gate_calls += 1;
        let gid = cpu.reg(d.rs1);
        if gid >= self.regs.gate_nr {
            return Err(self.deny(cpu, AuditKind::Gate, d.raw, Exception::GridGateFault(gid)));
        }
        let [gate_addr, dest_addr, dest_domain, flags] = match self.sgt_entry(bus, gid) {
            Ok(p) => p,
            Err(e) => return Err(self.integrity_deny(cpu, d.raw, e)),
        };
        if flags & SGT_FLAG_VALID == 0 {
            return Err(self.deny(cpu, AuditKind::Gate, d.raw, Exception::GridGateFault(gid)));
        }
        // Property (i): each gate can only be called at its registered
        // address — defeats injected and ROP-constructed gates (§4.2).
        if gate_addr != cpu.pc {
            return Err(self.deny(
                cpu,
                AuditKind::Gate,
                d.raw,
                Exception::GridGateFault(cpu.pc),
            ));
        }
        if extended {
            let sp = self.regs.hcsp;
            if sp < self.regs.hcsb || sp + 16 > self.regs.hcsl {
                return Err(self.deny(cpu, AuditKind::Gate, d.raw, Exception::GridGateFault(sp)));
            }
            // The trusted stack lives in trusted memory; the PCU writes it
            // directly (software cannot, outside domain-0).
            bus.store(sp, 8, cpu.pc.wrapping_add(4))
                .ok_or(Exception::GridGateFault(sp))?;
            bus.store(sp + 8, 8, self.regs.domain)
                .ok_or(Exception::GridGateFault(sp))?;
            self.regs.hcsp = sp + 16;
            self.ev.tstack_ops += 2;
        }
        let from = self.regs.domain;
        self.regs.pdomain = from;
        self.regs.domain = dest_domain;
        self.ipr.valid = false;
        self.ev.gate_switch = true;
        self.obs.emit(|| TraceEvent::GateCall {
            gate: gate_addr,
            target: dest_addr,
            from_domain: from as u16,
            to_domain: dest_domain as u16,
            extended,
        });
        self.obs.emit(|| TraceEvent::DomainSwitch {
            from: from as u16,
            to: dest_domain as u16,
        });
        Ok(Flow::Jump(dest_addr))
    }

    fn gate_return(&mut self, cpu: &CpuState, bus: &mut Bus, raw: u32) -> Result<Flow, Exception> {
        self.stats.gate_returns += 1;
        let sp = self.regs.hcsp;
        if sp < self.regs.hcsb + 16 {
            return Err(self.deny(cpu, AuditKind::Gate, raw, Exception::GridGateFault(sp)));
        }
        let ret = self.tmem_read(bus, sp - 16);
        let dom = self.tmem_read(bus, sp - 8);
        self.ev.tstack_ops += 2;
        // "The extended return instruction is not allowed to return to
        // domain-0" (§4.4).
        if dom == 0 {
            return Err(self.deny(cpu, AuditKind::Gate, raw, Exception::GridGateFault(sp)));
        }
        self.regs.hcsp = sp - 16;
        let from = self.regs.domain;
        self.regs.pdomain = from;
        self.regs.domain = dom;
        self.ipr.valid = false;
        self.ev.gate_switch = true;
        self.obs.emit(|| TraceEvent::GateReturn {
            target: ret,
            from_domain: from as u16,
            to_domain: dom as u16,
        });
        self.obs.emit(|| TraceEvent::DomainSwitch {
            from: from as u16,
            to: dom as u16,
        });
        Ok(Flow::Jump(ret))
    }

    fn prefetch(&mut self, bus: &mut Bus, sel: u64) {
        self.stats.prefetches += 1;
        let domain = self.regs.domain;
        let fetch_group = |pcu: &mut Pcu, bus: &mut Bus, g: usize| {
            let tag = domain * REG_GROUPS as u64 + g as u64;
            if pcu.reg_cache.contains(tag) {
                return;
            }
            let base = pcu.layout_reg_group_addr(domain, g);
            let mut p = [0u64; 4];
            for (i, slot) in p.iter_mut().enumerate() {
                match pcu.tmem_read_verified(bus, base + (i * 8) as u64) {
                    Ok(v) => *slot = v,
                    Err(_) => {
                        pcu.note_prefetch_skip(base);
                        return;
                    }
                }
            }
            pcu.reg_cache.insert(tag, p);
            pcu.ev.prefetch_reads += 1;
        };
        let fetch_mask = |pcu: &mut Pcu, bus: &mut Bus, s: usize| {
            let tag = domain * MASK_SLOTS as u64 + s as u64;
            if pcu.mask_cache.contains(tag) {
                return;
            }
            let addr = pcu.layout_mask_addr(domain, s);
            let m = match pcu.tmem_read_verified(bus, addr) {
                Ok(v) => v,
                Err(_) => {
                    pcu.note_prefetch_skip(addr);
                    return;
                }
            };
            pcu.mask_cache.insert(tag, [m, 0, 0, 0]);
            pcu.ev.prefetch_reads += 1;
        };
        if sel == 0 {
            // "The pfch can fetch entries of all the CSRs" (§5.1) — bounded
            // by what the caches can actually hold.
            for g in 0..REG_GROUPS.min(self.reg_cache.capacity()) {
                fetch_group(self, bus, g);
            }
            for s in 0..MASK_SLOTS.min(self.mask_cache.capacity()) {
                fetch_mask(self, bus, s);
            }
        } else {
            let csr = (sel & 0xfff) as u16;
            fetch_group(self, bus, csr as usize / REG_GROUP_CSRS);
            if let Some(s) = mask_slot(csr) {
                fetch_mask(self, bus, s);
            }
        }
    }

    /// Flush one cache and report how much it discarded.
    fn flush_one(&mut self, kind: CacheKind) {
        let discarded = match kind {
            CacheKind::HptInst => self.inst_cache.flush(),
            CacheKind::HptReg => self.reg_cache.flush(),
            CacheKind::HptMask => self.mask_cache.flush(),
            CacheKind::Sgt => self.sgt_cache.flush(),
            CacheKind::Legal => self.legal_cache.flush(),
        };
        self.obs.emit(|| TraceEvent::CacheFlush {
            cache: kind,
            discarded,
        });
    }

    fn flush_caches(&mut self, sel: u64) {
        self.stats.flushes += 1;
        match sel {
            0 => {
                self.flush_one(CacheKind::HptInst);
                self.flush_one(CacheKind::HptReg);
                self.flush_one(CacheKind::HptMask);
                self.flush_one(CacheKind::Sgt);
                self.flush_one(CacheKind::Legal);
                self.ipr.valid = false;
            }
            1 => {
                self.flush_one(CacheKind::HptInst);
                self.flush_one(CacheKind::Legal);
                self.ipr.valid = false;
            }
            2 => self.flush_one(CacheKind::HptReg),
            3 => self.flush_one(CacheKind::HptMask),
            4 => self.flush_one(CacheKind::Sgt),
            _ => {}
        }
        // `pflh` is the PCU fence: publish so every other hart flushes
        // too before its next commit.
        self.publish_shootdown();
    }

    // ---- SMP coherence ----

    /// Publish a shootdown to the other harts (no-op when detached or
    /// single-hart).
    fn publish_shootdown(&mut self) {
        let Some(cell) = &self.shoot else { return };
        if cell.harts() <= 1 {
            return;
        }
        let epoch = cell.publish(self.hart);
        self.stats.shootdowns_sent += 1;
        let hart = self.hart as u64;
        self.obs.emit(|| TraceEvent::Shootdown { hart, epoch });
    }

    /// Honor a pending shootdown: flush every privilege cache, charge
    /// the re-warm cost, and acknowledge the epoch. Called before each
    /// instruction check, which makes the flush visible strictly before
    /// the next commit.
    /// Injected delivery failures (`ShootdownDrop`/`ShootdownDelay`)
    /// defer the flush-and-ack; the retry window is bounded by
    /// [`PcuConfig::shootdown_deadline_polls`], after which the PCU
    /// restores coherence by flushing anyway and faults the hart
    /// (`GridIntegrityFault` on the epoch) — stale privileges are never
    /// consulted past the deadline, and the expiry is architecturally
    /// visible instead of silently absorbed.
    fn poll_shootdown(&mut self) -> Result<(), Exception> {
        let Some(cell) = &self.shoot else {
            return Ok(());
        };
        let Some(epoch) = cell.pending(self.hart) else {
            self.shoot_defer_polls = 0;
            return Ok(());
        };
        if self.shoot_defer > 0 {
            self.shoot_defer_polls += 1;
            if self.shoot_defer_polls <= self.cfg.shootdown_deadline_polls {
                // Bounded backoff: delivery failed this poll; retry at
                // the next commit.
                self.shoot_defer -= 1;
                return Ok(());
            }
            // Deadline blown: restore coherence (flush + ack), then
            // fault the hart.
            self.shoot_defer = 0;
            self.shoot_defer_polls = 0;
            self.take_shootdown(epoch);
            self.fstats.shootdown_expired += 1;
            self.fstats.detected += 1;
            self.fstats.denied += 1;
            self.note_fault_event();
            self.obs.emit(|| TraceEvent::IntegrityEvent {
                scope: "shootdown",
                detail: epoch,
                recovered: false,
            });
            return Err(Exception::GridIntegrityFault(epoch));
        }
        self.shoot_defer_polls = 0;
        self.take_shootdown(epoch);
        Ok(())
    }

    /// Flush every privilege cache and acknowledge one shootdown epoch.
    fn take_shootdown(&mut self, epoch: u64) {
        let discarded = self.inst_cache.flush()
            + self.reg_cache.flush()
            + self.mask_cache.flush()
            + self.sgt_cache.flush()
            + self.legal_cache.flush();
        self.ipr.valid = false;
        let cell = self.shoot.as_ref().expect("polled above");
        cell.ack(self.hart, epoch);
        self.stats.shootdowns_taken += 1;
        self.stats.shootdown_flushed += discarded;
        self.stats.shootdown_flush_cycles += discarded * FLUSH_CYCLES_PER_ENTRY;
        self.ev.shootdown_flushed = self
            .ev
            .shootdown_flushed
            .saturating_add(discarded.min(u64::from(u16::MAX)) as u16);
        self.ev.shootdown_epoch = epoch;
        let hart = self.hart as u64;
        self.obs.emit(|| TraceEvent::ShootdownAck {
            hart,
            epoch,
            discarded,
        });
    }

    /// Whether a write to `[paddr, paddr+len)` lands in the privilege
    /// tables (trusted memory below the trusted-stack region).
    fn hits_tables(&self, paddr: u64, len: u8) -> bool {
        let Some(layout) = self.layout else {
            return false;
        };
        let (b, l) = (layout.tmem_base, layout.tstack_base());
        l > b && paddr + len as u64 > b && paddr < l
    }
}

impl Extension for Pcu {
    fn check_inst(&mut self, cpu: &CpuState, bus: &mut Bus, d: &Decoded) -> Result<(), Exception> {
        // Commit boundary: the deterministic fault schedule (when
        // attached) is driven by this counter.
        self.commits += 1;
        self.poll_faults(bus);
        // SMP coherence: a pending shootdown is honored here, before
        // this instruction can commit against stale cached privileges.
        if let Err(e) = self.poll_shootdown() {
            // The expiry audit record packs the configured deadline into
            // the detail's top 16 bits alongside the blown epoch, so the
            // log alone shows which window the hart failed to honor.
            let detail = (u64::from(self.cfg.shootdown_deadline_polls) << 48)
                | (e.tval() & 0x0000_FFFF_FFFF_FFFF);
            return Err(self.deny_with_detail(cpu, AuditKind::Shootdown, d.raw, e, detail));
        }
        // Snapshot verification failed: this PCU's register file is not
        // trustworthy, so everything outside M-mode is denied — fail
        // closed, never enforce (or skip enforcing) a corrupted policy.
        if self.poisoned && cpu.priv_level != Priv::M {
            self.fstats.denied += 1;
            self.note_fault_event();
            self.obs.emit(|| TraceEvent::IntegrityEvent {
                scope: "snapshot",
                detail: 0,
                recovered: false,
            });
            return Err(self.deny(
                cpu,
                AuditKind::Integrity,
                d.raw,
                Exception::GridIntegrityFault(0),
            ));
        }
        if !self.active(cpu) {
            return Ok(());
        }
        // Gate and cache-management instructions are executable from every
        // domain; gates are validated against the SGT instead (§4.2).
        if d.kind.is_grid_custom() {
            return Ok(());
        }
        self.stats.inst_checks += 1;
        self.ev.checks = self.ev.checks.saturating_add(1);
        let domain = self.regs.domain as u16;
        let idx = d.kind.class_index();
        // Draco-style legal-instruction cache (§8): a (domain, bytes)
        // pair that already passed needs no re-check. CSR accesses stay
        // excluded — their legality can depend on the written value.
        let legal_tag = (self.regs.domain << 32) ^ d.raw as u64;
        let cacheable = self.cfg.legal_cache > 0 && !d.kind.is_csr_access();
        if cacheable {
            let hit = self.legal_cache.lookup(legal_tag).is_some();
            self.scrub_pending |= !hit;
            self.obs.emit(|| TraceEvent::Cache {
                cache: CacheKind::Legal,
                hit,
            });
            if hit {
                self.stats.legal_hits += 1;
                self.obs.emit(|| TraceEvent::Check {
                    kind: CheckKind::Inst,
                    allowed: true,
                    domain,
                    detail: idx as u64,
                });
                return Ok(());
            }
        }
        let words = match self.ipr_words(bus) {
            Ok(w) => w,
            Err(e) => return Err(self.integrity_deny(cpu, d.raw, e)),
        };
        let allowed = words[idx / 64] >> (idx % 64) & 1 != 0;
        self.obs.emit(|| TraceEvent::Check {
            kind: CheckKind::Inst,
            allowed,
            domain,
            detail: idx as u64,
        });
        if !allowed {
            // Seeded-bug hook (tests only): swallow the denial so the
            // differential oracle — whose spec PCU never has this flag —
            // can demonstrate first-divergence detection.
            if self.skip_inst_check {
                return Ok(());
            }
            return Err(self.deny(
                cpu,
                AuditKind::Inst,
                d.raw,
                Exception::GridInstFault(idx as u64),
            ));
        }
        if cacheable {
            self.legal_cache.insert(legal_tag, [0; 4]);
        }
        Ok(())
    }

    fn check_csr(
        &mut self,
        cpu: &CpuState,
        bus: &mut Bus,
        csr: u16,
        read: bool,
        write: bool,
        old: u64,
        new: u64,
    ) -> Result<(), Exception> {
        if !self.active(cpu) || self.csr_owned(csr) {
            return Ok(());
        }
        self.stats.csr_checks += 1;
        self.ev.checks = self.ev.checks.saturating_add(1);
        let domain = self.regs.domain;
        let (r_bit, w_bit) = match self.reg_bits(bus, domain, csr) {
            Ok(bits) => bits,
            Err(e) => return Err(self.integrity_deny(cpu, 0, e)),
        };
        let mut allowed = !read || r_bit;
        if allowed && write {
            match mask_slot(csr) {
                Some(slot) => {
                    // Bit-level control: V_csr ⊕ V_write ∧ ¬M == 0 (§4.1).
                    let mask = match self.mask_for(bus, domain, slot) {
                        Ok(m) => m,
                        Err(e) => return Err(self.integrity_deny(cpu, 0, e)),
                    };
                    allowed = (old ^ new) & !mask == 0;
                }
                None => allowed = w_bit,
            }
        }
        self.obs.emit(|| TraceEvent::Check {
            kind: CheckKind::Csr,
            allowed,
            domain: domain as u16,
            detail: csr as u64,
        });
        if allowed {
            Ok(())
        } else {
            Err(self.deny(cpu, AuditKind::Csr, 0, Exception::GridCsrFault(csr as u64)))
        }
    }

    fn check_phys(
        &mut self,
        cpu: &CpuState,
        paddr: u64,
        len: u8,
        write: bool,
    ) -> Result<(), Exception> {
        // A store that reaches the privilege tables (only domain-0 /
        // M-mode can — see the fence below) invalidates what other
        // harts may have cached: publish a shootdown.
        if write && self.hits_tables(paddr, len) {
            // Architectural stores into the tables re-baseline the
            // seals (trust-on-first-use for domain-0 direct writes).
            self.seals.note_write(paddr, len as u64);
            self.publish_shootdown();
        }
        // "The load and store instructions can access the trusted memory
        // region only in domain-0" (§4.5).
        if cpu.priv_level == Priv::M || self.regs.domain == 0 {
            return Ok(());
        }
        self.ev.checks = self.ev.checks.saturating_add(1);
        let (b, l) = (self.regs.tmemb, self.regs.tmeml);
        if l > b && paddr + len as u64 > b && paddr < l {
            self.stats.tmem_denials += 1;
            self.obs.emit(|| TraceEvent::TmemFence { paddr, write });
            self.obs.emit(|| TraceEvent::Check {
                kind: CheckKind::Phys,
                allowed: false,
                domain: self.regs.domain as u16,
                detail: paddr,
            });
            return Err(self.deny(cpu, AuditKind::Tmem, 0, Exception::GridTmemFault(paddr)));
        }
        Ok(())
    }

    fn csr_owned(&self, csr: u16) -> bool {
        (addr::GRID_DOMAIN..=addr::GRID_TMEML).contains(&csr)
    }

    fn read_csr(&mut self, cpu: &CpuState, csr: u16) -> Result<u64, Exception> {
        let r = &self.regs;
        let restricted = self.active(cpu);
        let value = match csr {
            addr::GRID_DOMAIN => return Ok(r.domain),
            addr::GRID_PDOMAIN => return Ok(r.pdomain),
            addr::GRID_DOMAIN_NR => return Ok(r.domain_nr),
            addr::GRID_GATE_NR => return Ok(r.gate_nr),
            addr::GRID_CSR_CAP => r.csr_cap,
            addr::GRID_CSR_MASK => r.csr_mask,
            addr::GRID_INST_CAP => r.inst_cap,
            addr::GRID_GATE_ADDR => r.gate_addr,
            addr::GRID_HCSP => r.hcsp,
            addr::GRID_HCSB => r.hcsb,
            addr::GRID_HCSL => r.hcsl,
            addr::GRID_TMEMB => r.tmemb,
            addr::GRID_TMEML => r.tmeml,
            _ => return Err(Exception::IllegalInst(csr as u64)),
        };
        if restricted {
            return Err(self.deny(cpu, AuditKind::Csr, 0, Exception::GridCsrFault(csr as u64)));
        }
        Ok(value)
    }

    fn write_csr(
        &mut self,
        cpu: &mut CpuState,
        _bus: &mut Bus,
        csr: u16,
        val: u64,
    ) -> Result<(), Exception> {
        // domain/pdomain can never be written; the rest only in domain-0
        // ("R/W in domain-0", Table 2). domain-nr/gate-nr are written by
        // domain-0 software when it registers domains and gates at
        // runtime (§5.2).
        if matches!(csr, addr::GRID_DOMAIN | addr::GRID_PDOMAIN) {
            return Err(self.deny(cpu, AuditKind::Csr, 0, Exception::GridCsrFault(csr as u64)));
        }
        if self.active(cpu) {
            return Err(self.deny(cpu, AuditKind::Csr, 0, Exception::GridCsrFault(csr as u64)));
        }
        let r = &mut self.regs;
        match csr {
            addr::GRID_DOMAIN_NR => r.domain_nr = val,
            addr::GRID_GATE_NR => r.gate_nr = val,
            addr::GRID_CSR_CAP => r.csr_cap = val,
            addr::GRID_CSR_MASK => r.csr_mask = val,
            addr::GRID_INST_CAP => r.inst_cap = val,
            addr::GRID_GATE_ADDR => r.gate_addr = val,
            addr::GRID_HCSP => r.hcsp = val,
            addr::GRID_HCSB => r.hcsb = val,
            addr::GRID_HCSL => r.hcsl = val,
            addr::GRID_TMEMB => r.tmemb = val,
            addr::GRID_TMEML => r.tmeml = val,
            _ => return Err(Exception::IllegalInst(csr as u64)),
        }
        // Re-pointing table bases changes what every hart's caches
        // front; treat it as a table mutation.
        self.publish_shootdown();
        Ok(())
    }

    fn exec_custom(
        &mut self,
        cpu: &mut CpuState,
        bus: &mut Bus,
        d: &Decoded,
    ) -> Result<Flow, Exception> {
        match d.kind {
            Kind::Hccall => self.gate_call(cpu, bus, d, false),
            Kind::Hccalls => self.gate_call(cpu, bus, d, true),
            Kind::Hcrets => self.gate_return(cpu, bus, d.raw),
            Kind::Pfch => {
                let sel = cpu.reg(d.rs1);
                self.prefetch(bus, sel);
                Ok(Flow::Next)
            }
            Kind::Pflh => {
                let sel = cpu.reg(d.rs1);
                self.flush_caches(sel);
                Ok(Flow::Next)
            }
            _ => Err(Exception::IllegalInst(d.raw as u64)),
        }
    }

    // Inlined into the machine's step and block loops, so the record
    // moves straight into the retired event instead of through a
    // returned copy.
    #[inline]
    fn drain_events(&mut self) -> ExtEvents {
        if self.scrub_pending {
            self.scrub_pending = false;
            self.reconcile_scrubs();
        }
        std::mem::take(&mut self.ev)
    }

    fn current_domain_id(&self) -> u16 {
        self.regs.domain as u16
    }

    fn coherence_epoch(&self) -> u64 {
        // The shootdown cell's epoch moves on every published
        // cross-hart invalidation; surfacing it here lets a running
        // superblock chain stop for the flush-before-next-commit
        // obligation, which `check_inst` then honours.
        self.shoot.as_ref().map_or(0, |c| c.epoch())
    }

    fn jit_guard(&self, cpu: &CpuState) -> Option<isa_sim::JitGuard> {
        // Vend a guard only when skipping the per-instruction
        // `check_inst` call changes no architectural or exported state:
        // no armed fault schedule (its clock is the commit counter, but
        // injections poll the bus), no poisoned register file (denies
        // outside M-mode), no pending or deferred shootdown (must flush
        // before the next commit). With the event ring or the profile on
        // the machine never asks (its `jit_run` returns first).
        // A shootdown that did land cleared the bypass register, so no
        // guard is vended until a stepped `check_inst` reloads it from
        // the new tables; a block compiled under other bitmap words
        // then fails its guard and recompiles, one under equal words
        // is reused.
        if self.faults.is_some()
            || self.poisoned
            || self.shoot_defer > 0
            || self.shoot_defer_polls > 0
            || self
                .shoot
                .as_ref()
                .is_some_and(|c| c.pending(self.hart).is_some())
        {
            return None;
        }
        if !self.active(cpu) {
            // M-mode / domain-0: `check_inst` early-outs past every
            // cache and bitmap — the guard only replays the commit.
            return Some(isa_sim::JitGuard {
                active: false,
                words: [0; isa_sim::jit::GUARD_WORDS],
            });
        }
        // The active fast path must be a pure read: the legal-
        // instruction cache mutates exported recency state on every
        // lookup, and a cold/foreign bypass register would walk the HPT
        // caches. Both fall back to per-instruction checking.
        if self.cfg.legal_cache > 0
            || !(self.cfg.bypass && self.ipr.valid && self.ipr.domain == self.regs.domain)
        {
            return None;
        }
        // Guarding on the bitmap *contents* (not a version) makes a
        // block exactly as fresh as the bypass register itself: any
        // `pflh`, gate switch, or shootdown that would reload `ipr`
        // with different bits fails the guard.
        Some(isa_sim::JitGuard {
            active: true,
            words: self.ipr.words,
        })
    }

    fn jit_commit(&mut self, checked: bool) {
        // Replays exactly what `check_inst` moves on the path the
        // block's guard hoisted: the commit clock always, the check
        // tallies only under an active regime. (`ev.checks` is not
        // replayed: it is drained per step and observed only by the
        // profile, which disqualifies JIT dispatch.)
        self.commits += 1;
        if checked {
            self.stats.inst_checks += 1;
        }
    }
    fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}
