//! Whole-machine snapshot capture, restore, and wire codec.
//!
//! A [`MachineSnapshot`] is a plain-data image of everything mutable in
//! a simulated machine: the shared bus (sparse RAM pages, MMIO, LR/SC
//! reservations, halt latches), the machine-wide seal store and
//! shootdown cell, the scheduler cursor, and one [`HartState`] per hart
//! (architectural registers, raw CSR file, step/timer counters,
//! timing-model words, and the full [`PcuState`] including Grid caches,
//! fault plan cursor and audit log).
//!
//! What is *not* captured is the machine **recipe**: RAM geometry
//! choices, `PcuConfig`, domain/gate installation order, the `Obs` handle.
//! Restoring means "rebuild the machine the same deterministic way you
//! built it, then overwrite all mutable state" — every installer write
//! (tables, seals, CSRs) is re-overwritten by the import, so the result
//! is bit-identical to the snapshotted run. The basic-block cache is
//! deliberately restored *cold*: the bbcache walk-replay invariant
//! guarantees cached and uncached paths retire identically, so an empty
//! cache only costs warm-up time, never determinism.

use std::collections::BTreeMap;
use std::fmt;

use isa_fault::{CacheSel, FaultEvent, FaultKind, FaultPlan};
use isa_grid::layout::INST_BITMAP_WORDS;
use isa_grid::{
    FaultLayerStats, GridLayout, Pcu, PcuState, PcuStats, PrivCacheState, SealStoreState,
};
use isa_obs::{AuditKind, AuditLog, AuditRecord, CacheCounters};
use isa_sim::{BusState, Machine, Priv};
use isa_smp::Smp;
use simkernel::SmpSession;

use crate::wire::{fnv1a, Dec, Enc, WireError, KIND_SNAPSHOT};

/// One hart's mutable state: architectural registers, raw CSRs, host
/// counters, timing-model words, and the attached PCU image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HartState {
    /// The 32 integer registers.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Privilege level bits (0=U, 1=S, 3=M).
    pub priv_level: u8,
    /// Live LR reservation line, if any.
    pub reservation: Option<u64>,
    /// Raw CSR file as `(addr, value)` pairs, ascending.
    pub csrs: Vec<(u16, u64)>,
    /// Instructions retired by this hart.
    pub steps: u64,
    /// Timer-interrupt divider, if armed.
    pub timer_every: Option<u64>,
    /// Steps since the timer last fired.
    pub timer_phase: u64,
    /// Trap tally as `(cause, count)` pairs, ascending.
    pub trap_counts: Vec<(u64, u64)>,
    /// Opaque timing-model state words ([`isa_sim::TimingSink`]).
    pub timing: Vec<u64>,
    /// Whether the basic-block cache was enabled (restored cold).
    pub bbcache: bool,
    /// The PCU image: Grid registers, caches, fault cursor, audit log.
    pub pcu: PcuState,
}

/// A whole-machine image: shared bus, machine-wide seal store and
/// shootdown cell, scheduler state, and one [`HartState`] per hart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// Shared memory bus image.
    pub bus: BusState,
    /// Machine-wide seal store (exported once, not per hart).
    pub seals: SealStoreState,
    /// Shootdown cell `(epoch, per-hart acks)`, if one is attached.
    pub shoot: Option<(u64, Vec<u64>)>,
    /// SMP scheduler `(cursor, quantum_used, rng)`, if taken from an
    /// [`Smp`].
    pub sched: Option<(u64, u64, u64)>,
    /// Session rounds completed ([`SmpSession::rounds`]); 0 for
    /// single-machine captures.
    pub rounds: u64,
    /// Per-hart state, hart 0 first.
    pub harts: Vec<HartState>,
}

/// Why a snapshot cannot be applied to the machine the caller rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// Hart counts differ between image and machine.
    HartCount {
        /// Harts in the snapshot.
        want: usize,
        /// Harts in the rebuilt machine.
        got: usize,
    },
    /// RAM geometry differs between image and machine.
    Geometry {
        /// `(base, size)` in the snapshot.
        want: (u64, u64),
        /// `(base, size)` in the rebuilt machine.
        got: (u64, u64),
    },
    /// The snapshot has a shootdown cell but the machine does not (or
    /// vice versa).
    Shootdown,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::HartCount { want, got } => {
                write!(f, "snapshot has {want} harts, machine has {got}")
            }
            RestoreError::Geometry { want, got } => write!(
                f,
                "snapshot RAM {:#x}+{:#x}, machine RAM {:#x}+{:#x}",
                want.0, want.1, got.0, got.1
            ),
            RestoreError::Shootdown => {
                write!(f, "shootdown cell present on one side only")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Capture one hart's mutable state (excluding the shared bus, seal
/// store and shootdown cell — capture those once per machine).
pub fn capture_hart(m: &Machine<Pcu>) -> HartState {
    HartState {
        regs: m.cpu.regs,
        pc: m.cpu.pc,
        priv_level: m.cpu.priv_level as u8,
        reservation: m.cpu.reservation,
        csrs: m.cpu.csrs.export_raw(),
        steps: m.steps,
        timer_every: m.timer_every,
        timer_phase: m.timer_phase(),
        trap_counts: m.trap_counts.iter().map(|(&k, &v)| (k, v)).collect(),
        timing: m.timing.save_state(),
        bbcache: m.bbcache.is_some(),
        pcu: m.ext.export_state(),
    }
}

/// Restore one hart from `s`. The basic-block cache restarts cold (see
/// the module docs for why that is sound).
pub fn restore_hart(m: &mut Machine<Pcu>, s: &HartState) {
    m.cpu.regs = s.regs;
    m.cpu.pc = s.pc;
    m.cpu.priv_level = Priv::from_bits(s.priv_level as u64);
    m.cpu.reservation = s.reservation;
    m.cpu.csrs.import_raw(&s.csrs);
    m.steps = s.steps;
    m.timer_every = s.timer_every;
    m.set_timer_phase(s.timer_phase);
    m.trap_counts = s.trap_counts.iter().copied().collect::<BTreeMap<_, _>>();
    m.timing.load_state(&s.timing);
    m.set_bbcache(s.bbcache);
    m.ext.import_state(&s.pcu);
}

/// Capture a single-hart machine (bus + optional shootdown cell + one
/// hart).
pub fn capture_machine(m: &Machine<Pcu>) -> MachineSnapshot {
    MachineSnapshot {
        bus: m.bus.export_state(),
        seals: m.ext.seal_store().export_state(),
        shoot: m.ext.shootdown_cell().map(|c| c.export_state()),
        sched: None,
        rounds: 0,
        harts: vec![capture_hart(m)],
    }
}

/// Restore a single-hart machine captured by [`capture_machine`]. The
/// caller must have rebuilt the machine with the same recipe (RAM
/// geometry, PCU config, installation sequence).
pub fn restore_machine(m: &mut Machine<Pcu>, s: &MachineSnapshot) -> Result<(), RestoreError> {
    if s.harts.len() != 1 {
        return Err(RestoreError::HartCount {
            want: s.harts.len(),
            got: 1,
        });
    }
    check_geometry(&s.bus, m.bus.ram_base(), m.bus.ram_size(), m.bus.harts())?;
    match (&s.shoot, m.ext.shootdown_cell()) {
        (Some((epoch, acks)), Some(cell)) => cell.import_state(*epoch, acks),
        (None, None) => {}
        _ => return Err(RestoreError::Shootdown),
    }
    m.bus.import_state(&s.bus);
    m.ext.seal_store().import_state(&s.seals);
    restore_hart(m, &s.harts[0]);
    Ok(())
}

/// Capture a whole [`Smp`] machine (bus, seal store, shootdown cell,
/// scheduler, every hart). `rounds` is stamped in by the session-level
/// wrapper; use [`capture_session`] when one is available.
pub fn capture_smp(smp: &Smp, rounds: u64) -> MachineSnapshot {
    let (cursor, quantum_used, rng) = smp.sched_state();
    MachineSnapshot {
        bus: smp.bus().export_state(),
        seals: smp.machine(0).ext.seal_store().export_state(),
        shoot: Some(smp.shootdown().export_state()),
        sched: Some((cursor as u64, quantum_used, rng)),
        rounds,
        harts: (0..smp.harts())
            .map(|h| capture_hart(smp.machine(h)))
            .collect(),
    }
}

/// Restore a whole [`Smp`] machine captured by [`capture_smp`]. The
/// shared seal store and shootdown cell are imported exactly once (all
/// harts alias them).
pub fn restore_smp(smp: &mut Smp, s: &MachineSnapshot) -> Result<(), RestoreError> {
    if s.harts.len() != smp.harts() {
        return Err(RestoreError::HartCount {
            want: s.harts.len(),
            got: smp.harts(),
        });
    }
    let bus = smp.bus();
    check_geometry(&s.bus, bus.ram_base(), bus.ram_size(), bus.harts())?;
    let (epoch, acks) = s.shoot.as_ref().ok_or(RestoreError::Shootdown)?;
    smp.bus().import_state(&s.bus);
    smp.machine(0).ext.seal_store().import_state(&s.seals);
    smp.shootdown().import_state(*epoch, acks);
    for (h, hs) in s.harts.iter().enumerate() {
        restore_hart(smp.machine_mut(h), hs);
    }
    if let Some((cursor, quantum_used, rng)) = s.sched {
        smp.set_sched_state(cursor as usize, quantum_used, rng);
    }
    Ok(())
}

/// Capture an [`SmpSession`] at a round boundary (the only boundary the
/// session exposes, which is what makes 4-hart captures deterministic).
pub fn capture_session(sess: &SmpSession) -> MachineSnapshot {
    capture_smp(sess.smp(), sess.rounds())
}

/// Restore an [`SmpSession`] captured by [`capture_session`], including
/// its round counter so the virtual clock lines up.
pub fn restore_session(sess: &mut SmpSession, s: &MachineSnapshot) -> Result<(), RestoreError> {
    restore_smp(sess.smp_mut(), s)?;
    sess.set_rounds(s.rounds);
    Ok(())
}

fn check_geometry(
    s: &BusState,
    ram_base: u64,
    ram_size: u64,
    harts: usize,
) -> Result<(), RestoreError> {
    if s.ram_base != ram_base || s.ram_size != ram_size {
        return Err(RestoreError::Geometry {
            want: (s.ram_base, s.ram_size),
            got: (ram_base, ram_size),
        });
    }
    if s.harts != harts as u64 {
        return Err(RestoreError::HartCount {
            want: s.harts as usize,
            got: harts,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Serialize a snapshot into a framed, digested byte image.
pub fn encode_snapshot(s: &MachineSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    encode_snapshot_payload(s, &mut e);
    e.seal(KIND_SNAPSHOT)
}

/// Parse a framed snapshot image, verifying magic/version/digest.
pub fn decode_snapshot(frame: &[u8]) -> Result<MachineSnapshot, WireError> {
    let mut d = Dec::open(frame, KIND_SNAPSHOT)?;
    let s = decode_snapshot_payload(&mut d)?;
    d.finish()?;
    Ok(s)
}

/// Content digest of a snapshot: FNV-1a over its canonical payload
/// encoding. Two machines with identical mutable state always digest
/// identically — the equality the replay-smoke CI job asserts.
pub fn state_digest(s: &MachineSnapshot) -> u64 {
    let mut e = Enc::new();
    encode_snapshot_payload(s, &mut e);
    fnv1a(e.as_slice())
}

/// Append a snapshot's canonical payload encoding (unframed) — exposed
/// so composite images (the serve-harness snapshot) can embed one.
pub fn encode_snapshot_payload(s: &MachineSnapshot, e: &mut Enc) {
    enc_bus(e, &s.bus);
    enc_seals(e, &s.seals);
    match &s.shoot {
        Some((epoch, acks)) => {
            e.bool(true);
            e.u64(*epoch);
            e.words(acks);
        }
        None => e.bool(false),
    }
    match s.sched {
        Some((cursor, used, rng)) => {
            e.bool(true);
            e.u64(cursor);
            e.u64(used);
            e.u64(rng);
        }
        None => e.bool(false),
    }
    e.u64(s.rounds);
    e.u64(s.harts.len() as u64);
    for h in &s.harts {
        enc_hart(e, h);
    }
}

/// Parse a snapshot's canonical payload encoding (unframed).
pub fn decode_snapshot_payload(d: &mut Dec<'_>) -> Result<MachineSnapshot, WireError> {
    let bus = dec_bus(d)?;
    let seals = dec_seals(d)?;
    let shoot = if d.bool()? {
        let epoch = d.u64()?;
        let acks = d.words()?;
        Some((epoch, acks))
    } else {
        None
    };
    let sched = if d.bool()? {
        Some((d.u64()?, d.u64()?, d.u64()?))
    } else {
        None
    };
    let rounds = d.u64()?;
    let n = d.u64()? as usize;
    let mut harts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        harts.push(dec_hart(d)?);
    }
    Ok(MachineSnapshot {
        bus,
        seals,
        shoot,
        sched,
        rounds,
        harts,
    })
}

pub(crate) fn enc_bus(e: &mut Enc, b: &BusState) {
    e.u64(b.ram_base);
    e.u64(b.ram_size);
    e.u64(b.harts);
    e.u64(b.pages.len() as u64);
    for (off, bytes) in &b.pages {
        e.u64(*off);
        e.bytes(bytes);
    }
    e.bytes(&b.console);
    e.words(&b.value_log);
    e.words(&b.res);
    e.u64(b.res_mask);
    e.u64(b.res_breaks);
    e.words(&b.halt_codes);
    e.u64(b.halted_mask);
    e.u64(b.code_lines.len() as u64);
    for &(idx, word) in &b.code_lines {
        e.u64(idx);
        e.u64(word);
    }
    e.u64(b.code_epoch);
}

fn dec_bus(d: &mut Dec<'_>) -> Result<BusState, WireError> {
    let ram_base = d.u64()?;
    let ram_size = d.u64()?;
    let harts = d.u64()?;
    let n = d.u64()? as usize;
    let mut pages = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let off = d.u64()?;
        let bytes = d.bytes()?.to_vec();
        pages.push((off, bytes));
    }
    let console = d.bytes()?.to_vec();
    let value_log = d.words()?;
    let res = d.words()?;
    let res_mask = d.u64()?;
    let res_breaks = d.u64()?;
    let halt_codes = d.words()?;
    let halted_mask = d.u64()?;
    let n = d.u64()? as usize;
    let mut code_lines = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let idx = d.u64()?;
        let word = d.u64()?;
        code_lines.push((idx, word));
    }
    let code_epoch = d.u64()?;
    Ok(BusState {
        ram_base,
        ram_size,
        harts,
        pages,
        console,
        value_log,
        res,
        res_mask,
        res_breaks,
        halt_codes,
        halted_mask,
        code_lines,
        code_epoch,
    })
}

fn enc_seals(e: &mut Enc, s: &SealStoreState) {
    e.u64(s.base);
    e.u64(s.limit);
    e.u64(s.seals.len() as u64);
    for &(addr, seal) in &s.seals {
        e.u64(addr);
        e.u64(seal);
    }
    e.words(&s.dirty);
}

fn dec_seals(d: &mut Dec<'_>) -> Result<SealStoreState, WireError> {
    let base = d.u64()?;
    let limit = d.u64()?;
    let n = d.u64()? as usize;
    let mut seals = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let addr = d.u64()?;
        let seal = d.u64()?;
        seals.push((addr, seal));
    }
    let dirty = d.words()?;
    Ok(SealStoreState {
        base,
        limit,
        seals,
        dirty,
    })
}

fn enc_hart(e: &mut Enc, h: &HartState) {
    e.words(&h.regs);
    e.u64(h.pc);
    e.u8(h.priv_level);
    e.opt_u64(h.reservation);
    e.u64(h.csrs.len() as u64);
    for &(addr, value) in &h.csrs {
        e.u16(addr);
        e.u64(value);
    }
    e.u64(h.steps);
    e.opt_u64(h.timer_every);
    e.u64(h.timer_phase);
    e.u64(h.trap_counts.len() as u64);
    for &(cause, count) in &h.trap_counts {
        e.u64(cause);
        e.u64(count);
    }
    e.words(&h.timing);
    e.bool(h.bbcache);
    enc_pcu(e, &h.pcu);
}

fn dec_hart(d: &mut Dec<'_>) -> Result<HartState, WireError> {
    let regs: [u64; 32] = d
        .words()?
        .try_into()
        .map_err(|_| WireError::Malformed("reg count"))?;
    let pc = d.u64()?;
    let priv_level = d.u8()?;
    let reservation = d.opt_u64()?;
    let n = d.u64()? as usize;
    let mut csrs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let addr = d.u16()?;
        let value = d.u64()?;
        csrs.push((addr, value));
    }
    let steps = d.u64()?;
    let timer_every = d.opt_u64()?;
    let timer_phase = d.u64()?;
    let n = d.u64()? as usize;
    let mut trap_counts = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let cause = d.u64()?;
        let count = d.u64()?;
        trap_counts.push((cause, count));
    }
    let timing = d.words()?;
    let bbcache = d.bool()?;
    let pcu = dec_pcu(d)?;
    Ok(HartState {
        regs,
        pc,
        priv_level,
        reservation,
        csrs,
        steps,
        timer_every,
        timer_phase,
        trap_counts,
        timing,
        bbcache,
        pcu,
    })
}

fn enc_cache(e: &mut Enc, c: &PrivCacheState) {
    e.u64(c.entries.len() as u64);
    for &(tag, payload, stamp, seal) in &c.entries {
        e.u64(tag);
        for w in payload {
            e.u64(w);
        }
        e.u64(stamp);
        e.u64(seal);
    }
    e.u64(c.tick);
    e.u64(c.stats.hits);
    e.u64(c.stats.misses);
    e.u64(c.stats.flushes);
    e.u64(c.corrupt_detected);
}

fn dec_cache(d: &mut Dec<'_>) -> Result<PrivCacheState, WireError> {
    let n = d.u64()? as usize;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let tag = d.u64()?;
        let payload = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let stamp = d.u64()?;
        let seal = d.u64()?;
        entries.push((tag, payload, stamp, seal));
    }
    let tick = d.u64()?;
    let stats = CacheCounters {
        hits: d.u64()?,
        misses: d.u64()?,
        flushes: d.u64()?,
        // Not on the wire: PCU caches are fully associative over their
        // working set and never record conflict evictions.
        conflicts: 0,
    };
    let corrupt_detected = d.u64()?;
    Ok(PrivCacheState {
        entries,
        tick,
        stats,
        corrupt_detected,
    })
}

fn enc_pcu(e: &mut Enc, p: &PcuState) {
    e.words(&p.regs);
    match &p.layout {
        Some(l) => {
            e.bool(true);
            e.u64(l.tmem_base);
            e.u64(l.tmem_size);
            e.u64(l.max_domains);
            e.u64(l.max_gates);
        }
        None => e.bool(false),
    }
    e.u64(p.ipr_domain);
    e.words(&p.ipr_words);
    e.bool(p.ipr_valid);
    enc_cache(e, &p.inst_cache);
    enc_cache(e, &p.reg_cache);
    enc_cache(e, &p.mask_cache);
    enc_cache(e, &p.sgt_cache);
    enc_cache(e, &p.legal_cache);
    let st = &p.stats;
    for v in [
        st.inst_checks,
        st.csr_checks,
        st.gate_calls,
        st.gate_returns,
        st.faults,
        st.prefetches,
        st.flushes,
        st.legal_hits,
        st.tmem_denials,
        st.shootdowns_sent,
        st.shootdowns_taken,
        st.shootdown_flushed,
        st.shootdown_flush_cycles,
    ] {
        e.u64(v);
    }
    let fs = &p.fstats;
    for v in [
        fs.injected,
        fs.detected,
        fs.recovered,
        fs.denied,
        fs.shootdown_expired,
    ] {
        e.u64(v);
    }
    e.u64(p.scrubs_seen);
    e.u64(p.commits);
    e.bool(p.poisoned);
    e.u32(p.shoot_defer);
    e.u32(p.shoot_defer_polls);
    enc_faults(e, p.faults.as_ref());
    enc_audit(e, &p.audit);
}

fn dec_pcu(d: &mut Dec<'_>) -> Result<PcuState, WireError> {
    let regs: [u64; 13] = d
        .words()?
        .try_into()
        .map_err(|_| WireError::Malformed("grid reg count"))?;
    let layout = if d.bool()? {
        let tmem_base = d.u64()?;
        let tmem_size = d.u64()?;
        let max_domains = d.u64()?;
        let max_gates = d.u64()?;
        if !tmem_size.is_power_of_two()
            || tmem_base % tmem_size != 0
            || max_domains == 0
            || max_gates == 0
        {
            return Err(WireError::Malformed("grid layout"));
        }
        Some(GridLayout {
            tmem_base,
            tmem_size,
            max_domains,
            max_gates,
        })
    } else {
        None
    };
    let ipr_domain = d.u64()?;
    let ipr_words: [u64; INST_BITMAP_WORDS] = d
        .words()?
        .try_into()
        .map_err(|_| WireError::Malformed("ipr word count"))?;
    let ipr_valid = d.bool()?;
    let inst_cache = dec_cache(d)?;
    let reg_cache = dec_cache(d)?;
    let mask_cache = dec_cache(d)?;
    let sgt_cache = dec_cache(d)?;
    let legal_cache = dec_cache(d)?;
    let stats = PcuStats {
        inst_checks: d.u64()?,
        csr_checks: d.u64()?,
        gate_calls: d.u64()?,
        gate_returns: d.u64()?,
        faults: d.u64()?,
        prefetches: d.u64()?,
        flushes: d.u64()?,
        legal_hits: d.u64()?,
        tmem_denials: d.u64()?,
        shootdowns_sent: d.u64()?,
        shootdowns_taken: d.u64()?,
        shootdown_flushed: d.u64()?,
        shootdown_flush_cycles: d.u64()?,
    };
    let fstats = FaultLayerStats {
        injected: d.u64()?,
        detected: d.u64()?,
        recovered: d.u64()?,
        denied: d.u64()?,
        shootdown_expired: d.u64()?,
    };
    let scrubs_seen = d.u64()?;
    let commits = d.u64()?;
    let poisoned = d.bool()?;
    let shoot_defer = d.u32()?;
    let shoot_defer_polls = d.u32()?;
    let faults = dec_faults(d)?;
    let audit = dec_audit(d)?;
    Ok(PcuState {
        regs,
        layout,
        ipr_domain,
        ipr_words,
        ipr_valid,
        inst_cache,
        reg_cache,
        mask_cache,
        sgt_cache,
        legal_cache,
        stats,
        fstats,
        scrubs_seen,
        commits,
        poisoned,
        shoot_defer,
        shoot_defer_polls,
        faults,
        audit,
    })
}

fn cache_sel_tag(c: CacheSel) -> u8 {
    match c {
        CacheSel::Inst => 0,
        CacheSel::Reg => 1,
        CacheSel::Mask => 2,
        CacheSel::Sgt => 3,
        CacheSel::Legal => 4,
    }
}

fn cache_sel_from(tag: u8) -> Result<CacheSel, WireError> {
    CacheSel::ALL
        .get(tag as usize)
        .copied()
        .ok_or(WireError::Malformed("cache selector"))
}

fn enc_faults(e: &mut Enc, plan: Option<&FaultPlan>) {
    let Some(p) = plan else {
        e.bool(false);
        return;
    };
    e.bool(true);
    e.u64(p.seed());
    e.u64(p.rate_ppm());
    e.u64(p.cursor() as u64);
    e.u64(p.events().len() as u64);
    for ev in p.events() {
        e.u64(ev.at_commit);
        match ev.kind {
            FaultKind::TableBitFlip { entropy, bit } => {
                e.u8(0);
                e.u64(entropy);
                e.u32(bit);
            }
            FaultKind::CacheCorrupt {
                cache,
                entropy,
                bit,
            } => {
                e.u8(1);
                e.u8(cache_sel_tag(cache));
                e.u64(entropy);
                e.u32(bit);
            }
            FaultKind::CacheEvict { cache, entropy } => {
                e.u8(2);
                e.u8(cache_sel_tag(cache));
                e.u64(entropy);
            }
            FaultKind::ShootdownDrop => e.u8(3),
            FaultKind::ShootdownDelay { polls } => {
                e.u8(4);
                e.u32(polls);
            }
            FaultKind::SnapshotBitFlip { entropy, bit } => {
                e.u8(5);
                e.u64(entropy);
                e.u32(bit);
            }
        }
    }
}

fn dec_faults(d: &mut Dec<'_>) -> Result<Option<FaultPlan>, WireError> {
    if !d.bool()? {
        return Ok(None);
    }
    let seed = d.u64()?;
    let rate_ppm = d.u64()?;
    let cursor = d.u64()? as usize;
    let n = d.u64()? as usize;
    let mut events = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let at_commit = d.u64()?;
        let kind = match d.u8()? {
            0 => FaultKind::TableBitFlip {
                entropy: d.u64()?,
                bit: d.u32()?,
            },
            1 => FaultKind::CacheCorrupt {
                cache: cache_sel_from(d.u8()?)?,
                entropy: d.u64()?,
                bit: d.u32()?,
            },
            2 => FaultKind::CacheEvict {
                cache: cache_sel_from(d.u8()?)?,
                entropy: d.u64()?,
            },
            3 => FaultKind::ShootdownDrop,
            4 => FaultKind::ShootdownDelay { polls: d.u32()? },
            5 => FaultKind::SnapshotBitFlip {
                entropy: d.u64()?,
                bit: d.u32()?,
            },
            _ => return Err(WireError::Malformed("fault kind")),
        };
        events.push(FaultEvent { at_commit, kind });
    }
    if cursor > events.len() {
        return Err(WireError::Malformed("fault cursor"));
    }
    Ok(Some(FaultPlan::from_parts(seed, rate_ppm, events, cursor)))
}

fn audit_kind_tag(k: AuditKind) -> u8 {
    match k {
        AuditKind::Inst => 0,
        AuditKind::Csr => 1,
        AuditKind::Gate => 2,
        AuditKind::Tmem => 3,
        AuditKind::Integrity => 4,
        AuditKind::Shootdown => 5,
    }
}

fn audit_kind_from(tag: u8) -> Result<AuditKind, WireError> {
    Ok(match tag {
        0 => AuditKind::Inst,
        1 => AuditKind::Csr,
        2 => AuditKind::Gate,
        3 => AuditKind::Tmem,
        4 => AuditKind::Integrity,
        5 => AuditKind::Shootdown,
        _ => return Err(WireError::Malformed("audit kind")),
    })
}

fn enc_audit(e: &mut Enc, log: &AuditLog) {
    e.u64(log.records().len() as u64);
    for r in log.records() {
        e.u64(r.pc);
        e.u32(r.raw);
        e.u8(r.priv_level);
        e.u16(r.domain);
        e.u8(audit_kind_tag(r.kind));
        e.u64(r.cause);
        e.u64(r.detail);
    }
    e.u64(log.dropped());
}

fn dec_audit(d: &mut Dec<'_>) -> Result<AuditLog, WireError> {
    let n = d.u64()? as usize;
    let mut records = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        records.push(AuditRecord {
            pc: d.u64()?,
            raw: d.u32()?,
            priv_level: d.u8()?,
            domain: d.u16()?,
            kind: audit_kind_from(d.u8()?)?,
            cause: d.u64()?,
            detail: d.u64()?,
        });
    }
    let dropped = d.u64()?;
    Ok(AuditLog::from_parts(records, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_snapshot() -> MachineSnapshot {
        MachineSnapshot {
            bus: BusState {
                ram_base: 0x8000_0000,
                ram_size: 1 << 20,
                harts: 2,
                pages: vec![(0, vec![1; 4096]), (8192, vec![7; 4096])],
                console: b"hello".to_vec(),
                value_log: vec![3, 4],
                res: vec![0x8000_0041, 0],
                res_mask: 1,
                res_breaks: 2,
                halt_codes: vec![0, 0],
                halted_mask: 0,
                code_lines: vec![(0, 0xFF)],
                code_epoch: 5,
            },
            seals: SealStoreState {
                base: 0x1000,
                limit: 0x2000,
                seals: vec![(0x1008, 42)],
                dirty: vec![0x1010],
            },
            shoot: Some((3, vec![3, 2])),
            sched: Some((1, 17, 0xDEAD)),
            rounds: 9,
            harts: vec![
                HartState {
                    regs: [5; 32],
                    pc: 0x8000_0004,
                    priv_level: 3,
                    reservation: Some(0x8000_0040),
                    csrs: vec![(0x300, 0x8), (0x5C0, 2)],
                    steps: 1000,
                    timer_every: Some(64),
                    timer_phase: 12,
                    trap_counts: vec![(8, 3), (24, 1)],
                    timing: vec![1, 2, 3],
                    bbcache: true,
                    pcu: PcuState {
                        faults: Some(FaultPlan::generate_smp(7, 50_000, 2000)),
                        ..PcuState::default()
                    },
                },
                HartState::default(),
            ],
        }
    }

    #[test]
    fn snapshot_roundtrips_through_the_wire() {
        let s = busy_snapshot();
        let frame = encode_snapshot(&s);
        let back = decode_snapshot(&frame).unwrap();
        assert_eq!(s, back);
        assert_eq!(state_digest(&s), state_digest(&back));
    }

    #[test]
    fn digest_tracks_content() {
        let s = busy_snapshot();
        let mut t = s.clone();
        t.harts[0].regs[5] ^= 1;
        assert_ne!(state_digest(&s), state_digest(&t));
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let s = busy_snapshot();
        let mut frame = encode_snapshot(&s);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        assert_eq!(decode_snapshot(&frame).unwrap_err(), WireError::BadDigest);
    }
}
