//! The unified counter registry: one snapshot type subsuming the cache,
//! check, gate, timing and run tallies that previously lived in four
//! disjoint ad-hoc structs across the workspace.

use crate::json::{Json, ToJson};
use crate::trace::DeoptReason;

/// Hit/miss/flush tallies for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Cold lookups: nothing (valid) was cached for the probed tag.
    pub misses: u64,
    /// Whole-cache flushes.
    pub flushes: u64,
    /// Conflict evictions: a lookup found a *different* valid entry
    /// occupying its direct-mapped slot. Tracked apart from `misses`
    /// so capacity pressure does not skew [`CacheCounters::hit_rate`].
    pub conflicts: u64,
}

impl CacheCounters {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; an unused cache reports `1.0`.
    ///
    /// This is the single source of hit-rate math for the workspace —
    /// bench tables and run reports must both go through it.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Add another tally into this one.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.flushes += other.flushes;
        self.conflicts += other.conflicts;
    }
}

impl ToJson for CacheCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
            ("flushes", Json::U64(self.flushes)),
            ("conflicts", Json::U64(self.conflicts)),
            ("hit_rate", Json::F64(self.hit_rate())),
        ])
    }
}

/// Per-cache tallies for the PCU's five internal caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBank {
    /// HPT instruction-bitmap cache.
    pub inst: CacheCounters,
    /// HPT register double-bitmap cache.
    pub reg: CacheCounters,
    /// HPT bit-mask array cache.
    pub mask: CacheCounters,
    /// Switching-gate-table cache.
    pub sgt: CacheCounters,
    /// Legal-instruction short-circuit cache.
    pub legal: CacheCounters,
}

impl CacheBank {
    /// `(name, counters)` pairs in canonical order.
    pub fn named(&self) -> [(&'static str, &CacheCounters); 5] {
        [
            ("inst", &self.inst),
            ("reg", &self.reg),
            ("mask", &self.mask),
            ("sgt", &self.sgt),
            ("legal", &self.legal),
        ]
    }

    /// Sum over all five caches.
    pub fn total(&self) -> CacheCounters {
        let mut t = CacheCounters::default();
        for (_, c) in self.named() {
            t.merge(c);
        }
        t
    }

    /// Add another bank into this one, cache by cache.
    pub fn merge(&mut self, other: &CacheBank) {
        self.inst.merge(&other.inst);
        self.reg.merge(&other.reg);
        self.mask.merge(&other.mask);
        self.sgt.merge(&other.sgt);
        self.legal.merge(&other.legal);
    }
}

impl ToJson for CacheBank {
    fn to_json(&self) -> Json {
        Json::obj(self.named().map(|(n, c)| (n, c.to_json())))
    }
}

/// Basic-block cache tallies from the simulator's predecoded fetch
/// path: the decode-slot cache and its embedded fetch-translation
/// cache. Zero when the bbcache is disabled (`--no-bbcache`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BbCounters {
    /// Predecoded-slot lookups (fetches answered without `decode`).
    /// `flushes` counts whole-cache invalidations: stores into cached
    /// code or page-table lines. Fences and privilege shootdowns flush
    /// nothing.
    pub decode: CacheCounters,
    /// Fetch-translation lookups (fetches answered without a page
    /// walk). Flush events are tallied on `decode` only; a flush
    /// always drops all three structures together.
    pub tlb: CacheCounters,
    /// Data-translation lookups (paged loads/stores answered without a
    /// page walk).
    pub dtlb: CacheCounters,
}

impl BbCounters {
    /// `(name, counters)` pairs in canonical order.
    pub fn named(&self) -> [(&'static str, &CacheCounters); 3] {
        [
            ("decode", &self.decode),
            ("tlb", &self.tlb),
            ("dtlb", &self.dtlb),
        ]
    }

    /// Add another tally into this one.
    pub fn merge(&mut self, other: &BbCounters) {
        self.decode.merge(&other.decode);
        self.tlb.merge(&other.tlb);
        self.dtlb.merge(&other.dtlb);
    }
}

impl ToJson for BbCounters {
    fn to_json(&self) -> Json {
        Json::obj(self.named().map(|(n, c)| (n, c.to_json())))
    }
}

/// Superblock-JIT tallies from the simulator's linked-block fast path.
/// All zero when the JIT is disabled (`--no-jit` / `--no-bbcache`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitCounters {
    /// Superblocks compiled from hot bbcache pages (recompiles under a
    /// new guard included).
    pub compiled: u64,
    /// Superblock executions entered through dispatch or a resolved
    /// block link.
    pub entered: u64,
    /// Instructions retired inside superblocks (the JIT's share of
    /// `run.steps`).
    pub ops: u64,
    /// Block-to-block transitions that used a resolved fallthrough or
    /// taken link (no dispatch).
    pub linked: u64,
    /// Block entries whose privilege guard (check regime, instruction
    /// bitmap) no longer matched; each recompiles the block in place.
    pub guard_misses: u64,
    /// Early exits to the interpreter mid-block (trap, MMIO store,
    /// code/coherence epoch movement at a store).
    pub deopts: u64,
    /// Code-epoch bbcache flushes (stores into cached code or
    /// page-table lines) that dropped compiled blocks. Privilege
    /// shootdowns flush nothing.
    pub flushes: u64,
    /// Every bail back to the interpreter, broken down by
    /// [`DeoptReason`] index. Wider than `deopts`: it also counts the
    /// pre-dispatch refusals (guard miss, pending interrupt, timer
    /// window, step budget) that never entered the block, so
    /// `deopt_by[Guard] == guard_misses` and
    /// `deopt_by[Trap] + deopt_by[Mmio] + deopt_by[Epoch] >= deopts`.
    pub deopt_by: [u64; DeoptReason::COUNT],
}

impl JitCounters {
    /// Add another tally into this one.
    pub fn merge(&mut self, other: &JitCounters) {
        self.compiled += other.compiled;
        self.entered += other.entered;
        self.ops += other.ops;
        self.linked += other.linked;
        self.guard_misses += other.guard_misses;
        self.deopts += other.deopts;
        self.flushes += other.flushes;
        for (a, b) in self.deopt_by.iter_mut().zip(other.deopt_by.iter()) {
            *a += *b;
        }
    }
}

impl ToJson for JitCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("compiled", Json::U64(self.compiled)),
            ("entered", Json::U64(self.entered)),
            ("ops", Json::U64(self.ops)),
            ("linked", Json::U64(self.linked)),
            ("guard_misses", Json::U64(self.guard_misses)),
            ("deopts", Json::U64(self.deopts)),
            ("flushes", Json::U64(self.flushes)),
            (
                "deopt",
                Json::obj(
                    DeoptReason::ALL
                        .iter()
                        .map(|r| (r.name(), Json::U64(self.deopt_by[r.index()]))),
                ),
            ),
        ])
    }
}

/// Privilege-check verdict tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Instruction-class checks performed.
    pub inst: u64,
    /// CSR checks performed.
    pub csr: u64,
    /// Checks that ended in a grid fault.
    pub faults: u64,
    /// Physical accesses blocked by the trusted-memory fence.
    pub tmem_denials: u64,
}

impl ToJson for CheckCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("inst", Json::U64(self.inst)),
            ("csr", Json::U64(self.csr)),
            ("faults", Json::U64(self.faults)),
            ("tmem_denials", Json::U64(self.tmem_denials)),
        ])
    }
}

/// Gate and PCU-maintenance instruction tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounters {
    /// `hccall`/`hccalls` switches taken.
    pub calls: u64,
    /// `hcrets` returns taken.
    pub returns: u64,
    /// `pfch` prefetches executed.
    pub prefetches: u64,
    /// `pflh` cache flushes executed.
    pub flushes: u64,
}

impl ToJson for GateCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("calls", Json::U64(self.calls)),
            ("returns", Json::U64(self.returns)),
            ("prefetches", Json::U64(self.prefetches)),
            ("flushes", Json::U64(self.flushes)),
        ])
    }
}

/// Cycle attribution per event class, mirroring the timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingCounters {
    /// Events the pipeline model processed (instructions and trapped
    /// attempts).
    pub events: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles stalled on instruction fetch.
    pub fetch_stall: u64,
    /// Cycles stalled on data access.
    pub data_stall: u64,
    /// Cycles lost to branch mispredictions and jump bubbles.
    pub branch_stall: u64,
    /// Cycles lost to serializing instructions (CSRs, fences, xRET).
    pub serialize_stall: u64,
    /// Cycles lost to trap entry/exit.
    pub trap_stall: u64,
    /// Cycles lost to page-table walks.
    pub walk_stall: u64,
    /// Cycles lost to PCU cache-miss refills.
    pub pcu_stall: u64,
    /// Cycles spent in gate instructions.
    pub gate_cycles: u64,
    /// Cycles lost refilling privilege caches after cross-hart
    /// shootdowns.
    pub shootdown_stall: u64,
}

impl ToJson for TimingCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::U64(self.events)),
            ("cycles", Json::U64(self.cycles)),
            ("fetch_stall", Json::U64(self.fetch_stall)),
            ("data_stall", Json::U64(self.data_stall)),
            ("branch_stall", Json::U64(self.branch_stall)),
            ("serialize_stall", Json::U64(self.serialize_stall)),
            ("trap_stall", Json::U64(self.trap_stall)),
            ("walk_stall", Json::U64(self.walk_stall)),
            ("pcu_stall", Json::U64(self.pcu_stall)),
            ("gate_cycles", Json::U64(self.gate_cycles)),
            ("shootdown_stall", Json::U64(self.shootdown_stall)),
        ])
    }
}

/// SMP coherence tallies: hart count, privilege-cache shootdown traffic
/// and cost, and LR/SC reservation breaks. All zero on single-hart runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmpCounters {
    /// Harts that participated in the run.
    pub harts: u64,
    /// Shootdowns published (table mutations / PCU fences).
    pub shootdowns: u64,
    /// Shootdowns taken: remote flushes performed before next commit.
    pub shootdown_acks: u64,
    /// Live privilege-cache entries discarded by shootdown flushes.
    pub flushed_entries: u64,
    /// Modeled cycles spent re-warming caches after shootdowns.
    pub flush_cycles: u64,
    /// LR/SC reservations broken by remote stores/AMOs.
    pub reservation_breaks: u64,
}

impl ToJson for SmpCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("harts", Json::U64(self.harts)),
            ("shootdowns", Json::U64(self.shootdowns)),
            ("shootdown_acks", Json::U64(self.shootdown_acks)),
            ("flushed_entries", Json::U64(self.flushed_entries)),
            ("flush_cycles", Json::U64(self.flush_cycles)),
            ("reservation_breaks", Json::U64(self.reservation_breaks)),
        ])
    }
}

/// Whole-run bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Committed instructions.
    pub steps: u64,
    /// Traps taken.
    pub traps: u64,
    /// Trace events dropped by the bounded ring (0 when disabled).
    pub trace_dropped: u64,
    /// Denied checks recorded in the PCU audit log (including any past
    /// the log's retention bound).
    pub audit_denied: u64,
    /// Faults the chaos harness actually applied (bit flips, evictions,
    /// dropped shootdowns). Zero when injection is off.
    pub fault_injected: u64,
    /// Injected corruptions the integrity layer caught (seal mismatch on
    /// refill, cache-line scrub, poisoned snapshot, expired shootdown).
    pub fault_detected: u64,
    /// Detections recovered in place (line scrubbed and re-walked from
    /// trusted memory) without raising an architectural trap.
    pub fault_recovered: u64,
    /// Detections resolved fail-closed as deny + architectural trap.
    pub fault_denied: u64,
    /// Shootdown deliveries that blew the bounded-backoff deadline and
    /// faulted the offending hart.
    pub fault_shootdown_expired: u64,
    /// Whole-machine snapshots captured by the replay layer.
    pub snapshots: u64,
    /// Whole-machine restores performed by the replay layer.
    pub restores: u64,
    /// Differential-oracle comparisons performed (lockstep steps or
    /// checkpoint digests, depending on mode).
    pub oracle_checks: u64,
    /// Oracle comparisons that found the fast machine and the
    /// interpreter disagreeing. Nonzero means a simulator bug.
    pub divergences: u64,
    /// Tenant domains torn down to deny-all by the self-healing serve
    /// layer after a classified failure.
    pub quarantines: u64,
    /// Inflight requests retried against a machine restored from the
    /// last good checkpoint (bounded deterministic backoff).
    pub retries: u64,
    /// Admissions shed by the deterministic deadline-budget rule under
    /// overload. Sheds are counted, never hidden.
    pub sheds: u64,
    /// Completed recovery episodes: a classified failure resolved by
    /// quarantine/restore and the serve loop resumed.
    pub recoveries: u64,
}

impl ToJson for RunCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("steps", Json::U64(self.steps)),
            ("traps", Json::U64(self.traps)),
            ("trace_dropped", Json::U64(self.trace_dropped)),
            ("audit_denied", Json::U64(self.audit_denied)),
            ("fault_injected", Json::U64(self.fault_injected)),
            ("fault_detected", Json::U64(self.fault_detected)),
            ("fault_recovered", Json::U64(self.fault_recovered)),
            ("fault_denied", Json::U64(self.fault_denied)),
            (
                "fault_shootdown_expired",
                Json::U64(self.fault_shootdown_expired),
            ),
            ("snapshots", Json::U64(self.snapshots)),
            ("restores", Json::U64(self.restores)),
            ("oracle_checks", Json::U64(self.oracle_checks)),
            ("divergences", Json::U64(self.divergences)),
            ("quarantines", Json::U64(self.quarantines)),
            ("retries", Json::U64(self.retries)),
            ("sheds", Json::U64(self.sheds)),
            ("recoveries", Json::U64(self.recoveries)),
        ])
    }
}

/// The unified counter snapshot.
///
/// One `Counters` value captures everything the paper's evaluation
/// counts: per-cache hit rates (§7.1), check and gate tallies (Tables
/// 4–5), and cycle attribution (Figures 5–8). Producers snapshot into
/// it; consumers either read the typed fields or flatten with
/// [`Counters::entries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// PCU cache tallies.
    pub caches: CacheBank,
    /// Simulator basic-block cache tallies.
    pub bbcache: BbCounters,
    /// Superblock-JIT tallies.
    pub jit: JitCounters,
    /// Privilege-check verdict tallies.
    pub checks: CheckCounters,
    /// Gate / maintenance instruction tallies.
    pub gates: GateCounters,
    /// Cycle attribution from the timing model.
    pub timing: TimingCounters,
    /// Whole-run bookkeeping.
    pub run: RunCounters,
    /// SMP coherence tallies (zero on single-hart runs).
    pub smp: SmpCounters,
}

impl Counters {
    /// Flatten into a registry of `(dotted_name, value)` counter pairs,
    /// in stable order (hit rates excluded — they are derived).
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(40);
        for (name, c) in self.caches.named() {
            out.push((format!("caches.{name}.hits"), c.hits));
            out.push((format!("caches.{name}.misses"), c.misses));
            out.push((format!("caches.{name}.flushes"), c.flushes));
            out.push((format!("caches.{name}.conflicts"), c.conflicts));
        }
        for (name, c) in self.bbcache.named() {
            out.push((format!("bbcache.{name}.hits"), c.hits));
            out.push((format!("bbcache.{name}.misses"), c.misses));
            out.push((format!("bbcache.{name}.flushes"), c.flushes));
            out.push((format!("bbcache.{name}.conflicts"), c.conflicts));
        }
        out.push(("jit.compiled".into(), self.jit.compiled));
        out.push(("jit.entered".into(), self.jit.entered));
        out.push(("jit.ops".into(), self.jit.ops));
        out.push(("jit.linked".into(), self.jit.linked));
        out.push(("jit.guard_misses".into(), self.jit.guard_misses));
        out.push(("jit.deopts".into(), self.jit.deopts));
        out.push(("jit.flushes".into(), self.jit.flushes));
        for r in DeoptReason::ALL {
            out.push((
                format!("jit.deopt.{}", r.name()),
                self.jit.deopt_by[r.index()],
            ));
        }
        out.push(("checks.inst".into(), self.checks.inst));
        out.push(("checks.csr".into(), self.checks.csr));
        out.push(("checks.faults".into(), self.checks.faults));
        out.push(("checks.tmem_denials".into(), self.checks.tmem_denials));
        out.push(("gates.calls".into(), self.gates.calls));
        out.push(("gates.returns".into(), self.gates.returns));
        out.push(("gates.prefetches".into(), self.gates.prefetches));
        out.push(("gates.flushes".into(), self.gates.flushes));
        out.push(("timing.events".into(), self.timing.events));
        out.push(("timing.cycles".into(), self.timing.cycles));
        out.push(("timing.fetch_stall".into(), self.timing.fetch_stall));
        out.push(("timing.data_stall".into(), self.timing.data_stall));
        out.push(("timing.branch_stall".into(), self.timing.branch_stall));
        out.push(("timing.serialize_stall".into(), self.timing.serialize_stall));
        out.push(("timing.trap_stall".into(), self.timing.trap_stall));
        out.push(("timing.walk_stall".into(), self.timing.walk_stall));
        out.push(("timing.pcu_stall".into(), self.timing.pcu_stall));
        out.push(("timing.gate_cycles".into(), self.timing.gate_cycles));
        out.push(("timing.shootdown_stall".into(), self.timing.shootdown_stall));
        out.push(("run.steps".into(), self.run.steps));
        out.push(("run.traps".into(), self.run.traps));
        out.push(("run.trace_dropped".into(), self.run.trace_dropped));
        out.push(("run.audit_denied".into(), self.run.audit_denied));
        out.push(("run.fault_injected".into(), self.run.fault_injected));
        out.push(("run.fault_detected".into(), self.run.fault_detected));
        out.push(("run.fault_recovered".into(), self.run.fault_recovered));
        out.push(("run.fault_denied".into(), self.run.fault_denied));
        out.push((
            "run.fault_shootdown_expired".into(),
            self.run.fault_shootdown_expired,
        ));
        out.push(("run.snapshots".into(), self.run.snapshots));
        out.push(("run.restores".into(), self.run.restores));
        out.push(("run.oracle_checks".into(), self.run.oracle_checks));
        out.push(("run.divergences".into(), self.run.divergences));
        out.push(("run.quarantines".into(), self.run.quarantines));
        out.push(("run.retries".into(), self.run.retries));
        out.push(("run.sheds".into(), self.run.sheds));
        out.push(("run.recoveries".into(), self.run.recoveries));
        out.push(("smp.harts".into(), self.smp.harts));
        out.push(("smp.shootdowns".into(), self.smp.shootdowns));
        out.push(("smp.shootdown_acks".into(), self.smp.shootdown_acks));
        out.push(("smp.flushed_entries".into(), self.smp.flushed_entries));
        out.push(("smp.flush_cycles".into(), self.smp.flush_cycles));
        out.push(("smp.reservation_breaks".into(), self.smp.reservation_breaks));
        out
    }

    /// Add another snapshot into this one, field by field — the
    /// aggregation primitive for multi-hart runs. `smp.harts` is summed
    /// like everything else, so seed it on exactly one of the inputs
    /// (or overwrite it after merging).
    pub fn merge(&mut self, other: &Counters) {
        self.caches.merge(&other.caches);
        self.bbcache.merge(&other.bbcache);
        self.jit.merge(&other.jit);
        self.checks.inst += other.checks.inst;
        self.checks.csr += other.checks.csr;
        self.checks.faults += other.checks.faults;
        self.checks.tmem_denials += other.checks.tmem_denials;
        self.gates.calls += other.gates.calls;
        self.gates.returns += other.gates.returns;
        self.gates.prefetches += other.gates.prefetches;
        self.gates.flushes += other.gates.flushes;
        self.timing.events += other.timing.events;
        self.timing.cycles += other.timing.cycles;
        self.timing.fetch_stall += other.timing.fetch_stall;
        self.timing.data_stall += other.timing.data_stall;
        self.timing.branch_stall += other.timing.branch_stall;
        self.timing.serialize_stall += other.timing.serialize_stall;
        self.timing.trap_stall += other.timing.trap_stall;
        self.timing.walk_stall += other.timing.walk_stall;
        self.timing.pcu_stall += other.timing.pcu_stall;
        self.timing.gate_cycles += other.timing.gate_cycles;
        self.timing.shootdown_stall += other.timing.shootdown_stall;
        self.run.steps += other.run.steps;
        self.run.traps += other.run.traps;
        self.run.trace_dropped += other.run.trace_dropped;
        self.run.audit_denied += other.run.audit_denied;
        self.run.fault_injected += other.run.fault_injected;
        self.run.fault_detected += other.run.fault_detected;
        self.run.fault_recovered += other.run.fault_recovered;
        self.run.fault_denied += other.run.fault_denied;
        self.run.fault_shootdown_expired += other.run.fault_shootdown_expired;
        self.run.snapshots += other.run.snapshots;
        self.run.restores += other.run.restores;
        self.run.oracle_checks += other.run.oracle_checks;
        self.run.divergences += other.run.divergences;
        self.run.quarantines += other.run.quarantines;
        self.run.retries += other.run.retries;
        self.run.sheds += other.run.sheds;
        self.run.recoveries += other.run.recoveries;
        self.smp.harts += other.smp.harts;
        self.smp.shootdowns += other.smp.shootdowns;
        self.smp.shootdown_acks += other.smp.shootdown_acks;
        self.smp.flushed_entries += other.smp.flushed_entries;
        self.smp.flush_cycles += other.smp.flush_cycles;
        self.smp.reservation_breaks += other.smp.reservation_breaks;
    }

    /// Look up one counter by its dotted registry name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("caches", self.caches.to_json()),
            ("bbcache", self.bbcache.to_json()),
            ("jit", self.jit.to_json()),
            ("checks", self.checks.to_json()),
            ("gates", self.gates.to_json()),
            ("timing", self.timing.to_json()),
            ("run", self.run.to_json()),
            ("smp", self.smp.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_unused_cache() {
        assert_eq!(CacheCounters::default().hit_rate(), 1.0);
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            flushes: 0,
            conflicts: 0,
        };
        assert_eq!(c.hit_rate(), 0.75);
    }

    #[test]
    fn entries_match_typed_fields() {
        let mut c = Counters::default();
        c.caches.sgt = CacheCounters {
            hits: 10,
            misses: 2,
            flushes: 1,
            conflicts: 0,
        };
        c.checks.inst = 99;
        c.gates.calls = 7;
        c.timing.cycles = 1234;
        c.run.steps = 500;
        assert_eq!(c.get("caches.sgt.hits"), Some(10));
        assert_eq!(c.get("caches.sgt.misses"), Some(2));
        assert_eq!(c.get("checks.inst"), Some(99));
        assert_eq!(c.get("gates.calls"), Some(7));
        assert_eq!(c.get("timing.cycles"), Some(1234));
        assert_eq!(c.get("run.steps"), Some(500));
        // Every entry name is unique.
        let e = c.entries();
        let mut names: Vec<_> = e.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), e.len());
    }

    #[test]
    fn bank_total_sums_all_caches() {
        let b = CacheBank {
            inst: CacheCounters {
                hits: 1,
                misses: 2,
                flushes: 0,
                conflicts: 0,
            },
            legal: CacheCounters {
                hits: 4,
                misses: 0,
                flushes: 3,
                conflicts: 0,
            },
            ..CacheBank::default()
        };
        let t = b.total();
        assert_eq!((t.hits, t.misses, t.flushes), (5, 2, 3));
    }

    #[test]
    fn merge_sums_every_section() {
        let mut a = Counters::default();
        a.caches.inst.hits = 1;
        a.run.steps = 10;
        a.smp.shootdowns = 2;
        let mut b = Counters::default();
        b.caches.inst.hits = 2;
        b.run.steps = 5;
        b.smp.shootdowns = 1;
        b.smp.reservation_breaks = 4;
        b.timing.shootdown_stall = 8;
        a.merge(&b);
        assert_eq!(a.get("caches.inst.hits"), Some(3));
        assert_eq!(a.get("run.steps"), Some(15));
        assert_eq!(a.get("smp.shootdowns"), Some(3));
        assert_eq!(a.get("smp.reservation_breaks"), Some(4));
        assert_eq!(a.get("timing.shootdown_stall"), Some(8));
    }

    #[test]
    fn smp_block_is_in_entries_and_json() {
        let mut c = Counters::default();
        c.smp.harts = 4;
        c.smp.flush_cycles = 77;
        assert_eq!(c.get("smp.harts"), Some(4));
        assert_eq!(c.get("smp.flush_cycles"), Some(77));
        let s = c.to_json().to_string();
        assert!(s.contains("\"smp\""));
        assert!(s.contains("\"flush_cycles\":77"));
    }

    #[test]
    fn bbcache_block_is_in_entries_and_json() {
        let mut c = Counters::default();
        c.bbcache.decode.hits = 900;
        c.bbcache.decode.misses = 100;
        c.bbcache.tlb.hits = 990;
        c.bbcache.dtlb.hits = 42;
        c.bbcache.decode.flushes = 3;
        assert_eq!(c.get("bbcache.decode.hits"), Some(900));
        assert_eq!(c.get("bbcache.tlb.hits"), Some(990));
        assert_eq!(c.get("bbcache.dtlb.hits"), Some(42));
        assert_eq!(c.get("bbcache.decode.flushes"), Some(3));
        assert_eq!(c.bbcache.decode.hit_rate(), 0.9);
        let s = c.to_json().to_string();
        assert!(s.contains("\"bbcache\""));
        assert!(s.contains("\"hit_rate\""));
        let mut d = Counters::default();
        d.bbcache.decode.hits = 100;
        c.merge(&d);
        assert_eq!(c.get("bbcache.decode.hits"), Some(1000));
    }

    #[test]
    fn json_snapshot_round_trips_counts() {
        let mut c = Counters::default();
        c.caches.inst.hits = 42;
        let s = c.to_json().to_string();
        assert!(s.contains("\"hits\":42"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }
}
