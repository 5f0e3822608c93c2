//! The pipeline cycle-cost models.
//!
//! One [`PipelineModel`] implements both evaluation platforms of the
//! paper, selected by [`TimingConfig`] preset:
//!
//! * [`TimingConfig::rocket`] — the 5-stage in-order RISC-V Rocket core
//!   the paper runs on a VC707 FPGA at 100 MHz;
//! * [`TimingConfig::o3`] — the 8-wide out-of-order x86 core simulated
//!   with Gem5 (Table 3 parameters).
//!
//! The per-event constants are calibrated so that the *microbenchmark
//! anchors the paper publishes* come out right (Table 4: `hccall` ≈ 5
//! cycles on Rocket and ≈ 34 on the O3 core, `hccalls`/`hcrets` ≈ 12/12
//! and ≈ 52/44, cache-missing loads > 120 and > 200 cycles). Relative
//! application overheads then *emerge* from the instruction streams.

use isa_obs::TimingCounters;
use isa_sim::{Kind, MemAccess, Retired, TimingSink};

use crate::cache::{BranchPredictor, CacheModel, CacheParams, TlbModel, WordReader};

/// All knobs of the cycle model.
#[derive(Debug, Clone, Copy)]
pub struct TimingConfig {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Sustained issue width (1 = in-order scalar).
    pub issue_width: u64,
    /// Whether the core is out-of-order (partially hides data-miss
    /// latency behind independent work).
    pub out_of_order: bool,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2, if present.
    pub l2: Option<CacheParams>,
    /// Shared L3, if present.
    pub l3: Option<CacheParams>,
    /// DRAM latency in cycles after the last cache level misses.
    pub mem_latency: u64,
    /// Pipeline refill after a branch misprediction.
    pub mispredict_penalty: u64,
    /// Redirect bubble for a BTB-missing jump.
    pub jump_bubble: u64,
    /// Full-pipeline serialization (CSR access, fences, xRET, gates).
    pub serialize_penalty: u64,
    /// Extra cycles for a multiply.
    pub mul_latency: u64,
    /// Extra cycles for a divide.
    pub div_latency: u64,
    /// Trap/exception redirect cost.
    pub trap_penalty: u64,
    /// Page-table-walk charge per TLB miss.
    pub walk_penalty: u64,
    /// Instruction/data TLB entries.
    pub tlb_entries: usize,
    /// Branch-predictor index bits.
    pub predictor_bits: u32,
    /// Gate redirect cost beyond serialization (the SGT lookup + domain
    /// switch datapath).
    pub gate_redirect: u64,
    /// Cost per trusted-stack push word (`hccalls`).
    pub tstack_push: u64,
    /// Cost per trusted-stack pop word (`hcrets` — cheaper than pushes on
    /// the O3 core thanks to store-to-load forwarding, §7.1).
    pub tstack_pop: u64,
    /// Extra bookkeeping on extended gates (stack-pointer update).
    pub extended_extra: u64,
    /// Memory latency of a PCU privilege-cache miss (HPT/SGT read).
    pub pcu_miss_latency: u64,
    /// Cycles charged per privilege-cache entry discarded by a
    /// cross-hart shootdown (invalidate + tag rewrite; the refill
    /// itself is paid later as an ordinary PCU miss).
    pub shootdown_flush_penalty: u64,
}

impl TimingConfig {
    /// The RISC-V Rocket-like in-order platform (§7 "RISC-V Prototype").
    pub fn rocket() -> TimingConfig {
        TimingConfig {
            name: "rocket-inorder",
            issue_width: 1,
            out_of_order: false,
            l1i: CacheParams {
                size: 16 << 10,
                line: 64,
                ways: 4,
                latency: 1,
            },
            l1d: CacheParams {
                size: 16 << 10,
                line: 64,
                ways: 4,
                latency: 1,
            },
            l2: None,
            l3: None,
            // Table 4: cache-missing load/store > 120 cycles at 100 MHz
            // against DDR3.
            mem_latency: 120,
            mispredict_penalty: 3,
            jump_bubble: 2,
            serialize_penalty: 4,
            mul_latency: 4,
            div_latency: 33,
            trap_penalty: 4,
            walk_penalty: 6,
            tlb_entries: 32,
            predictor_bits: 9,
            // Calibrated to Table 4: hccall = 5, hccalls/hcrets = 12/12.
            gate_redirect: 0,
            tstack_push: 3,
            tstack_pop: 3,
            extended_extra: 1,
            pcu_miss_latency: 120,
            shootdown_flush_penalty: 2,
        }
    }

    /// The Gem5-x86-like out-of-order platform (Table 3).
    pub fn o3() -> TimingConfig {
        TimingConfig {
            name: "gem5-o3",
            issue_width: 8,
            out_of_order: true,
            l1i: CacheParams {
                size: 32 << 10,
                line: 64,
                ways: 4,
                latency: 2,
            },
            l1d: CacheParams {
                size: 32 << 10,
                line: 64,
                ways: 4,
                latency: 2,
            },
            l2: Some(CacheParams {
                size: 256 << 10,
                line: 64,
                ways: 16,
                latency: 20,
            }),
            l3: Some(CacheParams {
                size: 2 << 20,
                line: 64,
                ways: 16,
                latency: 32,
            }),
            // 30 ns after cache miss (Table 3); > 200 cycles end to end
            // with the L2/L3 lookups in front (Table 4).
            mem_latency: 160,
            mispredict_penalty: 14,
            jump_bubble: 4,
            // ROB drain + frontend refill; calibrated to hccall = 34.
            serialize_penalty: 33,
            mul_latency: 0, // pipelined and hidden by the OoO window
            div_latency: 20,
            trap_penalty: 40,
            walk_penalty: 20,
            tlb_entries: 64,
            predictor_bits: 12,
            gate_redirect: 0,
            // Calibrated to Table 4: hccalls = 52, hcrets = 44.
            tstack_push: 9,
            tstack_pop: 5,
            extended_extra: 0,
            pcu_miss_latency: 160,
            shootdown_flush_penalty: 2,
        }
    }
}

/// The cycle-cost model. Implements [`TimingSink`]; plug into a
/// [`isa_sim::Machine`] via `with_timing`.
#[derive(Debug)]
pub struct PipelineModel {
    cfg: TimingConfig,
    l1i: CacheModel,
    l1d: CacheModel,
    l2: Option<CacheModel>,
    l3: Option<CacheModel>,
    itlb: TlbModel,
    dtlb: TlbModel,
    bp: BranchPredictor,
    frac: u64,
    /// Issue-slot increment in eighths of a cycle (`8 / issue_width`),
    /// precomputed so `retire` avoids a per-instruction division.
    frac_inc: u64,
    /// Cycle attribution by cause (the `timing.*` counter block).
    pub stats: TimingCounters,
}

impl PipelineModel {
    /// Build a model from a configuration.
    pub fn new(cfg: TimingConfig) -> PipelineModel {
        PipelineModel {
            cfg,
            l1i: CacheModel::new(cfg.l1i),
            l1d: CacheModel::new(cfg.l1d),
            l2: cfg.l2.map(CacheModel::new),
            l3: cfg.l3.map(CacheModel::new),
            itlb: TlbModel::new(cfg.tlb_entries),
            dtlb: TlbModel::new(cfg.tlb_entries),
            bp: BranchPredictor::new(cfg.predictor_bits),
            frac: 0,
            frac_inc: 8 / cfg.issue_width,
            stats: TimingCounters::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// Walk the hierarchy below L1; returns the extra stall cycles.
    fn below_l1(&mut self, paddr: u64) -> u64 {
        let mut stall = 0;
        if let Some(l2) = &mut self.l2 {
            stall += l2.params().latency;
            if l2.access(paddr) {
                return stall;
            }
        }
        if let Some(l3) = &mut self.l3 {
            stall += l3.params().latency;
            if l3.access(paddr) {
                return stall;
            }
        }
        stall + self.cfg.mem_latency
    }

    fn fetch_stall(&mut self, paddr: u64) -> u64 {
        if self.l1i.access(paddr) {
            0
        } else {
            self.below_l1(paddr)
        }
    }

    fn data_stall(&mut self, paddr: u64) -> u64 {
        if self.l1d.access(paddr) {
            0
        } else {
            let raw = self.below_l1(paddr);
            if self.cfg.out_of_order && raw < self.cfg.mem_latency {
                // The OoO window hides part of an L2/L3 hit behind
                // independent work; DRAM latency is too long to hide.
                raw / 4
            } else {
                raw
            }
        }
    }

    /// Base issue slot: 1 cycle in-order, 1/width on the wide core.
    /// Serializing instructions drain the window and always occupy a
    /// full slot.
    #[inline]
    fn issue_slot(&mut self, serializing: bool) -> u64 {
        if serializing {
            self.frac = 0;
            1
        } else {
            self.frac += self.frac_inc;
            let cycles = self.frac / 8;
            self.frac %= 8;
            cycles
        }
    }

    /// Fetch-side charge for one instruction.
    fn charge_fetch(&mut self, ev: &Retired) -> u64 {
        let mut c = 0;
        if ev.walk_reads > 0 && !self.itlb.access(ev.pc) {
            c += self.walk_miss();
        }
        c + self.charge_l1i(ev.fetch_paddr)
    }

    /// [`PipelineModel::charge_fetch`] inside a superblock. An iTLB probe
    /// of the page this block probed last, or an L1I probe of the line
    /// the L1I saw last, is a hit that only moves that model's own LRU
    /// clock: it is counted in `rep` and applied before the model's
    /// next real access. Neither hit reaches L2/L3, so the order of
    /// everything below L1 is unchanged.
    #[inline(always)]
    fn charge_fetch_repeat(&mut self, ev: &Retired, rep: &mut Repeats) -> u64 {
        let mut c = 0;
        if ev.walk_reads > 0 {
            if ev.pc >> 12 == rep.page {
                rep.itlb += 1;
            } else {
                c += self.itlb_probe(ev.pc, rep);
            }
        }
        if self.l1i.is_last_line(ev.fetch_paddr) {
            rep.l1i += 1;
        } else {
            self.l1i.repeat_last(std::mem::take(&mut rep.l1i));
            c += self.charge_l1i(ev.fetch_paddr);
        }
        c
    }

    /// Settle the pending iTLB hits, then probe the page of `pc`.
    #[inline(never)]
    fn itlb_probe(&mut self, pc: u64, rep: &mut Repeats) -> u64 {
        self.itlb
            .repeat(rep.page << 12, std::mem::take(&mut rep.itlb));
        rep.page = pc >> 12;
        if self.itlb.access(pc) {
            0
        } else {
            self.walk_miss()
        }
    }

    #[inline(never)]
    fn charge_l1i(&mut self, paddr: u64) -> u64 {
        let f = self.fetch_stall(paddr);
        self.stats.fetch_stall += f;
        f
    }

    /// Apply the hits `rep` holds back and forget its page.
    fn settle(&mut self, rep: &mut Repeats) {
        self.itlb.repeat(rep.page << 12, rep.itlb);
        self.l1i.repeat_last(rep.l1i);
        *rep = Repeats::NONE;
    }

    fn walk_miss(&mut self) -> u64 {
        self.stats.walk_stall += self.cfg.walk_penalty;
        self.cfg.walk_penalty
    }

    /// Everything after fetch for an instruction of class `kind`: data
    /// access, control flow, functional units, and — out of line, as
    /// they are rare — serialization, ISA-Grid costs and the trap
    /// redirect.
    #[inline(always)]
    fn charge_exec(&mut self, ev: &Retired, kind: Kind) -> u64 {
        let mut cycles = 0;
        if let Some(m) = ev.mem {
            cycles += self.charge_data(m, ev.walk_reads > 0);
        }
        if kind.is_branch() || matches!(kind, Kind::Jal | Kind::Jalr) {
            cycles += self.charge_control(ev, kind);
        }
        // Long-latency functional units.
        if kind.is_muldiv() {
            cycles += if matches!(
                kind,
                Kind::Div
                    | Kind::Divu
                    | Kind::Rem
                    | Kind::Remu
                    | Kind::Divw
                    | Kind::Divuw
                    | Kind::Remw
                    | Kind::Remuw
            ) {
                self.cfg.div_latency
            } else {
                self.cfg.mul_latency
            };
        }
        let e = &ev.ext;
        if kind.is_serializing()
            || kind.is_grid_custom()
            || ev.trap_cause.is_some()
            || e.gate_switch
            || (e.hpt_inst_miss | e.hpt_reg_miss | e.hpt_mask_miss | e.sgt_miss) != 0
            || e.shootdown_flushed > 0
        {
            cycles += self.charge_rare(ev, kind);
        }
        cycles
    }

    /// Data-side charge: the dTLB when the access walked, then L1D and
    /// below.
    #[inline(never)]
    fn charge_data(&mut self, m: MemAccess, walked: bool) -> u64 {
        let mut c = 0;
        if walked && !self.dtlb.access(m.vaddr) {
            c += self.walk_miss();
        }
        let d = self.data_stall(m.paddr);
        self.stats.data_stall += d;
        c + d
    }

    /// Branch-predictor charge, without branching on the outcome.
    #[inline]
    fn charge_control(&mut self, ev: &Retired, kind: Kind) -> u64 {
        let c = if kind.is_branch() {
            let hit = self.bp.predict_and_update(ev.pc, ev.branch_taken);
            !hit as u64 * self.cfg.mispredict_penalty
        } else {
            let hit = self.bp.btb_lookup_update(ev.pc);
            !hit as u64 * self.cfg.jump_bubble
        };
        self.stats.branch_stall += c;
        c
    }

    /// Serialization (gates are priced separately; the TLBs are flushed
    /// on translation-control updates), ISA-Grid costs and the trap
    /// redirect.
    #[inline(never)]
    fn charge_rare(&mut self, ev: &Retired, kind: Kind) -> u64 {
        let mut cycles = 0;
        if kind.is_serializing() && !kind.is_grid_custom() {
            cycles += self.cfg.serialize_penalty;
            self.stats.serialize_stall += self.cfg.serialize_penalty;
            let csr = (ev.raw >> 20) as u16 & 0xfff;
            if kind == Kind::SfenceVma || (kind.is_csr_access() && csr == 0x180) {
                self.itlb.flush();
                self.dtlb.flush();
            }
        }

        // ISA-Grid costs.
        let e = &ev.ext;
        if e.gate_switch || kind.is_grid_custom() {
            let mut g = 0;
            if e.gate_switch {
                g += self.cfg.serialize_penalty + self.cfg.gate_redirect;
            }
            if e.tstack_ops > 0 {
                let per = if kind == Kind::Hcrets {
                    self.cfg.tstack_pop
                } else {
                    self.cfg.tstack_push
                };
                g += e.tstack_ops as u64 * per + self.cfg.extended_extra;
            }
            // pfch issues low-priority fills: one issue slot each.
            g += e.prefetch_reads as u64;
            self.stats.gate_cycles += g;
            cycles += g;
        }
        let pcu_misses = (e.hpt_inst_miss + e.hpt_reg_miss + e.hpt_mask_miss + e.sgt_miss) as u64;
        if pcu_misses > 0 {
            let p = pcu_misses * self.cfg.pcu_miss_latency;
            self.stats.pcu_stall += p;
            cycles += p;
        }
        if e.shootdown_flushed > 0 {
            let s = e.shootdown_flushed as u64 * self.cfg.shootdown_flush_penalty;
            self.stats.shootdown_stall += s;
            cycles += s;
        }

        if ev.trap_cause.is_some() {
            cycles += self.cfg.trap_penalty;
            self.stats.trap_stall += self.cfg.trap_penalty;
        }
        cycles
    }
}

/// Fetch-side hits a superblock retire has proven and not yet applied.
struct Repeats {
    /// Page of the block's last iTLB probe (`u64::MAX`: none yet).
    page: u64,
    /// Pending iTLB hits on `page`.
    itlb: u64,
    /// Pending L1I hits on the L1I's last line.
    l1i: u64,
}

impl Repeats {
    const NONE: Repeats = Repeats {
        page: u64::MAX,
        itlb: 0,
        l1i: 0,
    };
}

impl TimingSink for PipelineModel {
    fn retire(&mut self, ev: &Retired) -> u64 {
        self.stats.events += 1;
        let mut cycles = self.issue_slot(ev.kind.is_some_and(|k| k.is_serializing()));
        cycles += self.charge_fetch(ev);
        match ev.kind {
            Some(kind) => cycles += self.charge_exec(ev, kind),
            None => {
                // Fetch/decode fault: only the trap redirect applies.
                let t = self.cfg.trap_penalty;
                self.stats.trap_stall += t;
                cycles += t;
            }
        }
        self.stats.cycles += cycles;
        cycles
    }

    /// Per-event [`TimingSink::retire`], except that an iTLB probe of
    /// the page the block probed last, or an L1I probe of the L1I's
    /// last line — a hit that only moves that model's LRU clock — is
    /// counted and applied in one step ([`TlbModel::repeat`],
    /// [`CacheModel::repeat_last`]) before the model's next real
    /// access. Serializing and fetch-fault events (which may flush the
    /// TLBs) settle the batch and take the per-event path, so every
    /// model's state changes in the same order as stepped retirement.
    fn retire_block(&mut self, templates: &[Retired], dynamic: &[(u8, Retired)]) -> u64 {
        let mut rep = Repeats::NONE;
        let mut total = 0;
        for ev in isa_sim::block_events(templates, dynamic) {
            match ev.kind {
                Some(kind) if !kind.is_serializing() => {
                    self.stats.events += 1;
                    let mut cycles = self.issue_slot(false);
                    cycles += self.charge_fetch_repeat(ev, &mut rep);
                    cycles += self.charge_exec(ev, kind);
                    self.stats.cycles += cycles;
                    total += cycles;
                }
                _ => {
                    self.settle(&mut rep);
                    total += self.retire(ev);
                }
            }
        }
        self.settle(&mut rep);
        total
    }

    fn interrupt(&mut self) -> u64 {
        let c = self.cfg.trap_penalty;
        self.stats.trap_stall += c;
        self.stats.cycles += c;
        c
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Serialize all mutable model state. Guest code observes modeled
    /// cycles through `rdcycle`, so a restored machine must resume with
    /// exactly the warmth (cache tags, TLB order, predictor counters)
    /// the snapshotted one had, or cycle counts diverge.
    fn save_state(&self) -> Vec<u64> {
        let mut out = Vec::new();
        out.push(self.frac);
        let s = &self.stats;
        out.extend_from_slice(&[
            s.events,
            s.cycles,
            s.fetch_stall,
            s.data_stall,
            s.branch_stall,
            s.serialize_stall,
            s.trap_stall,
            s.walk_stall,
            s.pcu_stall,
            s.gate_cycles,
            s.shootdown_stall,
        ]);
        self.l1i.save_words(&mut out);
        self.l1d.save_words(&mut out);
        if let Some(l2) = &self.l2 {
            l2.save_words(&mut out);
        }
        if let Some(l3) = &self.l3 {
            l3.save_words(&mut out);
        }
        self.itlb.save_words(&mut out);
        self.dtlb.save_words(&mut out);
        self.bp.save_words(&mut out);
        out
    }

    /// Restore state saved by [`TimingSink::save_state`] on a model built
    /// with the *same* [`TimingConfig`] (geometry is implied, not stored).
    fn load_state(&mut self, words: &[u64]) {
        let mut r = WordReader::new(words);
        self.frac = r.next();
        let s = &mut self.stats;
        s.events = r.next();
        s.cycles = r.next();
        s.fetch_stall = r.next();
        s.data_stall = r.next();
        s.branch_stall = r.next();
        s.serialize_stall = r.next();
        s.trap_stall = r.next();
        s.walk_stall = r.next();
        s.pcu_stall = r.next();
        s.gate_cycles = r.next();
        s.shootdown_stall = r.next();
        self.l1i.load_words(&mut r);
        self.l1d.load_words(&mut r);
        if let Some(l2) = &mut self.l2 {
            l2.load_words(&mut r);
        }
        if let Some(l3) = &mut self.l3 {
            l3.load_words(&mut r);
        }
        self.itlb.load_words(&mut r);
        self.dtlb.load_words(&mut r);
        self.bp.load_words(&mut r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_sim::{ExtEvents, Priv};

    fn ev(pc: u64) -> Retired {
        Retired {
            pc,
            fetch_paddr: pc,
            next_pc: pc + 4,
            kind: Some(Kind::Addi),
            raw: 0x13,
            priv_level: Priv::M,
            mem: None,
            branch_taken: false,
            trap_cause: None,
            walk_reads: 0,
            ext: ExtEvents::default(),
        }
    }

    #[test]
    fn straight_line_code_is_about_one_ipc_inorder() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        // Same line: first fetch misses, then all hit.
        let mut total = 0;
        for i in 0..1000 {
            let mut e = ev(0x8000_0000 + (i % 16) * 4);
            e.kind = Some(Kind::Addi);
            total += m.retire(&e);
        }
        assert!(total < 1300, "expected ~1 IPC, got {total} cycles");
        assert!(total >= 1000);
    }

    #[test]
    fn wide_core_exceeds_one_ipc() {
        let mut m = PipelineModel::new(TimingConfig::o3());
        let mut total = 0;
        for i in 0..1000 {
            total += m.retire(&ev(0x8000_0000 + (i % 16) * 4));
        }
        assert!(
            total < 400,
            "8-wide core should be far below 1 CPI: {total}"
        );
    }

    #[test]
    fn cache_missing_load_exceeds_table4_floor() {
        // Table 4: > 120 cycles on Rocket, > 200 on the O3 core.
        for (cfg, floor) in [(TimingConfig::rocket(), 120), (TimingConfig::o3(), 200)] {
            let mut m = PipelineModel::new(cfg);
            let mut e = ev(0x8000_0000);
            e.kind = Some(Kind::Ld);
            // A fresh line far away: L1/L2/L3 all miss.
            e.mem = Some(MemAccess {
                vaddr: 0x9999_0000,
                paddr: 0x9999_0000,
                len: 8,
                write: false,
            });
            let c = m.retire(&e);
            assert!(c > floor, "{}: {c} <= {floor}", cfg.name);
        }
    }

    #[test]
    fn hccall_matches_table4_anchors() {
        // Warm gate (no SGT miss): 5 cycles on Rocket, 34 on O3.
        for (cfg, want) in [(TimingConfig::rocket(), 5), (TimingConfig::o3(), 34)] {
            let mut m = PipelineModel::new(cfg);
            m.retire(&ev(0x8000_0000)); // warm the fetch line
            let mut e = ev(0x8000_0004);
            e.kind = Some(Kind::Hccall);
            e.ext.gate_switch = true;
            let c = m.retire(&e);
            assert_eq!(c, want, "{}", cfg.name);
        }
    }

    #[test]
    fn extended_gates_match_table4_anchors() {
        for (cfg, call, ret) in [
            (TimingConfig::rocket(), 12, 12),
            (TimingConfig::o3(), 52, 44),
        ] {
            let mut m = PipelineModel::new(cfg);
            m.retire(&ev(0x8000_0000));
            let mut e = ev(0x8000_0004);
            e.kind = Some(Kind::Hccalls);
            e.ext.gate_switch = true;
            e.ext.tstack_ops = 2;
            assert_eq!(m.retire(&e), call, "{} hccalls", cfg.name);
            let mut e = ev(0x8000_0008);
            e.kind = Some(Kind::Hcrets);
            e.ext.gate_switch = true;
            e.ext.tstack_ops = 2;
            assert_eq!(m.retire(&e), ret, "{} hcrets", cfg.name);
        }
    }

    #[test]
    fn pcu_cache_miss_costs_memory_latency() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        m.retire(&ev(0x8000_0000));
        let mut e = ev(0x8000_0004);
        e.ext.hpt_inst_miss = 1;
        let c = m.retire(&e);
        assert!(c >= 120, "HPT miss must stall like memory: {c}");
        assert_eq!(m.stats.pcu_stall, 120);
    }

    #[test]
    fn shootdown_flush_charges_per_entry() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        m.retire(&ev(0x8000_0000));
        let mut e = ev(0x8000_0004);
        e.ext.shootdown_flushed = 5;
        let c = m.retire(&e);
        let want = 5 * m.cfg.shootdown_flush_penalty;
        assert!(c >= want, "flush must stall: {c} < {want}");
        assert_eq!(m.stats.shootdown_stall, want);
        assert_eq!(m.stats.shootdown_stall, want);
    }

    #[test]
    fn mispredicted_branch_costs_refill() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        m.retire(&ev(0x8000_0000));
        // Pseudo-random outcomes: no predictor can learn these well.
        let mut lcg: u64 = 12345;
        for _ in 0..200 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut e = ev(0x8000_0004);
            e.kind = Some(Kind::Beq);
            e.branch_taken = (lcg >> 33) & 1 == 1;
            m.retire(&e);
        }
        assert!(m.bp.stats.misses > 20, "random pattern must mispredict");
        assert!(m.stats.branch_stall > 0);
    }

    #[test]
    fn serializing_instructions_flush() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        m.retire(&ev(0x8000_0000));
        let mut e = ev(0x8000_0004);
        e.kind = Some(Kind::Csrrw);
        e.raw = 0x1805_1073; // csrrw x0, satp, a0
        let c = m.retire(&e);
        assert!(c > m.cfg.serialize_penalty);
        assert!(m.stats.serialize_stall > 0);
    }

    #[test]
    fn trap_penalty_applied() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        let mut e = ev(0x8000_0000);
        e.kind = Some(Kind::Ecall);
        e.trap_cause = Some(8);
        let c = m.retire(&e);
        assert!(c >= m.cfg.trap_penalty);
    }

    #[test]
    fn satp_write_flushes_the_tlbs() {
        let mut m = PipelineModel::new(TimingConfig::rocket());
        // Warm the dTLB with a paged access.
        let mut e = ev(0x8000_0000);
        e.kind = Some(Kind::Ld);
        e.walk_reads = 3;
        e.mem = Some(MemAccess {
            vaddr: 0x5000,
            paddr: 0x8000_5000,
            len: 8,
            write: false,
        });
        m.retire(&e);
        let warm = m.stats.walk_stall;
        // Re-access: TLB hit, no new walk charge.
        let mut e2 = e;
        e2.pc = 0x8000_0000; // same page: iTLB hit too
        m.retire(&e2);
        assert_eq!(m.stats.walk_stall, warm, "warm access must not pay a walk");
        // Write satp (csrrw x0, satp, a0) -> both TLBs flushed.
        let mut s = ev(0x8000_0004);
        s.kind = Some(Kind::Csrrw);
        s.raw = 0x1805_1073;
        m.retire(&s);
        let mut e3 = e;
        e3.pc = 0x8000_0008;
        m.retire(&e3);
        assert!(m.stats.walk_stall > warm, "post-flush access must re-walk");
    }

    #[test]
    fn saved_state_resumes_cycle_identical() {
        // Warm a model with a mixed stream, save, load into a fresh
        // model, then feed both the same continuation: every retire must
        // return the same cycle count (rdcycle-visible determinism).
        fn step(m: &mut PipelineModel, i: u64, lcg: &mut u64) -> u64 {
            *lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut e = ev(0x8000_0000 + (i % 64) * 4);
            match (*lcg >> 33) % 4 {
                0 => {
                    e.kind = Some(Kind::Ld);
                    e.walk_reads = 2;
                    e.mem = Some(MemAccess {
                        vaddr: 0x4000 + (*lcg >> 40) % 0x8000,
                        paddr: 0x8100_0000 + (*lcg >> 40) % 0x8000,
                        len: 8,
                        write: false,
                    });
                }
                1 => {
                    e.kind = Some(Kind::Beq);
                    e.branch_taken = (*lcg >> 13) & 1 == 1;
                }
                2 => e.kind = Some(Kind::Jal),
                _ => {}
            }
            m.retire(&e)
        }
        for cfg in [TimingConfig::rocket(), TimingConfig::o3()] {
            let mut warm = PipelineModel::new(cfg);
            let mut lcg: u64 = 99;
            for i in 0..400 {
                step(&mut warm, i, &mut lcg);
            }
            let words = warm.save_state();
            let mut restored = PipelineModel::new(cfg);
            restored.load_state(&words);
            assert_eq!(restored.stats, warm.stats, "{}", cfg.name);
            for i in 400..800 {
                let mut lcg_b = lcg;
                let a = step(&mut warm, i, &mut lcg);
                let b = step(&mut restored, i, &mut lcg_b);
                assert_eq!(a, b, "{}: cycle divergence at step {i}", cfg.name);
                assert_eq!(lcg, lcg_b);
            }
            assert_eq!(restored.stats, warm.stats, "{}", cfg.name);
        }
    }

    /// xorshift64 step for the block generator below.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    /// One chance in `n`.
    fn one_in(rng: &mut u64, n: u64) -> bool {
        next(rng).is_multiple_of(n)
    }

    /// A random superblock in [`TimingSink::retire_block`] form:
    /// templates on consecutive pcs (crossing L1I lines, sometimes a
    /// page), a quarter of them loads/stores, with serializing and
    /// fetch-fault records mixed in; and the dynamic records of an
    /// executed prefix, whose last op may trap or leave the block.
    fn random_block(rng: &mut u64) -> (Vec<Retired>, Vec<(u8, Retired)>) {
        let len = 1 + next(rng) % 64;
        let pc0 = 0x8000_0000 + (next(rng) % 0x800) * 4;
        let fetch_walk = if one_in(rng, 3) { 2 } else { 0 };
        let templates: Vec<Retired> = (0..len)
            .map(|i| {
                let pc = pc0 + i * 4;
                let mut t = ev(pc);
                // Two virtual pages may share a physical one.
                t.fetch_paddr = 0x8100_0000 + (((pc >> 12) % 2) << 12) + (pc & 0xfff);
                t.walk_reads = fetch_walk;
                let (kind, raw) = match next(rng) % 40 {
                    0..=4 => (Some(Kind::Ld), 0x3),
                    5..=9 => (Some(Kind::Sd), 0x23),
                    10 => (Some(Kind::Mul), 0x33),
                    11 => (Some(Kind::Divu), 0x33),
                    12 => (Some(Kind::Csrrw), 0x1805_1073), // satp: flushes the TLBs
                    13 => (Some(Kind::Fence), 0xf),
                    14 => (None, 0),
                    _ => (Some(Kind::Addi), 0x13),
                };
                if i + 1 == len && one_in(rng, 2) {
                    t.kind = Some([Kind::Beq, Kind::Jal, Kind::Jalr][next(rng) as usize % 3]);
                } else {
                    t.kind = kind;
                }
                t.raw = raw;
                t
            })
            .collect();
        let exit = if one_in(rng, 3) {
            next(rng) % len
        } else {
            len - 1
        };
        let mut dynamic = Vec::new();
        for (i, t) in templates.iter().enumerate().take(exit as usize + 1) {
            let mem = t.kind.is_some_and(|k| k.is_load() || k.is_store());
            let last = i as u64 == exit;
            if !mem && !last {
                continue;
            }
            let mut r = *t;
            if mem {
                let vaddr = 0x4000 + ((next(rng) % 3) << 12) + next(rng) % 0x1000 / 8 * 8;
                r.mem = Some(MemAccess {
                    vaddr,
                    paddr: 0x8200_0000 + vaddr,
                    len: 8,
                    write: t.kind.is_some_and(|k| k.is_store()),
                });
                // A data walk turns a zero fetch walk into a probe of
                // the iTLB as well.
                if one_in(rng, 2) {
                    r.walk_reads += 3;
                }
                r.ext.hpt_inst_miss = one_in(rng, 8) as u8;
            }
            if last {
                r.branch_taken = one_in(rng, 2);
                if one_in(rng, 3) {
                    r.trap_cause = Some(5);
                    r.next_pc = 0x8000_0100;
                }
            }
            dynamic.push((i as u8, r));
        }
        (templates, dynamic)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The batched superblock retire is the per-event retire: same
        /// cycles per block, same stats, same saved state.
        #[test]
        fn retire_block_equals_per_event_retire(seed in proptest::prelude::any::<u64>(), blocks in 1usize..12) {
            for cfg in [TimingConfig::rocket(), TimingConfig::o3()] {
                let mut batched = PipelineModel::new(cfg);
                let mut stepped = PipelineModel::new(cfg);
                let mut rng = seed | 1;
                for _ in 0..blocks {
                    let (templates, dynamic) = random_block(&mut rng);
                    let got = batched.retire_block(&templates, &dynamic);
                    let want: u64 = isa_sim::block_events(&templates, &dynamic)
                        .map(|e| stepped.retire(e))
                        .sum();
                    proptest::prop_assert_eq!(got, want, "{}: block cycles", cfg.name);
                    proptest::prop_assert_eq!(batched.stats, stepped.stats, "{}", cfg.name);
                }
                let (b, s) = (batched.save_state(), stepped.save_state());
                let first_diff = b.iter().zip(&s).position(|(x, y)| x != y);
                proptest::prop_assert!(
                    b == s,
                    "{}: saved state differs (lengths {} vs {}, first word {:?})",
                    cfg.name,
                    b.len(),
                    s.len(),
                    first_diff
                );
            }
        }
    }

    #[test]
    fn stats_totals_match_returned_cycles() {
        let mut m = PipelineModel::new(TimingConfig::o3());
        let mut total = 0;
        for i in 0..500 {
            let mut e = ev(0x8000_0000 + i * 4);
            if i % 7 == 0 {
                e.kind = Some(Kind::Ld);
                e.mem = Some(MemAccess {
                    vaddr: 0x8100_0000 + i * 64,
                    paddr: 0x8100_0000 + i * 64,
                    len: 8,
                    write: false,
                });
            }
            total += m.retire(&e);
        }
        assert_eq!(m.stats.cycles, total);
        assert_eq!(m.stats.events, 500);
    }
}
