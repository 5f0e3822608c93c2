//! SMP scaling harness: parallel speedup and shootdown traffic.
//!
//! Two experiments back the `smp` binary:
//!
//! 1. **Scaling** — an embarrassingly-parallel mixing kernel is sharded
//!    across N harts via [`Smp::run_concurrent`] (one OS thread per
//!    hart) and wall-clocked against one hart doing the same *total*
//!    work. Each hart folds its partial checksum into shared memory
//!    with an AMO, and the host cross-checks the sum against a native
//!    replay of the same arithmetic — a end-to-end test that the
//!    shared-bus atomics actually serialize.
//! 2. **Shootdown traffic** — a deterministic round-robin [`Smp`] in
//!    which hart 0 (domain-0 software) repeatedly rewrites a domain's
//!    privilege tables while the other harts execute; every mutation
//!    must be acknowledged by every other hart before its next commit.
//!    The resulting `smp.*` counter block feeds the JSON run report.

use std::time::Instant;

use isa_asm::{Asm, Program, Reg::*};
use isa_grid::{DomainSpec, GridLayout, Pcu, PcuConfig};
use isa_obs::Counters;
use isa_sim::{mmio, Bus, Exit, Machine, DEFAULT_RAM_BASE};
use isa_smp::{merge_results, Schedule, Smp};

use crate::report::{self, Table};

/// CSR address of `mhartid`.
const MHARTID: u32 = 0xF14;

/// The LCG multiplier of the mixing kernel.
const MIX_MUL: u64 = 6364136223846793005;

/// The seed each hart starts from.
const MIX_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Result of the scaling experiment.
#[derive(Debug, Clone)]
pub struct SmpScaling {
    /// Harts in the parallel run.
    pub harts: usize,
    /// Total mixing iterations (same for baseline and parallel).
    pub total_iters: u64,
    /// Wall-clock seconds for 1 hart doing all the work.
    pub base_secs: f64,
    /// Wall-clock seconds for `harts` harts sharing the work.
    pub par_secs: f64,
    /// `base_secs / par_secs`.
    pub speedup: f64,
    /// Whether the guest checksum matched the host replay.
    pub checksum_ok: bool,
    /// Host CPUs available to the process. With fewer CPUs than harts
    /// the threads time-slice one core and `speedup` says nothing
    /// about the bus — print it next to the ratio.
    pub cpus: usize,
    /// Merged counters of the parallel run.
    pub counters: Counters,
}

/// The guest mixing kernel. Every hart: load its iteration count from
/// the parameter word, mix `iters` times (multiply, add `hart+1`,
/// xorshift), AMO-add the result into the shared checksum, halt with
/// its hart id.
pub fn mix_program() -> Program {
    let mut a = Asm::new(DEFAULT_RAM_BASE);
    a.la(T0, "iters");
    a.ld(T2, T0, 0);
    a.csrr(A2, MHARTID);
    a.addi(A2, A2, 1);
    a.li(A1, MIX_SEED);
    a.li(A3, MIX_MUL);
    a.label("loop");
    a.mul(A1, A1, A3);
    a.add(A1, A1, A2);
    a.slli(A4, A1, 13);
    a.xor(A1, A1, A4);
    a.srli(A4, A1, 7);
    a.xor(A1, A1, A4);
    a.addi(T2, T2, -1);
    a.bnez(T2, "loop");
    a.la(T3, "checksum");
    a.amoadd_d(A4, T3, A1);
    a.csrr(A0, MHARTID);
    a.li(T6, mmio::HALT);
    a.sd(A0, T6, 0);
    a.align(8);
    a.label("iters");
    a.d64(0);
    a.label("checksum");
    a.d64(0);
    a.assemble().expect("mix program assembles")
}

/// Host replay of one hart's mixing kernel (must match `mix_program`).
fn mix_native(hart: u64, iters: u64) -> u64 {
    let mut x = MIX_SEED;
    for _ in 0..iters {
        x = x.wrapping_mul(MIX_MUL).wrapping_add(hart + 1);
        x ^= x << 13;
        x ^= x >> 7;
    }
    x
}

/// Run the mixing kernel on `harts` harts, `iters_per_hart` each, with
/// one OS thread per hart. Returns (wall seconds, guest checksum,
/// merged counters, per-hart profiles when `profile` is on).
fn timed_run(
    harts: usize,
    iters_per_hart: u64,
    profile: bool,
) -> (f64, u64, Counters, Vec<isa_obs::Profile>) {
    let prog = mix_program();
    let bus = Bus::with_harts(DEFAULT_RAM_BASE, 16 << 20, harts);
    bus.write_bytes(prog.base, &prog.bytes);
    bus.write_u64(prog.symbol("iters"), iters_per_hart);
    let base = prog.base;
    let max_steps = 16 * iters_per_hart + 1_000;
    let start = Instant::now();
    let results = Smp::run_concurrent(&bus, max_steps, |h, hb| {
        let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
        m.cpu.pc = base;
        if profile {
            m.set_obs(isa_obs::Obs::new(isa_obs::Spine::new().with_profile(h)));
        }
        m
    });
    let secs = start.elapsed().as_secs_f64();
    for r in &results {
        assert_eq!(
            r.exit,
            Exit::Halted(r.hart as u64),
            "hart {} did not complete",
            r.hart
        );
    }
    let sum = bus.read_u64(prog.symbol("checksum"));
    let counters = merge_results(&results, &bus);
    let profiles = results.into_iter().filter_map(|r| r.profile).collect();
    (secs, sum, counters, profiles)
}

/// The scaling experiment: same total work on 1 hart and on `harts`
/// harts. `total_iters` is rounded down to a multiple of `harts`.
pub fn scaling(harts: usize, total_iters: u64) -> SmpScaling {
    scaling_profiled(harts, total_iters, false).0
}

/// [`scaling`], optionally capturing per-hart profiles of both the
/// one-hart baseline and the parallel run (as two [`RunProfile`]s).
pub fn scaling_profiled(
    harts: usize,
    total_iters: u64,
    profile: bool,
) -> (SmpScaling, Vec<isa_obs::RunProfile>) {
    let per_hart = total_iters / harts as u64;
    let total = per_hart * harts as u64;
    let (base_secs, base_sum, _, base_prof) = timed_run(1, total, profile);
    let (par_secs, par_sum, counters, par_prof) = timed_run(harts, per_hart, profile);
    let expect_base = mix_native(0, total);
    let expect_par: u64 =
        (0..harts as u64).fold(0u64, |acc, h| acc.wrapping_add(mix_native(h, per_hart)));
    let s = SmpScaling {
        harts,
        total_iters: total,
        base_secs,
        par_secs,
        speedup: base_secs / par_secs.max(1e-9),
        checksum_ok: base_sum == expect_base && par_sum == expect_par,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        counters,
    };
    let mut runs = Vec::new();
    if profile {
        runs.push(isa_obs::RunProfile {
            name: "smp-scaling/1-hart".to_string(),
            profiles: base_prof,
            audit: Vec::new(),
        });
        runs.push(isa_obs::RunProfile {
            name: format!("smp-scaling/{harts}-harts"),
            profiles: par_prof,
            audit: Vec::new(),
        });
    }
    (s, runs)
}

/// The shootdown-traffic experiment: `harts` harts run the mixing
/// kernel under a deterministic round-robin interleaver while hart 0's
/// PCU (playing domain-0 software) rewrites a domain's privilege
/// tables `rounds` times. Returns the merged counters — the `smp.*`
/// block carries the publish/ack traffic.
pub fn shootdown_traffic(harts: usize, rounds: u64) -> Counters {
    let prog = mix_program();
    // Full-size RAM: the trusted-memory region lives at 0x8380_0000.
    let bus = Bus::with_harts(DEFAULT_RAM_BASE, isa_sim::DEFAULT_RAM_SIZE, harts);
    bus.write_bytes(prog.base, &prog.bytes);
    bus.write_u64(prog.symbol("iters"), rounds * 64);
    let base = prog.base;
    let mut smp = Smp::new(&bus, |_h, hb| {
        let mut m = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), hb);
        m.cpu.pc = base;
        m
    })
    .with_schedule(Schedule::RoundRobin { quantum: 1 });

    // Domain-0 setup on hart 0: install tables, register one domain.
    let layout = GridLayout::new(0x8380_0000, 1 << 20);
    let spec = DomainSpec::compute_only();
    let domain = {
        let m0 = smp.machine_mut(0);
        m0.ext.install(&mut m0.bus, layout);
        m0.ext.add_domain(&mut m0.bus, &spec)
    };

    for _ in 0..rounds {
        {
            let m0 = smp.machine_mut(0);
            m0.ext.update_domain(&mut m0.bus, domain, &spec);
        }
        // Let every hart commit a few instructions; each victim must
        // flush-and-ack before its first one.
        for _ in 0..harts * 4 {
            if smp.step().is_none() {
                break;
            }
        }
    }
    assert!(smp.quiesced(), "all harts must ack the final epoch");
    smp.run(rounds * 64 * 16 + 10_000).unwrap();
    smp.counters()
}

/// Render both experiments as one report table.
pub fn render(s: &SmpScaling, shoot: &Counters) -> Table {
    let mut t = Table::new(
        "SMP scaling: embarrassingly-parallel mixing kernel, shared-bus harts",
        &["configuration", "iters", "wall (ms)", "speedup"],
    );
    t.row(vec![
        "1 hart".to_string(),
        s.total_iters.to_string(),
        format!("{:.1}", s.base_secs * 1e3),
        "1.00x".to_string(),
    ]);
    t.row(vec![
        format!("{} harts", s.harts),
        s.total_iters.to_string(),
        format!("{:.1}", s.par_secs * 1e3),
        format!("{:.2}x", s.speedup),
    ]);
    t.extra(
        "checksum",
        isa_obs::Json::Str(if s.checksum_ok { "ok" } else { "MISMATCH" }.to_string()),
    );
    t.extra("speedup", isa_obs::Json::F64(report::round4(s.speedup)));
    t.extra("host_cpus", isa_obs::Json::U64(s.cpus as u64));
    t.extra("smp", isa_obs::ToJson::to_json(&shoot.smp));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_checksum_matches_native_replay() {
        let s = scaling(2, 2_000);
        assert!(s.checksum_ok, "guest and host disagree on the checksum");
        assert_eq!(s.counters.smp.harts, 2);
    }

    #[test]
    fn shootdown_traffic_is_acknowledged() {
        let c = shootdown_traffic(3, 5);
        assert_eq!(c.smp.harts, 3);
        // install + 5 updates publish at least 6 epochs...
        assert!(c.smp.shootdowns >= 6, "shootdowns: {}", c.smp.shootdowns);
        // ...and both victims take each one published while they run.
        assert!(
            c.smp.shootdown_acks >= 2 * 5,
            "acks: {}",
            c.smp.shootdown_acks
        );
    }
}
