//! Where do the cycles go? Per-category stall breakdown of a workload
//! under the native and decomposed kernels, plus the per-operation cost
//! of monitor-mediated page-mapping updates — the micro-level companion
//! to Figures 5–8.

use isa_asm::Program;
use isa_grid::PcuConfig;
use isa_obs::TimingCounters;
use isa_timing::PipelineModel;
use simkernel::layout::sys;
use simkernel::{usr, KernelConfig, Platform, Session, SimBuilder};
use workloads::App;

use crate::report;

/// Run a program and fetch the timing model's internal statistics.
fn run_with_stats(cfg: KernelConfig, platform: Platform, prog: &Program) -> (u64, TimingCounters) {
    let mut s = Session::new(SimBuilder::new(cfg).platform(platform).boot(prog, None));
    let c = s.drain(2_000_000_000).unwrap();
    assert_eq!(c.exit_code, 0, "{cfg:?}");
    let stats = s
        .sim()
        .machine
        .timing
        .as_any()
        .and_then(|a| a.downcast_ref::<PipelineModel>())
        .map(|m| m.stats)
        .expect("timing platform selected");
    (c.reported[0], stats)
}

/// One (kernel, stats) pair per configuration.
pub fn run(scale_div: u64) -> Vec<(&'static str, u64, TimingCounters)> {
    let app = App::Sqlite;
    let mut p = app.bench_params();
    p.scale = (p.scale / scale_div).max(32);
    let prog = app.program(p);
    vec![
        ("native", KernelConfig::native()),
        ("decomposed", KernelConfig::decomposed()),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let (cycles, stats) = run_with_stats(cfg, Platform::Rocket, &prog);
        (name, cycles, stats)
    })
    .collect()
}

/// Render the breakdown.
pub fn render(rows: &[(&'static str, u64, TimingCounters)]) -> report::Table {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, cycles, s)| {
            vec![
                name.to_string(),
                cycles.to_string(),
                s.fetch_stall.to_string(),
                s.data_stall.to_string(),
                s.branch_stall.to_string(),
                s.serialize_stall.to_string(),
                s.trap_stall.to_string(),
                s.walk_stall.to_string(),
                s.pcu_stall.to_string(),
                s.gate_cycles.to_string(),
            ]
        })
        .collect();
    report::Table::with_rows(
        "Cycle breakdown: sqlite workload, rocket model (stall cycles by cause)",
        &[
            "kernel",
            "measured",
            "fetch",
            "data",
            "branch",
            "serialize",
            "trap",
            "tlb-walk",
            "pcu-miss",
            "gates",
        ],
        &body,
    )
}

/// Per-operation cost of a mediated page-mapping update under each
/// kernel — how much the §6.2 monitor (and its log) costs per `mapctl`.
pub fn monitor_micro(iters: u64) -> Vec<(&'static str, f64)> {
    use isa_sim::mmu::pte;
    let the_pte = (simkernel::layout::SCRATCH_PAGES >> 12 << 10)
        | pte::V
        | pte::R
        | pte::W
        | pte::U
        | pte::A
        | pte::D;
    let mut a = usr::program();
    // Warmup.
    a.li(isa_asm::Reg::A0, 0);
    a.li(isa_asm::Reg::A1, the_pte);
    usr::syscall(&mut a, sys::MAPCTL);
    usr::measure_start(&mut a);
    usr::repeat(&mut a, iters, "m", |a| {
        a.li(isa_asm::Reg::A0, 0);
        a.li(isa_asm::Reg::A1, the_pte);
        usr::syscall(a, sys::MAPCTL);
    });
    usr::measure_end_report(&mut a);
    usr::exit_code(&mut a, 0);
    let prog = a.assemble().expect("assembles");

    vec![
        ("native (direct PTE write)", KernelConfig::native()),
        (
            "decomposed (MM domain, hccalls/hcrets)",
            KernelConfig::decomposed(),
        ),
        ("nested monitor (WP toggle)", KernelConfig::nested(false)),
        ("nested monitor + log", KernelConfig::nested(true)),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let sim = SimBuilder::new(cfg)
            .platform(Platform::O3)
            .pcu(PcuConfig::eight_e())
            .boot(&prog, None);
        let c = Session::new(sim).drain(400_000_000).unwrap();
        assert_eq!(c.exit_code, 0, "{name}");
        (name, c.reported[0] as f64 / iters as f64)
    })
    .collect()
}

/// Render the monitor micro-costs.
pub fn render_monitor(rows: &[(&'static str, f64)]) -> report::Table {
    let base = rows[0].1;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, c)| {
            vec![
                name.to_string(),
                report::cyc(*c),
                format!("{:+.1}", c - base),
            ]
        })
        .collect();
    report::Table::with_rows(
        "Monitor mediation micro-cost: cycles per mapctl (x86-like O3)",
        &["path", "cycles/op", "vs native"],
        &body,
    )
}
