//! The `lmbench` and `apps` workloads: the Figure 5 and Figure 6 guest
//! programs, each run under the native and the decomposed kernel.
//!
//! One pass assembles every program (`LmBench::program` /
//! `App::program`), boots it twice (`SimBuilder::boot`) and drains
//! each session (`Session::drain`). An operation is one guest session;
//! it fails if it hangs, exits non-zero, or reports other modeled
//! cycles than the recorded figure row.

use isa_asm::Program;
use isa_grid::PcuConfig;
use isa_obs::Counters;
use simkernel::{KernelConfig, Platform, Session, SimBuilder};
use workloads::{App, LmBench};

use crate::expect;
use crate::rec::{percentile, Recorder};
use crate::PassOut;

/// Same step budget as the figure binaries.
const MAX_STEPS: u64 = 2_000_000_000;
/// Figure 5's measured operations per benchmark.
const LMBENCH_ITERS: u64 = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    LmBench,
    Apps,
}

/// The simulator switches a toggle pass flips.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub jit: bool,
    pub bbcache: bool,
    pub platform: Platform,
}

impl Knobs {
    pub const BASE: Knobs = Knobs {
        jit: true,
        bbcache: true,
        platform: Platform::Rocket,
    };
}

struct Job {
    name: &'static str,
    task2: Option<&'static str>,
    build: Box<dyn Fn() -> Program>,
}

fn jobs(suite: Suite) -> Vec<Job> {
    match suite {
        Suite::LmBench => LmBench::ALL
            .iter()
            .map(|&b| Job {
                name: b.name(),
                task2: b.task2(),
                build: Box::new(move || b.program(LMBENCH_ITERS)),
            })
            .collect(),
        Suite::Apps => App::ALL
            .iter()
            .map(|&a| Job {
                name: a.name(),
                task2: None,
                build: Box::new(move || a.program(a.bench_params())),
            })
            .collect(),
    }
}

/// Run one pass of `suite` under `knobs`.
pub fn pass(suite: Suite, knobs: Knobs, rec: &mut Recorder) -> PassOut {
    let mut out = PassOut::default();
    let mut counters = Counters::default();
    let mut session_cycles = Vec::new();
    let mut log_ratio_sum = 0.0;
    let expected = match suite {
        Suite::LmBench => expect::LMBENCH,
        Suite::Apps => expect::APPS,
    };
    let jobs = jobs(suite);
    for (i, job) in jobs.iter().enumerate() {
        let prog = rec.call("asm.build", || (job.build)());
        let mut row = [0u64; 2];
        for (k, kernel) in [KernelConfig::native(), KernelConfig::decomposed()]
            .into_iter()
            .enumerate()
        {
            out.attempted += 1;
            let sim = rec.call("kernel.boot", || {
                SimBuilder::new(kernel)
                    .platform(knobs.platform)
                    .pcu(PcuConfig::eight_e())
                    .bbcache(knobs.bbcache)
                    .jit(knobs.jit)
                    .boot(&prog, job.task2)
            });
            out.boots += 1;
            let mut session = Session::new(sim);
            let done = rec.call("session.drain", || session.drain(MAX_STEPS));
            let c = match done {
                Ok(c) if c.exit_code == 0 && c.reported.len() == 1 => c,
                Ok(c) => {
                    out.fail(format!(
                        "{}/{kernel:?}: exit {} with {} reports",
                        job.name,
                        c.exit_code,
                        c.reported.len()
                    ));
                    continue;
                }
                Err(e) => {
                    out.fail(format!("{}/{kernel:?}: {e}", job.name));
                    continue;
                }
            };
            row[k] = c.reported[0];
            out.steps += c.steps;
            out.sim_cycles += c.cycles;
            session_cycles.push(c.cycles);
            counters.merge(&c.counters);
        }
        // The figure row is only defined for the paper's platform.
        let recorded = expected
            .get(i)
            .map(|&(name, native, grid)| (name, [native, grid]));
        if matches!(knobs.platform, Platform::Rocket) && recorded != Some((job.name, row)) {
            out.fail(format!(
                "{} row: modeled cycles {row:?}, recorded {recorded:?}",
                job.name
            ));
        }
        if row[0] > 0 && row[1] > 0 {
            log_ratio_sum += (row[1] as f64 / row[0] as f64).ln();
        }
    }
    out.grid_overhead_pct = ((log_ratio_sum / jobs.len() as f64).exp() - 1.0) * 100.0;
    out.p50_vcycles = percentile(&session_cycles, 50.0);
    out.p99_vcycles = percentile(&session_cycles, 99.0);
    out.latency_samples = session_cycles.len() as u64;
    out.counters = counters;
    out.layers = rec.take_totals();
    out.setup_s = out.layer("asm.build") + out.layer("kernel.boot");
    out.step_s = out.layer("session.drain");
    out
}
