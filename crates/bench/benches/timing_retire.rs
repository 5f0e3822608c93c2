//! Criterion: the pipeline model's superblock retire against per-event
//! retire, on the JIT's steady state — one 32-op straight-line block of
//! paged user code (one fetch page, two L1I lines) with 25% loads and a
//! taken loop branch, against warm caches, TLBs and predictor.

use criterion::{criterion_group, criterion_main, Criterion};
use isa_sim::{block_events, ExtEvents, Kind, MemAccess, Priv, Retired, TimingSink};
use isa_timing::{PipelineModel, TimingConfig};

const OPS: u64 = 32;
const PC: u64 = 0x1_0000;

/// The block in [`TimingSink::retire_block`] form: templates, and the
/// dynamic records of the loads and the closing branch.
fn block() -> (Vec<Retired>, Vec<(u8, Retired)>) {
    let templates: Vec<Retired> = (0..OPS)
        .map(|i| {
            let pc = PC + i * 4;
            let kind = match i {
                _ if i == OPS - 1 => Kind::Bne,
                _ if i % 4 == 3 => Kind::Ld,
                _ => Kind::Addi,
            };
            Retired {
                pc,
                fetch_paddr: 0x8010_0000 + pc,
                next_pc: pc + 4,
                kind: Some(kind),
                raw: 0x13,
                priv_level: Priv::U,
                mem: None,
                branch_taken: false,
                trap_cause: None,
                walk_reads: 3,
                ext: ExtEvents::default(),
            }
        })
        .collect();
    let dynamic = templates
        .iter()
        .enumerate()
        .filter(|(i, t)| t.kind == Some(Kind::Ld) || *i as u64 == OPS - 1)
        .map(|(i, t)| {
            let mut r = *t;
            if t.kind == Some(Kind::Ld) {
                let vaddr = 0x4_0000 + i as u64 * 8;
                r.mem = Some(MemAccess {
                    vaddr,
                    paddr: 0x8020_0000 + vaddr,
                    len: 8,
                    write: false,
                });
            } else {
                r.branch_taken = true;
                r.next_pc = PC;
            }
            (i as u8, r)
        })
        .collect();
    (templates, dynamic)
}

fn bench(c: &mut Criterion) {
    let (templates, dynamic) = block();
    let mut g = c.benchmark_group("timing_retire");
    for cfg in [TimingConfig::rocket(), TimingConfig::o3()] {
        let name = if cfg.out_of_order { "o3" } else { "rocket" };
        let warm = || {
            let mut m = PipelineModel::new(cfg);
            for _ in 0..64 {
                m.retire_block(&templates, &dynamic);
            }
            m
        };
        g.bench_function(&format!("{name}/retire_per_event"), |b| {
            let mut m = warm();
            b.iter(|| {
                block_events(&templates, &dynamic)
                    .map(|ev| m.retire(ev))
                    .sum::<u64>()
            })
        });
        g.bench_function(&format!("{name}/retire_block"), |b| {
            let mut m = warm();
            b.iter(|| m.retire_block(&templates, &dynamic))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
