//! The guest side of the serving harness: the machine layout, the
//! guest image (dispatcher, app bodies, service domain, trap handler),
//! the multi-tenant machine recipe, boot, and the chaos injections the
//! request-fault plan fires at dispatch.

use isa_asm::{Asm, Program, Reg::*};
use isa_fault::{FaultEvent, FaultPlan};
use isa_grid::{
    DomainId, DomainSpec, GateSpec, GridLayout, Pcu, PcuConfig, SHOOTDOWN_DEADLINE_POLLS,
};
use isa_obs::{Obs, Spine};
use isa_sim::csr::addr;
use isa_sim::{Bus, Kind, Machine, DEFAULT_RAM_BASE as RAM, DEFAULT_RAM_SIZE};
use isa_smp::Smp;
use simkernel::SmpSession;

use super::generator::AppKind;
use super::{ServeConfig, ServeState};

/// Trusted-memory base (same region every bare-metal bench uses).
const TMEM: u64 = 0x8380_0000;
/// Trusted-memory size: tables for 64 domains / 256 gates plus
/// per-hart trusted stacks.
const TMEM_SIZE: u64 = 1 << 21;
/// Per-hart trusted-stack stride inside trusted memory.
const TSTACK_STRIDE: u64 = 0x8000;
/// Per-hart request mailboxes (host <-> dispatcher), one page each.
const MAILBOX_BASE: u64 = RAM + 0x0200_0000;
/// Mailbox stride (one page per hart).
const MB_STRIDE: u64 = 0x1000;
/// The value the host plants in `cpuinfo0` — what the service domain's
/// syscall microflow reads and folds into the digest. Identical on
/// every hart so digests stay hart-count independent.
const CPUINFO_VALUE: u64 = 0x5345_5256_4530_3031; // "SERVE001"

/// Iteration count planted by a `Wedge` fault — never finishes inside
/// any watchdog budget.
pub(super) const WEDGE_ITERS: u64 = 1 << 40;

// Mailbox word offsets.
pub(super) const MB_DOORBELL: i32 = 0x00; // 0 idle | 1 request | 2 done | 3 denied
pub(super) const MB_GATE: i32 = 0x08;
pub(super) const MB_ITERS: i32 = 0x10;
pub(super) const MB_DIGEST: i32 = 0x18;
pub(super) const MB_CYCLES: i32 = 0x20;
pub(super) const MB_MCAUSE: i32 = 0x28;
const MB_READY: i32 = 0x30;

/// Fixed gate ids (the per-tenant entry gates follow them).
const GATE_BOOT: u64 = 0;
const GATE_RET: u64 = 1;
const GATE_SVC_SQLITE: u64 = 2;
const GATE_SVC_MBEDTLS: u64 = 3;
/// First per-tenant entry gate; tenant `t`, kind `k` is
/// `GATE_ENTRY0 + t * KINDS + k`.
const GATE_ENTRY0: u64 = 4;
/// App kinds with entry gates per tenant (sqlite, mbedtls, gzip,
/// probe).
const KINDS: u64 = AppKind::ALL.len() as u64;

/// Entry-gate id for (tenant, kind).
pub(super) fn entry_gate(tenant: usize, kind: AppKind) -> u64 {
    GATE_ENTRY0 + tenant as u64 * KINDS + kind.index()
}

/// Address of word `word` of hart `h`'s mailbox.
pub(super) fn mb(h: usize, word: i32) -> u64 {
    MAILBOX_BASE + h as u64 * MB_STRIDE + word as u64
}

/// The guest image: per-hart M-mode prologue, the S-mode dispatcher in
/// the runtime domain, the three app bodies plus the probe (tenant
/// domains), the service-domain syscall handler, and the M-mode trap
/// handler that converts PCU denials into mailbox rejections.
///
/// The program is tenant-independent — the entry-gate id arrives via
/// the mailbox, and all tenants share the body code; only the SGT
/// entries (one per tenant × kind, all anchored at `entry_site`)
/// differ.
pub fn guest_program() -> Program {
    let mut a = Asm::new(RAM);

    // --- M-mode prologue (every hart) -------------------------------
    a.la(T0, "mtrap");
    a.csrw(addr::MTVEC as u32, T0);
    // S1 = this hart's mailbox, kept live across the whole run.
    a.csrr(T0, addr::MHARTID as u32);
    a.slli(T1, T0, 12);
    a.li(S1, MAILBOX_BASE);
    a.add(S1, S1, T1);
    // Drop to S-mode at `boot`.
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "boot");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();

    // --- S-mode, domain 0: leave through the boot gate --------------
    a.label("boot");
    a.li(T4, GATE_BOOT);
    a.label("boot_site");
    a.hccall(T4);

    // --- Runtime domain: the dispatcher -----------------------------
    a.label("init");
    a.li(S4, 0); // completions since last pflh
    a.li(T0, 1);
    a.sd(T0, S1, MB_READY);
    a.label("spin");
    a.ld(T0, S1, MB_DOORBELL);
    a.li(T1, 1);
    a.bne(T0, T1, "spin");
    a.ld(T4, S1, MB_GATE);
    a.ld(A0, S1, MB_ITERS);
    a.li(A3, 0);
    a.rdcycle(S2);
    a.label("entry_site"); // every per-tenant entry gate anchors here
    a.hccall(T4);
    a.label("ret_site"); // bodies land here with T4 = GATE_RET
    a.hccall(T4);
    a.label("after_ret"); // back in the runtime domain
    a.rdcycle(S3);
    a.sub(T1, S3, S2);
    a.sd(T1, S1, MB_CYCLES);
    a.sd(A3, S1, MB_DIGEST);
    a.li(T0, 2);
    a.sd(T0, S1, MB_DOORBELL);
    // pflh cadence (parameter word patched by the host; 0 = never).
    a.la(T0, "flush_every");
    a.ld(T0, T0, 0);
    a.beqz(T0, "spin");
    a.addi(S4, S4, 1);
    a.bne(S4, T0, "spin");
    a.li(S4, 0);
    a.pflh(Zero);
    a.j("spin");

    // --- Tenant-domain app bodies -----------------------------------
    a.label("body_sqlite");
    a.label("sq_loop");
    a.slli(T1, A3, 7);
    a.xor(A3, A3, T1);
    a.add(A3, A3, A0);
    a.srli(T1, A3, 11);
    a.xor(A3, A3, T1);
    a.addi(A0, A0, -1);
    a.bnez(A0, "sq_loop");
    a.li(T4, GATE_SVC_SQLITE);
    a.label("svc_sqlite_site");
    a.hccalls(T4); // syscall microflow: service domain, trusted stack
    a.li(T4, GATE_RET);
    a.j("ret_site");

    a.label("body_mbedtls");
    a.label("mb_loop");
    a.slli(T1, A3, 13);
    a.xor(A3, A3, T1);
    a.srli(T1, A3, 7);
    a.xor(A3, A3, T1);
    a.add(A3, A3, A0);
    a.addi(A0, A0, -1);
    a.bnez(A0, "mb_loop");
    a.li(T4, GATE_SVC_MBEDTLS);
    a.label("svc_mbedtls_site");
    a.hccalls(T4);
    a.li(T4, GATE_RET);
    a.j("ret_site");

    a.label("body_gzip");
    a.label("gz_loop");
    a.add(A3, A3, A0);
    a.slli(T1, A3, 3);
    a.add(A3, A3, T1);
    a.andi(T1, A3, 0xFF);
    a.xor(A3, A3, T1);
    a.addi(A0, A0, -1);
    a.bnez(A0, "gz_loop");
    a.li(T4, GATE_RET);
    a.j("ret_site");

    // The isolation probe: `satp` is not granted to any tenant, so
    // the csrr must be denied — control never reaches the return
    // gate, the M-mode handler rejects the request instead.
    a.label("body_probe");
    a.csrr(T2, addr::SATP as u32);
    a.li(T4, GATE_RET);
    a.j("ret_site");

    // --- Service domain: the syscall target -------------------------
    a.label("svc_entry");
    a.csrr(T2, addr::CPUINFO0 as u32);
    a.add(A3, A3, T2);
    a.hcrets();

    // --- M-mode trap handler: PCU denial → mailbox rejection --------
    a.label("mtrap");
    a.csrr(T0, addr::MHARTID as u32);
    a.slli(T1, T0, 12);
    a.li(S1, MAILBOX_BASE);
    a.add(S1, S1, T1);
    a.csrr(T0, addr::MCAUSE as u32);
    a.sd(T0, S1, MB_MCAUSE);
    a.li(T0, 3);
    a.sd(T0, S1, MB_DOORBELL);
    // Resume in S-mode at the *boot gate*, not the spin loop: the PCU
    // domain is still the offending tenant's, and under quarantine
    // that domain is deny-all — the dispatcher's loads would fault
    // forever. Gate instructions are executable from every domain
    // (validated against the SGT, not the domain bitmap), so the boot
    // gate is the one guaranteed exit back into the runtime domain.
    a.li(T4, GATE_BOOT);
    a.li(T1, 0b11 << 11);
    a.csrrc(Zero, addr::MSTATUS as u32, T1);
    a.li(T1, 0b01 << 11);
    a.csrrs(Zero, addr::MSTATUS as u32, T1);
    a.la(T0, "boot_site");
    a.csrw(addr::MEPC as u32, T0);
    a.mret();

    a.align(8);
    a.label("flush_every");
    a.d64(0);

    a.assemble().expect("serve guest assembles")
}

/// What every domain needs: the compute groups plus the CSR-class
/// instructions (`rdcycle` is a csrrs) and the cycle counter itself.
pub(super) fn base_spec() -> DomainSpec {
    let mut d = DomainSpec::compute_only();
    d.allow_insts([Kind::Csrrw, Kind::Csrrs, Kind::Csrrc]);
    d.allow_csr_read(addr::CYCLE);
    d
}

/// The service domain additionally reads `cpuinfo0`.
fn service_spec() -> DomainSpec {
    let mut d = base_spec();
    d.allow_csr_read(addr::CPUINFO0);
    d
}

/// Assemble the multi-tenant machine: shared bus, hart 0's PCU owns
/// the tables (install + domains + gates), harts 1.. get mirrors;
/// every hart gets its own trusted-stack window and `cpuinfo0`.
/// Returns the [`Smp`] and the per-tenant domain ids.
pub(super) fn build_smp(cfg: &ServeConfig, prog: &Program) -> (Smp, Vec<DomainId>) {
    let bus = Bus::with_harts(RAM, DEFAULT_RAM_SIZE, cfg.harts);
    bus.write_bytes(prog.base, &prog.bytes);
    bus.write_u64(prog.symbol("flush_every"), cfg.flush_every);

    let pcfg = if cfg.shootdown_deadline > 0 {
        PcuConfig::builder()
            .eight_e()
            .shootdown_deadline_polls(cfg.shootdown_deadline as u32)
            .build()
    } else {
        PcuConfig::eight_e()
    };
    let mut m0 = Machine::on_bus(Pcu::new(pcfg), bus.for_hart(0));
    m0.cpu.pc = prog.base;
    let layout = GridLayout::new(TMEM, TMEM_SIZE).with_capacity(64, 256);
    m0.ext.install(&mut m0.bus, layout);
    let tsb = m0.ext.layout().tstack_base();

    let runtime = m0.ext.add_domain(&mut m0.bus, &base_spec());
    let service = m0.ext.add_domain(&mut m0.bus, &service_spec());
    let tenant_doms: Vec<DomainId> = (0..cfg.tenants)
        .map(|_| m0.ext.add_domain(&mut m0.bus, &base_spec()))
        .collect();

    let fixed = [
        ("boot_site", "init", runtime, GATE_BOOT),
        ("ret_site", "after_ret", runtime, GATE_RET),
        ("svc_sqlite_site", "svc_entry", service, GATE_SVC_SQLITE),
        ("svc_mbedtls_site", "svc_entry", service, GATE_SVC_MBEDTLS),
    ];
    for (site, dest, dom, want) in fixed {
        let id = m0.ext.add_gate(
            &mut m0.bus,
            GateSpec {
                gate_addr: prog.symbol(site),
                dest_addr: prog.symbol(dest),
                dest_domain: dom,
            },
        );
        assert_eq!(id.0, want, "fixed gate numbering drifted");
    }
    let entry = prog.symbol("entry_site");
    for (t, dom) in tenant_doms.iter().enumerate() {
        for kind in AppKind::ALL {
            let id = m0.ext.add_gate(
                &mut m0.bus,
                GateSpec {
                    gate_addr: entry,
                    dest_addr: prog.symbol(kind.body()),
                    dest_domain: *dom,
                },
            );
            assert_eq!(id.0, entry_gate(t, kind), "entry-gate numbering drifted");
        }
    }

    // Per-hart set-up: own trusted-stack window, `cpuinfo0`, engines.
    let setup = |m: &mut Machine<Pcu>, h: usize| {
        let base = tsb + h as u64 * TSTACK_STRIDE;
        m.ext.set_trusted_stack(base, base + TSTACK_STRIDE);
        m.cpu.csrs.write_raw(addr::CPUINFO0, CPUINFO_VALUE);
        m.set_bbcache(true);
        m.set_jit(cfg.jit);
        if cfg.profile {
            m.set_obs(Obs::new(Spine::new().with_profile(h)));
        }
    };
    setup(&mut m0, 0);
    let mut machines = Vec::with_capacity(cfg.harts);
    machines.push(m0);
    for h in 1..cfg.harts {
        let mut m = Machine::on_bus(machines[0].ext.mirror(), bus.for_hart(h));
        m.cpu.pc = prog.base;
        setup(&mut m, h);
        machines.push(m);
    }
    (Smp::from_machines(machines), tenant_doms)
}

/// Boot every hart to its dispatcher (ready flag raised), then attach
/// the machine-level fault plans, rebased onto each hart's post-boot
/// commit count so the boot path stays clean.
pub(super) fn boot(sess: &mut SmpSession, cfg: &ServeConfig) {
    let bus = sess.smp().bus().clone();
    let mut boot_rounds = 0u64;
    while (0..cfg.harts).any(|h| bus.read_u64(mb(h, MB_READY)) == 0) {
        sess.round_all();
        boot_rounds += 1;
        assert!(boot_rounds < 100_000, "serve: harts failed to boot");
    }
    if cfg.machine_fault_ppm == 0 {
        return;
    }
    let horizon = 1_000_000 + cfg.requests.saturating_mul(20_000).min(40_000_000);
    for h in 0..cfg.harts {
        let m = sess.smp_mut().machine_mut(h);
        let boot = m.ext.commits();
        let events: Vec<FaultEvent> =
            FaultPlan::for_hart(cfg.seed, cfg.machine_fault_ppm, horizon, h)
                .events()
                .iter()
                .map(|ev| FaultEvent {
                    at_commit: ev.at_commit + boot,
                    kind: ev.kind,
                })
                .collect();
        m.ext.attach_faults(FaultPlan::from_events(events));
    }
}

impl ServeState {
    /// Chaos: flip a bit of the tenant's instruction-bitmap word the
    /// app bodies' compute class lives in — the broken seal is
    /// observed (and denied fail-closed, cause 28) on the request's
    /// next table walk.
    pub(super) fn inject_flip(&mut self, h: usize, tenant: usize, bit: u32) {
        let word = (Kind::Add.class_index() / 64) as u32;
        let bit = word * 64 + bit % 64;
        let dom = self.tenant_doms[tenant];
        let m = self.sess.smp_mut().machine_mut(h);
        let _ = m.ext.chaos_flip_domain_inst_bit(&mut m.bus, dom, bit);
    }

    /// Chaos: give hart `h` enough shootdown-defer credits to blow the
    /// deadline, then publish a benign table rewrite from another hart
    /// so a pending epoch exists for `h` to sit on. The expiry raises
    /// cause 28 inside the faulted request's body.
    pub(super) fn inject_jam(&mut self, h: usize, tenant: usize) {
        let deadline = if self.cfg.shootdown_deadline > 0 {
            self.cfg.shootdown_deadline as u32
        } else {
            SHOOTDOWN_DEADLINE_POLLS
        };
        let m = self.sess.smp_mut().machine_mut(h);
        m.ext.chaos_defer_shootdowns(deadline + 4);
        let p = (h + 1) % self.cfg.harts;
        let dom = self.tenant_doms[tenant];
        let mp = self.sess.smp_mut().machine_mut(p);
        mp.ext.update_domain(&mut mp.bus, dom, &base_spec());
    }
}

/// Write `DomainSpec::deny_all()` over `dom` from hart 0, publishing
/// the shootdown every hart must honor.
pub(super) fn deny_all(sess: &mut SmpSession, dom: DomainId) {
    let m0 = sess.smp_mut().machine_mut(0);
    m0.ext
        .update_domain(&mut m0.bus, dom, &DomainSpec::deny_all());
}
