//! Host-side boot: build the kernel, the page tables and the ISA-Grid
//! configuration, and return a ready-to-run machine.
//!
//! The host code in this module plays the role the paper assigns to
//! domain-0 software at system boot (§5.2): it writes the HPT/SGT into
//! trusted memory and registers the kernel's domains and gates before the
//! first instruction runs.

use isa_asm::Program;
use isa_fault::FaultPlan;
use isa_grid::{DomainId, DomainSpec, GateSpec, GridLayout, Pcu, PcuConfig};
use isa_sim::csr::{addr, mstatus};
use isa_sim::mmu::{pte, PageTableBuilder};
use isa_sim::{Kind, Machine, RunError};
use isa_timing::{PipelineModel, TimingConfig};

use crate::config::{KernelConfig, Mode, Role};
use crate::image::{build_kernel, KernelImage};
use crate::layout::{self, fd, params, task};

/// Which timing model drives the cycle counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Platform {
    /// 1 cycle per instruction (fast functional runs).
    #[default]
    Functional,
    /// The in-order Rocket-like platform (paper's RISC-V prototype).
    Rocket,
    /// The out-of-order Gem5-like platform (paper's x86 prototype).
    O3,
}

impl Platform {
    /// The timing configuration, if any.
    pub fn timing(self) -> Option<TimingConfig> {
        match self {
            Platform::Functional => None,
            Platform::Rocket => Some(TimingConfig::rocket()),
            Platform::O3 => Some(TimingConfig::o3()),
        }
    }
}

/// Builder for a booted simulation.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    /// Kernel configuration.
    pub kernel: KernelConfig,
    /// PCU cache configuration.
    pub pcu: PcuConfig,
    /// Timing platform.
    pub platform: Platform,
    /// Raise the supervisor timer interrupt every `n` steps (requires a
    /// kernel built with `preempt`).
    pub timer_every: Option<u64>,
    /// Capacity of the trace-event ring; `None` disables tracing.
    pub trace_events: Option<usize>,
    /// Harts on the shared bus. The booted [`Sim`] is hart 0; extra
    /// harts are minted as workers by [`crate::smp::boot_smp`].
    pub harts: usize,
    /// Enable the predecoded basic-block cache (default true). Turned
    /// off by the bench binaries' `--no-bbcache` escape hatch and by
    /// differential tests that want the uncached reference interpreter.
    pub bbcache: bool,
    /// Enable the superblock JIT over the bbcache (default true; inert
    /// when `bbcache` is off). Turned off by the bench binaries'
    /// `--no-jit` escape hatch and by differential tests that want the
    /// per-instruction dispatch loop.
    pub jit: bool,
    /// Attach a cycle-attribution profiler to the machine (default
    /// false). Profiling observes committed steps only and never adds
    /// modeled cycles.
    pub profile: bool,
    /// Seed for the deterministic chaos harness; `None` (the default)
    /// injects nothing. Each hart derives an independent sub-stream
    /// from this one seed.
    pub fault_seed: Option<u64>,
    /// Fault rate in faults per million committed instructions
    /// (ignored unless a seed is set).
    pub fault_rate_ppm: u64,
}

/// Commit horizon for generated fault plans: injections are scheduled
/// over the first this-many commits of each hart (bench budgets sit
/// well under it; a longer run simply sees no further injections).
pub const FAULT_HORIZON: u64 = 10_000_000;

impl SimBuilder {
    /// A builder for the given kernel configuration (8-entry PCU caches,
    /// functional timing).
    pub fn new(kernel: KernelConfig) -> SimBuilder {
        SimBuilder {
            kernel,
            pcu: PcuConfig::eight_e(),
            platform: Platform::Functional,
            timer_every: None,
            trace_events: None,
            harts: 1,
            bbcache: true,
            jit: true,
            profile: false,
            fault_seed: None,
            fault_rate_ppm: 0,
        }
    }

    /// Put `n` harts on the shared bus (default 1).
    pub fn harts(mut self, n: usize) -> SimBuilder {
        self.harts = n;
        self
    }

    /// Enable or disable the predecoded basic-block cache.
    pub fn bbcache(mut self, on: bool) -> SimBuilder {
        self.bbcache = on;
        self
    }

    /// Enable or disable the superblock JIT (inert without the bbcache).
    pub fn jit(mut self, on: bool) -> SimBuilder {
        self.jit = on;
        self
    }

    /// Select the timing platform.
    pub fn platform(mut self, p: Platform) -> SimBuilder {
        self.platform = p;
        self
    }

    /// Select the PCU cache configuration.
    pub fn pcu(mut self, c: PcuConfig) -> SimBuilder {
        self.pcu = c;
        self
    }

    /// Fire the timer every `n` executed instructions.
    pub fn timer_every(mut self, n: u64) -> SimBuilder {
        self.timer_every = Some(n);
        self
    }

    /// Record structured trace events into a bounded ring of `cap`
    /// entries. The machine and the PCU share one spine, so retire,
    /// check, cache and gate events interleave in commit order.
    pub fn trace_events(mut self, cap: usize) -> SimBuilder {
        self.trace_events = Some(cap);
        self
    }

    /// Enable or disable the per-step profiler (cycle attribution by
    /// domain and privilege level, latency histograms, span timeline).
    pub fn profile(mut self, on: bool) -> SimBuilder {
        self.profile = on;
        self
    }

    /// Attach the deterministic chaos harness: inject faults from this
    /// seed at the configured [`SimBuilder::fault_rate`].
    pub fn fault_seed(mut self, seed: u64) -> SimBuilder {
        self.fault_seed = Some(seed);
        self
    }

    /// Fault rate in faults per million committed instructions.
    pub fn fault_rate(mut self, ppm: u64) -> SimBuilder {
        self.fault_rate_ppm = ppm;
        self
    }

    /// Enable or disable the PCU's fail-closed integrity layer
    /// (default on). Off demonstrates the unprotected stale-allow
    /// window the layer closes.
    pub fn integrity(mut self, on: bool) -> SimBuilder {
        self.pcu.integrity = on;
        self
    }

    /// Boot a machine running `user` as task 0; `entry2` names the label
    /// (in `user`) where a second task starts, if any.
    ///
    /// # Panics
    ///
    /// Panics on malformed user programs (must load inside the user
    /// region).
    pub fn boot(&self, user: &Program, entry2: Option<&str>) -> Sim {
        let img = build_kernel(&self.kernel);
        let bus = isa_sim::Bus::with_harts(
            isa_sim::DEFAULT_RAM_BASE,
            isa_sim::DEFAULT_RAM_SIZE,
            self.harts,
        );
        let mut m = Machine::on_bus(Pcu::new(self.pcu), bus);
        m.set_bbcache(self.bbcache);
        m.set_jit(self.jit);
        m.timer_every = self.timer_every;
        let mut spine = isa_obs::Spine::new();
        if let Some(cap) = self.trace_events {
            spine = spine.with_ring(cap);
        }
        if self.profile {
            spine = spine.with_profile(0);
        }
        m.set_obs(isa_obs::Obs::new(spine));
        if let Some(t) = self.platform.timing() {
            m = m.with_timing(Box::new(PipelineModel::new(t)));
        }
        m.load_program(&img.prog);
        assert!(
            img.prog.end() <= layout::KSTACK_TOP,
            "kernel image overflows its region"
        );
        assert!(
            user.base >= layout::USER_BASE && user.end() <= layout::USER_BASE + 0x80_0000,
            "user program must live in the user region"
        );
        m.bus.write_bytes(user.base, &user.bytes);

        // ---- page tables (identity-mapped; three address spaces) ----
        let satps = build_page_tables(&mut m);

        // ---- boot parameters ----
        let p = layout::BOOT_PARAMS;
        let entry0 = user.symbols.get("main").copied().unwrap_or(user.base);
        let entry1 = entry2.map(|l| user.symbol(l)).unwrap_or(0);
        let usp0 = layout::USER_HEAP + layout::USER_HEAP_SIZE - 0x100;
        let usp1 = layout::USER_HEAP + layout::USER_HEAP_SIZE - 0x1_0000;
        m.bus.write_u64(p + params::SATP_KERNEL, satps.kernel);
        m.bus.write_u64(p + params::SATP_USER0, satps.user0);
        m.bus.write_u64(p + params::SATP_USER1, satps.user1);
        m.bus.write_u64(p + params::ENTRY0, entry0);
        m.bus.write_u64(p + params::ENTRY1, entry1);
        m.bus
            .write_u64(p + params::SCRATCH_LEAF, satps.scratch_leaf);
        m.bus.write_u64(p + params::USP0, usp0);
        m.bus.write_u64(p + params::USP1, usp1);

        // ---- task control blocks ----
        m.bus.write_u64(layout::TASK0 + task::TID, 0);
        m.bus.write_u64(layout::TASK0 + task::SATP, satps.user0);
        m.bus.write_u64(layout::TASK1 + task::TID, 1);
        m.bus.write_u64(layout::TASK1 + task::SATP, satps.user1);
        m.bus.write_u64(layout::TASK1 + task::SEPC, entry1);
        m.bus.write_u64(layout::TASK1 + task::reg(2) as u64, usp1);

        // ---- file descriptors 0..2: console ----
        for i in 0..3 {
            let e = layout::FDTABLE + i * fd::STRIDE;
            m.bus.write_u64(e + fd::KIND, fd::KIND_CONSOLE);
        }

        // ---- platform identification CSRs the services read ----
        m.cpu.csrs.write_raw(addr::CPUINFO0, 0x5256_3634_2d49_5341); // "RV64-ISA"
        m.cpu.csrs.write_raw(addr::CPUINFO1, 0x4752_4944_0001_0008);
        for (i, c) in [addr::MTRR0, addr::MTRR1, addr::MTRR2, addr::MTRR3]
            .into_iter()
            .enumerate()
        {
            m.cpu
                .csrs
                .write_raw(c, 0x0600_0000_0000_0000 | (i as u64) << 32);
        }

        // ---- ISA-Grid configuration (domain-0 boot-time registration) ----
        let layout_grid = GridLayout::new(layout::TMEM_BASE, layout::TMEM_SIZE);
        m.ext.install(&mut m.bus, layout_grid);
        if self.kernel.mode.uses_grid() {
            let roles = register_domains(&mut m, &self.kernel);
            m.ext.set_trusted_stack(
                layout_grid.tstack_base(),
                layout_grid.tstack_base() + 0x1_0000,
            );
            for (id, slot) in img.gates.iter().enumerate() {
                let spec = match slot {
                    Some(g) => GateSpec {
                        gate_addr: img.prog.symbol(&g.site),
                        dest_addr: img.prog.symbol(&g.dest),
                        dest_domain: roles.of(g.role),
                    },
                    // Reserved id: keep numbering stable with an entry
                    // that can never match a real gate address.
                    None => GateSpec {
                        gate_addr: 0,
                        dest_addr: 0,
                        dest_domain: roles.kernel,
                    },
                };
                let got = m.ext.add_gate(&mut m.bus, spec);
                assert_eq!(got.0, id as u64, "gate id drift");
            }
        }

        // ---- nested-kernel write protection over the page tables ----
        if matches!(self.kernel.mode, Mode::Nested { .. }) {
            m.cpu.csrs.write_raw(addr::WPBASE, layout::PT_POOL);
            m.cpu
                .csrs
                .write_raw(addr::WPLIMIT, layout::PT_POOL + layout::PT_POOL_SIZE);
            m.cpu.csrs.write_raw(addr::WPCTL, 1);
        }

        if let Some(seed) = self.fault_seed {
            m.ext.attach_faults(FaultPlan::for_hart(
                seed,
                self.fault_rate_ppm,
                FAULT_HORIZON,
                0,
            ));
        }

        Sim {
            machine: m,
            kernel: img,
            fault_seed: self.fault_seed,
            fault_rate_ppm: self.fault_rate_ppm,
        }
    }
}

struct Satps {
    kernel: u64,
    user0: u64,
    user1: u64,
    scratch_leaf: u64,
}

fn build_page_tables(m: &mut Machine<Pcu>) -> Satps {
    let pool = layout::PT_POOL_SIZE / 4;
    let mut tables = Vec::new();
    let mut scratch_leaf = 0;
    for t in 0..3u64 {
        let mut ptb = PageTableBuilder::new(&mut m.bus, layout::PT_POOL + t * pool, pool);
        // Kernel image, stacks, TCBs, fd/pipe/file data, boot params.
        ptb.map_range(
            &mut m.bus,
            layout::KERNEL_BASE,
            layout::KERNEL_BASE,
            layout::SCRATCH_PAGES - layout::KERNEL_BASE,
            pte::R | pte::W | pte::X,
        );
        // Scratch pages: user-visible data whose mappings mapctl edits.
        ptb.map_range(
            &mut m.bus,
            layout::SCRATCH_PAGES,
            layout::SCRATCH_PAGES,
            layout::SCRATCH_COUNT * 4096,
            pte::R | pte::W | pte::U,
        );
        // Boot params page (kernel-only).
        ptb.map_range(
            &mut m.bus,
            layout::BOOT_PARAMS,
            layout::BOOT_PARAMS,
            4096,
            pte::R | pte::W,
        );
        // MMIO: console + halt/value-log, reachable from U for the
        // benchmark harness.
        ptb.map_range(
            &mut m.bus,
            0x1000_0000,
            0x1000_0000,
            0x2000,
            pte::R | pte::W | pte::U,
        );
        // User image and heap.
        ptb.map_range(
            &mut m.bus,
            layout::USER_BASE,
            layout::USER_BASE,
            0x80_0000,
            pte::R | pte::W | pte::X | pte::U,
        );
        ptb.map_range(
            &mut m.bus,
            layout::USER_HEAP,
            layout::USER_HEAP,
            layout::USER_HEAP_SIZE,
            pte::R | pte::W | pte::U,
        );
        // The page-table pool itself (kernel/monitor writes PTEs).
        ptb.map_range(
            &mut m.bus,
            layout::PT_POOL,
            layout::PT_POOL,
            layout::PT_POOL_SIZE,
            pte::R | pte::W,
        );
        if t == 1 {
            scratch_leaf = ptb
                .leaf_pte_addr(&m.bus, layout::SCRATCH_PAGES)
                .expect("scratch pages mapped");
        }
        tables.push(ptb.satp());
    }
    Satps {
        kernel: tables[0],
        user0: tables[1],
        user1: tables[2],
        scratch_leaf,
    }
}

struct RoleMap {
    kernel: DomainId,
    mm: DomainId,
    srv: [DomainId; 4],
    monitor: DomainId,
    user: DomainId,
}

impl RoleMap {
    fn of(&self, r: Role) -> DomainId {
        match r {
            Role::Kernel => self.kernel,
            Role::Mm => self.mm,
            Role::Srv(i) => self.srv[i],
            Role::Monitor => self.monitor,
            Role::User => self.user,
        }
    }
}

/// Build the §6.1 domain split and register it with the PCU.
fn register_domains(m: &mut Machine<Pcu>, cfg: &KernelConfig) -> RoleMap {
    let csr_classes = [
        Kind::Csrrw,
        Kind::Csrrs,
        Kind::Csrrc,
        Kind::Csrrwi,
        Kind::Csrrsi,
        Kind::Csrrci,
    ];

    // The basic kernel domain: computing instructions, CSR instruction
    // classes, trap return — but register rights only for what the
    // syscall path needs. stvec and satp are frozen/withheld (§6.1).
    let mut kern = DomainSpec::compute_only();
    kern.allow_insts(csr_classes);
    kern.allow_inst(Kind::Sret);
    for c in [
        addr::SEPC,
        addr::SCAUSE,
        addr::STVAL,
        addr::SSCRATCH,
        addr::SATP,
        addr::SSTATUS,
        addr::SIP,
        addr::TIME,
        addr::INSTRET,
    ] {
        kern.allow_csr_read(c);
    }
    // Acknowledging a timer interrupt clears the pending bit.
    kern.allow_csr_write(addr::SIP);
    if !cfg.deny_cycle {
        kern.allow_csr_read(addr::CYCLE);
    }
    kern.allow_csr_write(addr::SEPC);
    kern.allow_csr_write(addr::SSCRATCH);
    kern.allow_csr_write_masked(addr::SSTATUS, mstatus::SPP | mstatus::SPIE | mstatus::SIE);

    // Memory management: the only domain that may point satp anywhere
    // and run TLB maintenance.
    let mut mm = DomainSpec::compute_only();
    mm.allow_insts(csr_classes);
    mm.allow_inst(Kind::SfenceVma);
    mm.allow_csr_rw(addr::SATP);

    // Ioctl services: each sees exactly its own registers (Table 5).
    let mut srv_specs = Vec::new();
    for i in 0..4usize {
        let mut s = DomainSpec::compute_only();
        s.allow_insts(csr_classes);
        match i {
            0 => {
                s.allow_csr_read(addr::CPUINFO0);
                s.allow_csr_read(addr::CPUINFO1);
            }
            1 => {
                for c in [addr::MTRR0, addr::MTRR1, addr::MTRR2, addr::MTRR3] {
                    s.allow_csr_read(c);
                }
            }
            2 => {
                s.allow_csr_read(addr::HPMCOUNTER3);
            }
            _ => {
                s.allow_csr_read(addr::HPMCOUNTER4);
            }
        }
        srv_specs.push(s);
    }

    // Nested monitor: MM rights plus the CR0.WP analogue, bit 0 only
    // (read-modify-write instructions need the read right too).
    let mut mon = mm.clone();
    mon.allow_csr_read(addr::WPCTL);
    mon.allow_csr_write_masked(addr::WPCTL, 1);

    // User domain (§8 extension): compute + the trap-entry touchpoints.
    // The entry path up to the U2K gate swaps sscratch and reads sepc;
    // the exit path after K2U only restores registers and srets (sret
    // from U-mode is blocked architecturally).
    let mut user = DomainSpec::compute_only();
    user.allow_insts(csr_classes);
    user.allow_inst(Kind::Sret);
    user.allow_csr_rw(addr::SSCRATCH);
    user.allow_csr_read(addr::SEPC);
    user.allow_csr_read(addr::TIME);
    user.allow_csr_read(addr::INSTRET);
    if !cfg.deny_user_cycle {
        user.allow_csr_read(addr::CYCLE);
    }

    let kernel = m.ext.add_domain(&mut m.bus, &kern);
    let mm = m.ext.add_domain(&mut m.bus, &mm);
    let srv = [
        m.ext.add_domain(&mut m.bus, &srv_specs[0]),
        m.ext.add_domain(&mut m.bus, &srv_specs[1]),
        m.ext.add_domain(&mut m.bus, &srv_specs[2]),
        m.ext.add_domain(&mut m.bus, &srv_specs[3]),
    ];
    let monitor = m.ext.add_domain(&mut m.bus, &mon);
    let user = m.ext.add_domain(&mut m.bus, &user);
    RoleMap {
        kernel,
        mm,
        srv,
        monitor,
        user,
    }
}

/// A booted simulation: the machine plus the kernel image metadata.
pub struct Sim {
    /// The machine, ready to run from reset.
    pub machine: Machine<Pcu>,
    /// The kernel image (symbols, gates, config).
    pub kernel: KernelImage,
    /// Chaos-harness seed the builder used (workers minted from this
    /// sim derive their per-hart plans from it).
    pub fault_seed: Option<u64>,
    /// Chaos-harness rate the builder used.
    pub fault_rate_ppm: u64,
}

impl Sim {
    /// Run until the guest halts; returns the exit code, or a
    /// structured [`RunError::Watchdog`] when the step budget is
    /// exhausted first — a hung guest is an error value, never a host
    /// panic.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, RunError> {
        self.machine.run_to_halt(max_steps)
    }

    /// Modeled cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.machine.cpu.csrs.read_raw(addr::CYCLE)
    }

    /// Values the guest reported through the VALUE_LOG MMIO register
    /// (a snapshot: on a multi-hart bus all harts append to one log).
    pub fn values(&self) -> Vec<u64> {
        self.machine.bus.value_log()
    }

    /// Console output so far.
    pub fn console(&self) -> String {
        self.machine.bus.console_string()
    }

    /// Snapshot the unified counter registry: PCU cache/check/gate
    /// tallies, timing-model cycle attribution, and run bookkeeping —
    /// one [`isa_obs::Counters`] value for reports and assertions.
    pub fn counters(&self) -> isa_obs::Counters {
        let mut c = isa_smp::hart_counters(&self.machine);
        if let Some(pm) = self
            .machine
            .timing
            .as_any()
            .and_then(|a| a.downcast_ref::<PipelineModel>())
        {
            c.timing = pm.stats;
        } else {
            // Functional platform: the cycle CSR is the only timing.
            c.timing.cycles = self.cycles();
        }
        c.run.traps = self.machine.trap_counts.values().sum();
        c
    }

    /// The trace events recorded so far (empty unless the builder
    /// enabled [`SimBuilder::trace_events`]).
    pub fn trace_events(&self) -> Vec<isa_obs::TimedEvent> {
        self.machine.obs.events()
    }

    /// Drain the machine's profile, closing any open span. `None`
    /// unless the builder enabled [`SimBuilder::profile`].
    pub fn take_profile(&mut self) -> Option<isa_obs::Profile> {
        self.machine.obs.take_profile()
    }

    /// The PCU's audit log of denied checks.
    pub fn audit_log(&self) -> &isa_obs::AuditLog {
        self.machine.ext.audit()
    }

    /// Drain the PCU's audit log.
    pub fn take_audit(&mut self) -> Vec<isa_obs::AuditRecord> {
        self.machine.ext.take_audit()
    }
}
