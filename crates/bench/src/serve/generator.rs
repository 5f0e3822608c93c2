//! The open-loop request stream: a seed-deterministic xorshift
//! generator, the per-request digest record, the request wire codec,
//! and the host-side replays of the stream the chaos oracle uses as
//! ground truth.

use isa_replay::{Dec, Enc, WireError};

use super::policy::Shedder;
use super::ServeConfig;

/// The app model a request runs inside its tenant's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Hash-mix loop plus a syscall microflow into the service domain.
    Sqlite,
    /// Xorshift loop plus a syscall microflow into the service domain.
    Mbedtls,
    /// Pure shift/mask compute loop, no service call.
    Gzip,
    /// Touches a privileged CSR the tenant is not granted — must be
    /// denied by the PCU, never complete.
    Probe,
}

impl AppKind {
    /// Every kind, in [`AppKind::index`] order.
    pub(super) const ALL: [AppKind; 4] = [
        AppKind::Sqlite,
        AppKind::Mbedtls,
        AppKind::Gzip,
        AppKind::Probe,
    ];

    /// Kind index used in gate numbering and the digest.
    pub(super) fn index(self) -> u64 {
        self as u64
    }

    /// The body label in the guest program.
    pub(super) fn body(self) -> &'static str {
        match self {
            AppKind::Sqlite => "body_sqlite",
            AppKind::Mbedtls => "body_mbedtls",
            AppKind::Gzip => "body_gzip",
            AppKind::Probe => "body_probe",
        }
    }
}

/// xorshift64* — the workload generator's only source of randomness.
pub(super) struct Rng(pub(super) u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Never zero; decorrelate small seeds with one splitmix round.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub(super) struct Request {
    pub(super) idx: u64,
    pub(super) arrival: u64,
    pub(super) tenant: usize,
    pub(super) kind: AppKind,
    pub(super) iters: u64,
}

impl Request {
    /// Trace ID: index + 1 (0 means "no request").
    pub(super) fn trace_id(&self) -> u64 {
        self.idx + 1
    }

    /// The shedder's deterministic service-time estimate (virtual
    /// cycles): an affine model of the app-body loop. Only the
    /// *relative* budget arithmetic matters — the rule is a pure
    /// function of the request stream either way.
    pub(super) fn est_service(&self) -> u64 {
        220 + self.iters * 9
    }

    pub(super) fn encode(&self, e: &mut Enc) {
        e.u64(self.idx);
        e.u64(self.arrival);
        e.u64(self.tenant as u64);
        e.u8(self.kind.index() as u8);
        e.u64(self.iters);
    }

    pub(super) fn decode(d: &mut Dec<'_>) -> Result<Request, WireError> {
        Ok(Request {
            idx: d.u64()?,
            arrival: d.u64()?,
            tenant: d.u64()? as usize,
            kind: *AppKind::ALL
                .get(d.u8()? as usize)
                .ok_or(WireError::Malformed("app kind"))?,
            iters: d.u64()?,
        })
    }
}

pub(super) fn encode_opt(e: &mut Enc, r: Option<Request>) {
    e.bool(r.is_some());
    if let Some(r) = r {
        r.encode(e);
    }
}

pub(super) fn decode_opt(d: &mut Dec<'_>) -> Result<Option<Request>, WireError> {
    Ok(if d.bool()? {
        Some(Request::decode(d)?)
    } else {
        None
    })
}

/// FNV-1a over one completion record; records XOR-combine into the
/// run digest so completion order (which varies with hart count) does
/// not matter.
pub(super) fn record_digest(idx: u64, tenant: u64, kind: u64, status: u64, guest: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in [idx, tenant, kind, status, guest] {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The open-loop generator: arrivals advance a virtual-clock cursor
/// independently of service progress.
pub(super) struct Generator {
    pub(super) rng: Rng,
    cfg: ServeConfig,
    pub(super) next_idx: u64,
    pub(super) clock: u64,
}

impl Generator {
    pub(super) fn new(cfg: &ServeConfig) -> Generator {
        Generator {
            rng: Rng::new(cfg.seed),
            cfg: cfg.clone(),
            next_idx: 0,
            clock: 0,
        }
    }
}

impl Iterator for Generator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.next_idx >= self.cfg.requests {
            return None;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        let gap = 1 + self.rng.next() % (2 * self.cfg.mean_gap.max(1));
        self.clock += gap;
        let tenant = (self.rng.next() % self.cfg.tenants as u64) as usize;
        let mix = self.rng.next() % 3;
        let kind = if self.cfg.probe_every > 0 && (idx + 1).is_multiple_of(self.cfg.probe_every) {
            AppKind::Probe
        } else {
            AppKind::ALL[mix as usize]
        };
        let iters = 16 + self.rng.next() % 48;
        Some(Request {
            idx,
            arrival: self.clock,
            tenant,
            kind,
            iters,
        })
    }
}

/// Replay the admission shedder host-side: the request indices a
/// config's deadline budget drops. Pure in the config — independent
/// of faults, hart count, and machine state — so the chaos oracle can
/// use it as ground truth.
pub fn shed_plan(cfg: &ServeConfig) -> Vec<u64> {
    if cfg.shed_deadline == 0 {
        return Vec::new();
    }
    let mut shedder = Shedder::default();
    Generator::new(cfg)
        .filter(|r| shedder.sheds(r, cfg.shed_deadline))
        .map(|r| r.idx)
        .collect()
}

/// Replay the workload generator host-side: the tenant each request
/// index lands on. Ground truth for the chaos oracle's quarantine-set
/// prediction.
pub fn tenant_plan(cfg: &ServeConfig) -> Vec<u64> {
    Generator::new(cfg).map(|r| r.tenant as u64).collect()
}
