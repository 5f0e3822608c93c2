//! Physical memory bus: RAM plus a few MMIO devices.
//!
//! Since the SMP refactor the [`Bus`] is a cheap-to-clone *handle*: all
//! state (RAM, MMIO devices, LR/SC reservations) lives behind an
//! [`Arc`], so N `Machine`s — one per hart — can execute against one
//! memory image. Each handle carries the hart id it acts as, which
//! routes per-hart MMIO (the halt latch) and LR/SC reservation
//! ownership. RAM bytes are relaxed atomics, MMIO devices sit behind a
//! mutex, and LR/SC/AMO read-modify-write sequences serialize on a
//! dedicated lock so remote stores break reservations exactly like a
//! coherence protocol would.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// MMIO addresses exposed by the bus.
pub mod mmio {
    /// Byte writes here appear on the console (UART transmit analogue).
    pub const CONSOLE_TX: u64 = 0x1000_0000;
    /// A 64-bit write here halts the *writing hart*; the value is the
    /// exit code. Other harts keep running.
    pub const HALT: u64 = 0x1000_1000;
    /// 64-bit writes here are appended to the host-visible value log —
    /// guest benchmarks use it to report cycle measurements.
    pub const VALUE_LOG: u64 = 0x1000_1008;
}

/// Default RAM base (matches common RISC-V platforms).
pub const DEFAULT_RAM_BASE: u64 = 0x8000_0000;
/// Default RAM size: 64 MiB.
pub const DEFAULT_RAM_SIZE: u64 = 64 << 20;
/// LR/SC reservation granularity: one 64-byte cache line, matching the
/// line size the privilege caches and timing model assume.
pub const RESERVATION_LINE: u64 = 64;

/// Cache-line-align a physical address down to its reservation line.
#[inline]
pub fn reservation_line(paddr: u64) -> u64 {
    paddr & !(RESERVATION_LINE - 1)
}

/// Page granularity of sparse RAM capture in [`BusState`].
pub const SNAPSHOT_PAGE: u64 = 4096;

/// Plain-data image of everything behind a [`Bus`] handle: sparse RAM
/// pages (only pages with a non-zero byte are captured), MMIO device
/// state, per-hart LR/SC reservations, halt latches, and the
/// basic-block-cache coherence bitmap. Importing it into a freshly
/// built bus of the same shape reproduces the memory image
/// bit-for-bit — the whole-machine snapshot layer (`isa-replay`)
/// serializes this struct.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusState {
    /// RAM base address (shape check on import).
    pub ram_base: u64,
    /// RAM size in bytes (shape check on import).
    pub ram_size: u64,
    /// Hart count (shape check on import).
    pub harts: u64,
    /// Non-zero [`SNAPSHOT_PAGE`]-sized pages as `(offset, bytes)`,
    /// offsets relative to `ram_base`, ascending.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Console bytes accumulated so far.
    pub console: Vec<u8>,
    /// Guest-reported value log.
    pub value_log: Vec<u64>,
    /// Per-hart reservation words (`line | 1` when valid).
    pub res: Vec<u64>,
    /// Bit per hart with a live reservation.
    pub res_mask: u64,
    /// Reservations broken by remote stores so far.
    pub res_breaks: u64,
    /// Per-hart exit codes (valid where `halted_mask` has the bit).
    pub halt_codes: Vec<u64>,
    /// Bit per halted hart.
    pub halted_mask: u64,
    /// Non-zero code-line bitmap words as `(word index, word)`.
    pub code_lines: Vec<(u64, u64)>,
    /// Bus-wide code-invalidation epoch.
    pub code_epoch: u64,
}

/// MMIO device state (shared across harts, mutex-guarded).
#[derive(Debug)]
struct Mmio {
    /// Console output accumulated from [`mmio::CONSOLE_TX`] writes.
    console: Vec<u8>,
    /// Values reported by the guest through [`mmio::VALUE_LOG`].
    value_log: Vec<u64>,
}

/// The shared bus image behind every [`Bus`] handle.
struct BusInner {
    ram_base: u64,
    /// RAM as relaxed atomic bytes: plain loads/stores race benignly
    /// (they model unordered memory), while LR/SC/AMO go through
    /// `amo_lock` for atomicity.
    ram: Box<[AtomicU8]>,
    mmio: Mutex<Mmio>,
    /// Per-hart LR reservation: `line | 1` when valid, `0` when clear.
    res: Vec<AtomicU64>,
    /// Bit per hart with a live reservation — lets the store fast path
    /// skip the reservation scan entirely.
    res_mask: AtomicU64,
    /// Reservations broken by remote stores/AMOs (SMP counter).
    res_breaks: AtomicU64,
    /// Serializes LR/SC/AMO read-modify-write sequences across harts.
    amo_lock: Mutex<()>,
    /// Per-hart exit codes, valid once the matching `halted_mask` bit
    /// is set. Lock-free because every hart polls its latch after
    /// every step — a mutex here would serialize the whole machine.
    halt_codes: Vec<AtomicU64>,
    /// Bit per halted hart; set with release ordering after the code.
    halted_mask: AtomicU64,
    /// One bit per [`RESERVATION_LINE`]-sized RAM line that some hart's
    /// basic-block cache decoded code (or walked page-table entries)
    /// from. Stores check it like the `res_mask` fast path: an unmarked
    /// store costs one relaxed load per touched bitmap word.
    code_lines: Box<[AtomicU64]>,
    /// Bumped whenever a store lands on a marked line; machines compare
    /// it against their last-seen value before each fetch and flush
    /// their basic-block caches when it moved.
    code_epoch: AtomicU64,
}

/// A per-hart handle onto the shared physical memory bus.
///
/// Cloning is cheap and shares the underlying memory image; use
/// [`Bus::for_hart`] to mint a handle acting as a different hart.
/// Accesses outside RAM and the MMIO window return `None`, which the CPU
/// turns into an access fault with the correct cause for the access type.
#[derive(Clone)]
pub struct Bus {
    inner: Arc<BusInner>,
    hart: usize,
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus")
            .field("ram_base", &self.inner.ram_base)
            .field("ram_size", &self.inner.ram.len())
            .field("hart", &self.hart)
            .field("harts", &self.inner.res.len())
            .finish()
    }
}

impl Default for Bus {
    fn default() -> Self {
        Bus::new(DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE)
    }
}

/// Allocate `size` zeroed atomic bytes without touching each one.
fn zeroed_ram(size: usize) -> Box<[AtomicU8]> {
    let raw = Box::into_raw(vec![0u8; size].into_boxed_slice());
    // SAFETY: `AtomicU8` is guaranteed to have the same in-memory
    // representation (size and alignment) as `u8`, and the slice
    // metadata is unchanged by the cast.
    unsafe { Box::from_raw(raw as *mut [AtomicU8]) }
}

impl Bus {
    /// A single-hart bus with `size` bytes of RAM at `base`.
    pub fn new(base: u64, size: u64) -> Bus {
        Bus::with_harts(base, size, 1)
    }

    /// A bus shared by `harts` harts (1..=64); the returned handle acts
    /// as hart 0.
    pub fn with_harts(base: u64, size: u64, harts: usize) -> Bus {
        assert!(
            (1..=64).contains(&harts),
            "hart count must be in 1..=64, got {harts}"
        );
        Bus {
            inner: Arc::new(BusInner {
                ram_base: base,
                ram: zeroed_ram(size as usize),
                mmio: Mutex::new(Mmio {
                    console: Vec::new(),
                    value_log: Vec::new(),
                }),
                res: (0..harts).map(|_| AtomicU64::new(0)).collect(),
                res_mask: AtomicU64::new(0),
                res_breaks: AtomicU64::new(0),
                amo_lock: Mutex::new(()),
                halt_codes: (0..harts).map(|_| AtomicU64::new(0)).collect(),
                halted_mask: AtomicU64::new(0),
                code_lines: {
                    let lines = (size as usize).div_ceil(RESERVATION_LINE as usize);
                    (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
                },
                code_epoch: AtomicU64::new(0),
            }),
            hart: 0,
        }
    }

    /// A handle onto the same memory image acting as `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is outside the bus's configured hart count.
    pub fn for_hart(&self, hart: usize) -> Bus {
        assert!(
            hart < self.harts(),
            "hart {hart} out of range (bus has {} harts)",
            self.harts()
        );
        Bus {
            inner: Arc::clone(&self.inner),
            hart,
        }
    }

    /// The hart this handle acts as.
    pub fn hart(&self) -> usize {
        self.hart
    }

    /// Number of harts sharing this bus.
    pub fn harts(&self) -> usize {
        self.inner.res.len()
    }

    /// RAM base address.
    pub fn ram_base(&self) -> u64 {
        self.inner.ram_base
    }

    /// RAM size in bytes.
    pub fn ram_size(&self) -> u64 {
        self.inner.ram.len() as u64
    }

    /// True if `[paddr, paddr+len)` lies entirely in RAM.
    pub fn in_ram(&self, paddr: u64, len: u64) -> bool {
        paddr >= self.inner.ram_base
            && paddr
                .checked_add(len)
                .is_some_and(|end| end <= self.inner.ram_base + self.inner.ram.len() as u64)
    }

    #[inline]
    fn ram_index(&self, paddr: u64) -> usize {
        (paddr - self.inner.ram_base) as usize
    }

    /// Load `len` (1/2/4/8) bytes, zero-extended. `None` = access fault.
    pub fn load(&self, paddr: u64, len: u8) -> Option<u64> {
        if self.in_ram(paddr, len as u64) {
            let i = self.ram_index(paddr);
            let mut v: u64 = 0;
            for k in 0..len as usize {
                v |= (self.inner.ram[i + k].load(Ordering::Relaxed) as u64) << (8 * k);
            }
            return Some(v);
        }
        match paddr {
            // UART line-status analogue: always ready.
            mmio::CONSOLE_TX => Some(0),
            _ => None,
        }
    }

    /// Store the low `len` bytes of `val`. `None` = access fault.
    ///
    /// A store that lands on another hart's reserved line breaks that
    /// reservation (its pending SC will fail), mirroring real cache
    /// coherence.
    pub fn store(&self, paddr: u64, len: u8, val: u64) -> Option<()> {
        if self.in_ram(paddr, len as u64) {
            let i = self.ram_index(paddr);
            for k in 0..len as usize {
                self.inner.ram[i + k].store((val >> (8 * k)) as u8, Ordering::Relaxed);
            }
            self.break_remote_reservations(paddr, len as u64);
            self.invalidate_code_lines(paddr, len as u64);
            return Some(());
        }
        if paddr == mmio::HALT {
            self.inner.halt_codes[self.hart].store(val, Ordering::Relaxed);
            self.inner
                .halted_mask
                .fetch_or(1u64 << self.hart, Ordering::Release);
            return Some(());
        }
        let mut m = self.inner.mmio.lock().unwrap_or_else(|e| e.into_inner());
        match paddr {
            mmio::CONSOLE_TX => {
                m.console.push(val as u8);
                Some(())
            }
            mmio::VALUE_LOG => {
                m.value_log.push(val);
                Some(())
            }
            _ => None,
        }
    }

    /// Copy a byte slice into RAM (host-side loader).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn write_bytes(&self, paddr: u64, bytes: &[u8]) {
        assert!(
            self.in_ram(paddr, bytes.len() as u64),
            "write_bytes outside RAM: {paddr:#x}+{}",
            bytes.len()
        );
        let i = self.ram_index(paddr);
        for (k, b) in bytes.iter().enumerate() {
            self.inner.ram[i + k].store(*b, Ordering::Relaxed);
        }
        if !bytes.is_empty() {
            self.break_remote_reservations(paddr, bytes.len() as u64);
            self.invalidate_code_lines(paddr, bytes.len() as u64);
        }
    }

    /// Read a byte slice from RAM (host-side inspection).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn read_bytes(&self, paddr: u64, len: usize) -> Vec<u8> {
        assert!(self.in_ram(paddr, len as u64), "read_bytes outside RAM");
        let i = self.ram_index(paddr);
        (0..len)
            .map(|k| self.inner.ram[i + k].load(Ordering::Relaxed))
            .collect()
    }

    /// Host-side 64-bit read from RAM.
    pub fn read_u64(&self, paddr: u64) -> u64 {
        assert!(self.in_ram(paddr, 8), "read_u64 outside RAM");
        let i = self.ram_index(paddr);
        u64::from_le_bytes(std::array::from_fn(|k| {
            self.inner.ram[i + k].load(Ordering::Relaxed)
        }))
    }

    /// Host-side 64-bit write to RAM.
    pub fn write_u64(&self, paddr: u64, val: u64) {
        self.write_bytes(paddr, &val.to_le_bytes());
    }

    /// Console output decoded as UTF-8 (lossy).
    pub fn console_string(&self) -> String {
        let m = self.inner.mmio.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&m.console).into_owned()
    }

    /// Snapshot of the guest-reported value log.
    pub fn value_log(&self) -> Vec<u64> {
        self.inner
            .mmio
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .value_log
            .clone()
    }

    /// Exit code of *this* hart, once it has written [`mmio::HALT`].
    /// Lock-free: the run loop polls this after every step.
    #[inline]
    pub fn halted(&self) -> Option<u64> {
        self.halted_of(self.hart)
    }

    /// Exit code of an arbitrary hart.
    #[inline]
    pub fn halted_of(&self, hart: usize) -> Option<u64> {
        if self.inner.halted_mask.load(Ordering::Acquire) & (1u64 << hart) != 0 {
            Some(self.inner.halt_codes[hart].load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// True once every hart has halted.
    pub fn all_halted(&self) -> bool {
        let all = u64::MAX >> (64 - self.harts());
        self.inner.halted_mask.load(Ordering::Acquire) & all == all
    }

    // ---- LR/SC/AMO --------------------------------------------------

    /// LR: load `len` bytes and acquire a reservation on the enclosing
    /// cache line for this hart, atomically with respect to remote
    /// stores. `None` = access fault (no reservation is acquired).
    pub fn lr_load(&self, paddr: u64, len: u8) -> Option<u64> {
        let _g = self
            .inner
            .amo_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let v = self.load(paddr, len)?;
        self.inner.res[self.hart].store(reservation_line(paddr) | 1, Ordering::SeqCst);
        self.inner
            .res_mask
            .fetch_or(1u64 << self.hart, Ordering::SeqCst);
        Some(v)
    }

    /// SC: store `len` bytes iff this hart still holds a reservation on
    /// the line containing `paddr`. Returns `Some(true)` on success,
    /// `Some(false)` if the reservation was lost (or never matched), and
    /// `None` on access fault. The reservation is consumed either way.
    pub fn sc_store(&self, paddr: u64, len: u8, val: u64) -> Option<bool> {
        let _g = self
            .inner
            .amo_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let want = reservation_line(paddr) | 1;
        let held = self.inner.res[self.hart].load(Ordering::SeqCst) == want;
        self.clear_reservation();
        if !held {
            return Some(false);
        }
        self.store(paddr, len, val)?;
        Some(true)
    }

    /// AMO: atomically read `len` bytes, apply `f`, and write the
    /// result back, breaking remote reservations on the line. Returns
    /// the *old* value, or `None` on access fault.
    pub fn amo_rmw(&self, paddr: u64, len: u8, f: impl FnOnce(u64) -> u64) -> Option<u64> {
        let _g = self
            .inner
            .amo_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let old = self.load(paddr, len)?;
        self.store(paddr, len, f(old))?;
        Some(old)
    }

    /// Drop this hart's reservation (trap entry, SC retirement).
    pub fn clear_reservation(&self) {
        self.inner.res[self.hart].store(0, Ordering::SeqCst);
        self.inner
            .res_mask
            .fetch_and(!(1u64 << self.hart), Ordering::SeqCst);
    }

    /// This hart's reserved line, if a reservation is live.
    pub fn reserved_line(&self) -> Option<u64> {
        let r = self.inner.res[self.hart].load(Ordering::SeqCst);
        (r & 1 == 1).then(|| reservation_line(r))
    }

    /// Reservations broken so far by remote stores/AMOs.
    pub fn reservation_breaks(&self) -> u64 {
        self.inner.res_breaks.load(Ordering::Relaxed)
    }

    // ---- basic-block cache coherence --------------------------------

    /// Mark the lines of `[paddr, paddr+len)` as holding cached code
    /// (or page-table entries a cached fetch translation depends on).
    /// Ranges outside RAM are ignored.
    pub fn mark_code_lines(&self, paddr: u64, len: u64) {
        if len == 0 || !self.in_ram(paddr, len) {
            return;
        }
        let first = (paddr - self.inner.ram_base) / RESERVATION_LINE;
        let last = (paddr + len - 1 - self.inner.ram_base) / RESERVATION_LINE;
        for line in first..=last {
            self.inner.code_lines[line as usize / 64]
                .fetch_or(1u64 << (line % 64), Ordering::SeqCst);
        }
    }

    /// The bus-wide code-invalidation epoch. Machines flush their
    /// basic-block caches whenever this differs from their last-seen
    /// value.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.inner.code_epoch.load(Ordering::SeqCst)
    }

    /// Clear any code-line marks overlapping a stored range and bump the
    /// epoch if there were any. The fast path — no marked line — is one
    /// relaxed bitmap-word load per touched line.
    fn invalidate_code_lines(&self, paddr: u64, len: u64) {
        let first = (paddr - self.inner.ram_base) / RESERVATION_LINE;
        let last = (paddr + len - 1 - self.inner.ram_base) / RESERVATION_LINE;
        let mut dirtied = false;
        for line in first..=last {
            let word = &self.inner.code_lines[line as usize / 64];
            let bit = 1u64 << (line % 64);
            if word.load(Ordering::Relaxed) & bit != 0 {
                word.fetch_and(!bit, Ordering::SeqCst);
                dirtied = true;
            }
        }
        if dirtied {
            self.inner.code_epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    // ---- snapshot/restore -------------------------------------------

    /// Capture the whole shared memory image as plain data. Pages that
    /// are entirely zero are skipped, so a mostly-empty 64 MiB RAM
    /// exports as a few hundred KiB. Call only at a step boundary (no
    /// hart mid-instruction) — the capture reads each byte relaxed.
    pub fn export_state(&self) -> BusState {
        let size = self.inner.ram.len();
        let mut pages = Vec::new();
        let mut off = 0usize;
        while off < size {
            let end = (off + SNAPSHOT_PAGE as usize).min(size);
            let page = &self.inner.ram[off..end];
            if page.iter().any(|b| b.load(Ordering::Relaxed) != 0) {
                pages.push((
                    off as u64,
                    page.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                ));
            }
            off = end;
        }
        let (console, value_log) = {
            let m = self.inner.mmio.lock().unwrap_or_else(|e| e.into_inner());
            (m.console.clone(), m.value_log.clone())
        };
        BusState {
            ram_base: self.inner.ram_base,
            ram_size: size as u64,
            harts: self.harts() as u64,
            pages,
            console,
            value_log,
            res: self
                .inner
                .res
                .iter()
                .map(|r| r.load(Ordering::SeqCst))
                .collect(),
            res_mask: self.inner.res_mask.load(Ordering::SeqCst),
            res_breaks: self.inner.res_breaks.load(Ordering::Relaxed),
            halt_codes: self
                .inner
                .halt_codes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            halted_mask: self.inner.halted_mask.load(Ordering::Acquire),
            code_lines: self
                .inner
                .code_lines
                .iter()
                .enumerate()
                .filter_map(|(i, w)| {
                    let v = w.load(Ordering::SeqCst);
                    (v != 0).then_some((i as u64, v))
                })
                .collect(),
            code_epoch: self.inner.code_epoch.load(Ordering::SeqCst),
        }
    }

    /// Overwrite this bus's entire state from a captured [`BusState`].
    /// The bus must have the same shape (base, size, hart count) —
    /// snapshots restore onto a machine rebuilt with the same recipe.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn import_state(&self, s: &BusState) {
        assert_eq!(s.ram_base, self.inner.ram_base, "snapshot ram_base");
        assert_eq!(s.ram_size, self.inner.ram.len() as u64, "snapshot ram_size");
        assert_eq!(s.harts, self.harts() as u64, "snapshot hart count");
        for b in self.inner.ram.iter() {
            b.store(0, Ordering::Relaxed);
        }
        for (off, bytes) in &s.pages {
            for (k, b) in bytes.iter().enumerate() {
                self.inner.ram[*off as usize + k].store(*b, Ordering::Relaxed);
            }
        }
        {
            let mut m = self.inner.mmio.lock().unwrap_or_else(|e| e.into_inner());
            m.console = s.console.clone();
            m.value_log = s.value_log.clone();
        }
        for (r, v) in self.inner.res.iter().zip(&s.res) {
            r.store(*v, Ordering::SeqCst);
        }
        self.inner.res_mask.store(s.res_mask, Ordering::SeqCst);
        self.inner.res_breaks.store(s.res_breaks, Ordering::Relaxed);
        for (c, v) in self.inner.halt_codes.iter().zip(&s.halt_codes) {
            c.store(*v, Ordering::Relaxed);
        }
        for w in self.inner.code_lines.iter() {
            w.store(0, Ordering::SeqCst);
        }
        for (i, v) in &s.code_lines {
            self.inner.code_lines[*i as usize].store(*v, Ordering::SeqCst);
        }
        self.inner.code_epoch.store(s.code_epoch, Ordering::SeqCst);
        // Release-publish last so halted() readers observe a coherent
        // code/mask pair, mirroring the store() ordering.
        self.inner
            .halted_mask
            .store(s.halted_mask, Ordering::Release);
    }

    /// Invalidate other harts' reservations overlapping the stored
    /// range. One relaxed mask load keeps the common (no reservations)
    /// path free.
    fn break_remote_reservations(&self, paddr: u64, len: u64) {
        let others = self.inner.res_mask.load(Ordering::SeqCst) & !(1u64 << self.hart);
        if others == 0 {
            return;
        }
        let first = reservation_line(paddr);
        let last = reservation_line(paddr + len - 1);
        for h in 0..self.harts() {
            if others & (1u64 << h) == 0 {
                continue;
            }
            let r = self.inner.res[h].load(Ordering::SeqCst);
            if r & 1 == 0 {
                continue;
            }
            let line = reservation_line(r);
            if line >= first && line <= last {
                // CAS so we never clobber a reservation re-acquired
                // concurrently by its owner.
                if self.inner.res[h]
                    .compare_exchange(r, 0, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.inner
                        .res_mask
                        .fetch_and(!(1u64 << h), Ordering::SeqCst);
                    self.inner.res_breaks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_all_widths() {
        let b = Bus::new(0x8000_0000, 4096);
        b.store(0x8000_0000, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(b.load(0x8000_0000, 8), Some(0x1122_3344_5566_7788));
        assert_eq!(b.load(0x8000_0000, 4), Some(0x5566_7788));
        assert_eq!(b.load(0x8000_0004, 4), Some(0x1122_3344));
        assert_eq!(b.load(0x8000_0000, 2), Some(0x7788));
        assert_eq!(b.load(0x8000_0000, 1), Some(0x88));
        b.store(0x8000_0001, 1, 0xAA).unwrap();
        assert_eq!(b.load(0x8000_0000, 2), Some(0xAA88));
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let b = Bus::new(0x8000_0000, 4096);
        assert_eq!(b.load(0x7fff_ffff, 1), None);
        assert_eq!(b.load(0x8000_0ffd, 8), None, "straddles the end");
        assert_eq!(b.store(0x0, 8, 0), None);
        assert_eq!(b.load(u64::MAX - 3, 8), None, "no overflow panic");
    }

    #[test]
    fn console_collects_bytes() {
        let b = Bus::default();
        for c in b"hi\n" {
            b.store(mmio::CONSOLE_TX, 1, *c as u64).unwrap();
        }
        assert_eq!(b.console_string(), "hi\n");
    }

    #[test]
    fn halt_records_exit_code() {
        let b = Bus::default();
        assert_eq!(b.halted(), None);
        b.store(mmio::HALT, 8, 42).unwrap();
        assert_eq!(b.halted(), Some(42));
    }

    #[test]
    fn halt_is_per_hart() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let b1 = b.for_hart(1);
        b1.store(mmio::HALT, 8, 7).unwrap();
        assert_eq!(b.halted(), None, "hart 0 keeps running");
        assert_eq!(b.halted_of(1), Some(7));
        assert!(!b.all_halted());
        b.store(mmio::HALT, 8, 0).unwrap();
        assert!(b.all_halted());
    }

    #[test]
    fn value_log_appends() {
        let b = Bus::default();
        b.store(mmio::VALUE_LOG, 8, 7).unwrap();
        b.store(mmio::VALUE_LOG, 8, 9).unwrap();
        assert_eq!(b.value_log(), vec![7, 9]);
    }

    #[test]
    fn host_helpers_roundtrip() {
        let b = Bus::default();
        b.write_u64(0x8000_1000, 0xfeed);
        assert_eq!(b.read_u64(0x8000_1000), 0xfeed);
        b.write_bytes(0x8000_2000, &[1, 2, 3]);
        assert_eq!(b.read_bytes(0x8000_2000, 3), &[1, 2, 3]);
    }

    #[test]
    fn handles_share_one_image() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let b1 = b.for_hart(1);
        b.store(0x8000_0010, 8, 0xabcd).unwrap();
        assert_eq!(b1.load(0x8000_0010, 8), Some(0xabcd));
        assert_eq!(b1.hart(), 1);
        assert_eq!(b.harts(), 2);
    }

    #[test]
    fn lr_sc_succeeds_within_line() {
        let b = Bus::default();
        b.write_u64(0x8000_0100, 5);
        assert_eq!(b.lr_load(0x8000_0100, 8), Some(5));
        assert_eq!(b.reserved_line(), Some(0x8000_0100));
        // Same line, different byte address: still succeeds.
        assert_eq!(b.sc_store(0x8000_0108, 8, 9), Some(true));
        assert_eq!(b.read_u64(0x8000_0108), 9);
        assert_eq!(b.reserved_line(), None, "SC consumes the reservation");
    }

    #[test]
    fn sc_fails_across_lines_or_without_reservation() {
        let b = Bus::default();
        assert_eq!(b.sc_store(0x8000_0100, 8, 1), Some(false), "no LR");
        b.lr_load(0x8000_0100, 8).unwrap();
        assert_eq!(b.sc_store(0x8000_0140, 8, 1), Some(false), "other line");
        // The failed SC consumed the reservation.
        assert_eq!(b.sc_store(0x8000_0100, 8, 1), Some(false));
    }

    #[test]
    fn remote_store_breaks_reservation() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let b1 = b.for_hart(1);
        b.lr_load(0x8000_0200, 8).unwrap();
        b1.store(0x8000_0220, 8, 1).unwrap(); // same 64-byte line
        assert_eq!(b.reserved_line(), None);
        assert_eq!(b.sc_store(0x8000_0200, 8, 2), Some(false));
        assert_eq!(b.reservation_breaks(), 1);
    }

    #[test]
    fn local_store_keeps_reservation() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        b.lr_load(0x8000_0200, 8).unwrap();
        b.store(0x8000_0220, 8, 1).unwrap(); // own store, same line
        assert_eq!(b.reserved_line(), Some(0x8000_0200));
        assert_eq!(b.sc_store(0x8000_0200, 8, 2), Some(true));
    }

    #[test]
    fn remote_store_outside_line_keeps_reservation() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let b1 = b.for_hart(1);
        b.lr_load(0x8000_0200, 8).unwrap();
        b1.store(0x8000_0240, 8, 1).unwrap(); // next line
        assert_eq!(b.reserved_line(), Some(0x8000_0200));
        assert_eq!(b.sc_store(0x8000_0200, 8, 2), Some(true));
        assert_eq!(b.reservation_breaks(), 0);
    }

    #[test]
    fn code_lines_bump_epoch_on_store() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let e0 = b.code_epoch();
        // Unmarked stores never move the epoch.
        b.store(0x8000_0000, 4, 0x13).unwrap();
        assert_eq!(b.code_epoch(), e0);
        b.mark_code_lines(0x8000_0040, 4);
        // A store to a different line: still no movement.
        b.store(0x8000_0000, 4, 0x13).unwrap();
        assert_eq!(b.code_epoch(), e0);
        // A remote hart storing into the marked line bumps the epoch.
        b.for_hart(1).store(0x8000_0060, 8, 0).unwrap();
        assert_eq!(b.code_epoch(), e0 + 1);
        // The mark was consumed: a second store is free again.
        b.store(0x8000_0060, 8, 0).unwrap();
        assert_eq!(b.code_epoch(), e0 + 1);
        // write_bytes (host loader) invalidates too.
        b.mark_code_lines(0x8000_0080, 64);
        b.write_bytes(0x8000_0080, &[0u8; 16]);
        assert_eq!(b.code_epoch(), e0 + 2);
    }

    #[test]
    fn bus_state_roundtrips() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 64 << 10, 2);
        b.write_u64(DEFAULT_RAM_BASE + 8, 0xfeed);
        b.write_u64(DEFAULT_RAM_BASE + 0x5000, 0xbeef);
        b.store(mmio::CONSOLE_TX, 1, b'x' as u64).unwrap();
        b.store(mmio::VALUE_LOG, 8, 99).unwrap();
        b.lr_load(DEFAULT_RAM_BASE + 0x40, 8).unwrap();
        b.mark_code_lines(DEFAULT_RAM_BASE, 64);
        b.for_hart(1).store(mmio::HALT, 8, 7).unwrap();

        let s = b.export_state();
        assert!(s.pages.len() >= 2, "two dirty pages captured");
        let fresh = Bus::with_harts(DEFAULT_RAM_BASE, 64 << 10, 2);
        fresh.import_state(&s);
        assert_eq!(fresh.read_u64(DEFAULT_RAM_BASE + 8), 0xfeed);
        assert_eq!(fresh.read_u64(DEFAULT_RAM_BASE + 0x5000), 0xbeef);
        assert_eq!(fresh.console_string(), "x");
        assert_eq!(fresh.value_log(), vec![99]);
        assert_eq!(fresh.reserved_line(), Some(DEFAULT_RAM_BASE + 0x40));
        assert_eq!(fresh.halted_of(1), Some(7));
        assert_eq!(fresh.halted_of(0), None);
        assert_eq!(fresh.code_epoch(), b.code_epoch());
        assert_eq!(fresh.export_state(), s, "re-export is stable");
        // The imported code-line marks still invalidate.
        let e0 = fresh.code_epoch();
        fresh.store(DEFAULT_RAM_BASE + 16, 8, 1).unwrap();
        assert_eq!(fresh.code_epoch(), e0 + 1);
    }

    #[test]
    fn import_overwrites_stale_contents() {
        let b = Bus::new(DEFAULT_RAM_BASE, 8 << 10);
        b.write_u64(DEFAULT_RAM_BASE, 1);
        let s = b.export_state();
        let other = Bus::new(DEFAULT_RAM_BASE, 8 << 10);
        other.write_u64(DEFAULT_RAM_BASE + 0x1000, 0xdead);
        other.import_state(&s);
        assert_eq!(other.read_u64(DEFAULT_RAM_BASE), 1);
        assert_eq!(other.read_u64(DEFAULT_RAM_BASE + 0x1000), 0, "zeroed");
    }

    #[test]
    fn amo_rmw_returns_old_and_breaks_remote() {
        let b = Bus::with_harts(DEFAULT_RAM_BASE, 4096, 2);
        let b1 = b.for_hart(1);
        b.write_u64(0x8000_0300, 10);
        b.lr_load(0x8000_0300, 8).unwrap();
        assert_eq!(b1.amo_rmw(0x8000_0300, 8, |v| v + 5), Some(10));
        assert_eq!(b.read_u64(0x8000_0300), 15);
        assert_eq!(b.reserved_line(), None, "remote AMO broke it");
    }
}
