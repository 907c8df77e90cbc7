//! Execute-disable (NX) baseline engine.
//!
//! Models the hardware-assisted page-level protection the paper compares
//! against (Intel execute-disable / AMD NX, DEP, PaX PAGEEXEC — §2): every
//! page that holds no code is marked non-executable, code pages stay
//! read-only through their VMA permissions. Two documented limitations are
//! reproduced faithfully because they motivate split memory:
//!
//! 1. **Mixed pages cannot be protected** — a page that holds both code and
//!    data must stay executable, so injection into it is not caught.
//! 2. **Signal trampolines need executable stacks** — the kernel clears NX
//!    on pages it writes trampolines to (exactly why historic Linux kept
//!    stacks executable).

use crate::split::page_is_executable;
use sm_kernel::engine::{FaultOutcome, ProtectionEngine};
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::image::{SEG_R, SEG_X};
use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_kernel::vma::{Vma, VmaKind};
use sm_machine::cpu::{Access, PageFaultInfo};
use sm_machine::pte::{self, PAGE_SIZE};

/// Where observe-mode honeypot copies are mapped: above the mmap region
/// (0x4000_0000, growing up), far below the stack (growing down from
/// 0xC000_0000), so a decoy never collides with a real mapping.
const HONEYPOT_BASE: u32 = 0xA000_0000;

/// Counters for the NX engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NxStats {
    /// Pages marked non-executable.
    pub pages_marked: u64,
    /// Blocked instruction fetches (attack detections).
    pub detections: u64,
    /// Pages whose NX was cleared for a kernel-written trampoline.
    pub trampoline_exemptions: u64,
    /// Decoy pages installed by observe-mode honeypot relocations.
    pub honeypot_pages: u64,
}

/// The execute-disable baseline.
#[derive(Debug)]
pub struct NxEngine {
    /// Event counters.
    pub stats: NxStats,
    /// Response policy. [`ResponseMode::Break`] is DEP: the blocked fetch
    /// becomes SIGSEGV. Observe/forensics model the DCR-style honeypot:
    /// the payload is *relocated* to a decoy mapping and allowed to run —
    /// which is exactly the response a code-page-read fingerprint can
    /// unmask, because the decoy lives at a different address. Split
    /// memory's observe mode heals the page *in place* instead, so the
    /// same fingerprint learns nothing there.
    response: ResponseMode,
}

impl Default for NxEngine {
    fn default() -> NxEngine {
        NxEngine::new()
    }
}

impl NxEngine {
    /// Create the engine with the DEP-style break response. The machine
    /// must have been configured with `nx_enabled = true`; this is checked
    /// (with a panic) at first use, since silently running without the bit
    /// would report false security.
    pub fn new() -> NxEngine {
        NxEngine::with_response(ResponseMode::Break)
    }

    /// Create the engine with an explicit response policy (observe and
    /// forensics select the honeypot relocation).
    pub fn with_response(response: ResponseMode) -> NxEngine {
        NxEngine {
            stats: NxStats::default(),
            response,
        }
    }

    fn assert_hw(sys: &System) {
        assert!(
            sys.machine.config.nx_enabled,
            "NxEngine requires MachineConfig::nx_enabled (legacy x86 has no execute-disable bit)"
        );
    }

    /// Mark every present, non-executable page in `[start, end)` NX,
    /// skipping split pages: in a stack with split memory those are
    /// protected by the split, and a page never carries both bits.
    fn mark_range(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        Self::assert_hw(sys);
        let mut addr = pte::page_base(start);
        while addr < end {
            let entry = sys.pte_of(pid, addr);
            if pte::has(entry, pte::PRESENT)
                && entry & (pte::NX | pte::SPLIT) == 0
                && !page_is_executable(sys, pid, addr)
            {
                sys.set_pte(pid, addr, entry | pte::NX);
                sys.machine.invlpg(addr);
                self.stats.pages_marked += 1;
            }
            match addr.checked_add(PAGE_SIZE) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }

    /// Record a blocked fetch.
    fn detect(&mut self, sys: &mut System, pid: Pid, pf: PageFaultInfo) -> FaultOutcome {
        if pf.access != Access::Fetch {
            return FaultOutcome::Unhandled;
        }
        let entry = sys.pte_of(pid, pte::page_base(pf.addr));
        if !pte::has(entry, pte::NX) {
            return FaultOutcome::Unhandled;
        }
        self.stats.detections += 1;
        sys.log(Event::AttackDetected {
            pid,
            eip: pf.addr,
            mode: self.response,
            shellcode: Vec::new(),
        });
        if self.response == ResponseMode::Break {
            // Unhandled → the kernel delivers SIGSEGV, like DEP.
            return FaultOutcome::Unhandled;
        }
        // Observe/forensics: relocate the payload into a decoy mapping and
        // let it run there under watch.
        match self.relocate_to_honeypot(sys, pid, pf.addr) {
            Some(decoy_eip) => {
                sys.machine.cpu.regs.eip = decoy_eip;
                FaultOutcome::Handled
            }
            // Could not build the decoy (OOM): fall back to the crash.
            None => FaultOutcome::Unhandled,
        }
    }

    /// Copy the faulting page (and, when mapped, its successor — payloads
    /// may straddle the boundary) into fresh decoy pages at
    /// [`HONEYPOT_BASE`], mapped executable. Returns the decoy address
    /// corresponding to `addr`.
    fn relocate_to_honeypot(&mut self, sys: &mut System, pid: Pid, addr: u32) -> Option<u32> {
        let base = pte::page_base(addr);
        let slot = HONEYPOT_BASE + self.stats.honeypot_pages as u32 * PAGE_SIZE;
        let mut pages = vec![base];
        if let Some(next) = base.checked_add(PAGE_SIZE) {
            if pte::has(sys.pte_of(pid, next), pte::PRESENT) {
                pages.push(next);
            }
        }
        for (i, page) in pages.into_iter().enumerate() {
            let src = pte::frame(sys.pte_of(pid, page));
            let copy = sys.alloc_copy(src).ok()?;
            let decoy = slot + i as u32 * PAGE_SIZE;
            sys.set_pte(pid, decoy, pte::with_frame(pte::PRESENT | pte::USER, copy));
            sys.machine.invlpg(decoy);
            // One VMA per decoy page, added as soon as the page is mapped,
            // so teardown reclaims the frame even if a later page's
            // allocation fails. Read+execute, never writable: the decoy is
            // a dead end, not a new injection surface.
            sys.procs.get_mut(&pid.0)?.aspace.add_vma(Vma::new(
                decoy,
                decoy + PAGE_SIZE,
                SEG_R | SEG_X,
                VmaKind::Mmap,
                "nx-honeypot",
            ));
            self.stats.honeypot_pages += 1;
        }
        Some(slot + pte::page_offset(addr))
    }

    /// Clear NX on the pages a kernel trampoline was written to.
    fn exempt_trampoline(&mut self, sys: &mut System, pid: Pid, vaddr: u32, len: usize) {
        let mut addr = pte::page_base(vaddr);
        let end = vaddr.wrapping_add(len as u32);
        while addr < end {
            let entry = sys.pte_of(pid, addr);
            if pte::has(entry, pte::PRESENT) && pte::has(entry, pte::NX) {
                sys.set_pte(pid, addr, entry & !pte::NX);
                sys.machine.invlpg(addr);
                self.stats.trampoline_exemptions += 1;
            }
            addr += PAGE_SIZE;
        }
    }
}

impl ProtectionEngine for NxEngine {
    fn name(&self) -> &'static str {
        "execute-disable"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        self.mark_range(sys, pid, start, end);
    }

    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        self.mark_range(sys, pid, vaddr, vaddr + 1);
    }

    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        self.detect(sys, pid, pf)
    }

    fn on_user_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        self.exempt_trampoline(sys, pid, vaddr, bytes.len());
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = sm_machine::snapshot::Writer::new();
        w.u64(self.stats.pages_marked);
        w.u64(self.stats.detections);
        w.u64(self.stats.trampoline_exemptions);
        w.u64(self.stats.honeypot_pages);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let s = |e: sm_machine::snapshot::SnapshotError| e.to_string();
        let mut r = sm_machine::snapshot::Reader::new(bytes);
        let stats = NxStats {
            pages_marked: r.u64().map_err(s)?,
            detections: r.u64().map_err(s)?,
            trampoline_exemptions: r.u64().map_err(s)?,
            honeypot_pages: r.u64().map_err(s)?,
        };
        if !r.is_done() {
            return Err("trailing bytes in execute-disable engine state".into());
        }
        self.stats = stats;
        Ok(())
    }
}
