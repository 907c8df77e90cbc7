//! The split-memory protection engine: a virtual Harvard architecture via
//! TLB desynchronisation (paper §4–5).
//!
//! * Page splitting at load/map time ([`SplitMemEngine::split_page`],
//!   paper §5.1);
//! * Algorithm 1 in [`ProtectionEngine::on_protection_fault`]: the D-TLB
//!   pagetable-walk reload and the single-step I-TLB reload;
//! * Algorithm 2 in [`ProtectionEngine::on_debug_trap`]: re-restricting the
//!   PTE after the I-TLB fill;
//! * Algorithm 3 in [`ProtectionEngine::on_invalid_opcode`]: detection of
//!   injected-code execution "right before the first injected instruction",
//!   with the break / observe / forensics response modes (§4.5);
//! * fork/COW/teardown integration (§5.4), signal-trampoline support
//!   (§5.5) and DigSig-style library verification (§4.3).

use crate::split::{
    page_is_executable, page_is_mixed, SplitPages, SplitPolicy, SplitStats, SplitTable,
};
use crate::verify::Verifier;
use sm_kernel::engine::{FaultOutcome, ProtectionEngine, UdOutcome};
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_machine::cpu::{flags, Access, PageFaultInfo};
use sm_machine::isa::SPLIT_FILL_OPCODE;
use sm_machine::phys::OutOfFrames;
use sm_machine::pte::{self, Frame, PAGE_SIZE};
use sm_machine::snapshot::{Reader, Writer};
use std::collections::BTreeMap;
use std::fmt;

/// Why an engine operation could not complete. The engine never panics on
/// these: every caller either degrades the page's protection or lets the
/// kernel terminate the offending process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The page is not (or no longer) split.
    NotSplit,
    /// Physical frame allocation failed.
    OutOfMemory,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineError::NotSplit => "page is not split",
            EngineError::OutOfMemory => "out of physical frames",
        })
    }
}

/// How the instruction-TLB is reloaded on a code fault (paper §4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItlbLoadMethod {
    /// Arm the trap flag and restart the instruction; the debug interrupt
    /// re-restricts the PTE (the paper's shipped mechanism, Algorithms
    /// 1–2).
    #[default]
    SingleStep,
    /// The paper's rejected alternative: plant a `ret` on the code page
    /// and call it from the fault handler, filling the I-TLB without a
    /// second trap — but paying the instruction-cache coherency penalty
    /// for writing an executed page, which made it a net loss ("this
    /// actually decreased the system's efficiency").
    PlantedRet,
}

/// Configuration of the split-memory engine.
#[derive(Debug, Clone)]
pub struct SplitMemConfig {
    /// Which pages to split (paper §4.2.1).
    pub policy: SplitPolicy,
    /// What to do when injected-code execution is detected (paper §4.5).
    pub response: ResponseMode,
    /// Forensics mode: shellcode to substitute for the attacker's (paper
    /// §6.1.3 injects `exit(0)`); `None` just dumps and terminates.
    pub forensic_shellcode: Option<Vec<u8>>,
    /// How many injected bytes to capture into the event log (the paper's
    /// Fig. 5c shows the first 20).
    pub shellcode_dump_len: usize,
    /// Library signature verifier; `None` accepts everything (the paper's
    /// stand-alone prototype likewise defers to DigSig).
    pub verifier: Option<Verifier>,
    /// Observe mode: start Sebek-style logging of the compromised process
    /// on detection (paper Fig. 5d).
    pub honeypot_on_detect: bool,
    /// Instruction-TLB reload mechanism (the §4.2.4 ablation).
    pub itlb_load: ItlbLoadMethod,
    /// Demand-allocate the code halves of *non-executable* split pages on
    /// their first instruction fetch — the memory-overhead optimisation
    /// the paper envisions in §5.1 ("duplicate physical pages would only
    /// be needed when both code and data are accessed from the same
    /// virtual page"). Executable pages are always copied eagerly: their
    /// code half must snapshot the load-time content before data writes
    /// can diverge.
    pub lazy_code_frames: bool,
}

impl Default for SplitMemConfig {
    fn default() -> SplitMemConfig {
        SplitMemConfig {
            policy: SplitPolicy::All,
            response: ResponseMode::Break,
            forensic_shellcode: None,
            shellcode_dump_len: 20,
            verifier: None,
            honeypot_on_detect: false,
            itlb_load: ItlbLoadMethod::default(),
            lazy_code_frames: false,
        }
    }
}

/// The split-memory engine. Plug into [`sm_kernel::Kernel`] via
/// [`Kernel::with_engine`](sm_kernel::Kernel::with_engine).
///
/// # Example
///
/// ```
/// use sm_core::engine::{SplitMemConfig, SplitMemEngine};
/// use sm_kernel::Kernel;
///
/// let engine = SplitMemEngine::new(SplitMemConfig::default());
/// let kernel = Kernel::with_engine(Box::new(engine));
/// assert_eq!(kernel.engine.name(), "split-memory");
/// # use sm_kernel::engine::ProtectionEngine;
/// ```
#[derive(Debug)]
pub struct SplitMemEngine {
    /// Engine configuration (mutable so demos can switch response modes
    /// between runs).
    pub config: SplitMemConfig,
    // Pid-ordered so every whole-engine walk (snapshot, teardown sweeps,
    // diagnostics) is deterministic — the same nondeterministic-iteration
    // class that once lurked *inside* SplitTable.
    tables: BTreeMap<u32, SplitTable>,
    /// Event counters.
    pub stats: SplitStats,
}

impl SplitMemEngine {
    /// Create an engine.
    pub fn new(config: SplitMemConfig) -> SplitMemEngine {
        SplitMemEngine {
            config,
            tables: BTreeMap::new(),
            stats: SplitStats::default(),
        }
    }

    /// Convenience: stand-alone mode (split everything) with the given
    /// response.
    pub fn stand_alone(response: ResponseMode) -> SplitMemEngine {
        SplitMemEngine::new(SplitMemConfig {
            response,
            ..SplitMemConfig::default()
        })
    }

    /// The split table of a process (empty if it has no split pages).
    pub fn table(&self, pid: Pid) -> Option<&SplitTable> {
        self.tables.get(&pid.0)
    }

    /// Split the page containing `vaddr` in `pid` (paper §5.1): allocate
    /// the second frame, restrict the PTE (supervisor + `SPLIT` bit) and
    /// record the pair. Executable pages get a *copy* of their content as
    /// the code frame; pure data pages get an empty code frame whose
    /// content encodes the response mode (zeros for break — "a string of
    /// zeros" — or invalid-opcode filler for observe/forensics, §4.5.2).
    ///
    /// Returns `false` if the page is absent or already split.
    pub fn split_page(&mut self, sys: &mut System, pid: Pid, vaddr: u32) -> bool {
        let base = pte::page_base(vaddr);
        let vpn = pte::vpn(vaddr);
        let entry = sys.pte_of(pid, base);
        if !pte::has(entry, pte::PRESENT) || pte::has(entry, pte::SPLIT) {
            return false;
        }
        let data_frame = pte::frame(entry);
        let executable = page_is_executable(sys, pid, base);
        let code_frame = if executable {
            // Executable content must be snapshotted now, before any data
            // write can diverge the halves.
            let cost = sys.machine.config.costs.cow_copy;
            sys.charge(cost);
            match sys.alloc_copy(data_frame) {
                Ok(f) => Some(f),
                Err(OutOfFrames) => {
                    self.degrade_unsplit(sys, pid, base, true, "splitting executable page");
                    return false;
                }
            }
        } else if self.config.lazy_code_frames {
            // §5.1 optimisation: defer the second frame until an
            // instruction fetch actually needs it.
            None
        } else {
            // Duplicating the page costs what a COW copy costs (paper
            // §5.1: "two new, side-by-side, physical pages are created and
            // the original page is copied").
            let cost = sys.machine.config.costs.cow_copy;
            sys.charge(cost);
            match self.fresh_filler_frame(sys) {
                Ok(f) => Some(f),
                Err(OutOfFrames) => {
                    self.degrade_unsplit(sys, pid, base, false, "splitting data page");
                    return false;
                }
            }
        };
        let new_entry = (entry & !pte::USER) | pte::SPLIT;
        sys.set_pte(pid, base, new_entry);
        sys.machine.invlpg(base);
        self.tables.entry(pid.0).or_default().insert(
            vpn,
            SplitPages {
                code: code_frame,
                data: data_frame,
                // Executable snapshots hold real instructions; everything
                // else holds (or will lazily hold) pristine filler.
                filler: !executable,
            },
        );
        self.stats.pages_split += 1;
        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PageSplit {
            pid: pid.0,
            vpn,
        });
        true
    }

    /// Allocate a filler code frame whose content encodes the response
    /// mode (zeros for break, invalid-opcode filler otherwise — §4.5.2).
    fn fresh_filler_frame(&self, sys: &mut System) -> Result<Frame, OutOfFrames> {
        let f = sys.alloc_zeroed()?;
        if self.config.response != ResponseMode::Break {
            sys.machine.phys.fill_frame(f, SPLIT_FILL_OPCODE);
        }
        Ok(f)
    }

    /// The code half of a split page, materialising it on first use under
    /// the lazy policy.
    fn code_frame(&mut self, sys: &mut System, pid: Pid, vpn: u32) -> Result<Frame, EngineError> {
        let sp = self
            .tables
            .get(&pid.0)
            .and_then(|t| t.get(vpn))
            .ok_or(EngineError::NotSplit)?;
        if let Some(c) = sp.code {
            return Ok(c);
        }
        let f = self
            .fresh_filler_frame(sys)
            .map_err(|OutOfFrames| EngineError::OutOfMemory)?;
        let cost = sys.machine.config.costs.demand_page;
        sys.charge(cost);
        self.stats.lazy_materializations += 1;
        if let Some(t) = self.tables.get_mut(&pid.0) {
            t.set_code_frame(vpn, Some(f));
        }
        Ok(f)
    }

    /// Out-of-memory fallback while *creating* a split: leave the page
    /// unsplit and mark non-executable pages no-execute instead, so the
    /// execute-disable bit (where the machine honours it) still blocks
    /// injected fetches. Executable pages must stay runnable and are left
    /// unprotected. Logged, counted, never a panic.
    fn degrade_unsplit(
        &mut self,
        sys: &mut System,
        pid: Pid,
        base: u32,
        executable: bool,
        reason: &'static str,
    ) {
        if !executable {
            let entry = sys.pte_of(pid, base);
            sys.set_pte(pid, base, entry | pte::NX);
            sys.machine.invlpg(base);
        }
        self.stats.oom_degraded += 1;
        sys.log(Event::SplitDegraded {
            pid,
            vaddr: base,
            reason,
        });
    }

    /// Out-of-memory fallback on an *already split* page (lazy code-frame
    /// materialisation, COW duplication): unsplit it — drop the table
    /// entry, restore a user-accessible PTE (keeping whatever frame the
    /// kernel left there, which is the data half at rest), release the code
    /// half, and fall back to the execute-disable bit for non-executable
    /// pages. Logged, counted, never a panic.
    fn degrade_page(&mut self, sys: &mut System, pid: Pid, vpn: u32, reason: &'static str) {
        let Some(sp) = self.tables.get_mut(&pid.0).and_then(|t| t.remove(vpn)) else {
            return;
        };
        let base = vpn << pte::PAGE_SHIFT;
        let entry = sys.pte_of(pid, base);
        let mut unlocked = (entry | pte::USER) & !pte::SPLIT;
        if !page_is_executable(sys, pid, base) {
            unlocked |= pte::NX;
        }
        sys.set_pte(pid, base, unlocked);
        sys.machine.invlpg(base);
        if let Some(c) = sp.code {
            sys.release_frame(c);
        }
        self.stats.oom_degraded += 1;
        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PageUnsplit {
            pid: pid.0,
            vpn,
        });
        sys.log(Event::SplitDegraded {
            pid,
            vaddr: base,
            reason,
        });
    }

    /// Apply the splitting policy to every present page of `[start, end)`.
    fn apply_policy(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let mut addr = pte::page_base(start);
        while addr < end {
            let mixed = page_is_mixed(sys, pid, addr);
            let draw: f64 = sys.rng.gen_range(0.0..1.0);
            if self.config.policy.should_split(mixed, draw) {
                self.split_page(sys, pid, addr);
            }
            match addr.checked_add(PAGE_SIZE) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }

    /// Observe-mode lock-in (Algorithm 3): point the PTE at the data frame,
    /// turn splitting off for the page, invalidate the TLB entry.
    fn lock_to_data(&mut self, sys: &mut System, pid: Pid, vpn: u32) {
        let Some(table) = self.tables.get_mut(&pid.0) else {
            return;
        };
        let Some(sp) = table.remove(vpn) else {
            return;
        };
        let base = vpn << pte::PAGE_SHIFT;
        let entry = sys.pte_of(pid, base);
        let unlocked = pte::with_frame((entry | pte::USER) & !pte::SPLIT, sp.data);
        sys.set_pte(pid, base, unlocked);
        sys.machine.invlpg(base);
        if let Some(c) = sp.code {
            sys.release_frame(c);
        }
        self.stats.pages_locked += 1;
        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PageUnsplit {
            pid: pid.0,
            vpn,
        });
    }

    /// Capture the leading injected bytes from the *data* frame (where the
    /// attacker's payload physically lives) for the event log.
    fn dump_shellcode(&self, sys: &System, sp: SplitPages, eip: u32) -> Vec<u8> {
        let off = pte::page_offset(eip);
        let n = (self.config.shellcode_dump_len as u32).min(PAGE_SIZE - off);
        let mut out = vec![0u8; n as usize];
        sys.machine.phys.read(sp.data.base() + off, &mut out);
        out
    }

    /// Normalise the at-rest PTE of every split page to the data frame and
    /// release the code frames (exit / execve / munmap; paper §5.4:
    /// "freeing two pages instead of one").
    fn release_range(&mut self, sys: &mut System, pid: Pid, range: Option<(u32, u32)>) {
        let Some(table) = self.tables.get_mut(&pid.0) else {
            return;
        };
        let mut to_remove = Vec::new();
        for (vpn, sp) in table.iter() {
            let base = vpn << pte::PAGE_SHIFT;
            if let Some((start, end)) = range {
                if base < start || base >= end {
                    continue;
                }
            }
            to_remove.push((vpn, sp, base));
        }
        for (vpn, sp, base) in to_remove {
            table.remove(vpn);
            sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PageUnsplit {
                pid: pid.0,
                vpn,
            });
            let Some(code) = sp.code else {
                continue; // lazy page whose code half never materialised
            };
            let entry = sys.pte_of(pid, base);
            if pte::has(entry, pte::PRESENT) && pte::frame(entry) == code {
                // Mid-single-step teardown: make the kernel free the data
                // half via the PTE; we free the code half below.
                sys.set_pte(pid, base, pte::with_frame(entry, sp.data));
            }
            sys.release_frame(code);
        }
        if range.is_none() {
            self.tables.remove(&pid.0);
        }
    }
}

impl ProtectionEngine for SplitMemEngine {
    fn name(&self) -> &'static str {
        "split-memory"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        self.apply_policy(sys, pid, start, end);
    }

    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        // Paper §5.4: demand paging allocates two pages instead of one.
        let base = pte::page_base(vaddr);
        let mixed = page_is_mixed(sys, pid, base);
        let draw: f64 = sys.rng.gen_range(0.0..1.0);
        if self.config.policy.should_split(mixed, draw) {
            self.split_page(sys, pid, base);
        }
    }

    /// Algorithm 1. The paper's handler distinguishes the two TLB-miss
    /// kinds by comparing the faulting address (CR2) with the program
    /// counter; the simulator reports the access type directly, which is
    /// the same signal without the corner case of an instruction that
    /// *reads* its own address.
    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        let vpn = pte::vpn(pf.addr);
        let base = pte::page_base(pf.addr);
        let Some(sp) = self.tables.get(&pid.0).and_then(|t| t.get(vpn)) else {
            return FaultOutcome::Unhandled;
        };
        let entry = sys.pte_of(pid, base);
        if !pte::has(entry, pte::SPLIT) {
            return FaultOutcome::Unhandled;
        }
        if sys.machine.config.software_tlb {
            // The §4.7 port: on a software-loaded-TLB architecture the
            // handler simply fills the right TLB with the right frame —
            // "no complex data or instruction TLB loading techniques".
            let fill_cost = sys.machine.config.costs.soft_tlb_fill;
            match pf.access {
                Access::Write if !pte::has(entry, pte::WRITABLE) => {
                    return FaultOutcome::Unhandled;
                }
                Access::Fetch => {
                    sys.charge(fill_cost);
                    self.stats.code_reloads += 1;
                    let Ok(code) = self.code_frame(sys, pid, vpn) else {
                        // No frame for the code half: degrade the page and
                        // let the retry walk the now-unsplit PTE.
                        self.degrade_page(sys, pid, vpn, "materialising code frame");
                        return FaultOutcome::Handled;
                    };
                    sys.machine.fill_itlb(sm_machine::tlb::TlbEntry {
                        vpn,
                        pfn: code.0,
                        asid: 0, // fill() restamps with the active ASID
                        user: true,
                        writable: false,
                        nx: false,
                    });
                }
                Access::Read | Access::Write => {
                    sys.charge(fill_cost);
                    self.stats.data_reloads += 1;
                    sys.machine.fill_dtlb(sm_machine::tlb::TlbEntry {
                        vpn,
                        pfn: sp.data.0,
                        asid: 0, // fill() restamps with the active ASID
                        user: true,
                        writable: pte::has(entry, pte::WRITABLE),
                        nx: false,
                    });
                }
            }
            return FaultOutcome::Handled;
        }
        match pf.access {
            Access::Fetch => {
                let cost = sys.machine.config.costs.split_code_reload;
                sys.charge(cost);
                self.stats.code_reloads += 1;
                let Ok(code) = self.code_frame(sys, pid, vpn) else {
                    // No frame for the code half: degrade the page and let
                    // the retried fetch walk the now-unsplit PTE (where the
                    // execute-disable bit, if honoured, still blocks it).
                    self.degrade_page(sys, pid, vpn, "materialising code frame");
                    return FaultOutcome::Handled;
                };
                let reload = pte::with_frame(entry | pte::USER, code);
                sys.set_pte(pid, base, reload);
                sys.trace(sm_trace::mask::PTE, || {
                    sm_trace::TraceEvent::PteUnrestrict {
                        pid: pid.0,
                        vpn,
                        reload: sm_trace::ReloadKind::Code,
                    }
                });
                match self.config.itlb_load {
                    ItlbLoadMethod::SingleStep => {
                        // Unrestrict the PTE pointed at the code frame, arm
                        // single-step, restart the instruction (Algorithm 1
                        // lines 2–5). The debug handler re-restricts.
                        sys.machine.cpu.regs.set_flag(flags::TF, true);
                        sys.proc_mut(pid).pending_step_addr = Some(base);
                        sys.trace(sm_trace::mask::STEP, || sm_trace::TraceEvent::StepArm {
                            pid: pid.0,
                            vpn,
                        });
                    }
                    ItlbLoadMethod::PlantedRet => {
                        // Plant-and-call: executing a kernel-planted `ret`
                        // on the page fills the I-TLB with no second trap,
                        // then the PTE is restricted straight away — but the
                        // write to an executed page costs cache coherency.
                        let flush = sys.machine.config.costs.icache_flush;
                        sys.charge(flush);
                        let _ = sys.machine.translate(
                            pf.addr,
                            Access::Fetch,
                            sm_machine::cpu::Privilege::Kernel,
                        );
                        // Restrict and normalise the at-rest frame to the
                        // data half (as the debug handler does for the
                        // single-step loader) so kernel copies, COW and
                        // teardown see a consistent mapping.
                        sys.set_pte(pid, base, pte::with_frame(reload & !pte::USER, sp.data));
                        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PteRestrict {
                            pid: pid.0,
                            vpn,
                        });
                    }
                }
                FaultOutcome::Handled
            }
            Access::Write if !pte::has(entry, pte::WRITABLE) => {
                // A genuine permission error, not a TLB miss on a split
                // page: let the kernel deliver SIGSEGV.
                FaultOutcome::Unhandled
            }
            Access::Read | Access::Write => {
                // Data-TLB load via pagetable walk: unrestrict pointed at
                // the data frame, touch a byte (the hardware walker fills
                // the D-TLB with the momentarily-user rights), restrict
                // again (Algorithm 1 lines 7–11).
                let cost = sys.machine.config.costs.split_data_reload;
                sys.charge(cost);
                self.stats.data_reloads += 1;
                let reload = pte::with_frame(entry | pte::USER, sp.data);
                sys.set_pte(pid, base, reload);
                sys.trace(sm_trace::mask::PTE, || {
                    sm_trace::TraceEvent::PteUnrestrict {
                        pid: pid.0,
                        vpn,
                        reload: sm_trace::ReloadKind::Data,
                    }
                });
                let _ = sys.machine.kernel_read_u8(pf.addr);
                let filled = sys
                    .machine
                    .dtlb
                    .peek(vpn)
                    .is_some_and(|e| e.user && e.pfn == sp.data.0);
                // Restrict again; the D-TLB keeps the permissive snapshot.
                sys.set_pte(pid, base, reload & !pte::USER);
                sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PteRestrict {
                    pid: pid.0,
                    vpn,
                });
                if !filled {
                    // "Occasionally, the pagetable walk does not
                    // successfully load the data-TLB. In this case, single
                    // stepping mode must be used." (paper §5.2 footnote 1)
                    self.stats.data_reload_fallbacks += 1;
                    sys.set_pte(pid, base, reload);
                    sys.trace(sm_trace::mask::PTE, || {
                        sm_trace::TraceEvent::PteUnrestrict {
                            pid: pid.0,
                            vpn,
                            reload: sm_trace::ReloadKind::Data,
                        }
                    });
                    sys.machine.cpu.regs.set_flag(flags::TF, true);
                    sys.proc_mut(pid).pending_step_addr = Some(base);
                    sys.trace(sm_trace::mask::STEP, || sm_trace::TraceEvent::StepArm {
                        pid: pid.0,
                        vpn,
                    });
                }
                FaultOutcome::Handled
            }
        }
    }

    /// Algorithm 2: the armed instruction has executed (filling the
    /// I-TLB); restrict the PTE and clear single-step.
    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        let Some(base) = sys.proc_mut(pid).pending_step_addr.take() else {
            return false;
        };
        let cost = sys.machine.config.costs.debug_handler;
        sys.charge(cost);
        let vpn = pte::vpn(base);
        let eip = sys.machine.cpu.regs.eip;
        sys.trace(sm_trace::mask::STEP, || sm_trace::TraceEvent::StepFire {
            pid: pid.0,
            eip,
            vpn,
        });
        let entry = sys.pte_of(pid, base);
        let sp = self.tables.get(&pid.0).and_then(|t| t.get(vpn));
        // Restrict, and normalise the at-rest frame to the data half so
        // kernel copies (copy_to_user & friends) always reach data.
        let mut restored = entry & !pte::USER;
        if let Some(sp) = sp {
            restored = pte::with_frame(restored, sp.data);
            // Close the single-step window: the restarted instruction's own
            // data access may have filled the D-TLB from the *code* frame
            // while the PTE briefly pointed there. (The paper's prototype
            // shares this window; see DESIGN.md.)
            if sys
                .machine
                .dtlb
                .peek(vpn)
                .is_some_and(|e| sp.code.is_some_and(|c| e.pfn == c.0))
            {
                sys.machine.dtlb.drop_entry(vpn);
            }
        }
        sys.set_pte(pid, base, restored);
        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PteRestrict {
            pid: pid.0,
            vpn,
        });
        sys.machine.cpu.regs.set_flag(flags::TF, false);
        true
    }

    /// Algorithm 3: an instruction fetch landed on split-page filler — the
    /// attacker's injected code is *about to run* but has not. Detect and
    /// respond.
    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        let vpn = pte::vpn(eip);
        let Some(sp) = self.tables.get(&pid.0).and_then(|t| t.get(vpn)) else {
            return UdOutcome::Unhandled;
        };
        // Break mode only recognises the zero filler (the paper takes "no
        // action" there; a genuine bad opcode in real code should be a
        // plain SIGILL). Observe/forensics follow Algorithm 3 literally:
        // *any* invalid-instruction fault on a split page is treated as a
        // detection — on mixed pages the injected bytes land among the
        // loader's copy of the page, so the trapping byte is whatever the
        // original content held there (often 0x00), not our filler.
        if self.config.response == ResponseMode::Break && opcode != 0x00 {
            return UdOutcome::Unhandled;
        }
        // The single-step arming from the preceding I-TLB reload never
        // completed (the #UD pre-empted it): disarm, and restore the
        // at-rest PTE state (restricted, data frame) that the debug handler
        // would have established — execution may continue in this process
        // (observe mode, recovery handler) and its data must stay readable.
        let was_armed = sys.proc_mut(pid).pending_step_addr.take().is_some();
        if was_armed {
            sys.trace(sm_trace::mask::STEP, || sm_trace::TraceEvent::StepDisarm {
                pid: pid.0,
                vpn,
                cause: sm_trace::DisarmCause::Detection,
            });
        }
        sys.machine.cpu.regs.set_flag(flags::TF, false);
        let base = pte::page_base(eip);
        let entry = sys.pte_of(pid, base);
        sys.set_pte(pid, base, pte::with_frame(entry & !pte::USER, sp.data));
        sys.trace(sm_trace::mask::PTE, || sm_trace::TraceEvent::PteRestrict {
            pid: pid.0,
            vpn,
        });
        if sys
            .machine
            .dtlb
            .peek(vpn)
            .is_some_and(|e| sp.code.is_some_and(|c| e.pfn == c.0))
        {
            sys.machine.dtlb.drop_entry(vpn);
        }
        self.stats.detections += 1;
        let shellcode = self.dump_shellcode(sys, sp, eip);
        let mode = self.config.response;
        let trace_mode = match mode {
            ResponseMode::Break => sm_trace::ResponseKind::Break,
            ResponseMode::Observe => sm_trace::ResponseKind::Observe,
            ResponseMode::Forensics => sm_trace::ResponseKind::Forensics,
        };
        sys.trace(sm_trace::mask::DETECT, || sm_trace::TraceEvent::Detection {
            pid: pid.0,
            eip,
            mode: trace_mode,
        });
        sys.log(Event::AttackDetected {
            pid,
            eip,
            mode,
            shellcode: if mode == ResponseMode::Break {
                Vec::new()
            } else {
                shellcode
            },
        });
        match mode {
            ResponseMode::Break => UdOutcome::Terminate,
            ResponseMode::Observe => {
                // Log once, lock the page onto the data frame, continue —
                // "the attack is able to continue unhindered" (§4.5.2).
                self.lock_to_data(sys, pid, vpn);
                if self.config.honeypot_on_detect {
                    sys.proc_mut(pid).honeypot_log = true;
                }
                UdOutcome::Resume
            }
            ResponseMode::Forensics => {
                match self.config.forensic_shellcode.clone() {
                    Some(code) => {
                        // §6.1.3: copy forensic shellcode onto the (empty)
                        // code page being executed from and point EIP at
                        // the start of the page.
                        let n = code.len().min(PAGE_SIZE as usize);
                        let Ok(frame) = self.code_frame(sys, pid, vpn) else {
                            // Cannot materialise a frame to plant the
                            // forensic payload on: fall back to terminating
                            // the compromised process.
                            return UdOutcome::Terminate;
                        };
                        sys.machine.phys.write(frame.base(), &code[..n]);
                        if let Some(t) = self.tables.get_mut(&pid.0) {
                            t.set_filler(vpn, false);
                        }
                        sys.machine.cpu.regs.eip = pte::page_base(eip);
                        // The I-TLB already maps the code frame; execution
                        // resumes directly in the forensic payload.
                        UdOutcome::Resume
                    }
                    None => UdOutcome::Terminate,
                }
            }
        }
    }

    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        let vpn = pte::vpn(vaddr);
        let Some(sp) = self.tables.get(&pid.0).and_then(|t| t.get(vpn)) else {
            return;
        };
        if new_frame == sp.data {
            return; // refcount had dropped to one; nothing was copied
        }
        // The kernel duplicated the data half; duplicate the code half so
        // the processes stop sharing it too (paper §5.4's COW update).
        let new_code = match sp.code {
            None => None,
            Some(c) => match sys.alloc_copy(c) {
                Ok(copy) => {
                    sys.release_frame(c);
                    Some(copy)
                }
                Err(OutOfFrames) => {
                    // Cannot duplicate the code half: degrade this page in
                    // the writing process rather than panic. The kernel has
                    // already pointed the PTE at `new_frame`, so dropping
                    // the split (and this process's reference to the shared
                    // code half) leaves a consistent, unprotected page.
                    self.degrade_page(sys, pid, vpn, "cow code-half copy");
                    return;
                }
            },
        };
        if let Some(table) = self.tables.get_mut(&pid.0) {
            table.set_data_frame(vpn, new_frame);
            table.set_code_frame(vpn, new_code);
        }
        self.stats.cow_splits += 1;
    }

    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        let Some(table) = self.tables.get(&parent.0) else {
            return;
        };
        let cloned = table.clone();
        for (_, sp) in cloned.iter() {
            if let Some(c) = sp.code {
                sys.frames.share(&mut sys.machine, c);
            }
        }
        self.tables.insert(child.0, cloned);
    }

    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        self.release_range(sys, pid, Some((start, end)));
    }

    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        self.release_range(sys, pid, None);
    }

    fn verify_library(
        &mut self,
        _sys: &mut System,
        _pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        match &self.config.verifier {
            Some(v) => v.verify(image).map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// Kernel-emitted code (the signal trampoline) must be visible to
    /// *fetches*, i.e. land on the code frames too — the legitimate-kernel
    /// counterpart of the mixed-page support (§5.5).
    fn on_user_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        // The data halves (and unsplit pages) already hold the bytes; mirror
        // them onto the code halves of any split pages touched
        // (materialising lazy code halves: the trampoline must be
        // fetchable).
        for (i, b) in bytes.iter().enumerate() {
            let a = vaddr.wrapping_add(i as u32);
            let vpn = pte::vpn(a);
            if self
                .tables
                .get(&pid.0)
                .is_some_and(|t| t.get(vpn).is_some())
            {
                match self.code_frame(sys, pid, vpn) {
                    Ok(code) => {
                        sys.machine
                            .phys
                            .write_u8(code.base() + pte::page_offset(a), *b);
                        if let Some(t) = self.tables.get_mut(&pid.0) {
                            t.set_filler(vpn, false);
                        }
                    }
                    Err(_) => {
                        // Cannot mirror onto a code half: degrade the page.
                        // The copy above already reached the data frame,
                        // which is now the page's only frame, so the
                        // trampoline stays fetchable.
                        self.degrade_page(sys, pid, vpn, "mirroring kernel code");
                    }
                }
            }
        }
    }

    /// Split tables (sorted by pid, then vpn — canonical bytes) plus the
    /// engine counters. Config is *not* serialized: the restoring side
    /// constructs the engine with the same configuration it booted with.
    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // BTreeMap iteration is already pid-sorted; the encoding is
        // byte-identical to the old sort-a-key-vector walk.
        w.u64(self.tables.len() as u64);
        for (&pid, table) in &self.tables {
            w.u32(pid);
            w.u64(table.len() as u64);
            for (vpn, sp) in table.iter() {
                w.u32(vpn);
                w.opt_u32(sp.code.map(|f| f.0));
                w.u32(sp.data.0);
                w.bool(sp.filler);
            }
        }
        for v in [
            self.stats.pages_split,
            self.stats.data_reloads,
            self.stats.code_reloads,
            self.stats.data_reload_fallbacks,
            self.stats.detections,
            self.stats.pages_locked,
            self.stats.cow_splits,
            self.stats.lazy_materializations,
            self.stats.oom_degraded,
        ] {
            w.u64(v);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let s = |e: sm_machine::snapshot::SnapshotError| e.to_string();
        let mut r = Reader::new(bytes);
        let ntables = r.count(1 << 16).map_err(s)?;
        let mut tables = BTreeMap::new();
        for _ in 0..ntables {
            let pid = r.u32().map_err(s)?;
            let npages = r.count(1 << 20).map_err(s)?;
            let mut table = SplitTable::new();
            for _ in 0..npages {
                let vpn = r.u32().map_err(s)?;
                let code = r.opt_u32().map_err(s)?.map(Frame);
                let data = Frame(r.u32().map_err(s)?);
                let filler = r.bool().map_err(s)?;
                table.insert(vpn, SplitPages { code, data, filler });
            }
            if tables.insert(pid, table).is_some() {
                return Err("duplicate split table pid".into());
            }
        }
        let stats = SplitStats {
            pages_split: r.u64().map_err(s)?,
            data_reloads: r.u64().map_err(s)?,
            code_reloads: r.u64().map_err(s)?,
            data_reload_fallbacks: r.u64().map_err(s)?,
            detections: r.u64().map_err(s)?,
            pages_locked: r.u64().map_err(s)?,
            cow_splits: r.u64().map_err(s)?,
            lazy_materializations: r.u64().map_err(s)?,
            oom_degraded: r.u64().map_err(s)?,
        };
        if !r.is_done() {
            return Err("trailing bytes in split-memory engine state".into());
        }
        self.tables = tables;
        self.stats = stats;
        Ok(())
    }
}
