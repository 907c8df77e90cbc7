//! Protection-engine hooks.
//!
//! The paper's split-memory system is a set of small patches to five kernel
//! subsystems (ELF loader, page-fault handler, debug-interrupt handler,
//! memory management, signal handling — §5.1–5.5). This trait exposes
//! exactly those patch points so protection schemes plug into the kernel the
//! way the paper's patch plugs into Linux. `sm-core` provides the split
//! memory, execute-disable and shadow-stack engines, and an engine stack
//! that composes them (the paper's combined mode); the kernel ships only
//! the [`NullEngine`] (an unprotected system).

use crate::image::ExecImage;
use crate::kernel::System;
use crate::process::Pid;
use sm_machine::cpu::PageFaultInfo;
use sm_machine::pte::Frame;
use sm_machine::CfiEvent;

/// Outcome of [`ProtectionEngine::on_protection_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Not the engine's fault to handle; generic handling continues
    /// (usually ending in SIGSEGV).
    Unhandled,
    /// The engine serviced the fault (e.g. performed a TLB reload); restart
    /// the faulting instruction.
    Handled,
}

/// Outcome of [`ProtectionEngine::on_invalid_opcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdOutcome {
    /// A genuine illegal instruction; deliver SIGILL.
    Unhandled,
    /// The engine detected and *absorbed* the event (observe/forensics
    /// response modes); resume the process.
    Resume,
    /// The engine detected injected-code execution and the response policy
    /// says the process must not continue (break mode). The kernel
    /// transfers to the process's recovery handler if one is registered
    /// (the paper's proposed recovery mode) and otherwise delivers SIGILL.
    Terminate,
}

/// Outcome of [`ProtectionEngine::on_control_flow`]. Variants are ordered
/// weakest to strongest, so composed engines can take the `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CfiOutcome {
    /// The transfer is legitimate (or the engine does not police this
    /// kind); execution continues with no cost charged.
    Allow,
    /// A violation was detected but the response policy absorbs it
    /// (observe/forensics modes); execution continues.
    Logged,
    /// A violation was detected and the response policy says the process
    /// must not continue (break mode). The kernel transfers to the
    /// process's recovery handler if one is registered and otherwise
    /// delivers SIGSEGV — the software analogue of CET's `#CP` fault.
    Terminate,
}

/// Kernel patch points for a memory-protection scheme.
///
/// Every hook receives the [`System`] (machine + processes + fs + logs) so
/// it can manipulate pagetables, TLBs and process state; engines keep their
/// own per-process bookkeeping keyed by [`Pid`].
///
/// `Send` is a supertrait so whole kernels can move between threads: the
/// fleet simulator drives independent kernel cells from a worker pool, and
/// engines are per-kernel plain data with no shared interior state.
pub trait ProtectionEngine: Send {
    /// Human-readable engine name (used in reports).
    fn name(&self) -> &'static str;

    /// Downcasting support, so harnesses can read engine statistics back
    /// out of a running [`crate::kernel::Kernel`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// A region `[start, end)` of `pid` was mapped eagerly (program load,
    /// library load, file-backed mmap). The ELF-loader patch point
    /// (paper §5.1): split or NX-mark the pages here.
    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let _ = (sys, pid, start, end);
    }

    /// A single page was demand-mapped at `vaddr` (paper §5.4: "the demand
    /// paging system was modified to allocate two pages instead of one").
    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        let _ = (sys, pid, vaddr);
    }

    /// A protection (present-entry) page fault the generic handler cannot
    /// explain: the page-fault-handler patch point (paper §5.2,
    /// Algorithm 1).
    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        let _ = (sys, pid, pf);
        FaultOutcome::Unhandled
    }

    /// Single-step trap with [`crate::process::Process::pending_step_addr`]
    /// set: the debug-interrupt-handler patch point (paper §5.3,
    /// Algorithm 2). Return `true` if consumed.
    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        let _ = (sys, pid);
        false
    }

    /// Invalid-opcode trap at `eip` — where split memory *detects* injected
    /// code about to run (paper §4.5, Algorithm 3).
    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        let _ = (sys, pid, eip, opcode);
        UdOutcome::Unhandled
    }

    /// Whether the machine should report retired control-flow transfers
    /// ([`sm_machine::Trap::ControlFlow`]) to this engine. Only the
    /// shadow-stack/CFI engine pays for the event stream; everything else
    /// keeps the machine's zero-cost default.
    fn wants_cfi_events(&self) -> bool {
        false
    }

    /// A control-flow transfer (`call`/`ret`/indirect jump) retired while
    /// [`ProtectionEngine::wants_cfi_events`] was set: the shadow-stack /
    /// coarse-CFI check point (CET's `#CP` analogue, raised *after* the
    /// transfer the way the hardware checks the retiring `ret`).
    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        let _ = (sys, pid, ev);
        CfiOutcome::Allow
    }

    /// A COW break copied the page at `vaddr` into `new_frame` (or kept it,
    /// if the refcount had dropped to one). The memory-management patch
    /// point (paper §5.4).
    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        let _ = (sys, pid, vaddr, new_frame);
    }

    /// `parent` forked `child` (address space already COW-copied).
    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        let _ = (sys, parent, child);
    }

    /// `[start, end)` of `pid` is about to be unmapped (`munmap`).
    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let _ = (sys, pid, start, end);
    }

    /// `pid`'s address space is about to be torn down (exit or execve).
    /// "On program termination, any split pages must be freed specially to
    /// ensure that both physical pages get put back" (paper §5.4).
    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        let _ = (sys, pid);
    }

    /// A dynamic or shared library is about to be mapped: verify it
    /// (paper §4.3's DigSig-style check). Returning `Err` aborts the load.
    ///
    /// # Errors
    ///
    /// An error string describing why verification failed.
    fn verify_library(
        &mut self,
        sys: &mut System,
        pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        let _ = (sys, pid, image);
        Ok(())
    }

    /// The kernel needs to place *legitimate* executable bytes into user
    /// memory (the signal-return trampoline on the stack — the mixed-page
    /// case of paper §2). The default writes through the data path, then
    /// lets the engine react in [`ProtectionEngine::on_user_code_written`].
    ///
    /// # Errors
    ///
    /// Propagates a page fault if the target is unmapped.
    fn write_user_code(
        &mut self,
        sys: &mut System,
        pid: Pid,
        vaddr: u32,
        bytes: &[u8],
    ) -> Result<(), PageFaultInfo> {
        sys.machine.copy_to_user(vaddr, bytes)?;
        self.on_user_code_written(sys, pid, vaddr, bytes);
        Ok(())
    }

    /// `bytes` of kernel-emitted code were just copied to `vaddr` through
    /// the data path: the split-memory engine mirrors them onto the code
    /// frames, execute-disable exempts the pages, the shadow stack pushes
    /// the trampoline.
    fn on_user_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        let _ = (sys, pid, vaddr, bytes);
    }

    /// Serialize the engine's internal bookkeeping (split tables, counters)
    /// for a system snapshot ([`crate::snapshot`]). Stateless engines keep
    /// the default empty encoding.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore bookkeeping previously produced by
    /// [`ProtectionEngine::snapshot_state`] on a freshly constructed engine
    /// of the same kind.
    ///
    /// # Errors
    ///
    /// A description of the malformed payload. The default accepts only the
    /// empty encoding its `snapshot_state` produces.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "engine '{}' carries no state but snapshot has {} bytes",
                self.name(),
                bytes.len()
            ))
        }
    }
}

/// The unprotected baseline: every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEngine;

impl ProtectionEngine for NullEngine {
    fn name(&self) -> &'static str {
        "unprotected"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
