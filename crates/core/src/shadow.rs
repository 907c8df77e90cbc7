//! Shadow-stack / coarse-CFI engine — the third engine beside split
//! memory and execute-disable.
//!
//! The paper's limitations section concedes that split memory stops code
//! *injection* but not code *reuse*: return-to-libc and ROP chains execute
//! only bytes that were legitimately loaded, so neither the Algorithm-3
//! `#UD` detector nor the NX bit ever fires. This engine models the
//! hardware answer that grew out of that gap (Intel CET, and the
//! shadow-stack/CFI designs surveyed in the follow-on literature):
//!
//! * **Shadow stack** — every `call` pushes its return address onto a
//!   kernel-private per-process stack; every `ret` must pop a matching
//!   address. The match is *pop-until-found* (CET's behaviour for
//!   `longjmp`/exception unwinding): legitimate non-local exits skip
//!   frames downward, but a `ret` to an address that was never pushed —
//!   the pivot of every ROP chain — has no match anywhere and traps.
//! * **Coarse CFI** — indirect `call`/`jmp` targets must land inside a
//!   region that was mapped executable (the loader's code and library
//!   segments). A function pointer overwritten to point at the heap or
//!   stack traps at the transfer, covering the Wilander-style
//!   pointer-hijack scenarios the shadow stack alone would miss.
//!
//! The machine reports retired transfers as [`sm_machine::Trap::ControlFlow`]
//! events only when an engine opts in via `wants_cfi_events`, so the other
//! engines keep their exact cost model. Composition with split memory and
//! NX is an [`EngineStack`] layer list, the full defense-in-depth stack
//! (`Protection::ShadowCombined`).

use crate::stack::EngineStack;
use sm_kernel::engine::{CfiOutcome, ProtectionEngine};
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_machine::snapshot::{Reader, Writer};
use sm_machine::{CfiEvent, CfiKind};
use std::collections::BTreeMap;

/// Hard depth bound per process: past this the oldest entries are
/// discarded (deep recursion degrades gracefully instead of growing the
/// kernel-side stack without bound, matching a fixed-size hardware SSP
/// region).
const MAX_SHADOW_DEPTH: usize = 4096;

/// Counters for the shadow-stack/CFI engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// `call` transfers whose return address was pushed.
    pub calls_tracked: u64,
    /// `ret` transfers checked against the shadow stack.
    pub rets_checked: u64,
    /// Indirect `call`/`jmp` targets checked against the code map.
    pub indirects_checked: u64,
    /// `ret` to an address present deeper in the shadow stack: frames
    /// skipped by the pop-until-found rule (longjmp-style unwinding).
    pub frames_unwound: u64,
    /// `ret` to an address found nowhere in the shadow stack (attack).
    pub ret_mismatches: u64,
    /// Indirect transfers into non-code memory (attack).
    pub cfi_violations: u64,
    /// Trampoline addresses shadow-pushed for signal delivery.
    pub trampoline_pushes: u64,
}

impl ShadowStats {
    /// Total violations (both detector halves).
    pub fn detections(&self) -> u64 {
        self.ret_mismatches + self.cfi_violations
    }
}

/// The shadow-stack / coarse-CFI engine.
#[derive(Debug)]
pub struct ShadowStackEngine {
    /// Event counters.
    pub stats: ShadowStats,
    response: ResponseMode,
    /// Per-pid shadow stacks of pushed return addresses.
    stacks: BTreeMap<u32, Vec<u32>>,
    /// Per-pid executable regions `[start, end)`, recorded at map time.
    ranges: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl ShadowStackEngine {
    /// Create the engine with the given response policy (break traps the
    /// violating transfer; observe/forensics log it and let it stand).
    pub fn new(response: ResponseMode) -> ShadowStackEngine {
        ShadowStackEngine {
            stats: ShadowStats::default(),
            response,
            stacks: BTreeMap::new(),
            ranges: BTreeMap::new(),
        }
    }

    fn in_code(&self, pid: Pid, target: u32) -> bool {
        self.ranges
            .get(&pid.0)
            .is_some_and(|rs| rs.iter().any(|&(s, e)| s <= target && target < e))
    }

    fn push(&mut self, pid: Pid, link: u32) {
        let stack = self.stacks.entry(pid.0).or_default();
        if stack.len() >= MAX_SHADOW_DEPTH {
            stack.remove(0);
        }
        stack.push(link);
    }

    /// Record the violation and translate the response policy into a
    /// kernel outcome.
    fn violation(&mut self, sys: &mut System, pid: Pid, eip: u32) -> CfiOutcome {
        let mode = self.response;
        sys.log(Event::AttackDetected {
            pid,
            eip,
            mode,
            shellcode: Vec::new(),
        });
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
        match mode {
            ResponseMode::Break => CfiOutcome::Terminate,
            ResponseMode::Observe | ResponseMode::Forensics => CfiOutcome::Logged,
        }
    }
}

impl ProtectionEngine for ShadowStackEngine {
    fn name(&self) -> &'static str {
        "shadow-stack"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn wants_cfi_events(&self) -> bool {
        true
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        // Only executable regions are legitimate indirect-transfer
        // targets; data, heap and stack mappings stay off the map.
        let executable = sys
            .procs
            .get(&pid.0)
            .and_then(|p| p.aspace.find_vma(start))
            .is_some_and(|v| v.executable());
        if executable {
            self.ranges.entry(pid.0).or_default().push((start, end));
        }
    }

    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        match ev.kind {
            CfiKind::Call => {
                self.stats.calls_tracked += 1;
                self.push(pid, ev.link);
                CfiOutcome::Allow
            }
            CfiKind::IndirectCall => {
                self.stats.calls_tracked += 1;
                self.stats.indirects_checked += 1;
                if !self.in_code(pid, ev.target) {
                    self.stats.cfi_violations += 1;
                    return self.violation(sys, pid, ev.target);
                }
                self.push(pid, ev.link);
                CfiOutcome::Allow
            }
            CfiKind::IndirectJmp => {
                self.stats.indirects_checked += 1;
                if !self.in_code(pid, ev.target) {
                    self.stats.cfi_violations += 1;
                    return self.violation(sys, pid, ev.target);
                }
                CfiOutcome::Allow
            }
            CfiKind::Ret => {
                self.stats.rets_checked += 1;
                let stack = self.stacks.entry(pid.0).or_default();
                // Pop-until-found: a match deeper down unwinds the skipped
                // frames (longjmp); no match anywhere leaves the stack
                // untouched and traps, so observe mode keeps a coherent
                // stack while the attack proceeds under watch.
                match stack.iter().rposition(|&a| a == ev.target) {
                    Some(idx) => {
                        let skipped = stack.len() - idx - 1;
                        self.stats.frames_unwound += skipped as u64;
                        stack.truncate(idx);
                        CfiOutcome::Allow
                    }
                    None => {
                        self.stats.ret_mismatches += 1;
                        self.violation(sys, pid, ev.target)
                    }
                }
            }
        }
    }

    fn on_fork(&mut self, _sys: &mut System, parent: Pid, child: Pid) {
        let stack = self.stacks.get(&parent.0).cloned().unwrap_or_default();
        self.stacks.insert(child.0, stack);
        let ranges = self.ranges.get(&parent.0).cloned().unwrap_or_default();
        self.ranges.insert(child.0, ranges);
    }

    fn on_unmap(&mut self, _sys: &mut System, pid: Pid, start: u32, end: u32) {
        if let Some(rs) = self.ranges.get_mut(&pid.0) {
            rs.retain(|&(s, e)| e <= start || end <= s);
        }
    }

    fn on_teardown(&mut self, _sys: &mut System, pid: Pid) {
        self.stacks.remove(&pid.0);
        self.ranges.remove(&pid.0);
    }

    fn on_user_code_written(&mut self, _sys: &mut System, pid: Pid, vaddr: u32, _bytes: &[u8]) {
        // Signal delivery: the kernel seeds the handler frame so the
        // handler's `ret` lands on this trampoline — an address no `call`
        // ever pushed. CET's kernel does the matching shadow-stack push at
        // delivery; model it, or every signal return would be a false
        // positive.
        self.stats.trampoline_pushes += 1;
        self.push(pid, vaddr);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.stacks.len() as u64);
        for (&pid, stack) in &self.stacks {
            w.u32(pid);
            w.u64(stack.len() as u64);
            for &a in stack {
                w.u32(a);
            }
        }
        w.u64(self.ranges.len() as u64);
        for (&pid, ranges) in &self.ranges {
            w.u32(pid);
            w.u64(ranges.len() as u64);
            for &(s, e) in ranges {
                w.u32(s);
                w.u32(e);
            }
        }
        for v in [
            self.stats.calls_tracked,
            self.stats.rets_checked,
            self.stats.indirects_checked,
            self.stats.frames_unwound,
            self.stats.ret_mismatches,
            self.stats.cfi_violations,
            self.stats.trampoline_pushes,
        ] {
            w.u64(v);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let s = |e: sm_machine::snapshot::SnapshotError| e.to_string();
        let mut r = Reader::new(bytes);
        let nstacks = r.count(1 << 16).map_err(s)?;
        let mut stacks = BTreeMap::new();
        for _ in 0..nstacks {
            let pid = r.u32().map_err(s)?;
            let depth = r.count(MAX_SHADOW_DEPTH).map_err(s)?;
            let mut stack = Vec::with_capacity(depth);
            for _ in 0..depth {
                stack.push(r.u32().map_err(s)?);
            }
            if stacks.insert(pid, stack).is_some() {
                return Err("duplicate shadow stack pid".into());
            }
        }
        let nranges = r.count(1 << 16).map_err(s)?;
        let mut ranges = BTreeMap::new();
        for _ in 0..nranges {
            let pid = r.u32().map_err(s)?;
            let n = r.count(1 << 16).map_err(s)?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                let start = r.u32().map_err(s)?;
                let end = r.u32().map_err(s)?;
                rs.push((start, end));
            }
            if ranges.insert(pid, rs).is_some() {
                return Err("duplicate shadow range pid".into());
            }
        }
        let stats = ShadowStats {
            calls_tracked: r.u64().map_err(s)?,
            rets_checked: r.u64().map_err(s)?,
            indirects_checked: r.u64().map_err(s)?,
            frames_unwound: r.u64().map_err(s)?,
            ret_mismatches: r.u64().map_err(s)?,
            cfi_violations: r.u64().map_err(s)?,
            trampoline_pushes: r.u64().map_err(s)?,
        };
        if !r.is_done() {
            return Err("trailing bytes in shadow-stack engine state".into());
        }
        self.stacks = stacks;
        self.ranges = ranges;
        self.stats = stats;
        Ok(())
    }
}

/// The old name of the shadow-stack + split-memory + execute-disable
/// engine, kept because external code downcasts to it by this path.
pub type ShadowCombinedEngine = EngineStack;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: CfiKind, target: u32, link: u32) -> CfiEvent {
        CfiEvent { kind, target, link }
    }

    fn sys() -> System {
        sm_kernel::Kernel::with_engine(Box::new(sm_kernel::engine::NullEngine)).sys
    }

    #[test]
    fn balanced_calls_and_rets_pass() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let pid = Pid(1);
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Call, 0x2000, 0x1005)),
            CfiOutcome::Allow
        );
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Ret, 0x1005, 0x1005)),
            CfiOutcome::Allow
        );
        assert_eq!(e.stats.detections(), 0);
    }

    #[test]
    fn ret_to_unpushed_address_traps() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let pid = Pid(1);
        e.on_control_flow(&mut s, pid, ev(CfiKind::Call, 0x2000, 0x1005));
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Ret, 0xBFFF_F000, 0xBFFF_F000)),
            CfiOutcome::Terminate
        );
        assert_eq!(e.stats.ret_mismatches, 1);
        // The stack survives the mismatch (nothing was popped) so the
        // legitimate frame can still unwind.
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Ret, 0x1005, 0x1005)),
            CfiOutcome::Allow
        );
    }

    #[test]
    fn longjmp_style_unwind_is_tolerated() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let pid = Pid(1);
        for link in [0x1005, 0x1105, 0x1205] {
            e.on_control_flow(&mut s, pid, ev(CfiKind::Call, 0x2000, link));
        }
        // Non-local exit straight back to the outermost frame.
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Ret, 0x1005, 0x1005)),
            CfiOutcome::Allow
        );
        assert_eq!(e.stats.frames_unwound, 2);
        assert_eq!(e.stats.detections(), 0);
    }

    #[test]
    fn indirect_transfer_outside_code_traps() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let pid = Pid(1);
        e.ranges.insert(pid.0, vec![(0x1000, 0x3000)]);
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::IndirectCall, 0x2000, 0x1005)),
            CfiOutcome::Allow
        );
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::IndirectJmp, 0x8000_0000, 0)),
            CfiOutcome::Terminate
        );
        assert_eq!(e.stats.cfi_violations, 1);
    }

    #[test]
    fn observe_mode_logs_and_allows() {
        let mut e = ShadowStackEngine::new(ResponseMode::Observe);
        let mut s = sys();
        let pid = Pid(1);
        assert_eq!(
            e.on_control_flow(&mut s, pid, ev(CfiKind::Ret, 0xDEAD_0000, 0xDEAD_0000)),
            CfiOutcome::Logged
        );
        assert_eq!(e.stats.ret_mismatches, 1);
        assert_eq!(
            s.events
                .iter()
                .filter(|e| matches!(e, Event::AttackDetected { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn snapshot_roundtrips_stacks_ranges_and_stats() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let pid = Pid(7);
        e.ranges.insert(pid.0, vec![(0x1000, 0x3000)]);
        e.on_control_flow(&mut s, pid, ev(CfiKind::Call, 0x2000, 0x1005));
        e.on_control_flow(&mut s, pid, ev(CfiKind::IndirectCall, 0x2100, 0x1105));
        let bytes = e.snapshot_state();
        let mut fresh = ShadowStackEngine::new(ResponseMode::Break);
        fresh.restore_state(&bytes).unwrap();
        assert_eq!(fresh.stacks, e.stacks);
        assert_eq!(fresh.ranges, e.ranges);
        assert_eq!(fresh.stats, e.stats);
        // Canonical bytes: re-serializing the restored engine is identical.
        assert_eq!(fresh.snapshot_state(), bytes);
    }

    #[test]
    fn teardown_and_fork_track_process_lifetimes() {
        let mut e = ShadowStackEngine::new(ResponseMode::Break);
        let mut s = sys();
        let (parent, child) = (Pid(1), Pid(2));
        e.ranges.insert(parent.0, vec![(0x1000, 0x2000)]);
        e.on_control_flow(&mut s, parent, ev(CfiKind::Call, 0x1800, 0x1005));
        e.on_fork(&mut s, parent, child);
        assert_eq!(e.stacks[&child.0], e.stacks[&parent.0]);
        e.on_teardown(&mut s, parent);
        assert!(!e.stacks.contains_key(&parent.0));
        assert!(e.stacks.contains_key(&child.0));
    }
}
