//! A forwarding [`ProtectionEngine`] that times every hook.
//!
//! The wrapper adds no behaviour: each method calls the inner engine with
//! the same arguments and returns its result. `as_any` also forwards, so
//! code that downcasts the kernel's engine (the invariant checker, engine
//! statistics readers) still finds the inner engine. Hook counts and host
//! nanoseconds go to a shared [`HookTimes`], read after the run.

use sm_kernel::engine::{CfiOutcome, FaultOutcome, ProtectionEngine, UdOutcome};
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_machine::cpu::PageFaultInfo;
use sm_machine::pte::Frame;
use sm_machine::CfiEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed hooks, in report order.
pub const HOOKS: [&str; 10] = [
    "region_mapped",
    "page_mapped",
    "protection_fault",
    "debug_trap",
    "invalid_opcode",
    "control_flow",
    "cow_copied",
    "fork",
    "unmap",
    "teardown",
];

const REGION_MAPPED: usize = 0;
const PAGE_MAPPED: usize = 1;
const PROTECTION_FAULT: usize = 2;
const DEBUG_TRAP: usize = 3;
const INVALID_OPCODE: usize = 4;
const CONTROL_FLOW: usize = 5;
const COW_COPIED: usize = 6;
const FORK: usize = 7;
const UNMAP: usize = 8;
const TEARDOWN: usize = 9;

/// Calls and host nanoseconds per hook. The counters publish no other
/// data, so relaxed ordering is enough.
#[derive(Debug, Default)]
pub struct HookTimes {
    calls: [AtomicU64; HOOKS.len()],
    nanos: [AtomicU64; HOOKS.len()],
}

impl HookTimes {
    fn add(&self, hook: usize, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[hook].fetch_add(1, Ordering::Relaxed);
        self.nanos[hook].fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, seconds)` per hook, in [`HOOKS`] order.
    pub fn read(&self) -> [(u64, f64); HOOKS.len()] {
        std::array::from_fn(|i| {
            (
                self.calls[i].load(Ordering::Relaxed),
                self.nanos[i].load(Ordering::Relaxed) as f64 * 1e-9,
            )
        })
    }
}

/// Forwards every hook to `inner`, timing the ten kernel patch points.
pub struct TimedEngine {
    inner: Box<dyn ProtectionEngine>,
    times: Arc<HookTimes>,
}

impl TimedEngine {
    /// Wrap `inner`, adding into `times`.
    pub fn new(inner: Box<dyn ProtectionEngine>, times: Arc<HookTimes>) -> TimedEngine {
        TimedEngine { inner, times }
    }
}

impl ProtectionEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let t = Instant::now();
        self.inner.on_region_mapped(sys, pid, start, end);
        self.times.add(REGION_MAPPED, t);
    }

    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        let t = Instant::now();
        self.inner.on_page_mapped(sys, pid, vaddr);
        self.times.add(PAGE_MAPPED, t);
    }

    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        let t = Instant::now();
        let out = self.inner.on_protection_fault(sys, pid, pf);
        self.times.add(PROTECTION_FAULT, t);
        out
    }

    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        let t = Instant::now();
        let out = self.inner.on_debug_trap(sys, pid);
        self.times.add(DEBUG_TRAP, t);
        out
    }

    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        let t = Instant::now();
        let out = self.inner.on_invalid_opcode(sys, pid, eip, opcode);
        self.times.add(INVALID_OPCODE, t);
        out
    }

    fn wants_cfi_events(&self) -> bool {
        self.inner.wants_cfi_events()
    }

    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        let t = Instant::now();
        let out = self.inner.on_control_flow(sys, pid, ev);
        self.times.add(CONTROL_FLOW, t);
        out
    }

    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        let t = Instant::now();
        self.inner.on_cow_copied(sys, pid, vaddr, new_frame);
        self.times.add(COW_COPIED, t);
    }

    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        let t = Instant::now();
        self.inner.on_fork(sys, parent, child);
        self.times.add(FORK, t);
    }

    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let t = Instant::now();
        self.inner.on_unmap(sys, pid, start, end);
        self.times.add(UNMAP, t);
    }

    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        let t = Instant::now();
        self.inner.on_teardown(sys, pid);
        self.times.add(TEARDOWN, t);
    }

    fn verify_library(
        &mut self,
        sys: &mut System,
        pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        self.inner.verify_library(sys, pid, image)
    }

    fn write_user_code(
        &mut self,
        sys: &mut System,
        pid: Pid,
        vaddr: u32,
        bytes: &[u8],
    ) -> Result<(), PageFaultInfo> {
        self.inner.write_user_code(sys, pid, vaddr, bytes)
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::invariants;
    use sm_core::setup::Protection;
    use sm_kernel::events::ResponseMode;
    use sm_kernel::kernel::KernelConfig;
    use sm_kernel::snapshot;
    use sm_machine::TlbPreset;
    use sm_workloads::httpd;
    use sm_workloads::unixbench::{unixbench_program, UnixbenchTest};

    /// Everything a run produces that the wrapper must leave unchanged.
    #[derive(Debug, PartialEq, Eq)]
    struct Outputs {
        fingerprint: String,
        host_caches: String,
        violations: String,
        snapshot: Vec<u8>,
        trace: String,
    }

    fn run(p: &Protection, times: Option<Arc<HookTimes>>) -> Outputs {
        let kcfg = KernelConfig {
            trace: sm_trace::mask::ALL,
            ..KernelConfig::default()
        };
        let mut k = p.kernel_on(TlbPreset::default(), kcfg);
        if let Some(times) = times {
            let inner = std::mem::replace(&mut k.engine, Box::new(sm_kernel::engine::NullEngine));
            k.engine = Box::new(TimedEngine::new(inner, times));
        }
        let images = [
            unixbench_program(UnixbenchTest::PipeContextSwitch, 40).image,
            unixbench_program(UnixbenchTest::Spawn, 20).image,
            httpd::server_program(4096, 5).image,
            httpd::client_program(4096, 5).image,
            crate::work::patcher(7),
        ];
        for img in &images {
            k.spawn(img).expect("test guest spawns");
        }
        // Slices, so the checker also runs while guests are alive.
        let mut violations = Vec::new();
        let exit = loop {
            let exit = k.run(100_000);
            let done = exit != sm_kernel::kernel::RunExit::CyclesExhausted;
            violations.extend(invariants::check(&k));
            violations.extend(invariants::check_trace(&k, done));
            if done {
                break exit;
            }
        };
        let m = &k.sys.machine;
        Outputs {
            fingerprint: crate::work::fingerprint(&k, exit),
            host_caches: format!("{:?} {:?}", m.decode_cache.stats, m.superblocks.stats),
            violations: format!("{violations:?}"),
            snapshot: snapshot::save(&k),
            trace: m.tracer.to_jsonl(),
        }
    }

    #[test]
    fn wrapped_engine_changes_no_output() {
        for p in [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ] {
            let times = Arc::new(HookTimes::default());
            let plain = run(&p, None);
            let wrapped = run(&p, Some(times.clone()));
            assert_eq!(plain, wrapped, "{}", p.label());
            let calls: u64 = times.read().iter().map(|(c, _)| c).sum();
            assert!(calls > 0, "{}: no hook was timed", p.label());
        }
    }

    #[test]
    fn wrapper_forwards_downcasts_and_cfi_flag() {
        let inner = Protection::ShadowCombined(ResponseMode::Break).engine();
        let name = inner.name();
        let wants = inner.wants_cfi_events();
        let w = TimedEngine::new(inner, Arc::new(HookTimes::default()));
        assert_eq!(w.name(), name);
        assert_eq!(w.wants_cfi_events(), wants);
        assert!(w
            .as_any()
            .downcast_ref::<sm_core::shadow::ShadowCombinedEngine>()
            .is_some());
    }
}
