//! Engine stacks: protection schemes composed as ordered layers.
//!
//! The paper's combined mode (§4.2.1) is a composition — split memory
//! protects the mixed pages the execute-disable bit cannot, NX covers the
//! rest — and a shadow stack can sit on top of both to catch code reuse.
//! An [`EngineStack`] runs its layers in order under fixed rules, so a new
//! defense is one new layer rather than a new combination type:
//!
//! * lifecycle hooks (mapping, COW, fork, unmap, teardown, kernel-written
//!   code) reach every layer in order;
//! * a protection fault goes to the first layer that handles it, a debug
//!   trap to the first that consumes it, an invalid opcode to the first
//!   that does not pass on it, and library verification stops at the first
//!   error;
//! * every layer sees every control-flow event and the strongest outcome
//!   wins (`Terminate` over `Logged` over `Allow`).
//!
//! Layers learn about each other only through the pagetable: NX skips pages
//! whose PTE carries the `SPLIT` bit. [`find`] reaches a layer from the
//! outside, for harnesses that read engine state back.

use sm_kernel::engine::{CfiOutcome, FaultOutcome, ProtectionEngine, UdOutcome};
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_machine::cpu::PageFaultInfo;
use sm_machine::pte::Frame;
use sm_machine::snapshot::{Reader, Writer};
use sm_machine::CfiEvent;

/// Protection engines applied as ordered layers.
pub struct EngineStack {
    name: &'static str,
    layers: Vec<Box<dyn ProtectionEngine>>,
}

impl EngineStack {
    /// Stack `layers` (outermost first) under a report name.
    pub fn new(name: &'static str, layers: Vec<Box<dyn ProtectionEngine>>) -> EngineStack {
        EngineStack { name, layers }
    }
}

/// The engine itself if it is a `T`, else the first `T` layer of a stack
/// (searched depth-first). Forwarding wrappers that forward `as_any` are
/// seen through.
pub fn find<T: 'static>(engine: &dyn ProtectionEngine) -> Option<&T> {
    let any = engine.as_any();
    if let Some(t) = any.downcast_ref::<T>() {
        return Some(t);
    }
    any.downcast_ref::<EngineStack>()?
        .layers
        .iter()
        .find_map(|layer| find::<T>(layer.as_ref()))
}

impl ProtectionEngine for EngineStack {
    fn name(&self) -> &'static str {
        self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        for layer in &mut self.layers {
            layer.on_region_mapped(sys, pid, start, end);
        }
    }

    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        for layer in &mut self.layers {
            layer.on_page_mapped(sys, pid, vaddr);
        }
    }

    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        for layer in &mut self.layers {
            if layer.on_protection_fault(sys, pid, pf) == FaultOutcome::Handled {
                return FaultOutcome::Handled;
            }
        }
        FaultOutcome::Unhandled
    }

    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        self.layers
            .iter_mut()
            .any(|layer| layer.on_debug_trap(sys, pid))
    }

    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        for layer in &mut self.layers {
            let out = layer.on_invalid_opcode(sys, pid, eip, opcode);
            if out != UdOutcome::Unhandled {
                return out;
            }
        }
        UdOutcome::Unhandled
    }

    fn wants_cfi_events(&self) -> bool {
        self.layers.iter().any(|layer| layer.wants_cfi_events())
    }

    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        self.layers
            .iter_mut()
            .map(|layer| layer.on_control_flow(sys, pid, ev))
            .max()
            .unwrap_or(CfiOutcome::Allow)
    }

    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        for layer in &mut self.layers {
            layer.on_cow_copied(sys, pid, vaddr, new_frame);
        }
    }

    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        for layer in &mut self.layers {
            layer.on_fork(sys, parent, child);
        }
    }

    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        for layer in &mut self.layers {
            layer.on_unmap(sys, pid, start, end);
        }
    }

    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        for layer in &mut self.layers {
            layer.on_teardown(sys, pid);
        }
    }

    fn verify_library(
        &mut self,
        sys: &mut System,
        pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        for layer in &mut self.layers {
            layer.verify_library(sys, pid, image)?;
        }
        Ok(())
    }

    fn on_user_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        for layer in &mut self.layers {
            layer.on_user_code_written(sys, pid, vaddr, bytes);
        }
    }

    /// One length-prefixed section per layer, in layer order.
    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for layer in &self.layers {
            w.bytes(&layer.snapshot_state());
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let sections = self
            .layers
            .iter()
            .map(|_| r.bytes())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{} engine state: {e}", self.name))?;
        if !r.is_done() {
            return Err(format!("trailing bytes in {} engine state", self.name));
        }
        for (layer, section) in self.layers.iter_mut().zip(sections) {
            layer.restore_state(&section)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SplitMemEngine;
    use crate::nx::NxEngine;
    use crate::setup::{Protection, RunSpec};
    use sm_kernel::engine::NullEngine;
    use sm_kernel::events::ResponseMode;
    use sm_kernel::Kernel;
    use sm_machine::cpu::{Access, Privilege};
    use sm_machine::CfiKind;
    use std::sync::{Arc, Mutex};

    /// A scripted layer: fixed hook answers, and a shared log of which
    /// layer saw which hook.
    struct Probe {
        id: &'static str,
        fault: FaultOutcome,
        cfi: CfiOutcome,
        verify: Result<(), String>,
        state: Vec<u8>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Probe {
        fn new(id: &'static str, log: &Arc<Mutex<Vec<String>>>) -> Probe {
            Probe {
                id,
                fault: FaultOutcome::Unhandled,
                cfi: CfiOutcome::Allow,
                verify: Ok(()),
                state: Vec::new(),
                log: log.clone(),
            }
        }

        fn note(&self, hook: &str) {
            self.log.lock().unwrap().push(format!("{}:{hook}", self.id));
        }
    }

    impl ProtectionEngine for Probe {
        fn name(&self) -> &'static str {
            self.id
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn on_protection_fault(
            &mut self,
            _: &mut System,
            _: Pid,
            _: PageFaultInfo,
        ) -> FaultOutcome {
            self.note("fault");
            self.fault
        }

        fn on_control_flow(&mut self, _: &mut System, _: Pid, _: CfiEvent) -> CfiOutcome {
            self.note("cfi");
            self.cfi
        }

        fn verify_library(&mut self, _: &mut System, _: Pid, _: &ExecImage) -> Result<(), String> {
            self.note("verify");
            self.verify.clone()
        }

        fn snapshot_state(&self) -> Vec<u8> {
            self.state.clone()
        }

        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            self.state = bytes.to_vec();
            Ok(())
        }
    }

    fn sys() -> System {
        Kernel::with_engine(Box::new(NullEngine)).sys
    }

    fn taken(log: &Arc<Mutex<Vec<String>>>) -> Vec<String> {
        std::mem::take(&mut *log.lock().unwrap())
    }

    #[test]
    fn first_handled_fault_stops_the_walk() {
        let log = Arc::default();
        let mut b = Probe::new("b", &log);
        b.fault = FaultOutcome::Handled;
        let mut stack = EngineStack::new(
            "t",
            vec![
                Box::new(Probe::new("a", &log)),
                Box::new(b),
                Box::new(Probe::new("c", &log)),
            ],
        );
        let pf = PageFaultInfo {
            addr: 0x1000,
            access: Access::Fetch,
            privilege: Privilege::User,
            present: true,
        };
        let out = stack.on_protection_fault(&mut sys(), Pid(1), pf);
        assert_eq!(out, FaultOutcome::Handled);
        assert_eq!(taken(&log), ["a:fault", "b:fault"]);
        let mut none = EngineStack::new("t", vec![Box::new(Probe::new("a", &log))]);
        let out = none.on_protection_fault(&mut sys(), Pid(1), pf);
        assert_eq!(out, FaultOutcome::Unhandled);
    }

    #[test]
    fn strongest_cfi_outcome_wins_and_every_layer_sees_the_event() {
        let log = Arc::default();
        let ev = CfiEvent {
            kind: CfiKind::Ret,
            target: 0x1005,
            link: 0x1005,
        };
        for (outcomes, want) in [
            ([CfiOutcome::Allow, CfiOutcome::Allow], CfiOutcome::Allow),
            ([CfiOutcome::Logged, CfiOutcome::Allow], CfiOutcome::Logged),
            (
                [CfiOutcome::Terminate, CfiOutcome::Logged],
                CfiOutcome::Terminate,
            ),
            (
                [CfiOutcome::Logged, CfiOutcome::Terminate],
                CfiOutcome::Terminate,
            ),
        ] {
            let layers = outcomes
                .iter()
                .zip(["a", "b"])
                .map(|(&cfi, id)| {
                    let mut p = Probe::new(id, &log);
                    p.cfi = cfi;
                    Box::new(p) as Box<dyn ProtectionEngine>
                })
                .collect();
            let mut stack = EngineStack::new("t", layers);
            assert_eq!(stack.on_control_flow(&mut sys(), Pid(1), ev), want);
            assert_eq!(taken(&log), ["a:cfi", "b:cfi"]);
        }
    }

    #[test]
    fn library_verification_stops_at_the_first_error() {
        let log = Arc::default();
        let mut a = Probe::new("a", &log);
        a.verify = Err("unsigned".into());
        let mut stack = EngineStack::new(
            "t",
            vec![
                Box::new(Probe::new("ok", &log)),
                Box::new(a),
                Box::new(Probe::new("c", &log)),
            ],
        );
        let image = sm_kernel::userlib::ProgramBuilder::new("/lib/x.so")
            .without_stdlib()
            .code("f: ret")
            .build()
            .unwrap()
            .image;
        let out = stack.verify_library(&mut sys(), Pid(1), &image);
        assert_eq!(out, Err("unsigned".to_string()));
        assert_eq!(taken(&log), ["ok:verify", "a:verify"]);
    }

    #[test]
    fn kernel_written_code_is_copied_once() {
        // A two-layer stack must charge exactly what its one copying layer
        // charges alone: the bytes go through the data path once, then
        // each layer reacts.
        let prog = sm_kernel::userlib::ProgramBuilder::new("/bin/w")
            .code("_start: jmp _start")
            .data("buf: .space 64")
            .build()
            .unwrap();
        let run = |engine: Box<dyn ProtectionEngine>| {
            let mconfig = RunSpec::new(Protection::Nx).machine_config();
            let mut k = Kernel::new(mconfig, Default::default(), engine);
            let pid = k.spawn(&prog.image).unwrap();
            k.run(1_000); // schedule the guest: its address space is live
            let dtlb = |k: &Kernel| k.sys.machine.dtlb.stats.hits + k.sys.machine.dtlb.stats.misses;
            let (c0, a0) = (k.sys.machine.cycles, dtlb(&k));
            k.engine
                .write_user_code(&mut k.sys, pid, prog.sym("buf"), &[0xC3; 16])
                .unwrap();
            let nx = find::<NxEngine>(k.engine.as_ref()).unwrap().stats;
            (k.sys.machine.cycles - c0, dtlb(&k) - a0, nx)
        };
        let single = run(Box::new(NxEngine::with_response(ResponseMode::Break)));
        let stacked = run(Box::new(EngineStack::new(
            "t",
            vec![
                Box::new(crate::shadow::ShadowStackEngine::new(ResponseMode::Break)),
                Box::new(NxEngine::new()),
            ],
        )));
        assert!(single.1 >= 16, "the write went through the D-TLB");
        assert_eq!(single.2.trampoline_exemptions, 1);
        assert_eq!(stacked, single);
    }

    /// A forwarder in the style of a timing wrapper: everything,
    /// `as_any` included, goes to the inner engine.
    struct Forwarder(Box<dyn ProtectionEngine>);

    impl ProtectionEngine for Forwarder {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self.0.as_any()
        }
    }

    #[test]
    fn find_sees_through_stacks_and_forwarders() {
        let stack = Protection::ShadowCombined(ResponseMode::Break).engine();
        assert!(find::<SplitMemEngine>(stack.as_ref()).is_some());
        assert!(find::<NxEngine>(stack.as_ref()).is_some());
        assert!(find::<EngineStack>(stack.as_ref()).is_some());
        let wrapped = Forwarder(stack);
        assert!(find::<crate::shadow::ShadowStackEngine>(&wrapped).is_some());
        assert!(find::<NxEngine>(&wrapped).is_some());
        let bare = Protection::SplitMem(ResponseMode::Break).engine();
        assert!(find::<SplitMemEngine>(bare.as_ref()).is_some());
        assert!(find::<NxEngine>(bare.as_ref()).is_none());
    }

    fn probe_stack(states: &[&[u8]]) -> EngineStack {
        let log = Arc::default();
        let layers = states
            .iter()
            .map(|s| {
                let mut p = Probe::new("p", &log);
                p.state = s.to_vec();
                Box::new(p) as Box<dyn ProtectionEngine>
            })
            .collect();
        EngineStack::new("t", layers)
    }

    #[test]
    fn snapshot_round_trip_gives_canonical_bytes() {
        let stack = probe_stack(&[b"shadow", b"", b"nx-state"]);
        let bytes = stack.snapshot_state();
        let mut fresh = probe_stack(&[b"", b"", b""]);
        fresh.restore_state(&bytes).unwrap();
        assert_eq!(fresh.snapshot_state(), bytes);
        // Real layers too: a busy nx+split kernel's engine state.
        let p = Protection::Combined(ResponseMode::Break);
        let mut k = RunSpec::new(p.clone()).kernel();
        let prog = sm_kernel::userlib::ProgramBuilder::new("/bin/mixed")
            .mixed_segment()
            .code("_start: mov byte [v], 7\n spin: jmp spin\n v: .byte 0")
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        k.run(50_000);
        let bytes = k.engine.snapshot_state();
        let mut fresh = p.engine();
        fresh.restore_state(&bytes).unwrap();
        assert_eq!(fresh.snapshot_state(), bytes);
    }

    #[test]
    fn malformed_state_is_an_error_not_a_panic() {
        let bytes = probe_stack(&[b"abc", b"defg"]).snapshot_state();
        // Every truncation.
        for n in 0..bytes.len() {
            assert!(probe_stack(&[b"", b""]).restore_state(&bytes[..n]).is_err());
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(probe_stack(&[b"", b""]).restore_state(&long).is_err());
        // Layer-count mismatch, both ways.
        assert!(probe_stack(&[b"", b"", b""]).restore_state(&bytes).is_err());
        assert!(probe_stack(&[b""]).restore_state(&bytes).is_err());
        // A length prefix far past the end.
        let mut huge = Writer::new();
        huge.u64(u64::MAX);
        assert!(probe_stack(&[b""])
            .restore_state(&huge.into_bytes())
            .is_err());
    }
}
