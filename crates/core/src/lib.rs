//! Split memory: a virtual Harvard architecture that prevents code
//! injection attacks (Riley, Jiang & Xu — DSN'07 / IEEE TDSC 7(4), 2010).
//!
//! This crate is the paper's contribution, implemented against the
//! `sm-machine` simulator and the `sm-kernel` mini-OS:
//!
//! * [`engine::SplitMemEngine`] — the stand-alone software-only protection:
//!   every protected virtual page is backed by *two* physical frames, and
//!   the x86 split instruction/data TLBs are deliberately desynchronised so
//!   instruction fetches and data accesses resolve to different frames.
//!   Injected bytes land on the data frame and can never be fetched.
//! * Response modes ([`sm_kernel::events::ResponseMode`]): **break**
//!   (process crashes on the empty code frame), **observe** (log, lock the
//!   page to the data frame, let the attack run — honeypot style),
//!   **forensics** (dump EIP + shellcode, optionally substitute forensic
//!   shellcode).
//! * [`nx::NxEngine`] — the execute-disable-bit baseline (DEP/PAGEEXEC),
//!   including its mixed-page blind spot.
//! * [`shadow::ShadowStackEngine`] — shadow stack + coarse CFI against
//!   code reuse, which split memory and NX do not stop.
//! * [`stack::EngineStack`] — engines composed as ordered layers: NX for
//!   clean pages + splitting for mixed pages or a configurable random
//!   fraction (the paper's combined mode and Fig. 9), optionally under the
//!   shadow stack. [`stack::find`] reaches a layer from outside.
//! * [`verify::Verifier`] — DigSig-style load-time library signing over an
//!   in-crate SHA-256 ([`sha256`]).
//! * [`forensics::fingerprint`] — §4.5.3's "shellcode analysis" and
//!   "attack fingerprinting based on memory contents": digest, sled
//!   length, disassembly, syscall extraction, behavioural class.
//!
//! # Example: foiling an injection
//!
//! ```
//! use sm_core::engine::{SplitMemConfig, SplitMemEngine};
//! use sm_kernel::events::Event;
//! use sm_kernel::userlib::ProgramBuilder;
//! use sm_kernel::Kernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A program that jumps straight into bytes living in its data segment
//! // (the simplest possible "injected code").
//! let prog = ProgramBuilder::new("/bin/victim")
//!     .code("_start: mov eax, payload\n jmp eax")
//!     .data("payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
//!     .build()?;
//! let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
//! let pid = k.spawn(&prog.image)?;
//! k.run(10_000_000);
//! // The payload (exit(42)) never ran: the fetch was routed to the empty
//! // code frame and the process crashed instead.
//! assert_ne!(k.sys.proc(pid).exit_code, Some(42));
//! assert!(k.sys.events.iter().any(|e| matches!(e, Event::AttackDetected { .. })));
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod forensics;
pub mod invariants;
pub mod nx;
pub mod setup;
pub mod shadow;
pub mod split;
pub mod stack;
pub mod verify;

pub use sm_machine::sha256;

pub use engine::{SplitMemConfig, SplitMemEngine};
pub use nx::NxEngine;
pub use setup::Protection;
pub use shadow::{ShadowStackEngine, ShadowStats};
pub use split::{SplitPolicy, SplitStats};
pub use stack::{find, EngineStack};
pub use verify::Verifier;

#[cfg(test)]
mod tests {
    use super::*;
    use sm_kernel::engine::NullEngine;
    use sm_kernel::events::{Event, ResponseMode};
    use sm_kernel::kernel::{Kernel, KernelConfig};
    use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
    use sm_kernel::Pid;
    use sm_machine::MachineConfig;

    /// exit(42) shellcode — x86-identical encoding (paper §6.1.3 shape).
    const SHELLCODE_EXIT42: &str =
        ".byte 0xbb, 0x2a, 0x00, 0x00, 0x00, 0xb8, 0x01, 0x00, 0x00, 0x00, 0xcd, 0x80";

    /// A victim that jumps directly into bytes stored in its data segment.
    fn jump_to_data_victim() -> BuiltProgram {
        ProgramBuilder::new("/bin/victim")
            .code("_start:\n mov eax, payload\n jmp eax")
            .data(&format!("payload: {SHELLCODE_EXIT42}"))
            .build()
            .unwrap()
    }

    /// A victim that *copies* its payload to a stack buffer at runtime and
    /// jumps there — a true injection: the bytes arrive as data writes.
    fn inject_to_stack_victim() -> BuiltProgram {
        ProgramBuilder::new("/bin/victim2")
            .code(
                "_start:
                    sub esp, 64
                    mov edi, esp
                    mov esi, payload
                    mov ecx, 12
                    call memcpy
                    mov eax, esp
                    jmp eax",
            )
            .data(&format!("payload: {SHELLCODE_EXIT42}"))
            .build()
            .unwrap()
    }

    fn run_with(
        engine: Box<dyn sm_kernel::engine::ProtectionEngine>,
        prog: &BuiltProgram,
    ) -> (Kernel, Pid) {
        let mut k = Kernel::with_engine(engine);
        let pid = k.spawn(&prog.image).expect("spawn");
        k.run(20_000_000);
        (k, pid)
    }

    #[test]
    fn unprotected_attack_succeeds() {
        for prog in [jump_to_data_victim(), inject_to_stack_victim()] {
            let (k, pid) = run_with(Box::new(NullEngine), &prog);
            assert_eq!(k.sys.proc(pid).exit_code, Some(42), "{}", prog.image.name);
        }
    }

    #[test]
    fn split_memory_foils_both_attacks_in_break_mode() {
        for prog in [jump_to_data_victim(), inject_to_stack_victim()] {
            let (k, pid) = run_with(
                Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
                &prog,
            );
            assert_ne!(k.sys.proc(pid).exit_code, Some(42), "{}", prog.image.name);
            let det = k.sys.events.first_detection();
            assert!(det.is_some(), "no detection for {}", prog.image.name);
        }
    }

    #[test]
    fn benign_programs_run_unchanged_under_split_memory() {
        let prog = ProgramBuilder::new("/bin/work")
            .code(
                "_start:
                    mov ecx, 200
                    xor eax, eax
                loop_top:
                    add eax, ecx
                    dec ecx
                    jnz loop_top
                    mov ebx, eax     ; 20100 mod 256 = 132... use compare
                    cmp eax, 20100
                    je good
                    mov ebx, 1
                    call exit
                good:
                    mov esi, okmsg
                    call print
                    mov ebx, 0
                    call exit",
            )
            .data("okmsg: .asciz \"sum ok\"")
            .build()
            .unwrap();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
            &prog,
        );
        assert_eq!(k.sys.proc(pid).exit_code, Some(0));
        assert_eq!(k.sys.proc(pid).output_string(), "sum ok");
    }

    #[test]
    fn observe_mode_logs_then_lets_the_attack_run() {
        let prog = inject_to_stack_victim();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Observe)),
            &prog,
        );
        // Attack proceeds to completion (exit 42)...
        assert_eq!(k.sys.proc(pid).exit_code, Some(42));
        // ...but was detected first, with the payload captured.
        match k.sys.events.first_detection() {
            Some(Event::AttackDetected {
                mode, shellcode, ..
            }) => {
                assert_eq!(*mode, ResponseMode::Observe);
                assert_eq!(&shellcode[..2], &[0xbb, 0x2a]);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn forensics_mode_dumps_shellcode_and_substitutes_payload() {
        let prog = inject_to_stack_victim();
        let mut cfg = SplitMemConfig {
            response: ResponseMode::Forensics,
            ..SplitMemConfig::default()
        };
        // The paper's forensic shellcode: exit(0).
        cfg.forensic_shellcode = Some(b"\xbb\x00\x00\x00\x00\xb8\x01\x00\x00\x00\xcd\x80".to_vec());
        let (k, pid) = run_with(Box::new(SplitMemEngine::new(cfg)), &prog);
        // Process exits *gracefully* with 0 — the forensic payload ran
        // instead of the attacker's exit(42).
        assert_eq!(k.sys.proc(pid).exit_code, Some(0));
        match k.sys.events.first_detection() {
            Some(Event::AttackDetected { shellcode, .. }) => {
                assert_eq!(
                    &shellcode[..12],
                    b"\xbb\x2a\x00\x00\x00\xb8\x01\x00\x00\x00\xcd\x80"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forensics_without_payload_terminates_after_dump() {
        let prog = jump_to_data_victim();
        let cfg = SplitMemConfig {
            response: ResponseMode::Forensics,
            ..SplitMemConfig::default()
        };
        let (k, pid) = run_with(Box::new(SplitMemEngine::new(cfg)), &prog);
        assert_ne!(k.sys.proc(pid).exit_code, Some(42));
        assert!(k.sys.events.first_detection().is_some());
    }

    #[test]
    fn recovery_handler_gets_control_in_break_mode() {
        // The paper's proposed recovery mode (§4.5): the application
        // registers a callback; on detection the kernel transfers there.
        let prog = ProgramBuilder::new("/bin/recover")
            .code(
                "_start:
                    mov eax, SYS_REGISTER_RECOVERY
                    mov ebx, recovered
                    int 0x80
                    mov eax, payload
                    jmp eax
                recovered:
                    mov esi, msg
                    call print
                    mov ebx, 7
                    call exit",
            )
            .data(&format!(
                "payload: {SHELLCODE_EXIT42}\nmsg: .asciz \"recovered\""
            ))
            .build()
            .unwrap();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
            &prog,
        );
        assert_eq!(k.sys.proc(pid).exit_code, Some(7));
        assert_eq!(k.sys.proc(pid).output_string(), "recovered");
        assert!(k
            .sys
            .events
            .iter()
            .any(|e| matches!(e, Event::RecoveryEntered { .. })));
    }

    #[test]
    fn nx_engine_blocks_plain_injection() {
        let prog = inject_to_stack_victim();
        let mut k = Kernel::new(
            MachineConfig {
                nx_enabled: true,
                ..MachineConfig::default()
            },
            KernelConfig::default(),
            Box::new(NxEngine::new()),
        );
        let pid = k.spawn(&prog.image).unwrap();
        k.run(20_000_000);
        assert_ne!(k.sys.proc(pid).exit_code, Some(42));
        assert!(k.sys.events.first_detection().is_some());
    }

    #[test]
    fn nx_engine_cannot_protect_mixed_pages_but_split_can() {
        // The paper's motivating gap (§2): code and data on one page.
        let mixed = ProgramBuilder::new("/bin/jitlike")
            .mixed_segment()
            .code(
                "_start:
                    mov eax, payload
                    jmp eax
                payload: .byte 0xbb, 0x2a, 0x00, 0x00, 0x00, 0xb8, 0x01, 0x00, 0x00, 0x00, 0xcd, 0x80",
            )
            .build()
            .unwrap();
        // NX: the page must stay executable → attack succeeds.
        let mut k = Kernel::new(
            MachineConfig {
                nx_enabled: true,
                ..MachineConfig::default()
            },
            KernelConfig::default(),
            Box::new(NxEngine::new()),
        );
        let pid = k.spawn(&mixed.image).unwrap();
        k.run(20_000_000);
        assert_eq!(
            k.sys.proc(pid).exit_code,
            Some(42),
            "NX unexpectedly stopped a mixed-page attack"
        );
        // Split memory: data on the page is unfetchable → wait: the payload
        // here was *loaded* as part of the image, so it legitimately lives
        // on the code frame too and still runs. Inject at runtime instead.
        let mixed_inject = ProgramBuilder::new("/bin/jitlike2")
            .mixed_segment()
            .code(
                "_start:
                    sub esp, 64
                    mov edi, buf
                    mov esi, payload
                    mov ecx, 12
                    call memcpy
                    mov eax, buf
                    jmp eax
                payload: .byte 0xbb, 0x2a, 0x00, 0x00, 0x00, 0xb8, 0x01, 0x00, 0x00, 0x00, 0xcd, 0x80
                buf: .space 16",
            )
            .build()
            .unwrap();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
            &mixed_inject,
        );
        assert_ne!(k.sys.proc(pid).exit_code, Some(42));
        // And under NX the same runtime injection on the mixed page works:
        let mut k = Kernel::new(
            MachineConfig {
                nx_enabled: true,
                ..MachineConfig::default()
            },
            KernelConfig::default(),
            Box::new(NxEngine::new()),
        );
        let pid = k.spawn(&mixed_inject.image).unwrap();
        k.run(20_000_000);
        assert_eq!(k.sys.proc(pid).exit_code, Some(42));
    }

    #[test]
    fn combined_engine_splits_only_mixed_pages() {
        let clean = ProgramBuilder::new("/bin/clean")
            .code("_start: mov ebx, 0\n call exit")
            .data("x: .word 1")
            .build()
            .unwrap();
        let mut k = Protection::Combined(ResponseMode::Break).kernel(KernelConfig::default());
        let pid = k.spawn(&clean.image).unwrap();
        // Nothing mixed → nothing split, but data pages are NX-marked.
        let split = find::<SplitMemEngine>(k.engine.as_ref()).expect("split layer");
        assert!(split.table(pid).is_none_or(|t| t.is_empty()));
        let nx = find::<NxEngine>(k.engine.as_ref()).expect("nx layer");
        assert!(nx.stats.pages_marked > 0);
        k.run(10_000_000);
        assert_eq!(k.sys.proc(pid).exit_code, Some(0));
    }

    #[test]
    fn library_verification_rejects_tampering() {
        let verifier = Verifier::new(b"system-key".to_vec());
        // A signed library.
        let mut lib = ProgramBuilder::new("/lib/libok.so")
            .without_stdlib()
            .code("libfn: ret")
            .build()
            .unwrap()
            .image;
        lib.segments[0].vaddr = 0x4000_0000;
        verifier.sign(&mut lib);
        // A tampered copy.
        let mut evil = lib.clone();
        evil.segments[0].data[0] = 0xCC;

        let cfg = SplitMemConfig {
            verifier: Some(verifier),
            ..SplitMemConfig::default()
        };
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(cfg)));
        k.sys.fs.install("/lib/libok.so", lib.to_bytes());
        k.sys.fs.install("/lib/libevil.so", evil.to_bytes());

        let good = ProgramBuilder::new("/bin/good")
            .code("_start: mov ebx, 0\n call exit")
            .lib("/lib/libok.so")
            .build()
            .unwrap();
        assert!(k.spawn(&good.image).is_ok());

        let bad = ProgramBuilder::new("/bin/bad")
            .code("_start: mov ebx, 0\n call exit")
            .lib("/lib/libevil.so")
            .build()
            .unwrap();
        match k.spawn(&bad.image) {
            Err(sm_kernel::SpawnError::VerificationFailed(_)) => {}
            other => panic!("expected verification failure, got {other:?}"),
        }
        assert!(k.sys.events.iter().any(|e| matches!(
            e,
            Event::Library {
                verified: false,
                ..
            }
        )));
    }

    #[test]
    fn fork_and_cow_keep_split_pages_isolated() {
        // Parent forks; child writes to a split data page, then executes
        // cleanly; parent's copy is unaffected.
        let prog = ProgramBuilder::new("/bin/forker")
            .code(
                "_start:
                    mov eax, SYS_FORK
                    int 0x80
                    cmp eax, 0
                    je child
                    ; parent: wait for child, then check its own value
                    mov ebx, eax
                    mov eax, SYS_WAITPID
                    mov ecx, 0
                    int 0x80
                    mov eax, [shared]
                    cmp eax, 1111
                    jne bad
                    mov ebx, 0
                    call exit
                child:
                    mov dword [shared], 2222
                    mov eax, [shared]
                    cmp eax, 2222
                    jne bad
                    mov ebx, 0
                    call exit
                bad:
                    mov ebx, 1
                    call exit",
            )
            .data("shared: .word 1111")
            .build()
            .unwrap();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
            &prog,
        );
        assert_eq!(
            k.sys.proc(pid).exit_code,
            Some(0),
            "out: {}",
            k.sys.proc(pid).output_string()
        );
    }

    #[test]
    fn split_frames_are_freed_on_exit() {
        let prog = jump_to_data_victim();
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)));
        let free0 = k.sys.machine.phys.allocator.free_count();
        let pid = k.spawn(&prog.image).unwrap();
        k.run(20_000_000);
        // The process is a zombie: reap it by removing (tests may do this
        // directly; real parents use waitpid).
        k.sys.procs.remove(&pid.0);
        assert_eq!(
            k.sys.machine.phys.allocator.free_count(),
            free0,
            "leaked frames (split halves not freed — paper §5.4 case)"
        );
    }

    #[test]
    fn signal_handlers_work_under_split_memory() {
        // The trampoline lives on the (split) stack page: the mixed-page
        // kernel case of §5.5. The handler must actually run and return.
        let prog = ProgramBuilder::new("/bin/sig")
            .code(
                "_start:
                    mov eax, SYS_SIGNAL
                    mov ebx, 10          ; SIGUSR1
                    mov ecx, handler
                    int 0x80
                    mov eax, SYS_GETPID
                    int 0x80
                    mov ecx, 10
                    mov ebx, eax
                    mov eax, SYS_KILL
                    int 0x80             ; signal self
                    mov eax, [flag]
                    cmp eax, 77
                    jne bad
                    mov ebx, 0
                    call exit
                bad:
                    mov ebx, 1
                    call exit
                handler:
                    mov dword [flag], 77
                    ret",
            )
            .data("flag: .word 0")
            .build()
            .unwrap();
        let (k, pid) = run_with(
            Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)),
            &prog,
        );
        assert_eq!(k.sys.proc(pid).exit_code, Some(0));
    }
}
