//! System-level invariants: determinism, frame accounting, TLB-coherence
//! corner cases, and property-based checks over randomized guest inputs.

use proptest::prelude::*;
use sm_attacks::shellcode;
use sm_bench::chaos::mixed_patch_program;
use sm_core::engine::{SplitMemConfig, SplitMemEngine};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::engine::NullEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::MachineConfig;

fn echo_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/echo")
        .code(
            "_start:
                mov ebx, 0
                mov edi, buf
                mov edx, 128
                call read_line
                mov esi, buf
                call print
                mov ebx, 0
                call exit",
        )
        .data("buf: .space 128")
        .build()
        .unwrap()
}

#[test]
fn identical_runs_are_cycle_exact() {
    // The whole simulator is deterministic: same program, same seed, same
    // engine → identical cycle counts and event logs.
    let run = || {
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
        let pid = k.spawn(&echo_program().image).unwrap();
        k.sys.proc_mut(pid).input = b"determinism\n".to_vec();
        assert_eq!(k.run(50_000_000), RunExit::AllExited);
        (
            k.sys.machine.cycles,
            k.sys.events.len(),
            k.sys.proc(pid).output_string(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn no_frames_leak_across_any_engine() {
    for protection in [
        Protection::Unprotected,
        Protection::SplitMem(ResponseMode::Break),
        Protection::SplitMem(ResponseMode::Observe),
        Protection::Nx,
        Protection::Combined(ResponseMode::Break),
    ] {
        let mut k = protection.kernel(KernelConfig::default());
        let free0 = k.sys.machine.phys.allocator.free_count();
        let pid = k.spawn(&echo_program().image).unwrap();
        k.sys.proc_mut(pid).input = b"x\n".to_vec();
        k.run(50_000_000);
        k.sys.procs.remove(&pid.0); // reap
        assert_eq!(
            k.sys.machine.phys.allocator.free_count(),
            free0,
            "frames leaked under {}",
            protection.label()
        );
    }
}

/// Every configuration `Protection` can build, stacks included, keeps the
/// structural invariants while a mixed-segment guest is alive. The slice
/// stride is far below the guest's few-thousand-cycle lifetime, so the
/// checker sees its split mixed pages, not just a zombie.
#[test]
fn every_protection_keeps_invariants_on_a_live_mixed_page_guest() {
    let modes = [
        ResponseMode::Break,
        ResponseMode::Observe,
        ResponseMode::Forensics,
    ];
    let mut protections: Vec<Protection> = vec![Protection::Unprotected];
    protections.extend(modes.map(Protection::SplitMem));
    protections.extend([
        Protection::Nx,
        Protection::NxResponse(ResponseMode::Observe),
        Protection::Combined(ResponseMode::Break),
        Protection::Combined(ResponseMode::Observe),
        Protection::CombinedFraction(0.5),
        Protection::ShadowStack(ResponseMode::Break),
        Protection::ShadowCombined(ResponseMode::Break),
        Protection::ShadowCombined(ResponseMode::Observe),
    ]);
    let image = mixed_patch_program().image;
    for p in &protections {
        let mut k = p.kernel(KernelConfig::default());
        k.spawn(&image).unwrap();
        assert_eq!(invariants::check(&k), [], "after spawn under {}", p.label());
        let (exit, violations) = invariants::run_with_checks(&mut k, 10_000_000, 500);
        assert_eq!(violations, [], "while running under {}", p.label());
        assert_eq!(exit, RunExit::AllExited, "under {}", p.label());
    }
}

#[test]
fn fork_bomb_of_split_processes_balances_frames() {
    let prog = ProgramBuilder::new("/bin/forker")
        .code(
            "_start:
                mov ecx, 5
            f_loop:
                push ecx
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, 0
                int 0x80
                pop ecx
                dec ecx
                jnz f_loop
                mov ebx, 0
                call exit
            child:
                mov dword [v], 7   ; force a COW break on a split page
                mov ebx, 0
                call exit",
        )
        .data("v: .word 1")
        .build()
        .unwrap();
    let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
    let free0 = k.sys.machine.phys.allocator.free_count();
    let pid = k.spawn(&prog.image).unwrap();
    assert_eq!(k.run(200_000_000), RunExit::AllExited);
    assert_eq!(k.sys.proc(pid).exit_code, Some(0));
    k.sys.procs.remove(&pid.0);
    assert_eq!(k.sys.machine.phys.allocator.free_count(), free0);
}

#[test]
fn tlb_snapshot_survives_pte_restriction() {
    // The microarchitectural heart of the paper, asserted directly: after
    // a split-memory data reload, the D-TLB serves user accesses even
    // though the PTE is supervisor-restricted again.
    let prog = ProgramBuilder::new("/bin/touch")
        .code(
            "_start:
                mov eax, [v]      ; first touch: fault + D-TLB reload
                mov ecx, [v]      ; second touch: served by the stale TLB entry
                add eax, ecx
                mov ebx, eax
                call exit",
        )
        .data("v: .word 21")
        .build()
        .unwrap();
    let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
    let pid = k.spawn(&prog.image).unwrap();
    let data_page = prog.sym("v") & !0xFFF;
    k.run(20_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(42));
    // The engine recorded exactly one data reload for that page even
    // though it was read twice.
    let engine = sm_core::find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
    assert!(engine.stats.data_reloads >= 1);
    let _ = data_page;
}

#[test]
fn nx_and_split_disagree_only_on_mixed_pages() {
    // Same attack program, two engines, one difference: the page kind.
    let clean = |name: &str| {
        ProgramBuilder::new(name)
            .code(
                "_start:
                    mov edi, buf
                    mov esi, payload
                    mov ecx, 12
                    call memcpy
                    mov eax, buf
                    jmp eax",
            )
            .data(
                "payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80
                 buf: .space 16",
            )
            .build()
            .unwrap()
    };
    // NX stops the clean-page injection.
    let mut k = Kernel::new(
        MachineConfig {
            nx_enabled: true,
            ..MachineConfig::default()
        },
        KernelConfig::default(),
        Box::new(sm_core::nx::NxEngine::new()),
    );
    let pid = k.spawn(&clean("/bin/a").image).unwrap();
    k.run(20_000_000);
    assert_ne!(k.sys.proc(pid).exit_code, Some(42));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any line of input fed to the echo guest comes back verbatim under
    /// split memory — kernel copies and split-page reloads never corrupt
    /// user data.
    #[test]
    fn echo_is_faithful_under_split_memory(
        line in proptest::collection::vec(32u8..=126, 0..100)
    ) {
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
        let pid = k.spawn(&echo_program().image).unwrap();
        let mut input = line.clone();
        input.push(b'\n');
        k.sys.proc_mut(pid).input = input;
        prop_assert_eq!(k.run(50_000_000), RunExit::AllExited);
        prop_assert_eq!(k.sys.proc(pid).output.clone(), line);
    }

    /// Whatever bytes an attacker injects, split memory in break mode
    /// never lets them run: the victim either exits via SIGILL/SIGSEGV or
    /// (if the payload happens to be harmless) never reaches exit(42).
    #[test]
    fn arbitrary_payloads_never_execute(payload in proptest::collection::vec(any::<u8>(), 1..48)) {
        let mut full = payload.clone();
        // Terminate the payload with the marker so that *if* it ran to
        // completion it would exit 42.
        full.extend_from_slice(&shellcode::exit_code(42));
        let directive = shellcode::as_byte_directive(&full);
        let prog = ProgramBuilder::new("/bin/fuzz")
            .code(
                "_start:
                    sub esp, 128
                    mov edi, esp
                    mov esi, payload
                    mov ecx, plen
                    call memcpy
                    mov eax, esp
                    jmp eax",
            )
            .data(&format!(".equ plen, {}\npayload: {directive}", full.len()))
            .build()
            .unwrap();
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
        let pid = k.spawn(&prog.image).unwrap();
        k.run(50_000_000);
        prop_assert_ne!(k.sys.proc(pid).exit_code, Some(42));
    }

    /// The same attack under the NullEngine *does* run to the marker —
    /// proving the proptest above is exercising real executions.
    #[test]
    fn marker_payload_alone_executes_unprotected(pad in 0usize..16) {
        let mut full = shellcode::nop_sled(pad);
        full.extend_from_slice(&shellcode::exit_code(42));
        let directive = shellcode::as_byte_directive(&full);
        let prog = ProgramBuilder::new("/bin/fuzz2")
            .code(
                "_start:
                    sub esp, 128
                    mov edi, esp
                    mov esi, payload
                    mov ecx, plen
                    call memcpy
                    mov eax, esp
                    jmp eax",
            )
            .data(&format!(".equ plen, {}\npayload: {directive}", full.len()))
            .build()
            .unwrap();
        let mut k = Kernel::with_engine(Box::new(NullEngine));
        let pid = k.spawn(&prog.image).unwrap();
        k.run(50_000_000);
        prop_assert_eq!(k.sys.proc(pid).exit_code, Some(42));
    }
}
