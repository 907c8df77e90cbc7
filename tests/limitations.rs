//! The paper's §7 limitations, demonstrated as executable facts — a
//! faithful reproduction includes what the system *cannot* do.
//!
//! 1. Self-modifying code cannot run under split memory.
//! 2. Attacks that reuse *existing* code (return-into-libc style) are not
//!    stopped.
//! 3. Non-control-data attacks are not stopped.
//!
//! Plus the §4.7 portability claim: the protection (not just the
//! performance) works identically on the software-loaded-TLB machine.

use sm_core::engine::{SplitMemConfig, SplitMemEngine};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::engine::NullEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::MachineConfig;

fn split_kernel() -> Kernel {
    Kernel::with_engine(Box::new(SplitMemEngine::stand_alone(ResponseMode::Break)))
}

fn run(mut k: Kernel, prog: &BuiltProgram) -> (Kernel, Option<i32>) {
    let pid = k.spawn(&prog.image).unwrap();
    k.run(50_000_000);
    let code = k.sys.proc(pid).exit_code;
    (k, code)
}

/// A legitimate self-modifying program: it writes `mov ebx, 7; ...exit`
/// over its own code and jumps there. Works unprotected; cannot work under
/// split memory (paper §7: "self-modifying programs cannot be protected
/// using our technique").
fn self_modifying_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/selfmod")
        .mixed_segment()
        .code(
            "_start:
                nop                   ; (see single_step_window test below)
                ; patch `patchsite` to load 7 instead of 1 into ebx
                mov byte [patchsite+1], 7
            patchsite:
                mov ebx, 1
                call exit",
        )
        .build()
        .unwrap()
}

#[test]
fn self_modifying_code_works_unprotected() {
    let (_, code) = run(
        Kernel::with_engine(Box::new(NullEngine)),
        &self_modifying_program(),
    );
    assert_eq!(code, Some(7), "the self-patch must take effect");
}

#[test]
fn self_modifying_code_is_broken_by_split_memory() {
    // The write went to the data frame; the fetch still sees the original
    // `mov ebx, 1`. The program RUNS (it is legitimate code, loaded at
    // exec time) but its self-modification silently does not take effect —
    // exactly the §7 limitation.
    let (_, code) = run(split_kernel(), &self_modifying_program());
    assert_eq!(
        code,
        Some(1),
        "the self-patch must be invisible to instruction fetches"
    );
}

#[test]
fn single_step_window_is_reproduced_faithfully() {
    // A fidelity check rather than a feature: on real x86 (and in the
    // paper's prototype), the instruction restarted under the single-step
    // I-TLB load executes while the PTE briefly points at the CODE frame —
    // so if that very instruction stores to its own page, the store lands
    // on the code frame. Our simulator reproduces the window exactly; the
    // debug handler closes it for every *subsequent* access (DESIGN.md
    // "single-step window").
    let prog = ProgramBuilder::new("/bin/window")
        .mixed_segment()
        .code(
            "_start:
                ; this store IS the armed instruction after the I-TLB
                ; reload of this page, so it writes the CODE frame
                mov byte [patchsite+1], 9
            patchsite:
                mov ebx, 1
                call exit",
        )
        .build()
        .unwrap();
    let (_, code) = run(split_kernel(), &prog);
    assert_eq!(
        code,
        Some(9),
        "the armed instruction's own store reaches the code frame (the window)"
    );
}

#[test]
fn code_reuse_attacks_are_not_stopped() {
    // §7: "modifying a function's return address to point to a different
    // part of the original code pages will not be stopped by this scheme."
    // The victim overwrites its return address with the address of an
    // existing function that exits 42 (a return-into-libc-style reuse).
    let prog = ProgramBuilder::new("/bin/reuse")
        .code(
            "_start:
                call victim
                mov ebx, 0
                call exit
            victim:
                push ebp
                mov ebp, esp
                ; 'overflow' redirects the return address to existing code
                mov dword [ebp+4], gadget
                leave
                ret
            gadget:
                mov ebx, 42
                call exit",
        )
        .build()
        .unwrap();
    let (k, code) = run(split_kernel(), &prog);
    assert_eq!(
        code,
        Some(42),
        "code-reuse hijack must succeed even under split memory"
    );
    assert!(
        k.sys.events.first_detection().is_none(),
        "nothing was injected, so nothing can be detected"
    );
}

#[test]
fn non_control_data_attacks_are_not_stopped() {
    // §7: non-control-data attacks "are also not protected by this
    // system". The victim keeps an `is_admin` flag next to a buffer; the
    // overflow flips the flag; no code is ever injected.
    let prog = ProgramBuilder::new("/bin/authd")
        .code(
            "_start:
                ; simulated overflow: the copy runs 4 bytes past the
                ; 32-byte name buffer into the adjacent flag
                mov edi, namebuf
                mov esi, attacker_name
                mov ecx, 36
                call memcpy
                mov eax, [is_admin]
                cmp eax, 0
                je denied
                mov esi, grant
                call print
                mov ebx, 42          ; attacker got privileged access
                call exit
            denied:
                mov ebx, 0
                call exit",
        )
        .data(
            "attacker_name: .space 32, 0x41
             .byte 1, 0, 0, 0
             namebuf: .space 32
             is_admin: .word 0
             grant: .asciz \"access granted\\n\"",
        )
        .build()
        .unwrap();
    let (k, code) = run(split_kernel(), &prog);
    assert_eq!(code, Some(42), "the data-only attack must succeed");
    assert!(k.sys.events.first_detection().is_none());
}

#[test]
fn protection_holds_on_the_software_tlb_machine() {
    // §4.7: the port changes the reload mechanism, not the security
    // property. Same injection test as the x86 machine, soft-TLB hardware.
    let prog = ProgramBuilder::new("/bin/victim")
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
        .data("payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
        .build()
        .unwrap();
    // Unprotected soft-TLB machine: the attack works (the substrate is
    // functionally complete).
    let mut k = Kernel::new(
        MachineConfig {
            software_tlb: true,
            ..MachineConfig::default()
        },
        KernelConfig::default(),
        Box::new(NullEngine),
    );
    let pid = k.spawn(&prog.image).unwrap();
    k.run(50_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(42));
    assert!(k.sys.stats.soft_tlb_fills > 0, "soft TLB mode was active");

    // Split memory on the soft-TLB machine: foiled, no single-step needed.
    let mut k = Kernel::new(
        MachineConfig {
            software_tlb: true,
            ..MachineConfig::default()
        },
        KernelConfig::default(),
        Box::new(SplitMemEngine::new(SplitMemConfig::default())),
    );
    let pid = k.spawn(&prog.image).unwrap();
    k.run(50_000_000);
    assert_ne!(k.sys.proc(pid).exit_code, Some(42));
    assert!(k.sys.events.first_detection().is_some());
    assert_eq!(
        k.sys.machine.stats.debug_traps, 0,
        "the soft-TLB port must not use single-stepping"
    );
}

#[test]
fn softtlb_port_has_noticeably_lower_overhead() {
    // The §4.7 performance claim as a hard assertion.
    let ab = sm_bench::ablation::softtlb_port(&RunSpec::new(Protection::Unprotected), 25);
    assert!(
        ab.soft_tlb > ab.x86 + 0.2,
        "soft-TLB {:.3} should be well above x86 {:.3}",
        ab.soft_tlb,
        ab.x86
    );
}
