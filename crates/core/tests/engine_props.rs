//! Split-memory engine integration and property tests: TLB
//! desynchronisation observed directly, frame accounting under random
//! operation sequences, runtime library verification, and per-seed
//! determinism of the fraction policy.

use proptest::prelude::*;
use sm_core::engine::{SplitMemConfig, SplitMemEngine};
use sm_core::find;
use sm_core::split::SplitPolicy;
use sm_core::verify::Verifier;
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::pte;

fn split_kernel(cfg: SplitMemConfig) -> Kernel {
    Kernel::with_engine(Box::new(SplitMemEngine::new(cfg)))
}

/// Observe the desynchronised TLBs directly: after a guest both executes
/// and reads the same (mixed) page, the I-TLB and D-TLB hold different
/// frames for one virtual page.
#[test]
fn itlb_and_dtlb_disagree_on_a_split_page() {
    let prog = ProgramBuilder::new("/bin/mixeduse")
        .mixed_segment()
        .code(
            "_start:
                mov eax, [value]      ; data access on the code page
            spin:
                jmp spin              ; stay alive for inspection
            value: .word 0",
        )
        .build()
        .unwrap();
    let mut k = split_kernel(SplitMemConfig::default());
    let pid = k.spawn(&prog.image).unwrap();
    let code_vpn = pte::vpn(prog.image.entry);
    // Run a slice: both access kinds happen, the process stays alive.
    k.run(120_000);
    let i = k.sys.machine.itlb.peek(code_vpn);
    let d = k.sys.machine.dtlb.peek(code_vpn);
    if let (Some(i), Some(d)) = (i, d) {
        assert_ne!(
            i.pfn, d.pfn,
            "I-TLB and D-TLB must route the same vpn to different frames"
        );
    } else {
        // Timing may have flushed one of them; the engine bookkeeping
        // still proves the split.
        let engine = find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
        let sp = engine.table(pid).and_then(|t| t.get(code_vpn)).unwrap();
        assert_ne!(sp.code.unwrap(), sp.data);
    }
}

#[test]
fn data_reload_leaves_pte_restricted_but_tlb_permissive() {
    let prog = ProgramBuilder::new("/bin/reader")
        .code(
            "_start:
                mov eax, [v]
                mov ecx, [v]
            spin:
                jmp spin              ; stay alive for inspection
                mov ebx, 0
                call exit",
        )
        .data("v: .word 9")
        .build()
        .unwrap();
    let mut k = split_kernel(SplitMemConfig::default());
    let pid = k.spawn(&prog.image).unwrap();
    let v_page = pte::page_base(prog.sym("v"));
    assert_eq!(k.run(200_000), RunExit::CyclesExhausted);
    let entry = k.sys.pte_of(pid, v_page);
    assert!(
        !pte::has(entry, pte::USER),
        "PTE stays supervisor-restricted at rest"
    );
    assert!(pte::has(entry, pte::SPLIT));
    let engine = find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
    assert!(engine.stats.data_reloads >= 1);
    assert_eq!(
        engine.stats.detections, 0,
        "benign run must not trip detection"
    );
}

#[test]
fn runtime_dlopen_respects_the_verifier() {
    let verifier = Verifier::new(b"k".to_vec());
    let mut lib = ProgramBuilder::new("/lib/ok.so")
        .without_stdlib()
        .code("f: ret")
        .build()
        .unwrap()
        .image;
    lib.segments[0].vaddr = 0x3900_0000;
    verifier.sign(&mut lib);
    let mut evil = lib.clone();
    evil.segments[0].data[0] ^= 0xFF;

    let prog = ProgramBuilder::new("/bin/dl2")
        .code(
            "_start:
                mov eax, SYS_DLOPEN
                mov ebx, okpath
                int 0x80
                cmp eax, 0
                jle bad
                mov eax, SYS_DLOPEN
                mov ebx, evilpath
                int 0x80
                cmp eax, -13          ; EACCES
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "okpath: .asciz \"/lib/ok.so\"
             evilpath: .asciz \"/lib/evil.so\"",
        )
        .build()
        .unwrap();
    let mut k = split_kernel(SplitMemConfig {
        verifier: Some(verifier),
        ..SplitMemConfig::default()
    });
    k.sys.fs.install("/lib/ok.so", lib.to_bytes());
    k.sys.fs.install("/lib/evil.so", evil.to_bytes());
    let pid = k.spawn(&prog.image).unwrap();
    assert_eq!(k.run(50_000_000), RunExit::AllExited);
    assert_eq!(k.sys.proc(pid).exit_code, Some(0));
    let rejected = k.sys.events.iter().any(|e| {
        matches!(
            e,
            Event::Library {
                verified: false,
                ..
            }
        )
    });
    assert!(rejected, "the tampered library must be logged as rejected");
}

#[test]
fn observe_mode_sets_the_honeypot_flag() {
    let prog = ProgramBuilder::new("/bin/victim")
        .code(
            "_start:
                mov eax, payload
                jmp eax",
        )
        .data("payload: .byte 0xbb, 0x07, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
        .build()
        .unwrap();
    let mut k = split_kernel(SplitMemConfig {
        response: ResponseMode::Observe,
        honeypot_on_detect: true,
        ..SplitMemConfig::default()
    });
    let pid = k.spawn(&prog.image).unwrap();
    k.run(20_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(7), "attack proceeds");
    assert!(k.sys.proc(pid).honeypot_log, "Sebek logging switched on");
}

#[test]
fn fraction_policy_is_deterministic_per_seed() {
    let count_split = |seed: u64| {
        let engine = SplitMemEngine::new(SplitMemConfig {
            policy: SplitPolicy::Fraction(0.5),
            ..SplitMemConfig::default()
        });
        let mut k = Kernel::new(
            sm_machine::MachineConfig::default(),
            KernelConfig {
                seed,
                ..KernelConfig::default()
            },
            Box::new(engine),
        );
        let prog = ProgramBuilder::new("/bin/wide")
            .code("_start: mov ebx, 0\n call exit")
            .data(&".space 4096\n".repeat(8))
            .build()
            .unwrap();
        let pid = k.spawn(&prog.image).unwrap();
        let e = find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
        e.table(pid).map_or(0, |t| t.len())
    };
    assert_eq!(count_split(7), count_split(7), "same seed, same draw");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frame accounting balances for random mixes of: policy, response
    /// mode, lazy code frames, and guest behaviour (benign exit vs
    /// attempted injection).
    #[test]
    fn frame_accounting_balances(
        lazy in any::<bool>(),
        observe in any::<bool>(),
        attack in any::<bool>(),
        fraction in proptest::option::of(0.0f64..1.0),
        seed in 0u64..1000,
    ) {
        let cfg = SplitMemConfig {
            policy: fraction.map_or(SplitPolicy::All, SplitPolicy::Fraction),
            response: if observe { ResponseMode::Observe } else { ResponseMode::Break },
            lazy_code_frames: lazy,
            ..SplitMemConfig::default()
        };
        let mut k = Kernel::new(
            sm_machine::MachineConfig::default(),
            KernelConfig { seed, ..KernelConfig::default() },
            Box::new(SplitMemEngine::new(cfg)),
        );
        let prog: BuiltProgram = if attack {
            ProgramBuilder::new("/bin/a")
                .code("_start:\n mov eax, payload\n jmp eax")
                .data("payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
                .build()
                .unwrap()
        } else {
            ProgramBuilder::new("/bin/b")
                .code(
                    "_start:
                        mov eax, 64
                        call malloc
                        mov dword [eax], 5
                        mov ebx, 0
                        call exit",
                )
                .build()
                .unwrap()
        };
        let free0 = k.sys.machine.phys.allocator.free_count();
        let pid = k.spawn(&prog.image).unwrap();
        k.run(50_000_000);
        k.sys.procs.remove(&pid.0);
        prop_assert_eq!(
            k.sys.machine.phys.allocator.free_count(),
            free0,
            "frames leaked (lazy={}, observe={}, attack={}, fraction={:?})",
            lazy, observe, attack, fraction
        );
    }

    /// Under SplitPolicy::All with break mode, a direct jump to any data
    /// address is never executable, wherever the payload sits in the data
    /// segment.
    #[test]
    fn any_data_offset_is_unfetchable(pad in 0usize..512) {
        let prog = ProgramBuilder::new("/bin/off")
            .code("_start:\n mov eax, payload\n jmp eax")
            .data(&format!(
                ".space {pad}\npayload: .byte 0xbb, 0x2a, 0x00, 0x00, 0x00, 0xb8, 0x01, 0x00, 0x00, 0x00, 0xcd, 0x80"
            ))
            .build()
            .unwrap();
        let mut k = split_kernel(SplitMemConfig::default());
        let pid = k.spawn(&prog.image).unwrap();
        k.run(20_000_000);
        prop_assert_ne!(k.sys.proc(pid).exit_code, Some(42));
    }
}
