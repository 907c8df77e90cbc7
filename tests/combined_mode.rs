//! Combined NX + split-memory mode (paper §4.2.1, §6.2): NX covers clean
//! pages, splitting covers what NX cannot.

use sm_core::engine::SplitMemEngine;
use sm_core::find;
use sm_core::nx::NxEngine;
use sm_core::setup::Protection;
use sm_kernel::engine::ProtectionEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::userlib::ProgramBuilder;
use sm_machine::MachineConfig;

fn combined_kernel() -> Kernel {
    Protection::Combined(ResponseMode::Break).kernel(KernelConfig::default())
}

fn split_pages(k: &Kernel, pid: sm_kernel::Pid) -> usize {
    let split = find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
    split.table(pid).map_or(0, |t| t.len())
}

#[test]
fn clean_binaries_get_nx_only() {
    let prog = ProgramBuilder::new("/bin/clean")
        .code("_start: mov ebx, 0\n call exit")
        .data("v: .word 7")
        .build()
        .unwrap();
    let mut k = combined_kernel();
    let pid = k.spawn(&prog.image).unwrap();
    assert_eq!(split_pages(&k, pid), 0);
    assert!(
        find::<NxEngine>(k.engine.as_ref())
            .unwrap()
            .stats
            .pages_marked
            > 0
    );
    k.run(10_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(0));
}

#[test]
fn mixed_binaries_get_their_mixed_pages_split() {
    let prog = ProgramBuilder::new("/bin/mixed")
        .mixed_segment()
        .code("_start: mov ebx, 0\n call exit")
        .build()
        .unwrap();
    let mut k = combined_kernel();
    let pid = k.spawn(&prog.image).unwrap();
    assert!(split_pages(&k, pid) > 0, "mixed pages must be split");
    k.run(10_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(0));
}

#[test]
fn combined_mode_stops_injection_on_both_page_kinds() {
    // Injection into a clean data page (NX territory) and into a mixed
    // page (split territory) — both must be foiled.
    let clean_inject = ProgramBuilder::new("/bin/i1")
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
        .unwrap();
    let mixed_inject = ProgramBuilder::new("/bin/i2")
        .mixed_segment()
        .code(
            "_start:
                mov edi, buf
                mov esi, payload
                mov ecx, 12
                call memcpy
                mov eax, buf
                jmp eax
            payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80
            buf: .space 16",
        )
        .build()
        .unwrap();
    for prog in [clean_inject, mixed_inject] {
        let mut k = combined_kernel();
        let pid = k.spawn(&prog.image).unwrap();
        k.run(20_000_000);
        assert_ne!(
            k.sys.proc(pid).exit_code,
            Some(42),
            "{} succeeded under combined mode",
            prog.image.name
        );
        assert!(
            k.sys.events.first_detection().is_some(),
            "{}: no detection",
            prog.image.name
        );
    }
}

#[test]
fn engines_report_their_names() {
    assert_eq!(
        Protection::Combined(ResponseMode::Break).engine().name(),
        "split-memory+execute-disable"
    );
    assert_eq!(
        Protection::ShadowCombined(ResponseMode::Break)
            .engine()
            .name(),
        "shadow-stack+split-memory+execute-disable"
    );
    assert_eq!(NxEngine::new().name(), "execute-disable");
    assert_eq!(
        SplitMemEngine::stand_alone(ResponseMode::Break).name(),
        "split-memory"
    );
}

#[test]
fn fraction_policy_splits_roughly_the_requested_share() {
    // Statistical sanity over several seeds: Fraction(0.5) splits about
    // half the pages (mixed pages are always split, but this binary has
    // none).
    let prog = ProgramBuilder::new("/bin/wide")
        .code("_start: mov ebx, 0\n call exit")
        .data(&".space 4096\n".repeat(16))
        .build()
        .unwrap();
    let mut total_pages = 0usize;
    let mut split_total = 0usize;
    for seed in 0..6 {
        let mut k = Kernel::new(
            MachineConfig {
                nx_enabled: true,
                ..MachineConfig::default()
            },
            KernelConfig {
                seed,
                ..KernelConfig::default()
            },
            Protection::CombinedFraction(0.5).engine(),
        );
        let pid = k.spawn(&prog.image).unwrap();
        split_total += split_pages(&k, pid);
        // ~17 data pages + 1 code page + 1 stack page eagerly mapped.
        total_pages += 19;
    }
    let share = split_total as f64 / total_pages as f64;
    assert!(
        (0.3..=0.7).contains(&share),
        "Fraction(0.5) split {share:.2} of pages"
    );
}
