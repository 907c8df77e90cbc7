//! Response-mode semantics (paper §4.5, Fig. 5): break kills, observe
//! logs-then-allows, forensics dumps and optionally substitutes.

use sm_attacks::harness::Protection;
use sm_attacks::real_world::run_wuftpd_with;
use sm_attacks::shellcode::PAPER_EXIT0;
use sm_attacks::AttackOutcome;
use sm_core::engine::SplitMemConfig;
use sm_kernel::events::{Event, ResponseMode};

#[test]
fn fig5_all_four_demonstrations() {
    let f = sm_bench::fig5::run();

    // (a) break: foiled with detection.
    assert_eq!(f.break_outcome, AttackOutcome::Foiled { detected: true });

    // (b) observe: shell spawned, detection logged first.
    assert_eq!(f.observe_outcome, AttackOutcome::ShellSpawned);
    assert!(f.observe_detections >= 1);
    assert!(
        f.observe_transcript.contains("uid=0(root)"),
        "attacker session: {}",
        f.observe_transcript
    );

    // (c) forensics: the dump leads with the exploit's NOP sled, like the
    // paper's screenshot.
    assert_eq!(f.forensics_dump.len(), 20, "paper dumps 20 bytes");
    assert!(
        f.forensics_dump.starts_with(&[0x90, 0x90, 0x90, 0x90]),
        "dump: {:02x?}",
        f.forensics_dump
    );
    assert!(f.forensics_disasm.iter().any(|l| l == "nop"));

    // (d) Sebek log captured the attacker's keystrokes.
    let joined = f.sebek_log.join("\n");
    assert!(joined.contains("id"), "sebek: {joined}");

    // §6.1.3: the exit(0) forensic shellcode terminates the daemon
    // "without a segmentation fault".
    assert_eq!(f.forensic_substitution_exit, Some(0));
}

#[test]
fn observe_mode_logs_only_the_first_execution_per_page() {
    // "only the first unauthorized code execution on a given page will be
    // logged, as future execution will occur unhindered from the data
    // page" (§5.5) — the two-stage WU-FTPD payload reads stage two onto
    // the SAME page, so a single detection covers both stages.
    let cfg = SplitMemConfig {
        response: ResponseMode::Observe,
        ..SplitMemConfig::default()
    };
    let (report, k, _) = run_wuftpd_with(&Protection::SplitMemCustom(cfg));
    assert_eq!(report.outcome, AttackOutcome::ShellSpawned);
    let detections = k
        .sys
        .events
        .iter()
        .filter(|e| matches!(e, Event::AttackDetected { .. }))
        .count();
    assert_eq!(
        detections, 1,
        "stage two must run unhindered from the locked page"
    );
}

#[test]
fn forensic_dump_contains_the_actual_injected_bytes() {
    let cfg = SplitMemConfig {
        response: ResponseMode::Forensics,
        shellcode_dump_len: 32,
        ..SplitMemConfig::default()
    };
    let (_, k, _) = run_wuftpd_with(&Protection::SplitMemCustom(cfg));
    let dump = k
        .sys
        .events
        .iter()
        .find_map(|e| match e {
            Event::AttackDetected { shellcode, .. } => Some(shellcode.clone()),
            _ => None,
        })
        .expect("detection with dump");
    // 16-byte NOP sled, then stage one's first opcode (push imm32 = 0x68).
    assert_eq!(&dump[..16], &[0x90; 16]);
    assert_eq!(dump[16], 0x68);
}

#[test]
fn forensic_substitution_runs_instead_of_the_attack() {
    let cfg = SplitMemConfig {
        response: ResponseMode::Forensics,
        forensic_shellcode: Some(PAPER_EXIT0.to_vec()),
        ..SplitMemConfig::default()
    };
    let (report, k, _) = run_wuftpd_with(&Protection::SplitMemCustom(cfg));
    // No shell: the attacker's payload was replaced wholesale.
    assert!(!report.outcome.succeeded());
    // The daemon exited gracefully with status 0.
    let exit = k.sys.events.iter().find_map(|e| match e {
        Event::ProcessExit { code, .. } => Some(*code),
        _ => None,
    });
    assert_eq!(exit, Some(0));
}

#[test]
fn recurring_attacks_share_a_fingerprint() {
    // §4.5.3 "attack fingerprinting": the same exploit seen twice yields
    // the same payload digest, so an operator can match recurrences.
    let capture = || {
        let cfg = SplitMemConfig {
            response: ResponseMode::Forensics,
            shellcode_dump_len: 96, // the whole stage-one payload
            ..SplitMemConfig::default()
        };
        let (_, k, _) = run_wuftpd_with(&Protection::SplitMemCustom(cfg));
        let dump = k
            .sys
            .events
            .iter()
            .find_map(|e| match e {
                Event::AttackDetected { shellcode, .. } => Some(shellcode.clone()),
                _ => None,
            })
            .expect("detection");
        sm_core::forensics::fingerprint(&dump)
    };
    let a = capture();
    let b = capture();
    assert_eq!(a.digest, b.digest, "recurring attack must match");
    assert_eq!(a.nop_sled, 16);
    // With 64 bytes captured, the analyser sees stage one's syscalls and
    // classifies the 7350wurm shape correctly.
    assert_eq!(
        a.class,
        sm_core::forensics::PayloadClass::StagedDownloader,
        "listing: {:?}",
        a.listing
    );
}

#[test]
fn mixed_only_policy_limits_response_modes_to_mixed_pages() {
    // §4.2.1: "only protecting the mixed pages using our technique may
    // limit the use of the various response modes." Under the combined
    // engine in observe mode, an attack on an NX-covered (non-mixed) page
    // is *killed* by the execute-disable bit — it cannot be observed —
    // while the same attack on a mixed page is observed and proceeds.
    use sm_kernel::kernel::KernelConfig;
    use sm_kernel::userlib::ProgramBuilder;

    let attack_code = "_start:
            mov edi, buf
            mov esi, payload
            mov ecx, 12
            call memcpy
            mov eax, buf
            jmp eax";
    let payload = "payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80
         buf: .space 16";
    let clean = ProgramBuilder::new("/bin/clean")
        .code(attack_code)
        .data(payload)
        .build()
        .unwrap();
    let mixed = ProgramBuilder::new("/bin/mixed")
        .mixed_segment()
        .code(&format!("{attack_code}\n{payload}"))
        .build()
        .unwrap();
    let run = |prog: &sm_kernel::userlib::BuiltProgram| {
        let mut k = Protection::Combined(ResponseMode::Observe).kernel(KernelConfig::default());
        let pid = k.spawn(&prog.image).unwrap();
        k.run(20_000_000);
        k.sys.procs.get(&pid.0).and_then(|p| p.exit_code)
    };
    // Non-mixed page: NX kills; observe mode never gets a say.
    assert_eq!(run(&clean), Some(128 + 11), "NX page: killed, not observed");
    // Mixed page: split memory observes, the attack proceeds to exit(42).
    assert_eq!(run(&mixed), Some(42), "mixed page: observed and allowed");
}
