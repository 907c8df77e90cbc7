//! End-to-end protection tests across crates: real guest programs, real
//! exploits, every protection engine.

use sm_attacks::harness::{kernel_with, Protection, RunSpec};
use sm_attacks::real_world::{run_scenario, Scenario};
use sm_attacks::wilander::{self, Technique};
use sm_attacks::AttackOutcome;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::KernelConfig;
use sm_machine::TlbPreset;

fn on_pentium3(protection: Protection) -> RunSpec {
    RunSpec {
        tlb: TlbPreset::pentium3(),
        ..RunSpec::new(protection)
    }
}

#[test]
fn wilander_grid_matches_table_1() {
    let table = sm_bench::table1::run(&RunSpec::new(Protection::Unprotected));
    assert_eq!(table.not_applicable(), 4, "paper reports four N/A cells");
    assert_eq!(table.foiled(), 20);
    assert!(table.matches_paper());
}

#[test]
fn every_scenario_matches_table_2_under_split_memory() {
    for scenario in Scenario::ALL {
        let base = run_scenario(scenario, &RunSpec::new(Protection::Unprotected));
        assert_eq!(
            base.outcome,
            AttackOutcome::ShellSpawned,
            "{}: no shell on the unpatched kernel",
            scenario.name()
        );
        let prot = run_scenario(
            scenario,
            &RunSpec::new(Protection::SplitMem(ResponseMode::Break)),
        );
        assert_eq!(
            prot.outcome,
            AttackOutcome::Foiled { detected: true },
            "{}: not foiled under split memory",
            scenario.name()
        );
    }
}

/// Table 1 verdicts are TLB-geometry-independent: every applicable cell
/// that succeeds unprotected is still foiled by split memory when the
/// TLBs are the paper testbed's set-associative Pentium III geometry —
/// set conflicts change miss timing, never whether the fetch check runs.
#[test]
fn wilander_verdicts_hold_on_the_pentium3_geometry() {
    let unprot = on_pentium3(Protection::Unprotected);
    let split = on_pentium3(Protection::SplitMem(ResponseMode::Break));
    for case in wilander::all_cases() {
        let Some(base) = wilander::run_case(case, &unprot) else {
            continue;
        };
        assert!(
            base.succeeded(),
            "{case:?}: unprotected attack no longer lands on pentium3 TLBs"
        );
        let prot = wilander::run_case(case, &split).expect("applicable");
        assert_eq!(
            prot,
            AttackOutcome::Foiled { detected: true },
            "{case:?}: not foiled under split memory on pentium3 TLBs"
        );
    }
}

/// Table 2 / Fig. 5 verdicts likewise: every real-world scenario shells
/// the unprotected kernel and is foiled under split memory on the
/// Pentium III geometry.
#[test]
fn real_world_verdicts_hold_on_the_pentium3_geometry() {
    let unprot = on_pentium3(Protection::Unprotected);
    let split = on_pentium3(Protection::SplitMem(ResponseMode::Break));
    for scenario in Scenario::ALL {
        let base = run_scenario(scenario, &unprot);
        assert_eq!(
            base.outcome,
            AttackOutcome::ShellSpawned,
            "{}: no shell on the unpatched kernel (pentium3 TLBs)",
            scenario.name()
        );
        let prot = run_scenario(scenario, &split);
        assert_eq!(
            prot.outcome,
            AttackOutcome::Foiled { detected: true },
            "{}: not foiled under split memory (pentium3 TLBs)",
            scenario.name()
        );
    }
}

#[test]
fn combined_mode_also_foils_the_scenarios() {
    // NX covers the clean pages, split memory the mixed ones; every attack
    // injects into NX-covered data pages here, so the combined engine
    // still stops all five.
    for scenario in [Scenario::ApacheSsl, Scenario::WuFtpdGlob] {
        let prot = run_scenario(
            scenario,
            &RunSpec::new(Protection::Combined(ResponseMode::Break)),
        );
        assert!(
            !prot.outcome.succeeded(),
            "{}: succeeded under combined mode",
            scenario.name()
        );
    }
}

#[test]
fn nx_alone_foils_plain_injection_scenarios() {
    let prot = run_scenario(Scenario::BindTsig, &RunSpec::new(Protection::Nx));
    assert!(!prot.outcome.succeeded());
    assert!(prot.detections > 0, "NX logs the blocked fetch");
}

#[test]
fn brute_forced_samba_needs_multiple_attempts() {
    // The ASLR fight: the paper notes the exploit can take "a fairly long
    // time" guessing; ours is helped (like theirs) but still retries.
    let base = run_scenario(
        Scenario::SambaTrans2,
        &RunSpec::new(Protection::Unprotected),
    );
    assert_eq!(base.outcome, AttackOutcome::ShellSpawned);
    assert!(
        base.attempts >= 2,
        "stack ASLR should defeat the first guess (got {} attempts)",
        base.attempts
    );
}

#[test]
fn interactive_shell_transcripts_look_like_the_papers() {
    let report = run_scenario(Scenario::ApacheSsl, &RunSpec::new(Protection::Unprotected));
    let t = report.transcript.expect("shell transcript");
    assert!(t.contains("uid=0(root)"), "{t}");
    assert!(t.contains("root"), "{t}");
}

#[test]
fn observe_mode_preserves_every_wilander_attack_outcome() {
    // Observe mode detects, then the attack result matches the
    // unprotected run — spot-check a couple of cells.
    for case in wilander::all_cases()
        .into_iter()
        .filter(|c| c.applicable() && c.technique == Technique::ReturnAddress)
    {
        let observe = RunSpec::new(Protection::SplitMem(ResponseMode::Observe));
        let observed = wilander::run_case(case, &observe).expect("applicable");
        assert!(
            observed.succeeded(),
            "{case:?}: observe mode should let the attack proceed"
        );
    }
}

#[test]
fn aslr_alone_defeats_fixed_address_attacks() {
    // Complementary defence (paper §7): a payload that jumps to a
    // *hardcoded* stack address — correct for the deterministic layout —
    // misses once the kernel randomises stack placement.
    use sm_attacks::shellcode;
    use sm_kernel::userlib::ProgramBuilder;

    let build = |target: u32| {
        let payload = shellcode::exit_code(42);
        ProgramBuilder::new("/bin/fixed")
            .code(&format!(
                "_start:
                    sub esp, 64
                    mov edi, esp
                    mov esi, payload
                    mov ecx, {len}
                    call memcpy
                    mov eax, {target}
                    jmp eax",
                len = payload.len(),
            ))
            .data(&format!(
                "payload: {}",
                shellcode::as_byte_directive(&payload)
            ))
            .build()
            .unwrap()
    };
    // Learn the buffer address on the deterministic system.
    let deterministic = RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            ..KernelConfig::default()
        },
        ..RunSpec::new(Protection::Unprotected)
    };
    let probe = kernel_with(&deterministic);
    let top = probe.sys.config.stack_top;
    let buffer = top - 16 - 64; // esp0 - sub
    let prog = build(buffer);

    // Sanity: without ASLR the hardcoded address works.
    let mut k = kernel_with(&deterministic);
    let pid = k.spawn(&prog.image).unwrap();
    k.run(20_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(42));

    // With ASLR on, the same binary misses.
    let mut k = kernel_with(&RunSpec {
        kconfig: KernelConfig {
            aslr_stack: true,
            seed: 99,
            ..KernelConfig::default()
        },
        ..RunSpec::new(Protection::Unprotected)
    });
    let pid = k.spawn(&prog.image).unwrap();
    k.run(20_000_000);
    assert_ne!(
        k.sys.proc(pid).exit_code,
        Some(42),
        "hardcoded-address exploit should miss a randomised stack"
    );
}
