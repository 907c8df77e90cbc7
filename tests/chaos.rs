//! Chaos-harness integration tests: the protection verdicts and the
//! engine invariants must survive deterministic fault injection, and the
//! hardened kernel must handle OOM and livelock without panicking.

use sm_attacks::harness::kernel_with;
use sm_attacks::wilander::{self, InjectLocation, Technique};
use sm_bench::chaos::{self, Scenario};
use sm_core::invariants;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::ProgramBuilder;
use sm_machine::chaos::FaultPlan;
use sm_machine::TlbPreset;

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

fn chaos_kernel(protection: &Protection, plan: FaultPlan) -> Kernel {
    kernel_with(&RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            chaos: plan,
            ..KernelConfig::default()
        },
        ..RunSpec::new(protection.clone())
    })
}

/// A deliberately hostile plan — flushing both TLBs after *every* step
/// defeats the data-reload path permanently (the D-TLB fill is wiped
/// before the faulting store can restart), so the first data access to a
/// split page spins forever. The livelock watchdog must detect it and
/// surface `RunExit::Livelock` instead of hanging.
#[test]
fn flush_every_step_is_detected_as_livelock() {
    let mut k = chaos_kernel(
        &split_break(),
        FaultPlan {
            flush_every: Some(1),
            ..FaultPlan::default()
        },
    );
    let prog = ProgramBuilder::new("/bin/spin")
        .code(
            "_start:
                mov [v], 7
                mov ebx, 0
                call exit",
        )
        .data("v: .word 0")
        .build()
        .unwrap();
    let pid = k.spawn(&prog.image).unwrap();
    let exit = k.run(50_000_000);
    assert!(
        matches!(exit, RunExit::Livelock { pid: p, .. } if p == pid),
        "expected livelock detection, got {exit:?}"
    );
}

/// Satellite: spurious whole-TLB flush inside the single-step window. The
/// Algorithm-1 reload must converge anyway — the flush costs another
/// round-trip through the fault handler, never correctness. This is the
/// limitations.rs `single_step_window` program under window-targeted
/// chaos: the store still lands on the data frame, the patch still
/// silently fails, exit code still 9.
///
/// Under a plan that *also* fires periodic flushes, a flush can land
/// between the I-TLB fill and the store's fetch, which re-arms the window
/// ON the store itself — the store then writes the code frame and the
/// patch becomes visible (exit 7). That is the documented single-step
/// window of paper §7 widening under TLB pressure, not a protection
/// failure, so such plans accept either exit; the run must still converge
/// with clean invariants.
#[test]
fn window_flush_converges_and_preserves_the_window_semantics() {
    for (plan, allowed) in [
        (
            FaultPlan {
                flush_in_window: true,
                ..FaultPlan::default()
            },
            &[9][..],
        ),
        (
            FaultPlan {
                flush_in_window: true,
                flush_every: Some(5),
                evict_every: Some(3),
                seed: 11,
                ..FaultPlan::default()
            },
            &[7, 9][..],
        ),
    ] {
        let mut k = chaos_kernel(&split_break(), plan);
        let prog = ProgramBuilder::new("/bin/window")
            .mixed_segment()
            .code(
                "_start:
                    nop
                    mov byte [patchsite+1], 7
                patchsite:
                    mov ebx, 9
                    call exit",
            )
            .build()
            .unwrap();
        let pid = k.spawn(&prog.image).unwrap();
        let (exit, violations) = invariants::run_with_checks(&mut k, 50_000_000, 100_000);
        assert_eq!(exit, RunExit::AllExited, "plan {plan:?}");
        assert!(violations.is_empty(), "violations: {violations:?}");
        let code = k.sys.proc(pid).exit_code;
        assert!(
            code.is_some_and(|c| allowed.contains(&c)),
            "exit {code:?} not in {allowed:?} under {plan:?}"
        );
    }
}

/// Satellite: OOM during the second-frame allocation of a page split.
/// Sweep the failure point across the whole spawn/split window: every k
/// must end in a clean death or a degraded (never panicking) run, frame
/// accounting must balance, and at least one k must hit the engine's
/// degradation path specifically.
#[test]
fn oom_at_every_k_is_clean_and_some_k_degrades() {
    let mut saw_degrade = false;
    for k_th in 1..=70u64 {
        let plan = FaultPlan {
            oom_at: Some(k_th),
            ..FaultPlan::default()
        };
        let mut k = chaos_kernel(&Protection::Combined(ResponseMode::Break), plan);
        let prog = ProgramBuilder::new("/bin/oomtest")
            .mixed_segment()
            .code(
                "_start:
                    mov [v], 3
                    mov ebx, 0
                    call exit
                 v: .word 0",
            )
            .build()
            .unwrap();
        match k.spawn(&prog.image) {
            Ok(_) => {
                let exit = k.run(20_000_000);
                assert!(
                    !matches!(exit, RunExit::Livelock { .. }),
                    "oom_at={k_th} livelocked"
                );
            }
            Err(sm_kernel::kernel::SpawnError::OutOfMemory) => {}
            Err(e) => panic!("oom_at={k_th}: unexpected spawn error {e:?}"),
        }
        // Frame accounting balances whatever happened...
        assert_eq!(
            k.sys.machine.phys.allocator.allocated_count() as usize,
            k.sys.frames.tracked(),
            "oom_at={k_th} leaked or double-freed"
        );
        // ...and once every process is gone, nothing stays allocated.
        if k.sys
            .procs
            .values()
            .all(|p| p.state == sm_kernel::process::ProcState::Zombie)
        {
            assert_eq!(
                k.sys.machine.phys.allocator.allocated_count(),
                0,
                "oom_at={k_th} left frames allocated after all exits"
            );
        }
        let degraded = k
            .sys
            .events
            .iter()
            .any(|e| matches!(e, sm_kernel::events::Event::SplitDegraded { .. }));
        saw_degrade |= degraded;
    }
    assert!(
        saw_degrade,
        "no k in 1..=70 hit the engine's OOM degradation path"
    );
}

/// Perturbation plans must keep an injection attack exactly as foiled as
/// the fault-free run, with clean invariants throughout.
#[test]
fn perturbed_attack_verdicts_match_the_fault_free_run() {
    let case = wilander::Case {
        technique: Technique::FuncPtrVariable,
        location: InjectLocation::Stack,
    };
    let scenarios = [Scenario::Wilander(case), Scenario::Benign];
    let results = chaos::sweep(&[7], &scenarios, &RunSpec::new(split_break()));
    assert!(!results.is_empty());
    for r in &results {
        assert!(
            r.verdict_stable,
            "{}/{} seed={}: verdict {:?} != baseline {:?}",
            r.scenario, r.plan, r.seed, r.run.verdict, r.baseline
        );
        assert!(
            r.run.violations.is_empty(),
            "{}/{}: violations {:?}",
            r.scenario,
            r.plan,
            r.run.violations
        );
        assert!(
            !r.run.attack_succeeded,
            "{}/{} attack succeeded",
            r.scenario, r.plan
        );
    }
}

/// OOM plans may change how a run ends but never let the attack win, and
/// never corrupt the engine's structural invariants.
#[test]
fn oom_plans_never_let_the_attack_win() {
    let case = wilander::Case {
        technique: Technique::ReturnAddress,
        location: InjectLocation::Stack,
    };
    let scenarios = [Scenario::Wilander(case)];
    let combined = RunSpec::new(Protection::Combined(ResponseMode::Break));
    let results = chaos::sweep_oom(&[7], &scenarios, &combined);
    assert!(!results.is_empty());
    for r in &results {
        assert!(
            !r.run.attack_succeeded,
            "{}/{}: attack succeeded under OOM ({})",
            r.scenario, r.plan, r.run.verdict
        );
        assert!(
            r.run.violations.is_empty(),
            "{}/{}: violations {:?}",
            r.scenario,
            r.plan,
            r.run.violations
        );
    }
}

/// Same seed + same plan = byte-for-byte the same run: cycle count, event
/// log and injected-fault statistics all replay exactly.
#[test]
fn chaos_runs_are_deterministic() {
    let plan = FaultPlan {
        flush_every: Some(41),
        evict_every: Some(11),
        preempt_every: Some(23),
        flush_in_window: true,
        seed: 99,
        ..FaultPlan::default()
    };
    let run = || {
        let mut k = chaos_kernel(&split_break(), plan);
        let prog = ProgramBuilder::new("/bin/det")
            .mixed_segment()
            .code(
                "_start:
                    mov ecx, 12
                top:
                    mov [scratch], ecx
                    dec ecx
                    cmp ecx, 0
                    jne top
                    mov ebx, 0
                    call exit
                 scratch: .word 0",
            )
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        let exit = k.run(50_000_000);
        let stats = k.sys.chaos.as_ref().map(|c| c.stats);
        let events = format!("{:?}", k.sys.events.entries());
        (exit, k.sys.machine.cycles, stats, events)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same (plan, seed) must replay identically");
    let stats = a.2.expect("chaos state present");
    assert!(
        stats.flushes > 0,
        "plan actually injected flushes: {stats:?}"
    );
}

/// Determinism is per `(plan, seed, geometry)`: the same plan replays
/// byte-for-byte on the set-associative Pentium III TLBs too, chaos
/// evictions actually land (set then way from the seeded draw), and the
/// injected evictions are accounted apart from genuine LRU pressure in
/// both TLBs — `TlbStats::evictions` only ever counts replacement.
#[test]
fn chaos_runs_replay_identically_per_geometry() {
    let plan = FaultPlan {
        flush_every: Some(41),
        evict_every: Some(7),
        preempt_every: Some(23),
        seed: 99,
        ..FaultPlan::default()
    };
    let run = |tlb: TlbPreset| {
        let mut k = kernel_with(&RunSpec {
            protection: split_break(),
            tlb,
            kconfig: KernelConfig {
                aslr_stack: false,
                chaos: plan,
                ..KernelConfig::default()
            },
        });
        let prog = ProgramBuilder::new("/bin/det")
            .mixed_segment()
            .code(
                "_start:
                    mov ecx, 12
                top:
                    mov [scratch], ecx
                    dec ecx
                    cmp ecx, 0
                    jne top
                    mov ebx, 0
                    call exit
                 scratch: .word 0",
            )
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        let exit = k.run(50_000_000);
        let stats = k.sys.chaos.as_ref().map(|c| c.stats);
        let events = format!("{:?}", k.sys.events.entries());
        let itlb = k.sys.machine.itlb.stats;
        let dtlb = k.sys.machine.dtlb.stats;
        (exit, k.sys.machine.cycles, stats, events, itlb, dtlb)
    };
    let p3 = TlbPreset::pentium3();
    let a = run(p3);
    let b = run(p3);
    assert_eq!(a, b, "same (plan, seed, geometry) must replay identically");
    let (_, _, stats, _, itlb, dtlb) = a;
    let stats = stats.expect("chaos state present");
    assert!(stats.evictions > 0, "plan injected evictions: {stats:?}");
    // One round draws once per TLB; a draw on an empty TLB is a no-op, so
    // each TLB's chaos count is bounded by the number of rounds — and the
    // running program guarantees at least some landed.
    assert!(itlb.chaos_evictions > 0 || dtlb.chaos_evictions > 0);
    assert!(itlb.chaos_evictions <= stats.evictions);
    assert!(dtlb.chaos_evictions <= stats.evictions);
    // The compat geometry replays the same plan deterministically as well,
    // even though the victims it picks differ.
    let flat = run(TlbPreset::default());
    assert_eq!(flat, run(TlbPreset::default()));
}
