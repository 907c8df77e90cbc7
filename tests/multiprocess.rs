//! Multi-process subsystem properties: forking must be *transparent* to
//! the parent's computation, and everything about fork/COW must be
//! deterministic.
//!
//! The literal "machine state identical to the never-forked run" reading
//! is impossible — fork, waitpid and the child's slice all retire
//! instructions and cost cycles — so the tests pin the strongest
//! properties that *are* true:
//!
//! * the parent's observable result (its exit status) is identical
//!   between the forked run (with a child that COW-breaks a shared page
//!   and exits) and the never-forked run, for arbitrary workloads;
//! * repeated forked runs are byte-identical (`MachineStats` debug
//!   output, kernel counters, event count) — fork adds no
//!   nondeterminism;
//! * chaos preemption moves the context-switch points but never the
//!   outcome, and COW-break counts stay deterministic under it.
//!
//! The thread-count half of the determinism story (sweeps identical
//! across `RAYON_NUM_THREADS`) lives in `parallel_sweeps.rs`.

use proptest::prelude::*;
use sm_core::invariants;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::FaultPlan;

/// The parent workload shared by both variants: `n` additions of `step`,
/// exit status masked to 6 bits.
fn work_asm(n: u32, step: u32) -> String {
    format!(
        "work:
                mov ecx, {n}
                mov eax, 0
            w_loop:
                add eax, {step}
                dec ecx
                jnz w_loop
                and eax, 63
                mov ebx, eax
                call exit"
    )
}

/// What the workload's exit status must be, computed host-side.
fn expected_exit(n: u32, step: u32) -> i32 {
    (n.wrapping_mul(step) & 63) as i32
}

/// Fork first: the child COW-breaks a shared data page and exits, the
/// parent reaps it and only then runs the workload.
fn forked_program(n: u32, step: u32) -> BuiltProgram {
    ProgramBuilder::new("/bin/forked")
        .code(&format!(
            "_start:
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, 0
                int 0x80
                jmp work
            child:
                mov dword [v], 7   ; COW break on a shared data page
                mov ebx, 0
                call exit
            {work}",
            work = work_asm(n, step)
        ))
        .data("v: .word 1")
        .build()
        .unwrap()
}

/// The same workload with no fork at all.
fn plain_program(n: u32, step: u32) -> BuiltProgram {
    ProgramBuilder::new("/bin/plain")
        .code(&format!(
            "_start:
                jmp work
            {work}",
            work = work_asm(n, step)
        ))
        .data("v: .word 1")
        .build()
        .unwrap()
}

/// Observable outcome of one run: initiating process's exit status, the
/// machine counters rendered for byte-comparison, the kernel's COW-break
/// count, and the event-log length.
struct RunOutcome {
    exit_code: Option<i32>,
    machine_stats: String,
    cow_breaks: u64,
    events: usize,
}

/// Run under split memory with invariant checking between slices,
/// asserting convergence, clean invariants, and frame balance.
fn run_checked(prog: &BuiltProgram, plan: FaultPlan) -> RunOutcome {
    let mut k = RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            chaos: plan,
            ..KernelConfig::default()
        },
        ..RunSpec::new(Protection::SplitMem(ResponseMode::Break))
    }
    .kernel();
    let free0 = k.sys.machine.phys.allocator.free_count();
    let pid = k.spawn(&prog.image).expect("program spawns");
    let (exit, violations) = invariants::run_with_checks(&mut k, 100_000_000, 100_000);
    assert_eq!(exit, RunExit::AllExited);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
    let out = RunOutcome {
        exit_code: k.sys.proc(pid).exit_code,
        machine_stats: format!("{:?}", k.sys.machine.stats),
        cow_breaks: k.sys.stats.cow_breaks,
        events: k.sys.events.len(),
    };
    let pids: Vec<u32> = k.sys.procs.keys().copied().collect();
    for p in pids {
        k.sys.procs.remove(&p);
    }
    assert_eq!(
        k.sys.machine.phys.allocator.free_count(),
        free0,
        "frames leaked across fork/exit"
    );
    out
}

#[test]
fn fork_then_child_exit_is_invisible_to_the_parent() {
    let forked = run_checked(&forked_program(5, 100), FaultPlan::default());
    let plain = run_checked(&plain_program(5, 100), FaultPlan::default());
    assert_eq!(forked.exit_code, Some(expected_exit(5, 100)));
    assert_eq!(forked.exit_code, plain.exit_code);
    assert!(forked.cow_breaks >= 1, "child's store must COW-break");
    assert_eq!(plain.cow_breaks, 0);
}

#[test]
fn forked_runs_are_byte_identical_across_repeats() {
    let a = run_checked(&forked_program(3, 7), FaultPlan::default());
    let b = run_checked(&forked_program(3, 7), FaultPlan::default());
    assert_eq!(a.exit_code, b.exit_code);
    assert_eq!(a.machine_stats, b.machine_stats);
    assert_eq!(a.cow_breaks, b.cow_breaks);
    assert_eq!(a.events, b.events);
}

#[test]
fn cow_breaks_under_chaos_preemption_are_deterministic() {
    // Forced preemption between arbitrary instruction pairs moves the
    // context-switch points into the middle of the fork/COW dance; the
    // outcome — and every counter — must not move with them.
    let plan = FaultPlan {
        preempt_every: Some(37),
        seed: 1,
        ..FaultPlan::default()
    };
    let a = run_checked(&forked_program(4, 9), plan);
    let b = run_checked(&forked_program(4, 9), plan);
    assert_eq!(a.exit_code, Some(expected_exit(4, 9)));
    assert_eq!(a.exit_code, b.exit_code);
    assert_eq!(a.machine_stats, b.machine_stats);
    assert_eq!(a.cow_breaks, b.cow_breaks);
    assert!(a.cow_breaks >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the parent computes, forking a trivial child first (and
    /// letting it dirty a COW-shared page) never changes the answer.
    #[test]
    fn forked_parent_exits_like_the_never_forked_run(
        n in 1u32..=6,
        step in 1u32..=4096,
    ) {
        let forked = run_checked(&forked_program(n, step), FaultPlan::default());
        let plain = run_checked(&plain_program(n, step), FaultPlan::default());
        prop_assert_eq!(forked.exit_code, Some(expected_exit(n, step)));
        prop_assert_eq!(forked.exit_code, plain.exit_code);
        prop_assert!(forked.cow_breaks >= 1);
    }

    /// The preemption period chooses *where* the scheduler interleaves
    /// the two processes, never *what* they compute.
    #[test]
    fn preemption_period_never_changes_the_outcome(
        n in 1u32..=4,
        step in 1u32..=1000,
        period in 5u64..=200,
    ) {
        let plan = FaultPlan {
            preempt_every: Some(period),
            ..FaultPlan::default()
        };
        let run = run_checked(&forked_program(n, step), plan);
        prop_assert_eq!(run.exit_code, Some(expected_exit(n, step)));
    }
}
