//! Superblock-pipeline equivalence system tests.
//!
//! The pipeline ([`sm_machine::Machine::run_block`]) is an execution
//! *strategy*, not machine state: every observable — cycle ledger,
//! machine counters, both TLBs' hit/miss/3C/eviction stats, the trace
//! JSONL stream, the kernel event log and every detection verdict — must
//! be indistinguishable from per-step dispatch.
//!
//! * **Equivalence** — pipeline-on ≡ pipeline-off across seeds × chaos
//!   plans × TLB geometries × trace ring capacities (proptest), and for
//!   a store/load/branch-heavy compute guest under both protections.
//! * **Coherence** — a self-modifying guest executes its freshly written
//!   bytes (exit code proves which bytes ran) with at least one
//!   superblock bailout and one decode invalidation along the way.
//! * **Snapshot compat** — snapshot bytes do not depend on the pipeline
//!   setting, a restored kernel starts with a cold (derived-only)
//!   superblock tier, and the restored run converges identically.
//! * **Spec reach** — a `RunSpec` with the pipeline off yields per-step
//!   kernels whether booted cold, warm-started or restored, and the
//!   figure runners' bars and points are identical with it on and off.

use proptest::prelude::*;
use sm_attacks::harness::{classify_marker, kernel_with, AttackOutcome};
use sm_attacks::wilander::{self, InjectLocation, Technique, MARKER};
use sm_bench::chaos;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::ProgramBuilder;
use sm_machine::chaos::FaultPlan;
use sm_machine::trace::mask;
use sm_machine::{SuperblockStats, TlbPreset};

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

fn canonical_case() -> wilander::Case {
    wilander::Case {
        technique: Technique::ReturnAddress,
        location: InjectLocation::Stack,
    }
}

/// Run one Wilander cell to completion with the given knobs, returning
/// the kernel and its verdict.
fn run_case(
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
    trace_capacity: usize,
    pipeline: bool,
) -> (Kernel, String) {
    let built = wilander::build_case(canonical_case()).expect("case applies");
    let mut k = kernel_with(&RunSpec {
        protection: protection.clone(),
        tlb,
        kconfig: KernelConfig {
            aslr_stack: false,
            chaos: plan,
            trace: mask::ALL,
            trace_capacity,
            pipeline,
            ..KernelConfig::default()
        },
    });
    let pid = k.spawn(&built.image).expect("spawn");
    let exit = k.run(80_000_000);
    assert_eq!(exit, RunExit::AllExited, "case must converge: {exit:?}");
    let verdict = format!("{:?}", classify_marker(&k, pid, MARKER));
    (k, verdict)
}

/// Every observable the pipeline is required to preserve, in one place.
fn assert_observably_equal(k_on: &Kernel, k_off: &Kernel) {
    assert_eq!(k_on.sys.machine.cycles, k_off.sys.machine.cycles);
    assert_eq!(
        format!("{:?}", k_on.sys.machine.stats),
        format!("{:?}", k_off.sys.machine.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.machine.itlb.stats),
        format!("{:?}", k_off.sys.machine.itlb.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.machine.dtlb.stats),
        format!("{:?}", k_off.sys.machine.dtlb.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.machine.decode_cache.stats),
        format!("{:?}", k_off.sys.machine.decode_cache.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.stats),
        format!("{:?}", k_off.sys.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.events.entries()),
        format!("{:?}", k_off.sys.events.entries())
    );
    assert_eq!(
        k_on.sys.machine.tracer.emitted(),
        k_off.sys.machine.tracer.emitted()
    );
    assert_eq!(
        k_on.sys.machine.tracer.to_jsonl(),
        k_off.sys.machine.tracer.to_jsonl()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipeline-on is pipeline-off, observably: same verdict, cycles,
    /// machine/TLB/kernel counters, event log and trace JSONL stream —
    /// across seeds, chaos plans (index 0 is the inert plan, where the
    /// superblock tier actually engages), TLB geometries, trace ring
    /// capacities and protection engines (the shadow-stack/CFI engine's
    /// retire-path events must not perturb the block tier either).
    #[test]
    fn pipeline_on_is_pipeline_off(
        seed in 1u64..24,
        plan_idx in 0usize..8,
        geom_idx in 0usize..3,
        cap_idx in 0usize..2,
        prot_idx in 0usize..3,
    ) {
        let plan = if plan_idx == 0 {
            FaultPlan::default()
        } else {
            let plans = chaos::perturbation_plans(seed);
            plans[(plan_idx - 1) % plans.len()].plan
        };
        let tlb = [
            TlbPreset::default(),
            TlbPreset::pentium3(),
            TlbPreset::fully_associative(8),
        ][geom_idx];
        let cap = [0usize, 64][cap_idx];
        let protection = [
            split_break(),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ][prot_idx].clone();
        let (k_off, v_off) = run_case(&protection, tlb, plan, cap, false);
        let (k_on, v_on) = run_case(&protection, tlb, plan, cap, true);
        prop_assert_eq!(v_off, v_on);
        assert_observably_equal(&k_on, &k_off);
        // The pipeline-off run must never touch the superblock tier; the
        // pipeline-on run engages it whenever the chaos gate allows.
        prop_assert_eq!(
            k_off.sys.machine.superblocks.stats,
            SuperblockStats::default()
        );
        if plan_idx == 0 {
            let s = k_on.sys.machine.superblocks.stats;
            prop_assert!(
                s.builds + s.hits + s.slow_steps > 0,
                "inert plan must exercise run_block: {s:?}"
            );
        }
    }
}

/// A store/load/branch-heavy compute loop: the exact op mix the
/// superblock lane accelerates (memory traffic, conditional branches, a
/// backward self-loop), long enough to retire thousands of lane ops.
fn busy_program() -> sm_kernel::image::ExecImage {
    ProgramBuilder::new("/bin/busy")
        .code(
            "_start:
                mov ecx, 400
                mov eax, 0
            outer:
                mov [v], ecx
                mov ebx, [v]
                add eax, ebx
                cmp ebx, 100
                jbe low
                add eax, 3
            low:
                dec ecx
                jnz outer
                mov ebx, 0
                call exit",
        )
        .data("v: .word 0")
        .build()
        .expect("busy guest assembles")
        .image
}

/// The compute guest retires identically on and off, under both an
/// unprotected and a split-memory kernel.
#[test]
fn compute_guest_is_equivalent_under_both_protections() {
    for protection in [Protection::Unprotected, split_break()] {
        let run = |pipeline: bool| {
            let mut k = kernel_with(&RunSpec {
                kconfig: KernelConfig {
                    aslr_stack: false,
                    trace: mask::ALL,
                    pipeline,
                    ..KernelConfig::default()
                },
                ..RunSpec::new(protection.clone())
            });
            let pid = k.spawn(&busy_program()).expect("spawn");
            assert_eq!(k.run(80_000_000), RunExit::AllExited);
            let code = k.sys.procs.get(&pid.0).and_then(|p| p.exit_code);
            (k, code)
        };
        let (k_off, code_off) = run(false);
        let (k_on, code_on) = run(true);
        assert_eq!(code_on, Some(0), "guest exits cleanly");
        assert_eq!(code_on, code_off);
        assert_observably_equal(&k_on, &k_off);
        let s = k_on.sys.machine.superblocks.stats;
        assert!(s.hits > 0, "hot loop must re-enter cached blocks: {s:?}");
    }
}

/// Mixed-segment self-patcher (the decode-cache system test's guest):
/// patches the immediate of its own `mov ebx, 9` to 7 before reaching it.
fn self_patcher() -> sm_kernel::image::ExecImage {
    ProgramBuilder::new("/bin/patch")
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
        .expect("self-patcher assembles")
        .image
}

/// Self-modifying code under the pipeline: the write-generation bump
/// forces a mid-block bailout, the stale decodes are invalidated, and the
/// freshly written immediate is what executes — with byte-identical
/// accounting to the per-step run.
#[test]
fn self_modifying_guest_bails_and_executes_fresh_bytes() {
    let run = |pipeline: bool| {
        let mut k = kernel_with(&RunSpec {
            kconfig: KernelConfig {
                aslr_stack: false,
                pipeline,
                ..KernelConfig::default()
            },
            ..RunSpec::new(Protection::Unprotected)
        });
        let pid = k.spawn(&self_patcher()).expect("spawn");
        assert_eq!(k.run(80_000_000), RunExit::AllExited);
        let code = k.sys.procs.get(&pid.0).and_then(|p| p.exit_code);
        (k, code)
    };
    let (k_on, code_on) = run(true);
    // The patched byte executed: the superblock tier did not serve stale
    // pre-decoded ops past the store.
    assert_eq!(code_on, Some(7), "patched immediate must execute");
    let sb = k_on.sys.machine.superblocks.stats;
    assert!(
        sb.bailouts >= 1,
        "store into the executing frame must bail the block: {sb:?}"
    );
    let dc = k_on.sys.machine.decode_cache.stats;
    assert!(
        dc.invalidations >= 1,
        "patched frame must invalidate decodes: {dc:?}"
    );
    let (k_off, code_off) = run(false);
    assert_eq!(code_on, code_off);
    assert_observably_equal(&k_on, &k_off);
}

/// Snapshot compatibility: the on-disk format carries no pipeline state.
/// Snapshots taken mid-run are byte-identical whichever way the kernel
/// executes, and a restored kernel starts with a cold superblock tier
/// yet converges to the identical final state.
#[test]
fn snapshot_bytes_ignore_pipeline_and_restore_starts_cold() {
    let split = split_break();
    let built = wilander::build_case(canonical_case()).expect("case applies");
    let partial = |pipeline: bool| {
        let mut k = kernel_with(&RunSpec {
            kconfig: KernelConfig {
                aslr_stack: false,
                trace: mask::ALL,
                pipeline,
                ..KernelConfig::default()
            },
            ..RunSpec::new(split.clone())
        });
        let pid = k.spawn(&built.image).expect("spawn");
        // Stop mid-flight: enough to warm the pipeline, short of the
        // detection.
        let exit = k.run(2_000);
        assert_eq!(exit, RunExit::CyclesExhausted, "must stop mid-run");
        (k, pid)
    };
    let (k_on, pid) = partial(true);
    let (k_off, _) = partial(false);
    assert!(
        k_on.sys.machine.superblocks.stats.builds > 0,
        "pipeline must be warm at snapshot time: {:?}",
        k_on.sys.machine.superblocks.stats
    );
    let snap_on = ksnap::save(&k_on);
    let snap_off = ksnap::save(&k_off);
    assert_eq!(
        snap_on, snap_off,
        "snapshot bytes must not depend on the execution strategy"
    );

    // Restore (default config: pipeline on) — the superblock tier is
    // derived-only, so the restored machine must come up cold.
    let mut restored = ksnap::restore(&snap_on, split.engine()).expect("snapshot restores");
    assert_eq!(
        restored.sys.machine.superblocks.stats,
        SuperblockStats::default(),
        "restored kernel must start with a cold pipeline"
    );

    // Both the original and the restored kernel run to completion with
    // the pipeline on and agree on everything observable.
    let mut k_on = k_on;
    assert_eq!(k_on.run(80_000_000), RunExit::AllExited);
    assert_eq!(restored.run(80_000_000), RunExit::AllExited);
    let v_orig = format!("{:?}", classify_marker(&k_on, pid, MARKER));
    let v_rest = format!("{:?}", classify_marker(&restored, pid, MARKER));
    assert!(
        matches!(
            classify_marker(&k_on, pid, MARKER),
            AttackOutcome::Foiled { .. }
        ),
        "split memory must foil the attack: {v_orig}"
    );
    assert_eq!(v_orig, v_rest);
    assert_eq!(k_on.sys.machine.cycles, restored.sys.machine.cycles);
    assert_eq!(
        format!("{:?}", k_on.sys.machine.stats),
        format!("{:?}", restored.sys.machine.stats)
    );
    assert_eq!(
        format!("{:?}", k_on.sys.stats),
        format!("{:?}", restored.sys.stats)
    );
    assert!(
        restored.sys.machine.superblocks.stats.builds > 0,
        "restored kernel must rebuild blocks as it runs"
    );
}

/// A spec with the pipeline off reaches every kernel built from it: the
/// cold boot, the first warm start (which boots cold and caches the
/// snapshot), every later warm start (restored from that snapshot) and an
/// explicit restore all run per-step, so a hot loop never hits a cached
/// superblock. The same spec with the pipeline on does hit, so the check
/// is not vacuous.
#[test]
fn pipeline_off_spec_reaches_cold_warm_and_restored_kernels() {
    let hits = |mut k: Kernel| {
        k.spawn(&busy_program()).expect("spawn");
        assert_eq!(k.run(80_000_000), RunExit::AllExited);
        k.sys.machine.superblocks.stats.hits
    };
    let mut off = RunSpec::new(split_break());
    off.kconfig.pipeline = false;
    let cold = off.kernel();
    let warm_first = off.kernel_warm();
    let warm = off.kernel_warm();
    let restored = off
        .restore(&ksnap::save(&cold))
        .expect("own snapshot restores");
    for (name, k) in [
        ("cold", cold),
        ("first warm", warm_first),
        ("warm", warm),
        ("restored", restored),
    ] {
        assert!(!k.sys.config.pipeline, "{name} kernel is pipelined");
        assert_eq!(hits(k), 0, "{name} kernel ran superblocks");
    }
    let on = RunSpec::new(split_break());
    assert!(on.kernel_warm().sys.config.pipeline);
    assert!(hits(on.kernel_warm()) > 0, "pipelined warm kernel must hit");
}

/// The figure runners give identical bars and points with the pipeline on
/// and off (small Fig. 7–9 runs; the full figures are diffed by CI).
#[test]
fn figure_outputs_do_not_depend_on_the_pipeline() {
    let specs = [true, false].map(|pipeline| {
        let mut base = RunSpec::new(Protection::Unprotected);
        base.kconfig.pipeline = pipeline;
        base
    });
    let [on, off] = specs.map(|base| {
        (
            format!("{:?}", sm_bench::fig7::run(&base, 10)),
            format!("{:?}", sm_bench::fig8::run(&base, 3)),
            format!("{:?}", sm_bench::fig9::run(&base, 10, 1)),
        )
    });
    assert_eq!(on.0, off.0, "fig. 7 bars");
    assert_eq!(on.1, off.1, "fig. 8 points");
    assert_eq!(on.2, off.2, "fig. 9 points");
}
