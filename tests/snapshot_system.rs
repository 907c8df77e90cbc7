//! System tests for the checkpoint/restore subsystem.
//!
//! * **Transparency** — a checkpointed chaos run retires the same
//!   verdict and emits the same trace stream as the uncheckpointed run:
//!   the snapshot-op fault clock is independent of the step/fs streams,
//!   so taking (or corrupting) checkpoints never perturbs the guest.
//! * **Splice correctness** — a run restored from its latest checkpoint
//!   and driven to the original deadline reproduces the original verdict
//!   and splices into the byte-identical trace JSONL, for arbitrary
//!   perturbation plans and checkpoint intervals (proptest).
//! * **Fault containment** — every corrupted snapshot or dump is detected
//!   at load and rejected with an error; nothing panics (fuzz).
//! * **Determinism** — snapshot and dump bytes are identical across rayon
//!   thread counts, and warm-started kernels are byte-identical to cold
//!   boots.
//! * **Trace knobs** — `KernelConfig::trace_capacity` bounds the ring and
//!   `KernelConfig::trace_pid` filters events without assigning sequence
//!   numbers to dropped ones.

use proptest::prelude::*;
use sm_attacks::wilander;
use sm_bench::chaos::{self, Scenario};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::{FaultPlan, SnapshotFault};
use sm_machine::trace::mask;
use sm_machine::TlbPreset;

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

/// Split memory under `plan` with every trace layer recording: the spec
/// of the checkpointed chaos runs below.
fn traced(plan: FaultPlan) -> RunSpec {
    let mut spec = chaos::with_plan(&RunSpec::new(split_break()), plan);
    spec.kconfig.trace = mask::ALL;
    spec
}

/// The spec dumps replay under (the dump supplies the protection).
fn replay_base() -> RunSpec {
    RunSpec::new(Protection::Unprotected)
}

fn canonical_scenario() -> Scenario {
    Scenario::Wilander(
        wilander::all_cases()
            .into_iter()
            .find(|c| c.applicable())
            .expect("an applicable wilander case"),
    )
}

/// A plan that perturbs the run *and* faults every other checkpoint.
fn snap_faulting_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        flush_every: Some(101),
        evict_every: Some(17),
        snap_fault_every: Some(2),
        seed,
        ..FaultPlan::default()
    }
}

fn dump_of(cp: &chaos::Checkpointed, scenario: Scenario, plan: FaultPlan, stride: u64) -> Vec<u8> {
    chaos::write_dump(&chaos::FailureDump {
        scenario: scenario.name(),
        plan_name: "test",
        protection: split_break(),
        tlb: TlbPreset::default(),
        plan,
        marker: cp.marker,
        pid: cp.pid,
        trace_mask: mask::ALL,
        slice: cp.snapshot_slice,
        seq0: cp.snapshot_seq,
        deadline: cp.deadline,
        stride,
        expected_verdict: cp.run.verdict.clone(),
        tail_sha: cp.tail_sha,
        snapshot: cp.snapshot.clone().expect("checkpoint exists"),
    })
    .expect("dump encodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary perturbation plans and checkpoint intervals, the
    /// checkpointed run matches the plain run exactly, and a replay from
    /// its latest checkpoint reproduces the verdict and splices into the
    /// byte-identical trace stream.
    #[test]
    fn replay_from_checkpoint_is_exact(seed in 1u64..32, plan_idx in 0usize..7, every in 1u64..4) {
        let scenario = canonical_scenario();
        let plans = chaos::perturbation_plans(seed);
        let plan = FaultPlan {
            snap_fault_every: Some(3),
            ..plans[plan_idx % plans.len()].plan
        };
        let spec = traced(plan);
        let (plain, plain_jsonl) = chaos::run_scenario(scenario, &spec);
        let cp = chaos::run_scenario_checkpointed(
            scenario, &spec, chaos::Cadence { every, stride: 500 },
        );
        // Checkpointing (and snapshot-fault injection) is invisible to
        // the guest.
        prop_assert_eq!(&cp.run.verdict, &plain.verdict);
        prop_assert_eq!(&cp.jsonl, &plain_jsonl);
        prop_assert_eq!(cp.snap_faults_undetected, 0);
        prop_assert!(cp.run.violations.is_empty());
        // Replay from the latest good checkpoint (present unless snapshot
        // faults ate every single one).
        if cp.snapshot.is_some() {
            let dump = dump_of(&cp, scenario, plan, 500);
            let rep = chaos::replay_dump(&dump, &replay_base()).expect("dump replays");
            prop_assert!(rep.verdict_matches, "verdict {} != {}", rep.verdict, rep.expected_verdict);
            prop_assert!(rep.splice_matches, "trace tail diverged");
            prop_assert!(rep.violations.is_empty());
        }
    }
}

/// Deterministic version of the splice property across two different
/// checkpoint intervals, also pinning that multiple checkpoints were
/// actually taken and that every injected snapshot fault was detected.
#[test]
fn replay_reproduces_detection_verdict_across_intervals() {
    let scenario = canonical_scenario();
    let spec = traced(snap_faulting_plan(1));
    for every in [1u64, 2] {
        let (cp, dump) = chaos::checkpointed_dump(
            scenario,
            &spec,
            "seeded-detection",
            chaos::Cadence { every, stride: 500 },
        )
        .expect("combo dumps");
        assert!(
            cp.checkpoints_taken >= 2,
            "interval {every}: want >=2 checkpoints, got {}",
            cp.checkpoints_taken
        );
        assert!(cp.snap_faults_injected > 0, "plan must fault snapshots");
        assert_eq!(cp.snap_faults_undetected, 0, "all faults must be caught");
        assert_eq!(cp.run.verdict, "foiled(detected=true)");
        let rep = chaos::replay_dump(&dump, &replay_base()).expect("dump replays");
        assert!(
            rep.verdict_matches,
            "{} != {}",
            rep.verdict, rep.expected_verdict
        );
        assert_eq!(rep.verdict, "foiled(detected=true)");
        assert!(rep.splice_matches, "interval {every}: trace tail diverged");
        assert!(rep.violations.is_empty());
        assert!(!rep.attack_succeeded);
    }
}

/// Every structured snapshot fault and every unstructured dump mutation
/// is rejected with a typed error — zero panics across the whole fuzz.
#[test]
fn corrupted_snapshots_and_dumps_never_panic() {
    let scenario = canonical_scenario();
    let split = split_break();
    let plan = snap_faulting_plan(7);
    let cp = chaos::run_scenario_checkpointed(
        scenario,
        &traced(plan),
        chaos::Cadence {
            every: 1,
            stride: 500,
        },
    );
    let snap = cp.snapshot.clone().expect("checkpoint exists");
    let dump = dump_of(&cp, scenario, plan, 500);

    // Structured faults on the kernel snapshot: every kind, many seeds.
    for seed in 0..48u64 {
        for fault in [
            SnapshotFault::Truncate,
            SnapshotFault::BitFlip,
            SnapshotFault::SectionReorder,
            SnapshotFault::VersionSkew,
        ] {
            let mut b = snap.clone();
            ksnap::corrupt_snapshot(&mut b, fault, seed);
            assert!(
                ksnap::validate(&b).is_err(),
                "{fault:?} seed {seed} undetected"
            );
            assert!(
                ksnap::restore(&b, split.engine()).is_err(),
                "{fault:?} seed {seed} restored"
            );
        }
    }

    // Unstructured mutations on the dump: bit flips anywhere (including
    // inside the embedded snapshot and the trailing digest) and
    // truncations at arbitrary offsets.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..200 {
        let mut b = dump.clone();
        let i = next() as usize % b.len();
        b[i] ^= 1 << (next() % 8);
        assert!(
            chaos::replay_dump(&b, &replay_base()).is_err(),
            "flip at {i} accepted"
        );
    }
    for _ in 0..50 {
        let cut = next() as usize % dump.len();
        assert!(
            chaos::replay_dump(&dump[..cut], &replay_base()).is_err(),
            "cut at {cut} accepted"
        );
    }
    assert!(chaos::replay_dump(&[], &replay_base()).is_err());
}

/// Snapshot/dump bytes are a pure function of the run: identical whether
/// the surrounding sweep machinery ran parallel (whatever
/// `RAYON_NUM_THREADS` is pinned to) or on the single-threaded serial
/// reference, and a restored snapshot re-saves to its exact input
/// (canonical round-trip).
#[test]
fn snapshot_bytes_identical_across_thread_counts() {
    let scenario = canonical_scenario();
    let make = || {
        let (cp, dump) = chaos::checkpointed_dump(
            scenario,
            &traced(snap_faulting_plan(1)),
            "golden",
            chaos::Cadence {
                every: 2,
                stride: 500,
            },
        )
        .expect("combo dumps");
        (cp.snapshot.expect("checkpoint exists"), dump)
    };
    let lines = |combos: &[chaos::ComboResult]| -> Vec<String> {
        combos.iter().map(|c| format!("{c:?}")).collect()
    };
    let split = RunSpec::new(split_break());
    let parallel = chaos::sweep(&[1], &[scenario], &split);
    let a = make();
    let serial = chaos::sweep_serial(&[1], &[scenario], &split);
    let b = make();
    assert_eq!(lines(&parallel), lines(&serial));
    assert_eq!(a.0, b.0, "snapshot bytes differ across runs/thread counts");
    assert_eq!(a.1, b.1, "dump bytes differ across runs/thread counts");
    let k = ksnap::restore(&a.0, split_break().engine()).expect("snapshot restores");
    assert_eq!(ksnap::save(&k), a.0, "round-trip is not canonical");
}

/// Run-to-run snapshot determinism for the protection engines: the
/// split-memory page-table map is ordered (`BTreeMap`), so two
/// identically-driven kernels built in the same process serialize
/// byte-identically — a `HashMap` there would reorder the serialized
/// tables between instances (each map draws its own hash seed) and break
/// dump diffing, golden snapshots, and replay-from-checkpoint equality.
#[test]
fn engine_snapshot_bytes_deterministic_run_to_run() {
    for protection in [
        split_break(),
        Protection::Combined(ResponseMode::Break),
        Protection::ShadowCombined(ResponseMode::Break),
    ] {
        let bytes = || {
            let (k, _) = sm_attacks::code_reuse::run_libd_benign(&RunSpec::new(protection.clone()));
            ksnap::save(&k)
        };
        let a = bytes();
        let b = bytes();
        assert_eq!(
            a,
            b,
            "snapshot bytes differ run-to-run under {}",
            protection.label()
        );
        let k = ksnap::restore(&a, protection.engine()).expect("snapshot restores");
        assert_eq!(
            ksnap::save(&k),
            a,
            "round-trip not canonical under {}",
            protection.label()
        );
    }
}

/// Every digest a real snapshot carries is the same on the dispatched
/// SHA-256 path (SHA-NI where the host has it) and on the scalar oracle:
/// the manifest hash and each section hash of a busy kernel's container,
/// recomputed both ways, equal what `save` recorded. The container stays
/// at format version 1.
#[test]
fn snapshot_digests_match_the_scalar_oracle() {
    use sm_machine::sha256::{sha256, sha256_scalar};
    let protection = RunSpec::new(Protection::ShadowCombined(ResponseMode::Break));
    let (k, _) = sm_attacks::code_reuse::run_libd_benign(&protection);
    let bytes = ksnap::save(&k);
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;

    assert_eq!(bytes[..8], ksnap::MAGIC);
    assert_eq!(
        (ksnap::VERSION, u32_at(8)),
        (1, 1),
        "container version moved"
    );
    let count = u32_at(12) as usize;
    assert_eq!(count, 12, "sections");
    let header_len = 16 + count * 52;
    let manifest = &bytes[..header_len];
    let recorded = &bytes[header_len..header_len + 32];
    assert_eq!(sha256(manifest), recorded, "manifest, dispatched path");
    assert_eq!(sha256_scalar(manifest), recorded, "manifest, scalar oracle");

    let payloads = &bytes[header_len + 32..];
    for at in (16..header_len).step_by(52) {
        let tag = String::from_utf8_lossy(&bytes[at..at + 4]).into_owned();
        let (offset, len) = (u64_at(at + 4), u64_at(at + 12));
        let recorded = &bytes[at + 20..at + 52];
        let payload = &payloads[offset..offset + len];
        assert_eq!(sha256(payload), recorded, "{tag}, dispatched path");
        assert_eq!(sha256_scalar(payload), recorded, "{tag}, scalar oracle");
    }
}

fn loop_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/loop")
        .code(
            "_start:
                mov ecx, 5000
            again:
                dec ecx
                jnz again
                mov ebx, 0
                call exit",
        )
        .build()
        .expect("loop assembles")
}

/// Warm-started kernels (restored from the cached post-boot snapshot) are
/// byte-identical to cold boots, at construction and after running a
/// guest to completion.
#[test]
fn warm_start_is_byte_identical_to_cold() {
    let split = RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            ..KernelConfig::default()
        },
        ..RunSpec::new(split_break())
    };
    let cold = split.kernel();
    // First call seeds the cache (itself a cold boot), second restores.
    let _ = split.kernel_warm();
    let warm = split.kernel_warm();
    assert_eq!(
        ksnap::save(&cold),
        ksnap::save(&warm),
        "warm boot differs from cold boot"
    );
    let prog = loop_program();
    let mut cold = cold;
    let mut warm = warm;
    cold.spawn(&prog.image).expect("spawns cold");
    warm.spawn(&prog.image).expect("spawns warm");
    assert_eq!(cold.run(50_000_000), RunExit::AllExited);
    assert_eq!(warm.run(50_000_000), RunExit::AllExited);
    assert_eq!(cold.sys.machine.cycles, warm.sys.machine.cycles);
    assert_eq!(
        format!("{:?}", cold.sys.machine.stats),
        format!("{:?}", warm.sys.machine.stats)
    );
    assert_eq!(ksnap::save(&cold), ksnap::save(&warm));
}

/// Warm-start cache keys must distinguish every `KernelConfig` knob —
/// including the trace knobs that postdate the cache. Seeding the cache
/// with one config and then requesting a pid-filtered, capacity-bounded
/// variant must yield a kernel byte-identical to a cold boot of that
/// variant (a key collision would hand back the unfiltered boot), at
/// construction and after running a guest under the filter.
#[test]
fn warm_cache_distinguishes_trace_knobs() {
    let base = RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            trace: mask::ALL,
            ..KernelConfig::default()
        },
        ..RunSpec::new(split_break())
    };
    let mut filtered = base.clone();
    filtered.kconfig.trace_pid = Some(1);
    filtered.kconfig.trace_capacity = 8;
    // Seed the cache with the unfiltered sibling first — the regression
    // scenario is the *second* lookup aliasing the first's snapshot.
    let _ = base.kernel_warm();
    let _ = filtered.kernel_warm();
    let warm = filtered.kernel_warm();
    let cold = filtered.kernel();
    assert_eq!(
        ksnap::save(&cold),
        ksnap::save(&warm),
        "warm-start cache aliased distinct trace configs"
    );
    let prog = loop_program();
    let mut cold = cold;
    let mut warm = warm;
    let pid_c = cold.spawn(&prog.image).expect("spawns cold");
    let pid_w = warm.spawn(&prog.image).expect("spawns warm");
    assert_eq!(pid_c, pid_w);
    assert_eq!(cold.run(50_000_000), RunExit::AllExited);
    assert_eq!(warm.run(50_000_000), RunExit::AllExited);
    assert_eq!(
        cold.sys.machine.tracer.to_jsonl(),
        warm.sys.machine.tracer.to_jsonl(),
        "filtered trace streams diverged between warm and cold boots"
    );
    assert!(
        cold.sys.machine.tracer.snapshot().len() <= 8,
        "capacity knob lost through the warm cache"
    );
    assert_eq!(ksnap::save(&cold), ksnap::save(&warm));
}

/// `trace_capacity` bounds the ring; `trace_pid` filters events before a
/// sequence number is assigned.
#[test]
fn trace_knobs_bound_and_filter_the_ring() {
    let split = |kconfig| {
        RunSpec {
            kconfig,
            ..RunSpec::new(split_break())
        }
        .kernel()
    };
    let prog = loop_program();

    // Capacity knob: tiny ring, long event stream.
    let mut k = split(KernelConfig {
        aslr_stack: false,
        trace: mask::ALL,
        trace_capacity: 8,
        ..KernelConfig::default()
    });
    k.spawn(&prog.image).expect("spawns");
    assert_eq!(k.run(50_000_000), RunExit::AllExited);
    let ring = k.sys.machine.tracer.snapshot();
    assert!(ring.len() <= 8, "ring exceeded capacity: {}", ring.len());
    assert!(
        k.sys.machine.tracer.emitted() > 8,
        "guest must emit more events than the ring holds"
    );

    // Pid filter: a filter on the real pid keeps only events involving
    // it; a filter on a pid that never exists keeps (and numbers)
    // nothing.
    let spawn_traced = |pid_filter| {
        let mut k = split(KernelConfig {
            aslr_stack: false,
            trace: mask::ALL,
            trace_pid: pid_filter,
            ..KernelConfig::default()
        });
        let pid = k.spawn(&prog.image).expect("spawns");
        assert_eq!(k.run(50_000_000), RunExit::AllExited);
        (k, pid)
    };
    let (unfiltered, pid) = spawn_traced(None);
    let (filtered, pid2) = spawn_traced(Some(pid.0));
    assert_eq!(pid, pid2, "spawn order is deterministic");
    let kept = filtered.sys.machine.tracer.snapshot();
    assert!(!kept.is_empty(), "the guest's own events must survive");
    assert!(kept.iter().all(|r| r.event.involves(pid.0)));
    assert!(filtered.sys.machine.tracer.emitted() <= unfiltered.sys.machine.tracer.emitted());
    // A pid that never exists keeps only the ambient machine-layer TLB
    // events (which carry no process id and pass any filter).
    let (none, _) = spawn_traced(Some(9999));
    assert!(
        none.sys
            .machine
            .tracer
            .snapshot()
            .iter()
            .all(|r| r.event.kind().starts_with("tlb_")),
        "per-process events leaked past the filter"
    );
}

/// The checked-in golden dump replays on the current build. Regenerate
/// with `cargo run --release --bin chaos -- --dump-demo
/// tests/golden/chaos_demo.smcdump` after intentional changes to the
/// instruction stream, trace schema or snapshot format.
#[test]
fn golden_dump_replays() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_demo.smcdump"
    );
    let bytes = std::fs::read(path).expect("golden dump is checked in");
    let rep = chaos::replay_dump(&bytes, &replay_base()).expect("golden dump replays");
    assert!(
        rep.verdict_matches,
        "{} != {}",
        rep.verdict, rep.expected_verdict
    );
    assert!(rep.splice_matches, "golden trace tail diverged");
    assert!(rep.violations.is_empty());
    assert_eq!(rep.verdict, "foiled(detected=true)");
}
