//! System-level decode-cache coherence: the per-frame write-generation
//! protocol must interact correctly with split-memory semantics.
//!
//! Under split memory, a "self-modifying" store is redirected to the
//! *data* frame while fetches (and thus cached decodes) read the *code*
//! frame — so a data-frame attack run must complete with **zero**
//! decode-cache invalidations. On an unprotected kernel the same store
//! lands on the single backing frame, and the very next fetch of the
//! patched site must observe a fresh decode (≥ 1 invalidation).

use sm_attacks::harness::{classify_marker, kernel_with, AttackOutcome};
use sm_attacks::wilander::{self, Case, InjectLocation, Technique, MARKER};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::ProgramBuilder;

fn kernel(protection: &Protection) -> Kernel {
    kernel_with(&RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            ..KernelConfig::default()
        },
        ..RunSpec::new(protection.clone())
    })
}

/// A mixed-segment program that patches the immediate of its own
/// `mov ebx, 9` to 7: the exit code tells us which bytes were *fetched*,
/// the decode-cache counters tell us whether the patch reached the frame
/// that decodes are cached against.
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

#[test]
fn unprotected_self_patch_invalidates_and_executes_fresh_bytes() {
    let mut k = kernel(&Protection::Unprotected);
    let pid = k.spawn(&self_patcher()).unwrap();
    assert_eq!(k.run(80_000_000), RunExit::AllExited);
    // The store hit the one backing frame: the patched immediate must be
    // what executes...
    assert_eq!(k.sys.procs.get(&pid.0).and_then(|p| p.exit_code), Some(7));
    // ...which is only possible if the stale cached decode was discarded.
    let stats = k.sys.machine.decode_cache.stats;
    assert!(
        stats.invalidations >= 1,
        "patched frame must invalidate its decodes: {stats:?}"
    );
}

#[test]
fn split_memory_self_patch_keeps_code_frame_decodes_valid() {
    let mut k = kernel(&Protection::SplitMem(ResponseMode::Break));
    let pid = k.spawn(&self_patcher()).unwrap();
    assert_eq!(k.run(80_000_000), RunExit::AllExited);
    // Split memory silently diverts the store to the data frame (paper
    // §7): the original immediate keeps executing...
    assert_eq!(k.sys.procs.get(&pid.0).and_then(|p| p.exit_code), Some(9));
    // ...and no frame holding cached decodes is ever written, so the run
    // completes without a single invalidation while still hitting.
    let stats = k.sys.machine.decode_cache.stats;
    assert_eq!(
        stats.invalidations, 0,
        "data-frame store must not touch code-frame decodes: {stats:?}"
    );
    assert!(stats.hits > 0, "hot fetch path should hit: {stats:?}");
}

#[test]
fn split_memory_code_injection_attack_never_invalidates_code_frames() {
    // A classic stack-smash that injects code via data writes: under split
    // memory every attacker store lands on data frames, so the decode
    // cache must ride through the whole attack without one invalidation.
    let case = Case {
        technique: Technique::ReturnAddress,
        location: InjectLocation::Stack,
    };
    let image = wilander::build_case(case).expect("applicable").image;
    let mut k = kernel(&Protection::SplitMem(ResponseMode::Break));
    let pid = k.spawn(&image).unwrap();
    k.run(80_000_000);
    let outcome = classify_marker(&k, pid, MARKER);
    assert!(
        matches!(outcome, AttackOutcome::Foiled { .. }),
        "split memory must foil the attack: {outcome:?}"
    );
    let stats = k.sys.machine.decode_cache.stats;
    assert_eq!(
        stats.invalidations, 0,
        "attack writes are data-frame writes: {stats:?}"
    );
    assert!(stats.hits > 0, "{stats:?}");
}
