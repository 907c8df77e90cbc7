//! The loader and file syscalls under injected disk faults.
//!
//! The chaos plan's fs-fault clock (`fs_error_every` / `fs_short_every`)
//! fails or truncates filesystem transfers deterministically. Whatever
//! the faulted operation — a `read`, an `execve` image load, a `dlopen`
//! library load — the kernel must unwind cleanly: the right errno reaches
//! the caller, the calling process stays runnable, no frame leaks, and
//! every cross-slice invariant holds.

use sm_core::invariants;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::FaultPlan;

/// Run `prog` under split memory with `plan`, after installing `files`
/// into the ram fs. Asserts convergence, clean invariants, and frame
/// balance; returns the exit status and the kernel for event inspection.
fn run_under_faults(
    prog: &BuiltProgram,
    files: &[(&str, Vec<u8>)],
    plan: FaultPlan,
) -> (Option<i32>, Kernel) {
    let mut k = RunSpec {
        kconfig: KernelConfig {
            aslr_stack: false,
            chaos: plan,
            ..KernelConfig::default()
        },
        ..RunSpec::new(Protection::SplitMem(ResponseMode::Break))
    }
    .kernel();
    for (path, bytes) in files {
        k.sys.fs.install(*path, bytes.clone());
    }
    let free0 = k.sys.machine.phys.allocator.free_count();
    let pid = k.spawn(&prog.image).expect("program spawns");
    let (exit, violations) = invariants::run_with_checks(&mut k, 50_000_000, 100_000);
    assert_eq!(exit, RunExit::AllExited);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
    let code = k.sys.proc(pid).exit_code;
    k.sys.procs.remove(&pid.0);
    assert_eq!(
        k.sys.machine.phys.allocator.free_count(),
        free0,
        "frames leaked across the faulted operation"
    );
    (code, k)
}

/// Plan failing every filesystem operation with an I/O error.
fn always_eio() -> FaultPlan {
    FaultPlan {
        fs_error_every: Some(1),
        ..FaultPlan::default()
    }
}

/// Plan truncating every filesystem transfer to a single byte.
fn always_short() -> FaultPlan {
    FaultPlan {
        fs_short_every: Some(1),
        ..FaultPlan::default()
    }
}

/// A loadable library image relocated into the library area, exporting
/// one function.
fn library() -> Vec<u8> {
    let lib = ProgramBuilder::new("/lib/libanswer.so")
        .without_stdlib()
        .code("answer: mov eax, 41\n inc eax\n ret")
        .build()
        .unwrap();
    let mut img = lib.image.clone();
    for seg in &mut img.segments {
        seg.vaddr += 0x3800_0000;
    }
    img.to_bytes()
}

/// A guest that dlopens `/lib/libanswer.so` and exits 0 iff the call
/// returned `want` (an errno for the fault cases).
fn dlopen_expecting(want: i32) -> BuiltProgram {
    ProgramBuilder::new("/bin/dl")
        .code(&format!(
            "_start:
                mov eax, SYS_DLOPEN
                mov ebx, path
                int 0x80
                cmp eax, {want}
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit"
        ))
        .data("path: .asciz \"/lib/libanswer.so\"")
        .build()
        .unwrap()
}

/// A guest that execves `/bin/hello` and exits 0 iff the call *failed*
/// with `want` — reaching the check at all proves the caller survived.
fn execve_expecting(want: i32) -> BuiltProgram {
    ProgramBuilder::new("/bin/execer")
        .code(&format!(
            "_start:
                mov eax, SYS_EXECVE
                mov ebx, path
                int 0x80
                cmp eax, {want}
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit"
        ))
        .data("path: .asciz \"/bin/hello\"")
        .build()
        .unwrap()
}

/// A valid image for the execve tests to (fail to) load.
fn hello() -> Vec<u8> {
    ProgramBuilder::new("/bin/hello")
        .code(
            "_start:
                mov ebx, 5
                call exit",
        )
        .build()
        .unwrap()
        .image
        .to_bytes()
}

#[test]
fn dlopen_under_disk_error_returns_eio_and_unwinds() {
    // EIO = -5. The library exists and is valid; only the disk read fails.
    let (code, k) = run_under_faults(
        &dlopen_expecting(-5),
        &[("/lib/libanswer.so", library())],
        always_eio(),
    );
    assert_eq!(code, Some(0));
    assert_eq!(k.sys.stats.libraries_loaded, 0);
}

#[test]
fn dlopen_short_read_is_rejected_as_a_bad_image() {
    // A one-byte truncated library fails to parse: ENOENT = -2, exactly
    // like a corrupt file, with nothing mapped.
    let (code, k) = run_under_faults(
        &dlopen_expecting(-2),
        &[("/lib/libanswer.so", library())],
        always_short(),
    );
    assert_eq!(code, Some(0));
    assert_eq!(k.sys.stats.libraries_loaded, 0);
}

#[test]
fn dlopen_succeeds_once_the_fault_clock_moves_off_it() {
    // Same guest, error on the *second* fs op only: the dlopen (the first
    // and only fs op) succeeds and returns the library base, which is
    // positive — so expecting an errno must fail the guest's check.
    let plan = FaultPlan {
        fs_error_every: Some(2),
        ..FaultPlan::default()
    };
    let (code, k) = run_under_faults(
        &dlopen_expecting(-5),
        &[("/lib/libanswer.so", library())],
        plan,
    );
    assert_eq!(
        code,
        Some(1),
        "dlopen must have succeeded, not returned EIO"
    );
    assert_eq!(k.sys.stats.libraries_loaded, 1);
}

#[test]
fn execve_under_disk_error_keeps_the_caller_alive() {
    // The image read happens before teardown: EIO to the caller, old
    // address space untouched, and the target never execs.
    let (code, k) = run_under_faults(
        &execve_expecting(-5),
        &[("/bin/hello", hello())],
        always_eio(),
    );
    assert_eq!(code, Some(0));
    assert!(!k.sys.events.execed("/bin/hello"));
}

#[test]
fn execve_short_read_truncates_to_enoent() {
    let (code, k) = run_under_faults(
        &execve_expecting(-2),
        &[("/bin/hello", hello())],
        always_short(),
    );
    assert_eq!(code, Some(0));
    assert!(!k.sys.events.execed("/bin/hello"));
}

#[test]
fn file_read_under_disk_error_surfaces_eio() {
    // open() draws no disk fault (it touches no data); the read is the
    // first transfer and eats the injected error.
    let prog = ProgramBuilder::new("/bin/reader")
        .code(
            "_start:
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0         ; O_RDONLY
                int 0x80
                cmp eax, 0
                jl bad
                mov ebx, eax
                mov eax, SYS_READ
                mov ecx, buf
                mov edx, 16
                int 0x80
                cmp eax, -5
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data("path: .asciz \"/etc/motd\"\nbuf: .space 16")
        .build()
        .unwrap();
    let (code, _) = run_under_faults(
        &prog,
        &[("/etc/motd", b"hello there".to_vec())],
        always_eio(),
    );
    assert_eq!(code, Some(0));
}
