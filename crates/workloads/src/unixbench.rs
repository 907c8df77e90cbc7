//! Unixbench-like micro-benchmark suite (paper §6.2: used "to test various
//! aspects of the system's performance at tasks such as process creation,
//! pipe throughput, filesystem throughput, etc." — overall ≈82%, with the
//! pipe-based context-switching test as the stand-alone worst case of
//! Fig. 7).

use crate::runner::{measure, WorkloadResult};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// The sub-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnixbenchTest {
    /// Raw syscall overhead (`getpid` loop).
    Syscall,
    /// Pipe throughput within one process.
    PipeThroughput,
    /// Pipe-based context switching between two processes — the paper's
    /// worst case.
    PipeContextSwitch,
    /// Process creation: fork + exit + waitpid.
    Spawn,
    /// execve of a trivial binary.
    Execl,
    /// Filesystem write/read cycles.
    FsThroughput,
    /// Dhrystone-like integer/string mix (part of the real Unixbench
    /// index).
    Dhrystone,
    /// Whetstone-like arithmetic kernel (integer-emulated, as the paper's
    /// P3 era fp-emulation tests were).
    Whetstone,
}

impl UnixbenchTest {
    /// All sub-benchmarks.
    pub const ALL: [UnixbenchTest; 8] = [
        UnixbenchTest::Dhrystone,
        UnixbenchTest::Whetstone,
        UnixbenchTest::Syscall,
        UnixbenchTest::PipeThroughput,
        UnixbenchTest::PipeContextSwitch,
        UnixbenchTest::Spawn,
        UnixbenchTest::Execl,
        UnixbenchTest::FsThroughput,
    ];

    /// Label.
    pub fn name(&self) -> &'static str {
        match self {
            UnixbenchTest::Syscall => "syscall",
            UnixbenchTest::PipeThroughput => "pipe-throughput",
            UnixbenchTest::PipeContextSwitch => "pipe-ctxsw",
            UnixbenchTest::Spawn => "spawn",
            UnixbenchTest::Execl => "execl",
            UnixbenchTest::FsThroughput => "fs-throughput",
            UnixbenchTest::Dhrystone => "dhrystone",
            UnixbenchTest::Whetstone => "whetstone",
        }
    }
}

/// Build one sub-benchmark program with the given iteration count.
pub fn unixbench_program(test: UnixbenchTest, iterations: u32) -> BuiltProgram {
    let (code, data) = match test {
        UnixbenchTest::Syscall => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                loop_top:
                    mov eax, SYS_GETPID
                    int 0x80
                    dec dword [iter]
                    jnz loop_top
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0".to_string(),
        ),
        UnixbenchTest::PipeThroughput => (
            format!(
                "_start:
                    mov eax, SYS_PIPE
                    mov ebx, fds
                    int 0x80
                    mov dword [iter], {iterations}
                loop_top:
                    mov eax, SYS_WRITE
                    mov ebx, [fds+4]
                    mov ecx, buf
                    mov edx, 512
                    int 0x80
                    mov eax, SYS_READ
                    mov ebx, [fds]
                    mov ecx, buf
                    mov edx, 512
                    int 0x80
                    dec dword [iter]
                    jnz loop_top
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             fds: .space 8
             buf: .space 512"
                .to_string(),
        ),
        UnixbenchTest::PipeContextSwitch => (
            format!(
                "_start:
                    mov eax, SYS_PIPE
                    mov ebx, fds1
                    int 0x80
                    mov eax, SYS_PIPE
                    mov ebx, fds2
                    int 0x80
                    mov eax, SYS_FORK
                    int 0x80
                    cmp eax, 0
                    je child
                ; parent: send a token, wait for the echo — two context
                ; switches per iteration, TLBs flushed each time.
                    mov dword [iter], {iterations}
                p_loop:
                    mov eax, SYS_WRITE
                    mov ebx, [fds1+4]
                    mov ecx, token
                    mov edx, 4
                    int 0x80
                    mov eax, SYS_READ
                    mov ebx, [fds2]
                    mov ecx, token
                    mov edx, 4
                    int 0x80
                    dec dword [iter]
                    jnz p_loop
                    mov eax, SYS_CLOSE
                    mov ebx, [fds1+4]
                    int 0x80
                    mov eax, SYS_WAITPID
                    mov ebx, -1
                    mov ecx, 0
                    int 0x80
                    mov ebx, 0
                    call exit
                child:
                c_loop:
                    mov eax, SYS_READ
                    mov ebx, [fds1]
                    mov ecx, ctoken
                    mov edx, 4
                    int 0x80
                    cmp eax, 0
                    jle c_done
                    mov eax, SYS_WRITE
                    mov ebx, [fds2+4]
                    mov ecx, ctoken
                    mov edx, 4
                    int 0x80
                    jmp c_loop
                c_done:
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             fds1: .space 8
             fds2: .space 8
             token: .word 0x504f4e47
             ctoken: .word 0"
                .to_string(),
        ),
        UnixbenchTest::Spawn => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                loop_top:
                    mov eax, SYS_FORK
                    int 0x80
                    cmp eax, 0
                    je child
                    mov eax, SYS_WAITPID
                    mov ebx, -1
                    mov ecx, 0
                    int 0x80
                    dec dword [iter]
                    jnz loop_top
                    mov ebx, 0
                    call exit
                child:
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0".to_string(),
        ),
        UnixbenchTest::Execl => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                loop_top:
                    mov eax, SYS_FORK
                    int 0x80
                    cmp eax, 0
                    je child
                    mov eax, SYS_WAITPID
                    mov ebx, -1
                    mov ecx, 0
                    int 0x80
                    dec dword [iter]
                    jnz loop_top
                    mov ebx, 0
                    call exit
                child:
                    mov eax, SYS_EXECVE
                    mov ebx, truepath
                    int 0x80
                    mov ebx, 1
                    call exit"
            ),
            "iter: .word 0
             truepath: .asciz \"/bin/true\""
                .to_string(),
        ),
        UnixbenchTest::FsThroughput => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                loop_top:
                    ; write pass
                    mov eax, SYS_OPEN
                    mov ebx, path
                    mov ecx, 0x241      ; O_WRONLY|O_CREAT|O_TRUNC
                    int 0x80
                    mov [fd], eax
                    mov eax, SYS_WRITE
                    mov ebx, [fd]
                    mov ecx, buf
                    mov edx, 1024
                    int 0x80
                    mov eax, SYS_CLOSE
                    mov ebx, [fd]
                    int 0x80
                    ; read pass
                    mov eax, SYS_OPEN
                    mov ebx, path
                    mov ecx, 0
                    int 0x80
                    mov [fd], eax
                    mov eax, SYS_READ
                    mov ebx, [fd]
                    mov ecx, buf
                    mov edx, 1024
                    int 0x80
                    mov eax, SYS_CLOSE
                    mov ebx, [fd]
                    int 0x80
                    dec dword [iter]
                    jnz loop_top
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             fd: .word 0
             path: .asciz \"/tmp/ubfile\"
             buf: .space 1024, 0x55"
                .to_string(),
        ),
        UnixbenchTest::Dhrystone => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                d_outer:
                    ; string copy + compare + arithmetic mix
                    mov edi, dbuf
                    mov esi, dsrc
                    call strcpy
                    mov esi, dbuf
                    mov edi, dsrc
                    call strcmp
                    add [dsum], eax
                    mov eax, [dsum]
                    mov ebx, 37
                    mul ebx
                    add eax, 11
                    mov [dsum], eax
                    dec dword [iter]
                    jnz d_outer
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             dsum: .word 0
             dsrc: .asciz \"DHRYSTONE PROGRAM, SOME STRING\"
             dbuf: .space 64"
                .to_string(),
        ),
        UnixbenchTest::Whetstone => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                    mov esi, 3
                w_loop:
                    ; fixed-point polynomial evaluation
                    mov eax, esi
                    mov ebx, eax
                    mul ebx
                    shr eax, 4
                    add eax, esi
                    mov ecx, 1000
                    xor edx, edx
                    div ecx
                    add esi, edx
                    add esi, 7
                    dec dword [iter]
                    jnz w_loop
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0".to_string(),
        ),
    };
    ProgramBuilder::new(format!("/bin/ub-{}", test.name()))
        .code(&code)
        .data(&data)
        .build()
        .expect("unixbench program assembles")
}

/// Install the `/bin/true` image the execl test needs.
fn install_true(k: &mut sm_kernel::Kernel) {
    let tru = ProgramBuilder::new("/bin/true")
        .code("_start: mov ebx, 0\n call exit")
        .build()
        .expect("/bin/true assembles");
    k.sys.fs.install("/bin/true", tru.image.to_bytes());
}

/// Run one sub-benchmark; work units = iterations. The kernel seed is
/// `spec.kconfig.seed`: the Fig. 9 sweep averages several seeds per split
/// fraction because which pages get split is a random draw.
pub fn run_unixbench(spec: &RunSpec, test: UnixbenchTest, iterations: u32) -> WorkloadResult {
    run_unixbench_kernel(spec.kernel_warm(), &spec.protection, test, iterations)
}

/// Run one sub-benchmark on a caller-built kernel (cost-model and engine
/// ablations construct their own machines).
pub fn run_unixbench_kernel(
    mut k: sm_kernel::Kernel,
    protection: &Protection,
    test: UnixbenchTest,
    iterations: u32,
) -> WorkloadResult {
    install_true(&mut k);
    k.spawn(&unixbench_program(test, iterations).image)
        .expect("unixbench spawns");
    measure(
        k,
        format!("ub-{}", test.name()),
        protection,
        iterations as u64,
        50_000_000_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::normalized;
    use sm_kernel::events::ResponseMode;

    fn unprotected() -> RunSpec {
        RunSpec::new(Protection::Unprotected)
    }

    #[test]
    fn all_tests_complete() {
        for t in UnixbenchTest::ALL {
            let r = run_unixbench(&unprotected(), t, 4);
            assert!(r.cycles > 0, "{}", t.name());
        }
    }

    #[test]
    fn ctxsw_actually_switches() {
        let r = run_unixbench(&unprotected(), UnixbenchTest::PipeContextSwitch, 25);
        assert!(
            r.kernel.context_switches >= 40,
            "expected ≥2 switches/iteration, got {:?}",
            r.kernel.context_switches
        );
    }

    #[test]
    fn ctxsw_is_the_split_memory_worst_case() {
        // Fig. 7: pipe-based context switching under stand-alone split
        // memory is at or below 50% of unprotected speed.
        let base = run_unixbench(&unprotected(), UnixbenchTest::PipeContextSwitch, 25);
        let prot = run_unixbench(
            &RunSpec::new(Protection::SplitMem(ResponseMode::Break)),
            UnixbenchTest::PipeContextSwitch,
            25,
        );
        let n = normalized(&prot, &base);
        assert!(n < 0.7, "ctxsw stress normalized {n}, expected heavy hit");
    }
}
