//! nbench-like compute suite (paper §6.2: "the nbench suite was used to
//! show the performance under a set of primarily computation-based tests.
//! The slowest test in the nbench system came in at just under
//! 97 percent.").
//!
//! Three single-process, cache/TLB-friendly kernels: numeric sort,
//! bitfield manipulation and integer arithmetic. They make almost no
//! system calls and never context-switch, so split memory's only cost is
//! the initial TLB population — reproducing the paper's ≈97% result.

use crate::runner::{measure, WorkloadResult};
use sm_core::setup::RunSpec;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// The sub-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NbenchKernel {
    /// Insertion sort over LCG-filled arrays.
    NumericSort,
    /// Bitmap set/toggle sweeps.
    Bitfield,
    /// Tight mul/div/add dependency chain.
    IntArithmetic,
}

impl NbenchKernel {
    /// All sub-benchmarks.
    pub const ALL: [NbenchKernel; 3] = [
        NbenchKernel::NumericSort,
        NbenchKernel::Bitfield,
        NbenchKernel::IntArithmetic,
    ];

    /// Label.
    pub fn name(&self) -> &'static str {
        match self {
            NbenchKernel::NumericSort => "numeric-sort",
            NbenchKernel::Bitfield => "bitfield",
            NbenchKernel::IntArithmetic => "int-arith",
        }
    }
}

/// Build one sub-benchmark with the given iteration count.
pub fn nbench_program(kernel: NbenchKernel, iterations: u32) -> BuiltProgram {
    let (code, data) = match kernel {
        NbenchKernel::NumericSort => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                outer:
                    ; refill the array from an LCG
                    mov ecx, 0
                    mov eax, [seed]
                fill:
                    mov ebx, 1103515245
                    mul ebx
                    add eax, 12345
                    mov [arr+ecx*4], eax
                    inc ecx
                    cmp ecx, 256
                    jne fill
                    mov [seed], eax
                    ; insertion sort
                    mov esi, 1
                sort_outer:
                    cmp esi, 256
                    jae sort_done
                    mov eax, [arr+esi*4]
                    mov edi, esi
                sort_inner:
                    cmp edi, 0
                    je insert
                    mov ecx, [arr+edi*4-4]
                    cmp ecx, eax
                    jbe insert
                    mov [arr+edi*4], ecx
                    dec edi
                    jmp sort_inner
                insert:
                    mov [arr+edi*4], eax
                    inc esi
                    jmp sort_outer
                sort_done:
                    dec dword [iter]
                    jnz outer
                    ; verify sortedness of the final array
                    mov esi, 1
                check:
                    cmp esi, 256
                    jae ok
                    mov eax, [arr+esi*4-4]
                    cmp eax, [arr+esi*4]
                    ja bad
                    inc esi
                    jmp check
                bad:
                    mov ebx, 1
                    call exit
                ok:
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             seed: .word 12345
             arr: .space 1024",
        ),
        NbenchKernel::Bitfield => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                bf_outer:
                    mov ecx, 0
                bf_loop:
                    mov eax, ecx
                    shr eax, 5
                    mov edx, ecx
                    and edx, 31
                    mov ebx, 1
                    push ecx
                    mov ecx, edx
                    shl ebx, cl
                    pop ecx
                    or [bitmap+eax*4], ebx
                    xor [bitmap+eax*4], ebx
                    inc ecx
                    cmp ecx, 4096
                    jne bf_loop
                    dec dword [iter]
                    jnz bf_outer
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0
             bitmap: .space 512",
        ),
        NbenchKernel::IntArithmetic => (
            format!(
                "_start:
                    mov dword [iter], {iterations}
                    mov esi, 7
                ar_loop:
                    mov eax, esi
                    mov ebx, 13
                    mul ebx
                    add eax, 17
                    xor edx, edx
                    mov ecx, 11
                    div ecx
                    add esi, eax
                    mov eax, esi
                    shl eax, 3
                    sub eax, esi
                    add esi, eax
                    dec dword [iter]
                    jnz ar_loop
                    mov ebx, 0
                    call exit"
            ),
            "iter: .word 0",
        ),
    };
    ProgramBuilder::new(format!("/bin/nbench-{}", kernel.name()))
        .code(&code)
        .data(data)
        .build()
        .expect("nbench program assembles")
}

/// Run one sub-benchmark; work units = iterations.
pub fn run_nbench(spec: &RunSpec, kernel: NbenchKernel, iterations: u32) -> WorkloadResult {
    let mut k = spec.kernel_warm();
    k.spawn(&nbench_program(kernel, iterations).image)
        .expect("nbench spawns");
    measure(
        k,
        format!("nbench-{}", kernel.name()),
        &spec.protection,
        iterations as u64,
        50_000_000_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::normalized;
    use sm_core::setup::Protection;
    use sm_kernel::events::ResponseMode;

    #[test]
    fn all_kernels_complete() {
        for nk in NbenchKernel::ALL {
            let r = run_nbench(&RunSpec::new(Protection::Unprotected), nk, 3);
            assert!(r.cycles > 0, "{}", nk.name());
        }
    }

    #[test]
    fn compute_bound_overhead_is_small() {
        // The paper's nbench result: just under 97% — pure compute barely
        // notices split memory.
        // Long enough to amortise the one-time split/reload costs, as the
        // real (minutes-long) nbench run does.
        let base = run_nbench(
            &RunSpec::new(Protection::Unprotected),
            NbenchKernel::IntArithmetic,
            5000,
        );
        let prot = run_nbench(
            &RunSpec::new(Protection::SplitMem(ResponseMode::Break)),
            NbenchKernel::IntArithmetic,
            5000,
        );
        let n = normalized(&prot, &base);
        assert!(n > 0.9, "compute-bound normalized {n} too slow");
    }
}
