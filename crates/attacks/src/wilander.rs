//! Wilander & Kamkar-style buffer-overflow benchmark (paper §6.1.1,
//! Table 1).
//!
//! The original benchmark attacks a set of control-flow targets from
//! overflowed buffers; the paper modified it "to allow having the code
//! injected on the data, bss, heap, and stack portions of the program's
//! address space". This module regenerates that matrix: six hijack
//! techniques × four injection segments, with four combinations marked
//! N/A — matching the paper's "four of the test cases did not successfully
//! execute an attack on our unprotected system".
//!
//! Every case is a real guest program: the payload arrives through *data
//! writes* (`memcpy` of attacker bytes into the injection buffer), the
//! hijack overwrites the technique's target with the (leak-known) buffer
//! address, and the trigger transfers control. The payload is an
//! `exit(42)` marker, so "attack succeeded" is an exit status of 42.

use crate::harness::{classify_marker, kernel_with, AttackOutcome, RunSpec};
use crate::shellcode::{self, as_byte_directive};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// Exit status that proves the injected payload executed.
pub const MARKER: u8 = 42;

/// Control-flow hijack technique (the benchmark's attack targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Overwrite a function's return address.
    ReturnAddress,
    /// Overwrite the saved frame pointer (frame-pointer pivot).
    OldBasePointer,
    /// Overwrite a function pointer variable adjacent to the buffer.
    FuncPtrVariable,
    /// Overwrite a function pointer passed as a parameter.
    FuncPtrParameter,
    /// Corrupt a `jmp_buf` variable adjacent to the buffer.
    LongjmpVariable,
    /// Corrupt a `jmp_buf` held in a stack frame.
    LongjmpParameter,
}

impl Technique {
    /// All techniques, table order.
    pub const ALL: [Technique; 6] = [
        Technique::ReturnAddress,
        Technique::OldBasePointer,
        Technique::FuncPtrVariable,
        Technique::FuncPtrParameter,
        Technique::LongjmpVariable,
        Technique::LongjmpParameter,
    ];

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::ReturnAddress => "return address",
            Technique::OldBasePointer => "old base pointer",
            Technique::FuncPtrVariable => "function pointer (variable)",
            Technique::FuncPtrParameter => "function pointer (parameter)",
            Technique::LongjmpVariable => "longjmp buffer (variable)",
            Technique::LongjmpParameter => "longjmp buffer (parameter)",
        }
    }
}

/// Segment the attack code is injected onto (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectLocation {
    /// The main stack.
    Stack,
    /// `malloc`ed heap memory.
    Heap,
    /// Uninitialised data (`.space`).
    Bss,
    /// Initialised data.
    Data,
}

impl InjectLocation {
    /// All locations, table order (paper order: data, bss, heap, stack).
    pub const ALL: [InjectLocation; 4] = [
        InjectLocation::Data,
        InjectLocation::Bss,
        InjectLocation::Heap,
        InjectLocation::Stack,
    ];

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            InjectLocation::Stack => "stack",
            InjectLocation::Heap => "heap",
            InjectLocation::Bss => "bss",
            InjectLocation::Data => "data",
        }
    }
}

/// One benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Case {
    /// Hijack technique.
    pub technique: Technique,
    /// Injection segment.
    pub location: InjectLocation,
}

impl Case {
    /// Whether the benchmark implements this combination. Four cells are
    /// N/A: the frame-pointer pivot needs its fake frame reachable through
    /// the overflowed *stack* buffer, and the longjmp-parameter variant's
    /// buffer layout cannot reach a `jmp_buf` from the initialised-data
    /// segment (mirroring the paper's four non-executing cases).
    pub fn applicable(&self) -> bool {
        match (self.technique, self.location) {
            (Technique::OldBasePointer, loc) => loc == InjectLocation::Stack,
            (Technique::LongjmpParameter, InjectLocation::Data) => false,
            _ => true,
        }
    }
}

/// Every cell of the matrix (24; 20 applicable).
pub fn all_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for technique in Technique::ALL {
        for location in InjectLocation::ALL {
            out.push(Case {
                technique,
                location,
            });
        }
    }
    out
}

fn inject_snippet(location: InjectLocation) -> (&'static str, &'static str) {
    // (code placing the buffer address in EDI, extra data declarations)
    match location {
        InjectLocation::Stack => ("lea edi, [ebp-96]", ""),
        InjectLocation::Heap => ("mov eax, 96\n call malloc\n mov edi, eax", ""),
        InjectLocation::Bss => ("mov edi, bss_buf", "bss_buf: .space 96"),
        InjectLocation::Data => ("mov edi, data_buf", "data_buf: .byte 0x55\n .space 95"),
    }
}

/// Build the guest program for a case (`None` for N/A cells).
pub fn build_case(case: Case) -> Option<BuiltProgram> {
    if !case.applicable() {
        return None;
    }
    let payload = shellcode::exit_code(MARKER);
    let len = payload.len();
    let (inject, extra_data) = inject_snippet(case.location);
    let copy_payload = format!(
        "{inject}
         mov esi, payload
         mov ecx, {len}
         call memcpy"
    );
    let body = match case.technique {
        Technique::ReturnAddress => format!(
            "{copy_payload}
             ; overflow reaches the saved return address (leak-guided)
             mov [ebp+4], edi"
        ),
        Technique::OldBasePointer => format!(
            "lea edi, [ebp-96]
             ; fake frame at the buffer: saved-ebp, then return address
             ; pointing just past it, then the payload
             mov dword [edi], 0x41414141
             lea eax, [edi+8]
             mov [edi+4], eax
             push edi
             lea edi, [edi+8]
             mov esi, payload
             mov ecx, {len}
             call memcpy
             pop edi
             ; overflow reaches the saved frame pointer
             mov [ebp], edi"
        ),
        Technique::FuncPtrVariable => format!(
            "{copy_payload}
             mov dword [edi+64], harmless
             ; overflow reaches the adjacent function pointer
             mov [edi+64], edi
             call [edi+64]"
        ),
        Technique::FuncPtrParameter => format!(
            "{copy_payload}
             ; overflow reaches the pointer parameter at [ebp+8]
             mov [ebp+8], edi
             call [ebp+8]"
        ),
        Technique::LongjmpVariable => format!(
            "{copy_payload}
             lea eax, [edi+64]
             call setjmp
             cmp eax, 0
             jne lj_came_back
             ; overflow reaches the jmp_buf's saved eip
             mov [edi+84], edi
             lea eax, [edi+64]
             mov edx, 1
             call longjmp
             lj_came_back:
             mov ebx, 1
             call exit"
        ),
        Technique::LongjmpParameter => format!(
            "{copy_payload}
             lea eax, [ebp-32]
             call setjmp
             cmp eax, 0
             jne lj_came_back
             mov [ebp-12], edi
             lea eax, [ebp-32]
             mov edx, 1
             call longjmp
             lj_came_back:
             mov ebx, 1
             call exit"
        ),
    };
    let name = format!(
        "/bin/wilander-{}-{}",
        case.technique.name().replace([' ', '(', ')'], ""),
        case.location.name()
    );
    let prog = ProgramBuilder::new(name)
        .code(&format!(
            "_start:
                push ebp
                mov ebp, esp
                call outer
                mov ebx, 1
                call exit
            outer:
                push ebp
                mov ebp, esp
                push harmless        ; pointer parameter for the param cases
                call victim
                add esp, 4
                leave
                ret
            victim:
                push ebp
                mov ebp, esp
                sub esp, 96
                {body}
                leave
                ret
            harmless:
                ret"
        ))
        .data(&format!(
            "payload: {}\n{}",
            as_byte_directive(&payload),
            extra_data
        ))
        .build()
        .expect("wilander case assembles");
    Some(prog)
}

/// Run one cell under `spec`. `None` for N/A cells. The protection
/// verdict must not depend on TLB shape — set conflicts change *when* the
/// split check runs, never *whether* it runs before a fetch from an
/// unblessed page.
pub fn run_case(case: Case, spec: &RunSpec) -> Option<AttackOutcome> {
    let prog = build_case(case)?;
    let mut spec = spec.clone();
    spec.kconfig.aslr_stack = false; // the benchmark assumes known addresses
    let mut k = kernel_with(&spec);
    let pid = k.spawn(&prog.image).expect("spawn");
    k.run(80_000_000);
    Some(classify_marker(&k, pid, MARKER))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Protection;
    use sm_kernel::events::ResponseMode;

    #[test]
    fn matrix_has_24_cells_4_na() {
        let cases = all_cases();
        assert_eq!(cases.len(), 24);
        assert_eq!(cases.iter().filter(|c| !c.applicable()).count(), 4);
    }

    #[test]
    fn every_applicable_case_succeeds_unprotected() {
        for case in all_cases() {
            let Some(outcome) = run_case(case, &RunSpec::new(Protection::Unprotected)) else {
                continue;
            };
            assert!(
                outcome.succeeded(),
                "{:?}/{:?} failed on the unprotected system: {outcome:?}",
                case.technique,
                case.location
            );
        }
    }

    #[test]
    fn every_applicable_case_is_foiled_by_split_memory() {
        for case in all_cases() {
            let split = RunSpec::new(Protection::SplitMem(ResponseMode::Break));
            let Some(outcome) = run_case(case, &split) else {
                continue;
            };
            assert_eq!(
                outcome,
                AttackOutcome::Foiled { detected: true },
                "{:?}/{:?} not foiled",
                case.technique,
                case.location
            );
        }
    }
}
