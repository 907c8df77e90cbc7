//! gzip-like compression workload (paper §6.2: "gzip was used to compress
//! a 256 MB file, and the operation was timed").
//!
//! Modelled as the classic `cat file | gzip` pipeline: a producer process
//! streams the input file through a pipe (1 KiB chunks) to a compressor process that runs
//! an LZ-flavoured byte loop (rolling hash, match table, literal/match
//! accounting). The pipe causes periodic context switches — the I/O-driven
//! switching a real gzip run experiences — while the byte loop provides the
//! compute between them.

use crate::runner::{measure, WorkloadResult};
use sm_core::setup::RunSpec;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// Path of the input file in the ram fs.
pub const INPUT_PATH: &str = "/data/input";

/// Build the pipeline program (producer forks the compressor).
pub fn gzip_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/gzip-pipeline")
        .code(
            "_start:
                mov eax, SYS_PIPE
                mov ebx, fds
                int 0x80
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je compressor

            ; ---- producer (parent): stream the file into the pipe ------
                mov eax, SYS_CLOSE
                mov ebx, [fds]
                int 0x80
                mov eax, SYS_OPEN
                mov ebx, inpath
                mov ecx, 0
                int 0x80
                mov [infd], eax
            prod_loop:
                mov eax, SYS_READ
                mov ebx, [infd]
                mov ecx, chunk
                mov edx, 1024
                int 0x80
                cmp eax, 0
                jle prod_done
                mov [chunklen], eax
                mov dword [sent], 0
            prod_send:
                mov edx, [chunklen]
                sub edx, [sent]
                mov eax, SYS_WRITE
                mov ebx, [fds+4]
                mov ecx, chunk
                add ecx, [sent]
                int 0x80
                cmp eax, 0
                jle prod_done
                add [sent], eax
                mov edx, [chunklen]
                cmp [sent], edx
                jne prod_send
                jmp prod_loop
            prod_done:
                mov eax, SYS_CLOSE
                mov ebx, [fds+4]
                int 0x80
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, 0
                int 0x80
                mov ebx, 0
                call exit

            ; ---- compressor (child): LZ-ish byte loop ------------------
            compressor:
                mov eax, SYS_CLOSE
                mov ebx, [fds+4]
                int 0x80
            comp_loop:
                mov eax, SYS_READ
                mov ebx, [fds]
                mov ecx, chunk
                mov edx, 1024
                int 0x80
                cmp eax, 0
                jle comp_done
                ; compress chunk[0..eax]
                mov ecx, eax         ; bytes left
                mov esi, chunk
                mov ebx, [hash]
            byte_loop:
                movzx eax, byte [esi]
                ; rolling hash = hash*31 + byte  (mod 1024)
                mov edx, ebx
                shl edx, 5
                sub edx, ebx
                add edx, eax
                and edx, 1023
                mov ebx, edx
                ; match check against the hash table
                movzx edx, byte [htab+ebx]
                cmp edx, eax
                je is_match
                mov [htab+ebx], al
                inc dword [literals]
                jmp advance
            is_match:
                inc dword [matches]
            advance:
                inc esi
                dec ecx
                jnz byte_loop
                mov [hash], ebx
                jmp comp_loop
            comp_done:
                mov ebx, 0
                call exit",
        )
        .data(
            "fds: .space 8
             infd: .word 0
             chunklen: .word 0
             sent: .word 0
             hash: .word 0
             literals: .word 0
             matches: .word 0
             inpath: .asciz \"/data/input\"
             chunk: .space 1024
             htab: .space 1024",
        )
        .build()
        .expect("gzip pipeline assembles")
}

/// Run the workload over `kilobytes` of pseudo-random input. Work units =
/// bytes compressed.
pub fn run_gzip(spec: &RunSpec, kilobytes: u32) -> WorkloadResult {
    // A 1 KiB pipe models the I/O batching of a disk-bound gzip run: the
    // pipeline context-switches about once per kilobyte.
    let mut spec = spec.clone();
    spec.kconfig.pipe_capacity = 1024;
    let mut kernel = spec.kernel_warm();
    // Deterministic "file" contents with some repetition (so the match
    // path is exercised too). The input stream forks off the kernel's own
    // seeded rng so one `KernelConfig::seed` replays the whole run.
    let mut rng = kernel.sys.rng.fork();
    let data: Vec<u8> = (0..kilobytes as usize * 1024)
        .map(|i| {
            if i % 7 == 0 {
                b'x'
            } else {
                rng.gen_range(b'a'..=b'z')
            }
        })
        .collect();
    let bytes = data.len() as u64;
    kernel.sys.fs.install(INPUT_PATH, data);
    kernel
        .spawn(&gzip_program().image)
        .expect("pipeline spawns");
    measure(kernel, "gzip", &spec.protection, bytes, 50_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::normalized;
    use sm_core::setup::Protection;
    use sm_kernel::events::ResponseMode;

    #[test]
    fn compresses_unprotected() {
        let r = run_gzip(&RunSpec::new(Protection::Unprotected), 16);
        assert_eq!(r.units, 16 * 1024);
        assert!(r.kernel.context_switches > 4, "{:?}", r.kernel);
    }

    #[test]
    fn split_memory_overhead_is_moderate() {
        let base = run_gzip(&RunSpec::new(Protection::Unprotected), 16);
        let prot = run_gzip(&RunSpec::new(Protection::SplitMem(ResponseMode::Break)), 16);
        let n = normalized(&prot, &base);
        assert!(n < 1.0 && n > 0.3, "gzip normalized {n}");
    }
}
