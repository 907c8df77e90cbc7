//! Per-request guest workers for the fleet simulator.
//!
//! Every tenant request spawns one short-lived guest process from a
//! prebuilt image; the process does its kind's work and exits, and the
//! fleet driver measures arrival-to-exit latency. Workers are written in
//! `sm-asm` assembly against the guest libc, in two work-size variants
//! per kind so co-tenants are heterogeneous.

use crate::interference::PAYLOAD_MARKER;
use sm_attacks::shellcode::{self, as_byte_directive};
use sm_kernel::image::ExecImage;
use sm_kernel::userlib::ProgramBuilder;

/// What a tenant's workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TenantKind {
    /// Request-handling web worker: touches a spread of data pages (log,
    /// vhost tables) then burns a short compute loop. TLB/paging heavy.
    Httpd,
    /// Compression worker: tight byte-granular checksum loop over a
    /// buffer. Data-cache/ALU heavy, few pages.
    Gzip,
    /// Numeric benchmark worker: multiply/accumulate loop. Pure ALU.
    Nbench,
    /// Code-injection attacker: copies shellcode into a writable buffer
    /// and jumps to it. Exits with [`PAYLOAD_MARKER`] iff the injected
    /// bytes actually execute.
    Attacker,
    /// Fork-bomb: fans out a wave of children and reaps them — the
    /// spawn/reap churn stressor for process-table and frame accounting.
    ForkBomb,
    /// Memory hog: grows the heap page by page, touching each page, until
    /// its quota or physical memory runs out — the OOM-degradation
    /// stressor.
    MemHog,
}

impl TenantKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TenantKind::Httpd => "httpd",
            TenantKind::Gzip => "gzip",
            TenantKind::Nbench => "nbench",
            TenantKind::Attacker => "attacker",
            TenantKind::ForkBomb => "forkbomb",
            TenantKind::MemHog => "memhog",
        }
    }

    /// All kinds, in report order.
    pub const ALL: [TenantKind; 6] = [
        TenantKind::Httpd,
        TenantKind::Gzip,
        TenantKind::Nbench,
        TenantKind::Attacker,
        TenantKind::ForkBomb,
        TenantKind::MemHog,
    ];
}

/// Work-size variants per kind (tenant id modulo this picks one).
pub const VARIANTS: u32 = 2;

/// Build the image for one `(kind, variant)` worker.
pub fn build_image(kind: TenantKind, variant: u32) -> ExecImage {
    let v = variant % VARIANTS;
    let program = match kind {
        TenantKind::Httpd => {
            let pages = 6 + 4 * v;
            let iters = 96 + 64 * v;
            ProgramBuilder::new("/bin/fleet_httpd")
                .code(&format!(
                    "_start:
                        mov ecx, 0
                    touch_loop:
                        mov eax, ecx
                        shl eax, 12
                        inc dword [logarea+eax]
                        inc ecx
                        cmp ecx, {pages}
                        jne touch_loop
                        mov ecx, {iters}
                        xor eax, eax
                    spin_loop:
                        add eax, ecx
                        dec ecx
                        jnz spin_loop
                        mov ebx, 0
                        call exit"
                ))
                .data(&format!(
                    ".align 4096\nlogarea: .space {}",
                    (pages + 1) * 4096
                ))
        }
        TenantKind::Gzip => {
            let len = 1024 + 1024 * v;
            ProgramBuilder::new("/bin/fleet_gzip")
                .code(&format!(
                    "_start:
                        mov esi, inbuf
                        mov ecx, {len}
                        xor edx, edx
                    z_loop:
                        movzx eax, byte [esi]
                        xor edx, eax
                        add edx, ecx
                        inc esi
                        dec ecx
                        jnz z_loop
                        mov [crc], edx
                        mov ebx, 0
                        call exit"
                ))
                .data(&format!("crc: .word 0\ninbuf: .space {len}, 0x61"))
        }
        TenantKind::Nbench => {
            let iters = 384 + 256 * v;
            ProgramBuilder::new("/bin/fleet_nbench")
                .code(&format!(
                    "_start:
                        mov ecx, {iters}
                        mov esi, 7
                    n_loop:
                        mov eax, esi
                        mov ebx, 2654435761
                        mul ebx
                        xor esi, eax
                        add esi, ecx
                        dec ecx
                        jnz n_loop
                        mov [acc], esi
                        mov ebx, 0
                        call exit"
                ))
                .data("acc: .word 0")
        }
        TenantKind::Attacker => {
            let payload = shellcode::exit_code(PAYLOAD_MARKER);
            let len = payload.len();
            // Identical shape to the interference attacker, minus the
            // fork: inject into a writable data buffer, jump to it. Under
            // split memory the fetch lands on the filler code frame and
            // the engine logs AttackDetected; unprotected, the payload
            // runs and the exit status is the marker.
            ProgramBuilder::new("/bin/fleet_attacker")
                .code(&format!(
                    "_start:
                        mov edi, buf
                        mov esi, payload
                        mov ecx, {len}
                        call memcpy
                        call buf
                        ; reached only if the jump survived without the
                        ; payload executing
                        mov ebx, 3
                        call exit"
                ))
                .data(&format!(
                    "buf: .space 64\npayload: {}",
                    as_byte_directive(&payload)
                ))
        }
        TenantKind::ForkBomb => {
            let kids = 4 + 2 * v;
            ProgramBuilder::new("/bin/fleet_forkbomb")
                .code(&format!(
                    "_start:
                        mov eax, {kids}
                        mov [kids], eax
                    fb_fork:
                        mov eax, SYS_FORK
                        int 0x80
                        cmp eax, 0
                        je fb_child
                        jl fb_done
                        dec dword [kids]
                        jnz fb_fork
                        mov eax, {kids}
                        mov [kids], eax
                    fb_reap:
                        mov eax, SYS_WAITPID
                        xor ebx, ebx
                        dec ebx
                        xor ecx, ecx
                        int 0x80
                        dec dword [kids]
                        jnz fb_reap
                    fb_done:
                        mov ebx, 0
                        call exit
                    fb_child:
                        mov ecx, 48
                    fb_spin:
                        mov [scratch], ecx
                        dec ecx
                        jnz fb_spin
                        mov ebx, 0
                        call exit"
                ))
                .data("kids: .word 0\nscratch: .word 0")
        }
        TenantKind::MemHog => {
            let pages = 24 + 16 * v;
            ProgramBuilder::new("/bin/fleet_memhog")
                .code(&format!(
                    "_start:
                        mov eax, SYS_BRK
                        xor ebx, ebx
                        int 0x80
                        mov [cur], eax
                        mov ecx, {pages}
                    mh_grow:
                        mov eax, [cur]
                        add eax, 4096
                        mov [cur], eax
                        mov ebx, eax
                        mov eax, SYS_BRK
                        int 0x80
                        cmp eax, 0
                        jl mh_done
                        ; touch the newly granted page (demand-page it in;
                        ; an OOM here kills the process with 128+SIGKILL)
                        mov eax, [cur]
                        sub eax, 4096
                        mov [eax], ecx
                        dec ecx
                        jnz mh_grow
                    mh_done:
                        mov ebx, 0
                        call exit"
                ))
                .data("cur: .word 0")
        }
    };
    program
        .build()
        .unwrap_or_else(|e| panic!("{kind:?} v{v} assembles: {e}"))
        .image
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::setup::{Protection, RunSpec};
    use sm_kernel::kernel::RunExit;

    #[test]
    fn every_worker_runs_to_exit_unprotected() {
        for kind in TenantKind::ALL {
            for v in 0..VARIANTS {
                let image = build_image(kind, v);
                let mut k = RunSpec::new(Protection::Unprotected).kernel();
                let root = k.spawn(&image).expect("spawns");
                assert_eq!(k.run(40_000_000), RunExit::AllExited, "{kind:?} v{v}");
                let code = k.sys.procs.get(&root.0).and_then(|p| p.exit_code);
                let expected = if kind == TenantKind::Attacker {
                    PAYLOAD_MARKER as i32
                } else {
                    0
                };
                assert_eq!(code, Some(expected), "{kind:?} v{v}");
            }
        }
    }
}
