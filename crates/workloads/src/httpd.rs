//! Apache-like web server + ApacheBench-like client (paper §6.2).
//!
//! Two guest processes: a server that accepts one connection per request
//! (`ab`'s default — no keep-alive) and answers with a page of a
//! configurable size, and a client that issues a fixed number of requests.
//! Every request costs connection setup plus request/response exchanges,
//! each forcing context switches between the two processes (plus extra
//! switches per pipe-capacity chunk for large pages). This is precisely
//! the overhead regime the paper studies: the 1 KB configuration "context
//! switches heavily while serving requests" (Fig. 7) while larger pages
//! amortise the flushes over more I/O (Fig. 8).

use crate::runner::{measure, WorkloadResult};
use sm_core::setup::RunSpec;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// Port the workload server binds.
pub const HTTPD_PORT: u16 = 80;

/// Build the server for a given page size and request count (it exits
/// after serving `requests` connections).
pub fn server_program(page_size: u32, requests: u32) -> BuiltProgram {
    ProgramBuilder::new("/bin/httpd")
        .code(&format!(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, {port}
                int 0x80
                mov eax, {requests}
                mov [conns], eax
            accept_loop:
                mov eax, SYS_ACCEPT
                mov ebx, {port}
                int 0x80
                mov [connfd], eax
                ; one request per connection (ab without keep-alive)
                mov ebx, [connfd]
                mov edi, reqbuf
                mov edx, 32
                call read_line
                cmp eax, 0
                je close_conn
                ; request handling: parse, touch config/vhost tables and
                ; append to the access log — one pass over ten data pages,
                ; like Apache's per-request bookkeeping
                mov ecx, 0
            parse_loop:
                mov eax, ecx
                shl eax, 12
                inc dword [logarea+eax]
                inc ecx
                cmp ecx, 10
                jne parse_loop
                mov eax, {page_size}
                mov [remaining], eax
            send_loop:
                mov edx, [remaining]
                cmp edx, 1024
                jbe send_now
                mov edx, 1024
            send_now:
                mov eax, SYS_WRITE
                mov ebx, [connfd]
                mov ecx, pagebuf
                int 0x80
                cmp eax, 0
                jle close_conn
                mov edx, [remaining]
                sub edx, eax
                mov [remaining], edx
                cmp edx, 0
                jne send_loop
            close_conn:
                mov eax, SYS_CLOSE
                mov ebx, [connfd]
                int 0x80
                dec dword [conns]
                jnz accept_loop
                mov ebx, 0
                call exit",
            port = HTTPD_PORT,
        ))
        .data(
            "connfd: .word 0
             conns: .word 0
             remaining: .word 0
             reqbuf: .space 32
             pagebuf: .space 1024, 0x2e
             .align 4096
             logarea: .space 40960",
        )
        .build()
        .expect("httpd server assembles")
}

/// Build the client for a given page size and request count.
pub fn client_program(page_size: u32, requests: u32) -> BuiltProgram {
    ProgramBuilder::new("/bin/ab")
        .code(&format!(
            "_start:
                mov eax, {requests}
                mov [reqs], eax
            req_loop:
                mov eax, SYS_CONNECT
                mov ebx, {port}
                int 0x80
                mov [connfd], eax
                mov eax, SYS_WRITE
                mov ebx, [connfd]
                mov ecx, reqmsg
                mov edx, 6
                int 0x80
                mov eax, {page_size}
                mov [remaining], eax
            recv_loop:
                mov eax, SYS_READ
                mov ebx, [connfd]
                mov ecx, rcvbuf
                mov edx, 1024
                int 0x80
                cmp eax, 0
                jle failed
                mov edx, [remaining]
                sub edx, eax
                mov [remaining], edx
                cmp edx, 0
                jg recv_loop
                mov eax, SYS_CLOSE
                mov ebx, [connfd]
                int 0x80
                mov eax, [reqs]
                dec eax
                mov [reqs], eax
                cmp eax, 0
                jne req_loop
                mov ebx, 0
                call exit
            failed:
                mov ebx, 1
                call exit",
            port = HTTPD_PORT,
        ))
        .data(
            "connfd: .word 0
             reqs: .word 0
             remaining: .word 0
             reqmsg: .ascii \"GET /\\n\"
             rcvbuf: .space 1024",
        )
        .build()
        .expect("ab client assembles")
}

/// Run the benchmark: `requests` requests for a page of `page_size` bytes.
/// Work units = requests (so normalised results compare fairly only at
/// equal page sizes, as in the paper's figures).
pub fn run_httpd(spec: &RunSpec, page_size: u32, requests: u32) -> WorkloadResult {
    let mut kernel = spec.kernel_warm();
    kernel
        .spawn(&server_program(page_size, requests).image)
        .expect("server spawns");
    kernel
        .spawn(&client_program(page_size, requests).image)
        .expect("client spawns");
    measure(
        kernel,
        format!("apache-{}k", page_size / 1024),
        &spec.protection,
        requests as u64,
        20_000_000_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::normalized;
    use sm_core::setup::Protection;
    use sm_kernel::events::ResponseMode;

    fn unprotected() -> RunSpec {
        RunSpec::new(Protection::Unprotected)
    }

    fn split() -> RunSpec {
        RunSpec::new(Protection::SplitMem(ResponseMode::Break))
    }

    #[test]
    fn serves_requests_unprotected() {
        let r = run_httpd(&unprotected(), 4096, 20);
        assert_eq!(r.units, 20);
        assert!(r.cycles > 0);
        assert!(r.kernel.context_switches > 20, "{:?}", r.kernel);
    }

    #[test]
    fn split_memory_slows_but_completes() {
        let base = run_httpd(&unprotected(), 4096, 20);
        let prot = run_httpd(&split(), 4096, 20);
        let n = normalized(&prot, &base);
        assert!(n < 1.0, "split memory should cost something: {n}");
        assert!(n > 0.1, "split memory costs implausibly much: {n}");
    }

    #[test]
    fn larger_pages_amortise_better() {
        // The Fig. 8 monotonicity at its endpoints.
        let b1 = run_httpd(&unprotected(), 1024, 25);
        let p1 = run_httpd(&split(), 1024, 25);
        let b32 = run_httpd(&unprotected(), 32768, 25);
        let p32 = run_httpd(&split(), 32768, 25);
        let n1 = normalized(&p1, &b1);
        let n32 = normalized(&p32, &b32);
        assert!(
            n32 > n1,
            "32K pages should amortise better: 1K={n1:.3} 32K={n32:.3}"
        );
    }
}
