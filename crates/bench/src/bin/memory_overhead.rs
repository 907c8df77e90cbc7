#![deny(clippy::unwrap_used, clippy::expect_used)]
//! §5.1 memory-overhead comparison: unprotected vs eager split vs the
//! envisioned demand-allocated variant.
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("§5.1 — memory overhead of page splitting (httpd, 4KB pages)\n");
    let rows = sm_bench::memory::run(&RunSpec::new(Protection::Unprotected), 4096, 25);
    println!("{}", sm_bench::memory::render(&rows));
}
