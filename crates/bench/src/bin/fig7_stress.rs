#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 7 (context-switch stress tests), on both
//! the fully-associative compat geometry and the paper's Pentium III
//! testbed geometry, with TLB miss-class diagnostics for the latter.
use sm_core::setup::{Protection, RunSpec};
use sm_machine::TlbPreset;

fn main() {
    println!("Fig. 7 — context-switch stress tests\n");
    println!("-- fully-associative 64-entry TLBs (compat preset) --\n");
    let base = RunSpec::new(Protection::Unprotected);
    let bars = sm_bench::fig7::run(&base, 60);
    println!("{}", sm_bench::fig7::render(&bars));

    println!("-- pentium3 preset (32-entry 4-way I-TLB, 64-entry 4-way D-TLB) --\n");
    let p3 = RunSpec {
        tlb: TlbPreset::pentium3(),
        ..base
    };
    let bars = sm_bench::fig7::run(&p3, 60);
    println!("{}", sm_bench::fig7::render(&bars));

    println!("-- TLB miss anatomy (pentium3, split-protected) --\n");
    let diags = sm_bench::fig7::tlb_diagnostics(&p3, 60);
    println!("{}", sm_bench::fig7::render_diagnostics(&diags));
}
