#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Per-sub-run profile of the Fig. 6 pipeline (serial, wall-clock +
//! simulated-instruction counts), used to attribute the section's time
//! before/after host-side optimisations. Simulation outputs are printed
//! so optimisations can be checked byte-identical.

use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;
use sm_workloads::nbench::{run_nbench, NbenchKernel};
use sm_workloads::unixbench::{run_unixbench, UnixbenchTest};
use sm_workloads::{gzip, httpd};
use std::time::Instant;

fn main() {
    let mut base = RunSpec::new(Protection::Unprotected);
    // A/B switch: attribute the superblock pipeline's win per sub-run (the
    // simulation outputs must not change either way).
    base.kconfig.pipeline = !std::env::args().any(|a| a == "--no-pipeline");
    if std::env::args().any(|a| a == "--pentium3") {
        base.tlb = TlbPreset::pentium3();
    }
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    let p = sm_bench::fig6::Fig6Params::default();

    let mut total = 0f64;
    let mut row = |name: String, f: &mut dyn FnMut() -> (u64, u64)| {
        let t0 = Instant::now();
        let (cycles, insns) = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        total += ms;
        println!("{name:<28} {ms:>9.1} ms  {insns:>12} insns  {cycles:>13} cycles");
    };

    for (label, spec) in [("base", &base), ("prot", &prot)] {
        row(format!("httpd-32k {label}"), &mut || {
            let r = httpd::run_httpd(spec, 32 * 1024, p.requests);
            (r.cycles, r.machine.instructions)
        });
        row(format!("gzip {label}"), &mut || {
            let r = gzip::run_gzip(spec, p.gzip_kb);
            (r.cycles, r.machine.instructions)
        });
        for nk in NbenchKernel::ALL {
            let iters = match nk {
                NbenchKernel::IntArithmetic => p.nbench_iters * 50,
                _ => p.nbench_iters,
            };
            row(format!("nbench-{} {label}", nk.name()), &mut || {
                let r = run_nbench(spec, nk, iters);
                (r.cycles, r.machine.instructions)
            });
        }
        for t in UnixbenchTest::ALL {
            let iters = sm_bench::fig6::ub_iterations_for(t, p.ub_iters);
            row(format!("ub-{} {label}", t.name()), &mut || {
                let r = run_unixbench(spec, t, iters);
                (r.cycles, r.machine.instructions)
            });
        }
    }
    println!("{:-<78}", "");
    println!("{:<28} {total:>9.1} ms serial total", "fig6 (one geometry)");
}
