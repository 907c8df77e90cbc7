//! Fig. 7: "Stress testing the performance penalties due to context
//! switching" (paper §6.2).
//!
//! Two contrived worst cases: the Unixbench pipe-based context-switching
//! test and Apache serving a 1 KB page. "In both of these tests, context
//! switching is taken to an extreme ... both are at or below 50 percent."
//!
//! On set-associative geometries the figure also carries TLB counter
//! diagnostics: per-class miss counts (cold / capacity / conflict) for the
//! stress workloads plus a strided single-set probe that makes the
//! conflict pressure explicit (the paper's workloads have footprints too
//! small and contiguous to overflow a 4-way set on their own).

use rayon::prelude::*;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_machine::tlb::TlbStats;
use sm_workloads::unixbench::{run_unixbench, UnixbenchTest};
use sm_workloads::{httpd, normalized, tlbprobe, WorkloadResult};

/// One stress bar.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Workload label.
    pub name: String,
    /// Measured normalized performance.
    pub normalized: f64,
    /// Context switches per work unit (the mechanism).
    pub switches_per_unit: f64,
}

/// TLB counter diagnostics for one protected stress run.
#[derive(Debug, Clone)]
pub struct TlbDiag {
    /// Workload label.
    pub name: String,
    /// I-TLB counter deltas.
    pub itlb: TlbStats,
    /// D-TLB counter deltas.
    pub dtlb: TlbStats,
}

impl TlbDiag {
    fn of(r: &WorkloadResult) -> TlbDiag {
        TlbDiag {
            name: r.name.clone(),
            itlb: r.itlb,
            dtlb: r.dtlb,
        }
    }
}

/// Run the two stress tests: stand-alone split memory against the
/// unprotected system, both legs built with `base.with(..)`. The two
/// stress tests are independent and fan out across threads; bar order is
/// fixed.
pub fn run(base: &RunSpec, iterations: u32) -> Vec<Bar> {
    let unprot = base.with(Protection::Unprotected);
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    let (b, p) = (&unprot, &prot);

    type BarJob<'a> = Box<dyn Fn() -> Bar + Send + Sync + 'a>;
    let jobs: Vec<BarJob> = vec![
        Box::new(|| {
            let cb = run_unixbench(b, UnixbenchTest::PipeContextSwitch, iterations);
            let cp = run_unixbench(p, UnixbenchTest::PipeContextSwitch, iterations);
            Bar {
                name: "unixbench pipe-ctxsw".into(),
                normalized: normalized(&cp, &cb),
                switches_per_unit: cb.kernel.context_switches as f64 / cb.units as f64,
            }
        }),
        Box::new(|| {
            let ab = httpd::run_httpd(b, 1024, iterations);
            let ap = httpd::run_httpd(p, 1024, iterations);
            Bar {
                name: "apache (1KB page)".into(),
                normalized: normalized(&ap, &ab),
                switches_per_unit: ab.kernel.context_switches as f64 / ab.units as f64,
            }
        }),
    ];
    jobs.par_iter().map(|job| job()).collect()
}

/// TLB miss anatomy under the stress protection: the two Fig. 7 workloads
/// plus the strided conflict probe, all on `base`'s geometry.
pub fn tlb_diagnostics(base: &RunSpec, iterations: u32) -> Vec<TlbDiag> {
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    vec![
        TlbDiag::of(&run_unixbench(
            &prot,
            UnixbenchTest::PipeContextSwitch,
            iterations,
        )),
        TlbDiag::of(&httpd::run_httpd(&prot, 1024, iterations)),
        TlbDiag::of(&tlbprobe::run_conflict_probe(&prot, iterations)),
    ]
}

/// Render the figure.
pub fn render(bars: &[Bar]) -> String {
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.3}", b.normalized),
                format!("{:.1}", b.switches_per_unit),
            ]
        })
        .collect();
    let table =
        crate::report::render_table(&["stress test", "measured", "ctx switches / unit"], &rows);
    format!("{table}\npaper: both stress tests at or below 0.50 of unprotected speed\n")
}

/// Render the TLB diagnostics table.
pub fn render_diagnostics(diags: &[TlbDiag]) -> String {
    let fmt = |s: &TlbStats| {
        format!(
            "{}/{}/{}",
            s.cold_misses, s.capacity_misses, s.conflict_misses
        )
    };
    let rows: Vec<Vec<String>> = diags
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                fmt(&d.itlb),
                fmt(&d.dtlb),
                format!("{}", d.itlb.evictions + d.dtlb.evictions),
            ]
        })
        .collect();
    let table = crate::report::render_table(
        &[
            "workload (split-protected)",
            "itlb cold/cap/conf",
            "dtlb cold/cap/conf",
            "evictions",
        ],
        &rows,
    );
    format!("{table}\nconflict misses need a set-associative geometry; the strided probe\npins its working set to one set to surface them\n")
}
