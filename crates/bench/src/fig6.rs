//! Fig. 6: "Normalized performance for applications and benchmarks"
//! (paper §6.2).
//!
//! Four bars, each the protected system's throughput relative to the
//! unprotected system in stand-alone split-memory mode:
//! Apache serving a 32 KB page (paper ≈ 0.89), gzip (≈ 0.87), the slowest
//! nbench test (≈ 0.97) and the Unixbench index (≈ 0.82).

use rayon::prelude::*;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_workloads::nbench::{run_nbench, NbenchKernel};
use sm_workloads::unixbench::{run_unixbench, UnixbenchTest};
use sm_workloads::{geometric_mean, gzip, httpd, normalized};

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Workload label.
    pub name: String,
    /// Measured normalized performance.
    pub normalized: f64,
    /// The value the paper reports for its testbed.
    pub paper: f64,
}

/// Scale knobs so tests can run a quick version.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Params {
    /// Apache requests.
    pub requests: u32,
    /// gzip input size in KiB.
    pub gzip_kb: u32,
    /// nbench iterations (numeric-sort outer loops; the others are scaled
    /// relative to it).
    pub nbench_iters: u32,
    /// Unixbench iterations for cheap tests (expensive tests are scaled
    /// down internally).
    pub ub_iters: u32,
}

impl Default for Fig6Params {
    fn default() -> Fig6Params {
        Fig6Params {
            requests: 40,
            gzip_kb: 64,
            nbench_iters: 300,
            ub_iters: 2500,
        }
    }
}

impl Fig6Params {
    /// Reduced workload for smoke tests.
    pub fn quick() -> Fig6Params {
        Fig6Params {
            requests: 10,
            gzip_kb: 16,
            nbench_iters: 40,
            ub_iters: 400,
        }
    }
}

/// Per-test iteration scaling for the Unixbench index (expensive tests
/// are scaled down so the index stays in budget). Public so profiling
/// tools can reproduce the exact per-test workloads.
pub fn ub_iterations_for(test: UnixbenchTest, base: u32) -> u32 {
    match test {
        UnixbenchTest::Syscall => base,
        UnixbenchTest::Dhrystone => base / 2,
        UnixbenchTest::Whetstone => base * 2,
        UnixbenchTest::PipeThroughput => base / 4,
        UnixbenchTest::PipeContextSwitch | UnixbenchTest::Spawn | UnixbenchTest::Execl => {
            (base / 40).max(10)
        }
        UnixbenchTest::FsThroughput => (base / 20).max(10),
    }
}

/// Unixbench index (geometric mean of per-test normalized scores), as real
/// Unixbench aggregates: `prot` relative to `base`, both legs on `base`'s
/// geometry and kernel configuration. Per-test ratios fan out across
/// threads; the geometric mean is order-insensitive, but the ratio vector
/// keeps `UnixbenchTest::ALL` order anyway.
pub fn unixbench_index(base: &RunSpec, prot: &Protection, iters: u32) -> f64 {
    let prot = base.with(prot.clone());
    let ratios: Vec<f64> = UnixbenchTest::ALL
        .par_iter()
        .map(|t| {
            let n = ub_iterations_for(*t, iters);
            let b = run_unixbench(base, *t, n);
            let p = run_unixbench(&prot, *t, n);
            normalized(&p, &b)
        })
        .collect();
    geometric_mean(&ratios)
}

/// Run the figure: stand-alone split memory against the unprotected
/// system, both legs built with `base.with(..)` (so `base` supplies the
/// TLB geometry and kernel configuration). The four bars are independent
/// workload families, so they fan out across threads (each sub-run owns
/// its kernel); the bar order is the paper's fixed order regardless of
/// completion order.
pub fn run(base: &RunSpec, params: Fig6Params) -> Vec<Bar> {
    let unprot = base.with(Protection::Unprotected);
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    let (b, p) = (&unprot, &prot);

    type BarJob<'a> = Box<dyn Fn() -> Bar + Send + Sync + 'a>;
    let jobs: Vec<BarJob> = vec![
        Box::new(|| {
            let ab = httpd::run_httpd(b, 32 * 1024, params.requests);
            let ap = httpd::run_httpd(p, 32 * 1024, params.requests);
            Bar {
                name: "apache (32KB page)".into(),
                normalized: normalized(&ap, &ab),
                paper: 0.89,
            }
        }),
        Box::new(|| {
            let gb = gzip::run_gzip(b, params.gzip_kb);
            let gp = gzip::run_gzip(p, params.gzip_kb);
            Bar {
                name: "gzip".into(),
                normalized: normalized(&gp, &gb),
                paper: 0.87,
            }
        }),
        Box::new(|| {
            // The paper quotes the *slowest* nbench test.
            let slowest = NbenchKernel::ALL
                .par_iter()
                .map(|nk| {
                    let iters = match nk {
                        NbenchKernel::IntArithmetic => params.nbench_iters * 50,
                        _ => params.nbench_iters,
                    };
                    let nb = run_nbench(b, *nk, iters);
                    let np = run_nbench(p, *nk, iters);
                    normalized(&np, &nb)
                })
                .collect::<Vec<f64>>()
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            Bar {
                name: "nbench (slowest test)".into(),
                normalized: slowest,
                paper: 0.97,
            }
        }),
        Box::new(|| Bar {
            name: "unixbench index".into(),
            normalized: unixbench_index(b, &p.protection, params.ub_iters),
            paper: 0.82,
        }),
    ];
    jobs.par_iter().map(|job| job()).collect()
}

/// Render the figure.
pub fn render(bars: &[Bar]) -> String {
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.3}", b.normalized),
                format!("{:.2}", b.paper),
            ]
        })
        .collect();
    let table = crate::report::render_table(&["workload", "measured", "paper"], &rows);
    let series: Vec<(String, f64)> = bars
        .iter()
        .map(|b| (b.name.clone(), b.normalized))
        .collect();
    format!(
        "{table}\n{}",
        crate::report::render_series(
            "normalized performance (1.0 = unprotected)",
            "workload",
            &series
        )
    )
}
