//! Fig. 8: "Closer look into Apache performance" (paper §6.2).
//!
//! Apache throughput, protected vs. unprotected, as the served page grows
//! from 1 KB to 64 KB: "for low page sizes, the system context switches
//! heavily and performance suffers, whereas for larger page sizes ...
//! the results become significantly better."

use rayon::prelude::*;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_workloads::{httpd, normalized};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Served page size in bytes.
    pub page_size: u32,
    /// Normalized performance at this size.
    pub normalized: f64,
    /// Context switches per request (unprotected) — the mechanism behind
    /// the curve.
    pub switches_per_request: f64,
}

/// Page sizes the sweep visits (the paper's 1K–64K range).
pub const PAGE_SIZES: [u32; 7] = [
    1024,
    2 * 1024,
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
];

/// Run the sweep: stand-alone split memory against the unprotected
/// system, both legs built with `base.with(..)`. Sweep points are
/// independent and fan out across threads; the returned curve keeps
/// `PAGE_SIZES` order.
pub fn run(base: &RunSpec, requests: u32) -> Vec<Point> {
    let unprot = base.with(Protection::Unprotected);
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    PAGE_SIZES
        .par_iter()
        .map(|&page_size| {
            let b = httpd::run_httpd(&unprot, page_size, requests);
            let p = httpd::run_httpd(&prot, page_size, requests);
            Point {
                page_size,
                normalized: normalized(&p, &b),
                switches_per_request: b.kernel.context_switches as f64 / b.units as f64,
            }
        })
        .collect()
}

/// Render the figure.
pub fn render(points: &[Point]) -> String {
    let series: Vec<(String, f64)> = points
        .iter()
        .map(|p| (format!("{:>3}KB", p.page_size / 1024), p.normalized))
        .collect();
    let mut out = crate::report::render_series(
        "apache normalized throughput vs served page size",
        "page",
        &series,
    );
    out.push_str("\npaper: rising curve — small pages context-switch heavily, large pages\nsaturate the link and amortise the TLB flushes\n");
    out
}
