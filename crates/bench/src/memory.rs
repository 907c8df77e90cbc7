//! §5.1 memory overhead: "the memory usage of an application is
//! effectively doubled; however, this limitation is not one of the
//! technique itself, but instead of the prototype. A system can be
//! envisioned based on demand paging ... a lower memory overhead ...
//! We would anticipate this optimization to not have any noticeable
//! impact on performance."
//!
//! This module measures all three systems the paragraph talks about —
//! unprotected, the prototype's eager splitting, and the envisioned
//! demand-allocated (lazy) splitting — on the same workload, reporting
//! peak physical frames and throughput.

use sm_core::engine::SplitMemConfig;
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;
use sm_workloads::{httpd, normalized, WorkloadResult};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Configuration label.
    pub label: String,
    /// Peak physical frames in use.
    pub peak_frames: u32,
    /// Peak frames relative to unprotected.
    pub memory_ratio: f64,
    /// Throughput relative to unprotected.
    pub normalized_perf: f64,
}

/// Run the comparison on the httpd workload, every configuration built
/// with `spec.with(..)`.
pub fn run(spec: &RunSpec, page_size: u32, requests: u32) -> Vec<MemoryRow> {
    let leg = |p| httpd::run_httpd(&spec.with(p), page_size, requests);
    let base = leg(Protection::Unprotected);
    let eager = leg(Protection::SplitMem(ResponseMode::Break));
    let lazy_cfg = SplitMemConfig {
        lazy_code_frames: true,
        ..SplitMemConfig::default()
    };
    let lazy = leg(Protection::SplitMemCustom(lazy_cfg));
    let row = |label: &str, r: &WorkloadResult| MemoryRow {
        label: label.to_string(),
        peak_frames: r.peak_frames,
        memory_ratio: r.peak_frames as f64 / base.peak_frames as f64,
        normalized_perf: normalized(r, &base),
    };
    vec![
        row("unprotected", &base),
        row("split (eager, the paper's prototype)", &eager),
        row("split (demand-allocated code frames, §5.1)", &lazy),
    ]
}

/// Render the table.
pub fn render(rows: &[MemoryRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.peak_frames.to_string(),
                format!("{:.2}x", r.memory_ratio),
                format!("{:.3}", r.normalized_perf),
            ]
        })
        .collect();
    let table = crate::report::render_table(
        &[
            "configuration",
            "peak frames",
            "memory vs base",
            "perf vs base",
        ],
        &body,
    );
    format!(
        "{table}\npaper §5.1: the prototype doubles memory; the envisioned demand-paging\nvariant lowers that \"without any noticeable impact on performance\"\n"
    )
}
