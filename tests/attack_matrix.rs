//! Engine × attack matrix pinned end-to-end: every protection tier against
//! every attack in the corpus (five Table 2 injection scenarios plus the
//! code-reuse gallery).
//!
//! This is the PR's acceptance matrix as one test: ROP and ret2libc
//! *succeed* under split memory and NX alone — the paper's §7 negative
//! result held as a regression — while the shadow-stack/CFI engine detects
//! them standalone and stacked, and every injection attack stays foiled
//! under the paper's engines.

use sm_bench::matrix::{self, Attack};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;

#[test]
fn matrix_matches_pinned_expectations() {
    let m = matrix::run(&RunSpec::new(Protection::Unprotected));
    let violations = m.violations();
    assert!(
        violations.is_empty(),
        "engine x attack matrix diverged:\n{}",
        violations.join("\n")
    );
    // Shape: every (attack, engine) pair has exactly one cell.
    assert_eq!(m.cells.len(), Attack::all().len() * m.engines.len());
    // The render carries one row per attack plus the header rule lines.
    let table = matrix::render(&m);
    for a in Attack::all() {
        assert!(table.contains(&a.name()), "row {} missing", a.name());
    }
}

#[test]
fn matrix_engine_columns_are_distinct_tiers() {
    use sm_attacks::harness::Protection;
    let engines = matrix::engines();
    assert_eq!(engines.len(), 6);
    let labels: Vec<String> = engines.iter().map(Protection::label).collect();
    let mut dedup = labels.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        labels.len(),
        "duplicate engine column: {labels:?}"
    );
    let shadow = Protection::ShadowStack(ResponseMode::Break).label();
    let stacked = Protection::ShadowCombined(ResponseMode::Break).label();
    assert!(labels.contains(&shadow), "missing column {shadow}");
    assert!(labels.contains(&stacked), "missing column {stacked}");
}
