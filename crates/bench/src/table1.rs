//! Table 1: "Benchmark Attacks Foiled when Code Is Injected onto the Data,
//! Bss, Heap, and Stack Segments" (paper §6.1.1).
//!
//! Each applicable Wilander-style benchmark cell is run twice: on the
//! unprotected kernel (the attack must succeed, or the cell would be
//! meaningless) and under stand-alone split memory (the paper's check
//! mark = the attack was foiled).

use rayon::prelude::*;
use sm_attacks::harness::{Protection, RunSpec};
use sm_attacks::wilander::{self, Case, InjectLocation, Technique};
use sm_kernel::events::ResponseMode;

/// Result of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellResult {
    /// Not applicable (the paper's "N/A" entries).
    NotApplicable,
    /// Attack succeeded unprotected AND was foiled (with detection) under
    /// split memory — the paper's check mark.
    Foiled,
    /// Something unexpected (shown verbatim so regressions are loud).
    Anomaly(&'static str),
}

impl CellResult {
    /// Table cell text.
    pub fn symbol(&self) -> &'static str {
        match self {
            CellResult::NotApplicable => "N/A",
            CellResult::Foiled => "yes",
            CellResult::Anomaly(s) => s,
        }
    }
}

/// The full grid, row = technique, column = injection segment.
#[derive(Debug)]
pub struct Table1 {
    /// `(case, result)` for all 24 cells.
    pub cells: Vec<(Case, CellResult)>,
}

impl Table1 {
    /// Number of cells where the attack was foiled.
    pub fn foiled(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, r)| *r == CellResult::Foiled)
            .count()
    }

    /// Number of N/A cells.
    pub fn not_applicable(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, r)| *r == CellResult::NotApplicable)
            .count()
    }

    /// True when the table matches the paper: every applicable attack
    /// works unprotected and is foiled by split memory.
    pub fn matches_paper(&self) -> bool {
        self.cells
            .iter()
            .all(|(_, r)| matches!(r, CellResult::Foiled | CellResult::NotApplicable))
    }
}

/// Run the whole benchmark grid under stand-alone split memory (the
/// paper's Table 1 configuration) against the unprotected system, both
/// legs built with `base.with(..)`. Cells are independent (each run owns
/// its kernel), so they fan out across threads; results keep the grid's
/// deterministic row-major order.
pub fn run(base: &RunSpec) -> Table1 {
    let unprot = base.with(Protection::Unprotected);
    let prot = base.with(Protection::SplitMem(ResponseMode::Break));
    let cases = wilander::all_cases();
    let results: Vec<CellResult> = cases
        .par_iter()
        .map(|&case| run_cell(case, &unprot, &prot))
        .collect();
    Table1 {
        cells: cases.into_iter().zip(results).collect(),
    }
}

fn run_cell(case: Case, unprot: &RunSpec, prot: &RunSpec) -> CellResult {
    let Some(base) = wilander::run_case(case, unprot) else {
        return CellResult::NotApplicable;
    };
    if !base.succeeded() {
        return CellResult::Anomaly("attack failed even unprotected");
    }
    let Some(prot) = wilander::run_case(case, prot) else {
        return CellResult::NotApplicable;
    };
    match prot {
        sm_attacks::AttackOutcome::Foiled { detected: true } => CellResult::Foiled,
        sm_attacks::AttackOutcome::Foiled { detected: false } => {
            CellResult::Anomaly("foiled but undetected")
        }
        _ => CellResult::Anomaly("ATTACK SUCCEEDED UNDER PROTECTION"),
    }
}

/// Render as the paper lays it out: techniques as rows, segments as
/// columns.
pub fn render(t: &Table1) -> String {
    let mut header = vec!["attack target"];
    for loc in InjectLocation::ALL {
        header.push(loc.name());
    }
    let mut rows = Vec::new();
    for tech in Technique::ALL {
        let mut row = vec![tech.name().to_string()];
        for loc in InjectLocation::ALL {
            let cell = t
                .cells
                .iter()
                .find(|(c, _)| c.technique == tech && c.location == loc)
                .map(|(_, r)| r.symbol())
                .unwrap_or("?");
            row.push(cell.to_string());
        }
        rows.push(row);
    }
    crate::report::render_table(&header, &rows)
}
