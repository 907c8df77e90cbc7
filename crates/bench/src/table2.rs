//! Table 2: "Five Real-World Vulnerabilities" (paper §6.1.2).
//!
//! Each scenario runs on the unpatched kernel (column "Attack Result":
//! a root shell), under stand-alone split memory ("Result with Split
//! Memory": attack foiled, injected code never fetched), and — beyond the
//! paper's table — under the execute-disable baseline for comparison.

use rayon::prelude::*;
use sm_attacks::harness::{Protection, RunSpec};
use sm_attacks::real_world::{run_scenario, Scenario};
use sm_attacks::AttackOutcome;
use sm_kernel::events::ResponseMode;

/// One scenario's row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which attack.
    pub scenario: Scenario,
    /// Outcome on the unpatched kernel.
    pub unprotected: AttackOutcome,
    /// Outcome under stand-alone split memory (break mode).
    pub split: AttackOutcome,
    /// Detections logged by split memory.
    pub split_detections: usize,
    /// Outcome under the NX baseline (extra column).
    pub nx: AttackOutcome,
    /// Outcome under the full defense-in-depth stack —
    /// shadow-stack/CFI over combined split+NX (extra column).
    pub shadow: AttackOutcome,
    /// Brute-force attempts the exploit needed unprotected (Samba's ASLR
    /// fight).
    pub attempts_unprotected: u32,
}

/// The table.
#[derive(Debug)]
pub struct Table2 {
    /// One row per scenario.
    pub rows: Vec<Row>,
}

impl Table2 {
    /// True when the table matches the paper: every attack yields a shell
    /// unprotected and is foiled (with detection) by split memory.
    pub fn matches_paper(&self) -> bool {
        self.rows.iter().all(|r| {
            r.unprotected == AttackOutcome::ShellSpawned
                && !r.split.succeeded()
                && r.split_detections > 0
        })
    }
}

/// Run all five scenarios under the three configurations. Scenarios fan
/// out across threads (each run owns its kernel); row order stays the
/// deterministic `Scenario::ALL` order. Every configuration is built
/// with `base.with(..)`.
pub fn run(base: &RunSpec) -> Table2 {
    let leg = |s, p| run_scenario(s, &base.with(p));
    let rows = Scenario::ALL
        .par_iter()
        .map(|&s| {
            let unprot = leg(s, Protection::Unprotected);
            let split = leg(s, Protection::SplitMem(ResponseMode::Break));
            let nx = leg(s, Protection::Nx);
            let shadow = leg(s, Protection::ShadowCombined(ResponseMode::Break));
            Row {
                scenario: s,
                unprotected: unprot.outcome,
                split: split.outcome,
                split_detections: split.detections,
                nx: nx.outcome,
                shadow: shadow.outcome,
                attempts_unprotected: unprot.attempts,
            }
        })
        .collect();
    Table2 { rows }
}

fn outcome_text(o: &AttackOutcome) -> String {
    match o {
        AttackOutcome::ShellSpawned => "root shell".into(),
        AttackOutcome::PayloadExecuted => "code executed".into(),
        AttackOutcome::Foiled { detected: true } => "attack foiled (detected)".into(),
        AttackOutcome::Foiled { detected: false } => "attack foiled".into(),
    }
}

/// Render the table.
pub fn render(t: &Table2) -> String {
    let header = [
        "software (paper)",
        "attack result",
        "result with split memory",
        "result with NX bit",
        "result with shadow stack",
        "attempts",
    ];
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.paper_target().to_string(),
                outcome_text(&r.unprotected),
                outcome_text(&r.split),
                outcome_text(&r.nx),
                outcome_text(&r.shadow),
                r.attempts_unprotected.to_string(),
            ]
        })
        .collect();
    crate::report::render_table(&header, &rows)
}
