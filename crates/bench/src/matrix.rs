//! Engine × attack matrix: every protection configuration against every
//! attack in the corpus — the five Table 2 injection scenarios plus the
//! code-reuse gallery (ret2libc, ROP, the DCR fingerprint probe).
//!
//! The matrix makes the paper's scope boundary (§7) a single table: split
//! memory and execute-disable stop every *injection* attack and none of
//! the *code-reuse* attacks; the shadow-stack/CFI engine is exactly the
//! other way around for hijacks it can see, and the stacked configuration
//! stops everything. [`Matrix::violations`] pins those expectations so a
//! regression in any engine shows up as a named cell, not a silent flip.

use rayon::prelude::*;
use sm_attacks::code_reuse::{self, ReuseAttack};
use sm_attacks::harness::{Protection, RunSpec};
use sm_attacks::real_world::{run_scenario, Scenario};
use sm_attacks::AttackOutcome;
use sm_kernel::events::ResponseMode;

/// One attack row of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// A Table 2 injection scenario.
    Injection(Scenario),
    /// A code-reuse gallery attack.
    Reuse(ReuseAttack),
}

impl Attack {
    /// All rows, injection first, gallery order within each group.
    pub fn all() -> Vec<Attack> {
        Scenario::ALL
            .into_iter()
            .map(Attack::Injection)
            .chain(ReuseAttack::ALL.into_iter().map(Attack::Reuse))
            .collect()
    }

    /// Row label.
    pub fn name(&self) -> String {
        match self {
            Attack::Injection(s) => s.name().to_string(),
            Attack::Reuse(a) => a.name().to_string(),
        }
    }

    /// True for the rows that inject code (the paper's Table 1/2 class).
    pub fn injects_code(&self) -> bool {
        // The fingerprint probe is delivered by injection too — only the
        // pure code-reuse chains never place bytes of their own.
        !matches!(
            self,
            Attack::Reuse(ReuseAttack::Ret2Libc) | Attack::Reuse(ReuseAttack::RopChain)
        )
    }
}

/// One cell: an attack under an engine.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row.
    pub attack: Attack,
    /// Column label (the engine's [`Protection::label`]).
    pub engine: String,
    /// Classified outcome.
    pub outcome: AttackOutcome,
    /// Detections the engine logged.
    pub detections: usize,
}

/// The full matrix.
#[derive(Debug)]
pub struct Matrix {
    /// Column configurations, display order.
    pub engines: Vec<Protection>,
    /// Cells in row-major (attack-major) order.
    pub cells: Vec<Cell>,
}

/// The matrix columns: every break-mode engine tier, weakest first.
pub fn engines() -> Vec<Protection> {
    vec![
        Protection::Unprotected,
        Protection::SplitMem(ResponseMode::Break),
        Protection::Nx,
        Protection::Combined(ResponseMode::Break),
        Protection::ShadowStack(ResponseMode::Break),
        Protection::ShadowCombined(ResponseMode::Break),
    ]
}

/// Run the whole matrix, every engine built with `base.with(..)`. Cells
/// are independent (each run owns its kernel), so they fan out across
/// threads; results keep row-major order.
pub fn run(base: &RunSpec) -> Matrix {
    let engines = engines();
    let pairs: Vec<(Attack, Protection)> = Attack::all()
        .into_iter()
        .flat_map(|a| engines.iter().cloned().map(move |e| (a, e)))
        .collect();
    let cells = pairs
        .par_iter()
        .map(|(attack, engine)| {
            let spec = base.with(engine.clone());
            let (outcome, detections) = match attack {
                Attack::Injection(s) => {
                    let r = run_scenario(*s, &spec);
                    (r.outcome, r.detections)
                }
                Attack::Reuse(a) => {
                    let r = code_reuse::run_reuse(*a, &spec);
                    (r.outcome, r.detections)
                }
            };
            Cell {
                attack: *attack,
                engine: engine.label(),
                outcome,
                detections,
            }
        })
        .collect();
    Matrix { engines, cells }
}

impl Matrix {
    fn cell(&self, attack: Attack, engine: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.attack == attack && c.engine == engine)
    }

    /// Check the pinned expectations; returns one message per violated
    /// cell (empty = the matrix matches the paper plus the PR's
    /// code-reuse extension).
    ///
    /// - Unprotected: every attack ends in a shell (the corpus is real).
    /// - Split memory & combined: every *injection* attack foiled with a
    ///   detection; both *code-reuse* chains succeed **undetected** (the
    ///   paper's §7 negative result, held as a regression test).
    /// - NX: both code-reuse chains succeed undetected too.
    /// - Shadow stack (alone and stacked): every attack foiled with a
    ///   detection — every hijack in the corpus bends a return or an
    ///   indirect transfer, which is exactly what it watches.
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |attack: Attack, engine: &str, want_shell: bool, want_detect: bool| {
            let Some(c) = self.cell(attack, engine) else {
                bad.push(format!("missing cell {} x {engine}", attack.name()));
                return;
            };
            if c.outcome.succeeded() != want_shell {
                bad.push(format!(
                    "{} x {engine}: {:?} (want {})",
                    attack.name(),
                    c.outcome,
                    if want_shell { "success" } else { "foiled" },
                ));
            }
            if want_detect && c.detections == 0 {
                bad.push(format!("{} x {engine}: no detection logged", attack.name()));
            }
            if !want_detect && c.detections > 0 {
                bad.push(format!(
                    "{} x {engine}: {} detections (want none — the engine cannot see this attack)",
                    attack.name(),
                    c.detections
                ));
            }
        };
        let split = Protection::SplitMem(ResponseMode::Break).label();
        let nx = Protection::Nx.label();
        let combined = Protection::Combined(ResponseMode::Break).label();
        let shadow = Protection::ShadowStack(ResponseMode::Break).label();
        let stacked = Protection::ShadowCombined(ResponseMode::Break).label();
        for attack in Attack::all() {
            check(attack, "unprotected", true, false);
            check(attack, &shadow, false, true);
            check(attack, &stacked, false, true);
            if attack.injects_code() {
                check(attack, &split, false, true);
                check(attack, &combined, false, true);
            } else {
                check(attack, &split, true, false);
                check(attack, &nx, true, false);
                check(attack, &combined, true, false);
            }
        }
        bad
    }

    /// Cell symbol: what the attacker got, and whether the defense saw it.
    fn symbol(c: &Cell) -> String {
        let base = match c.outcome {
            AttackOutcome::ShellSpawned => "shell",
            AttackOutcome::PayloadExecuted => "code ran",
            AttackOutcome::Foiled { .. } => "foiled",
        };
        if c.detections > 0 {
            format!("{base}+log")
        } else {
            base.to_string()
        }
    }
}

/// Render with attacks as rows, engines as columns.
pub fn render(m: &Matrix) -> String {
    let mut header = vec!["attack".to_string()];
    header.extend(m.engines.iter().map(Protection::label));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = Attack::all()
        .into_iter()
        .map(|a| {
            let mut row = vec![a.name()];
            for e in &m.engines {
                row.push(
                    m.cell(a, &e.label())
                        .map(Matrix::symbol)
                        .unwrap_or_else(|| "?".into()),
                );
            }
            row
        })
        .collect();
    crate::report::render_table(&header_refs, &rows)
}
