#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Table 1 (Wilander benchmark grid).
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("Table 1 — benchmark attacks foiled by split memory, by injection segment\n");
    let t = sm_bench::table1::run(&RunSpec::new(Protection::Unprotected));
    println!("{}", sm_bench::table1::render(&t));
    println!(
        "{} attacks foiled, {} N/A (paper: all applicable attacks foiled, 4 N/A)",
        t.foiled(),
        t.not_applicable()
    );
    assert!(t.matches_paper(), "TABLE 1 DOES NOT MATCH THE PAPER");
}
