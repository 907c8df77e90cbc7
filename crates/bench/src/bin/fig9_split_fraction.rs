#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 9 (split-fraction sweep under NX+split).
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("Fig. 9 — pipe-ctxsw vs fraction of pages split\n");
    let points = sm_bench::fig9::run(&RunSpec::new(Protection::Unprotected), 50, 8);
    println!("{}", sm_bench::fig9::render(&points));
}
