#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 8 (Apache page-size sweep).
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("Fig. 8 — Apache throughput vs served page size\n");
    let points = sm_bench::fig8::run(&RunSpec::new(Protection::Unprotected), 30);
    println!("{}", sm_bench::fig8::render(&points));
}
