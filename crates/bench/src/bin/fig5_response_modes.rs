#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 5 (response modes against WU-FTPD).
//! `--trace` appends a flight-recorded break-mode run: the tail of the
//! cycle-stamped `sm-trace` ring around the detection, validated against
//! the event-ordering protocol.
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("Fig. 5 — response modes against the WU-FTPD exploit\n");
    let base = RunSpec::new(Protection::Unprotected);
    let f = sm_bench::fig5::run(&base);
    println!("{}", sm_bench::fig5::render(&f));
    if std::env::args().any(|a| a == "--trace") {
        println!("{}", sm_bench::fig5::trace_demo(&base));
    }
}
