#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 6 (normalized performance).
//!
//! `--shards N` instead runs the fig6 Apache workload once
//! serial-verified and once segment-parallel (the PR 7 sharded
//! scheduler), printing the timing comparison and exiting non-zero if
//! the two runs were not byte-identical.
//!
//! `--no-pipeline` disables the superblock execution pipeline (per-step
//! dispatch instead); the rendered bars must be byte-identical either
//! way — only the wall time may differ.

use sm_core::setup::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut base = RunSpec::new(Protection::Unprotected);
    // A/B switch: run the workloads per-`step()` instead of through the
    // superblock pipeline (the bars must not change either way).
    base.kconfig.pipeline = !args.iter().any(|a| a == "--no-pipeline");
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let n = match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => n,
            _ => {
                eprintln!("fig6_normalized: --shards needs a segment count >= 1");
                std::process::exit(2);
            }
        };
        std::process::exit(sharded_probe(&base, n));
    }
    println!("Fig. 6 — normalized performance, stand-alone split memory\n");
    let bars = sm_bench::fig6::run(&base, sm_bench::fig6::Fig6Params::default());
    println!("{}", sm_bench::fig6::render(&bars));
}

fn sharded_probe(base: &RunSpec, shards: usize) -> i32 {
    let p = sm_bench::shards::fig6_sharded_probe(
        &base.with(Protection::SplitMem(ResponseMode::Break)),
        sm_bench::shards::FIG6_PROBE_REQUESTS,
        sm_bench::shards::FIG6_PROBE_STRIDE,
        shards,
    );
    println!(
        "Fig. 6 sharded-verification probe ({shards} shards, {} rayon threads)\n",
        p.threads
    );
    println!("  serial-verified:  {:>9.1} ms", p.serial_ms);
    println!(
        "  sharded-verified: {:>9.1} ms ({} segments)",
        p.sharded_ms, p.segments
    );
    println!("  speedup:          {:>9.2}x", p.speedup);
    println!(
        "  outputs:          {}",
        if p.identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    if p.identical {
        0
    } else {
        1
    }
}
