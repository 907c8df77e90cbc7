#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Design-choice ablations (paper §4.2.4 and §4.6).
use sm_core::setup::{Protection, RunSpec};

fn main() {
    println!("Ablations — §4.2.4 I-TLB loader and §4.6 cost anatomy\n");
    let base = RunSpec::new(Protection::Unprotected);
    let itlb = sm_bench::ablation::itlb_loader(&base, 60);
    let sens = sm_bench::ablation::trap_cost_sensitivity(&base, 60);
    let soft = sm_bench::ablation::softtlb_port(&base, 60);
    println!("{}", sm_bench::ablation::render_all(&itlb, &sens, &soft));
}
