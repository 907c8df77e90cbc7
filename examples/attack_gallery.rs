//! Attack gallery: every attack in the corpus — the five real-world
//! injection scenarios (paper Table 2) plus the code-reuse gallery
//! (ret2libc, a multi-gadget ROP chain, and the DCR-style response-mode
//! fingerprint) — under every protection engine tier.
//!
//! Run with: `cargo run --release -p sm-bench --example attack_gallery`

use sm_attacks::code_reuse::{self, ReuseAttack};
use sm_attacks::harness::{Protection, RunSpec};
use sm_kernel::events::ResponseMode;

fn main() {
    println!("engine x attack matrix (paper Tables 1/2 + the §7 code-reuse extension)\n");
    let m = sm_bench::matrix::run(&RunSpec::new(Protection::Unprotected));
    println!("{}", sm_bench::matrix::render(&m));
    let violations = m.violations();
    if violations.is_empty() {
        println!("matches expectations: true");
    } else {
        println!("matches expectations: FALSE");
        for v in &violations {
            println!("  {v}");
        }
    }
    println!();
    println!("notes:");
    println!(" - 'shell' under split/nx on the ret2libc and rop-chain rows is the");
    println!("   paper's own §7 concession, pinned as a negative result: nothing was");
    println!("   injected, so injection-oriented engines have nothing to see");
    println!(" - the shadow-stack/CFI engine catches exactly those rows (the return");
    println!("   address the chain overwrote is not on the shadow stack), alone and");
    println!("   stacked on split+nx");
    println!();

    // The fingerprint probe vs. the observe/honeypot response mode: under
    // NX the honeypot *relocates* the payload (its PC moves — the probe
    // reports HPOT and aborts); under split memory the heal is in-place
    // (the probe sees a clean world while the engine logs it).
    println!("DCR fingerprint vs. observe-mode honeypots:");
    for protection in [
        Protection::Unprotected,
        Protection::NxResponse(ResponseMode::Observe),
        Protection::SplitMem(ResponseMode::Observe),
    ] {
        let label = protection.label();
        let r = code_reuse::run_reuse(ReuseAttack::DcrFingerprint, &RunSpec::new(protection));
        println!(
            "  {:<24} probe says {:<6} outcome {:?}, {} detections",
            label,
            r.marker.as_deref().unwrap_or("(none)"),
            r.outcome,
            r.detections
        );
    }
}
