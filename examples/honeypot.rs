//! Honeypot: observe mode + Sebek-style logging (paper §4.5.2, Fig. 5b/5d).
//!
//! Runs the WU-FTPD scenario under observe mode with honeypot logging: the
//! exploit is detected at the unique moment its first injected instruction
//! is about to run, logged, and then *allowed to continue* — the attacker
//! gets their root shell while every keystroke lands in the kernel log.
//!
//! Run with: `cargo run -p sm-bench --example honeypot`

use sm_attacks::harness::{drive_shell, Protection, RunSpec};
use sm_attacks::real_world::run_wuftpd_with;
use sm_attacks::AttackOutcome;
use sm_core::engine::SplitMemConfig;
use sm_kernel::events::{Event, ResponseMode};

fn main() {
    println!("honeypot demo: WU-FTPD exploit under observe mode\n");
    let cfg = SplitMemConfig {
        response: ResponseMode::Observe,
        honeypot_on_detect: true,
        ..SplitMemConfig::default()
    };
    let (report, mut kernel, conn) =
        run_wuftpd_with(&RunSpec::new(Protection::SplitMemCustom(cfg)));

    assert_eq!(
        report.outcome,
        AttackOutcome::ShellSpawned,
        "observe mode should let the attack proceed"
    );
    println!("exploit outcome: root shell obtained (as intended for a honeypot)");
    println!(
        "detections logged before the shell: {}\n",
        report.detections
    );

    // Let the "attacker" poke around.
    let transcript = match conn {
        Some(c) => drive_shell(&mut kernel, &c, &["id", "whoami", "uname", "exit"]),
        None => String::new(),
    };
    println!("attacker's session as the attacker saw it:");
    for line in transcript.lines() {
        println!("  {line}");
    }

    println!("\nkernel event log (what the honeypot operator sees):");
    for (cycles, event) in kernel.sys.events.entries() {
        match event {
            Event::AttackDetected { eip, mode, .. } => {
                println!("  [{cycles:>10}] ATTACK DETECTED at eip {eip:#010x} (mode: {mode})");
            }
            Event::Exec { pid, path } => {
                println!("  [{cycles:>10}] {pid} exec'd {path}");
            }
            Event::SebekRead { data, .. } => {
                let text: String = data
                    .iter()
                    .filter(|b| b.is_ascii_graphic() || **b == b' ')
                    .map(|b| *b as char)
                    .collect();
                if !text.is_empty() {
                    println!("  [{cycles:>10}] sebek captured: {text:?}");
                }
            }
            _ => {}
        }
    }
    println!("\nthe page the shellcode lives on was locked to its data frame after");
    println!("the first detection, so the attack ran 'unhindered' from then on —");
    println!("exactly the paper's observe-mode semantics.");
}
