//! Fig. 5: "Demonstration of response modes against the WU-FTPD exploit"
//! (paper §6.1.3).
//!
//! * (a) break mode — the exploit fails, the daemon crashes;
//! * (b) observe mode — the exploit proceeds and gets its root shell, but
//!   the injection was logged first;
//! * (c) forensics mode — the log captures the first 20 bytes of injected
//!   shellcode (the NOP sled is recognisable, as in the paper's
//!   screenshot), rendered with the disassembler;
//! * (d) Sebek-style log during observe mode — the attacker's shell
//!   commands are captured after the detection event;
//! * plus the §6.1.3 demo: substituting the paper's `exit(0)` forensic
//!   shellcode makes the compromised daemon terminate gracefully.

use sm_attacks::harness::{drive_shell, Protection, RunSpec};
use sm_attacks::real_world::run_wuftpd_with;
use sm_attacks::shellcode::PAPER_EXIT0;
use sm_attacks::AttackOutcome;
use sm_core::engine::SplitMemConfig;
use sm_kernel::events::{Event, ResponseMode};

/// Results of the four demonstrations.
#[derive(Debug)]
pub struct Fig5 {
    /// (a) outcome under break mode.
    pub break_outcome: AttackOutcome,
    /// (b) outcome under observe mode.
    pub observe_outcome: AttackOutcome,
    /// (b) the attacker's interactive transcript under observe mode.
    pub observe_transcript: String,
    /// (b) detections logged before the attack proceeded.
    pub observe_detections: usize,
    /// (c) captured shellcode bytes (forensics mode).
    pub forensics_dump: Vec<u8>,
    /// (c) the dump, disassembled.
    pub forensics_disasm: Vec<String>,
    /// (c) the §4.5.3 fingerprint of the dump.
    pub forensics_fingerprint: sm_core::forensics::Fingerprint,
    /// (d) Sebek-captured attacker input lines during observe mode.
    pub sebek_log: Vec<String>,
    /// §6.1.3: daemon exit status after the `exit(0)` forensic shellcode
    /// was substituted (0 = "terminates without a segmentation fault").
    pub forensic_substitution_exit: Option<i32>,
}

/// Run all four demonstrations, each configuration built with
/// `base.with(..)`.
pub fn run(base: &RunSpec) -> Fig5 {
    let wuftpd = |p| run_wuftpd_with(&base.with(p));
    // (a) break mode.
    let (break_report, _, _) = wuftpd(Protection::SplitMem(ResponseMode::Break));

    // (b) + (d) observe mode with honeypot logging.
    let observe_cfg = SplitMemConfig {
        response: ResponseMode::Observe,
        honeypot_on_detect: true,
        ..SplitMemConfig::default()
    };
    let (observe_report, mut k, conn) = wuftpd(Protection::SplitMemCustom(observe_cfg));
    let observe_transcript = match (&observe_report.outcome, conn) {
        (AttackOutcome::ShellSpawned, Some(c)) => {
            // The report already drove `id`/`whoami`; type some more for the
            // Sebek capture, like the paper's screenshot session.
            drive_shell(&mut k, &c, &["id", "uname", "exit"])
        }
        _ => String::new(),
    };
    // Sebek captures every read — including byte-at-a-time line reads and
    // the binary stage-two payload. Coalesce into printable lines, the way
    // the paper's screenshot presents the attacker's keystrokes.
    let mut sebek_bytes = Vec::new();
    for e in k.sys.events.iter() {
        if let Event::SebekRead { data, .. } = e {
            sebek_bytes.extend_from_slice(data);
        }
    }
    let sebek_log: Vec<String> = String::from_utf8_lossy(&sebek_bytes)
        .lines()
        .map(|l| {
            l.chars()
                .filter(|c| c.is_ascii_graphic() || *c == ' ')
                .collect::<String>()
        })
        .filter(|l: &String| l.len() >= 2)
        .collect();
    let observe_transcript = if observe_transcript.is_empty() {
        observe_report.transcript.clone().unwrap_or_default()
    } else {
        observe_transcript
    };

    // (c) forensics mode: dump only (no substitution).
    let forensics_cfg = SplitMemConfig {
        response: ResponseMode::Forensics,
        ..SplitMemConfig::default()
    };
    let (_, kf, _) = wuftpd(Protection::SplitMemCustom(forensics_cfg));
    let forensics_dump = kf
        .sys
        .events
        .iter()
        .find_map(|e| match e {
            Event::AttackDetected { shellcode, .. } if !shellcode.is_empty() => {
                Some(shellcode.clone())
            }
            _ => None,
        })
        .unwrap_or_default();
    let forensics_disasm = sm_asm::disassemble(&forensics_dump, 0)
        .into_iter()
        .map(|l| l.text)
        .collect();
    let forensics_fingerprint = sm_core::forensics::fingerprint(&forensics_dump);

    // §6.1.3: substitute the paper's exit(0) forensic shellcode.
    let subst_cfg = SplitMemConfig {
        response: ResponseMode::Forensics,
        forensic_shellcode: Some(PAPER_EXIT0.to_vec()),
        ..SplitMemConfig::default()
    };
    let (_, ks, _) = wuftpd(Protection::SplitMemCustom(subst_cfg));
    let forensic_substitution_exit = ks.sys.events.iter().find_map(|e| match e {
        Event::ProcessExit { code, .. } => Some(*code),
        _ => None,
    });

    Fig5 {
        break_outcome: break_report.outcome,
        observe_outcome: observe_report.outcome,
        observe_transcript,
        observe_detections: observe_report.detections,
        forensics_dump,
        forensics_disasm,
        forensics_fingerprint,
        sebek_log,
        forensic_substitution_exit,
    }
}

/// Flight-record the break-mode exploit (`--trace` in the Fig. 5 bin):
/// re-run demonstration (a) with every trace layer armed and render the
/// tail of the ring — the Algorithm 1→3 sequence around the detection —
/// after validating the whole stream against the ordering protocol.
pub fn trace_demo(base: &RunSpec) -> String {
    use sm_machine::trace::{check_order, mask};
    let mut spec = base.with(Protection::SplitMem(ResponseMode::Break));
    spec.kconfig.trace = mask::ALL;
    let (report, k, _) = run_wuftpd_with(&spec);
    let tracer = &k.sys.machine.tracer;
    let records = tracer.snapshot();
    // The daemon is still serving when the demo stops driving it, so the
    // stream is validated as an incomplete run (armed windows may outlive
    // the captured prefix; a *violation* here would still surface).
    let problems = check_order(&records, tracer.truncated(), false);
    let mut out = String::new();
    out.push_str(&format!(
        "(a) break mode, flight-recorded: outcome {:?}, {} trace events ({} dropped), ordering {}\n",
        report.outcome,
        tracer.emitted(),
        tracer.dropped(),
        if problems.is_empty() {
            "clean".to_string()
        } else {
            format!("VIOLATED: {}", problems.join("; "))
        },
    ));
    out.push_str("    last events of the ring:\n");
    for r in tracer.tail(16) {
        out.push_str(&format!("      {}\n", r.to_json()));
    }
    out
}

/// Render the demo like the paper's four screenshots.
pub fn render(f: &Fig5) -> String {
    let mut out = String::new();
    out.push_str("(a) break mode\n");
    out.push_str(&format!("    exploit outcome: {:?}\n\n", f.break_outcome));
    out.push_str("(b) observe mode\n");
    out.push_str(&format!(
        "    exploit outcome: {:?} ({} detection(s) logged first)\n",
        f.observe_outcome, f.observe_detections
    ));
    for line in f.observe_transcript.lines() {
        out.push_str(&format!("    attacker session: {line}\n"));
    }
    out.push_str("\n(c) forensics mode — first bytes of injected shellcode\n    ");
    for b in &f.forensics_dump {
        out.push_str(&format!("{b:02x} "));
    }
    out.push('\n');
    for line in &f.forensics_disasm {
        out.push_str(&format!("      {line}\n"));
    }
    out.push_str(&format!(
        "    fingerprint: {} (sled {} bytes, {})\n",
        &f.forensics_fingerprint.digest_hex()[..16],
        f.forensics_fingerprint.nop_sled,
        f.forensics_fingerprint.class.describe()
    ));
    out.push_str("\n(d) Sebek log during observe mode\n");
    for line in &f.sebek_log {
        out.push_str(&format!("    [sebek] {line}\n"));
    }
    out.push_str(&format!(
        "\n§6.1.3 forensic shellcode substitution (exit(0)): daemon exit status {:?}\n",
        f.forensic_substitution_exit
    ));
    out
}
