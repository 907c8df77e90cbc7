//! Attack harness: protection configurations, an "external attacker"
//! network endpoint, and outcome classification.
//!
//! The paper's exploits run from an attacker machine outside the testbed;
//! the harness plays that role from host Rust — it opens loopback
//! connections directly against the simulated network stack, pushes and
//! drains bytes, and interleaves `Kernel::run` slices the way a remote
//! peer's traffic would interleave with server execution.

use crate::shell::{install_shell, SHELL_PATH};
use sm_kernel::events::Event;
use sm_kernel::fs::PipeId;
use sm_kernel::kernel::Kernel;
use sm_kernel::process::{Pid, ProcState, WaitReason};

pub use sm_core::setup::{Protection, RunSpec};

/// Build a kernel for `spec`, with the shell installed (so successful
/// exploits have something to exec). The attack corpus must hold on the
/// paper's real testbed hardware too, so the TLB geometry is the spec's.
pub fn kernel_with(spec: &RunSpec) -> Kernel {
    let mut k = spec.kernel();
    install_shell(&mut k.sys.fs);
    k
}

/// An attacker-side connection into the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct ExternalConn {
    /// Attacker → victim bytes (the victim's socket reads these).
    pub c2s: PipeId,
    /// Victim → attacker bytes.
    pub s2c: PipeId,
}

/// Connect to `port` from outside the machine. Returns `None` if nothing
/// is listening yet (run the kernel a little and retry).
pub fn external_connect(k: &mut Kernel, port: u16) -> Option<ExternalConn> {
    let conn = k.sys.net.connect(&mut k.sys.pipes, port)?;
    k.sys.wake_where(|r| *r == WaitReason::Accept(port));
    Some(ExternalConn {
        c2s: conn.c2s,
        s2c: conn.s2c,
    })
}

/// Connect, running the kernel in slices until the listener appears.
/// Returns `None` if it never does within the budget.
pub fn external_connect_patiently(k: &mut Kernel, port: u16, budget: u64) -> Option<ExternalConn> {
    let deadline = k.sys.machine.cycles + budget;
    loop {
        if let Some(c) = external_connect(k, port) {
            return Some(c);
        }
        if k.sys.machine.cycles >= deadline {
            return None;
        }
        // A fully blocked or exited system will never start listening.
        if k.run(50_000) != sm_kernel::RunExit::CyclesExhausted {
            return external_connect(k, port);
        }
    }
}

/// Send attacker bytes (waking any blocked reader).
pub fn ext_send(k: &mut Kernel, conn: &ExternalConn, bytes: &[u8]) {
    let n = k.sys.pipes.get_mut(conn.c2s).write(bytes);
    assert_eq!(n, bytes.len(), "attack payload exceeded pipe capacity");
    k.sys
        .wake_where(|r| *r == WaitReason::PipeReadable(conn.c2s));
}

/// Drain whatever the victim has sent.
pub fn ext_recv(k: &mut Kernel, conn: &ExternalConn) -> Vec<u8> {
    let pipe = k.sys.pipes.get_mut(conn.s2c);
    let mut buf = vec![0u8; pipe.len()];
    let n = pipe.read(&mut buf);
    buf.truncate(n);
    if !buf.is_empty() {
        k.sys
            .wake_where(|r| *r == WaitReason::PipeWritable(conn.s2c));
    }
    buf
}

/// Run the kernel until the victim sends something (or the budget runs
/// out); returns the received bytes.
pub fn ext_recv_wait(k: &mut Kernel, conn: &ExternalConn, budget: u64) -> Vec<u8> {
    let deadline = k.sys.machine.cycles + budget;
    loop {
        let got = ext_recv(k, conn);
        if !got.is_empty() {
            return got;
        }
        if k.sys.machine.cycles >= deadline {
            return Vec::new();
        }
        // A quiesced system (everything blocked or exited) sends nothing.
        if k.run(50_000) != sm_kernel::RunExit::CyclesExhausted {
            return ext_recv(k, conn);
        }
    }
}

/// Close the attacker's side of a connection.
pub fn ext_close(k: &mut Kernel, conn: &ExternalConn) {
    k.sys.pipes.drop_writer(conn.c2s);
    k.sys.pipes.drop_reader(conn.s2c);
    k.sys
        .wake_where(|r| *r == WaitReason::PipeReadable(conn.c2s));
}

/// How an attack run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// A shell was spawned (`execve("/bin/sh")` observed) — full
    /// compromise, the paper's "attack success".
    ShellSpawned,
    /// The marker payload ran (exit-status proof) without a shell.
    PayloadExecuted,
    /// The attack was stopped; `detected` says whether the protection
    /// logged it (split memory always does; a plain crash does not).
    Foiled {
        /// An [`Event::AttackDetected`] was logged.
        detected: bool,
    },
}

impl AttackOutcome {
    /// Did the attacker get code execution?
    pub fn succeeded(&self) -> bool {
        matches!(
            self,
            AttackOutcome::ShellSpawned | AttackOutcome::PayloadExecuted
        )
    }
}

/// Classify the outcome for a victim that uses [`crate::shellcode::exit_code`]
/// with `marker` as its payload.
pub fn classify_marker(k: &Kernel, pid: Pid, marker: u8) -> AttackOutcome {
    if k.sys.events.execed(SHELL_PATH) {
        return AttackOutcome::ShellSpawned;
    }
    let exited_with_marker = k
        .sys
        .procs
        .get(&pid.0)
        .map(|p| p.exit_code == Some(marker as i32))
        .unwrap_or(false);
    if exited_with_marker {
        return AttackOutcome::PayloadExecuted;
    }
    AttackOutcome::Foiled {
        detected: k.sys.events.first_detection().is_some(),
    }
}

/// Classify the outcome for shell-spawning exploits.
pub fn classify_shell(k: &Kernel) -> AttackOutcome {
    if k.sys.events.execed(SHELL_PATH) {
        return AttackOutcome::ShellSpawned;
    }
    AttackOutcome::Foiled {
        detected: k.sys.events.first_detection().is_some(),
    }
}

/// Drive an interactive session with a spawned remote shell: send each
/// command, collect the responses. Returns the concatenated transcript.
pub fn drive_shell(k: &mut Kernel, conn: &ExternalConn, commands: &[&str]) -> String {
    let mut transcript = String::new();
    for cmd in commands {
        k.run(400_000);
        transcript.push_str(&String::from_utf8_lossy(&ext_recv(k, conn)));
        ext_send(k, conn, format!("{cmd}\n").as_bytes());
        k.run(400_000);
        transcript.push_str(&String::from_utf8_lossy(&ext_recv(k, conn)));
    }
    transcript
}

/// True if any process is still alive (ready or blocked).
pub fn victim_alive(k: &Kernel, pid: Pid) -> bool {
    k.sys
        .procs
        .get(&pid.0)
        .is_some_and(|p| p.state != ProcState::Zombie)
}

/// Count detections in the event log.
pub fn detections(k: &Kernel) -> usize {
    k.sys
        .events
        .iter()
        .filter(|e| matches!(e, Event::AttackDetected { .. }))
        .count()
}
