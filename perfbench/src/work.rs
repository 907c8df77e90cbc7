//! The four workloads, one closed-loop pass each.
//!
//! A pass runs a fixed list of guest programs, each on a fresh
//! warm-started kernel, to completion. Every guest run yields one
//! fingerprint line of simulated outputs (cycles, machine, TLB and kernel
//! counters, exit codes, event log and trace digests). Host-cache counters
//! (decode cache, superblocks) are measured but kept out of the
//! fingerprint: they describe how fast the simulator ran, not what it
//! computed.
//!
//! In traced mode every call into a layer is wrapped in a host-time span
//! and the engine is wrapped in a [`TimedEngine`]; the simulated outputs
//! must not change.

use crate::timed::{HookTimes, TimedEngine, HOOKS};
use sm_bench::fleet::{self, FleetConfig};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::engine::NullEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::snapshot;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::TlbPreset;
use sm_workloads::nbench::{nbench_program, NbenchKernel};
use sm_workloads::unixbench::{unixbench_program, UnixbenchTest};
use sm_workloads::{httpd, runner::workload_kconfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// nbench outer iterations (Fig. 6 uses 300; int-arith runs 50x that).
const NBENCH_ITERS: u32 = 50;
/// Unixbench base iterations before the per-test Fig. 6 scaling (Fig. 6
/// uses 2500).
const UB_BASE_ITERS: u32 = 2500;
/// Unixbench scale-up over the Fig. 6 iteration counts.
const UB_SCALE: u32 = 4;
/// httpd page size and request count (`syscall` and `checked`).
const HTTPD_PAGE: u32 = 32 * 1024;
const HTTPD_REQUESTS: u32 = 40;
/// Fleet size.
const FLEET_TENANTS: u32 = 1000;
const FLEET_SHARDS: u32 = 2;
/// `checked`: self-patching loop length and the harness slice length.
const PATCH_ITERS: u32 = 200_000;
const SLICE_CYCLES: u64 = 100_000;
/// Upper bound on one guest run; a run that needs more has failed.
const MAX_CYCLES: u64 = 50_000_000_000;
/// Upper bound on `checked` slices per kernel.
const MAX_SLICES: u32 = 100_000;
/// Cold boots and warm starts timed per protection in traced mode.
const BOOT_REPS: u32 = 20;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// nbench kernels: machine-bound.
    Compute,
    /// Unixbench system tests and httpd: kernel- and engine-bound.
    Syscall,
    /// Multi-tenant fleet simulation.
    Fleet,
    /// Guests under the invariant checker, tracer and snapshots.
    Checked,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Compute,
        Workload::Syscall,
        Workload::Fleet,
        Workload::Checked,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Syscall => "syscall",
            Workload::Fleet => "fleet",
            Workload::Checked => "checked",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Protections the workload runs under, baseline first.
    fn protections(self) -> Vec<Protection> {
        let split = Protection::SplitMem(ResponseMode::Break);
        let stack = Protection::ShadowCombined(ResponseMode::Break);
        match self {
            Workload::Compute => vec![Protection::Unprotected, split],
            Workload::Syscall => vec![Protection::Unprotected, split, stack],
            Workload::Fleet => Vec::new(),
            Workload::Checked => vec![split, stack],
        }
    }
}

/// Per-layer sums collected in traced mode.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
}

impl Layers {
    /// Add `v` to metric `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_default() += v;
    }

    /// Current sum of `key` (0 if never added).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// Run context: the seed, the assembled programs, and in traced mode the
/// layer sums and the shared hook timers.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    progs: Programs,
    pub traced: bool,
    pub layers: Layers,
    pub hooks: Arc<HookTimes>,
}

/// Deterministic result of one pass.
#[derive(Debug, Default)]
pub struct PassOut {
    /// One fingerprint line per guest run (one per fleet run).
    pub lines: Vec<String>,
    /// Guest runs (closed-loop workloads) or requests (`fleet`).
    pub ops: u64,
    /// Operations that failed outright (bad exit, drop, failed restore).
    pub failed: u64,
    /// Guest instructions retired.
    pub insns: u64,
    /// Simulated cycles from kernel start to the end of the run.
    pub cycles: u64,
    /// Simulated cycles after spawn, by protection label (the Fig. 6
    /// measurement window).
    pub cycles_by_protection: BTreeMap<String, u64>,
    /// Invariant-checker violations (`checked`).
    pub violations: u64,
    /// Violation kinds and counts per guest run (`checked`).
    pub violation_kinds: Vec<String>,
    /// Fleet outcome (`fleet`).
    pub fleet: Option<FleetNums>,
}

/// Simulated fleet outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetNums {
    pub completed: u64,
    pub dropped: u64,
    pub p99_cycles: u64,
    pub slo_misses: u64,
    pub cells: u64,
    pub duration_cycles: u64,
    pub req_per_mcycle: u64,
}

/// Programs assembled once at set-up.
#[derive(Default)]
struct Programs {
    /// `(label, image)` per guest, in pass order.
    guests: Vec<(String, Vec<ExecImage>)>,
    /// `/bin/true`, installed for the execve test.
    true_bin: Vec<u8>,
}

fn build(b: ProgramBuilder) -> BuiltProgram {
    b.build().expect("benchmark guest assembles")
}

/// The mixed-segment guest of `checked`: it rewrites the immediate of its
/// own `mov` on every iteration. Under split memory the store lands on the
/// data frame, so the original byte keeps executing. The patch byte comes
/// from the seed.
pub(crate) fn patcher(seed: u64) -> ExecImage {
    let salt = seed & 0x7f;
    build(
        ProgramBuilder::new("/bin/patcher")
            .mixed_segment()
            .code(&format!(
                "_start:
            mov ecx, {PATCH_ITERS}
        patch_loop:
            mov eax, ecx
            xor eax, {salt}
            and eax, 127
            mov byte [patchsite+1], al
        patchsite:
            mov ebx, 9
            add [acc], ebx
            dec ecx
            jnz patch_loop
            mov ebx, 0
            call exit
        acc: .word 0"
            )),
    )
    .image
}

fn httpd_images() -> Vec<ExecImage> {
    vec![
        httpd::server_program(HTTPD_PAGE, HTTPD_REQUESTS).image,
        httpd::client_program(HTTPD_PAGE, HTTPD_REQUESTS).image,
    ]
}

fn assemble(w: Workload, seed: u64) -> Programs {
    let mut p = Programs::default();
    match w {
        Workload::Compute => {
            for nk in NbenchKernel::ALL {
                let iters = match nk {
                    NbenchKernel::IntArithmetic => NBENCH_ITERS * 50,
                    _ => NBENCH_ITERS,
                };
                let img = nbench_program(nk, iters).image;
                p.guests.push((format!("nbench-{}", nk.name()), vec![img]));
            }
        }
        Workload::Syscall => {
            for t in [
                UnixbenchTest::PipeContextSwitch,
                UnixbenchTest::Spawn,
                UnixbenchTest::Execl,
                UnixbenchTest::Syscall,
                UnixbenchTest::FsThroughput,
                UnixbenchTest::PipeThroughput,
            ] {
                let iters = sm_bench::fig6::ub_iterations_for(t, UB_BASE_ITERS) * UB_SCALE;
                let img = unixbench_program(t, iters).image;
                p.guests.push((format!("ub-{}", t.name()), vec![img]));
            }
            p.guests.push(("httpd-32k".into(), httpd_images()));
            p.true_bin =
                build(ProgramBuilder::new("/bin/true").code("_start: mov ebx, 0\n call exit"))
                    .image
                    .to_bytes();
        }
        Workload::Fleet => {}
        Workload::Checked => {
            let mut imgs = httpd_images();
            imgs.push(patcher(seed));
            p.guests.push(("httpd-32k+patcher".into(), imgs));
        }
    }
    p
}

impl Ctx {
    /// Assemble the workload's programs (timed as `asm.build_s`).
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Ctx {
        let t = Instant::now();
        let progs = assemble(workload, seed);
        let mut layers = Layers::default();
        layers.add("asm.build_s", t.elapsed().as_secs_f64());
        Ctx {
            workload,
            seed,
            progs,
            traced,
            layers,
            hooks: Arc::new(HookTimes::default()),
        }
    }

    fn kconfig(&self) -> KernelConfig {
        let trace = match self.workload {
            Workload::Checked => sm_trace::mask::ALL,
            _ => 0,
        };
        KernelConfig {
            seed: self.seed,
            trace,
            ..workload_kconfig()
        }
    }

    fn span<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.layers.add(key, t.elapsed().as_secs_f64());
        out
    }

    fn count(&mut self, key: &str, v: u64) {
        if self.traced {
            self.layers.add(key, v as f64);
        }
    }

    fn kernel(&mut self, p: &Protection) -> Kernel {
        let mut k = p.kernel_warm_on(TlbPreset::default(), self.kconfig());
        if self.traced {
            let inner = std::mem::replace(&mut k.engine, Box::new(NullEngine));
            k.engine = Box::new(TimedEngine::new(inner, self.hooks.clone()));
        }
        k
    }

    /// Run one pass of the workload.
    pub fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        if self.workload == Workload::Fleet {
            self.fleet_pass(&mut out);
            return out;
        }
        for p in self.workload.protections() {
            for gi in 0..self.progs.guests.len() {
                self.guest(&p, gi, &mut out);
            }
        }
        out
    }

    /// Time cold `Kernel::new` against `kernel_warm_on` (snapshot restore)
    /// for each protection the workload uses. Traced mode only.
    pub fn boot_split(&mut self) {
        let tlb = TlbPreset::default();
        for p in self.workload.protections() {
            for _ in 0..BOOT_REPS {
                let t = Instant::now();
                let k = Kernel::new(p.machine_config_on(tlb), self.kconfig(), p.engine());
                self.layers.add("kernel.boot_s", t.elapsed().as_secs_f64());
                self.layers.add("kernel.boot_calls", 1.0);
                drop(k);
                let t = Instant::now();
                let k = p.kernel_warm_on(tlb, self.kconfig());
                self.layers
                    .add("kernel.warm_start_s", t.elapsed().as_secs_f64());
                self.layers.add("kernel.warm_start_calls", 1.0);
                drop(k);
            }
        }
    }

    fn guest(&mut self, p: &Protection, gi: usize, out: &mut PassOut) {
        let mut k = self.kernel(p);
        if !self.progs.true_bin.is_empty() {
            k.sys.fs.install("/bin/true", self.progs.true_bin.clone());
        }
        let label = format!("{}/{}", self.progs.guests[gi].0, p.label());
        let images = std::mem::take(&mut self.progs.guests[gi].1);
        let mut ok = true;
        let c_boot = k.sys.machine.cycles;
        let i0 = k.sys.machine.stats.instructions;
        let before = Counters::of(&k);
        for img in &images {
            ok &= self.span("kernel.spawn_s", || k.spawn(img)).is_ok();
            self.count("kernel.spawn_calls", 1);
        }
        self.progs.guests[gi].1 = images;
        let c_spawned = k.sys.machine.cycles;
        let mut extra = String::new();
        let exit = if self.workload == Workload::Checked {
            self.harness_loop(p, &mut k, &mut ok, out, &mut extra)
        } else {
            self.span("kernel.run_s", || k.run(MAX_CYCLES))
        };
        ok &= exit == RunExit::AllExited;
        ok &= k.sys.procs.values().all(|pr| pr.exit_code == Some(0));
        if self.traced {
            Counters::of(&k).since(&before).add_to(&mut self.layers);
        }
        let cycles = k.sys.machine.cycles;
        *out.cycles_by_protection.entry(p.label()).or_default() += cycles - c_spawned;
        out.cycles += cycles - c_boot;
        out.insns += k.sys.machine.stats.instructions - i0;
        out.lines
            .push(format!("{label}: {}{extra}", fingerprint(&k, exit)));
        out.ops += 1;
        out.failed += u64::from(!ok);
    }

    /// `checked`: run in slices; after each, check invariants and the
    /// trace, save a snapshot and restore it into a twin that must agree.
    fn harness_loop(
        &mut self,
        p: &Protection,
        k: &mut Kernel,
        ok: &mut bool,
        out: &mut PassOut,
        extra: &mut String,
    ) -> RunExit {
        let mut slices = 0u32;
        let mut violations = 0u64;
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        let exit = loop {
            let exit = self.span("kernel.run_s", || k.run(SLICE_CYCLES));
            let done = exit != RunExit::CyclesExhausted;
            let v = self.span("invariants.check_s", || invariants::check(k));
            let vt = self.span("invariants.check_trace_s", || {
                invariants::check_trace(k, done)
            });
            violations += (v.len() + vt.len()) as u64;
            for x in v.iter().chain(&vt) {
                let kind = format!("{x:?}");
                let kind = kind.split([' ', '(', '{']).next().unwrap_or_default();
                *kinds.entry(kind.to_string()).or_default() += 1;
            }
            self.count("invariants.calls", 2);
            let bytes = self.span("snapshot.save_s", || snapshot::save(k));
            let twin = self.span("snapshot.restore_s", || {
                snapshot::restore(&bytes, p.engine())
            });
            self.count("snapshot.calls", 2);
            self.count("snapshot.bytes", bytes.len() as u64);
            *ok &= twin.is_ok_and(|t| {
                t.sys.machine.cycles == k.sys.machine.cycles
                    && t.sys.machine.stats == k.sys.machine.stats
            });
            slices += 1;
            if done || slices >= MAX_SLICES {
                break exit;
            }
        };
        let jsonl = self.span("trace.export_s", || k.sys.machine.tracer.to_jsonl());
        let tracer = &k.sys.machine.tracer;
        self.count("trace.events", tracer.emitted());
        self.count("trace.dropped", tracer.dropped());
        self.count("trace.bytes", jsonl.len() as u64);
        self.count("invariants.violations", violations);
        out.violations += violations;
        out.violation_kinds
            .push(format!("{}: {violations} {kinds:?}", p.label()));
        *extra = format!(
            " slices={slices} trace={}/{}#{:016x}",
            tracer.emitted(),
            tracer.dropped(),
            fnv1a(jsonl.as_bytes())
        );
        exit
    }

    fn fleet_pass(&mut self, out: &mut PassOut) {
        let cfg = FleetConfig {
            tenants: FLEET_TENANTS,
            shards: FLEET_SHARDS,
            seed: self.seed,
            ..FleetConfig::default()
        };
        let r = self.span("fleet.run_s", || fleet::run(&cfg));
        let lat = r.merged_latency();
        let (detected, attempts) = r.detection();
        let injected: u64 = r.tenants.iter().map(|t| u64::from(t.injected)).sum();
        let n = FleetNums {
            completed: r.completed(),
            dropped: r.dropped(),
            p99_cycles: lat.percentile(99),
            slo_misses: r.tenants.iter().map(|t| u64::from(t.slo_violations)).sum(),
            cells: u64::from(cfg.cells()),
            duration_cycles: r.duration_cycles,
            req_per_mcycle: r.req_per_mcycle(),
        };
        if self.traced {
            let l = &mut self.layers;
            l.add("fleet.cells", n.cells as f64);
            l.add("fleet.completed", n.completed as f64);
            l.add("fleet.dropped", n.dropped as f64);
            l.add("fleet.duration_mcycles", n.duration_cycles as f64 / 1e6);
            l.add("fleet.req_per_mcycle", n.req_per_mcycle as f64);
        }
        out.lines.push(format!(
            "fleet: completed={} dropped={} p50={} p99={} slo_misses={} det={detected}/{attempts} \
             injected={injected} duration={} timeline={:016x} report={:016x}",
            n.completed,
            n.dropped,
            lat.percentile(50),
            n.p99_cycles,
            n.slo_misses,
            n.duration_cycles,
            r.timeline_digest,
            fnv1a(r.render().as_bytes()),
        ));
        out.ops += n.completed + n.dropped;
        out.failed += n.dropped;
        if injected > 0 || !r.violations.is_empty() || detected != attempts {
            out.failed += n.completed;
        }
        out.fleet = Some(n);
    }
}

/// Every counter a guest run moves, for per-layer deltas.
#[derive(Debug, Clone, Copy)]
struct Counters {
    m: sm_machine::stats::MachineStats,
    itlb_misses: u64,
    dtlb_misses: u64,
    dc: sm_machine::DecodeCacheStats,
    sb: sm_machine::SuperblockStats,
    k: sm_kernel::stats::KernelStats,
}

impl Counters {
    fn of(k: &Kernel) -> Counters {
        let m = &k.sys.machine;
        Counters {
            m: m.stats,
            itlb_misses: m.itlb.stats.misses,
            dtlb_misses: m.dtlb.stats.misses,
            dc: m.decode_cache.stats,
            sb: m.superblocks.stats,
            k: k.sys.stats,
        }
    }

    fn since(&self, e: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            m: self.m.since(&e.m),
            itlb_misses: d(self.itlb_misses, e.itlb_misses),
            dtlb_misses: d(self.dtlb_misses, e.dtlb_misses),
            dc: sm_machine::DecodeCacheStats {
                hits: d(self.dc.hits, e.dc.hits),
                misses: d(self.dc.misses, e.dc.misses),
                invalidations: d(self.dc.invalidations, e.dc.invalidations),
            },
            sb: sm_machine::SuperblockStats {
                hits: d(self.sb.hits, e.sb.hits),
                builds: d(self.sb.builds, e.sb.builds),
                invalidations: d(self.sb.invalidations, e.sb.invalidations),
                bailouts: d(self.sb.bailouts, e.sb.bailouts),
                slow_steps: d(self.sb.slow_steps, e.sb.slow_steps),
            },
            k: self.k.since(&e.k),
        }
    }

    fn add_to(&self, l: &mut Layers) {
        let c = |v: u64| v as f64;
        l.add("machine.insns", c(self.m.instructions));
        l.add("machine.walks", c(self.m.walks));
        l.add("machine.cr3_loads", c(self.m.cr3_loads));
        l.add("machine.page_faults", c(self.m.page_faults));
        l.add("machine.debug_traps", c(self.m.debug_traps));
        l.add("machine.itlb_misses", c(self.itlb_misses));
        l.add("machine.dtlb_misses", c(self.dtlb_misses));
        l.add("machine.dcache_hits", c(self.dc.hits));
        l.add("machine.dcache_misses", c(self.dc.misses));
        l.add("machine.sb_hits", c(self.sb.hits));
        l.add("machine.sb_builds", c(self.sb.builds));
        l.add("machine.sb_invalidations", c(self.sb.invalidations));
        l.add("machine.sb_bailouts", c(self.sb.bailouts));
        l.add("machine.sb_slow_steps", c(self.sb.slow_steps));
        l.add("kernel.syscalls", c(self.k.syscalls));
        l.add("kernel.context_switches", c(self.k.context_switches));
        l.add("kernel.cow_breaks", c(self.k.cow_breaks));
        l.add("kernel.demand_pages", c(self.k.demand_pages));
        l.add("kernel.processes_spawned", c(self.k.processes_spawned));
    }
}

/// Hook calls and seconds recorded so far, in [`HOOKS`] order.
pub fn hook_totals(cx: &Ctx) -> Vec<(&'static str, u64, f64)> {
    HOOKS
        .iter()
        .zip(cx.hooks.read())
        .map(|(h, (calls, s))| (*h, calls, s))
        .collect()
}

/// Simulated outputs of a finished kernel, as one line.
pub fn fingerprint(k: &Kernel, exit: RunExit) -> String {
    let m = &k.sys.machine;
    let s = &m.stats;
    let tlb = |t: &sm_machine::tlb::TlbStats| {
        format!(
            "{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
            t.hits,
            t.misses,
            t.cold_misses,
            t.capacity_misses,
            t.conflict_misses,
            t.fills,
            t.flushes,
            t.page_invalidations,
            t.evictions,
            t.chaos_evictions
        )
    };
    let ks = &k.sys.stats;
    let events: String = k
        .sys
        .events
        .entries()
        .iter()
        .map(|e| format!("{e:?};"))
        .collect();
    let exits: Vec<String> = k
        .sys
        .procs
        .values()
        .map(|p| format!("{}={:?}", p.name, p.exit_code))
        .collect();
    format!(
        "exit={exit:?} cycles={} insns={} walks={} pf={} ud={} db={} de={} int={} cr3={} invlpg={} \
         itlb={} dtlb={} ks={}/{}/{}/{}/{}/{}/{}/{}/{} frames={} events={}#{:016x} procs=[{}]",
        m.cycles,
        s.instructions,
        s.walks,
        s.page_faults,
        s.invalid_opcodes,
        s.debug_traps,
        s.divide_errors,
        s.syscalls,
        s.cr3_loads,
        s.invlpgs,
        tlb(&m.itlb.stats),
        tlb(&m.dtlb.stats),
        ks.context_switches,
        ks.demand_pages,
        ks.cow_breaks,
        ks.syscalls,
        ks.handler_signals,
        ks.fatal_signals,
        ks.processes_spawned,
        ks.libraries_loaded,
        ks.soft_tlb_fills,
        m.phys.allocator.peak_allocated(),
        k.sys.events.len(),
        fnv1a(events.as_bytes()),
        exits.join(",")
    )
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
