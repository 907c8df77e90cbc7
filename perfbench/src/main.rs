//! Benchmark of the split-memory simulator: four workloads, end-to-end
//! host metrics from untraced passes, and a per-layer split (machine,
//! kernel, engine, harness, fleet) from a separate traced phase.
//!
//! ```text
//! perfbench --workload <compute|syscall|fleet|checked> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it are the
//! human-readable report. `perfbench/run.py` builds and runs this binary.

mod timed;
mod work;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use work::{Ctx, PassOut, Workload};

/// Set-up samples taken in child processes (the warm-start cache is
/// process-global, so only a fresh process sets up from scratch). The
/// measuring process's own set-up is one more `setup_s` sample. The
/// children's peak resident memory gives `peak_rss_mb`: one set-up and
/// one pass, free of the allocator drift that repeated passes add.
const SETUP_CHILDREN: usize = 4;
/// Fewest passes a phase runs, however long a pass takes.
const MIN_PASSES: usize = 3;

/// `(name, unit, better)` of every end-to-end metric.
const END_TO_END: [(&str, &str, &str); 3] = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("machine.insns", "count", "lower"),
    ("machine.host_ns_per_insn", "ns", "lower"),
    ("machine.sb_hits", "count", "higher"),
    ("machine.sb_builds", "count", "lower"),
    ("machine.sb_hit_ratio", "ratio", "higher"),
    ("machine.sb_invalidations", "count", "lower"),
    ("machine.sb_bailouts", "count", "lower"),
    ("machine.sb_slow_steps", "count", "lower"),
    ("machine.dcache_hits", "count", "higher"),
    ("machine.dcache_misses", "count", "lower"),
    ("machine.itlb_misses", "count", "lower"),
    ("machine.dtlb_misses", "count", "lower"),
    ("machine.walks", "count", "lower"),
    ("machine.cr3_loads", "count", "lower"),
    ("machine.page_faults", "count", "lower"),
    ("machine.debug_traps", "count", "lower"),
    ("kernel.boot_s", "s", "lower"),
    ("kernel.warm_start_s", "s", "lower"),
    ("kernel.spawn_s", "s", "lower"),
    ("kernel.spawn_calls", "count", "lower"),
    ("kernel.run_s", "s", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.syscalls", "count", "lower"),
    ("kernel.context_switches", "count", "lower"),
    ("kernel.cow_breaks", "count", "lower"),
    ("kernel.demand_pages", "count", "lower"),
    ("kernel.processes_spawned", "count", "lower"),
    ("kernel.host_us_per_event", "us", "lower"),
    ("engine.region_mapped_calls", "count", "lower"),
    ("engine.region_mapped_s", "s", "lower"),
    ("engine.page_mapped_calls", "count", "lower"),
    ("engine.page_mapped_s", "s", "lower"),
    ("engine.protection_fault_calls", "count", "lower"),
    ("engine.protection_fault_s", "s", "lower"),
    ("engine.debug_trap_calls", "count", "lower"),
    ("engine.debug_trap_s", "s", "lower"),
    ("engine.invalid_opcode_calls", "count", "lower"),
    ("engine.invalid_opcode_s", "s", "lower"),
    ("engine.control_flow_calls", "count", "lower"),
    ("engine.control_flow_s", "s", "lower"),
    ("engine.cow_copied_calls", "count", "lower"),
    ("engine.cow_copied_s", "s", "lower"),
    ("engine.fork_calls", "count", "lower"),
    ("engine.fork_s", "s", "lower"),
    ("engine.unmap_calls", "count", "lower"),
    ("engine.unmap_s", "s", "lower"),
    ("engine.teardown_calls", "count", "lower"),
    ("engine.teardown_s", "s", "lower"),
    ("engine.total_s", "s", "lower"),
    ("engine.share_pct", "%", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.export_s", "s", "lower"),
    ("trace.bytes", "B", "lower"),
    ("invariants.check_s", "s", "lower"),
    ("invariants.check_trace_s", "s", "lower"),
    ("invariants.calls", "count", "lower"),
    ("invariants.violations", "count", "lower"),
    ("snapshot.save_s", "s", "lower"),
    ("snapshot.restore_s", "s", "lower"),
    ("snapshot.calls", "count", "lower"),
    ("snapshot.bytes", "B", "lower"),
    ("asm.build_s", "s", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.cells", "count", "lower"),
    ("fleet.completed", "count", "higher"),
    ("fleet.dropped", "count", "lower"),
    ("fleet.duration_mcycles", "Mcycles", "lower"),
    ("fleet.req_per_mcycle", "1/Mcycle", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Recorded pass digests, one `"<workload>/<seed>": "<hex>"` per line.
/// `<seed>` is `*` for workloads whose simulated outputs do not depend on
/// the seed.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    record: Vec<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut record = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--setup-only" => setup_only = true,
            "--record" => {
                for s in value()?.split(',') {
                    record.push(s.parse().map_err(|e| format!("--record: {e}"))?);
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
        record,
    })
}

/// Build the programs and run the warm-up pass (which also fills the
/// warm-start cache). Returns the context, the reference pass and the
/// set-up time.
fn setup(w: Workload, seed: u64) -> (Ctx, PassOut, f64) {
    let t = Instant::now();
    let mut cx = Ctx::new(w, seed, false);
    let reference = cx.pass();
    (cx, reference, t.elapsed().as_secs_f64())
}

fn digest(p: &PassOut) -> u64 {
    work::fnv1a(p.lines.join("\n").as_bytes())
}

fn expected_digest(w: Workload, seed: u64) -> Option<u64> {
    let lookup = |key: String| {
        let key = format!("\"{}/{key}\":", w.name());
        EXPECTED.lines().find_map(|l| {
            let rest = l.trim().strip_prefix(&key)?;
            let hex = rest.trim().trim_end_matches(',').trim_matches('"');
            u64::from_str_radix(hex, 16).ok()
        })
    };
    lookup(seed.to_string()).or_else(|| lookup("*".into()))
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return (median(v), median(v));
    }
    (median(&s[..n / 2]), median(&s[n.div_ceil(2)..]))
}

/// Host peak resident set, from `/proc/self/status` (0 where unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run passes until `seconds` have passed (at least [`MIN_PASSES`]),
/// comparing each with the reference. Returns per-pass seconds.
fn measure(cx: &mut Ctx, reference: &PassOut, seconds: f64, tally: &mut Tally) -> Vec<f64> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_PASSES || start.elapsed() < budget {
        let t = Instant::now();
        let out = cx.pass();
        times.push(t.elapsed().as_secs_f64());
        tally.add(&out, reference);
    }
    times
}

/// Operations attempted and failed over all measured passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Tally {
    fn add(&mut self, out: &PassOut, reference: &PassOut) {
        self.attempted += out.ops;
        let mut failed = out.failed;
        if out.lines != reference.lines {
            // A changed line is a failed operation; a changed fleet run
            // fails all its requests.
            let changed: Vec<&String> = out
                .lines
                .iter()
                .zip(&reference.lines)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a)
                .collect();
            failed += if out.fleet.is_some() {
                out.ops
            } else {
                (changed.len() + out.lines.len().abs_diff(reference.lines.len())) as u64
            };
            for c in changed {
                if self.mismatches.len() < 4 {
                    self.mismatches.push(c.clone());
                }
            }
        }
        if out.violations != reference.violations {
            failed += out.ops;
        }
        self.failed += failed.min(out.ops);
    }
}

/// One set-up in a fresh process: `(setup_s, peak_rss_mb)`.
fn setup_child(a: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.parse::<f64>().ok())
    };
    match (field("setup_s="), field("peak_rss_mb=")) {
        (Some(s), Some(rss)) => Ok((s, rss)),
        _ => Err(format!("set-up child printed no result: {text}")),
    }
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Per-layer metrics from the traced phase, per pass unless noted.
fn per_layer(cx: &Ctx, passes: usize, overhead_pct: f64) -> Vec<(&'static str, &'static str, f64)> {
    let l = &cx.layers;
    let n = passes.max(1) as f64;
    let per_call = |s: &str, c: &str| {
        let calls = l.get(c);
        if calls > 0.0 {
            l.get(s) / calls
        } else {
            0.0
        }
    };
    let hooks = work::hook_totals(cx);
    let engine_s: f64 = hooks.iter().map(|h| h.2).sum::<f64>() / n;
    let run_s = l.get("kernel.run_s") / n;
    let insns = l.get("machine.insns") / n;
    let self_s = (run_s - engine_s).max(0.0);
    let events = (l.get("kernel.syscalls")
        + l.get("kernel.context_switches")
        + l.get("machine.page_faults")
        + l.get("machine.debug_traps"))
        / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sb_hits = l.get("machine.sb_hits");
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = match name {
                "machine.host_ns_per_insn" => ratio(self_s * 1e9, insns),
                "machine.sb_hit_ratio" => ratio(sb_hits, sb_hits + l.get("machine.sb_builds")),
                "kernel.boot_s" => per_call("kernel.boot_s", "kernel.boot_calls"),
                "kernel.warm_start_s" => per_call("kernel.warm_start_s", "kernel.warm_start_calls"),
                "kernel.self_s" => self_s,
                "kernel.host_us_per_event" => ratio(self_s * 1e6, events),
                "engine.total_s" => engine_s,
                "engine.share_pct" => ratio(engine_s * 100.0, run_s),
                "asm.build_s" => l.get(name),
                "bench.trace_overhead_pct" => overhead_pct,
                _ => match name.strip_prefix("engine.") {
                    Some(h) => hooks
                        .iter()
                        .find_map(|(hook, calls, s)| {
                            let rest = h.strip_prefix(hook)?;
                            match rest {
                                "_calls" => Some(*calls as f64 / n),
                                "_s" => Some(s / n),
                                _ => None,
                            }
                        })
                        .unwrap_or(0.0),
                    None => l.get(name) / n,
                },
            };
            (name, unit, v)
        })
        .collect()
}

/// End-to-end figures beyond the gated ones: printed in the report only,
/// because each exists on some workloads and not others.
fn report_extras(w: Workload, reference: &PassOut, run_s: f64) {
    let pct = |a: u64, b: u64| (a as f64 / b as f64 - 1.0) * 100.0;
    if w == Workload::Fleet {
        if let Some(f) = reference.fleet {
            println!(
                "  fleet_req_per_s     {:>14.1} 1/s",
                f.completed as f64 / run_s
            );
            println!(
                "  fleet_p99_kcycles   {:>14.3} kcycles",
                f.p99_cycles as f64 / 1e3
            );
            println!(
                "  fleet_slo_miss_pct  {:>14.3} %",
                f.slo_misses as f64 * 100.0 / f.completed.max(1) as f64
            );
        }
        return;
    }
    println!(
        "  guest_minsn_per_s   {:>14.3} Minsn/s",
        reference.insns as f64 / run_s / 1e6
    );
    println!(
        "  sim_mcycles_per_s   {:>14.3} Mcycles/s",
        reference.cycles as f64 / run_s / 1e6
    );
    let by = &reference.cycles_by_protection;
    if let (Some(&base), Some(&split)) = (by.get("unprotected"), by.get("split(break)")) {
        println!("  split_overhead_pct  {:>14.3} %", pct(split, base));
        if let Some(&stack) = by.get("shadow+nx+split(break)") {
            println!(
                "  stack_overhead_pct  {:>14.3} %  (shadow+nx+split(break))",
                pct(stack, base)
            );
        }
    }
}

fn run(a: &Args) -> Result<(), String> {
    if a.setup_only {
        let (_, _, s) = setup(a.workload, a.seed);
        println!("setup_s={s} peak_rss_mb={}", peak_rss_mb());
        return Ok(());
    }
    if !a.record.is_empty() {
        for &seed in &a.record {
            let (_, reference, _) = setup(a.workload, seed);
            for l in &reference.lines {
                eprintln!("{}/{seed} {l}", a.workload.name());
            }
            println!(
                "  \"{}/{seed}\": \"{:016x}\",",
                a.workload.name(),
                digest(&reference)
            );
        }
        return Ok(());
    }

    // One process drives the load: at most two rayon workers, never more
    // than the host has cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(t) if (1..=nproc).contains(&t) => t,
        _ => nproc.min(2),
    };
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={nproc} rayon_threads={threads} \
         profile={} rustc={} commit={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );

    let mut setups = Vec::new();
    let mut rss = Vec::new();
    if !a.trace {
        for _ in 0..SETUP_CHILDREN {
            let (s, r) = setup_child(a)?;
            setups.push(s);
            rss.push(r);
        }
    }
    let (mut cx, reference, own_setup) = setup(a.workload, a.seed);
    setups.push(own_setup);

    let mut correct = reference.failed == 0;
    match expected_digest(a.workload, a.seed) {
        Some(want) if want != digest(&reference) => {
            correct = false;
            println!(
                "MISMATCH: pass digest {:016x} differs from the recorded {want:016x}",
                digest(&reference)
            );
        }
        Some(_) => println!("outputs: match the values recorded for seed {}", a.seed),
        None => println!(
            "outputs: no recorded values for seed {}; checked for repeatability only",
            a.seed
        ),
    }

    let mut tally = Tally::default();
    let untraced_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let times = measure(&mut cx, &reference, untraced_s, &mut tally);
    let run_s = median(&times);
    let (q1, q3) = quartiles(&times);

    let result_metrics = if a.trace {
        cx.boot_split();
        cx.traced = true;
        let traced = measure(&mut cx, &reference, a.seconds / 2.0, &mut tally);
        let overhead = (median(&traced) / run_s - 1.0) * 100.0;
        let m = per_layer(&cx, traced.len(), overhead);
        println!(
            "per-layer ({} traced passes, {} untraced):",
            traced.len(),
            times.len()
        );
        for (name, unit, v) in &m {
            println!("  {name:<32} {v:>16.6} {unit}");
        }
        json_metrics(&m)
    } else {
        let setup_s = median(&setups);
        let rss = median(&rss);
        println!(
            "end-to-end ({} passes, {} set-ups):",
            times.len(),
            setups.len()
        );
        println!("  run_s               {run_s:>14.6} s  (q1 {q1:.6}, q3 {q3:.6})");
        println!("  setup_s             {setup_s:>14.6} s");
        println!("  peak_rss_mb         {rss:>14.3} MB");
        report_extras(a.workload, &reference, run_s);
        let values = [
            ("run_s", "s", run_s),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MB", rss),
        ];
        assert_eq!(values.len(), END_TO_END.len());
        json_metrics(&values)
    };
    let failed_pct = tally.failed as f64 * 100.0 / tally.attempted.max(1) as f64;
    println!(
        "  failed_ops_pct      {failed_pct:>14.3} %  ({} of {} ops; invariant violations per pass {})",
        tally.failed, tally.attempted, reference.violations
    );
    for v in &reference.violation_kinds {
        println!("  invariant violations under {v}");
    }
    for m in &tally.mismatches {
        println!("MISMATCH: {m}");
    }
    correct &= tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {result_metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\"");
            assert!(
                json.contains(&entry),
                "{name} missing or different in BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn every_workload_has_recorded_outputs() {
        for w in Workload::ALL {
            assert!(expected_digest(w, 0).is_some(), "{}", w.name());
        }
        assert!(expected_digest(Workload::Fleet, 1 << 40).is_none());
        assert!(expected_digest(Workload::Compute, 1 << 40).is_some());
    }
}
