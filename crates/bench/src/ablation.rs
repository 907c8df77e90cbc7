//! Design-choice ablations the paper discusses but does not plot.
//!
//! * §4.2.4: the single-step instruction-TLB loader vs. the rejected
//!   planted-`ret` loader ("surprisingly this actually decreased the
//!   system's efficiency" — the cache-coherency penalty of writing an
//!   executed page outweighs saving the second trap).
//! * §4.6 cost anatomy: how the worst-case overhead responds to the trap
//!   cost and the context-switch cost, isolating the mechanisms the paper
//!   names as "the greatest cause of overhead".

use sm_core::engine::{ItlbLoadMethod, SplitMemConfig, SplitMemEngine};
use sm_core::setup::{Protection, RunSpec};
use sm_kernel::kernel::Kernel;
use sm_machine::costs::CycleCosts;
use sm_machine::MachineConfig;
use sm_workloads::normalized;
use sm_workloads::unixbench::{run_unixbench_kernel, UnixbenchTest};
use sm_workloads::WorkloadResult;

/// Result of the I-TLB loader ablation.
#[derive(Debug, Clone)]
pub struct ItlbAblation {
    /// Normalized performance with the shipped single-step loader.
    pub single_step: f64,
    /// Normalized performance with the planted-`ret` loader.
    pub planted_ret: f64,
}

fn run_with_costs(
    spec: &RunSpec,
    costs: CycleCosts,
    itlb: ItlbLoadMethod,
    iterations: u32,
    split: bool,
) -> WorkloadResult {
    let mconfig = MachineConfig {
        costs,
        ..MachineConfig::default()
    };
    let engine: Box<dyn sm_kernel::engine::ProtectionEngine> = if split {
        Box::new(SplitMemEngine::new(SplitMemConfig {
            itlb_load: itlb,
            ..SplitMemConfig::default()
        }))
    } else {
        Box::new(sm_kernel::engine::NullEngine)
    };
    let kernel = Kernel::new(mconfig, spec.kconfig, engine);
    let label = if split {
        Protection::SplitMem(sm_kernel::events::ResponseMode::Break)
    } else {
        Protection::Unprotected
    };
    run_unixbench_kernel(kernel, &label, UnixbenchTest::PipeContextSwitch, iterations)
}

/// §4.2.4: compare the two instruction-TLB loaders on the context-switch
/// stress test (where I-TLB reloads are most frequent). Kernels take
/// `spec`'s kernel configuration; the machines are the ablation's own.
pub fn itlb_loader(spec: &RunSpec, iterations: u32) -> ItlbAblation {
    let costs = CycleCosts::default();
    let base = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, false);
    let ss = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, true);
    let ret = run_with_costs(spec, costs, ItlbLoadMethod::PlantedRet, iterations, true);
    ItlbAblation {
        single_step: normalized(&ss, &base),
        planted_ret: normalized(&ret, &base),
    }
}

/// Result of the §4.7 software-TLB port comparison.
#[derive(Debug, Clone)]
pub struct SoftTlbAblation {
    /// Normalized ctxsw performance on the x86-style machine
    /// (hardware-walked TLBs, single-step I-TLB reloads).
    pub x86: f64,
    /// Normalized ctxsw performance on the SPARC-style machine
    /// (software-loaded TLBs, direct kernel fills, lightweight miss trap).
    pub soft_tlb: f64,
}

/// §4.7: "on an architecture with software-loaded TLBs ... the performance
/// overhead imposed on such a system would be noticeably lower." Both
/// machines run the same guest; the soft-TLB machine uses a lightweight
/// dedicated miss-trap vector (a fraction of the x86 exception cost, as on
/// real soft-TLB RISC parts). Kernels take `spec`'s kernel configuration.
pub fn softtlb_port(spec: &RunSpec, iterations: u32) -> SoftTlbAblation {
    // x86-style pair.
    let costs = CycleCosts::default();
    let x86_base = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, false);
    let x86_split = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, true);
    // SPARC-style pair: software-loaded TLBs and a cheap miss trap.
    let soft_costs = CycleCosts {
        exception: 50,
        pf_handler: 60,
        ..CycleCosts::default()
    };
    let soft = |split: bool| {
        let mconfig = MachineConfig {
            software_tlb: true,
            costs: soft_costs,
            ..MachineConfig::default()
        };
        let engine: Box<dyn sm_kernel::engine::ProtectionEngine> = if split {
            Box::new(SplitMemEngine::new(SplitMemConfig::default()))
        } else {
            Box::new(sm_kernel::engine::NullEngine)
        };
        let kernel = Kernel::new(mconfig, spec.kconfig, engine);
        let label = if split {
            Protection::SplitMem(sm_kernel::events::ResponseMode::Break)
        } else {
            Protection::Unprotected
        };
        run_unixbench_kernel(kernel, &label, UnixbenchTest::PipeContextSwitch, iterations)
    };
    let soft_base = soft(false);
    let soft_split = soft(true);
    SoftTlbAblation {
        x86: normalized(&x86_split, &x86_base),
        soft_tlb: normalized(&soft_split, &soft_base),
    }
}

/// One cost-sensitivity point.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Scaling factor applied to the knob.
    pub factor: f64,
    /// Resulting normalized ctxsw performance.
    pub normalized: f64,
}

/// §4.6: scale the trap-delivery cost and watch the worst case respond
/// ("two interrupts are required" per I-TLB reload). Kernels take
/// `spec`'s kernel configuration.
pub fn trap_cost_sensitivity(spec: &RunSpec, iterations: u32) -> Vec<SensitivityPoint> {
    [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&factor| {
            let mut costs = CycleCosts::default();
            costs.exception = (costs.exception as f64 * factor) as u64;
            costs.pf_handler = (costs.pf_handler as f64 * factor) as u64;
            let base = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, false);
            let prot = run_with_costs(spec, costs, ItlbLoadMethod::SingleStep, iterations, true);
            SensitivityPoint {
                factor,
                normalized: normalized(&prot, &base),
            }
        })
        .collect()
}

/// Render all ablations.
pub fn render_all(
    itlb: &ItlbAblation,
    sens: &[SensitivityPoint],
    soft: &SoftTlbAblation,
) -> String {
    let mut out = render(itlb, sens);
    out.push_str("\nsoftware-loaded-TLB port (paper §4.7, pipe-ctxsw normalized):\n");
    out.push_str(&format!(
        "  x86 (hardware walk + single-step):  {:.3}\n",
        soft.x86
    ));
    out.push_str(&format!(
        "  SPARC-style (direct kernel fills):  {:.3}\n",
        soft.soft_tlb
    ));
    out.push_str("  paper: \"the performance overhead imposed on such a system would be\n  noticeably lower\"\n");
    out
}

/// Render both ablations.
pub fn render(itlb: &ItlbAblation, sens: &[SensitivityPoint]) -> String {
    let mut out = String::new();
    out.push_str("I-TLB loader ablation (pipe-ctxsw, normalized):\n");
    out.push_str(&format!(
        "  single-step loader (shipped):   {:.3}\n",
        itlb.single_step
    ));
    out.push_str(&format!(
        "  planted-ret loader (rejected):  {:.3}\n",
        itlb.planted_ret
    ));
    out.push_str(
        "  paper §4.2.4: the ret-based loader \"actually decreased the system's efficiency\"\n\n",
    );
    out.push_str("trap-cost sensitivity (pipe-ctxsw, normalized):\n");
    for p in sens {
        out.push_str(&format!(
            "  exception/handler cost x{:<4} -> {:.3}\n",
            p.factor, p.normalized
        ));
    }
    out.push_str("  paper §4.6: the dual-interrupt reload and context-switch flushes dominate\n");
    out
}
