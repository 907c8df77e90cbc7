//! Convenience constructors: protection configurations → engines/kernels.
//!
//! Both the attack corpus and the performance workloads need to run the
//! same guest under every protection configuration the paper evaluates;
//! this module is the single place that maps a [`Protection`] to an engine
//! and a [`RunSpec`] — protection, TLB geometry, kernel configuration — to
//! a machine config (execute-disable bit on or off) and a kernel.

use crate::engine::{SplitMemConfig, SplitMemEngine};
use crate::nx::NxEngine;
use crate::shadow::ShadowStackEngine;
use crate::split::SplitPolicy;
use crate::stack::EngineStack;
use sm_kernel::engine::{NullEngine, ProtectionEngine};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_machine::snapshot::SnapshotError;
use sm_machine::{MachineConfig, TlbPreset};

/// Protection configuration under test.
#[derive(Debug, Clone)]
pub enum Protection {
    /// No protection (the paper's "unpatched kernel").
    Unprotected,
    /// Stand-alone split memory with the given response mode (the paper's
    /// worst-case, legacy-hardware configuration).
    SplitMem(ResponseMode),
    /// Stand-alone split memory with a full custom config.
    SplitMemCustom(SplitMemConfig),
    /// Hardware execute-disable bit only (DEP/PAGEEXEC baseline).
    Nx,
    /// Execute-disable with an explicit response mode: observe/forensics
    /// select the DCR-style honeypot relocation instead of the SIGSEGV
    /// crash (the response a code-page-read fingerprint can unmask).
    NxResponse(ResponseMode),
    /// Split memory for mixed pages + NX for the rest (combined mode).
    Combined(ResponseMode),
    /// Combined with a random split fraction (the Fig. 9 sweep).
    CombinedFraction(f64),
    /// Shadow-stack/coarse-CFI engine alone: catches code-*reuse*
    /// (ret2libc/ROP) but not injection.
    ShadowStack(ResponseMode),
    /// The full defense-in-depth stack: shadow-stack/CFI over combined
    /// split-memory + execute-disable.
    ShadowCombined(ResponseMode),
}

impl Protection {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Protection::Unprotected => "unprotected".into(),
            Protection::SplitMem(m) => format!("split({m})"),
            Protection::SplitMemCustom(_) => "split(custom)".into(),
            Protection::Nx => "nx".into(),
            Protection::NxResponse(m) => format!("nx({m})"),
            Protection::Combined(m) => format!("nx+split({m})"),
            Protection::CombinedFraction(f) => format!("nx+split({:.0}%)", f * 100.0),
            Protection::ShadowStack(m) => format!("shadow({m})"),
            Protection::ShadowCombined(m) => format!("shadow+nx+split({m})"),
        }
    }

    /// Whether this configuration needs execute-disable hardware.
    pub fn needs_nx(&self) -> bool {
        matches!(
            self,
            Protection::Nx
                | Protection::NxResponse(_)
                | Protection::Combined(_)
                | Protection::CombinedFraction(_)
                | Protection::ShadowCombined(_)
        )
    }

    /// Build the engine for this configuration. Combined modes are
    /// [`EngineStack`]s: split memory first, so NX sees which pages it
    /// split; the shadow stack, when present, on top.
    pub fn engine(&self) -> Box<dyn ProtectionEngine> {
        let split = |policy, response| -> Box<dyn ProtectionEngine> {
            Box::new(SplitMemEngine::new(SplitMemConfig {
                policy,
                response,
                ..SplitMemConfig::default()
            }))
        };
        const COMBINED: &str = "split-memory+execute-disable";
        match self {
            Protection::Unprotected => Box::new(NullEngine),
            Protection::SplitMem(mode) => Box::new(SplitMemEngine::stand_alone(*mode)),
            Protection::SplitMemCustom(cfg) => Box::new(SplitMemEngine::new(cfg.clone())),
            Protection::Nx => Box::new(NxEngine::new()),
            Protection::NxResponse(mode) => Box::new(NxEngine::with_response(*mode)),
            Protection::Combined(mode) => Box::new(EngineStack::new(
                COMBINED,
                vec![
                    split(SplitPolicy::MixedOnly, *mode),
                    Box::new(NxEngine::new()),
                ],
            )),
            Protection::CombinedFraction(f) => Box::new(EngineStack::new(
                COMBINED,
                vec![
                    split(SplitPolicy::Fraction(*f), ResponseMode::Break),
                    Box::new(NxEngine::new()),
                ],
            )),
            Protection::ShadowStack(mode) => Box::new(ShadowStackEngine::new(*mode)),
            Protection::ShadowCombined(mode) => Box::new(EngineStack::new(
                "shadow-stack+split-memory+execute-disable",
                vec![
                    Box::new(ShadowStackEngine::new(*mode)),
                    split(SplitPolicy::MixedOnly, *mode),
                    Box::new(NxEngine::new()),
                ],
            )),
        }
    }

    /// [`RunSpec::machine_config`] for this protection on `tlb`. Kept for
    /// callers outside this workspace that build their own kernels (the
    /// `perfbench` harness times cold boots with it).
    pub fn machine_config_on(&self, tlb: TlbPreset) -> MachineConfig {
        self.spec(tlb, KernelConfig::default()).machine_config()
    }

    /// [`RunSpec::kernel`] for this protection. Kept for callers outside
    /// this workspace (the `perfbench` harness's engine-wrapper tests).
    pub fn kernel_on(&self, tlb: TlbPreset, kconfig: KernelConfig) -> Kernel {
        self.spec(tlb, kconfig).kernel()
    }

    /// [`RunSpec::kernel_warm`] for this protection. Kept for callers
    /// outside this workspace (the `perfbench` harness's warm-start
    /// timings).
    pub fn kernel_warm_on(&self, tlb: TlbPreset, kconfig: KernelConfig) -> Kernel {
        self.spec(tlb, kconfig).kernel_warm()
    }

    fn spec(&self, tlb: TlbPreset, kconfig: KernelConfig) -> RunSpec {
        RunSpec {
            protection: self.clone(),
            tlb,
            kconfig,
        }
    }
}

/// One point of the evaluation grid: a protection, the TLB geometry it
/// runs on, and the kernel configuration. Every entry point that builds a
/// kernel takes one, so a sweep's settings — the geometry, the seed, the
/// trace mask, the execution pipeline — reach every kernel it builds.
/// Drivers that compare protections build each leg with [`RunSpec::with`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Protection configuration (selects the engine and the NX bit).
    pub protection: Protection,
    /// I-TLB/D-TLB geometry.
    pub tlb: TlbPreset,
    /// Kernel configuration.
    pub kconfig: KernelConfig,
}

impl RunSpec {
    /// `protection` on the default TLB geometry and kernel configuration.
    pub fn new(protection: Protection) -> RunSpec {
        RunSpec {
            protection,
            tlb: TlbPreset::default(),
            kconfig: KernelConfig::default(),
        }
    }

    /// This spec with another protection: the same geometry and kernel
    /// configuration, so two legs of a comparison differ only in the
    /// protection.
    pub fn with(&self, protection: Protection) -> RunSpec {
        RunSpec {
            protection,
            ..self.clone()
        }
    }

    /// Machine configuration: the NX bit is enabled only where the
    /// protection needs it, mirroring legacy vs. recent hardware.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            nx_enabled: self.protection.needs_nx(),
            tlb: self.tlb,
            ..MachineConfig::default()
        }
    }

    /// Boot a ready kernel.
    pub fn kernel(&self) -> Kernel {
        Kernel::new(
            self.machine_config(),
            self.kconfig,
            self.protection.engine(),
        )
    }

    /// Like [`RunSpec::kernel`], but warm-started: the first call for a
    /// given spec boots a kernel cold and caches its post-boot snapshot;
    /// later calls restore a fresh kernel from that snapshot instead of
    /// re-booting. Sweep drivers running dozens of combos over the same
    /// configuration share one boot this way — and because the snapshot
    /// round-trip is exact, warm and cold kernels are byte-identical (a
    /// property the snapshot test-suite pins).
    ///
    /// Falls back to a cold boot if the cached snapshot fails to restore
    /// (it cannot in-process, but degradation beats a panic).
    pub fn kernel_warm(&self) -> Kernel {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<String, Vec<u8>>>> = OnceLock::new();
        let key = warm_cache_key(self);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let hit = cache.lock().unwrap().get(&key).cloned();
        if let Some(bytes) = hit {
            if let Ok(k) = self.restore(&bytes) {
                return k;
            }
        }
        let k = self.kernel();
        cache
            .lock()
            .unwrap()
            .insert(key, sm_kernel::snapshot::save(&k));
        k
    }

    /// Restore a snapshot taken under this spec's protection and continue
    /// it under this spec's execution strategy. A snapshot holds machine
    /// and kernel state, not how to execute it: `kconfig.pipeline` is not
    /// serialized, so it is re-applied here. Every restore that continues
    /// a run goes through this method.
    ///
    /// # Errors
    ///
    /// As [`sm_kernel::snapshot::restore`]: any structural, checksum or
    /// engine-identity violation in `bytes`.
    pub fn restore(&self, bytes: &[u8]) -> Result<Kernel, SnapshotError> {
        let mut k = sm_kernel::snapshot::restore(bytes, self.protection.engine())?;
        k.sys.config.pipeline = self.kconfig.pipeline;
        Ok(k)
    }
}

/// Warm-start cache key for [`RunSpec::kernel_warm`]. Every field is
/// enumerated through exhaustive destructuring, so adding a
/// `KernelConfig` knob fails to compile here until the key includes it:
/// a key that missed a field would hand sweeps a kernel booted under a
/// different configuration. `pipeline` is the one field left out: it is
/// not snapshot state, and [`RunSpec::restore`] re-applies it.
fn warm_cache_key(spec: &RunSpec) -> String {
    let RunSpec {
        protection,
        tlb,
        kconfig,
    } = spec;
    let KernelConfig {
        quantum_cycles,
        stack_size,
        stack_top,
        aslr_stack,
        seed,
        heap_limit,
        pipe_capacity,
        chaos,
        asid_tlbs,
        livelock_threshold,
        trace,
        trace_capacity,
        trace_pid,
        pipeline: _,
    } = kconfig;
    format!(
        "{protection:?}|{tlb:?}|{quantum_cycles}|{stack_size}|{stack_top}|{aslr_stack}|{seed}\
         |{heap_limit}|{pipe_capacity}|{chaos:?}|{asid_tlbs}|{livelock_threshold}\
         |{trace}|{trace_capacity}|{trace_pid:?}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let ps = [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Break),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::Combined(ResponseMode::Break),
            Protection::CombinedFraction(0.25),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ];
        let labels: std::collections::HashSet<String> = ps.iter().map(Protection::label).collect();
        assert_eq!(labels.len(), ps.len());
    }

    #[test]
    fn nx_configs_enable_the_bit() {
        assert!(RunSpec::new(Protection::Nx).machine_config().nx_enabled);
        assert!(
            RunSpec::new(Protection::Combined(ResponseMode::Break))
                .machine_config()
                .nx_enabled
        );
        assert!(
            !RunSpec::new(Protection::SplitMem(ResponseMode::Break))
                .machine_config()
                .nx_enabled
        );
    }

    #[test]
    fn tlb_preset_reaches_the_machine() {
        let k = RunSpec {
            tlb: TlbPreset::pentium3(),
            ..RunSpec::new(Protection::SplitMem(ResponseMode::Break))
        }
        .kernel();
        assert_eq!(k.sys.machine.itlb.geometry().sets, 8);
        assert_eq!(k.sys.machine.itlb.capacity(), 32);
        assert_eq!(k.sys.machine.dtlb.geometry().sets, 16);
        assert_eq!(k.sys.machine.dtlb.capacity(), 64);
        // The default path keeps the backward-compatible shape.
        let k = RunSpec::new(Protection::Unprotected).kernel();
        assert_eq!(k.sys.machine.dtlb.geometry().sets, 1);
        assert_eq!(k.sys.machine.dtlb.capacity(), 64);
    }

    #[test]
    fn kernel_builds_for_every_config() {
        for p in [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Observe),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::CombinedFraction(0.1),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Observe),
        ] {
            let k = RunSpec::new(p.clone()).kernel();
            assert_eq!(k.sys.machine.config.nx_enabled, p.needs_nx());
        }
    }

    #[test]
    fn cfi_events_armed_only_for_shadow_engines() {
        for (p, want) in [
            (Protection::Unprotected, false),
            (Protection::SplitMem(ResponseMode::Break), false),
            (Protection::Nx, false),
            (Protection::Combined(ResponseMode::Break), false),
            (Protection::ShadowStack(ResponseMode::Break), true),
            (Protection::ShadowCombined(ResponseMode::Break), true),
        ] {
            let k = RunSpec::new(p.clone()).kernel();
            assert_eq!(k.sys.machine.config.cfi_events, want, "{}", p.label());
        }
    }
}
