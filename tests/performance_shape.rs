//! Performance-shape tests: the paper's qualitative claims must hold on
//! every run (absolute numbers are testbed-specific; shapes are not).

use sm_bench::fig6::{self, Fig6Params};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;
use sm_workloads::nbench::{run_nbench, NbenchKernel};
use sm_workloads::unixbench::{run_unixbench, UnixbenchTest};
use sm_workloads::{httpd, normalized};

#[test]
fn fig6_ordering_holds() {
    // nbench (compute) ≥ apache-32k ≈ gzip ≥ unixbench index, and
    // everything lands in the paper's "reasonable" band.
    let bars = fig6::run(Fig6Params::quick());
    let get = |name: &str| {
        bars.iter()
            .find(|b| b.name.contains(name))
            .unwrap_or_else(|| panic!("missing bar {name}"))
            .normalized
    };
    let nbench = get("nbench");
    let apache = get("apache");
    let unixbench = get("unixbench");
    assert!(nbench > 0.9, "compute suite too slow: {nbench}");
    assert!(
        nbench >= apache && apache >= unixbench,
        "ordering violated: nbench {nbench:.3} apache {apache:.3} unixbench {unixbench:.3}"
    );
    for b in &bars {
        assert!(
            b.normalized > 0.4 && b.normalized <= 1.02,
            "{} out of band: {:.3}",
            b.name,
            b.normalized
        );
    }
}

#[test]
fn fig7_stress_tests_are_at_or_below_the_mid_fifties() {
    // Paper: "both are at or below 50 percent". Allow a little slack on
    // the quick configuration.
    for bar in sm_bench::fig7::run(30) {
        assert!(
            bar.normalized < 0.56,
            "{} not stressed enough: {:.3}",
            bar.name,
            bar.normalized
        );
    }
}

#[test]
fn fig8_curve_rises_monotonically_modulo_noise() {
    let points = sm_bench::fig8::run(15);
    assert_eq!(points.len(), sm_bench::fig8::PAGE_SIZES.len());
    // Endpoints: heavy hit at 1KB, mild at 64KB.
    assert!(points.first().unwrap().normalized < 0.6);
    assert!(points.last().unwrap().normalized > 0.85);
    // Monotone within a small tolerance.
    for w in points.windows(2) {
        assert!(
            w[1].normalized >= w[0].normalized - 0.05,
            "curve dipped: {}KB {:.3} -> {}KB {:.3}",
            w[0].page_size / 1024,
            w[0].normalized,
            w[1].page_size / 1024,
            w[1].normalized
        );
    }
}

#[test]
fn fig9_endpoints_match_the_papers_claim() {
    let points = sm_bench::fig9::run(30, 4);
    let at = |f: f64| {
        points
            .iter()
            .find(|p| (p.fraction - f).abs() < 1e-9)
            .unwrap()
            .normalized
    };
    // Splitting nothing costs nothing.
    assert!(at(0.0) > 0.97, "0%: {:.3}", at(0.0));
    // A small fraction recovers most of the performance...
    assert!(at(0.10) > 0.8, "10%: {:.3}", at(0.10));
    // ...while all-split matches the stand-alone worst case.
    assert!(at(1.0) < 0.6, "100%: {:.3}", at(1.0));
    // And the curve never goes the wrong way by much.
    for w in points.windows(2) {
        assert!(
            w[1].normalized <= w[0].normalized + 0.05,
            "fraction sweep rose: {:?}",
            points
        );
    }
}

/// The paper ran on set-associative Pentium III TLBs; the figures'
/// qualitative shapes must survive the move from the fully-associative
/// compat preset to that geometry.
#[test]
fn fig6_ordering_holds_on_the_pentium3_geometry() {
    let bars = fig6::run(Fig6Params::quick().on(TlbPreset::pentium3()));
    let get = |name: &str| {
        bars.iter()
            .find(|b| b.name.contains(name))
            .unwrap_or_else(|| panic!("missing bar {name}"))
            .normalized
    };
    let nbench = get("nbench");
    let apache = get("apache");
    let unixbench = get("unixbench");
    assert!(nbench > 0.9, "compute suite too slow: {nbench}");
    assert!(
        nbench >= apache && apache >= unixbench,
        "ordering violated: nbench {nbench:.3} apache {apache:.3} unixbench {unixbench:.3}"
    );
    for b in &bars {
        assert!(
            b.normalized > 0.4 && b.normalized <= 1.02,
            "{} out of band: {:.3}",
            b.name,
            b.normalized
        );
    }
}

#[test]
fn fig7_stress_bound_holds_on_the_pentium3_geometry() {
    for bar in sm_bench::fig7::run_on(TlbPreset::pentium3(), 30) {
        assert!(
            bar.normalized < 0.56,
            "{} not stressed enough: {:.3}",
            bar.name,
            bar.normalized
        );
    }
}

/// 3C accounting under the Fig-7 stress diagnostics: the set-associative
/// Pentium III D-TLB shows genuine conflict misses (the strided probe
/// thrashes one set), while the single-set compat preset — where set
/// pressure is structurally impossible — reports exactly zero.
#[test]
fn fig7_diagnostics_show_conflict_misses_only_when_sets_exist() {
    let p3 = sm_bench::fig7::tlb_diagnostics(TlbPreset::pentium3(), 30);
    assert!(
        p3.iter().any(|d| d.dtlb.conflict_misses > 0),
        "no D-TLB conflict misses anywhere on pentium3: {p3:?}"
    );
    let flat = sm_bench::fig7::tlb_diagnostics(TlbPreset::default(), 30);
    for d in &flat {
        assert_eq!(
            d.itlb.conflict_misses + d.dtlb.conflict_misses,
            0,
            "{}: conflict misses on a fully-associative TLB",
            d.name
        );
    }
}

#[test]
fn fig8_curve_shape_holds_on_the_pentium3_geometry() {
    let points = sm_bench::fig8::run_on(TlbPreset::pentium3(), 15);
    assert!(points.first().unwrap().normalized < 0.6);
    assert!(points.last().unwrap().normalized > 0.85);
    for w in points.windows(2) {
        assert!(
            w[1].normalized >= w[0].normalized - 0.05,
            "curve dipped: {}KB {:.3} -> {}KB {:.3}",
            w[0].page_size / 1024,
            w[0].normalized,
            w[1].page_size / 1024,
            w[1].normalized
        );
    }
}

#[test]
fn fig9_endpoints_hold_on_the_pentium3_geometry() {
    let points = sm_bench::fig9::run_on(TlbPreset::pentium3(), 30, 4);
    let at = |f: f64| {
        points
            .iter()
            .find(|p| (p.fraction - f).abs() < 1e-9)
            .unwrap()
            .normalized
    };
    assert!(at(0.0) > 0.97, "0%: {:.3}", at(0.0));
    assert!(at(0.10) > 0.8, "10%: {:.3}", at(0.10));
    assert!(at(1.0) < 0.6, "100%: {:.3}", at(1.0));
}

#[test]
fn context_switch_overhead_is_the_dominant_mechanism() {
    // §4.6: "The problem of context switches is, in fact, the greatest
    // cause of overhead." Compare a switch-free compute run against the
    // switch-heavy stress test at equal protection.
    let base_c = run_nbench(&Protection::Unprotected, NbenchKernel::NumericSort, 20);
    let prot_c = run_nbench(
        &Protection::SplitMem(ResponseMode::Break),
        NbenchKernel::NumericSort,
        20,
    );
    let compute = normalized(&prot_c, &base_c);
    let base_s = run_unixbench(
        &Protection::Unprotected,
        UnixbenchTest::PipeContextSwitch,
        25,
    );
    let prot_s = run_unixbench(
        &Protection::SplitMem(ResponseMode::Break),
        UnixbenchTest::PipeContextSwitch,
        25,
    );
    let stressed = normalized(&prot_s, &base_s);
    assert!(
        compute - stressed > 0.3,
        "switch-free {compute:.3} vs switch-heavy {stressed:.3}"
    );
}

#[test]
fn split_memory_roughly_doubles_resident_memory() {
    // §5.1: "the memory usage of an application is effectively doubled."
    let base = httpd::run_httpd(&Protection::Unprotected, 4096, 5);
    let split = httpd::run_httpd(&Protection::SplitMem(ResponseMode::Break), 4096, 5);
    let ratio = split.peak_frames as f64 / base.peak_frames as f64;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "peak frames {} vs {} (ratio {ratio:.2})",
        split.peak_frames,
        base.peak_frames
    );
}

#[test]
fn ablation_planted_ret_is_slower_than_single_step() {
    // §4.2.4: the rejected loader "actually decreased the system's
    // efficiency".
    let ab = sm_bench::ablation::itlb_loader(25);
    assert!(
        ab.planted_ret < ab.single_step,
        "planted-ret {:.3} should be slower than single-step {:.3}",
        ab.planted_ret,
        ab.single_step
    );
}

#[test]
fn trap_cost_sensitivity_is_monotone() {
    let sens = sm_bench::ablation::trap_cost_sensitivity(25);
    for w in sens.windows(2) {
        assert!(
            w[1].normalized < w[0].normalized,
            "costlier traps must hurt more: {sens:?}"
        );
    }
}

#[test]
fn lazy_code_frames_cut_memory_without_perf_impact() {
    // §5.1: "We would anticipate this optimization to not have any
    // noticeable impact on performance."
    let rows = sm_bench::memory::run(4096, 10);
    let eager = &rows[1];
    let lazy = &rows[2];
    assert!(
        lazy.memory_ratio < eager.memory_ratio - 0.3,
        "lazy {:.2}x should be well below eager {:.2}x",
        lazy.memory_ratio,
        eager.memory_ratio
    );
    assert!(
        (lazy.normalized_perf - eager.normalized_perf).abs() < 0.03,
        "perf must be unaffected: lazy {:.3} vs eager {:.3}",
        lazy.normalized_perf,
        eager.normalized_perf
    );
}

#[test]
fn lazy_mode_still_foils_injection() {
    use sm_core::engine::{SplitMemConfig, SplitMemEngine};
    use sm_kernel::userlib::ProgramBuilder;
    use sm_kernel::Kernel;

    let prog = ProgramBuilder::new("/bin/victim")
        .code(
            "_start:
                sub esp, 64
                mov edi, esp
                mov esi, payload
                mov ecx, 12
                call memcpy
                mov eax, esp
                jmp eax",
        )
        .data("payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
        .build()
        .unwrap();
    let cfg = SplitMemConfig {
        lazy_code_frames: true,
        ..SplitMemConfig::default()
    };
    let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(cfg)));
    let pid = k.spawn(&prog.image).unwrap();
    k.run(20_000_000);
    assert_ne!(k.sys.proc(pid).exit_code, Some(42));
    assert!(k.sys.events.first_detection().is_some());
    // The detection required materialising the stack page's code half.
    let engine = sm_core::find::<SplitMemEngine>(k.engine.as_ref()).unwrap();
    assert!(engine.stats.lazy_materializations > 0);
}
