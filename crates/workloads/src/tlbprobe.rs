//! Set-conflict TLB stress probe (Fig. 7 counter diagnostics).
//!
//! The paper's workloads have small, contiguous page footprints, so on the
//! Pentium III geometries consecutive pages spread evenly across sets and
//! set-associativity is almost invisible in the normalized results. This
//! probe makes the conflict pressure explicit: it walks `pages` data pages
//! whose virtual page numbers are exactly `stride_pages` apart, so with
//! `stride_pages` a multiple of the D-TLB set count every touched page
//! lands in the *same* set. A working set bigger than the set's way count
//! (but far smaller than total capacity) then thrashes that one set on
//! every round — pure conflict misses, the class a fully-associative
//! buffer of the same size would never take.

use crate::runner::{measure, WorkloadResult};
use sm_core::setup::RunSpec;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::pte::PAGE_SIZE;

/// Build the probe: each round touches one word in each of `pages` pages
/// spaced `stride_pages` apart, for `rounds` rounds.
pub fn probe_program(pages: u32, stride_pages: u32, rounds: u32) -> BuiltProgram {
    assert!(pages >= 2, "a one-page probe exerts no pressure");
    let stride_bytes = stride_pages * PAGE_SIZE;
    // The data block must reach the last touched word.
    let span = (pages - 1) * stride_bytes + 4;
    ProgramBuilder::new("/bin/tlbprobe")
        .code(&format!(
            "_start:
                mov dword [iter], {rounds}
            outer:
                mov ecx, 0
            touch:
                mov eax, ecx
                mov ebx, {stride_bytes}
                mul ebx
                inc dword [area+eax]
                inc ecx
                cmp ecx, {pages}
                jne touch
                dec dword [iter]
                jnz outer
                mov ebx, 0
                call exit"
        ))
        .data(&format!(
            "iter: .word 0
             .align 4096
             area: .space {span}"
        ))
        .build()
        .expect("tlb probe assembles")
}

/// Run the probe; work units = rounds.
pub fn run_tlb_probe(spec: &RunSpec, pages: u32, stride_pages: u32, rounds: u32) -> WorkloadResult {
    let mut k = spec.kernel_warm();
    k.spawn(&probe_program(pages, stride_pages, rounds).image)
        .expect("tlb probe spawns");
    measure(
        k,
        format!("tlbprobe-{pages}x{stride_pages}"),
        &spec.protection,
        rounds as u64,
        50_000_000_000,
    )
}

/// A probe sized to thrash one D-TLB set of `spec.tlb`: `ways + 4` pages
/// at a stride equal to the set count, so all of them contend for a single
/// set while staying far below total capacity.
pub fn run_conflict_probe(spec: &RunSpec, rounds: u32) -> WorkloadResult {
    let dtlb = spec.tlb.dtlb;
    run_tlb_probe(spec, dtlb.ways as u32 + 4, dtlb.sets as u32, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::setup::Protection;
    use sm_machine::TlbPreset;

    #[test]
    fn probe_thrashes_one_set_on_pentium3() {
        let spec = RunSpec {
            tlb: TlbPreset::pentium3(),
            ..RunSpec::new(Protection::Unprotected)
        };
        let r = run_conflict_probe(&spec, 50);
        assert!(
            r.dtlb.conflict_misses > 0,
            "an 8-page single-set working set must conflict-miss on a 4-way D-TLB: {:?}",
            r.dtlb
        );
        // Way below capacity: the fully-associative shadow holds the whole
        // working set, so steady-state misses are conflicts, not capacity.
        assert!(
            r.dtlb.conflict_misses > r.dtlb.capacity_misses,
            "probe pressure should be conflict-dominated: {:?}",
            r.dtlb
        );
    }

    #[test]
    fn probe_is_conflict_free_when_fully_associative() {
        let r = run_conflict_probe(&RunSpec::new(Protection::Unprotected), 50);
        assert_eq!(
            r.dtlb.conflict_misses, 0,
            "a single-set buffer cannot take conflict misses: {:?}",
            r.dtlb
        );
    }
}
