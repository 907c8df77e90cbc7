//! Simulated 32-bit x86-flavoured machine used as the hardware substrate for
//! the split-memory (virtual Harvard architecture) reproduction.
//!
//! The crate models exactly the architectural features the paper's technique
//! exploits:
//!
//! * **Physical memory** organised in 4 KiB frames ([`phys::PhysMemory`],
//!   [`phys::FrameAllocator`]).
//! * **Two-level, hardware-walked pagetables** stored *in* simulated physical
//!   memory, with x86-style permission bits including the supervisor/user bit
//!   ([`pte`]).
//! * **Split translation lookaside buffers**: a dedicated instruction-TLB and
//!   data-TLB whose entries **cache access rights at fill time** and are never
//!   re-validated against the pagetable on a hit ([`tlb`]). This is the
//!   microarchitectural property that makes TLB desynchronisation — and hence
//!   the virtual Harvard architecture — possible.
//! * A **CPU** with the registers, trap flag (single-step mode), exception
//!   model (`#PF` with CR2, `#UD`, `#DB`, `#DE`) and a compact x86-flavoured
//!   instruction set ([`cpu`], [`isa`], [`exec`]).
//! * A deterministic **cycle cost model** so experiments measure relative
//!   performance without host timing noise ([`costs`]).
//!
//! # Example
//!
//! ```
//! use sm_machine::{Machine, MachineConfig};
//! use sm_machine::pte::{self, PAGE_SIZE};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! // Identity-map one page at virtual 0x1000 and run a tiny program.
//! let dir = m.alloc_frame().expect("frame");
//! let tab = m.alloc_frame().expect("frame");
//! let code = m.alloc_frame().expect("frame");
//! m.phys.write_u32(dir.base(), pte::make(tab, pte::PRESENT | pte::WRITABLE | pte::USER));
//! m.phys.write_u32(tab.base() + 4, pte::make(code, pte::PRESENT | pte::WRITABLE | pte::USER));
//! m.phys.write(code.base(), &[0x90, 0xF4]); // nop; hlt
//! m.set_cr3(dir);
//! m.cpu.regs.eip = PAGE_SIZE; // 0x1000
//! let trap = m.step(); // executes the nop
//! assert_eq!(trap, sm_machine::Trap::None);
//! ```

#![deny(unsafe_code)]

pub mod chaos;
pub mod costs;
pub mod cpu;
pub mod decode_cache;
pub mod exec;
pub mod isa;
pub mod phys;
pub mod pte;
pub mod sha256;
pub mod snapshot;
pub mod stats;
pub mod superblock;
pub mod tlb;

mod machine;

pub use decode_cache::DecodeCacheStats;
pub use machine::{CfiEvent, CfiKind, Machine, MachineConfig, Trap};
pub use superblock::SuperblockStats;
pub use tlb::{TlbGeometry, TlbPreset};

/// Re-export of the trace substrate so embedders reach the event types
/// through the machine they trace.
pub use sm_trace as trace;
