//! Model-based test of the decode cache's bookkeeping.
//!
//! Random sequences of inserts, lookups and frame writes (write-generation
//! bumps) run against the real [`DecodeCache`] and against a reference
//! model built from a `BTreeMap<(pfn, off), CachedDecode>` plus one
//! snapshot version per frame. After every operation the lookup result,
//! the [`DecodeCacheStats`] counters and the full cached contents (in
//! ascending (pfn, offset) order, as `iter_frames` yields them) must
//! agree. The hit/miss pattern feeds the modeled I-TLB hit count through
//! the superblock replay, so these semantics are part of every simulated
//! output, not just a host-side detail.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sm_machine::cpu::Reg;
use sm_machine::decode_cache::{CachedDecode, DecodeCache};
use sm_machine::isa::{Decoded, Insn};
use sm_machine::pte::PAGE_SIZE;
use sm_machine::DecodeCacheStats;

const FRAMES: u32 = 4;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Look up at the frame's current generation (`stale` = one behind).
    Lookup { pfn: u32, off: u32, stale: bool },
    /// Insert at the frame's current generation (`stale` = one behind).
    Insert {
        pfn: u32,
        off: u32,
        stale: bool,
        tag: u32,
        len: u8,
    },
    /// A write to the frame: its generation moves on.
    Bump { pfn: u32 },
}

/// Decode one random word into an operation: mostly lookups and inserts
/// at a few hot offsets at either end of the page (so lookups hit and
/// inserts overwrite), sometimes anywhere in it; one op in nine is a
/// frame write.
fn op(w: u64) -> Op {
    let pfn = (w >> 4) as u32 % FRAMES;
    let low = (w >> 16) as u32;
    let off = match (w >> 8) % 4 {
        0 | 1 => low % 8,
        2 => PAGE_SIZE - 8 + low % 8,
        _ => low % PAGE_SIZE,
    };
    let stale = (w >> 32) & 1 == 1;
    match w % 9 {
        0..=3 => Op::Lookup { pfn, off, stale },
        4..=7 => Op::Insert {
            pfn,
            off,
            stale,
            tag: (w >> 33) as u32 % 4,
            len: 1 + ((w >> 40) % 6) as u8,
        },
        _ => Op::Bump { pfn },
    }
}

fn decode(tag: u32, len: u8) -> CachedDecode {
    let decoded = if tag == 0 {
        Decoded::Invalid { opcode: len }
    } else {
        Decoded::Insn {
            insn: Insn::MovRegImm(Reg::Eax, tag),
            len,
        }
    };
    CachedDecode { decoded, len }
}

/// Reference model: one snapshot version per frame that has a table, and
/// every cached decode keyed by (pfn, offset).
#[derive(Default)]
struct Model {
    versions: BTreeMap<u32, u64>,
    entries: BTreeMap<(u32, u32), CachedDecode>,
    stats: DecodeCacheStats,
}

impl Model {
    /// Adopt `version` for `pfn`'s table, dropping its entries if the
    /// table was at another generation. Returns whether it dropped them.
    fn restart(&mut self, pfn: u32, version: u64) -> bool {
        if self.versions.insert(pfn, version).unwrap_or(version) == version {
            return false;
        }
        self.entries.retain(|&(p, _), _| p != pfn);
        true
    }

    fn lookup(&mut self, pfn: u32, off: u32, version: u64) -> Option<CachedDecode> {
        let hit = match self.versions.get(&pfn) {
            None => None,
            Some(_) => {
                if self.restart(pfn, version) {
                    self.stats.invalidations += 1;
                    None
                } else {
                    self.entries.get(&(pfn, off)).copied()
                }
            }
        };
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    fn insert(&mut self, pfn: u32, off: u32, version: u64, c: CachedDecode) {
        self.restart(pfn, version);
        self.entries.insert((pfn, off), c);
    }

    fn cached(&self) -> Vec<(u32, u64, u32, CachedDecode)> {
        self.entries
            .iter()
            .map(|(&(pfn, off), &c)| (pfn, self.versions[&pfn], off, c))
            .collect()
    }
}

/// Every cached decode as `(pfn, snapshot_version, off, entry)`, in the
/// order `iter_frames` yields them.
fn cached(c: &DecodeCache) -> Vec<(u32, u64, u32, CachedDecode)> {
    c.iter_frames()
        .flat_map(|(pfn, version, entries)| {
            entries
                .iter()
                .map(move |&(off, e)| (pfn, version, off as u32, e))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_cache_matches_reference_model(words in proptest::collection::vec(any::<u64>(), 1..300)) {
        let mut cache = DecodeCache::new(FRAMES);
        let mut model = Model::default();
        // The frames' live write-generations, as `PhysMemory` would
        // report them. They start at 1 so a stale (one-behind) access
        // never underflows.
        let mut live = [1u64; FRAMES as usize];
        for (i, op) in words.into_iter().map(op).enumerate() {
            match op {
                Op::Lookup { pfn, off, stale } => {
                    let v = live[pfn as usize] - stale as u64;
                    let got = cache.lookup(pfn, off, v);
                    let want = model.lookup(pfn, off, v);
                    prop_assert_eq!(got, want, "lookup result, op {}: {:?}", i, op);
                }
                Op::Insert { pfn, off, stale, tag, len } => {
                    // Encodings never cross the page: clamp like the
                    // fetch path's page-crosser rule would.
                    let len = len.min((PAGE_SIZE - off).min(255) as u8);
                    let v = live[pfn as usize] - stale as u64;
                    cache.insert(pfn, off, v, decode(tag, len));
                    model.insert(pfn, off, v, decode(tag, len));
                }
                Op::Bump { pfn } => live[pfn as usize] += 1,
            }
            prop_assert_eq!(cache.stats, model.stats, "stats, op {}: {:?}", i, op);
            prop_assert_eq!(cached(&cache), model.cached(), "contents, op {}: {:?}", i, op);
        }
    }
}
