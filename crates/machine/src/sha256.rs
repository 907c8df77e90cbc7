//! SHA-256, implemented in-crate.
//!
//! The paper delegates library signing to DigSig/VeriExec-style prior work
//! (§4.3), which uses standard cryptographic hashes. We implement SHA-256
//! directly (FIPS 180-4) rather than pulling in a crypto dependency: the
//! repository's policy is to keep external crates to the approved minimum,
//! and the verifier only needs a collision-resistant digest.
//!
//! The same digest also seals every snapshot section, so it sits on the
//! save/restore path. The block compression is dispatched at run time: on
//! x86_64 hosts with the SHA extensions (plus SSSE3 and SSE4.1) whole
//! blocks go through the `sha256rnds2`/`sha256msg1`/`sha256msg2`
//! instructions, everywhere else through the portable scalar rounds. The
//! two paths compute the same function; [`sha256_scalar`] pins the scalar
//! one so tests can hold the fast path to it. The hardware path is the
//! crate's only `unsafe` code and is confined to the private `ni` module.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block compression function: folds `blocks` (a whole number of
/// 64-byte blocks) into `state`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Produce the digest, consuming the hasher.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress_blocks)
    }

    fn absorb(&mut self, mut data: &[u8], compress: Compress) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    fn finish(mut self, compress: Compress) -> [u8; 32] {
        // Padding: 0x80, zeros up to 56 mod 64, then the bit length.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&(self.length * 8).to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest computed on the portable scalar path only, whatever the
/// host supports: the reference the dispatched [`sha256`] is tested and
/// benchmarked against.
pub fn sha256_scalar(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.absorb(data, compress_blocks_scalar);
    h.finish(compress_blocks_scalar)
}

/// Which compression path [`sha256`] takes on this host: `"sha-ni"` or
/// `"scalar"`.
pub fn path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::available() {
        return "sha-ni";
    }
    "scalar"
}

/// Fold whole 64-byte blocks into `state` on the fastest path the host
/// supports.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The FIPS 180-4 rounds, one block at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, b) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(b.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86 SHA extensions path.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this host has every instruction set [`rounds`] uses,
    /// detected once per process.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Fold `blocks` into `state` with the SHA instructions if the host
    /// has them; returns `false`, leaving `state` untouched, if it does
    /// not.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed at run time that the CPU
        // supports sha, ssse3 and sse4.1 (sse2 is baseline on x86_64),
        // the features `rounds` is compiled for.
        unsafe { rounds(state, blocks) };
        true
    }

    /// Four-word vector with `w[0]` in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// The Intel SHA extensions round sequence. The state travels as two
    /// vectors, ABEF and CDGH, which is the layout `sha256rnds2` expects;
    /// each step runs four rounds on the oldest four message words of a
    /// sliding window and derives the next four with
    /// `sha256msg1`/`sha256msg2`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds(state: &mut [u32; 8], blocks: &[u8]) {
        let dcba = lanes([state[0], state[1], state[2], state[3]]);
        let hgfe = lanes([state[4], state[5], state[6], state[7]]);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let word = |i: usize| u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
            let mut w = [0, 4, 8, 12].map(|i| lanes(std::array::from_fn(|j| word(i + j))));
            let (abef_in, cdgh_in) = (abef, cdgh);
            for i in 0..16 {
                let k = lanes(std::array::from_fn(|j| super::K[4 * i + j]));
                let wk = _mm_add_epi32(w[0], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                // Slide the window: W[t-16..t] becomes W[t-12..t+4]. The
                // last four results go unused and are optimised away.
                let t = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[0], w[1]),
                    _mm_alignr_epi8(w[3], w[2], 4),
                );
                w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(t, w[3])];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        for (i, v) in [dcba, hgef].into_iter().enumerate() {
            state[4 * i] = _mm_extract_epi32(v, 0) as u32;
            state[4 * i + 1] = _mm_extract_epi32(v, 1) as u32;
            state[4 * i + 2] = _mm_extract_epi32(v, 2) as u32;
            state[4 * i + 3] = _mm_extract_epi32(v, 3) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Hex digest of `data` on the dispatched path, which must equal the
    /// scalar oracle's.
    fn both_paths_hex(data: &[u8]) -> String {
        let digest = sha256(data);
        assert_eq!(
            digest,
            sha256_scalar(data),
            "dispatched and scalar paths disagree"
        );
        to_hex(&digest)
    }

    // FIPS 180-4 / NIST test vectors, each on both compression paths.
    #[test]
    fn empty_string() {
        assert_eq!(
            both_paths_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            both_paths_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            both_paths_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        // Feed in awkward chunk sizes to exercise buffering.
        let chunk = [b'a'; 997];
        let mut left = 1_000_000;
        while left > 0 {
            let n = left.min(chunk.len());
            h.update(&chunk[..n]);
            left -= n;
        }
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(to_hex(&h.finalize()), want);
        assert_eq!(both_paths_hex(&vec![b'a'; 1_000_000]), want);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(&[*b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    /// Hash `data` through `update`-style calls of one size class, all on
    /// the given compression path: 1, 63, 64 or 65 bytes at a time, or
    /// (`mode` 4) arbitrary sizes drawn from `seed`.
    fn chunked(data: &[u8], mode: usize, seed: u64, compress: Compress) -> [u8; 32] {
        let mut h = Sha256::new();
        let mut rest = data;
        let mut x = seed;
        while !rest.is_empty() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let n = [1, 63, 64, 65, 1 + (x >> 33) as usize % 300][mode].min(rest.len());
            h.absorb(&rest[..n], compress);
            rest = &rest[n..];
        }
        h.finish(compress)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The dispatched path, fed in any update pattern, gives the
        /// scalar oracle's digest: short inputs across every padding case,
        /// plus a 4 KiB page and a ~128 KiB input with an odd tail.
        #[test]
        fn dispatched_path_matches_scalar_oracle(
            small in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
            size in 0usize..3,
            mode in 0usize..5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            if path() == "scalar" {
                eprintln!("note: this host lacks SHA-NI; only the scalar path was exercised");
            }
            let data: Vec<u8> = match size {
                0 => small,
                n => {
                    let len = [4096, 128 * 1024 + 37][n - 1];
                    (0..len).map(|i| (i as u64 ^ seed).wrapping_mul(0x9E37_79B9) as u8).collect()
                }
            };
            let oracle = sha256_scalar(&data);
            proptest::prop_assert_eq!(sha256(&data), oracle);
            proptest::prop_assert_eq!(chunked(&data, mode, seed, compress_blocks), oracle);
            proptest::prop_assert_eq!(chunked(&data, mode, seed, compress_blocks_scalar), oracle);
        }
    }

    #[test]
    fn exactly_64_and_65_bytes() {
        // Padding boundary cases.
        let d64 = [0x41u8; 64];
        let d65 = [0x41u8; 65];
        assert_ne!(sha256(&d64), sha256(&d65));
        assert_eq!(sha256(&d64), sha256(&d64));
    }
}
