//! In-tree SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).
//!
//! The receipt plane needs real cryptographic binding — a MAC trailer
//! over every published wire frame, signed at encode, checked at
//! admission and checked again at fetch — and the build container has
//! no crates.io access, so the primitive lives here under the same
//! no-dependency discipline as the rest of `vpm-hash`. HMAC is the
//! largest single cost of the receipt pipeline, so the compression
//! function has two kernels behind one dispatch:
//!
//! * **SHA extensions** (`x86_64` hosts whose CPU reports `sha`,
//!   `ssse3` and `sse4.1` at run time): `sha256rnds2` runs two rounds
//!   per instruction and `sha256msg1`/`sha256msg2` expand the message
//!   schedule. The state is shuffled into the ABEF/CDGH register
//!   layout the instructions want once per run of blocks, not once per
//!   block, so [`Sha256::update`] hands the kernel every whole block
//!   of its input at once.
//! * **Portable** (every other host): the scalar FIPS 180-4 §6.2.2
//!   compression function, which is also the reference the SIMD path
//!   is pinned against. [`hmac_sha256_portable`] forces it, so tests
//!   and benches can compare the two on hosts where both exist.
//!
//! Both kernels compute the same function, so the dispatch is
//! invisible to callers. They are pinned to each other and to the NIST
//! FIPS 180-4 example vectors (including the streaming million-`a`
//! message) and all seven RFC 4231 HMAC-SHA-256 test cases by the unit
//! tests and proptests below.
//!
//! Like [`crate::lanes`], this module carries the crate's only other
//! `unsafe`: the single call into the SHA-extension kernel (see the
//! `SAFETY` comment at the dispatch site).
#![allow(unsafe_code)]

/// Round constants: fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
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

/// Initial hash state: fractional parts of the square roots of the
/// first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 block size in bytes (also the HMAC pad width).
pub const SHA256_BLOCK_BYTES: usize = 64;

/// SHA-256 digest size in bytes.
pub const SHA256_DIGEST_BYTES: usize = 32;

/// Bytes the final block reserves for the big-endian bit length.
const LENGTH_BYTES: usize = 8;

/// One SHA-256 message block.
type Block = [u8; SHA256_BLOCK_BYTES];

/// Which compression kernel a hasher runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// The fastest kernel this host supports.
    Dispatch,
    /// The scalar reference, whatever the host supports.
    Portable,
}

/// Whether this host runs the SHA-extension kernel: an `x86_64` CPU
/// reporting `sha`, `ssse3` and `sse4.1`. When `false`, every hash in
/// this module runs the portable kernel.
pub fn has_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compress a run of whole blocks into `state` with `kernel`.
fn compress_blocks(kernel: Kernel, state: &mut [u32; 8], blocks: &[Block]) {
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Dispatch && has_sha_ni() {
        // SAFETY: the only precondition of calling the
        // `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]` kernel
        // is that the running CPU supports those features. `has_sha_ni`
        // has just confirmed `sha`, `ssse3` and `sse4.1` with
        // `is_x86_feature_detected!`, and `sse2` is part of the x86_64
        // baseline.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    // Only x86_64 has a second kernel to choose.
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel;
    for block in blocks {
        compress(state, block);
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use vpm_hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), vpm_hash::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    kernel: Kernel,
    state: [u32; 8],
    buf: Block,
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::Dispatch)
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            kernel,
            state: H0,
            buf: [0u8; SHA256_BLOCK_BYTES],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`; may be called any number of times.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (SHA256_BLOCK_BYTES - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == SHA256_BLOCK_BYTES {
                compress_blocks(
                    self.kernel,
                    &mut self.state,
                    core::slice::from_ref(&self.buf),
                );
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<SHA256_BLOCK_BYTES>();
        if !blocks.is_empty() {
            compress_blocks(self.kernel, &mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Pad, run the final block or two, and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; SHA256_DIGEST_BYTES] {
        // The buffered tail, the 0x80 terminator, zeros, and the
        // big-endian bit length, laid out in one step: one block when
        // the terminator and length fit after the tail, else two.
        let n = self.buf_len;
        let mut tail = [[0u8; SHA256_BLOCK_BYTES]; 2];
        tail[0][..n].copy_from_slice(&self.buf[..n]);
        tail[0][n] = 0x80;
        let used = if n < SHA256_BLOCK_BYTES - LENGTH_BYTES {
            1
        } else {
            2
        };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[used - 1][SHA256_BLOCK_BYTES - LENGTH_BYTES..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(self.kernel, &mut self.state, &tail[..used]);

        let mut out = [0u8; SHA256_DIGEST_BYTES];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One FIPS 180-4 §6.2.2 compression round over a 64-byte block: the
/// portable kernel and the reference for the SHA-extension one.
fn compress(state: &mut [u32; 8], block: &Block) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(target_arch = "x86_64")]
mod shani {
    //! The SHA-extension kernel. `sha256rnds2` keeps the working
    //! variables as two vectors, ABEF and CDGH (lane 3 first), and runs
    //! two rounds per call; `sha256msg1`/`sha256msg2` compute four
    //! message-schedule words at a time. All intrinsics here are
    //! value-based (no raw pointers), so inside these
    //! `#[target_feature]` functions every call is safe — the single
    //! `unsafe` lives at the dispatch site in the parent module.

    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::{Block, K};

    /// Load message words `4i..4i + 4` of `block`, big-endian, with
    /// word `4i` in lane 0.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_words(block: &Block, i: usize) -> __m128i {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&block[16 * i..16 * i + 16]);
        let v = u128::from_le_bytes(bytes);
        let v = _mm_set_epi64x((v >> 64) as u64 as i64, v as u64 as i64);
        // Reverse the bytes within each 32-bit lane.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(v, swap)
    }

    /// Four rounds: message words `w` (round `4i` in lane 0) plus
    /// round constants `K[4i..4i + 4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        // The upper two words feed the second pair of rounds.
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// group first.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compress every block of `blocks` into `state`, in order.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[Block]) {
        let s = state.map(|x| x as i32);
        let dcba = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let hgfe = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        // Into the instructions' layout: ABEF and CDGH, lane 3 first.
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load_words(block, 0);
            let mut w1 = load_words(block, 1);
            let mut w2 = load_words(block, 2);
            let mut w3 = load_words(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Rounds 16..64, four at a time, with the schedule held in
            // a ring of four vectors.
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        // Back to word order: DCBA and HGFE, lane 0 first.
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        let lanes = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgfe),
            _mm_extract_epi32::<1>(hgfe),
            _mm_extract_epi32::<2>(hgfe),
            _mm_extract_epi32::<3>(hgfe),
        ];
        *state = lanes.map(|x| x as u32);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    digest_with(Kernel::Dispatch, data)
}

/// One-shot SHA-256 with `kernel`.
fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    let mut h = Sha256::with_kernel(kernel);
    h.update(data);
    h.finalize()
}

/// HMAC-SHA-256 of `msg` under `key` (RFC 2104; any key length —
/// keys longer than the 64-byte block are hashed first).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    hmac_with(Kernel::Dispatch, key, msg)
}

/// [`hmac_sha256`] on the portable kernel, whatever the host supports.
/// Public so tests and benches can pin the SHA-extension path against
/// it; on a host without that path the two coincide.
pub fn hmac_sha256_portable(key: &[u8], msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    hmac_with(Kernel::Portable, key, msg)
}

fn hmac_with(kernel: Kernel, key: &[u8], msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    let mut k = [0u8; SHA256_BLOCK_BYTES];
    if key.len() > SHA256_BLOCK_BYTES {
        k[..SHA256_DIGEST_BYTES].copy_from_slice(&digest_with(kernel, key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; SHA256_BLOCK_BYTES];
    let mut opad = [0x5cu8; SHA256_BLOCK_BYTES];
    for i in 0..SHA256_BLOCK_BYTES {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::with_kernel(kernel);
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::with_kernel(kernel);
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Constant-time 32-byte comparison: MAC checks must not leak how
/// many prefix bytes matched through early exit.
pub fn mac_eq(a: &[u8; SHA256_DIGEST_BYTES], b: &[u8; SHA256_DIGEST_BYTES]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KERNELS: [Kernel; 2] = [Kernel::Portable, Kernel::Dispatch];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // FIPS 180-4 example vectors (NIST CSRC "SHA All" examples).
    #[test]
    fn nist_fips_180_4_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (msg, want) in cases {
            assert_eq!(&hex(&sha256(msg)), want, "msg len {}", msg.len());
            for kernel in KERNELS {
                assert_eq!(
                    &hex(&digest_with(kernel, msg)),
                    want,
                    "{kernel:?}, msg len {}",
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn nist_million_a_streams_through_arbitrary_chunking() {
        // The millionth-`a` vector, fed in deliberately awkward chunk
        // sizes to exercise the buffered update path, on both kernels.
        for kernel in KERNELS {
            let mut h = Sha256::with_kernel(kernel);
            let mut fed = 0usize;
            let mut chunk = 1usize;
            while fed < 1_000_000 {
                let n = chunk.min(1_000_000 - fed);
                h.update(&b"a".repeat(n));
                fed += n;
                chunk = (chunk * 3 + 7) % 257 + 1;
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i * 31 % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    // RFC 4231: all seven HMAC-SHA-256 test cases. TC5 checks the
    // truncated-output case by prefix.
    #[test]
    fn rfc_4231_hmac_sha256_vectors() {
        struct Tc {
            key: Vec<u8>,
            data: Vec<u8>,
            mac: &'static str,
            truncated_to: usize,
        }
        let cases = [
            Tc {
                key: vec![0x0b; 20],
                data: b"Hi There".to_vec(),
                mac: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                truncated_to: 32,
            },
            Tc {
                key: b"Jefe".to_vec(),
                data: b"what do ya want for nothing?".to_vec(),
                mac: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                truncated_to: 32,
            },
            Tc {
                key: vec![0xaa; 20],
                data: vec![0xdd; 50],
                mac: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
                truncated_to: 32,
            },
            Tc {
                key: unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
                data: vec![0xcd; 50],
                mac: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
                truncated_to: 32,
            },
            Tc {
                key: vec![0x0c; 20],
                data: b"Test With Truncation".to_vec(),
                mac: "a3b6167473100ee06e0c796c2955552b",
                truncated_to: 16,
            },
            Tc {
                key: vec![0xaa; 131],
                data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                mac: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                truncated_to: 32,
            },
            Tc {
                key: vec![0xaa; 131],
                data: b"This is a test using a larger than block-size key and a larger \
                        than block-size data. The key needs to be hashed before being \
                        used by the HMAC algorithm."
                    .to_vec(),
                mac: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
                truncated_to: 32,
            },
        ];
        for (i, tc) in cases.iter().enumerate() {
            for got in [
                hmac_sha256(&tc.key, &tc.data),
                hmac_sha256_portable(&tc.key, &tc.data),
            ] {
                assert_eq!(
                    hex(&got[..tc.truncated_to]),
                    tc.mac,
                    "RFC 4231 test case {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn mac_eq_is_exact() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(mac_eq(&a, &b));
        b[31] ^= 1;
        assert!(!mac_eq(&a, &b));
        b[31] ^= 1;
        b[0] ^= 0x80;
        assert!(!mac_eq(&a, &b));
    }

    #[test]
    fn padding_boundaries_match_pinned_digests() {
        // Final-block tails of 55 bytes (terminator and length fit in
        // one block), 56 and 63 (they spill into a second), and 0 after
        // one or two whole blocks. Digests from an independent
        // SHA-256 implementation.
        let cases: &[(usize, &str)] = &[
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
        ];
        for &(len, want) in cases {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            for kernel in KERNELS {
                assert_eq!(
                    hex(&digest_with(kernel, &data)),
                    want,
                    "{kernel:?}, len {len}"
                );
            }
        }
    }

    proptest! {
        /// The dispatched kernel equals the portable reference over
        /// every length up to 17 blocks, whatever the chunking of the
        /// `update` calls and wherever the input starts in memory.
        #[test]
        fn dispatch_matches_portable_over_chunkings_and_offsets(
            data in proptest::collection::vec(any::<u8>(), 0..=1100),
            offset in 1usize..=63,
            cuts in proptest::collection::vec(0usize..=200, 0..8),
        ) {
            let want = digest_with(Kernel::Portable, &data);
            prop_assert_eq!(sha256(&data), want);
            // The same bytes `offset` bytes into a larger buffer, so
            // no block starts where the allocation does.
            let mut shifted = vec![0u8; offset + data.len()];
            shifted[offset..].copy_from_slice(&data);
            let msg = &shifted[offset..];
            for kernel in KERNELS {
                let mut h = Sha256::with_kernel(kernel);
                let mut rest = msg;
                for &cut in &cuts {
                    let (head, tail) = rest.split_at(cut.min(rest.len()));
                    h.update(head);
                    rest = tail;
                }
                h.update(rest);
                prop_assert_eq!(h.finalize(), want);
            }
        }

        /// HMAC on both kernels over every key-length class: empty,
        /// shorter than, equal to and longer than the block.
        #[test]
        fn hmac_dispatch_matches_portable(
            key in proptest::collection::vec(any::<u8>(), 0..=131),
            msg in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            prop_assert_eq!(hmac_sha256(&key, &msg), hmac_sha256_portable(&key, &msg));
        }
    }
}
