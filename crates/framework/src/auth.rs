//! Keyed frame authentication: hand-rolled SHA-256 and HMAC-SHA-256.
//!
//! The build environment has no network access, so no cryptography crates are
//! available; this module implements FIPS 180-4 SHA-256 and RFC 2104
//! HMAC-SHA-256 from scratch (validated against the FIPS example vectors and
//! RFC 4231 test cases in the unit tests below) and layers the transport's
//! frame-authentication scheme on top.
//!
//! # Scheme
//!
//! A cluster shares one secret.  [`ClusterKey::from_secret`] normalizes any
//! byte string through SHA-256 into the 32-byte MAC key; operators usually set
//! it via the `CORGI_CLUSTER_KEY` environment variable
//! ([`ClusterKey::from_env`]).  Whether a connection authenticates is
//! agreed in the `Hello`/`HelloReply` exchange (a rejected hello travels
//! without a MAC, so a key mismatch produces a *legible* structured
//! rejection rather than an unverifiable frame); once agreed, **every**
//! subsequent frame carries a MAC trailer:
//!
//! ```text
//! | magic 2B | kind 1B | len 4B |   payload   | mac 16B |
//!                       ^ len counts payload + MAC
//!   mac = HMAC-SHA-256(key, header ‖ payload)[..16]
//! ```
//!
//! The MAC covers the *final* header (with the trailer already counted in
//! `len`), so length-truncation and kind-swapping are tamper-evident along
//! with the payload itself.  Verification failures surface as structured
//! [`Unauthenticated`](crate::messages::ServiceErrorKind::Unauthenticated)
//! errors and are counted in [`ClusterStats`](crate::cluster::ClusterStats).
//!
//! The scheme authenticates and tamper-proofs traffic between nodes that
//! already share the key; it is not encryption (payloads travel in the clear)
//! and the hello itself is unauthenticated (an active attacker can force a
//! handshake failure, but never an accepted forged frame).
//!
//! # Key rotation (protocol 1.5)
//!
//! Keys rotate without a full-cluster restart through a dual-key acceptance
//! window: `CORGI_CLUSTER_KEY_PREVIOUS` names a second secret that frames are
//! *verified* against when the primary fails, while every outbound frame is
//! always *signed* with the primary ([`ClusterKey::with_previous`]).  Rolling
//! a cluster from key A to key B is a two-phase swap — first deploy
//! `KEY=A, PREVIOUS=B` everywhere (still signing A, now accepting B), then
//! `KEY=B, PREVIOUS=A` (signing B, still accepting A), then drop the previous
//! key — so at every step both sides of any connection verify what the other
//! signs.
//!
//! # Kernels
//!
//! SHA-256 has two compression kernels.  On x86-64 CPUs that report the SHA
//! extensions together with SSE2, SSSE3 and SSE4.1, every hasher uses the
//! hardware kernel (`sha256rnds2` / `sha256msg1` / `sha256msg2`); everywhere
//! else it uses the scalar FIPS 180-4 rounds, which are also the oracle the
//! unit tests hold the hardware kernel to.  The choice is made once per
//! process from what the CPU reports (`is_x86_feature_detected!`); there is
//! no setting.  `Sha256::update` hands every run of whole 64-byte blocks to
//! the kernel in one call, and a [`ClusterKey`] absorbs its HMAC pad blocks
//! once when it is built, so a MAC compresses only the message and two
//! finishing blocks.
//!
//! Sealing a 134 KB frame (a level-2 forest) on a 2-vCPU Intel Xeon VM
//! reporting the SHA extensions takes 100–113 µs on the hardware kernel
//! (1.2–1.4 GB/s) against 0.6–1.0 ms on the scalar one (140–230 MB/s,
//! depending on host load); the `frame_auth/seal_134k/{sha_ni,portable}`
//! bench pair measures both in one run.

use std::fmt;
use std::sync::Arc;

/// Bytes of HMAC-SHA-256 output kept as the per-frame trailer.
///
/// 16 bytes (128 bits) is the conventional truncation floor (RFC 2104 §5
/// requires at least half the hash output); forging a frame still requires
/// 2^128 work while halving the per-frame overhead.
pub const MAC_LEN: usize = 16;

/// Name of the only authentication scheme, as advertised in hello frames.
pub const AUTH_SCHEME: &str = "hmac-sha256";

/// Environment variable holding the shared cluster secret.
pub const CLUSTER_KEY_ENV: &str = "CORGI_CLUSTER_KEY";

/// Environment variable holding the *previous* cluster secret during a key
/// rotation window: frames are verified against it when the primary key
/// fails, but outbound frames are always signed with the primary.
pub const CLUSTER_KEY_PREVIOUS_ENV: &str = "CORGI_CLUSTER_KEY_PREVIOUS";

// --------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// --------------------------------------------------------------------------

/// The 64 round constants: fractional parts of the cube roots of the first 64
/// primes.
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

/// Initial hash state: fractional parts of the square roots of the first 8
/// primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression kernel: absorbs whole 64-byte blocks into a state.
///
/// Only [`Kernel::sha_ni`] constructs [`Kernel::ShaNi`], and only after the
/// CPU reported every extension that kernel executes, which is what makes
/// calling it sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The scalar FIPS 180-4 rounds: the fallback on every other CPU and
    /// architecture, and the oracle the hardware kernel is tested against.
    Portable,
    /// The x86-64 SHA extensions (`sha256rnds2`, `sha256msg1/2`).
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs, chosen on first use.
    fn detect() -> Self {
        static CHOSEN: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *CHOSEN.get_or_init(|| Self::sha_ni().unwrap_or(Kernel::Portable))
    }

    /// The hardware kernel, if the CPU reports every extension it uses.
    fn sha_ni() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Some(Kernel::ShaNi);
        }
        None
    }

    /// Compress every block of `blocks` into `state`, in order.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "compress takes whole blocks");
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            // SAFETY: `ShaNi` exists only where `sha_ni()` saw the CPU report
            // sha, sse2, ssse3 and sse4.1 (see the type docs).
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => unsafe { sha_ni::compress(state, blocks) },
        }
    }
}

/// Whether this CPU runs the hardware SHA-256 kernel.
#[doc(hidden)]
pub fn has_sha_extensions() -> bool {
    Kernel::sha_ni().is_some()
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use corgi_framework::auth::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize()[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes (the padding encodes it in bits).
    length: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Self::resume(H0, 0, kernel)
    }

    /// A hasher that has already absorbed `length` bytes (a whole number of
    /// blocks) leaving `state` behind.
    fn resume(state: [u32; 8], length: u64, kernel: Kernel) -> Self {
        debug_assert_eq!(length % 64, 0, "resume at a block boundary");
        Self {
            state,
            buffer: [0u8; 64],
            buffered: 0,
            length,
            kernel,
        }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                self.kernel.compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        // Every whole block straight from the input, in one kernel call.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Apply the FIPS 180-4 padding and return the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        // 0x80 terminator, zeros to 56 mod 64, then the 64-bit bit length.
        self.update(&[0x80]);
        // `update` above may have advanced `length`, but the captured
        // `bit_length` is what the padding must encode; only the buffer
        // position matters from here on.
        while self.buffered != 56 {
            let zeros = if self.buffered < 56 {
                56 - self.buffered
            } else {
                64 - self.buffered
            };
            const ZEROS: [u8; 64] = [0u8; 64];
            self.update(&ZEROS[..zeros]);
        }
        self.update(&bit_length.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut digest = [0u8; 32];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }
}

/// The scalar compression function over whole 64-byte blocks.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
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

/// The compression function on the x86-64 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the state split across two registers as
/// `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` extend the message schedule
/// four words at a time.  The layout follows Intel's reference description of
/// the extensions (Gulley et al., "Intel SHA Extensions", 2013).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Four rounds: add the round constants to four schedule words, then two
    /// `sha256rnds2` steps (the second takes the upper two words).
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        // SAFETY: `k` is four words, 16 bytes: one unaligned load.
        let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Message words `4j..4j + 4` of a 64-byte block, byte-swapped from big
    /// endian into lanes.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn load_words(block: &[u8], j: usize) -> __m128i {
        let bytes = &block[16 * j..16 * j + 16];
        // SAFETY: `bytes` is 16 bytes long: one unaligned load.
        let words = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(words, bswap)
    }

    /// Compress every whole 64-byte block of `blocks` into `state`.
    ///
    /// Callers must first check that the CPU supports `sha`, `sse2`, `ssse3`
    /// and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let state_ptr: *mut __m128i = state.as_mut_ptr().cast();
        // SAFETY: `state` is 32 bytes: two unaligned 16-byte loads.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state_ptr),
                _mm_loadu_si128(state_ptr.add(1)),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load_words(block, 0);
            let mut w1 = load_words(block, 1);
            let mut w2 = load_words(block, 2);
            let mut w3 = load_words(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
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

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: as for the loads above.
        unsafe {
            _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// An HMAC-SHA-256 key with its two pad blocks already absorbed: the SHA-256
/// states after `key ⊕ ipad` and after `key ⊕ opad`, so each MAC starts from
/// them instead of compressing both blocks again.
#[derive(Clone, PartialEq, Eq)]
struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    fn new(key: &[u8]) -> Self {
        const BLOCK: usize = 64;
        let mut padded = [0u8; BLOCK];
        if key.len() > BLOCK {
            padded[..32].copy_from_slice(&sha256(key));
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut block = padded;
            for byte in &mut block {
                *byte ^= pad;
            }
            let mut state = H0;
            Kernel::detect().compress(&mut state, &block);
            state
        };
        Self {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// The full 32-byte HMAC of the concatenation of `parts`.
    fn mac(&self, kernel: Kernel, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 64, kernel);
        for part in parts {
            inner.update(part);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::resume(self.outer, 64, kernel);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time byte-slice equality (no early exit on the first mismatch).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

// --------------------------------------------------------------------------
// Cluster key + frame trailer scheme
// --------------------------------------------------------------------------

/// Why an authenticated frame failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The frame is too short to even hold a MAC trailer.
    Truncated,
    /// The MAC trailer does not match the frame contents.
    BadMac,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::Truncated => write!(f, "frame too short to carry a MAC trailer"),
            AuthError::BadMac => write!(f, "frame MAC verification failed"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The shared cluster secret, normalized to a 32-byte MAC key — plus, during
/// a rotation window, the previous key that inbound frames are still accepted
/// under ([`ClusterKey::with_previous`]).
///
/// Compare with `==` for key-agreement checks in tests; the `Debug` impl
/// never prints key material.
///
/// Every connection holds a clone, so the precomputed HMAC states sit behind
/// one shared allocation.
#[derive(Clone, PartialEq, Eq)]
pub struct ClusterKey(Arc<KeyStates>);

#[derive(Clone, PartialEq, Eq)]
struct KeyStates {
    primary: HmacKey,
    previous: Option<HmacKey>,
    /// First 4 bytes of SHA-256 of the primary key: enough to tell two keys
    /// apart when debugging, without printing key material.
    fingerprint: [u8; 4],
}

impl fmt::Debug for ClusterKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fp = self.0.fingerprint;
        write!(
            f,
            "ClusterKey(fp={:02x}{:02x}{:02x}{:02x}{})",
            fp[0],
            fp[1],
            fp[2],
            fp[3],
            if self.0.previous.is_some() {
                ", rotating"
            } else {
                ""
            }
        )
    }
}

impl ClusterKey {
    /// Derive the key from an arbitrary secret byte string.
    pub fn from_secret(secret: &[u8]) -> Self {
        let key = sha256(secret);
        let fp = sha256(&key);
        Self(Arc::new(KeyStates {
            primary: HmacKey::new(&key),
            previous: None,
            fingerprint: [fp[0], fp[1], fp[2], fp[3]],
        }))
    }

    /// Open a rotation window: keep signing with this key, but also accept
    /// frames signed with the key derived from `secret`.
    pub fn with_previous(mut self, secret: &[u8]) -> Self {
        Arc::make_mut(&mut self.0).previous = Some(HmacKey::new(&sha256(secret)));
        self
    }

    /// Read the key from the `CORGI_CLUSTER_KEY` environment variable, and
    /// the rotation-window secondary from `CORGI_CLUSTER_KEY_PREVIOUS`.
    ///
    /// Returns `None` when the primary variable is unset or empty
    /// (authentication disabled; a previous key alone enables nothing).
    pub fn from_env() -> Option<Self> {
        let key = std::env::var(CLUSTER_KEY_ENV)
            .ok()
            .filter(|s| !s.is_empty())
            .map(|s| Self::from_secret(s.as_bytes()))?;
        Some(
            match std::env::var(CLUSTER_KEY_PREVIOUS_ENV)
                .ok()
                .filter(|s| !s.is_empty())
            {
                Some(prev) => key.with_previous(prev.as_bytes()),
                None => key,
            },
        )
    }

    /// Whether a rotation window is open (a previous key is accepted).
    pub fn is_rotating(&self) -> bool {
        self.0.previous.is_some()
    }

    /// Truncated HMAC over the concatenation of `parts`, signed with the
    /// primary key.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; MAC_LEN] {
        Self::mac_with(&self.0.primary, Kernel::detect(), parts)
    }

    fn mac_with(key: &HmacKey, kernel: Kernel, parts: &[&[u8]]) -> [u8; MAC_LEN] {
        let full = key.mac(kernel, parts);
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&full[..MAC_LEN]);
        mac
    }

    /// Verify `trailer` against the primary key, falling back to the previous
    /// key when a rotation window is open.
    fn verify(&self, parts: &[&[u8]], trailer: &[u8]) -> bool {
        let kernel = Kernel::detect();
        if constant_time_eq(&Self::mac_with(&self.0.primary, kernel, parts), trailer) {
            return true;
        }
        match &self.0.previous {
            Some(previous) => constant_time_eq(&Self::mac_with(previous, kernel, parts), trailer),
            None => false,
        }
    }

    /// Append the MAC trailer to a sealed frame (header + payload), patching
    /// the header length to count the trailer.
    pub fn seal(&self, frame: Vec<u8>) -> Vec<u8> {
        self.seal_with(Kernel::detect(), frame)
    }

    /// [`ClusterKey::seal`] on the scalar SHA-256 kernel whatever the CPU
    /// offers: the reference side of the `frame_auth` bench pair.
    #[doc(hidden)]
    pub fn seal_portable(&self, frame: Vec<u8>) -> Vec<u8> {
        self.seal_with(Kernel::Portable, frame)
    }

    fn seal_with(&self, kernel: Kernel, mut frame: Vec<u8>) -> Vec<u8> {
        let header = crate::frame::FRAME_HEADER_LEN;
        debug_assert!(frame.len() >= header, "seal() takes a framed message");
        let body_len = (frame.len() - header + MAC_LEN) as u32;
        frame[header - 4..header].copy_from_slice(&body_len.to_be_bytes());
        let mac = Self::mac_with(&self.0.primary, kernel, &[&frame]);
        frame.extend_from_slice(&mac);
        frame
    }

    /// Verify a complete authenticated frame (header + payload + trailer) and
    /// return the bare payload slice.
    pub fn open<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], AuthError> {
        let header = crate::frame::FRAME_HEADER_LEN;
        if frame.len() < header + MAC_LEN {
            return Err(AuthError::Truncated);
        }
        let body_end = frame.len() - MAC_LEN;
        if !self.verify(&[&frame[..body_end]], &frame[body_end..]) {
            return Err(AuthError::BadMac);
        }
        Ok(&frame[header..body_end])
    }

    /// Verify a frame read as separate header and body buffers, truncating the
    /// MAC trailer off `body` on success.
    ///
    /// This is the shape of the blocking client read path, which reads the
    /// 7-byte header and the length-prefixed body into separate buffers.
    pub fn open_split(&self, header: &[u8], body: &mut Vec<u8>) -> Result<(), AuthError> {
        if body.len() < MAC_LEN {
            return Err(AuthError::Truncated);
        }
        let payload_len = body.len() - MAC_LEN;
        if !self.verify(&[header, &body[..payload_len]], &body[payload_len..]) {
            return Err(AuthError::BadMac);
        }
        body.truncate(payload_len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 / NIST example vectors.
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// The kernels under test: the scalar oracle always, the hardware kernel
    /// where this CPU has the extensions it needs.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Portable];
        match Kernel::sha_ni() {
            Some(kernel) => kernels.push(kernel),
            None => println!("SHA-NI kernel not run: this CPU lacks the SHA extensions"),
        }
        kernels
    }

    /// SHA-256 of the concatenation of `parts`, fed to `update` one by one.
    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> [u8; 32] {
        let mut hasher = Sha256::with_kernel(kernel);
        for part in parts {
            hasher.update(part);
        }
        hasher.finalize()
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn sha256_streams_across_odd_chunk_boundaries() {
        // One million 'a's, fed in chunk sizes that straddle block boundaries
        // and as one run of whole blocks.
        let million = vec![b'a'; 1_000_000];
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        for kernel in kernels() {
            let chunks: Vec<&[u8]> = million.chunks(997).collect();
            assert_eq!(hex(&digest_on(kernel, &chunks)), expected, "{kernel:?}");
            assert_eq!(hex(&digest_on(kernel, &[&million])), expected, "{kernel:?}");
        }
    }

    #[test]
    fn kernels_agree_on_every_length_to_1024() {
        let msg = message(1024);
        for len in 0..=1024 {
            let oracle = digest_on(Kernel::Portable, &[&msg[..len]]);
            for kernel in kernels() {
                assert_eq!(
                    digest_on(kernel, &[&msg[..len]]),
                    oracle,
                    "{kernel:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_split_of_a_300_byte_message() {
        let msg = message(300);
        let oracle = digest_on(Kernel::Portable, &[&msg]);
        for kernel in kernels() {
            for split in 0..=msg.len() {
                let (head, tail) = msg.split_at(split);
                assert_eq!(
                    digest_on(kernel, &[head, tail]),
                    oracle,
                    "{kernel:?} split {split}"
                );
            }
        }
    }

    #[test]
    fn hmac_matches_rfc4231_vectors() {
        let case4_key: Vec<u8> = (0x01..=0x19).collect();
        // (key, message parts, expected MAC hex)
        type Case<'a> = (&'a [u8], &'a [&'a [u8]], &'a str);
        let cases: [Case; 7] = [
            // Case 1.
            (
                &[0x0b; 20],
                &[b"Hi There"],
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            // Case 2: short key, message split across parts.
            (
                b"Jefe",
                &[b"what do ya want ", b"for nothing?"],
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            // Case 3: 50 bytes of 0xdd.
            (
                &[0xaa; 20],
                &[&[0xdd; 50]],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // Case 4: the 25-byte key 0x01..=0x19.
            (
                &case4_key,
                &[&[0xcd; 50]],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // Case 5: the RFC gives only the 128-bit truncation, which is
            // exactly the `MAC_LEN` frame trailer.
            (
                &[0x0c; 20],
                &[b"Test With Truncation"],
                "a3b6167473100ee06e0c796c2955552b",
            ),
            // Case 6: key longer than one block (hashed down first).
            (
                &[0xaa; 131],
                &[b"Test Using Larger Than Block-Size Key - Hash Key First"],
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            // Case 7: key and data both longer than one block.
            (
                &[0xaa; 131],
                &[b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."],
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for kernel in kernels() {
            for (i, (key, parts, expected)) in cases.iter().enumerate() {
                let mac = HmacKey::new(key).mac(kernel, parts);
                assert_eq!(
                    hex(&mac[..expected.len() / 2]),
                    *expected,
                    "{kernel:?} case {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn frame_seal_and_open_round_trip() {
        let key = ClusterKey::from_secret(b"test-cluster");
        // A hand-built frame: magic, kind 2, len 5, payload "hello".
        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");
        let sealed = key.seal(frame.clone());
        assert_eq!(sealed, key.seal_portable(frame));
        assert_eq!(sealed.len(), 7 + 5 + MAC_LEN);
        // The header length now counts the trailer.
        assert_eq!(
            u32::from_be_bytes([sealed[3], sealed[4], sealed[5], sealed[6]]),
            (5 + MAC_LEN) as u32
        );
        assert_eq!(key.open(&sealed).expect("verifies"), b"hello");

        // Split-read shape: header and body in separate buffers.
        let mut body = sealed[7..].to_vec();
        key.open_split(&sealed[..7], &mut body).expect("verifies");
        assert_eq!(body, b"hello");
    }

    #[test]
    fn tampering_is_detected() {
        let key = ClusterKey::from_secret(b"test-cluster");
        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");
        let sealed = key.seal(frame);

        // Payload flip.
        let mut tampered = sealed.clone();
        tampered[8] ^= 0x01;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Kind swap.
        let mut tampered = sealed.clone();
        tampered[2] = 3;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Trailer flip.
        let mut tampered = sealed.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x80;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Wrong key.
        let other = ClusterKey::from_secret(b"other-cluster");
        assert_eq!(other.open(&sealed), Err(AuthError::BadMac));
        // Too short.
        assert_eq!(key.open(&sealed[..10]), Err(AuthError::Truncated));
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = ClusterKey::from_secret(b"super-secret").with_previous(b"older-secret");
        let printed = format!("{key:?}");
        assert!(printed.starts_with("ClusterKey(fp="));
        assert!(!printed.contains("super-secret"));
        assert!(!printed.contains("older-secret"));
        for secret in [b"super-secret", b"older-secret"] {
            for window in sha256(secret).windows(4) {
                assert!(!printed.contains(&hex(window)));
            }
        }
        let previous = key.0.previous.as_ref().expect("rotation window open");
        for state in [&key.0.primary, previous] {
            for word in state.inner.iter().chain(&state.outer) {
                assert!(!printed.contains(&format!("{word:08x}")));
                assert!(!printed.contains(&word.to_string()));
            }
        }
    }

    #[test]
    fn rotation_window_accepts_either_key_but_signs_with_primary() {
        let old = ClusterKey::from_secret(b"key-a");
        let new = ClusterKey::from_secret(b"key-b");
        let rotating = ClusterKey::from_secret(b"key-b").with_previous(b"key-a");
        assert!(rotating.is_rotating());
        assert!(!new.is_rotating());

        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");

        // A frame signed with the OLD key verifies under the rotating key...
        let sealed_old = old.seal(frame.clone());
        assert_eq!(
            rotating.open(&sealed_old).expect("previous accepted"),
            b"hello"
        );
        let mut body = sealed_old[7..].to_vec();
        rotating
            .open_split(&sealed_old[..7], &mut body)
            .expect("previous accepted on the split path");
        // ...and so does one signed with the NEW key.
        let sealed_new = new.seal(frame.clone());
        assert_eq!(
            rotating.open(&sealed_new).expect("primary accepted"),
            b"hello"
        );

        // The rotating key SIGNS with its primary: a peer holding only the
        // new key verifies its output; a peer holding only the old one
        // cannot.
        let sealed_rotating = rotating.seal(frame.clone());
        assert_eq!(
            new.open(&sealed_rotating).expect("signed with primary"),
            b"hello"
        );
        assert_eq!(old.open(&sealed_rotating), Err(AuthError::BadMac));

        // A third key is still rejected by the rotating verifier.
        let sealed_other = ClusterKey::from_secret(b"key-c").seal(frame);
        assert_eq!(rotating.open(&sealed_other), Err(AuthError::BadMac));
    }

    #[test]
    fn from_env_reads_the_rotation_window() {
        // Env-var manipulation is process-global; this test owns both vars
        // and restores them, and is the only test touching them.
        std::env::set_var(CLUSTER_KEY_ENV, "env-new");
        std::env::set_var(CLUSTER_KEY_PREVIOUS_ENV, "env-old");
        let key = ClusterKey::from_env().expect("primary set");
        assert_eq!(
            key,
            ClusterKey::from_secret(b"env-new").with_previous(b"env-old")
        );
        std::env::remove_var(CLUSTER_KEY_PREVIOUS_ENV);
        let key = ClusterKey::from_env().expect("primary set");
        assert_eq!(key, ClusterKey::from_secret(b"env-new"));
        // A previous key alone enables nothing.
        std::env::remove_var(CLUSTER_KEY_ENV);
        std::env::set_var(CLUSTER_KEY_PREVIOUS_ENV, "env-old");
        assert!(ClusterKey::from_env().is_none());
        std::env::remove_var(CLUSTER_KEY_PREVIOUS_ENV);
    }
}
