//! The binary wire codec: the one encoding of every frame payload since
//! protocol 2.0 ([`WireCodec`]).
//!
//! # Why binary
//!
//! The frame payloads of [`crate::transport`] are dominated by `f64` matrices:
//! a warm cache hit returns a ~70 KB privacy forest whose JSON text would be
//! almost entirely formatted decimal floats.  Formatting and re-parsing that
//! text costs milliseconds per round trip — about a hundred times the cost
//! of this codec on the same forest.  Here small metadata fields are written
//! tag-prefixed with fixed-width little-endian scalars, and
//! matrices/forests/priors travel as length-prefixed runs of raw IEEE-754
//! `f64` bit patterns copied straight from (and into) the in-memory
//! `Vec<f64>` — no per-element formatting, no intermediate `String`, and
//! bit-exact round trips (NaN payloads, ±0 and subnormals survive, which JSON
//! text cannot guarantee).
//!
//! # Encoding rules
//!
//! All scalars are little-endian.  `f64` is the raw IEEE-754 bit pattern.
//! Strings and lists are length-prefixed with a `u32` count; cell ids travel
//! as their packed `u64` form ([`CellId::pack`]).  Every struct field of the
//! small metadata is preceded by a one-byte tag (see the `TAG_*` constants):
//! the decoder verifies tags in order, so a corrupted or desynchronized
//! payload fails fast with a structured error instead of mis-assembling a
//! message.  Enums start with a one-byte discriminant.  A decoder consumes
//! the payload exactly: trailing bytes are an error.
//!
//! Per-message layouts (all multi-byte integers LE):
//!
//! ```text
//! RequestEnvelope   = T₁ version(u16·2) T₂ request_id(u64) T₃ request
//! MatrixRequest     = privacy_level(u8) delta(u64)
//! ResponseEnvelope  = T₁ version T₂ request_id T₄ disc(u8: 0 forest, 1 error) body
//!   forest body     = T₃ request T₅ epsilon(f64) T₆ n(u32) entry×n
//!   entry           = root(u64) k(u32) cell(u64)×k data(f64×k²)
//!   error body      = kind(u8) message(str)
//! WarmRequest       = T₇ n(u32) level(u8)×n T₈ n(u32) delta(u64)×n
//! WarmReport        = T₉ requested(u64) warmed(u64) elapsed_ms(u64)
//!                     T₁₀ n(u32) failure×n      failure = level(u8) delta(u64) error
//! HelloFrame        = T₁ version T₁₅ present(u8) [scheme(str)]
//! HelloReply        = disc(u8: 0 accepted, 1 rejected)
//!   accepted        = T₁ version T₁₂ lat(f64) lng(f64) height(u8) spacing(f64)
//!                     T₁₃ n(u32) prob(f64)×n T₁₅ present(u8) [scheme(str)]
//!   rejected        = error
//! WarmPush          = T₃ request T₁₆ present(u8 = 1) forest body
//! StatsRequest      = (empty payload)
//! StatsReport       = T₁₇ transport(u64×13) T₁₈ present(u8) [cache(u64×5)]
//!                     T₁₉ present(u8) [cluster]
//!   cluster         = counters(u64×9) n(u32) peer×n
//!   peer            = endpoint(str) counters(u64×6)
//! Ping              = T₂₀ nonce(u64)
//! Pong              = T₂₀ nonce(u64)
//! Digest            = T₂₁ present(u8) [request]
//! DigestReply       = T₂₂ generation(u64) T₂₃ n(u32) request×n
//!                     T₁₆ present(u8) [forest body]
//! ```
//!
//! Tags 0x0B and 0x0E are retired: they marked the hello's codec list and
//! the reply's codec choice, which protocol 2.0 removed.  A `WarmPush`
//! always carries its forest: the presence byte stays on the wire so a
//! payload push is byte-identical to earlier 2.0 builds, and a key-only push
//! (presence byte 0) is malformed.  The fixed-width counter runs change in
//! place (1.5 appended four cluster counters, 2.0 dropped the JSON
//! connection count from the transport run and the key-only push counter
//! from the cluster run): both ends of a connection run the same build of
//! this module.
//!
//! The hello opens with the tagged version in every protocol major, so a
//! server can always read what a peer claims to speak; a 1.x peer's JSON
//! hello fails that first tag and is refused.  See [`crate::transport`].
//!
//! [`CellId::pack`]: corgi_hexgrid::CellId::pack

use crate::auth::MAC_LEN;
use crate::cluster::{ClusterStats, PeerStats, Ping, Pong, StatsReport, StatsRequest};
use crate::frame::{seal_frame, FrameKind, HelloFrame, HelloReply, FRAME_HEADER_LEN};
use crate::messages::{
    ForestEntry, MatrixRequest, PrivacyForestResponse, ProtocolVersion, RequestEnvelope,
    ResponseEnvelope, ResponsePayload, ServiceError, ServiceErrorKind, WireCodec, PROTOCOL_VERSION,
};
use crate::service::CacheStats;
use crate::transport::TransportStats;
use crate::warm::{DigestReply, DigestRequest, WarmFailure, WarmPush, WarmReport, WarmRequest};
use corgi_core::ObfuscationMatrix;
use corgi_datagen::PriorDistribution;
use corgi_geo::LatLng;
use corgi_hexgrid::{CellId, HexGridConfig};
use std::fmt;
use std::sync::Arc;

const TAG_VERSION: u8 = 0x01;
const TAG_REQUEST_ID: u8 = 0x02;
const TAG_REQUEST: u8 = 0x03;
const TAG_PAYLOAD: u8 = 0x04;
const TAG_EPSILON: u8 = 0x05;
const TAG_ENTRIES: u8 = 0x06;
const TAG_LEVELS: u8 = 0x07;
const TAG_DELTAS: u8 = 0x08;
const TAG_COUNTS: u8 = 0x09;
const TAG_FAILURES: u8 = 0x0A;
const TAG_GRID: u8 = 0x0C;
const TAG_PRIOR: u8 = 0x0D;
const TAG_AUTH: u8 = 0x0F;
const TAG_FOREST: u8 = 0x10;
const TAG_TRANSPORT: u8 = 0x11;
const TAG_CACHE: u8 = 0x12;
const TAG_CLUSTER: u8 = 0x13;
const TAG_NONCE: u8 = 0x14;
const TAG_PULL: u8 = 0x15;
const TAG_GENERATION: u8 = 0x16;
const TAG_KEYS: u8 = 0x17;

/// Why a binary payload could not be decoded.
///
/// Carries a human-readable description of the first malformed byte range;
/// converts into a [`ServiceErrorKind::Transport`] error at the transport
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed binary payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::transport(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("wire count exceeds u32::MAX"));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// A length-prefixed run of raw IEEE-754 `f64` bit patterns — the hot path of
/// the codec.  The loop compiles to a straight memory copy on little-endian
/// targets; there is no per-element formatting.
fn put_f64_run(out: &mut Vec<u8>, values: &[f64]) {
    put_count(out, values.len());
    put_f64_raw(out, values);
}

/// The raw `f64` bytes of `values`, with the count implied by context (matrix
/// data, whose length is fixed by the already-written cell count).
fn put_f64_raw(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

/// Cursor over a binary payload.  Every read names what it expects, so a
/// truncated or corrupted payload produces an error pinpointing the first
/// malformed field instead of a generic failure.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Self {
            buf: payload,
            pos: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "truncated at byte {} reading {what} ({n} bytes needed, {} left)",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A `u32` element count, sanity-bounded by the bytes actually present:
    /// each element needs at least `min_elem_bytes`, so a hostile count can
    /// never trigger an over-allocation beyond the payload size.
    fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::new(format!(
                "{what} count {n} exceeds the {} bytes left in the payload",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let n = self.count(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::new(format!("{what} is not utf-8: {e}")))
    }

    fn f64_exact(&mut self, n: usize, what: &str) -> Result<Vec<f64>, WireError> {
        let need = n
            .checked_mul(8)
            .ok_or_else(|| WireError::new(format!("{what} count {n} overflows")))?;
        let bytes = self.take(need, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn f64_run(&mut self, what: &str) -> Result<Vec<f64>, WireError> {
        let n = self.count(8, what)?;
        self.f64_exact(n, what)
    }

    fn tag(&mut self, expected: u8, what: &str) -> Result<(), WireError> {
        let got = self.u8(what)?;
        if got != expected {
            return Err(WireError::new(format!(
                "expected tag {expected:#04x} ({what}) at byte {}, got {got:#04x}",
                self.pos - 1
            )));
        }
        Ok(())
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::new(format!(
                "{} trailing bytes after the message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared sub-encodings
// ---------------------------------------------------------------------------

fn put_version(out: &mut Vec<u8>, v: &ProtocolVersion) {
    put_u16(out, v.major);
    put_u16(out, v.minor);
}

fn read_version(r: &mut WireReader<'_>) -> Result<ProtocolVersion, WireError> {
    Ok(ProtocolVersion {
        major: r.u16("version.major")?,
        minor: r.u16("version.minor")?,
    })
}

fn put_matrix_request(out: &mut Vec<u8>, m: &MatrixRequest) {
    put_u8(out, m.privacy_level);
    put_u64(out, m.delta as u64);
}

fn read_matrix_request(r: &mut WireReader<'_>) -> Result<MatrixRequest, WireError> {
    Ok(MatrixRequest {
        privacy_level: r.u8("request.privacy_level")?,
        delta: usize::try_from(r.u64("request.delta")?)
            .map_err(|_| WireError::new("request.delta exceeds usize"))?,
    })
}

fn kind_to_byte(kind: ServiceErrorKind) -> u8 {
    match kind {
        ServiceErrorKind::UnsupportedVersion => 0,
        ServiceErrorKind::InvalidRequest => 1,
        ServiceErrorKind::Generation => 2,
        ServiceErrorKind::Transport => 3,
        ServiceErrorKind::Internal => 4,
        // Added in protocol 1.3 (admission-control sheds); bytes are
        // append-only so 1.2 decoders keep reading every pre-1.3 kind.
        ServiceErrorKind::Overloaded => 5,
        // Added in protocol 1.4 (keyed frame authentication).
        ServiceErrorKind::Unauthenticated => 6,
    }
}

fn byte_to_kind(byte: u8) -> Result<ServiceErrorKind, WireError> {
    match byte {
        0 => Ok(ServiceErrorKind::UnsupportedVersion),
        1 => Ok(ServiceErrorKind::InvalidRequest),
        2 => Ok(ServiceErrorKind::Generation),
        3 => Ok(ServiceErrorKind::Transport),
        4 => Ok(ServiceErrorKind::Internal),
        5 => Ok(ServiceErrorKind::Overloaded),
        6 => Ok(ServiceErrorKind::Unauthenticated),
        other => Err(WireError::new(format!("unknown error kind {other}"))),
    }
}

fn put_service_error(out: &mut Vec<u8>, e: &ServiceError) {
    put_u8(out, kind_to_byte(e.kind));
    put_str(out, &e.message);
}

fn read_service_error(r: &mut WireReader<'_>) -> Result<ServiceError, WireError> {
    let kind = byte_to_kind(r.u8("error.kind")?)?;
    let message = r.str("error.message")?;
    Ok(ServiceError { kind, message })
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

fn read_opt_str(r: &mut WireReader<'_>, what: &str) -> Result<Option<String>, WireError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.str(what)?)),
        other => Err(WireError::new(format!(
            "invalid option presence byte {other}"
        ))),
    }
}

fn put_forest(out: &mut Vec<u8>, f: &PrivacyForestResponse) {
    put_u8(out, TAG_REQUEST);
    put_matrix_request(out, &f.request);
    put_u8(out, TAG_EPSILON);
    put_f64(out, f.epsilon);
    put_u8(out, TAG_ENTRIES);
    put_count(out, f.entries.len());
    for entry in &f.entries {
        put_u64(out, entry.subtree_root.pack());
        let cells = entry.matrix.cells();
        put_count(out, cells.len());
        for cell in cells {
            put_u64(out, cell.pack());
        }
        put_f64_raw(out, entry.matrix.data());
    }
}

/// The binary encoding of one privacy forest: the `forest body` of the
/// layouts above, encoded once and shared.
///
/// The [`ForestCache`] keeps one beside each resident forest, so the reply to
/// a hit is a per-request envelope head plus a copy of these bytes
/// ([`WireCodec::encode_forest_reply`]) instead of a re-encode of every
/// matrix.  Cloning shares the bytes.  Only the cache makes one, and
/// [`ForestCache::encoded_hit`] hands it out.
///
/// [`ForestCache`]: crate::ForestCache
/// [`ForestCache::encoded_hit`]: crate::ForestCache::encoded_hit
#[derive(Clone, PartialEq, Eq)]
pub struct ForestBody(Arc<[u8]>);

impl ForestBody {
    /// Encode `forest` exactly as a `Response` frame's forest payload carries
    /// it.
    pub(crate) fn encode(forest: &PrivacyForestResponse) -> Self {
        let mut out = Vec::new();
        put_forest(&mut out, forest);
        Self(out.into())
    }
}

impl fmt::Debug for ForestBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ForestBody({} bytes)", self.0.len())
    }
}

/// The head every `ResponseEnvelope` payload opens with, up to and including
/// the payload tag: `T₁ version T₂ request_id T₄`.
fn put_response_head(out: &mut Vec<u8>, version: &ProtocolVersion, request_id: u64) {
    put_u8(out, TAG_VERSION);
    put_version(out, version);
    put_u8(out, TAG_REQUEST_ID);
    put_u64(out, request_id);
    put_u8(out, TAG_PAYLOAD);
}

/// Bytes of [`put_response_head`] plus the payload discriminant.
const RESPONSE_HEAD_LEN: usize = 1 + 4 + 1 + 8 + 1 + 1;

fn read_forest(r: &mut WireReader<'_>) -> Result<PrivacyForestResponse, WireError> {
    r.tag(TAG_REQUEST, "forest.request")?;
    let request = read_matrix_request(r)?;
    r.tag(TAG_EPSILON, "forest.epsilon")?;
    let epsilon = r.f64("forest.epsilon")?;
    r.tag(TAG_ENTRIES, "forest.entries")?;
    // Each entry carries at least a root id and a cell count.
    let n = r.count(12, "forest.entries")?;
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let subtree_root = CellId::unpack(r.u64("entry.subtree_root")?);
        let k = r.count(8, "entry.cells")?;
        let mut cells = Vec::with_capacity(k);
        for _ in 0..k {
            cells.push(CellId::unpack(r.u64("entry.cell")?));
        }
        let kk = k
            .checked_mul(k)
            .ok_or_else(|| WireError::new("entry cell count overflows"))?;
        let data = r.f64_exact(kk, "entry.matrix data")?;
        let matrix = ObfuscationMatrix::from_wire_parts(cells, data)
            .map_err(|e| WireError::new(format!("entry {i}: {e}")))?;
        entries.push(ForestEntry {
            subtree_root,
            matrix,
        });
    }
    Ok(PrivacyForestResponse {
        request,
        epsilon,
        entries,
    })
}

// ---------------------------------------------------------------------------
// The message trait and its implementations
// ---------------------------------------------------------------------------

/// A frame payload: one of the message types of the wire protocol, able to
/// encode/decode itself in the hand-written encoding of this module.
pub trait WireMessage: Sized {
    /// The frame kind this message travels in.
    const KIND: FrameKind;

    /// Append the binary encoding of `self` to `out`.
    fn encode_binary(&self, out: &mut Vec<u8>);

    /// Decode one message from the reader (the caller checks for trailing
    /// bytes via [`WireReader::finish`]).
    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl WireMessage for RequestEnvelope {
    const KIND: FrameKind = FrameKind::Request;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_VERSION);
        put_version(out, &self.version);
        put_u8(out, TAG_REQUEST_ID);
        put_u64(out, self.request_id);
        put_u8(out, TAG_REQUEST);
        put_matrix_request(out, &self.request);
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_VERSION, "envelope.version")?;
        let version = read_version(r)?;
        r.tag(TAG_REQUEST_ID, "envelope.request_id")?;
        let request_id = r.u64("envelope.request_id")?;
        r.tag(TAG_REQUEST, "envelope.request")?;
        let request = read_matrix_request(r)?;
        Ok(Self {
            version,
            request_id,
            request,
        })
    }
}

impl WireMessage for ResponseEnvelope {
    const KIND: FrameKind = FrameKind::Response;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_response_head(out, &self.version, self.request_id);
        match &self.payload {
            ResponsePayload::Forest(forest) => {
                put_u8(out, 0);
                put_forest(out, forest);
            }
            ResponsePayload::Error(error) => {
                put_u8(out, 1);
                put_service_error(out, error);
            }
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_VERSION, "envelope.version")?;
        let version = read_version(r)?;
        r.tag(TAG_REQUEST_ID, "envelope.request_id")?;
        let request_id = r.u64("envelope.request_id")?;
        r.tag(TAG_PAYLOAD, "envelope.payload")?;
        let payload = match r.u8("payload discriminant")? {
            0 => ResponsePayload::Forest(Arc::new(read_forest(r)?)),
            1 => ResponsePayload::Error(read_service_error(r)?),
            other => {
                return Err(WireError::new(format!(
                    "unknown response payload discriminant {other}"
                )))
            }
        };
        Ok(Self {
            version,
            request_id,
            payload,
        })
    }
}

impl WireMessage for WarmRequest {
    const KIND: FrameKind = FrameKind::Warm;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_LEVELS);
        put_count(out, self.privacy_levels.len());
        out.extend_from_slice(&self.privacy_levels);
        put_u8(out, TAG_DELTAS);
        put_count(out, self.deltas.len());
        for &delta in &self.deltas {
            put_u64(out, delta as u64);
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_LEVELS, "warm.privacy_levels")?;
        let n = r.count(1, "warm.privacy_levels")?;
        let privacy_levels = r.take(n, "warm.privacy_levels")?.to_vec();
        r.tag(TAG_DELTAS, "warm.deltas")?;
        let n = r.count(8, "warm.deltas")?;
        let mut deltas = Vec::with_capacity(n);
        for _ in 0..n {
            deltas.push(
                usize::try_from(r.u64("warm.delta")?)
                    .map_err(|_| WireError::new("warm.delta exceeds usize"))?,
            );
        }
        Ok(Self {
            privacy_levels,
            deltas,
        })
    }
}

impl WireMessage for WarmReport {
    const KIND: FrameKind = FrameKind::WarmReply;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_COUNTS);
        put_u64(out, self.requested as u64);
        put_u64(out, self.warmed as u64);
        put_u64(out, self.elapsed_ms);
        put_u8(out, TAG_FAILURES);
        put_count(out, self.failures.len());
        for failure in &self.failures {
            put_u8(out, failure.privacy_level);
            put_u64(out, failure.delta as u64);
            put_service_error(out, &failure.error);
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_COUNTS, "report.counts")?;
        let requested = usize::try_from(r.u64("report.requested")?)
            .map_err(|_| WireError::new("report.requested exceeds usize"))?;
        let warmed = usize::try_from(r.u64("report.warmed")?)
            .map_err(|_| WireError::new("report.warmed exceeds usize"))?;
        let elapsed_ms = r.u64("report.elapsed_ms")?;
        r.tag(TAG_FAILURES, "report.failures")?;
        // Each failure carries at least a level, a delta and an error header.
        let n = r.count(14, "report.failures")?;
        let mut failures = Vec::with_capacity(n);
        for _ in 0..n {
            let privacy_level = r.u8("failure.privacy_level")?;
            let delta = usize::try_from(r.u64("failure.delta")?)
                .map_err(|_| WireError::new("failure.delta exceeds usize"))?;
            let error = read_service_error(r)?;
            failures.push(WarmFailure {
                privacy_level,
                delta,
                error,
            });
        }
        Ok(Self {
            requested,
            warmed,
            failures,
            elapsed_ms,
        })
    }
}

impl WireMessage for HelloFrame {
    const KIND: FrameKind = FrameKind::Hello;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_VERSION);
        put_version(out, &self.version);
        put_u8(out, TAG_AUTH);
        put_opt_str(out, &self.auth);
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_VERSION, "hello.version")?;
        let version = read_version(r)?;
        r.tag(TAG_AUTH, "hello.auth")?;
        let auth = read_opt_str(r, "hello.auth")?;
        Ok(Self { version, auth })
    }
}

impl WireMessage for HelloReply {
    const KIND: FrameKind = FrameKind::HelloReply;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            HelloReply::Accepted {
                version,
                grid,
                prior,
                auth,
            } => {
                put_u8(out, 0);
                put_u8(out, TAG_VERSION);
                put_version(out, version);
                put_u8(out, TAG_GRID);
                put_f64(out, grid.center.lat());
                put_f64(out, grid.center.lng());
                put_u8(out, grid.height);
                put_f64(out, grid.leaf_spacing_km);
                put_u8(out, TAG_PRIOR);
                put_f64_run(out, prior.probs());
                put_u8(out, TAG_AUTH);
                put_opt_str(out, auth);
            }
            HelloReply::Rejected(error) => {
                put_u8(out, 1);
                put_service_error(out, error);
            }
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("hello reply discriminant")? {
            0 => {
                r.tag(TAG_VERSION, "reply.version")?;
                let version = read_version(r)?;
                r.tag(TAG_GRID, "reply.grid")?;
                let lat = r.f64("grid.lat")?;
                let lng = r.f64("grid.lng")?;
                let height = r.u8("grid.height")?;
                let leaf_spacing_km = r.f64("grid.leaf_spacing_km")?;
                let center = LatLng::new(lat, lng)
                    .map_err(|e| WireError::new(format!("grid.center: {e}")))?;
                r.tag(TAG_PRIOR, "reply.prior")?;
                let prior = PriorDistribution::from_probs(r.f64_run("reply.prior")?);
                r.tag(TAG_AUTH, "reply.auth")?;
                let auth = read_opt_str(r, "reply.auth")?;
                Ok(HelloReply::Accepted {
                    version,
                    grid: HexGridConfig {
                        center,
                        height,
                        leaf_spacing_km,
                    },
                    prior,
                    auth,
                })
            }
            1 => Ok(HelloReply::Rejected(read_service_error(r)?)),
            other => Err(WireError::new(format!(
                "unknown hello reply discriminant {other}"
            ))),
        }
    }
}

impl WireMessage for WarmPush {
    const KIND: FrameKind = FrameKind::WarmPush;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_REQUEST);
        put_matrix_request(out, &self.request());
        put_u8(out, TAG_FOREST);
        put_u8(out, 1);
        put_forest(out, &self.forest);
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_REQUEST, "push.request")?;
        let request = read_matrix_request(r)?;
        r.tag(TAG_FOREST, "push.forest")?;
        let forest = match r.u8("push.forest presence")? {
            1 => Arc::new(read_forest(r)?),
            0 => return Err(WireError::new("push carries no forest")),
            other => {
                return Err(WireError::new(format!(
                    "invalid option presence byte {other}"
                )))
            }
        };
        Ok(Self {
            privacy_level: request.privacy_level,
            delta: request.delta,
            forest,
        })
    }
}

impl WireMessage for StatsRequest {
    const KIND: FrameKind = FrameKind::Stats;

    fn encode_binary(&self, _out: &mut Vec<u8>) {}

    fn decode_binary(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {})
    }
}

impl WireMessage for Ping {
    const KIND: FrameKind = FrameKind::Ping;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_NONCE);
        put_u64(out, self.nonce);
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_NONCE, "ping.nonce")?;
        Ok(Self {
            nonce: r.u64("ping.nonce")?,
        })
    }
}

impl WireMessage for Pong {
    const KIND: FrameKind = FrameKind::Pong;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_NONCE);
        put_u64(out, self.nonce);
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_NONCE, "pong.nonce")?;
        Ok(Self {
            nonce: r.u64("pong.nonce")?,
        })
    }
}

impl WireMessage for DigestRequest {
    const KIND: FrameKind = FrameKind::Digest;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_PULL);
        match &self.pull {
            None => put_u8(out, 0),
            Some(key) => {
                put_u8(out, 1);
                put_matrix_request(out, key);
            }
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_PULL, "digest.pull")?;
        let pull = match r.u8("digest.pull presence")? {
            0 => None,
            1 => Some(read_matrix_request(r)?),
            other => {
                return Err(WireError::new(format!(
                    "invalid option presence byte {other}"
                )))
            }
        };
        Ok(Self { pull })
    }
}

impl WireMessage for DigestReply {
    const KIND: FrameKind = FrameKind::DigestReply;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_GENERATION);
        put_u64(out, self.generation);
        put_u8(out, TAG_KEYS);
        put_count(out, self.keys.len());
        for key in &self.keys {
            put_matrix_request(out, key);
        }
        put_u8(out, TAG_FOREST);
        match &self.forest {
            None => put_u8(out, 0),
            Some(forest) => {
                put_u8(out, 1);
                put_forest(out, forest);
            }
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_GENERATION, "digest.generation")?;
        let generation = r.u64("digest.generation")?;
        r.tag(TAG_KEYS, "digest.keys")?;
        // Each key carries a privacy level (u8) and a delta (u64).
        let n = r.count(9, "digest.keys")?;
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(read_matrix_request(r)?);
        }
        r.tag(TAG_FOREST, "digest.forest")?;
        let forest = match r.u8("digest.forest presence")? {
            0 => None,
            1 => Some(Arc::new(read_forest(r)?)),
            other => {
                return Err(WireError::new(format!(
                    "invalid option presence byte {other}"
                )))
            }
        };
        Ok(Self {
            generation,
            keys,
            forest,
        })
    }
}

fn put_cluster_stats(out: &mut Vec<u8>, c: &ClusterStats) {
    put_u64(out, c.pushes_received);
    put_u64(out, c.pushes_deduped);
    put_u64(out, c.auth_rejections);
    put_u64(out, c.failovers);
    put_u64(out, c.rank_memo_hits);
    put_u64(out, c.probes_sent);
    put_u64(out, c.peers_down);
    put_u64(out, c.rewarm_keys_pulled);
    put_u64(out, c.pushes_repaired);
    put_count(out, c.peers.len());
    for peer in &c.peers {
        put_str(out, &peer.endpoint);
        put_u64(out, peer.pushes_sent);
        put_u64(out, peer.pushes_dropped);
        put_u64(out, peer.queue_depth);
        put_u64(out, peer.connects);
        put_u64(out, peer.link_errors);
        put_u64(out, peer.requests);
    }
}

fn read_cluster_stats(r: &mut WireReader<'_>) -> Result<ClusterStats, WireError> {
    let pushes_received = r.u64("cluster.pushes_received")?;
    let pushes_deduped = r.u64("cluster.pushes_deduped")?;
    let auth_rejections = r.u64("cluster.auth_rejections")?;
    let failovers = r.u64("cluster.failovers")?;
    let rank_memo_hits = r.u64("cluster.rank_memo_hits")?;
    let probes_sent = r.u64("cluster.probes_sent")?;
    let peers_down = r.u64("cluster.peers_down")?;
    let rewarm_keys_pulled = r.u64("cluster.rewarm_keys_pulled")?;
    let pushes_repaired = r.u64("cluster.pushes_repaired")?;
    // Each peer carries at least an endpoint length and six counters.
    let n = r.count(52, "cluster.peers")?;
    let mut peers = Vec::with_capacity(n);
    for _ in 0..n {
        peers.push(PeerStats {
            endpoint: r.str("peer.endpoint")?,
            pushes_sent: r.u64("peer.pushes_sent")?,
            pushes_dropped: r.u64("peer.pushes_dropped")?,
            queue_depth: r.u64("peer.queue_depth")?,
            connects: r.u64("peer.connects")?,
            link_errors: r.u64("peer.link_errors")?,
            requests: r.u64("peer.requests")?,
        });
    }
    Ok(ClusterStats {
        pushes_received,
        pushes_deduped,
        auth_rejections,
        failovers,
        rank_memo_hits,
        probes_sent,
        peers_down,
        rewarm_keys_pulled,
        pushes_repaired,
        peers,
    })
}

impl WireMessage for StatsReport {
    const KIND: FrameKind = FrameKind::StatsReply;

    fn encode_binary(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_TRANSPORT);
        let t = &self.transport;
        for v in [
            t.connections_accepted,
            t.connections_closed,
            t.binary_connections,
            t.frames_in,
            t.frames_out,
            t.bytes_in,
            t.bytes_out,
            t.backpressure_stalls,
            t.requests_admitted,
            t.requests_shed,
            t.read_buffer_high_water,
            t.transport_errors,
            t.poisoned_connections,
        ] {
            put_u64(out, v);
        }
        put_u8(out, TAG_CACHE);
        match &self.cache {
            None => put_u8(out, 0),
            Some(c) => {
                put_u8(out, 1);
                put_u64(out, c.hits);
                put_u64(out, c.misses);
                put_u64(out, c.coalesced);
                put_u64(out, c.evictions);
                put_u64(out, c.entries as u64);
            }
        }
        put_u8(out, TAG_CLUSTER);
        match &self.cluster {
            None => put_u8(out, 0),
            Some(cluster) => {
                put_u8(out, 1);
                put_cluster_stats(out, cluster);
            }
        }
    }

    fn decode_binary(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.tag(TAG_TRANSPORT, "stats.transport")?;
        let transport = TransportStats {
            connections_accepted: r.u64("transport.connections_accepted")?,
            connections_closed: r.u64("transport.connections_closed")?,
            binary_connections: r.u64("transport.binary_connections")?,
            frames_in: r.u64("transport.frames_in")?,
            frames_out: r.u64("transport.frames_out")?,
            bytes_in: r.u64("transport.bytes_in")?,
            bytes_out: r.u64("transport.bytes_out")?,
            backpressure_stalls: r.u64("transport.backpressure_stalls")?,
            requests_admitted: r.u64("transport.requests_admitted")?,
            requests_shed: r.u64("transport.requests_shed")?,
            read_buffer_high_water: r.u64("transport.read_buffer_high_water")?,
            transport_errors: r.u64("transport.transport_errors")?,
            poisoned_connections: r.u64("transport.poisoned_connections")?,
        };
        r.tag(TAG_CACHE, "stats.cache")?;
        let cache = match r.u8("stats.cache presence")? {
            0 => None,
            1 => Some(CacheStats {
                hits: r.u64("cache.hits")?,
                misses: r.u64("cache.misses")?,
                coalesced: r.u64("cache.coalesced")?,
                evictions: r.u64("cache.evictions")?,
                entries: usize::try_from(r.u64("cache.entries")?)
                    .map_err(|_| WireError::new("cache.entries exceeds usize"))?,
            }),
            other => {
                return Err(WireError::new(format!(
                    "invalid option presence byte {other}"
                )))
            }
        };
        r.tag(TAG_CLUSTER, "stats.cluster")?;
        let cluster = match r.u8("stats.cluster presence")? {
            0 => None,
            1 => Some(read_cluster_stats(r)?),
            other => {
                return Err(WireError::new(format!(
                    "invalid option presence byte {other}"
                )))
            }
        };
        Ok(Self {
            transport,
            cache,
            cluster,
        })
    }
}

// ---------------------------------------------------------------------------
// Codec dispatch
// ---------------------------------------------------------------------------

impl WireCodec {
    /// Encode `message` as one complete frame — header and payload in a
    /// single buffer.  The 7 header bytes are reserved up front and patched
    /// in place once the payload length is known, so there is no
    /// encode-then-copy double buffering step.
    pub fn encode_frame<M: WireMessage>(self, message: &M) -> Vec<u8> {
        let mut frame = vec![0u8; FRAME_HEADER_LEN];
        message.encode_binary(&mut frame);
        seal_frame(frame, M::KIND)
    }

    /// The `Response` frame answering `request_id` with an already-encoded
    /// forest: byte for byte
    /// `self.encode_frame(&ResponseEnvelope::forest(request_id, forest))` for
    /// the forest `body` was encoded from, without re-encoding a matrix.
    /// Capacity for a MAC trailer is reserved, so sealing the frame on a
    /// keyed connection never reallocates it.
    pub fn encode_forest_reply(self, request_id: u64, body: &ForestBody) -> Vec<u8> {
        let body = &body.0;
        let mut frame =
            Vec::with_capacity(FRAME_HEADER_LEN + RESPONSE_HEAD_LEN + body.len() + MAC_LEN);
        frame.resize(FRAME_HEADER_LEN, 0);
        put_response_head(&mut frame, &PROTOCOL_VERSION, request_id);
        put_u8(&mut frame, 0);
        frame.extend_from_slice(body);
        seal_frame(frame, FrameKind::Response)
    }

    /// Decode a frame payload into a message, borrowing from the caller's
    /// read buffer (no intermediate copy of the payload bytes).  The payload
    /// must hold exactly one message: trailing bytes are an error.
    pub fn decode_payload<M: WireMessage>(self, payload: &[u8]) -> Result<M, ServiceError> {
        let mut reader = WireReader::new(payload);
        let message = M::decode_binary(&mut reader)?;
        reader.finish()?;
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_forest() -> PrivacyForestResponse {
        let grid = corgi_hexgrid::HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let entries: Vec<ForestEntry> = grid
            .cells_at_level(1)
            .into_iter()
            .take(3)
            .map(|root| ForestEntry {
                subtree_root: root,
                matrix: ObfuscationMatrix::uniform(root.descendant_leaves()).unwrap(),
            })
            .collect();
        PrivacyForestResponse {
            request: MatrixRequest {
                privacy_level: 1,
                delta: 2,
            },
            epsilon: 15.0,
            entries,
        }
    }

    fn binary_roundtrip<M: WireMessage + PartialEq + std::fmt::Debug>(message: &M) {
        let frame = WireCodec::Binary.encode_frame(message);
        let mut buf = frame.clone();
        let (kind, payload) = crate::frame::try_decode_frame(&mut buf, usize::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(kind, M::KIND);
        let back: M = WireCodec::Binary.decode_payload(&payload).unwrap();
        assert_eq!(&back, message);
    }

    #[test]
    fn every_message_type_round_trips() {
        binary_roundtrip(&RequestEnvelope::new(
            u64::MAX,
            MatrixRequest {
                privacy_level: 3,
                delta: 7,
            },
        ));
        binary_roundtrip(&ResponseEnvelope::forest(42, Arc::new(sample_forest())));
        binary_roundtrip(&ResponseEnvelope::error(
            0,
            ServiceError::new(ServiceErrorKind::Generation, "solver diverged"),
        ));
        binary_roundtrip(&ResponseEnvelope::error(
            7,
            ServiceError::overloaded("dispatch backlog at 64; retry"),
        ));
        binary_roundtrip(&WarmRequest {
            privacy_levels: vec![1, 2, 3],
            deltas: vec![0, 1, 4],
        });
        binary_roundtrip(&WarmReport {
            requested: 4,
            warmed: 3,
            failures: vec![WarmFailure {
                privacy_level: 9,
                delta: 1,
                error: ServiceError::new(ServiceErrorKind::InvalidRequest, "level 9"),
            }],
            elapsed_ms: 1234,
        });
        binary_roundtrip(&HelloFrame::current());
        binary_roundtrip(&HelloFrame::current().authenticated());
        binary_roundtrip(&HelloReply::Accepted {
            version: PROTOCOL_VERSION,
            grid: HexGridConfig::san_francisco(),
            prior: PriorDistribution::from_probs(vec![0.25, 0.5, 0.25]),
            auth: Some(crate::auth::AUTH_SCHEME.to_string()),
        });
        binary_roundtrip(&HelloReply::Rejected(ServiceError::unsupported_version(
            ProtocolVersion { major: 9, minor: 0 },
        )));
        binary_roundtrip(&ResponseEnvelope::error(
            0,
            ServiceError::unauthenticated("frame failed authentication"),
        ));
        // Protocol 1.4 cluster messages.
        binary_roundtrip(&WarmPush {
            privacy_level: 1,
            delta: 0,
            forest: Arc::new(sample_forest()),
        });
        binary_roundtrip(&StatsRequest {});
        binary_roundtrip(&StatsReport {
            transport: TransportStats {
                connections_accepted: 3,
                connections_closed: 1,
                binary_connections: 2,
                frames_in: 100,
                frames_out: 99,
                bytes_in: 4096,
                bytes_out: 70_000,
                backpressure_stalls: 1,
                requests_admitted: 97,
                requests_shed: 2,
                read_buffer_high_water: 512,
                transport_errors: 1,
                poisoned_connections: 0,
            },
            cache: Some(CacheStats {
                hits: 90,
                misses: 7,
                coalesced: 3,
                evictions: 1,
                entries: 6,
            }),
            cluster: Some(ClusterStats {
                pushes_received: 5,
                pushes_deduped: 2,
                auth_rejections: 4,
                failovers: 0,
                rank_memo_hits: 8,
                probes_sent: 21,
                peers_down: 1,
                rewarm_keys_pulled: 6,
                pushes_repaired: 4,
                peers: vec![PeerStats {
                    endpoint: "127.0.0.1:9001".into(),
                    pushes_sent: 7,
                    pushes_dropped: 3,
                    queue_depth: 1,
                    connects: 2,
                    link_errors: 1,
                    requests: 0,
                }],
            }),
        });
        binary_roundtrip(&StatsReport {
            transport: TransportStats::default(),
            cache: None,
            cluster: None,
        });
        // Protocol 1.5 resilience messages.
        binary_roundtrip(&Ping { nonce: u64::MAX });
        binary_roundtrip(&Pong { nonce: 0 });
        binary_roundtrip(&DigestRequest { pull: None });
        binary_roundtrip(&DigestRequest {
            pull: Some(MatrixRequest {
                privacy_level: 2,
                delta: 1,
            }),
        });
        binary_roundtrip(&DigestReply {
            generation: 343,
            keys: vec![
                MatrixRequest {
                    privacy_level: 1,
                    delta: 0,
                },
                MatrixRequest {
                    privacy_level: 3,
                    delta: 6,
                },
            ],
            forest: None,
        });
        binary_roundtrip(&DigestReply {
            generation: 1,
            keys: Vec::new(),
            forest: Some(Arc::new(sample_forest())),
        });
    }

    #[test]
    fn request_ids_beyond_2_53_survive_binary_but_not_json_text() {
        // The JSON shim stores numbers as f64, so a u64 id beyond 2^53 cannot
        // round-trip through JSON text — one more reason the wire is binary.
        let envelope = RequestEnvelope::new(
            (1u64 << 53) + 1,
            MatrixRequest {
                privacy_level: 1,
                delta: 0,
            },
        );
        let frame = WireCodec::Binary.encode_frame(&envelope);
        let mut buf = frame;
        let (_, payload) = crate::frame::try_decode_frame(&mut buf, usize::MAX)
            .unwrap()
            .unwrap();
        let back: RequestEnvelope = WireCodec::Binary.decode_payload(&payload).unwrap();
        assert_eq!(back.request_id, (1 << 53) + 1);
        let text = serde_json::to_string(&envelope).unwrap();
        let from_text: RequestEnvelope = serde_json::from_str(&text).unwrap();
        assert_ne!(from_text.request_id, envelope.request_id);
    }

    #[test]
    fn special_f64_values_are_preserved_bit_exactly() {
        let grid = corgi_hexgrid::HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let cells = grid.cells_at_level(1)[0].descendant_leaves();
        let k = cells.len();
        let mut data = vec![0.125f64; k * k];
        data[0] = f64::NAN;
        data[1] = -0.0;
        data[2] = 5e-324; // smallest positive subnormal
        data[3] = f64::INFINITY;
        data[4] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN with payload
        let matrix = ObfuscationMatrix::from_wire_parts(cells.clone(), data.clone()).unwrap();
        let response = ResponseEnvelope::forest(
            7,
            Arc::new(PrivacyForestResponse {
                request: MatrixRequest {
                    privacy_level: 1,
                    delta: 0,
                },
                epsilon: f64::NAN,
                entries: vec![ForestEntry {
                    subtree_root: grid.cells_at_level(1)[0],
                    matrix,
                }],
            }),
        );
        let frame = WireCodec::Binary.encode_frame(&response);
        let mut buf = frame;
        let (_, payload) = crate::frame::try_decode_frame(&mut buf, usize::MAX)
            .unwrap()
            .unwrap();
        let back: ResponseEnvelope = WireCodec::Binary.decode_payload(&payload).unwrap();
        let forest = match back.payload {
            ResponsePayload::Forest(f) => f,
            ResponsePayload::Error(e) => panic!("unexpected error: {e}"),
        };
        assert_eq!(forest.epsilon.to_bits(), f64::NAN.to_bits());
        let got = forest.entries[0].matrix.data();
        assert_eq!(got.len(), data.len());
        for (g, want) in got.iter().zip(&data) {
            assert_eq!(g.to_bits(), want.to_bits(), "bit-exact f64 round trip");
        }
    }

    #[test]
    fn forest_reply_from_a_stored_body_matches_the_envelope_frame() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Bit patterns the codec must copy, never normalize: NaNs with and
        // without payloads, both zeros, subnormals and infinities.
        const SPECIAL: [u64; 8] = [
            0x7ff8_0000_0000_0000,
            0xfff8_0000_dead_beef,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800f_ffff_ffff_ffff,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
        ];
        let grid = corgi_hexgrid::HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let key = crate::auth::ClusterKey::from_secret(b"forest-body-parity");
        let mut rng = StdRng::seed_from_u64(0x00c0_261b);
        for case in 0..24u64 {
            // Alternate level-1 (49 subtrees of 7 cells) and level-2
            // (7 subtrees of 49 cells) shapes, keeping a random prefix.
            let level = 1 + (case % 2) as u8;
            let roots = grid.cells_at_level(level);
            let keep = rng.gen_range(1..=roots.len());
            let value = |rng: &mut StdRng| {
                if rng.gen_range(0..4) == 0 {
                    f64::from_bits(SPECIAL[rng.gen_range(0..SPECIAL.len())])
                } else {
                    rng.gen::<f64>()
                }
            };
            let entries = roots[..keep]
                .iter()
                .map(|&root| {
                    let cells = root.descendant_leaves();
                    let data = (0..cells.len() * cells.len())
                        .map(|_| value(&mut rng))
                        .collect();
                    ForestEntry {
                        subtree_root: root,
                        matrix: ObfuscationMatrix::from_wire_parts(cells, data).unwrap(),
                    }
                })
                .collect();
            let forest = PrivacyForestResponse {
                request: MatrixRequest {
                    privacy_level: level,
                    delta: rng.gen_range(0..=usize::MAX),
                },
                epsilon: value(&mut rng),
                entries,
            };
            // Ids past 2^53 (where JSON numbers lose precision) and the ends
            // of the range.
            let id = match case % 4 {
                0 => (1u64 << 53) + rng.gen_range(1..1_000_000u64),
                1 => u64::MAX - rng.gen_range(0..1_000u64),
                2 => 0,
                _ => rng.gen::<u64>(),
            };
            let body = ForestBody::encode(&forest);
            let inline = WireCodec::Binary.encode_forest_reply(id, &body);
            let envelope =
                WireCodec::Binary.encode_frame(&ResponseEnvelope::forest(id, Arc::new(forest)));
            assert!(inline == envelope, "case {case}: frames differ");
            assert!(
                key.seal(inline) == key.seal(envelope),
                "case {case}: sealed frames differ"
            );
        }
    }

    #[test]
    fn corrupted_payloads_fail_with_structured_errors() {
        let envelope = RequestEnvelope::new(
            1,
            MatrixRequest {
                privacy_level: 1,
                delta: 0,
            },
        );
        let mut payload = Vec::new();
        envelope.encode_binary(&mut payload);

        // Truncation at every prefix length fails cleanly (never panics).
        for cut in 0..payload.len() {
            let err = WireCodec::Binary
                .decode_payload::<RequestEnvelope>(&payload[..cut])
                .unwrap_err();
            assert_eq!(err.kind, ServiceErrorKind::Transport);
        }
        // Trailing garbage is rejected.
        let mut long = payload.clone();
        long.push(0);
        let err = WireCodec::Binary
            .decode_payload::<RequestEnvelope>(&long)
            .unwrap_err();
        assert_eq!(err.kind, ServiceErrorKind::Transport);
        assert!(err.message.contains("trailing"), "{}", err.message);
        // A wrong leading tag is named in the error.
        let mut bad = payload.clone();
        bad[0] = 0x7f;
        let err = WireCodec::Binary
            .decode_payload::<RequestEnvelope>(&bad)
            .unwrap_err();
        assert!(err.message.contains("tag"), "{}", err.message);
        // JSON bytes (what a 1.x peer would send): structured error too.
        let err = WireCodec::Binary
            .decode_payload::<RequestEnvelope>(br#"{"request_id":1}"#)
            .unwrap_err();
        assert_eq!(err.kind, ServiceErrorKind::Transport);
    }

    #[test]
    fn hostile_counts_cannot_overallocate() {
        // A response claiming u32::MAX forest entries in a tiny payload must
        // be rejected by the count/remaining-bytes sanity bound, not
        // by an allocation failure.
        let mut payload = Vec::new();
        put_u8(&mut payload, TAG_VERSION);
        put_version(&mut payload, &PROTOCOL_VERSION);
        put_u8(&mut payload, TAG_REQUEST_ID);
        put_u64(&mut payload, 1);
        put_u8(&mut payload, TAG_PAYLOAD);
        put_u8(&mut payload, 0); // forest
        put_u8(&mut payload, TAG_REQUEST);
        put_matrix_request(
            &mut payload,
            &MatrixRequest {
                privacy_level: 1,
                delta: 0,
            },
        );
        put_u8(&mut payload, TAG_EPSILON);
        put_f64(&mut payload, 1.0);
        put_u8(&mut payload, TAG_ENTRIES);
        put_u32(&mut payload, u32::MAX);
        let err = WireCodec::Binary
            .decode_payload::<ResponseEnvelope>(&payload)
            .unwrap_err();
        assert_eq!(err.kind, ServiceErrorKind::Transport);
        assert!(err.message.contains("count"), "{}", err.message);
    }

    #[test]
    fn binary_forest_is_much_smaller_than_json() {
        let response = ResponseEnvelope::forest(1, Arc::new(sample_forest()));
        let binary = WireCodec::Binary.encode_frame(&response);
        let json = serde_json::to_string(&response).unwrap();
        assert!(
            binary.len() * 2 < json.len(),
            "binary {}B should be well under half of JSON {}B",
            binary.len(),
            json.len()
        );
    }
}
