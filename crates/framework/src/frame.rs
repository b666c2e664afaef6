//! The frame format of the wire — header rules, [`FrameKind`], the hello
//! payloads; the layout is drawn in the `transport` module docs, which
//! re-export every public name here — and [`FrameStream`], the one
//! nonblocking frame loop.  The server's `ConnectionTask` and the peer links
//! of [`crate::cluster`] both run on it.  The blocking exchange of
//! [`TcpTransport`](crate::TcpTransport) does not: it reads each reply with
//! one `read_exact` straight into its final buffer.

use crate::auth::{ClusterKey, AUTH_SCHEME};
use crate::messages::{ProtocolVersion, ServiceError, PROTOCOL_VERSION};
use crate::transport::TransportMetrics;
use corgi_datagen::PriorDistribution;
use corgi_hexgrid::HexGridConfig;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// First two bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"CG";
/// Bytes before the payload: magic (2) + kind (1) + big-endian length (4).
pub const FRAME_HEADER_LEN: usize = 7;

/// Frame kinds of the wire protocol (the third header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: the handshake opener ([`HelloFrame`]).
    Hello = 0,
    /// Server → client: the handshake outcome ([`HelloReply`]).
    HelloReply = 1,
    /// Client → server: a
    /// [`RequestEnvelope`](crate::messages::RequestEnvelope).
    Request = 2,
    /// Server → client: a
    /// [`ResponseEnvelope`](crate::messages::ResponseEnvelope).
    Response = 3,
    /// Client → server: a [`WarmRequest`](crate::warm::WarmRequest) to
    /// precompute the cache.
    Warm = 4,
    /// Server → client: the [`WarmReport`](crate::warm::WarmReport)
    /// answering a `Warm` frame.
    WarmReply = 5,
    /// Peer → peer: a [`WarmPush`](crate::warm::WarmPush) replicating a
    /// freshly solved cache entry (protocol 1.4).  Fire-and-forget: no reply
    /// frame.
    WarmPush = 6,
    /// Client → server: a [`StatsRequest`](crate::cluster::StatsRequest)
    /// asking for the runtime counters (protocol 1.4).
    Stats = 7,
    /// Server → client: the [`StatsReport`](crate::cluster::StatsReport)
    /// answering a `Stats` frame (protocol 1.4).
    StatsReply = 8,
    /// Peer → peer: a liveness probe carrying a
    /// [`Ping`](crate::cluster::Ping) nonce (protocol 1.5).
    Ping = 9,
    /// Peer → peer: the [`Pong`](crate::cluster::Pong) echoing a probe's
    /// nonce (protocol 1.5).
    Pong = 10,
    /// Peer → peer: a [`DigestRequest`](crate::warm::DigestRequest) asking
    /// for the summary of resident cache keys, or pulling one key's forest
    /// (protocol 1.5).
    Digest = 11,
    /// Peer → peer: the [`DigestReply`](crate::warm::DigestReply) answering
    /// a `Digest` frame (protocol 1.5).
    DigestReply = 12,
}

impl FrameKind {
    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Hello),
            1 => Some(Self::HelloReply),
            2 => Some(Self::Request),
            3 => Some(Self::Response),
            4 => Some(Self::Warm),
            5 => Some(Self::WarmReply),
            6 => Some(Self::WarmPush),
            7 => Some(Self::Stats),
            8 => Some(Self::StatsReply),
            9 => Some(Self::Ping),
            10 => Some(Self::Pong),
            11 => Some(Self::Digest),
            12 => Some(Self::DigestReply),
            _ => None,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 2]),
    /// The kind byte named no known [`FrameKind`].
    UnknownKind(u8),
    /// The length prefix exceeded the configured maximum.
    Oversized {
        /// Length the peer announced.
        len: usize,
        /// Maximum this side accepts.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for ServiceError {
    fn from(e: FrameError) -> Self {
        ServiceError::transport(e.to_string())
    }
}

/// Encode one frame from already-serialized payload bytes.
///
/// This copies `payload` into the frame; the serving paths avoid that copy by
/// serializing straight into a header-reserved buffer (see
/// [`WireCodec::encode_frame`](crate::messages::WireCodec::encode_frame)) —
/// this entry point remains for raw-frame tests and hand-rolled peers.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    frame.extend_from_slice(payload);
    seal_frame(frame, kind)
}

/// Patch the frame header into a buffer whose first [`FRAME_HEADER_LEN`]
/// bytes were reserved before the payload was serialized in place — the
/// single-buffer frame construction of
/// [`WireCodec::encode_frame`](crate::messages::WireCodec::encode_frame).
pub(crate) fn seal_frame(mut frame: Vec<u8>, kind: FrameKind) -> Vec<u8> {
    let payload_len = frame.len() - FRAME_HEADER_LEN;
    frame[0..2].copy_from_slice(&FRAME_MAGIC);
    frame[2] = kind as u8;
    frame[3..7].copy_from_slice(&(payload_len as u32).to_be_bytes());
    frame
}

/// Validate a frame header and return its kind and payload length — the one
/// definition of the header rules, shared by [`FrameStream`] and the
/// client's blocking receive.
pub(crate) fn parse_frame_header(
    header: &[u8; FRAME_HEADER_LEN],
    max_payload: usize,
) -> Result<(FrameKind, usize), FrameError> {
    if header[0..2] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    let kind = FrameKind::from_byte(header[2]).ok_or(FrameError::UnknownKind(header[2]))?;
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    Ok((kind, len))
}

/// Locate one complete frame at the front of `buf` without copying.
///
/// Returns the frame kind and the byte range of its payload within `buf`;
/// the frame occupies `..range.end`.  `Ok(None)` means more bytes are needed
/// (a truncated frame is simply incomplete — callers bound the wait with a
/// deadline); a malformed header fails without consuming so the caller can
/// report and close.
pub fn peek_frame(
    buf: &[u8],
    max_payload: usize,
) -> Result<Option<(FrameKind, std::ops::Range<usize>)>, FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let header: [u8; FRAME_HEADER_LEN] = buf[..FRAME_HEADER_LEN]
        .try_into()
        .expect("slice length checked above");
    let (kind, len) = parse_frame_header(&header, max_payload)?;
    if buf.len() < FRAME_HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some((kind, FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)))
}

/// Try to decode one complete frame from the front of `buf`, consuming it on
/// success.  A copying convenience over [`peek_frame`] for blocking callers
/// and tests.
pub fn try_decode_frame(
    buf: &mut Vec<u8>,
    max_payload: usize,
) -> Result<Option<(FrameKind, Vec<u8>)>, FrameError> {
    match peek_frame(buf, max_payload)? {
        None => Ok(None),
        Some((kind, range)) => {
            let payload = buf[range.clone()].to_vec();
            buf.drain(..range.end);
            Ok(Some((kind, payload)))
        }
    }
}

/// Payload of a [`FrameKind::Hello`] frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloFrame {
    /// Protocol version the connecting client speaks.
    pub version: ProtocolVersion,
    /// Frame-authentication scheme the client announces (protocol 1.4):
    /// `Some("hmac-sha256")` means every post-handshake frame the client
    /// sends will carry a MAC trailer and the client expects the same from
    /// the server.  `None` (unkeyed clients) means plain frames; a keyed
    /// server rejects such a hello with a structured
    /// [`Unauthenticated`](crate::messages::ServiceErrorKind::Unauthenticated)
    /// error.
    pub auth: Option<String>,
}

impl HelloFrame {
    /// An unkeyed hello at the current [`PROTOCOL_VERSION`].
    pub fn current() -> Self {
        Self {
            version: PROTOCOL_VERSION,
            auth: None,
        }
    }

    /// Announce keyed frame authentication (the `hmac-sha256` scheme).
    pub fn authenticated(mut self) -> Self {
        self.auth = Some(AUTH_SCHEME.to_string());
        self
    }
}

/// Payload of a [`FrameKind::HelloReply`] frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HelloReply {
    /// The versions are compatible; the connection is open for envelopes.
    /// Carries everything a remote client needs to mirror the server's public
    /// state: the grid configuration (rebuilding the location tree is
    /// deterministic) and the public prior over leaf cells.
    Accepted {
        /// Protocol version the server speaks.
        version: ProtocolVersion,
        /// Grid configuration; `HexGrid::new(grid)` reproduces the tree.
        grid: HexGridConfig,
        /// Public prior distribution over leaf cells.
        prior: PriorDistribution,
        /// Echo of the agreed frame-authentication scheme (protocol 1.4):
        /// `Some("hmac-sha256")` confirms the MAC trailer is active in both
        /// directions — this accepted reply itself already carries one.
        /// `None` means plain frames.
        auth: Option<String>,
    },
    /// The versions are incompatible, authentication does not match, or the
    /// hello was malformed; the server closes after sending this.
    Rejected(ServiceError),
}

/// The raw descriptor of a socket, for readiness registration with
/// [`Handle::park_socket`](crate::executor::Handle::park_socket); `-1` on
/// targets without raw fds, where the executor is on the tick backend and
/// ignores the value anyway.
#[cfg(unix)]
pub(crate) fn sock_fd<T: std::os::fd::AsRawFd>(sock: &T) -> i32 {
    sock.as_raw_fd()
}
#[cfg(not(unix))]
pub(crate) fn sock_fd<T>(_sock: &T) -> i32 {
    -1
}

/// Bytes asked of the socket per read, and the slack the read buffer keeps
/// beyond one maximal frame.
const READ_CHUNK: usize = 4096;

/// A framed nonblocking socket: a read buffer bounded at one maximal frame
/// plus a read chunk, the walk over the complete frames in it, and a sealing
/// write queue.
///
/// A pass of the walk is [`begin_pass`](Self::begin_pass), then
/// [`next_frame`](Self::next_frame) per frame, then
/// [`end_pass`](Self::end_pass), which consumes the handled frames with one
/// `drain`.  Payloads borrow from the pass, not from the stream, so a caller
/// can queue replies (or switch on authentication, as the server's hello
/// does) while it holds one.
pub(crate) struct FrameStream {
    stream: TcpStream,
    /// Frame-authentication key (`None` means plain frames): inbound frames
    /// are verified and stripped, outbound frames sealed.
    auth: Option<ClusterKey>,
    /// Largest accepted inbound payload, MAC trailer included.
    max_payload: usize,
    metrics: Arc<TransportMetrics>,
    read_buf: Vec<u8>,
    /// Sealed frames awaiting the socket; `write_pos` is the offset into the
    /// front frame already written.
    write_queue: VecDeque<Vec<u8>>,
    write_pos: usize,
}

/// The read buffer taken out of a [`FrameStream`] for one pass of the walk,
/// and how much of it the pass has consumed.
pub(crate) struct FramePass {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameStream {
    /// Wrap a socket already in nonblocking mode.
    pub(crate) fn new(
        stream: TcpStream,
        auth: Option<ClusterKey>,
        max_payload: usize,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        Self {
            stream,
            auth,
            max_payload,
            metrics,
            read_buf: Vec::new(),
            write_queue: VecDeque::new(),
            write_pos: 0,
        }
    }

    /// The socket's raw descriptor, for readiness registration.
    pub(crate) fn fd(&self) -> i32 {
        sock_fd(&self.stream)
    }

    /// Verify and seal every frame from here on with `key`.
    pub(crate) fn set_auth(&mut self, key: ClusterKey) {
        self.auth = Some(key);
    }

    /// Frames queued and not yet fully written.
    pub(crate) fn queued_frames(&self) -> usize {
        self.write_queue.len()
    }

    /// Whether every queued byte has reached the socket.
    pub(crate) fn is_flushed(&self) -> bool {
        self.write_queue.is_empty()
    }

    /// Read what the socket holds while the buffer is under its bound;
    /// beyond it the socket is left unread, so TCP flow control pushes back
    /// on the peer instead of growing the heap.  Returns whether any byte
    /// arrived; an error means the peer closed or the socket failed.
    pub(crate) fn read_available(&mut self) -> Result<bool, ServiceError> {
        let limit = self.max_payload + FRAME_HEADER_LEN + READ_CHUNK;
        let mut chunk = [0u8; READ_CHUNK];
        let mut progress = false;
        while self.read_buf.len() < limit {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ServiceError::transport("peer closed the connection")),
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    TransportMetrics::add(&self.metrics.bytes_in, n as u64);
                    self.metrics.raise_high_water(self.read_buf.len() as u64);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServiceError::transport(format!("receive failed: {e}"))),
            }
        }
        Ok(progress)
    }

    /// Start a pass over the buffered frames.
    pub(crate) fn begin_pass(&mut self) -> FramePass {
        FramePass {
            buf: std::mem::take(&mut self.read_buf),
            consumed: 0,
        }
    }

    /// The next complete frame of the pass, counted in `frames_in`, with its
    /// MAC trailer verified and stripped when the stream is keyed.
    /// `Ok(None)` means the rest of the buffer is an incomplete frame.  A
    /// malformed header is a `Transport` error and a failed MAC an
    /// `Unauthenticated` one; either ends the connection.
    pub(crate) fn next_frame<'p>(
        &self,
        pass: &'p mut FramePass,
    ) -> Result<Option<(FrameKind, &'p [u8])>, ServiceError> {
        let start = pass.consumed;
        let Some((kind, range)) = peek_frame(&pass.buf[start..], self.max_payload)? else {
            return Ok(None);
        };
        TransportMetrics::add(&self.metrics.frames_in, 1);
        pass.consumed = start + range.end;
        // With authentication active the MAC covers the whole frame (header
        // included) and the verified payload excludes the trailer the header
        // length counted.
        let frame = &pass.buf[start..pass.consumed];
        match &self.auth {
            Some(key) => key
                .open(frame)
                .map(|payload| Some((kind, payload)))
                .map_err(|e| {
                    ServiceError::unauthenticated(format!("frame failed authentication: {e}"))
                }),
            None => Ok(Some((kind, &frame[range]))),
        }
    }

    /// Give the buffer back, without the frames the pass handled.
    pub(crate) fn end_pass(&mut self, pass: FramePass) {
        self.read_buf = pass.buf;
        self.read_buf.drain(..pass.consumed);
    }

    /// Count an outbound frame in `frames_out` and append its MAC trailer
    /// when the stream is keyed.
    pub(crate) fn seal(&self, frame: Vec<u8>) -> Vec<u8> {
        TransportMetrics::add(&self.metrics.frames_out, 1);
        match &self.auth {
            Some(key) => key.seal(frame),
            None => frame,
        }
    }

    /// Queue a [sealed](Self::seal) frame for [`flush`](Self::flush).
    pub(crate) fn enqueue(&mut self, sealed: Vec<u8>) {
        self.write_queue.push_back(sealed);
    }

    /// Drop every queued frame, a partly written one included: the
    /// connection is being cut.
    pub(crate) fn clear_queue(&mut self) {
        self.write_queue.clear();
        self.write_pos = 0;
    }

    /// Write queued frames until the socket would block.  Returns whether
    /// any byte was written; an error means the peer is gone.
    pub(crate) fn flush(&mut self) -> Result<bool, ServiceError> {
        let mut progress = false;
        while let Some(front) = self.write_queue.front() {
            match self.stream.write(&front[self.write_pos..]) {
                Ok(0) => return Err(ServiceError::transport("peer stopped accepting bytes")),
                Ok(n) => {
                    self.write_pos += n;
                    TransportMetrics::add(&self.metrics.bytes_out, n as u64);
                    progress = true;
                    if self.write_pos == front.len() {
                        self.write_queue.pop_front();
                        self.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServiceError::transport(format!("send failed: {e}"))),
            }
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ServiceErrorKind;

    #[test]
    fn frames_roundtrip_through_the_incremental_decoder() {
        let payload = br#"{"hello":"world"}"#;
        let mut buf = encode_frame(FrameKind::Request, payload);
        // Arrives in two halves: first read yields nothing, second completes.
        let tail = buf.split_off(5);
        let mut incoming = buf;
        assert_eq!(try_decode_frame(&mut incoming, 1024), Ok(None));
        incoming.extend_from_slice(&tail);
        let (kind, got) = try_decode_frame(&mut incoming, 1024).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(got, payload);
        assert!(incoming.is_empty(), "frame bytes fully consumed");
    }

    #[test]
    fn decoder_separates_back_to_back_frames() {
        let mut buf = encode_frame(FrameKind::Request, b"one");
        buf.extend_from_slice(&encode_frame(FrameKind::Warm, b"two"));
        let (k1, p1) = try_decode_frame(&mut buf, 1024).unwrap().unwrap();
        let (k2, p2) = try_decode_frame(&mut buf, 1024).unwrap().unwrap();
        assert_eq!((k1, p1.as_slice()), (FrameKind::Request, b"one".as_slice()));
        assert_eq!((k2, p2.as_slice()), (FrameKind::Warm, b"two".as_slice()));
        assert_eq!(try_decode_frame(&mut buf, 1024), Ok(None));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = b"XX\x02\x00\x00\x00\x00".to_vec();
        assert_eq!(
            try_decode_frame(&mut buf, 1024),
            Err(FrameError::BadMagic(*b"XX"))
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = encode_frame(FrameKind::Request, b"x");
        buf[2] = 250;
        assert_eq!(
            try_decode_frame(&mut buf, 1024),
            Err(FrameError::UnknownKind(250))
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        // A 4 GiB length prefix must be refused from the 7 header bytes alone.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(FrameKind::Request as u8);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = try_decode_frame(&mut buf, 64 * 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX as usize,
                max: 64 * 1024
            }
        );
        let service_error: ServiceError = err.into();
        assert_eq!(service_error.kind, ServiceErrorKind::Transport);
    }

    #[test]
    fn frame_stream_walks_byte_wise_arrivals_and_refuses_a_bad_mac() {
        use std::net::TcpListener;
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        writer.set_nodelay(true).unwrap();
        let (reader, _) = listener.accept().unwrap();
        reader.set_nonblocking(true).unwrap();
        let key = ClusterKey::from_secret(b"frame stream test key");
        let mut stream = FrameStream::new(
            reader,
            Some(key.clone()),
            1024,
            Arc::new(TransportMetrics::default()),
        );

        // Read and walk once; collect the verified payloads.
        fn pump(stream: &mut FrameStream, got: &mut Vec<(FrameKind, Vec<u8>)>) {
            stream.read_available().unwrap();
            let mut pass = stream.begin_pass();
            while let Some((kind, payload)) = stream.next_frame(&mut pass).unwrap() {
                got.push((kind, payload.to_vec()));
            }
            stream.end_pass(pass);
        }

        let mut bytes = key.seal(encode_frame(FrameKind::Request, b"one"));
        bytes.extend_from_slice(&key.seal(encode_frame(FrameKind::Warm, b"two")));
        let mut got = Vec::new();
        for byte in &bytes {
            writer.write_all(std::slice::from_ref(byte)).unwrap();
            pump(&mut stream, &mut got);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            pump(&mut stream, &mut got);
        }
        assert_eq!(
            got,
            vec![
                (FrameKind::Request, b"one".to_vec()),
                (FrameKind::Warm, b"two".to_vec())
            ]
        );
        assert!(stream.read_buf.is_empty(), "both frames consumed");

        // A flipped trailer byte fails verification.
        let mut tampered = key.seal(encode_frame(FrameKind::Request, b"three"));
        *tampered.last_mut().unwrap() ^= 0xff;
        writer.write_all(&tampered).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            stream.read_available().unwrap();
            let mut pass = stream.begin_pass();
            let outcome = stream.next_frame(&mut pass).map(|frame| frame.is_some());
            stream.end_pass(pass);
            match outcome {
                Ok(false) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                outcome => break outcome,
            }
        };
        let error = outcome.unwrap_err();
        assert_eq!(error.kind, ServiceErrorKind::Unauthenticated, "{error}");
    }
}
