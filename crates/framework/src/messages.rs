//! Wire messages exchanged between the user device and the untrusted server.
//!
//! The messages deliberately contain only the information the paper allows the
//! server to see (Section 5): the privacy level, the *number* of locations that
//! will be pruned (δ), and — in the response — one obfuscation matrix per
//! privacy-forest subtree.  Neither the user's real location nor the identity of
//! the pruned cells ever crosses the trust boundary.
//!
//! Requests and responses travel inside **versioned envelopes**
//! ([`RequestEnvelope`] / [`ResponseEnvelope`]): a [`ProtocolVersion`] lets
//! client and server evolve independently (a major-version mismatch is refused
//! with a structured [`ServiceError`] instead of a deserialization failure), and
//! a caller-chosen `request_id` correlates a response with its request over any
//! transport that reorders replies.
//!
//! On the wire every envelope travels in the binary encoding of
//! [`crate::codec`] ([`WireCodec`]): matrices are raw little-endian `f64`
//! runs, not formatted decimal text.  The serde derives remain for tooling
//! that prints messages as JSON for a human reader; no peer reads JSON.

use corgi_core::{CorgiError, ObfuscationMatrix};
use corgi_hexgrid::CellId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Request sent by the user device to the server (step ④ of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixRequest {
    /// The privacy level selecting the privacy forest.
    pub privacy_level: u8,
    /// Number of locations the user may prune (δ); the server reserves privacy
    /// budget accordingly.
    pub delta: usize,
}

/// One entry of the privacy forest: the subtree root and its robust matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestEntry {
    /// Root cell of the subtree at the requested privacy level.
    pub subtree_root: CellId,
    /// Robust obfuscation matrix over the subtree's leaf cells.
    pub matrix: ObfuscationMatrix,
}

/// Response from the server: the full privacy forest (step ⑤ of Fig. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyForestResponse {
    /// The request this response answers.
    pub request: MatrixRequest,
    /// Privacy budget ε (1/km) the matrices were generated with.
    pub epsilon: f64,
    /// One robust matrix per subtree of the privacy forest.
    pub entries: Vec<ForestEntry>,
}

impl PrivacyForestResponse {
    /// Find the matrix whose subtree contains the given leaf cell.
    pub fn matrix_for_leaf(&self, leaf: &CellId) -> Option<&ForestEntry> {
        self.entries
            .iter()
            .find(|e| e.subtree_root.is_ancestor_of(leaf))
    }
}

/// Version of the client/server wire protocol.
///
/// Compatibility follows semver: envelopes are interoperable iff the major
/// versions match; the minor version only signals additive evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolVersion {
    /// Incremented on breaking changes to the wire format.
    pub major: u16,
    /// Incremented on backwards-compatible additions.
    pub minor: u16,
}

/// The protocol version this build of the framework speaks.
///
/// History: 1.0 introduced the envelopes; 1.1 added the [`Transport`]
/// error kind and the framed TCP handshake of [`crate::transport`]; 1.2
/// added the binary frame codec ([`WireCodec`]); 1.3 added the
/// [`Overloaded`] error kind, replied by a server whose admission control
/// sheds a request instead of queueing it unboundedly; 1.4 added the
/// cluster tier of [`crate::cluster`] — the `WarmPush` peer-replication
/// frame, the `Stats`/`StatsReply` counter frames, HMAC frame
/// authentication agreed in the hello exchange ([`crate::auth`]), and the
/// [`Unauthenticated`] error kind; 1.5 added the cluster resilience layer —
/// `Ping`/`Pong` liveness probe frames driving the per-peer health state
/// machine, `Digest`/`DigestReply` anti-entropy frames (a recovering shard
/// re-warms its cache from peer digests instead of re-solving), and the
/// dual-key HMAC rotation window (`CORGI_CLUSTER_KEY_PREVIOUS`).
///
/// 2.0 is the first breaking change: the wire is binary-only.  The JSON
/// codec is gone, the `Hello`/`HelloReply` exchange travels in the binary
/// encoding like every other frame, and the hello lost its codec fields.  A
/// 1.x peer's JSON hello is refused with a structured
/// [`UnsupportedVersion`] rejection and the connection is closed.
///
/// [`Transport`]: ServiceErrorKind::Transport
/// [`Overloaded`]: ServiceErrorKind::Overloaded
/// [`Unauthenticated`]: ServiceErrorKind::Unauthenticated
/// [`UnsupportedVersion`]: ServiceErrorKind::UnsupportedVersion
pub const PROTOCOL_VERSION: ProtocolVersion = ProtocolVersion { major: 2, minor: 0 };

impl ProtocolVersion {
    /// Whether an envelope carrying `other` can be served by this version.
    pub fn is_compatible_with(&self, other: &ProtocolVersion) -> bool {
        self.major == other.major
    }
}

impl fmt::Display for ProtocolVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// Payload encoding of the framed wire protocol.
///
/// Since protocol 2.0 there is exactly one: the compact tag-prefixed binary
/// encoding of [`crate::codec`] — little-endian fixed-width scalars, packed
/// cell ids, and matrices as length-prefixed raw `f64` runs copied straight
/// from (and into) the in-memory representation.  Every frame uses it, the
/// `Hello`/`HelloReply` bootstrap included, so nothing is agreed per
/// connection.  [`WireCodec::encode_frame`] and [`WireCodec::decode_payload`]
/// are the single encode/decode entry point of the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Compact binary payloads (protocol 1.2+, the only codec since 2.0).
    #[default]
    Binary,
}

impl WireCodec {
    /// Alias of [`Binary`](WireCodec::Binary), kept so code written against
    /// the removed JSON codec still compiles: protocol 2.0 has no JSON wire.
    #[deprecated(note = "protocol 2.0 is binary-only; this alias is `WireCodec::Binary`")]
    #[allow(non_upper_case_globals)]
    pub const Json: WireCodec = WireCodec::Binary;

    /// The codec's name, as printed in logs and benchmark headers.
    pub const fn name(self) -> &'static str {
        match self {
            WireCodec::Binary => "binary",
        }
    }
}

impl fmt::Display for WireCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Versioned wrapper around a [`MatrixRequest`] (the unit actually sent on the
/// wire).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version the client speaks.
    pub version: ProtocolVersion,
    /// Caller-chosen id echoed back in the response envelope.
    pub request_id: u64,
    /// The privacy-forest request itself.
    pub request: MatrixRequest,
}

impl RequestEnvelope {
    /// Wrap a request at the current [`PROTOCOL_VERSION`].
    pub fn new(request_id: u64, request: MatrixRequest) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            request_id,
            request,
        }
    }
}

/// Broad classification of a [`ServiceError`], stable across protocol minors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceErrorKind {
    /// The envelope's major protocol version is not supported by the server.
    UnsupportedVersion,
    /// The request itself is malformed (e.g. a privacy level outside the tree).
    InvalidRequest,
    /// Matrix generation failed (LP solver or numeric failure).
    Generation,
    /// The wire transport failed: malformed or oversized frame, unexpected
    /// frame kind, connection loss, or an I/O timeout (added in 1.1).
    Transport,
    /// The server shed this request under load instead of queueing it
    /// (added in 1.3).  Unlike every other kind this one is *retryable*: the
    /// request was well-formed and the connection remains synchronized — the
    /// server simply refused to take on more work right now.  Clients should
    /// back off and retry on the same connection.
    Overloaded,
    /// Any other server-side failure.
    Internal,
    /// Frame authentication failed (added in 1.4): the peer did not
    /// authenticate against a keyed endpoint, announced authentication the
    /// endpoint cannot verify, or sent a frame whose MAC trailer does not
    /// match its contents.  Not retryable — the connection is being drained
    /// and the client must reconnect with the right cluster key.
    Unauthenticated,
}

/// A structured, serializable error reply — the wire-facing counterpart of
/// [`corgi_core::CorgiError`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Machine-readable classification.
    pub kind: ServiceErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Build an error of the given kind.
    pub fn new(kind: ServiceErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    /// The error replied to an envelope whose major version is unsupported.
    pub fn unsupported_version(got: ProtocolVersion) -> Self {
        Self::new(
            ServiceErrorKind::UnsupportedVersion,
            format!("protocol version {got} is not compatible with {PROTOCOL_VERSION}"),
        )
    }

    /// A wire-transport failure (framing, connection or timeout).
    pub fn transport(message: impl Into<String>) -> Self {
        Self::new(ServiceErrorKind::Transport, message)
    }

    /// The reply sent when admission control sheds a request under load.
    pub fn overloaded(message: impl Into<String>) -> Self {
        Self::new(ServiceErrorKind::Overloaded, message)
    }

    /// The reply sent when frame authentication fails or is missing.
    pub fn unauthenticated(message: impl Into<String>) -> Self {
        Self::new(ServiceErrorKind::Unauthenticated, message)
    }

    /// Whether the failed request may simply be retried.
    ///
    /// True only for [`ServiceErrorKind::Overloaded`]: the request was
    /// well-formed and the connection is still synchronized, the server just
    /// refused to queue more work.  Every other kind signals a fault that a
    /// blind retry would repeat (or a transport failure that requires a
    /// reconnect first).
    pub fn is_retryable(&self) -> bool {
        self.kind == ServiceErrorKind::Overloaded
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<CorgiError> for ServiceError {
    fn from(e: CorgiError) -> Self {
        let kind = match &e {
            CorgiError::InvalidPolicy(_)
            | CorgiError::InvalidEpsilon(_)
            | CorgiError::InvalidPrior(_)
            | CorgiError::OverPruned { .. } => ServiceErrorKind::InvalidRequest,
            CorgiError::Solver(_) => ServiceErrorKind::Generation,
            CorgiError::InvalidMatrix(_) | CorgiError::UnknownCell(_) | CorgiError::Grid(_) => {
                ServiceErrorKind::Internal
            }
        };
        Self::new(kind, e.to_string())
    }
}

impl From<ServiceError> for CorgiError {
    fn from(e: ServiceError) -> Self {
        match e.kind {
            ServiceErrorKind::InvalidRequest => CorgiError::InvalidPolicy(e.message),
            ServiceErrorKind::Generation => CorgiError::Solver(e.message),
            ServiceErrorKind::UnsupportedVersion
            | ServiceErrorKind::Transport
            | ServiceErrorKind::Overloaded
            | ServiceErrorKind::Unauthenticated
            | ServiceErrorKind::Internal => CorgiError::Grid(e.message),
        }
    }
}

/// Payload of a [`ResponseEnvelope`]: the forest, or a structured error.
///
/// The forest is held behind an `Arc` so wrapping a cached response in an
/// envelope shares the matrices instead of deep-copying them; serialization
/// sees through the `Arc` transparently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponsePayload {
    /// Successful reply carrying the privacy forest.
    Forest(std::sync::Arc<PrivacyForestResponse>),
    /// Failure reply carrying a structured error.
    Error(ServiceError),
}

/// Versioned wrapper around the server's reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version the server speaks.
    pub version: ProtocolVersion,
    /// Echo of the request envelope's id.
    pub request_id: u64,
    /// The reply itself.
    pub payload: ResponsePayload,
}

impl ResponseEnvelope {
    /// A successful reply at the current [`PROTOCOL_VERSION`].
    pub fn forest(request_id: u64, response: std::sync::Arc<PrivacyForestResponse>) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            request_id,
            payload: ResponsePayload::Forest(response),
        }
    }

    /// A failure reply at the current [`PROTOCOL_VERSION`].
    pub fn error(request_id: u64, error: ServiceError) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            request_id,
            payload: ResponsePayload::Error(error),
        }
    }

    /// Unwrap the payload into a `Result`.
    pub fn into_result(self) -> Result<std::sync::Arc<PrivacyForestResponse>, ServiceError> {
        match self.payload {
            ResponsePayload::Forest(forest) => Ok(forest),
            ResponsePayload::Error(error) => Err(error),
        }
    }
}

/// The report sent to a third-party location-based service (step ⑥ of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocationReport {
    /// The obfuscated cell at the user's chosen precision level.
    pub reported_cell: CellId,
    /// The precision level of the report (tree level of `reported_cell`).
    pub precision_level: u8,
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgi_hexgrid::{HexGrid, HexGridConfig};

    #[test]
    fn messages_roundtrip_through_json() {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let subtree = grid.cells_at_level(1)[0];
        let matrix = ObfuscationMatrix::uniform(subtree.descendant_leaves()).unwrap();
        let response = PrivacyForestResponse {
            request: MatrixRequest {
                privacy_level: 1,
                delta: 2,
            },
            epsilon: 15.0,
            entries: vec![ForestEntry {
                subtree_root: subtree,
                matrix,
            }],
        };
        let json = serde_json::to_string(&response).unwrap();
        let back: PrivacyForestResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, response);

        let report = LocationReport {
            reported_cell: subtree,
            precision_level: 1,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: LocationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn matrix_lookup_by_leaf() {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let entries: Vec<ForestEntry> = grid
            .cells_at_level(1)
            .into_iter()
            .take(3)
            .map(|root| ForestEntry {
                subtree_root: root,
                matrix: ObfuscationMatrix::uniform(root.descendant_leaves()).unwrap(),
            })
            .collect();
        let response = PrivacyForestResponse {
            request: MatrixRequest {
                privacy_level: 1,
                delta: 0,
            },
            epsilon: 10.0,
            entries,
        };
        let leaf_inside = response.entries[1].subtree_root.descendant_leaves()[4];
        let found = response.matrix_for_leaf(&leaf_inside).unwrap();
        assert_eq!(found.subtree_root, response.entries[1].subtree_root);
        // A leaf from a subtree that was not included is not found.
        let other_leaf = grid.cells_at_level(1)[5].descendant_leaves()[0];
        assert!(response.matrix_for_leaf(&other_leaf).is_none());
    }

    #[test]
    fn envelopes_roundtrip_through_json() {
        let envelope = RequestEnvelope::new(
            42,
            MatrixRequest {
                privacy_level: 1,
                delta: 2,
            },
        );
        let json = serde_json::to_string(&envelope).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
        assert_eq!(back.version, PROTOCOL_VERSION);

        let reply = ResponseEnvelope::error(
            42,
            ServiceError::new(ServiceErrorKind::InvalidRequest, "privacy level 9"),
        );
        let json = serde_json::to_string(&reply).unwrap();
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.request_id, 42);
        let err = back.into_result().unwrap_err();
        assert_eq!(err.kind, ServiceErrorKind::InvalidRequest);
    }

    #[test]
    fn version_compatibility_is_major_only() {
        let v1_0 = ProtocolVersion { major: 1, minor: 0 };
        let v1_3 = ProtocolVersion { major: 1, minor: 3 };
        let v2_0 = ProtocolVersion { major: 2, minor: 0 };
        assert!(v1_0.is_compatible_with(&v1_3));
        assert!(v1_3.is_compatible_with(&v1_0));
        assert!(!v1_0.is_compatible_with(&v2_0));
        assert_eq!(v1_3.to_string(), "1.3");
    }

    #[test]
    fn codec_name_is_binary() {
        assert_eq!(WireCodec::default(), WireCodec::Binary);
        assert_eq!(WireCodec::Binary.name(), "binary");
        assert_eq!(WireCodec::Binary.to_string(), "binary");
    }

    #[test]
    fn service_errors_map_to_and_from_core_errors() {
        use corgi_core::CorgiError;
        let e: ServiceError = CorgiError::InvalidPolicy("level 9".into()).into();
        assert_eq!(e.kind, ServiceErrorKind::InvalidRequest);
        let back: CorgiError = e.into();
        assert!(matches!(back, CorgiError::InvalidPolicy(_)));

        let e: ServiceError = CorgiError::Solver("infeasible".into()).into();
        assert_eq!(e.kind, ServiceErrorKind::Generation);
        assert!(matches!(CorgiError::from(e), CorgiError::Solver(_)));
    }

    #[test]
    fn overloaded_is_the_only_retryable_kind() {
        let shed = ServiceError::overloaded("dispatch backlog at 64");
        assert_eq!(shed.kind, ServiceErrorKind::Overloaded);
        assert!(shed.is_retryable());
        // Round-trips through JSON like every other kind.
        let json = serde_json::to_string(&shed).unwrap();
        let back: ServiceError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, shed);
        // Every non-overloaded kind is not retryable: a blind retry would
        // repeat the fault (or needs a reconnect first).
        for kind in [
            ServiceErrorKind::UnsupportedVersion,
            ServiceErrorKind::InvalidRequest,
            ServiceErrorKind::Generation,
            ServiceErrorKind::Transport,
            ServiceErrorKind::Internal,
            ServiceErrorKind::Unauthenticated,
        ] {
            assert!(!ServiceError::new(kind, "x").is_retryable());
        }
    }

    #[test]
    fn request_contains_no_location_information() {
        // Compile-time/shape check documented as a test: the request type only
        // carries the privacy level and δ.
        let request = MatrixRequest {
            privacy_level: 2,
            delta: 3,
        };
        let json = serde_json::to_value(request).unwrap();
        let obj = json.as_object().unwrap();
        assert_eq!(obj.len(), 2);
        assert!(obj.contains_key("privacy_level"));
        assert!(obj.contains_key("delta"));
    }
}
