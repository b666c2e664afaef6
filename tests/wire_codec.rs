//! Property tests of the binary wire codec: randomized envelopes decode to
//! the message that was encoded — the same message the JSON text of the
//! serde derives (the reference implementation the perf gate compares
//! against) decodes to — and every `f64` bit pattern round-trips exactly
//! (NaN payloads, ±0, subnormals — values JSON text cannot always carry).

use corgi::core::ObfuscationMatrix;
use corgi::framework::messages::{
    ForestEntry, MatrixRequest, PrivacyForestResponse, RequestEnvelope, ResponseEnvelope,
};
use corgi::framework::transport::try_decode_frame;
use corgi::framework::{WarmRequest, WireCodec};
use corgi::hexgrid::{CellId, HexGrid, HexGridConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn level1_roots() -> Vec<CellId> {
    HexGrid::new(HexGridConfig::san_francisco())
        .unwrap()
        .cells_at_level(1)
}

/// A forest over `roots` subtrees whose matrix entries are generated from the
/// drawn values (cycled across all k² slots).
fn forest_from(values: &[f64], subtrees: usize, request: MatrixRequest) -> PrivacyForestResponse {
    let entries: Vec<ForestEntry> = level1_roots()
        .into_iter()
        .take(subtrees.max(1))
        .enumerate()
        .map(|(i, root)| {
            let cells = root.descendant_leaves();
            let k = cells.len();
            let data: Vec<f64> = (0..k * k).map(|j| values[(i + j) % values.len()]).collect();
            ForestEntry {
                subtree_root: root,
                matrix: ObfuscationMatrix::from_wire_parts(cells, data).unwrap(),
            }
        })
        .collect();
    PrivacyForestResponse {
        request,
        epsilon: values[0],
        entries,
    }
}

/// Encode `message` as a binary frame and decode it back, returning the
/// decoded message and the payload length.
fn round_trip<M: corgi::framework::WireMessage>(message: &M) -> (M, usize) {
    let mut buf = WireCodec::Binary.encode_frame(message);
    let (kind, payload) = try_decode_frame(&mut buf, usize::MAX).unwrap().unwrap();
    assert_eq!(kind, M::KIND);
    assert!(buf.is_empty(), "frame length must cover the whole payload");
    (
        WireCodec::Binary.decode_payload(&payload).unwrap(),
        payload.len(),
    )
}

/// The JSON text reference: serialize and parse back through the serde
/// derives, returning the decoded message and the text length.
fn json_round_trip<M>(message: &M) -> (M, usize)
where
    M: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let text = serde_json::to_string(message).unwrap();
    (serde_json::from_str(&text).unwrap(), text.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binary and the JSON text reference agree on randomized
    /// (finite-valued) response envelopes: the same decoded message from
    /// either, and binary is always the smaller image.
    #[test]
    fn binary_and_json_decode_the_same_envelope(
        values in proptest::collection::vec(-1.0e12f64..1.0e12, 1..24),
        subtrees in 1usize..8,
        request_id in 0u64..(1 << 53),
        privacy_level in 0u8..4,
        delta in 0usize..16,
    ) {
        let request = MatrixRequest { privacy_level, delta };
        let envelope =
            ResponseEnvelope::forest(request_id, Arc::new(forest_from(&values, subtrees, request)));

        let (from_binary, binary_len) = round_trip(&envelope);
        let (from_json, json_len) = json_round_trip(&envelope);

        prop_assert_eq!(&from_binary, &envelope);
        prop_assert_eq!(&from_json, &envelope);
        prop_assert_eq!(&from_binary, &from_json);
        prop_assert!(binary_len < json_len, "binary {} >= json {}", binary_len, json_len);
    }

    /// Request envelopes and warm plans agree with the reference too.
    #[test]
    fn small_messages_decode_the_same_from_either_codec(
        request_id in 0u64..(1 << 53),
        privacy_level in 0u8..8,
        delta in 0usize..64,
        levels in proptest::collection::vec(0usize..8, 1..5),
        deltas in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let envelope = RequestEnvelope::new(request_id, MatrixRequest { privacy_level, delta });
        let (bin, _) = round_trip(&envelope);
        let (json, _) = json_round_trip(&envelope);
        prop_assert_eq!(bin, envelope);
        prop_assert_eq!(json, envelope);

        let plan = WarmRequest {
            privacy_levels: levels.iter().map(|&l| l as u8).collect(),
            deltas,
        };
        let (bin, _) = round_trip(&plan);
        let (json, _) = json_round_trip(&plan);
        prop_assert_eq!(&bin, &plan);
        prop_assert_eq!(&json, &plan);
    }

    /// The binary codec is bit-exact for *arbitrary* `f64` bit patterns,
    /// including NaNs with payloads, infinities, ±0 and subnormals.  (JSON
    /// text renders non-finite values as `null` and `-0` as `0`, so this
    /// guarantee is binary-only — and is why robustness metadata survives the
    /// binary wire unchanged.)
    #[test]
    fn binary_round_trip_is_bit_exact_for_any_f64_bits(
        bits in proptest::collection::vec(0u64..u64::MAX, 4..16),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let request = MatrixRequest { privacy_level: 1, delta: 0 };
        let envelope = ResponseEnvelope::forest(7, Arc::new(forest_from(&values, 2, request)));
        let (back, _) = round_trip(&envelope);
        let forest = back.into_result().unwrap();
        for (entry, original) in forest.entries.iter().zip(
            match &envelope.payload {
                corgi::framework::messages::ResponsePayload::Forest(f) => f.entries.iter(),
                corgi::framework::messages::ResponsePayload::Error(e) => panic!("forest: {e}"),
            },
        ) {
            prop_assert_eq!(entry.subtree_root, original.subtree_root);
            prop_assert_eq!(entry.matrix.cells(), original.matrix.cells());
            for (got, want) in entry.matrix.data().iter().zip(original.matrix.data()) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
