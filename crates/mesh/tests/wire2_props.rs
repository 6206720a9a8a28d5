//! Property tests for the inter-node wire protocol, the binary framing:
//! every `MeshMsg` variant must survive a round trip byte-for-byte
//! (floats by bit pattern), streams decode in order, truncation and
//! garbage must fail cleanly — an error or a clean end-of-stream, never a
//! panic or a bogus decode — and every other framing is refused as
//! unsupported, even when the body behind it is a valid message.
//!
//! The vendored proptest subset has no combinators, so messages are
//! derived from a single seeded generator (see `common::Gen`): every
//! field is a pure function of the case's seed, which the harness
//! prints on failure.

use cedar_mesh::wire::{self, MeshMsg};
use cedar_server::proto;
use cedar_server::wire2::BinaryCodec;
use proptest::prelude::*;

mod common;
use common::{Gen, VARIANTS};

/// Frames one message.
fn send_binary(msg: &MeshMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::send(&mut buf, msg).expect("send into a Vec");
    buf
}

proptest! {
    /// Every variant round-trips exactly through the binary framing,
    /// and the frame is tagged with the binary protocol version.
    #[test]
    fn every_frame_round_trips(variant in 0usize..VARIANTS, seed in 0u64..u64::MAX) {
        let msg = Gen::new(seed).msg(variant);
        let buf = send_binary(&msg);
        // On the wire: 4-byte length, version byte, binary body.
        prop_assert!(buf.len() > 5);
        prop_assert_eq!(buf[4], proto::PROTO_VERSION_BINARY);
        let got = wire::recv(&mut buf.as_slice()).expect("recv what we sent");
        prop_assert_eq!(got, Some(msg));
    }

    /// Back-to-back frames of every variant decode in order off one
    /// stream, and the stream ends with a clean EOF.
    #[test]
    fn streams_of_frames_decode_in_order(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let msgs: Vec<MeshMsg> = (0..VARIANTS).map(|v| g.msg(v)).collect();
        let mut buf = Vec::new();
        for m in &msgs {
            wire::send(&mut buf, m).expect("send");
        }
        let mut r = buf.as_slice();
        for m in &msgs {
            prop_assert_eq!(wire::recv(&mut r).expect("recv"), Some(m.clone()));
        }
        prop_assert_eq!(wire::recv(&mut r).expect("clean EOF"), None);
    }

    /// A frame cut anywhere strictly inside it never decodes to a
    /// message and never panics: the cut surfaces as an error or (when
    /// nothing of the length prefix survived) a clean EOF.
    #[test]
    fn truncated_frames_fail_cleanly(
        variant in 0usize..VARIANTS,
        seed in 0u64..u64::MAX,
        frac in 0.0..1.0f64,
    ) {
        let msg = Gen::new(seed).msg(variant);
        let buf = send_binary(&msg);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let mut r = &buf[..cut];
        if let Ok(Some(_)) = wire::recv(&mut r) {
            prop_assert!(false, "decoded a message from a truncated frame");
        }
    }

    /// Arbitrary garbage behind a valid length prefix errors instead of
    /// panicking. (Random bytes forming a valid binary `MeshMsg` are
    /// unlikely but would not be a defect.)
    #[test]
    fn garbage_bodies_error_not_panic(body in prop::collection::vec(0u8..255, 1..256)) {
        #[allow(clippy::cast_possible_truncation)]
        let mut framed = (body.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        let mut r = framed.as_slice();
        match wire::recv(&mut r) {
            Ok(Some(_) | None) | Err(_) => {}
        }
    }

    /// Arbitrary garbage behind the binary version byte errors instead
    /// of panicking: every malformed body must surface as a typed
    /// decode error through the io boundary.
    #[test]
    fn garbage_binary_bodies_error_not_panic(body in prop::collection::vec(0u8..255, 0..256)) {
        #[allow(clippy::cast_possible_truncation)]
        let mut framed = ((body.len() + 1) as u32).to_be_bytes().to_vec();
        framed.push(proto::PROTO_VERSION_BINARY);
        framed.extend_from_slice(&body);
        let mut r = framed.as_slice();
        match wire::recv(&mut r) {
            // Short bodies can coincide with a valid encoding (e.g. a
            // heartbeat with empty name); decoding one is not a defect.
            Ok(Some(_) | None) | Err(_) => {}
        }
    }

    /// Every version byte but binary is rejected as unsupported, not
    /// decoded — even when the body behind it is a perfectly valid
    /// binary message. That includes the retired JSON framings: `{`
    /// opens a legacy (version-0) frame, and `0x01` was versioned JSON.
    #[test]
    fn other_versions_are_rejected(
        raw_version in 0u8..255,
        variant in 0usize..VARIANTS,
        seed in 0u64..u64::MAX,
    ) {
        let version = if raw_version == proto::PROTO_VERSION_BINARY { 255 } else { raw_version };
        let mut framed = send_binary(&Gen::new(seed).msg(variant));
        framed[4] = version;
        let err = wire::recv(&mut framed.as_slice()).expect_err("other versions must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }

    /// A JSON body behind the binary version byte is a decode error,
    /// not a misdecode (`{` can never be a binary kind byte).
    #[test]
    fn json_bodies_behind_the_binary_version_error(
        variant in 0usize..VARIANTS,
        seed in 0u64..u64::MAX,
    ) {
        let json = serde_json::to_string(&Gen::new(seed).msg(variant)).expect("serialize");
        #[allow(clippy::cast_possible_truncation)]
        let mut framed = ((json.len() + 1) as u32).to_be_bytes().to_vec();
        framed.push(proto::PROTO_VERSION_BINARY);
        framed.extend_from_slice(json.as_bytes());
        prop_assert!(wire::recv(&mut framed.as_slice()).is_err());
    }

    /// The raw body (behind the framing) round-trips through the codec
    /// trait itself and consumes every byte it produced.
    #[test]
    fn bodies_round_trip_with_no_trailing_bytes(
        variant in 0usize..VARIANTS,
        seed in 0u64..u64::MAX,
    ) {
        let msg = Gen::new(seed).msg(variant);
        let mut body = Vec::new();
        msg.encode_binary(&mut body);
        let back = MeshMsg::decode_binary(&body).expect("decode own encoding");
        prop_assert_eq!(back, msg);
    }
}

/// Declared lengths beyond the frame cap are refused up front.
#[test]
fn oversized_length_prefix_is_refused() {
    let mut framed = u32::MAX.to_be_bytes().to_vec();
    framed.extend_from_slice(b"x");
    let mut r = framed.as_slice();
    assert!(wire::recv(&mut r).is_err());
}

/// A zero-length frame is malformed, not an empty message.
#[test]
fn zero_length_frame_is_refused() {
    let framed = 0u32.to_be_bytes().to_vec();
    let mut r = framed.as_slice();
    assert!(wire::recv(&mut r).is_err());
}

/// Non-finite and signed-zero floats survive the binary path by bit
/// pattern.
#[test]
fn non_finite_floats_round_trip_bit_exact() {
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
        let msg = MeshMsg::Partial {
            query_id: 1,
            from: "w0".into(),
            origin: 0,
            payload: 1,
            value,
            duration: value,
            retry: false,
            timings: Vec::new(),
            censored: Vec::new(),
            failures: cedar_runtime::FailureReport::default(),
            segment: None,
        };
        let buf = send_binary(&msg);
        let got = wire::recv(&mut buf.as_slice()).expect("recv").expect("msg");
        let MeshMsg::Partial {
            value: v,
            duration: d,
            ..
        } = got
        else {
            panic!("wrong variant");
        };
        assert_eq!(v.to_bits(), value.to_bits());
        assert_eq!(d.to_bits(), value.to_bits());
    }
}
