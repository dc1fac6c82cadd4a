//! Decode-totality and round-trip properties for the daemon control
//! protocol: a hostile client controls every payload byte, so `CtrlMsg` /
//! `CtrlResp` decoding must be total (clean error, never a panic), must
//! bound hostile entry counts before allocating, and must round-trip every
//! valid frame — the same guarantees `proptest_framed.rs` establishes for
//! the data-plane codecs.

use std::io::Cursor;

use dwrs_core::ctrl::{CtrlMsg, CtrlResp, LiveQueryKind, LiveSnapshot};
use dwrs_core::framed::{FrameCodec, FramedReader, FramedWriter};
use dwrs_core::swor::wire::WireError;
use dwrs_core::{Item, Keyed};
use proptest::prelude::*;

fn arb_kind(byte: u8) -> LiveQueryKind {
    LiveQueryKind::from_u8(byte % 5).expect("discriminant in range")
}

/// A non-empty ASCII stream name derived from a seed (the vendored
/// proptest has no string strategies).
fn arb_stream(seed: u64) -> String {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789_.-";
    let len = 1 + (seed % 24) as usize;
    (0..len)
        .map(|i| {
            let ix = (seed.rotate_left(7 * i as u32) ^ i as u64) as usize % alphabet.len();
            alphabet[ix] as char
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary garbage is total for both control codecs.
    #[test]
    fn garbage_ctrl_frames_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = CtrlMsg::decode(&payload);
        let _ = CtrlResp::decode(&payload);
    }

    /// Every strict prefix of a valid encoding fails cleanly: decoding
    /// never reads past the buffer and never fabricates a frame from a
    /// truncated one.
    #[test]
    fn truncated_ctrl_frames_fail_cleanly(
        stream_seed in any::<u64>(),
        k in 1u32..64,
        s in 1u32..256,
        cut_seed in any::<usize>(),
    ) {
        let msg = CtrlMsg::Create {
            stream: arb_stream(stream_seed),
            k,
            s,
            query: "swor".into(),
        };
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let cut = cut_seed % buf.len();
        prop_assert!(CtrlMsg::decode(&buf[..cut]).is_err());
    }

    /// A hostile snapshot entry count far beyond the present bytes is
    /// rejected with `Truncated` — checked before any allocation, so a
    /// 4-billion-entry claim cannot drive a multi-GB `Vec`.
    #[test]
    fn hostile_snapshot_count_rejected(
        count in 1u32..=u32::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..23),
    ) {
        let snapshot = LiveSnapshot {
            kind: LiveQueryKind::Stats,
            items: 0,
            epoch: None,
            u: 0.0,
            estimate: 0.0,
            ell: 1,
            sites_attached: 0,
            sites_eof: 0,
            up_msgs: 0,
            down_msgs: 0,
            up_bytes: 0,
            down_bytes: 0,
            broadcast_events: 0,
            stale_regular: 0,
            stale_early: 0,
            sample: Vec::new(),
        };
        let mut buf = Vec::new();
        CtrlResp::Answer { snapshot }.encode(&mut buf);
        let count_at = buf.len() - 4;
        buf[count_at..].copy_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&tail); // fewer than one entry's bytes
        prop_assert_eq!(CtrlResp::decode(&buf), Err(WireError::Truncated));
    }

    /// Valid control requests round-trip exactly, consuming the whole
    /// encoding.
    #[test]
    fn ctrl_msgs_round_trip(
        stream_seed in any::<u64>(),
        k in 1u32..1024,
        s in 1u32..4096,
        site in any::<u32>(),
        kind_byte in any::<u8>(),
        arg in any::<u64>(),
    ) {
        let kind = arb_kind(kind_byte);
        let stream = arb_stream(stream_seed);
        for msg in [
            CtrlMsg::Create {
                stream: stream.clone(),
                k,
                s,
                query: "l1:0.2,0.25".into(),
            },
            CtrlMsg::Attach { stream: stream.clone(), site },
            CtrlMsg::Query { stream: stream.clone(), kind, arg },
            CtrlMsg::Drain { stream: stream.clone() },
            CtrlMsg::Shutdown,
        ] {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let (back, used) = CtrlMsg::decode(&buf).expect("valid frame");
            prop_assert_eq!(back, msg);
            prop_assert_eq!(used, buf.len());
        }
    }

    /// Valid responses — including snapshots with arbitrary valid entries
    /// and both epoch presences — round-trip through the framed stream
    /// layer, so MAX_FRAME_LEN and the control codecs compose.
    #[test]
    fn ctrl_resps_round_trip_through_framing(
        site in any::<u32>(),
        resumed in any::<bool>(),
        items in any::<u64>(),
        epoch_present in any::<bool>(),
        epoch_value in any::<i64>(),
        u in 0.0f64..1e12,
        ids in proptest::collection::vec(any::<u64>(), 0..32),
        weight in 1e-6f64..1e12,
        key in 1e-6f64..1e12,
        kind_byte in any::<u8>(),
    ) {
        let sample: Vec<Keyed> = ids
            .iter()
            .map(|&id| Keyed::new(Item::new(id, weight), key))
            .collect();
        let snapshot = LiveSnapshot {
            kind: arb_kind(kind_byte),
            items,
            epoch: epoch_present.then_some(epoch_value),
            u,
            estimate: u * 2.0,
            ell: 1 + items % 7,
            sites_attached: site % 64,
            sites_eof: site % 8,
            up_msgs: items,
            down_msgs: items / 2,
            up_bytes: items.saturating_mul(17),
            down_bytes: items.saturating_mul(9),
            broadcast_events: items % 1024,
            stale_regular: items / 3,
            stale_early: u64::from(site),
            sample,
        };
        let mut w = FramedWriter::new(Vec::new());
        let resps = [
            CtrlResp::Ok { info: "created".into() },
            CtrlResp::Err { msg: "no such stream".into() },
            CtrlResp::Attached { site, resumed, items },
            CtrlResp::Answer { snapshot },
        ];
        for resp in &resps {
            w.write_msg(resp).unwrap();
        }
        let mut r = FramedReader::new(Cursor::new(w.into_inner()));
        for resp in &resps {
            let back: CtrlResp = r.read_msg().unwrap().expect("frame present");
            prop_assert_eq!(&back, resp);
        }
        prop_assert!(r.read_msg::<CtrlResp>().unwrap().is_none());
    }
}
