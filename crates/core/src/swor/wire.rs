//! Wire encoding of the protocol messages.
//!
//! The paper's accounting equates messages and machine words because every
//! message carries O(1) words (Section 2.1, Proposition 7). This module
//! makes that concrete: a compact, canonical byte encoding for
//! [`UpMsg`]/[`DownMsg`] whose size is verified to stay within 4 machine
//! words, plus exact byte metering used by the simulator.
//!
//! The encoding is little-endian, one discriminant byte followed by fixed
//! fields — deliberately boring, so that sizes are predictable and the
//! round-trip is total on valid frames.

use crate::item::{Item, Keyed};

use super::messages::{DownMsg, SyncMsg, UpMsg};

/// Frame tags.
const TAG_EARLY: u8 = 0x01;
const TAG_REGULAR: u8 = 0x02;
const TAG_LEVEL_SATURATED: u8 = 0x11;
const TAG_UPDATE_EPOCH: u8 = 0x12;
const TAG_SYNC: u8 = 0x21;

/// Encoded size of one [`Keyed`] sample entry inside a [`SyncMsg`] frame.
const SYNC_ENTRY_BYTES: usize = 24;

/// Fixed header size of a [`SyncMsg`] frame: tag, group, items, entry count.
const SYNC_HEADER_BYTES: usize = 1 + 4 + 8 + 4;

/// Errors from decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer was shorter than the frame requires.
    Truncated,
    /// Unknown discriminant byte.
    BadTag(
        /// The offending byte.
        u8,
    ),
    /// A decoded numeric field was out of domain (e.g. non-positive
    /// weight).
    BadField,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#x}"),
            WireError::BadField => write!(f, "field out of domain"),
        }
    }
}

impl std::error::Error for WireError {}

// Little-endian field codecs, shared with the control plane
// (`crate::ctrl`): one definition per field kind.

/// Appends `x`, little-endian.
pub(crate) fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x`'s IEEE-754 bits, little-endian.
pub(crate) fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Reads the little-endian `u64` at `at`.
pub(crate) fn get_u64(buf: &[u8], at: usize) -> Result<u64, WireError> {
    buf.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or(WireError::Truncated)
}

/// Reads the little-endian `f64` at `at`.
pub(crate) fn get_f64(buf: &[u8], at: usize) -> Result<f64, WireError> {
    get_u64(buf, at).map(f64::from_bits)
}

/// Encodes an upstream message, appending to `buf`; returns the frame
/// length in bytes.
pub fn encode_up(msg: &UpMsg, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    match *msg {
        UpMsg::Early { item } => {
            buf.push(TAG_EARLY);
            put_u64(buf, item.id);
            put_f64(buf, item.weight);
        }
        UpMsg::Regular { item, key } => {
            buf.push(TAG_REGULAR);
            put_u64(buf, item.id);
            put_f64(buf, item.weight);
            put_f64(buf, key);
        }
    }
    buf.len() - start
}

/// Encodes a downstream message, appending to `buf`; returns the frame
/// length in bytes.
pub fn encode_down(msg: &DownMsg, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    match *msg {
        DownMsg::LevelSaturated { level } => {
            buf.push(TAG_LEVEL_SATURATED);
            buf.extend_from_slice(&level.to_le_bytes());
        }
        DownMsg::UpdateEpoch { threshold } => {
            buf.push(TAG_UPDATE_EPOCH);
            put_f64(buf, threshold);
        }
    }
    buf.len() - start
}

/// Decodes one upstream frame from the front of `buf`; returns the message
/// and the bytes consumed.
pub fn decode_up(buf: &[u8]) -> Result<(UpMsg, usize), WireError> {
    let tag = *buf.first().ok_or(WireError::Truncated)?;
    match tag {
        TAG_EARLY => {
            let id = get_u64(buf, 1)?;
            let weight = get_f64(buf, 9)?;
            if !(weight > 0.0 && weight.is_finite()) {
                return Err(WireError::BadField);
            }
            Ok((
                UpMsg::Early {
                    item: Item { id, weight },
                },
                17,
            ))
        }
        TAG_REGULAR => {
            let id = get_u64(buf, 1)?;
            let weight = get_f64(buf, 9)?;
            let key = get_f64(buf, 17)?;
            if !(weight > 0.0 && weight.is_finite() && key > 0.0 && key.is_finite()) {
                return Err(WireError::BadField);
            }
            Ok((
                UpMsg::Regular {
                    item: Item { id, weight },
                    key,
                },
                25,
            ))
        }
        other => Err(WireError::BadTag(other)),
    }
}

/// Decodes one downstream frame from the front of `buf`.
pub fn decode_down(buf: &[u8]) -> Result<(DownMsg, usize), WireError> {
    let tag = *buf.first().ok_or(WireError::Truncated)?;
    match tag {
        TAG_LEVEL_SATURATED => {
            let level = buf
                .get(1..5)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                .ok_or(WireError::Truncated)?;
            Ok((DownMsg::LevelSaturated { level }, 5))
        }
        TAG_UPDATE_EPOCH => {
            let threshold = get_f64(buf, 1)?;
            if !(threshold > 0.0 && threshold.is_finite()) {
                return Err(WireError::BadField);
            }
            Ok((DownMsg::UpdateEpoch { threshold }, 9))
        }
        other => Err(WireError::BadTag(other)),
    }
}

/// Encodes an aggregator→root sync frame, appending to `buf`; returns the
/// frame length in bytes.
pub fn encode_sync(msg: &SyncMsg, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.push(TAG_SYNC);
    buf.extend_from_slice(&msg.group.to_le_bytes());
    put_u64(buf, msg.items);
    let count = u32::try_from(msg.sample.len()).expect("sample length fits u32");
    buf.extend_from_slice(&count.to_le_bytes());
    for kd in &msg.sample {
        put_u64(buf, kd.item.id);
        put_f64(buf, kd.item.weight);
        put_f64(buf, kd.key);
    }
    buf.len() - start
}

/// Decodes one sync frame from the front of `buf`; returns the message and
/// the bytes consumed.
///
/// The entry count is validated against the available bytes *before* the
/// sample vector is allocated, so a malformed length cannot trigger an
/// unbounded allocation.
pub fn decode_sync(buf: &[u8]) -> Result<(SyncMsg, usize), WireError> {
    let tag = *buf.first().ok_or(WireError::Truncated)?;
    if tag != TAG_SYNC {
        return Err(WireError::BadTag(tag));
    }
    let group = buf
        .get(1..5)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .ok_or(WireError::Truncated)?;
    let items = get_u64(buf, 5)?;
    let count = buf
        .get(13..17)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .ok_or(WireError::Truncated)? as usize;
    // Bound the count by the bytes actually present before any arithmetic
    // on it: `count * SYNC_ENTRY_BYTES` could overflow usize on 32-bit
    // targets, defeating the length check below.
    if count > buf.len().saturating_sub(SYNC_HEADER_BYTES) / SYNC_ENTRY_BYTES {
        return Err(WireError::Truncated);
    }
    let total = SYNC_HEADER_BYTES + count * SYNC_ENTRY_BYTES;
    let mut sample = Vec::with_capacity(count);
    for i in 0..count {
        let at = SYNC_HEADER_BYTES + i * SYNC_ENTRY_BYTES;
        let id = get_u64(buf, at)?;
        let weight = get_f64(buf, at + 8)?;
        let key = get_f64(buf, at + 16)?;
        if !(weight > 0.0 && weight.is_finite() && key > 0.0 && key.is_finite()) {
            return Err(WireError::BadField);
        }
        sample.push(Keyed::new(Item { id, weight }, key));
    }
    Ok((
        SyncMsg {
            group,
            items,
            sample,
        },
        total,
    ))
}

/// Encoded size of an upstream message in bytes (no allocation).
pub fn up_len(msg: &UpMsg) -> usize {
    match msg {
        UpMsg::Early { .. } => 17,
        UpMsg::Regular { .. } => 25,
    }
}

/// Encoded size of a downstream message in bytes.
pub fn down_len(msg: &DownMsg) -> usize {
    match msg {
        DownMsg::LevelSaturated { .. } => 5,
        DownMsg::UpdateEpoch { .. } => 9,
    }
}

/// Encoded size of an aggregator→root sync frame in bytes.
pub fn sync_len(msg: &SyncMsg) -> usize {
    SYNC_HEADER_BYTES + msg.sample.len() * SYNC_ENTRY_BYTES
}

/// The paper's machine-word size assumption: Θ(log nW) bits; 8 bytes here.
pub const WORD_BYTES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let ups = [
            UpMsg::Early {
                item: Item::new(42, 3.5),
            },
            UpMsg::Regular {
                item: Item::new(u64::MAX, 1e300),
                key: 2.25e-10,
            },
        ];
        for msg in ups {
            let mut buf = Vec::new();
            let len = encode_up(&msg, &mut buf);
            assert_eq!(len, buf.len());
            assert_eq!(len, up_len(&msg));
            let (back, consumed) = decode_up(&buf).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(consumed, len);
        }
        let downs = [
            DownMsg::LevelSaturated { level: 7 },
            DownMsg::UpdateEpoch { threshold: 1024.0 },
        ];
        for msg in downs {
            let mut buf = Vec::new();
            let len = encode_down(&msg, &mut buf);
            assert_eq!(len, down_len(&msg));
            let (back, consumed) = decode_down(&buf).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(consumed, len);
        }
    }

    #[test]
    fn every_message_fits_in_o1_words() {
        // Proposition 7 / Section 2.1: messages are O(1) machine words.
        let msgs = [
            up_len(&UpMsg::Early {
                item: Item::new(1, 1.0),
            }),
            up_len(&UpMsg::Regular {
                item: Item::new(1, 1.0),
                key: 1.0,
            }),
            down_len(&DownMsg::LevelSaturated { level: 0 }),
            down_len(&DownMsg::UpdateEpoch { threshold: 1.0 }),
        ];
        for len in msgs {
            assert!(
                len <= 4 * WORD_BYTES,
                "frame of {len} bytes exceeds 4 machine words"
            );
        }
    }

    #[test]
    fn frames_concatenate_and_stream_decode() {
        let msgs = vec![
            UpMsg::Early {
                item: Item::new(1, 2.0),
            },
            UpMsg::Regular {
                item: Item::new(2, 3.0),
                key: 9.5,
            },
            UpMsg::Early {
                item: Item::new(3, 4.0),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode_up(m, &mut buf);
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < buf.len() {
            let (m, used) = decode_up(&buf[at..]).expect("frame");
            decoded.push(m);
            at += used;
        }
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn sync_roundtrip_and_exact_size() {
        let msg = SyncMsg {
            group: 3,
            items: 1_000_000,
            sample: vec![
                Keyed::new(Item::new(7, 2.5), 9.75),
                Keyed::new(Item::new(u64::MAX, 1e300), 2.25e-10),
            ],
        };
        let mut buf = Vec::new();
        let len = encode_sync(&msg, &mut buf);
        assert_eq!(len, buf.len());
        assert_eq!(len, sync_len(&msg));
        assert_eq!(len, 17 + 2 * 24);
        let (back, used) = decode_sync(&buf).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(used, len);
        // Empty sample: header only.
        let empty = SyncMsg {
            group: 0,
            items: 0,
            sample: Vec::new(),
        };
        let mut buf = Vec::new();
        assert_eq!(encode_sync(&empty, &mut buf), 17);
        assert_eq!(decode_sync(&buf).unwrap().0, empty);
    }

    #[test]
    fn sync_decode_rejects_malformed() {
        assert_eq!(decode_sync(&[]), Err(WireError::Truncated));
        assert_eq!(decode_sync(&[0xEE]), Err(WireError::BadTag(0xEE)));
        // A count that promises more entries than the buffer holds must be
        // rejected before allocation, not panic.
        let mut buf = Vec::new();
        encode_sync(
            &SyncMsg {
                group: 1,
                items: 5,
                sample: vec![Keyed::new(Item::new(1, 1.0), 2.0)],
            },
            &mut buf,
        );
        buf[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_sync(&buf), Err(WireError::Truncated));
        // Non-positive key in an entry is out of domain.
        let mut buf = Vec::new();
        encode_sync(
            &SyncMsg {
                group: 1,
                items: 5,
                sample: vec![Keyed::new(Item::new(1, 1.0), 2.0)],
            },
            &mut buf,
        );
        let key_at = buf.len() - 8;
        buf[key_at..].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(decode_sync(&buf), Err(WireError::BadField));
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        assert_eq!(decode_up(&[]), Err(WireError::Truncated));
        assert_eq!(decode_up(&[TAG_EARLY, 1, 2]), Err(WireError::Truncated));
        assert_eq!(decode_up(&[0xEE]), Err(WireError::BadTag(0xEE)));
        assert_eq!(decode_down(&[0xEE]), Err(WireError::BadTag(0xEE)));
        // Negative weight rejected.
        let mut buf = Vec::new();
        buf.push(TAG_EARLY);
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(decode_up(&buf), Err(WireError::BadField));
    }
}
