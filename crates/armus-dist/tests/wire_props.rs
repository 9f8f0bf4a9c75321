//! Property tests for the wire protocol: encode∘decode ≡ id on arbitrary
//! snapshots, deltas and messages — through the bare payload decoder and
//! through [`wire::FrameBuffer`] fed in arbitrary pieces — plus totality
//! on hostile bytes (the decoders error, they never panic or
//! over-allocate).

use armus_core::{BlockedInfo, Delta, PhaserId, Registration, Resource, Snapshot, TaskId};
use armus_dist::wire::{self, Request, Response, WireError};
use armus_dist::{Feed, SiteId, TenantId};
use proptest::prelude::*;

fn arb_blocked() -> impl Strategy<Value = BlockedInfo> {
    (
        0u64..200,
        0u32..4,
        1u64..6,
        0u64..5,
        proptest::collection::vec((1u64..6, 0u64..5), 0..4),
        0u64..1000,
    )
        .prop_map(|(task, site, wait_ph, wait_phase, regs, epoch)| {
            let mut regs: Vec<Registration> =
                regs.into_iter().map(|(q, m)| Registration::new(PhaserId(q), m)).collect();
            regs.sort_by_key(|r| r.phaser);
            regs.dedup_by_key(|r| r.phaser);
            let mut info = BlockedInfo::new(
                TaskId(task).with_site(site),
                vec![Resource::new(PhaserId(wait_ph), wait_phase + 1)],
                regs,
            );
            info.epoch = epoch;
            info
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    proptest::collection::vec(arb_blocked(), 0..8).prop_map(Snapshot::from_tasks)
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        arb_blocked().prop_map(Delta::Block),
        (0u64..500).prop_map(|t| Delta::Unblock(TaskId(t))),
    ]
}

fn arb_feed() -> impl Strategy<Value = Feed> {
    prop_oneof![
        proptest::collection::vec((0u32..8, arb_snapshot()), 0..4)
            .prop_map(|parts| Feed::Join(parts.into_iter().map(|(s, p)| (SiteId(s), p)).collect())),
        proptest::collection::vec(arb_delta(), 0..10).prop_map(Feed::Deltas),
    ]
}

/// A read of the change log and its answer.
fn arb_changes() -> impl Strategy<Value = (Request, Response)> {
    (any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>(), arb_feed()).prop_map(
        |(tenant, has_since, since, cursor, feed)| {
            let since = has_since.then_some(since);
            let read = Request::ChangesSince { tenant: TenantId(tenant), cursor: since };
            (read, Response::Changes { cursor, feed })
        },
    )
}

/// A bare payload: version, correlation id 0, then `body`.
fn payload(body: &[u8]) -> Vec<u8> {
    [&[wire::WIRE_V2][..], &0u64.to_le_bytes(), body].concat()
}

/// Encodes as one frame and pulls it back out of a [`wire::FrameBuffer`]
/// fed `piece` bytes at a time — the way a peer's reads deliver it.
fn frame_roundtrip<T: wire::FlatMessage>(msg: &T, piece: usize) -> T {
    let mut out = Vec::new();
    wire::encode_frame_v2_into(&mut out, 1, msg).expect("bounded test message");
    let mut frames = wire::FrameBuffer::new();
    let mut got = Vec::new();
    for bytes in out.chunks(piece) {
        assert!(got.is_empty(), "the frame completes on its last byte, not before");
        frames.feed(bytes);
        while let Some(frame) = frames.next_frame::<T>().expect("decode") {
            got.push(frame.msg);
        }
    }
    assert!(!frames.has_partial(), "nothing is left over");
    assert_eq!(got.len(), 1, "one frame in, one frame out");
    got.pop().expect("one frame")
}

/// Encodes as one frame and decodes its bare payload, returning the whole
/// frame (correlation id, message).
fn flat_roundtrip<T: wire::FlatMessage>(msg: &T, corr: u64) -> wire::Frame<T> {
    let mut out = Vec::new();
    wire::encode_frame_v2_into(&mut out, corr, msg).expect("bounded test message");
    wire::decode_frame_payload(&out[4..]).expect("flat decode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snapshots_round_trip(snap in arb_snapshot(), tenant in 0u32..8, piece in 1usize..64) {
        let msg = Request::PublishFull {
            site: SiteId(3),
            tenant: TenantId(tenant),
            snapshot: snap,
            version: 17,
        };
        prop_assert_eq!(frame_roundtrip(&msg, piece), msg);
    }

    #[test]
    fn delta_intervals_round_trip(
        deltas in proptest::collection::vec(arb_delta(), 0..10),
        base in 0u64..1000,
        span in 0u64..50,
        tenant in 0u32..8,
        piece in 1usize..64,
    ) {
        let msg = Request::PublishDeltas {
            site: SiteId(1),
            tenant: TenantId(tenant),
            base,
            deltas,
            next: base + span,
        };
        prop_assert_eq!(frame_roundtrip(&msg, piece), msg);
    }

    #[test]
    fn views_round_trip(
        parts in proptest::collection::vec((0u32..8, arb_snapshot()), 0..5),
        piece in 1usize..64,
    ) {
        let view: Vec<(SiteId, Snapshot)> =
            parts.into_iter().map(|(s, p)| (SiteId(s), p)).collect();
        let msg = Response::Changes { cursor: 0, feed: Feed::Join(view) };
        prop_assert_eq!(frame_roundtrip(&msg, piece), msg);
    }

    /// Totality of the streaming entry point: any byte soup, delivered in
    /// any pieces, yields frames, a wait for more bytes, or an error —
    /// never a panic, and never a huge allocation (the input is tiny, so
    /// the length-prefix and count guards must bound everything).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        stream in proptest::collection::vec(any::<u8>(), 0..96),
        piece in 1usize..32,
    ) {
        let mut frames = wire::FrameBuffer::new();
        'stream: for bytes in stream.chunks(piece) {
            frames.feed(bytes);
            loop {
                match frames.next_frame::<Request>() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'stream, // the connection would close here
                }
            }
        }
    }

    /// A frame whose length prefix covers only part of its message is
    /// rejected by the streaming entry point, never misread and never
    /// waited on: the prefix says the payload is complete, so every
    /// strict prefix of an encoded message fails to decode.
    #[test]
    fn truncated_payloads_are_rejected(snap in arb_snapshot(), cut in 1usize..32) {
        let msg = Request::PublishFull {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
            version: 4,
        };
        let mut out = Vec::new();
        wire::encode_frame_v2_into(&mut out, 9, &msg).unwrap();
        let payload_len = out.len() - 4;
        if cut < payload_len {
            out.truncate(out.len() - cut);
            out[..4].copy_from_slice(&((payload_len - cut) as u32).to_le_bytes());
            let mut frames = wire::FrameBuffer::new();
            frames.feed(&out);
            prop_assert!(frames.next_frame::<Request>().is_err());
        }
    }

    #[test]
    fn flat_snapshots_round_trip_with_correlation(
        snap in arb_snapshot(),
        corr in any::<u64>(),
        tenant in any::<u32>(),
    ) {
        let msg = Request::PublishFull {
            site: SiteId(3),
            tenant: TenantId(tenant),
            snapshot: snap,
            version: 17,
        };
        let frame = flat_roundtrip(&msg, corr);
        prop_assert_eq!(frame.corr, corr);
        prop_assert_eq!(frame.msg, msg);
    }

    #[test]
    fn flat_delta_intervals_round_trip(
        deltas in proptest::collection::vec(arb_delta(), 0..10),
        base in 0u64..1000,
        span in 0u64..50,
        corr in any::<u64>(),
    ) {
        let msg = Request::PublishDeltas {
            site: SiteId(1),
            tenant: TenantId(2),
            base,
            deltas,
            next: base + span,
        };
        prop_assert_eq!(flat_roundtrip(&msg, corr).msg, msg);
    }

    #[test]
    fn flat_views_round_trip(
        parts in proptest::collection::vec((0u32..8, arb_snapshot()), 0..5),
        corr in any::<u64>(),
    ) {
        let view: Vec<(SiteId, Snapshot)> =
            parts.into_iter().map(|(s, p)| (SiteId(s), p)).collect();
        let msg = Response::Changes { cursor: corr, feed: Feed::Join(view) };
        let frame = flat_roundtrip(&msg, corr);
        prop_assert_eq!(frame.corr, corr);
        prop_assert_eq!(frame.msg, msg);
    }

    #[test]
    fn changes_round_trip((read, answer) in arb_changes(), corr in any::<u64>(), piece in 1usize..64) {
        prop_assert_eq!(frame_roundtrip(&read, piece), read.clone());
        prop_assert_eq!(frame_roundtrip(&answer, piece), answer.clone());
        prop_assert_eq!(flat_roundtrip(&read, corr).msg, read);
        prop_assert_eq!(flat_roundtrip(&answer, corr).msg, answer);
    }

    /// Every strict prefix of a change-log read or its answer is rejected.
    #[test]
    fn truncated_changes_are_rejected((read, answer) in arb_changes(), cut in 1usize..32) {
        for (out, is_read) in [(encode(&read), true), (encode(&answer), false)] {
            let payload = &out[4..];
            if cut < payload.len() {
                let truncated = &payload[..payload.len() - cut];
                prop_assert!(match is_read {
                    true => wire::decode_frame_payload::<Request>(truncated).is_err(),
                    false => wire::decode_frame_payload::<Response>(truncated).is_err(),
                });
            }
        }
    }

    /// Totality of the payload decoder: any byte soup either decodes or
    /// errors — never a panic, never a huge allocation, for requests and
    /// responses alike.
    #[test]
    fn arbitrary_bytes_never_panic_the_flat_decoder(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = wire::decode_frame_payload::<Request>(&payload);
        let _ = wire::decode_frame_payload::<Response>(&payload);
    }

    /// Truncating a flat frame is always rejected, never misread — the
    /// fixed-width headers and count guards catch every cut.
    #[test]
    fn truncated_flat_payloads_are_rejected(snap in arb_snapshot(), corr in any::<u64>(), cut in 1usize..32) {
        let msg = Request::PublishFull {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
            version: 4,
        };
        let mut out = Vec::new();
        wire::encode_frame_v2_into(&mut out, corr, &msg).unwrap();
        let payload = &out[4..];
        if cut < payload.len() {
            let truncated = &payload[..payload.len() - cut];
            prop_assert!(wire::decode_frame_payload::<Request>(truncated).is_err());
        }
    }

    /// Appending bytes to a flat frame is also rejected: decoding is
    /// exact, so a desynchronised stream can never be misparsed.
    #[test]
    fn flat_trailing_garbage_is_rejected(snap in arb_snapshot(), junk in proptest::collection::vec(any::<u8>(), 1..8)) {
        let msg = Request::PublishFull {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
            version: 4,
        };
        let mut out = Vec::new();
        wire::encode_frame_v2_into(&mut out, 7, &msg).unwrap();
        out.extend_from_slice(&junk);
        prop_assert!(matches!(
            wire::decode_frame_payload::<Request>(&out[4..]),
            Err(WireError::Malformed(_))
        ));
    }
}

fn encode<T: wire::FlatMessage>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_frame_v2_into(&mut out, 5, msg).expect("bounded test message");
    out
}

#[test]
fn hostile_changes_are_malformed_not_allocated() {
    // Response kind 8, a cursor, then a feed tag: a join claiming u32::MAX
    // partitions, deltas claiming u32::MAX entries, and a tag that names
    // no feed.
    let max = u32::MAX.to_le_bytes();
    for (tag, rest) in [(0u8, &max[..]), (1, &max[..]), (2, &[][..]), (0xFF, &[0; 4][..])] {
        let body = [&[8u8][..], &7u64.to_le_bytes(), &[tag], rest].concat();
        assert!(
            matches!(
                wire::decode_frame_payload::<Response>(&payload(&body)),
                Err(WireError::Malformed(_))
            ),
            "feed tag {tag}"
        );
    }
    // Request kind 9, a tenant, then a cursor tag that is neither absent
    // (0) nor present (1).
    let read = [&[9u8][..], &0u32.to_le_bytes(), &[2], &7u64.to_le_bytes()].concat();
    assert!(matches!(
        wire::decode_frame_payload::<Request>(&payload(&read)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn kind_3_stays_reserved_in_both_directions() {
    // The retired fetch (request kind 3) and view (response kind 3), with
    // the bodies they used to carry: a tenant, and an empty view.
    let fetch = [&[3u8][..], &0u32.to_le_bytes()].concat();
    assert!(matches!(
        wire::decode_frame_payload::<Request>(&payload(&fetch)),
        Err(WireError::Malformed(_))
    ));
    let view = [&[3u8][..], &0u32.to_le_bytes()].concat();
    assert!(matches!(
        wire::decode_frame_payload::<Response>(&payload(&view)),
        Err(WireError::Malformed(_))
    ));
}
