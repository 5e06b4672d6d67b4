//! Damage-resistance suite for every control message, mirroring the
//! wire-codec properties pinned in `sw-wireless`'s `wire_roundtrip`
//! suite:
//!
//! 1. `read_from ∘ write_to ≡ id` for every variant, across
//!    seeded-random and extreme field values;
//! 2. truncating the encoded stream at *every* byte boundary is a
//!    clean error, never a panic;
//! 3. any single-bit flip anywhere in the encoding (length prefix
//!    included) is rejected — every message carries a `checksum64`
//!    trailer over tag and payload.
//!
//! The trailer is the only integrity guard between a flaky TCP link
//! and a forged takeover, a changed database write (`Publish`) or a
//! skipped interval (`Start`); `Query` and `Answer` also carry a sealed
//! datagram inside, which this suite treats as opaque bytes.

use std::io::Cursor;
use std::net::SocketAddr;

use sw_live::{DecisionRow, Msg};
use sw_sim::{Counters, MasterSeed, RngStream, StreamId};

fn addr4(rng: &mut RngStream) -> SocketAddr {
    let ip = [
        rng.next_u64() as u8,
        rng.next_u64() as u8,
        rng.next_u64() as u8,
        rng.next_u64() as u8,
    ];
    SocketAddr::from((ip, rng.next_u64() as u16))
}

fn addr6(rng: &mut RngStream) -> SocketAddr {
    let mut seg = [0u16; 8];
    for s in &mut seg {
        *s = rng.next_u64() as u16;
    }
    SocketAddr::from((seg, rng.next_u64() as u16))
}

/// A seeded-random decision row (every flag combination reachable).
fn arbitrary_row(rng: &mut RngStream) -> DecisionRow {
    let mut row = DecisionRow {
        interval: rng.next_u64(),
        awake: rng.next_u64().is_multiple_of(2),
        heard: rng.next_u64().is_multiple_of(2),
        ..DecisionRow::default()
    };
    row.zip(&DecisionRow::default(), |field, _| *field = rng.next_u64());
    row
}

fn arbitrary_bytes(rng: &mut RngStream) -> Vec<u8> {
    let len = (rng.next_u64() % 48) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A seeded-random instance of every control variant.
fn arbitrary_sealed(rng: &mut RngStream) -> Vec<Msg> {
    let n_peers = (rng.next_u64() % 5) as usize;
    let peers: Vec<SocketAddr> = (0..n_peers)
        .map(|_| {
            if rng.next_u64().is_multiple_of(2) {
                addr4(rng)
            } else {
                addr6(rng)
            }
        })
        .collect();
    let n_pub = (rng.next_u64() % 6) as usize;
    let publishes: Vec<(u64, u64)> = (0..n_pub)
        .map(|_| (rng.next_u64(), rng.next_u64()))
        .collect();
    vec![
        Msg::Hello {
            index: rng.next_u64() as u32,
            udp_port: rng.next_u64() as u16,
        },
        Msg::Query {
            frame: arbitrary_bytes(rng),
        },
        Msg::Publish {
            item: rng.next_u64(),
            value: rng.next_u64(),
        },
        Msg::Done {
            row: arbitrary_row(rng),
        },
        Msg::Bye,
        Msg::Welcome {
            interval_ms: rng.next_u64(),
            intervals: rng.next_u64(),
            lockstep: rng.next_u64().is_multiple_of(2),
        },
        Msg::Answer {
            frame: arbitrary_bytes(rng),
        },
        Msg::Start {
            interval: rng.next_u64(),
        },
        Msg::Halt,
        Msg::Successors { peers },
        Msg::Standby {
            epoch: rng.next_u64(),
        },
        Msg::RepHello {
            node: rng.next_u64() as u32,
            epoch: rng.next_u64(),
            last_applied: rng.next_u64(),
        },
        Msg::RepAppend {
            epoch: rng.next_u64(),
            interval: rng.next_u64(),
            publishes,
        },
        Msg::RepAck {
            epoch: rng.next_u64(),
            interval: rng.next_u64(),
        },
        Msg::RepPromote {
            epoch: rng.next_u64(),
            resume_at: rng.next_u64(),
        },
    ]
}

/// Extreme field values for every variant.
fn extreme_sealed() -> Vec<Msg> {
    let full = {
        let mut row = DecisionRow {
            interval: u64::MAX,
            awake: true,
            heard: true,
            ..DecisionRow::default()
        };
        row.zip(&DecisionRow::default(), |field, _| *field = u64::MAX);
        row
    };
    vec![
        Msg::Hello {
            index: 0,
            udp_port: 0,
        },
        Msg::Hello {
            index: u32::MAX,
            udp_port: u16::MAX,
        },
        Msg::Query { frame: vec![] },
        Msg::Query {
            frame: vec![0xFF; 64],
        },
        Msg::Publish { item: 0, value: 0 },
        Msg::Publish {
            item: u64::MAX,
            value: u64::MAX,
        },
        Msg::Done {
            row: DecisionRow::default(),
        },
        Msg::Done { row: full },
        Msg::Bye,
        Msg::Welcome {
            interval_ms: 0,
            intervals: 0,
            lockstep: false,
        },
        Msg::Welcome {
            interval_ms: u64::MAX,
            intervals: u64::MAX,
            lockstep: true,
        },
        Msg::Answer { frame: vec![] },
        Msg::Answer {
            frame: vec![0xFF; 64],
        },
        Msg::Start { interval: 0 },
        Msg::Start { interval: u64::MAX },
        Msg::Halt,
        Msg::Successors { peers: vec![] },
        Msg::Successors {
            peers: vec![
                "0.0.0.0:0".parse().unwrap(),
                "255.255.255.255:65535".parse().unwrap(),
                "[ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff]:65535"
                    .parse()
                    .unwrap(),
                "[::]:0".parse().unwrap(),
            ],
        },
        Msg::Standby { epoch: 0 },
        Msg::Standby { epoch: u64::MAX },
        Msg::RepHello {
            node: u32::MAX,
            epoch: u64::MAX,
            last_applied: u64::MAX,
        },
        Msg::RepHello {
            node: 0,
            epoch: 0,
            last_applied: 0,
        },
        Msg::RepAppend {
            epoch: u64::MAX,
            interval: u64::MAX,
            publishes: vec![(u64::MAX, u64::MAX), (0, 0)],
        },
        Msg::RepAppend {
            epoch: 1,
            interval: 1,
            publishes: vec![],
        },
        Msg::RepAck {
            epoch: u64::MAX,
            interval: 0,
        },
        Msg::RepPromote {
            epoch: u64::MAX,
            resume_at: u64::MAX,
        },
    ]
}

fn encode(m: &Msg) -> Vec<u8> {
    let mut buf = Vec::new();
    m.write_to(&mut buf).expect("encode to a Vec");
    buf
}

fn decode(bytes: &[u8]) -> std::io::Result<Msg> {
    Msg::read_from(&mut Cursor::new(bytes))
}

#[test]
fn sealed_messages_round_trip_over_random_values() {
    let mut rng = MasterSeed::TEST.stream(StreamId::Custom { tag: 0x4E70 });
    for _ in 0..300 {
        for m in arbitrary_sealed(&mut rng) {
            let back = decode(&encode(&m)).unwrap_or_else(|e| panic!("{m:?} failed: {e}"));
            assert_eq!(back, m, "message mutated in flight");
        }
    }
}

#[test]
fn sealed_messages_round_trip_at_extremes() {
    for m in extreme_sealed() {
        let back = decode(&encode(&m)).unwrap_or_else(|e| panic!("{m:?} failed: {e}"));
        assert_eq!(back, m);
    }
}

/// Every proper prefix of an encoded message must fail cleanly —
/// a peer hanging up mid-write is an error, never a partial message.
#[test]
fn truncation_at_every_byte_is_rejected() {
    let mut rng = MasterSeed::TEST.stream(StreamId::Custom { tag: 0x4E71 });
    let mut msgs = extreme_sealed();
    msgs.extend(arbitrary_sealed(&mut rng));
    for m in msgs {
        let bytes = encode(&m);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "{}-byte prefix of a {}-byte {m:?} decoded",
                cut,
                bytes.len()
            );
        }
    }
}

/// Any single-bit flip anywhere in the encoding — length prefix, tag,
/// payload, or trailer — must be rejected. A flip can never produce a
/// *different valid* control message; a forged epoch or takeover
/// announcement would corrupt the whole cluster's log.
#[test]
fn every_single_bit_flip_is_rejected() {
    let mut rng = MasterSeed::TEST.stream(StreamId::Custom { tag: 0x4E72 });
    let mut msgs = extreme_sealed();
    msgs.extend(arbitrary_sealed(&mut rng));
    for m in msgs {
        let bytes = encode(&m);
        for bit in 0..bytes.len() * 8 {
            let mut damaged = bytes.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&damaged).is_err(),
                "bit {bit} of {m:?} slipped through as {:?}",
                decode(&damaged)
            );
        }
    }
}

/// Arbitrary garbage streams: the reader is total.
#[test]
fn random_garbage_never_panics() {
    let mut rng = MasterSeed::TEST.stream(StreamId::Custom { tag: 0x4E73 });
    for _ in 0..2_000 {
        let len = (rng.next_u64() % 96) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode(&buf);
    }
}
