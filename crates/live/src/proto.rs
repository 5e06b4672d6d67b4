//! The TCP control protocol between `sw-serve` and its clients.
//!
//! Everything that is *not* the broadcast report rides a plain
//! length-prefixed TCP connection: client registration, uplink query
//! exchanges (the paper's point-to-point fallback channel, §2), update
//! ingestion, and the lockstep barrier the conformance harness uses to
//! replace wall-clock pacing with deterministic turn-taking.
//!
//! Message layout: `u32` big-endian body length, then a one-byte tag,
//! then the tag-specific body. Uplink queries and answers carry a
//! *sealed wire frame* — the same checksummed bytes
//! ([`sw_wireless::frame::seal_frame`]) the simulator charges to the
//! channel — so the codec under test on the UDP path is also the codec
//! on the TCP path.
//!
//! [`DecisionRow`] — the client's per-interval record — is declared
//! here once as a `counters!` record; its 97-byte wire form, the
//! `Done` barrier message and the flight ring's `decision` line all
//! walk that one field list.

use std::io::{self, Read, Write};
use std::net::SocketAddr;

use sw_client::MuStats;
use sw_query::QueryStats;
use sw_sim::{counters, Counters};
use sw_wireless::frame::checksum64;

/// Hard cap on a single control message, far above any real frame
/// (a full 10⁶-item report is ~8 MB; queries and rows are tens of
/// bytes). Guards the length prefix against garbage peers.
pub const MAX_MESSAGE: usize = 64 << 20;

counters! {
    /// One client's decisions for one broadcast interval — the unit of the
    /// sim-vs-live conformance comparison, and the one declaration the
    /// wire row, the flight `decision` line and the `Done` barrier message
    /// are projections of. Every counter is the delta of a
    /// [`sw_client::MuStats`] or [`sw_query::QueryStats`] field across the
    /// interval ([`DecisionRow::from_deltas`] says which).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct DecisionRow {
        /// The broadcast interval index `i` (report time `T_i = i·L`).
        pub interval: u64,
        /// Whether the unit was awake for this interval.
        pub awake: bool,
        /// Whether an intact report was heard (always `false` when asleep).
        pub heard: bool;
        /// Queries posed during the interval.
        pub queries,
        /// Query events answered from cache at the report.
        pub hits,
        /// Query events that went uplink.
        pub misses,
        /// Items invalidated by the report.
        pub invalidated,
        /// Whole-cache drops (AT disconnection rule, TS window overrun).
        pub drops,
        /// Query-plane results served from the result cache (zero unless
        /// the session runs a query plane).
        pub qhits,
        /// Query-plane misses (materialization fetches went uplink).
        pub qmisses,
        /// Multi-item transactional reads committed this interval.
        pub qcommits,
        /// Multi-item transactional reads aborted this interval.
        pub qaborts,
        /// Entries evicted by the replacement policy (zero unless the
        /// session runs a bounded cache).
        pub evictions,
        /// Misses whose item had been evicted while still fresh — the
        /// capacity-attributable share of the miss count.
        pub capacity_misses,
    }
}

impl DecisionRow {
    /// Serialized width: interval + flags byte + one word per counter.
    pub const WIRE_LEN: usize = 8 + 1 + 8 * Self::NAMES.len();

    /// Interval `i`'s row from the client's item- and query-plane stats
    /// before (`prev`, `prev_q`) and after (`s`, `q`) it: all zeros
    /// when the unit slept through it.
    pub fn from_deltas(
        i: u64,
        prev: &MuStats,
        s: &MuStats,
        prev_q: &QueryStats,
        q: &QueryStats,
    ) -> Self {
        let (d, dq) = (s.since(prev), q.since(prev_q));
        if d.intervals_awake == 0 {
            return Self {
                interval: i,
                ..Self::default()
            };
        }
        Self {
            interval: i,
            awake: true,
            heard: d.reports_missed == 0,
            queries: d.queries_posed,
            hits: d.hit_events,
            misses: d.miss_events,
            invalidated: d.items_invalidated,
            drops: d.cache_drops,
            qhits: dq.hits,
            qmisses: dq.misses,
            qcommits: dq.txn_commits,
            qaborts: dq.txn_aborts,
            evictions: d.evictions,
            capacity_misses: d.capacity_misses,
        }
    }

    /// The flight `decision` line: an asleep interval is the one field
    /// saying so, an awake one carries the flags and every counter.
    pub fn flight_fields(&self) -> impl Iterator<Item = (&'static str, u64)> + use<> {
        let flags = [("awake", self.awake as u64), ("heard", self.heard as u64)];
        let shown = if self.awake { Self::NAMES.len() + 2 } else { 1 };
        flags.into_iter().chain(self.named()).take(shown)
    }

    /// Fixed-width big-endian encoding — interval, flags byte, then the
    /// counters in declaration order; decision logs are compared as the
    /// concatenation of these.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..8].copy_from_slice(&self.interval.to_be_bytes());
        out[8] = (self.awake as u8) | ((self.heard as u8) << 1);
        for (slot, v) in out[9..].chunks_exact_mut(8).zip(self.values()) {
            slot.copy_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Inverse of [`DecisionRow::to_bytes`].
    pub fn from_bytes(b: &[u8]) -> io::Result<Self> {
        if b.len() != Self::WIRE_LEN {
            return Err(bad_data("decision row length"));
        }
        if b[8] & !0b11 != 0 {
            return Err(bad_data("decision row flags"));
        }
        let mut words = b[9..].chunks_exact(8);
        let mut row = Self {
            interval: u64::from_be_bytes(b[0..8].try_into().expect("8 bytes")),
            awake: b[8] & 1 != 0,
            heard: b[8] & 2 != 0,
            ..Self::default()
        };
        row.zip(&Self::default(), |field, _| {
            let word = words.next().expect("WIRE_LEN holds one word per counter");
            *field = u64::from_be_bytes(word.try_into().expect("8 bytes"));
        });
        Ok(row)
    }
}

/// Concatenates rows into the byte string two logs are compared as.
pub fn encode_rows(rows: &[DecisionRow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows.len() * DecisionRow::WIRE_LEN);
    for r in rows {
        out.extend_from_slice(&r.to_bytes());
    }
    out
}

/// A control message, either direction. Tags `0x0_` flow client →
/// server, `0x8_`/`0x9_` server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Registration: the client's fleet index and the UDP port it
    /// listens for reports on (the server targets `peer_ip:udp_port`).
    Hello {
        /// Index into the configured fleet, `0..n_clients`.
        index: u32,
        /// Client-bound UDP report port.
        udp_port: u16,
    },
    /// An uplink query: a sealed `FramePayload::UplinkQuery` frame.
    Query {
        /// Sealed datagram bytes (frame + checksum trailer).
        frame: Vec<u8>,
    },
    /// An external update to ingest: the daemon path for feeding the
    /// database from outside (applied at the next report tick).
    Publish {
        /// Item to update.
        item: u64,
        /// New value.
        value: u64,
    },
    /// Lockstep barrier: the client finished the named interval; the
    /// row is its decision record for the conformance log.
    Done {
        /// The finished interval's decision record.
        row: DecisionRow,
    },
    /// Clean client departure.
    Bye,
    /// Registration accepted; session parameters.
    Welcome {
        /// Real milliseconds between report broadcasts (paced mode).
        interval_ms: u64,
        /// Total broadcast intervals the session will run.
        intervals: u64,
        /// `true`: TCP barrier pacing; `false`: wall-clock pacing.
        lockstep: bool,
    },
    /// An uplink answer: a sealed `FramePayload::QueryAnswer` frame.
    Answer {
        /// Sealed datagram bytes (frame + checksum trailer).
        frame: Vec<u8>,
    },
    /// Lockstep barrier: interval `interval`'s report has been
    /// broadcast; process it and reply [`Msg::Done`].
    Start {
        /// The interval to process.
        interval: u64,
    },
    /// Session over; the client should drain and disconnect.
    Halt,
    /// Sent right after [`Msg::Welcome`]: the announced successor
    /// order — client-facing addresses of every cluster node in
    /// deterministic takeover order (lowest node id first). Empty for
    /// an unreplicated server. A client keeps this list so it knows
    /// where to re-register when its current server dies.
    Successors {
        /// Client-facing TCP addresses, takeover order.
        peers: Vec<SocketAddr>,
    },
    /// Registration refused because this node is currently a replica:
    /// it applies the log silently and does not serve clients. The
    /// client should try the next address in its successor list.
    Standby {
        /// The refusing node's current primary epoch.
        epoch: u64,
    },
    /// Replication link handshake (peer ↔ peer): sender's node id,
    /// current epoch, and the last log interval it has applied —
    /// the receiver (if primary) replays everything newer.
    RepHello {
        /// Sender's cluster node id.
        node: u32,
        /// Sender's current epoch.
        epoch: u64,
        /// Highest log interval the sender has applied (0 = none).
        last_applied: u64,
    },
    /// Primary → replica: one replicated log entry — the externally
    /// `Publish`ed updates to fold into the named interval's report
    /// tick. The seeded update engine needs no replication (every
    /// node replays it from the shared seed); only outside writes do.
    RepAppend {
        /// Epoch of the primary that sequenced this entry.
        epoch: u64,
        /// Broadcast interval the entry belongs to.
        interval: u64,
        /// `(item, value)` pairs applied at that interval's tick.
        publishes: Vec<(u64, u64)>,
    },
    /// Replica → primary: the named entry is durably applied.
    RepAck {
        /// Echoed entry epoch.
        epoch: u64,
        /// Echoed entry interval.
        interval: u64,
    },
    /// New primary → peers: takeover announcement. Carries the bumped
    /// epoch and the interval broadcasting resumes at. Also sent back
    /// on a stale-epoch [`Msg::RepAppend`] to demote a deposed primary.
    RepPromote {
        /// The new primary's epoch.
        epoch: u64,
        /// First interval the new primary broadcasts.
        resume_at: u64,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_QUERY: u8 = 0x02;
const TAG_PUBLISH: u8 = 0x03;
const TAG_DONE: u8 = 0x04;
const TAG_BYE: u8 = 0x05;
const TAG_WELCOME: u8 = 0x81;
const TAG_ANSWER: u8 = 0x82;
const TAG_START: u8 = 0x90;
const TAG_HALT: u8 = 0x91;
// The replication and failover tags carry a checksum64 trailer over
// tag + payload (see `seal_body`). They are chosen so that no
// single-bit flip of a sealed tag lands on a length-promiscuous
// legacy tag (`TAG_QUERY`/`TAG_ANSWER` accept any body length and
// would otherwise swallow a damaged message as a valid frame carrier).
const TAG_REP_HELLO: u8 = 0x10;
const TAG_REP_APPEND: u8 = 0x11;
const TAG_REP_ACK: u8 = 0x14;
const TAG_REP_PROMOTE: u8 = 0x17;
const TAG_STANDBY: u8 = 0x88;
const TAG_SUCCESSORS: u8 = 0x8D;

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// Appends a [`checksum64`] trailer over tag byte + payload. The tag
/// is inside the checksum so a bit flip there cannot mutate one valid
/// sealed message into another.
fn seal_body(mut b: Vec<u8>) -> Vec<u8> {
    let sum = checksum64(&b);
    b.extend_from_slice(&sum.to_be_bytes());
    b
}

/// Verifies and strips the trailer of a sealed body (tag at `body[0]`),
/// returning the payload between tag and trailer.
fn open_body<'a>(body: &'a [u8], what: &str) -> io::Result<&'a [u8]> {
    if body.len() < 9 {
        return Err(bad_data(what));
    }
    let (data, trailer) = body.split_at(body.len() - 8);
    let declared = u64::from_be_bytes(trailer.try_into().unwrap());
    if checksum64(data) != declared {
        return Err(bad_data(what));
    }
    Ok(&data[1..])
}

impl Msg {
    fn body(&self) -> Vec<u8> {
        match self {
            Msg::Hello { index, udp_port } => {
                let mut b = vec![TAG_HELLO];
                b.extend_from_slice(&index.to_be_bytes());
                b.extend_from_slice(&udp_port.to_be_bytes());
                b
            }
            Msg::Query { frame } => {
                let mut b = vec![TAG_QUERY];
                b.extend_from_slice(frame);
                b
            }
            Msg::Publish { item, value } => {
                let mut b = vec![TAG_PUBLISH];
                b.extend_from_slice(&item.to_be_bytes());
                b.extend_from_slice(&value.to_be_bytes());
                b
            }
            Msg::Done { row } => {
                let mut b = vec![TAG_DONE];
                b.extend_from_slice(&row.to_bytes());
                b
            }
            Msg::Bye => vec![TAG_BYE],
            Msg::Welcome {
                interval_ms,
                intervals,
                lockstep,
            } => {
                let mut b = vec![TAG_WELCOME];
                b.extend_from_slice(&interval_ms.to_be_bytes());
                b.extend_from_slice(&intervals.to_be_bytes());
                b.push(*lockstep as u8);
                b
            }
            Msg::Answer { frame } => {
                let mut b = vec![TAG_ANSWER];
                b.extend_from_slice(frame);
                b
            }
            Msg::Start { interval } => {
                let mut b = vec![TAG_START];
                b.extend_from_slice(&interval.to_be_bytes());
                b
            }
            Msg::Halt => vec![TAG_HALT],
            Msg::Successors { peers } => {
                let mut b = vec![TAG_SUCCESSORS];
                b.extend_from_slice(&(peers.len() as u16).to_be_bytes());
                for p in peers {
                    let text = p.to_string();
                    b.push(text.len() as u8);
                    b.extend_from_slice(text.as_bytes());
                }
                seal_body(b)
            }
            Msg::Standby { epoch } => {
                let mut b = vec![TAG_STANDBY];
                b.extend_from_slice(&epoch.to_be_bytes());
                seal_body(b)
            }
            Msg::RepHello {
                node,
                epoch,
                last_applied,
            } => {
                let mut b = vec![TAG_REP_HELLO];
                b.extend_from_slice(&node.to_be_bytes());
                b.extend_from_slice(&epoch.to_be_bytes());
                b.extend_from_slice(&last_applied.to_be_bytes());
                seal_body(b)
            }
            Msg::RepAppend {
                epoch,
                interval,
                publishes,
            } => {
                let mut b = vec![TAG_REP_APPEND];
                b.extend_from_slice(&epoch.to_be_bytes());
                b.extend_from_slice(&interval.to_be_bytes());
                b.extend_from_slice(&(publishes.len() as u32).to_be_bytes());
                for (item, value) in publishes {
                    b.extend_from_slice(&item.to_be_bytes());
                    b.extend_from_slice(&value.to_be_bytes());
                }
                seal_body(b)
            }
            Msg::RepAck { epoch, interval } => {
                let mut b = vec![TAG_REP_ACK];
                b.extend_from_slice(&epoch.to_be_bytes());
                b.extend_from_slice(&interval.to_be_bytes());
                seal_body(b)
            }
            Msg::RepPromote { epoch, resume_at } => {
                let mut b = vec![TAG_REP_PROMOTE];
                b.extend_from_slice(&epoch.to_be_bytes());
                b.extend_from_slice(&resume_at.to_be_bytes());
                seal_body(b)
            }
        }
    }

    fn parse(body: &[u8]) -> io::Result<Msg> {
        let (&tag, rest) = body.split_first().ok_or_else(|| bad_data("empty message"))?;
        let word = |b: &[u8], i: usize| u64::from_be_bytes(b[i..i + 8].try_into().unwrap());
        match tag {
            TAG_HELLO => {
                if rest.len() != 6 {
                    return Err(bad_data("hello"));
                }
                Ok(Msg::Hello {
                    index: u32::from_be_bytes(rest[0..4].try_into().unwrap()),
                    udp_port: u16::from_be_bytes(rest[4..6].try_into().unwrap()),
                })
            }
            TAG_QUERY => Ok(Msg::Query {
                frame: rest.to_vec(),
            }),
            TAG_PUBLISH => {
                if rest.len() != 16 {
                    return Err(bad_data("publish"));
                }
                Ok(Msg::Publish {
                    item: word(rest, 0),
                    value: word(rest, 8),
                })
            }
            TAG_DONE => Ok(Msg::Done {
                row: DecisionRow::from_bytes(rest)?,
            }),
            TAG_BYE => {
                if !rest.is_empty() {
                    return Err(bad_data("bye"));
                }
                Ok(Msg::Bye)
            }
            TAG_WELCOME => {
                if rest.len() != 17 || rest[16] > 1 {
                    return Err(bad_data("welcome"));
                }
                Ok(Msg::Welcome {
                    interval_ms: word(rest, 0),
                    intervals: word(rest, 8),
                    lockstep: rest[16] == 1,
                })
            }
            TAG_ANSWER => Ok(Msg::Answer {
                frame: rest.to_vec(),
            }),
            TAG_START => {
                if rest.len() != 8 {
                    return Err(bad_data("start"));
                }
                Ok(Msg::Start {
                    interval: word(rest, 0),
                })
            }
            TAG_HALT => {
                if !rest.is_empty() {
                    return Err(bad_data("halt"));
                }
                Ok(Msg::Halt)
            }
            TAG_SUCCESSORS => {
                let payload = open_body(body, "successors")?;
                if payload.len() < 2 {
                    return Err(bad_data("successors"));
                }
                let count = u16::from_be_bytes(payload[0..2].try_into().unwrap()) as usize;
                let mut peers = Vec::with_capacity(count);
                let mut at = 2;
                for _ in 0..count {
                    let len = *payload.get(at).ok_or_else(|| bad_data("successors"))? as usize;
                    at += 1;
                    let text = payload
                        .get(at..at + len)
                        .ok_or_else(|| bad_data("successors"))?;
                    at += len;
                    let text = std::str::from_utf8(text).map_err(|_| bad_data("successors"))?;
                    peers.push(text.parse().map_err(|_| bad_data("successors"))?);
                }
                if at != payload.len() {
                    return Err(bad_data("successors"));
                }
                Ok(Msg::Successors { peers })
            }
            TAG_STANDBY => {
                let payload = open_body(body, "standby")?;
                if payload.len() != 8 {
                    return Err(bad_data("standby"));
                }
                Ok(Msg::Standby {
                    epoch: word(payload, 0),
                })
            }
            TAG_REP_HELLO => {
                let payload = open_body(body, "rep hello")?;
                if payload.len() != 20 {
                    return Err(bad_data("rep hello"));
                }
                Ok(Msg::RepHello {
                    node: u32::from_be_bytes(payload[0..4].try_into().unwrap()),
                    epoch: word(payload, 4),
                    last_applied: word(payload, 12),
                })
            }
            TAG_REP_APPEND => {
                let payload = open_body(body, "rep append")?;
                if payload.len() < 20 {
                    return Err(bad_data("rep append"));
                }
                let count = u32::from_be_bytes(payload[16..20].try_into().unwrap()) as usize;
                if payload.len() != 20 + count * 16 {
                    return Err(bad_data("rep append"));
                }
                let publishes = (0..count)
                    .map(|n| (word(payload, 20 + n * 16), word(payload, 28 + n * 16)))
                    .collect();
                Ok(Msg::RepAppend {
                    epoch: word(payload, 0),
                    interval: word(payload, 8),
                    publishes,
                })
            }
            TAG_REP_ACK => {
                let payload = open_body(body, "rep ack")?;
                if payload.len() != 16 {
                    return Err(bad_data("rep ack"));
                }
                Ok(Msg::RepAck {
                    epoch: word(payload, 0),
                    interval: word(payload, 8),
                })
            }
            TAG_REP_PROMOTE => {
                let payload = open_body(body, "rep promote")?;
                if payload.len() != 16 {
                    return Err(bad_data("rep promote"));
                }
                Ok(Msg::RepPromote {
                    epoch: word(payload, 0),
                    resume_at: word(payload, 8),
                })
            }
            other => Err(bad_data(&format!("message tag {other:#04x}"))),
        }
    }

    /// Writes the message (length prefix + body) and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let body = self.body();
        w.write_all(&(body.len() as u32).to_be_bytes())?;
        w.write_all(&body)?;
        w.flush()
    }

    /// Reads one message. An EOF before the length prefix maps to
    /// `ErrorKind::UnexpectedEof` (a peer hanging up mid-session).
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Msg> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_be_bytes(len) as usize;
        if len == 0 || len > MAX_MESSAGE {
            return Err(bad_data("message length"));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Msg::parse(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire row's byte layout against a literal: `interval` at
    /// 0..8, the flags byte at 8, then one big-endian word per counter
    /// in declaration order. Sim and live share `to_bytes`, so
    /// conformance cannot see a reordering; this can.
    #[test]
    fn decision_row_byte_layout_is_pinned() {
        sw_sim::counters::assert_laws::<DecisionRow>();
        let row = DecisionRow {
            interval: 0x0102_0304_0506_0708,
            awake: true,
            heard: true,
            queries: 0x11,
            hits: 0x12,
            misses: 0x13,
            invalidated: 0x14,
            drops: 0x15,
            qhits: 0x16,
            qmisses: 0x17,
            qcommits: 0x18,
            qaborts: 0x19,
            evictions: 0x1A,
            capacity_misses: 0x1B,
        };
        #[rustfmt::skip]
        let expected: [u8; 97] = [
            1, 2, 3, 4, 5, 6, 7, 8,
            0b11,
            0, 0, 0, 0, 0, 0, 0, 0x11, // queries
            0, 0, 0, 0, 0, 0, 0, 0x12, // hits
            0, 0, 0, 0, 0, 0, 0, 0x13, // misses
            0, 0, 0, 0, 0, 0, 0, 0x14, // invalidated
            0, 0, 0, 0, 0, 0, 0, 0x15, // drops
            0, 0, 0, 0, 0, 0, 0, 0x16, // qhits
            0, 0, 0, 0, 0, 0, 0, 0x17, // qmisses
            0, 0, 0, 0, 0, 0, 0, 0x18, // qcommits
            0, 0, 0, 0, 0, 0, 0, 0x19, // qaborts
            0, 0, 0, 0, 0, 0, 0, 0x1A, // evictions
            0, 0, 0, 0, 0, 0, 0, 0x1B, // capacity_misses
        ];
        assert_eq!(DecisionRow::WIRE_LEN, 97);
        assert_eq!(row.to_bytes(), expected);
        assert_eq!(DecisionRow::from_bytes(&expected).unwrap(), row);
        let asleep = DecisionRow { awake: false, heard: false, ..row };
        assert_eq!(asleep.to_bytes()[8], 0);
        assert_eq!(asleep.flight_fields().collect::<Vec<_>>(), [("awake", 0)]);
        assert_eq!(row.flight_fields().count(), 13);
    }

    #[test]
    fn messages_round_trip_through_a_byte_pipe() {
        let all = vec![
            Msg::Hello {
                index: 7,
                udp_port: 40_123,
            },
            Msg::Query {
                frame: vec![1, 2, 3],
            },
            Msg::Publish {
                item: 42,
                value: u64::MAX,
            },
            Msg::Done {
                row: DecisionRow {
                    interval: 9,
                    awake: true,
                    heard: false,
                    queries: 3,
                    hits: 1,
                    misses: 2,
                    invalidated: 4,
                    drops: 1,
                    qhits: 5,
                    qmisses: 2,
                    qcommits: 1,
                    qaborts: 1,
                    evictions: 2,
                    capacity_misses: 1,
                },
            },
            Msg::Bye,
            Msg::Welcome {
                interval_ms: 50,
                intervals: 100,
                lockstep: true,
            },
            Msg::Answer { frame: vec![9; 40] },
            Msg::Start { interval: 12 },
            Msg::Halt,
            Msg::Successors {
                peers: vec!["127.0.0.1:4000".parse().unwrap(), "[::1]:9".parse().unwrap()],
            },
            Msg::Successors { peers: vec![] },
            Msg::Standby { epoch: 3 },
            Msg::RepHello {
                node: 1,
                epoch: 2,
                last_applied: 17,
            },
            Msg::RepAppend {
                epoch: 2,
                interval: 18,
                publishes: vec![(5, 99), (u64::MAX, 0)],
            },
            Msg::RepAppend {
                epoch: 1,
                interval: 1,
                publishes: vec![],
            },
            Msg::RepAck {
                epoch: 2,
                interval: 18,
            },
            Msg::RepPromote {
                epoch: 3,
                resume_at: 19,
            },
        ];
        let mut pipe = Vec::new();
        for m in &all {
            m.write_to(&mut pipe).unwrap();
        }
        let mut cursor = io::Cursor::new(pipe);
        for m in &all {
            assert_eq!(&Msg::read_from(&mut cursor).unwrap(), m);
        }
    }

    #[test]
    fn decision_rows_encode_fixed_width() {
        let row = DecisionRow {
            interval: u64::MAX,
            awake: true,
            heard: true,
            queries: 1,
            hits: 2,
            misses: 3,
            invalidated: 4,
            drops: 5,
            qhits: 6,
            qmisses: 7,
            qcommits: 8,
            qaborts: 9,
            evictions: 10,
            capacity_misses: 11,
        };
        let bytes = row.to_bytes();
        assert_eq!(bytes.len(), DecisionRow::WIRE_LEN);
        assert_eq!(DecisionRow::from_bytes(&bytes).unwrap(), row);
        assert!(DecisionRow::from_bytes(&bytes[..40]).is_err());
        let mut bad = bytes;
        bad[8] = 0xFF;
        assert!(DecisionRow::from_bytes(&bad).is_err());
    }

    #[test]
    fn garbage_messages_fail_cleanly() {
        assert!(Msg::parse(&[]).is_err());
        assert!(Msg::parse(&[0x77]).is_err());
        assert!(Msg::parse(&[TAG_HELLO, 1]).is_err());
        let mut short = io::Cursor::new(vec![0, 0, 0, 9, TAG_BYE]);
        assert!(Msg::read_from(&mut short).is_err());
        let mut huge = io::Cursor::new((u32::MAX).to_be_bytes().to_vec());
        assert!(Msg::read_from(&mut huge).is_err());
    }
}
