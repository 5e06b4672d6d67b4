//! Wire encoding of everything that crosses the channel.
//!
//! The analytical model charges the channel in bits:
//!
//! * a TS report entry costs `⌈log2 n⌉ + b_T` bits (item id + timestamp,
//!   §4.3);
//! * an AT report entry costs `⌈log2 n⌉` bits (§4.4);
//! * a SIG report costs `m · g` bits (`m` combined signatures of `g`
//!   bits, §4.5);
//! * an uplink query costs `b_q` bits and its answer `b_a` bits (§4).
//!
//! To keep the simulator honest we also *serialize* frames into real byte
//! buffers. The wire format packs fields at bit granularity so the
//! measured size equals the analytical size rounded up to whole bytes;
//! unit tests pin that relationship down.
//!
//! Signature vectors are [`Arc`]-shared: one report payload built per
//! interval is handed by reference to every listening client, so the
//! `m`-word vector is never copied on the broadcast path.

use std::sync::Arc;

/// Number of bits needed to name one of `n` items: `⌈log2 n⌉`.
///
/// The paper writes `log(n)` for the id cost; we resolve it as the
/// standard fixed-width binary code (see DESIGN.md §4).
#[inline]
pub fn id_bits(n: u64) -> u32 {
    debug_assert!(n > 0, "database cannot be empty");
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// Wire width of one window value in an adaptive report's exception
/// list, in intervals (its largest value stands for an infinite
/// window). An implementation choice documented in DESIGN.md: the paper
/// does not specify how clients learn the current windows.
pub const WINDOW_FIELD_BITS: u32 = 16;

/// Sentinel for an effectively infinite window: the largest value the
/// window field carries.
pub const INFINITE_WINDOW: u32 = (1 << WINDOW_FIELD_BITS) - 1;

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// A TS invalidation report: `(item id, update timestamp)` pairs for
    /// items changed within the window `w`.
    TimestampReport {
        /// Report timestamp `T_i` in integer microseconds.
        report_ts_micros: u64,
        /// `(id, update timestamp in micros)` entries.
        entries: Vec<(u64, u64)>,
    },
    /// An AT invalidation report: ids of items changed since the last
    /// report.
    AmnesicReport {
        /// Report timestamp `T_i` in integer microseconds.
        report_ts_micros: u64,
        /// Changed item ids.
        ids: Vec<u64>,
    },
    /// An adaptive TS report (§8): per-item-window entries plus the
    /// current window exception table (items whose window differs from
    /// the shared default), so clients always apply the server's
    /// windows.
    AdaptiveTimestampReport {
        /// Report timestamp `T_i` in integer microseconds.
        report_ts_micros: u64,
        /// `(id, update timestamp in micros)` entries.
        entries: Vec<(u64, u64)>,
        /// `(id, window in intervals)` exceptions from the default.
        window_exceptions: Vec<(u64, u32)>,
    },
    /// A §10 hybrid report: hot items are broadcast individually
    /// (AT-style id list), the rest of the database participates in the
    /// combined signatures — "the 'hot spot' items can be individually
    /// broadcasted, while the rest of the database items would
    /// participate in the signatures."
    HybridReport {
        /// Report timestamp `T_i` in integer microseconds.
        report_ts_micros: u64,
        /// Hot items updated in the last interval.
        hot_ids: Vec<u64>,
        /// Signature width `g` in bits.
        sig_bits: u32,
        /// Combined signatures over the cold items (shared, not copied,
        /// between the builder and every client).
        signatures: Arc<Vec<u64>>,
    },
    /// A SIG report: `m` combined signatures of `g` bits each.
    SignatureReport {
        /// Report timestamp `T_i` in integer microseconds.
        report_ts_micros: u64,
        /// Signature width `g` in bits.
        sig_bits: u32,
        /// The combined signatures (low `sig_bits` of each word; shared,
        /// not copied, between the builder and every client).
        signatures: Arc<Vec<u64>>,
    },
    /// An uplink query for one item.
    UplinkQuery {
        /// Querying client.
        client: u64,
        /// Queried item id.
        item: u64,
    },
    /// The downlink answer to an uplink query.
    QueryAnswer {
        /// Item id.
        item: u64,
        /// Current value at the server.
        value: u64,
        /// Server-side timestamp of the answer, in micros.
        ts_micros: u64,
    },
    /// A per-item asynchronous invalidation message (§2's stateful /
    /// asynchronous baselines).
    Invalidation {
        /// Item id.
        item: u64,
    },
}

/// Frame classification used by the traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Periodic invalidation report (downlink).
    Report,
    /// Uplink query.
    Query,
    /// Downlink answer.
    Answer,
    /// Asynchronous invalidation (downlink).
    Invalidation,
}

/// A frame plus its *analytical* size in bits, as charged by the paper's
/// formulas. The serialized byte length is always `⌈bits/8⌉` plus a
/// fixed 2-byte kind/len header (excluded from analytical accounting to
/// match the paper, which charges payloads only).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The payload.
    pub payload: FramePayload,
    /// Analytical size in bits.
    pub bits: u64,
}

/// Encoding parameters shared by the cell: how many bits an id, a
/// timestamp, a query, and an answer take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireEncode {
    /// Database size `n` (determines id width).
    pub n_items: u64,
    /// Timestamp width `b_T` in bits (512 in the paper's scenarios).
    pub timestamp_bits: u32,
    /// Uplink query cost `b_q` in bits.
    pub query_bits: u32,
    /// Answer cost `b_a` in bits.
    pub answer_bits: u32,
}

impl WireEncode {
    /// Creates the encoder, validating widths.
    pub fn new(n_items: u64, timestamp_bits: u32, query_bits: u32, answer_bits: u32) -> Self {
        assert!(n_items > 0, "database cannot be empty");
        assert!(timestamp_bits > 0 && timestamp_bits <= 4096);
        assert!(query_bits > 0 && answer_bits > 0);
        WireEncode {
            n_items,
            timestamp_bits,
            query_bits,
            answer_bits,
        }
    }

    /// Bits to name one item: `⌈log2 n⌉`.
    pub fn id_bits(&self) -> u32 {
        id_bits(self.n_items)
    }

    /// Analytical size in bits of a TS report with `entries` entries:
    /// `n_c · (⌈log2 n⌉ + b_T)` (§4.3).
    pub fn ts_report_bits(&self, entries: usize) -> u64 {
        entries as u64 * (self.id_bits() as u64 + self.timestamp_bits as u64)
    }

    /// Analytical size in bits of an AT report with `ids` ids:
    /// `n_L · ⌈log2 n⌉` (§4.4).
    pub fn at_report_bits(&self, ids: usize) -> u64 {
        ids as u64 * self.id_bits() as u64
    }

    /// Analytical size in bits of a SIG report of `m` signatures of `g`
    /// bits: `m · g` (§4.5).
    pub fn sig_report_bits(&self, m: usize, g: u32) -> u64 {
        m as u64 * g as u64
    }

    /// Analytical size in bits of any payload, without constructing a
    /// [`Frame`] (the zero-copy broadcast path charges the channel from
    /// a borrowed payload).
    pub fn payload_bits(&self, payload: &FramePayload) -> u64 {
        match payload {
            FramePayload::TimestampReport { entries, .. } => self.ts_report_bits(entries.len()),
            FramePayload::AdaptiveTimestampReport {
                entries,
                window_exceptions,
                ..
            } => {
                self.ts_report_bits(entries.len())
                    + window_exceptions.len() as u64 * (self.id_bits() + WINDOW_FIELD_BITS) as u64
            }
            FramePayload::AmnesicReport { ids, .. } => self.at_report_bits(ids.len()),
            FramePayload::SignatureReport {
                signatures,
                sig_bits,
                ..
            } => self.sig_report_bits(signatures.len(), *sig_bits),
            FramePayload::HybridReport {
                hot_ids,
                signatures,
                sig_bits,
                ..
            } => {
                self.at_report_bits(hot_ids.len())
                    + self.sig_report_bits(signatures.len(), *sig_bits)
            }
            FramePayload::UplinkQuery { .. } => self.query_bits as u64,
            FramePayload::QueryAnswer { .. } => self.answer_bits as u64,
            FramePayload::Invalidation { .. } => self.id_bits() as u64,
        }
    }

    /// Classifies and sizes a payload, producing a [`Frame`].
    pub fn frame(&self, payload: FramePayload) -> Frame {
        let bits = self.payload_bits(&payload);
        Frame { payload, bits }
    }

    /// Extension-header length in bytes for a frame kind: counts the
    /// decoder cannot recover from the bit length alone. Adaptive
    /// reports carry the window-exception count, SIG reports the
    /// signature width `g`, hybrid reports both the hot-id count and
    /// `g`.
    fn ext_header_len(kind: u8) -> usize {
        match kind {
            2 | 6 => 4,
            7 => 8,
            _ => 0,
        }
    }

    /// Serializes a payload into bytes: a fixed 10-byte header (kind,
    /// wire version, body length in *bits*), a per-kind extension
    /// header where the body alone is ambiguous (entry counts that a
    /// byte length cannot recover — see [`WireEncode::deserialize`]),
    /// and the bit-packed body padded to a whole byte. The total length
    /// is `10 + ext + ⌈bits/8⌉`; the header is excluded from analytical
    /// accounting to match the paper, which charges payloads only.
    pub fn serialize_payload(&self, payload: &FramePayload) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_payload_into(payload, &mut out);
        out
    }

    /// [`Self::serialize_payload`] into a buffer the caller keeps:
    /// `out` is cleared, then holds exactly the bytes
    /// `serialize_payload` returns, so a caller that serializes every
    /// report reuses one buffer and allocates only when a report
    /// outgrows it.
    pub fn serialize_payload_into(&self, payload: &FramePayload, out: &mut Vec<u8>) {
        let kind = match payload {
            FramePayload::TimestampReport { .. } => 0u8,
            FramePayload::AdaptiveTimestampReport { .. } => 6,
            FramePayload::HybridReport { .. } => 7,
            FramePayload::AmnesicReport { .. } => 1,
            FramePayload::SignatureReport { .. } => 2,
            FramePayload::UplinkQuery { .. } => 3,
            FramePayload::QueryAnswer { .. } => 4,
            FramePayload::Invalidation { .. } => 5,
        };
        out.clear();
        out.push(kind);
        out.push(WIRE_VERSION);
        // The body length in bits, written once the body is.
        out.extend_from_slice(&[0; 8]);
        match payload {
            FramePayload::SignatureReport { sig_bits, .. } => {
                out.extend_from_slice(&sig_bits.to_be_bytes());
            }
            FramePayload::AdaptiveTimestampReport {
                window_exceptions, ..
            } => {
                out.extend_from_slice(&(window_exceptions.len() as u32).to_be_bytes());
            }
            FramePayload::HybridReport {
                hot_ids, sig_bits, ..
            } => {
                out.extend_from_slice(&(hot_ids.len() as u32).to_be_bytes());
                out.extend_from_slice(&sig_bits.to_be_bytes());
            }
            _ => {}
        }
        debug_assert_eq!(out.len(), 10 + Self::ext_header_len(kind));
        let mut w = BitWriter::new(out);
        match payload {
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            } => {
                w.put_bits(*report_ts_micros, self.timestamp_bits);
                for (id, ts) in entries {
                    w.put_bits(*id, self.id_bits());
                    w.put_bits(*ts, self.timestamp_bits);
                }
            }
            FramePayload::AmnesicReport {
                report_ts_micros,
                ids,
            } => {
                w.put_bits(*report_ts_micros, self.timestamp_bits);
                for id in ids {
                    w.put_bits(*id, self.id_bits());
                }
            }
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros,
                entries,
                window_exceptions,
            } => {
                w.put_bits(*report_ts_micros, self.timestamp_bits);
                for (id, ts) in entries {
                    w.put_bits(*id, self.id_bits());
                    w.put_bits(*ts, self.timestamp_bits);
                }
                for (id, win) in window_exceptions {
                    w.put_bits(*id, self.id_bits());
                    w.put_bits(*win as u64, WINDOW_FIELD_BITS);
                }
            }
            FramePayload::SignatureReport {
                report_ts_micros,
                sig_bits,
                signatures,
            } => {
                w.put_bits(*report_ts_micros, self.timestamp_bits);
                for s in signatures.iter() {
                    w.put_bits(*s, (*sig_bits).min(64));
                }
            }
            FramePayload::HybridReport {
                report_ts_micros,
                hot_ids,
                sig_bits,
                signatures,
            } => {
                w.put_bits(*report_ts_micros, self.timestamp_bits);
                for id in hot_ids {
                    w.put_bits(*id, self.id_bits());
                }
                for s in signatures.iter() {
                    w.put_bits(*s, (*sig_bits).min(64));
                }
            }
            FramePayload::UplinkQuery { client, item } => {
                w.put_bits(*client, 32);
                w.put_bits(*item, self.id_bits());
            }
            FramePayload::QueryAnswer {
                item,
                value,
                ts_micros,
            } => {
                w.put_bits(*item, self.id_bits());
                w.put_bits(*value, 64);
                w.put_bits(*ts_micros, 64);
            }
            FramePayload::Invalidation { item } => {
                w.put_bits(*item, self.id_bits());
            }
        }
        let bits = w.finish();
        out[2..10].copy_from_slice(&bits.to_be_bytes());
    }

    /// Decodes a serialized frame back into the payload it was built
    /// from — the missing half of the wire layer, used by the live
    /// runtime's real receivers (`sw-live`).
    ///
    /// The decoder is total: any input either yields a payload or a
    /// [`WireDecodeError`]; it never panics and never half-applies.
    /// Every structural claim the header makes is checked against the
    /// actual buffer — exact overall length, entry widths dividing the
    /// body bit length, zero padding in the final partial byte, zero
    /// pad bits in over-wide (> 64 bit) timestamp fields — so a
    /// truncated or bit-flipped frame that slips past the outer
    /// [`checksum64`] trailer still fails cleanly here in almost all
    /// cases. `serialize ∘ deserialize ≡ id` for every [`FramePayload`]
    /// variant (pinned by the round-trip suite in
    /// `crates/wireless/tests/wire_roundtrip.rs`).
    pub fn deserialize(&self, bytes: &[u8]) -> Result<Frame, WireDecodeError> {
        if bytes.len() < 10 {
            return Err(WireDecodeError::Truncated {
                needed: 10,
                got: bytes.len(),
            });
        }
        let kind = bytes[0];
        let version = bytes[1];
        if version != WIRE_VERSION {
            return Err(WireDecodeError::UnsupportedVersion(version));
        }
        if !matches!(kind, 0..=7) {
            return Err(WireDecodeError::UnknownKind(kind));
        }
        let bits = u64::from_be_bytes(bytes[2..10].try_into().expect("8 bytes"));
        let ext_len = Self::ext_header_len(kind);
        let body_bytes = (bits / 8 + u64::from(bits % 8 != 0))
            .try_into()
            .map_err(|_| WireDecodeError::Malformed("bit length exceeds addressable size"))?;
        let expected: usize = 10usize
            .checked_add(ext_len)
            .and_then(|n| n.checked_add(body_bytes))
            .ok_or(WireDecodeError::Malformed("bit length exceeds addressable size"))?;
        if bytes.len() < expected {
            return Err(WireDecodeError::Truncated {
                needed: expected,
                got: bytes.len(),
            });
        }
        if bytes.len() > expected {
            return Err(WireDecodeError::TrailingBytes {
                expected,
                got: bytes.len(),
            });
        }
        let ext = &bytes[10..10 + ext_len];
        let mut r = BitReader::new(&bytes[10 + ext_len..], bits);
        let id_w = self.id_bits();
        let ts_w = self.timestamp_bits;
        let entry_w = id_w as u64 + ts_w as u64;
        // Reports lead with the report timestamp; short bodies are
        // structurally impossible.
        let report_header = |bits: u64| -> Result<u64, WireDecodeError> {
            bits.checked_sub(ts_w as u64)
                .ok_or(WireDecodeError::Malformed("body shorter than report timestamp"))
        };
        let payload = match kind {
            0 => {
                let rem = report_header(bits)?;
                if rem % entry_w != 0 {
                    return Err(WireDecodeError::Malformed("TS body not a whole entry count"));
                }
                let report_ts_micros = r.get_bits(ts_w)?;
                let mut entries = Vec::with_capacity((rem / entry_w) as usize);
                for _ in 0..rem / entry_w {
                    entries.push((r.get_bits(id_w)?, r.get_bits(ts_w)?));
                }
                FramePayload::TimestampReport {
                    report_ts_micros,
                    entries,
                }
            }
            1 => {
                let rem = report_header(bits)?;
                if rem % id_w as u64 != 0 {
                    return Err(WireDecodeError::Malformed("AT body not a whole id count"));
                }
                let report_ts_micros = r.get_bits(ts_w)?;
                let mut ids = Vec::with_capacity((rem / id_w as u64) as usize);
                for _ in 0..rem / id_w as u64 {
                    ids.push(r.get_bits(id_w)?);
                }
                FramePayload::AmnesicReport {
                    report_ts_micros,
                    ids,
                }
            }
            2 => {
                let sig_bits = u32::from_be_bytes(ext.try_into().expect("4 bytes"));
                if sig_bits == 0 {
                    return Err(WireDecodeError::Malformed("zero signature width"));
                }
                let word_w = sig_bits.min(64);
                let rem = report_header(bits)?;
                if rem % word_w as u64 != 0 {
                    return Err(WireDecodeError::Malformed("SIG body not a whole word count"));
                }
                let report_ts_micros = r.get_bits(ts_w)?;
                let mut signatures = Vec::with_capacity((rem / word_w as u64) as usize);
                for _ in 0..rem / word_w as u64 {
                    signatures.push(r.get_bits(word_w)?);
                }
                FramePayload::SignatureReport {
                    report_ts_micros,
                    sig_bits,
                    signatures: Arc::new(signatures),
                }
            }
            6 => {
                let n_exc = u32::from_be_bytes(ext.try_into().expect("4 bytes")) as u64;
                let exc_w = (id_w + WINDOW_FIELD_BITS) as u64;
                let exc_bits = n_exc
                    .checked_mul(exc_w)
                    .ok_or(WireDecodeError::Malformed("exception count overflows"))?;
                let rem = report_header(bits)?
                    .checked_sub(exc_bits)
                    .ok_or(WireDecodeError::Malformed("exception table exceeds body"))?;
                if rem % entry_w != 0 {
                    return Err(WireDecodeError::Malformed("TS body not a whole entry count"));
                }
                let report_ts_micros = r.get_bits(ts_w)?;
                let mut entries = Vec::with_capacity((rem / entry_w) as usize);
                for _ in 0..rem / entry_w {
                    entries.push((r.get_bits(id_w)?, r.get_bits(ts_w)?));
                }
                let mut window_exceptions = Vec::with_capacity(n_exc as usize);
                for _ in 0..n_exc {
                    let (id, win) = (r.get_bits(id_w)?, r.get_bits(WINDOW_FIELD_BITS)?);
                    window_exceptions.push((id, win as u32));
                }
                FramePayload::AdaptiveTimestampReport {
                    report_ts_micros,
                    entries,
                    window_exceptions,
                }
            }
            7 => {
                let n_hot = u32::from_be_bytes(ext[..4].try_into().expect("4 bytes")) as u64;
                let sig_bits = u32::from_be_bytes(ext[4..].try_into().expect("4 bytes"));
                if sig_bits == 0 {
                    return Err(WireDecodeError::Malformed("zero signature width"));
                }
                let word_w = sig_bits.min(64);
                let hot_bits = n_hot
                    .checked_mul(id_w as u64)
                    .ok_or(WireDecodeError::Malformed("hot-id count overflows"))?;
                let rem = report_header(bits)?
                    .checked_sub(hot_bits)
                    .ok_or(WireDecodeError::Malformed("hot-id list exceeds body"))?;
                if rem % word_w as u64 != 0 {
                    return Err(WireDecodeError::Malformed("SIG body not a whole word count"));
                }
                let report_ts_micros = r.get_bits(ts_w)?;
                let mut hot_ids = Vec::with_capacity(n_hot as usize);
                for _ in 0..n_hot {
                    hot_ids.push(r.get_bits(id_w)?);
                }
                let mut signatures = Vec::with_capacity((rem / word_w as u64) as usize);
                for _ in 0..rem / word_w as u64 {
                    signatures.push(r.get_bits(word_w)?);
                }
                FramePayload::HybridReport {
                    report_ts_micros,
                    hot_ids,
                    sig_bits,
                    signatures: Arc::new(signatures),
                }
            }
            3 => {
                if bits != 32 + id_w as u64 {
                    return Err(WireDecodeError::Malformed("bad uplink-query length"));
                }
                FramePayload::UplinkQuery {
                    client: r.get_bits(32)?,
                    item: r.get_bits(id_w)?,
                }
            }
            4 => {
                if bits != id_w as u64 + 128 {
                    return Err(WireDecodeError::Malformed("bad query-answer length"));
                }
                FramePayload::QueryAnswer {
                    item: r.get_bits(id_w)?,
                    value: r.get_bits(64)?,
                    ts_micros: r.get_bits(64)?,
                }
            }
            5 => {
                if bits != id_w as u64 {
                    return Err(WireDecodeError::Malformed("bad invalidation length"));
                }
                FramePayload::Invalidation {
                    item: r.get_bits(id_w)?,
                }
            }
            _ => unreachable!("kind range checked above"),
        };
        r.finish()?;
        Ok(self.frame(payload))
    }

    /// The [`FrameKind`] of a payload.
    pub fn kind(payload: &FramePayload) -> FrameKind {
        match payload {
            FramePayload::TimestampReport { .. }
            | FramePayload::AdaptiveTimestampReport { .. }
            | FramePayload::AmnesicReport { .. }
            | FramePayload::HybridReport { .. }
            | FramePayload::SignatureReport { .. } => FrameKind::Report,
            FramePayload::UplinkQuery { .. } => FrameKind::Query,
            FramePayload::QueryAnswer { .. } => FrameKind::Answer,
            FramePayload::Invalidation { .. } => FrameKind::Invalidation,
        }
    }
}

/// 64-bit FNV-1a checksum over a serialized frame.
///
/// Every frame is notionally transmitted with this trailer; a receiver
/// whose recomputed checksum mismatches discards the frame and treats
/// the report as *missed* — a corrupted invalidation list must never be
/// half-applied (see DESIGN.md §10). FNV-1a detects every single-bit
/// flip (each input bit feeds the multiply-xor chain), which the fault
/// injector's corruption tests rely on; it is an error-detection code
/// here, not a cryptographic one.
#[inline]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Flips bit `bit` (MSB-first within each byte) of a serialized frame,
/// modelling a single-bit channel error. `bit` is taken modulo the
/// buffer's bit length so any draw is in range.
pub fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
}

/// Wire format version stamped into byte 1 of every frame header.
/// Version 1 stores the body length in *bits* (version 0 stored bytes,
/// which cannot recover entry counts on decode) plus the per-kind
/// extension headers.
pub const WIRE_VERSION: u8 = 1;

/// Why a serialized frame failed to decode.
///
/// A decoder error means the frame is *discarded whole* — the receiving
/// strategy treats the report as missed and runs its own gap-recovery
/// rule at the next intact report; nothing is ever half-applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDecodeError {
    /// Fewer bytes than the header demands.
    Truncated {
        /// Bytes the header (or the fixed prefix) requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// More bytes than the header accounts for.
    TrailingBytes {
        /// Bytes the header accounts for.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Unrecognized kind byte.
    UnknownKind(u8),
    /// Wire version this decoder does not speak.
    UnsupportedVersion(u8),
    /// The [`checksum64`] trailer does not match the frame bytes.
    ChecksumMismatch,
    /// A structural invariant of the claimed kind does not hold.
    Malformed(&'static str),
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireDecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            WireDecodeError::TrailingBytes { expected, got } => {
                write!(f, "trailing bytes: frame accounts for {expected}, got {got}")
            }
            WireDecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireDecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireDecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            WireDecodeError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireDecodeError {}

/// Prepends the big-endian epoch header and appends the [`checksum64`]
/// trailer (computed over header + frame), producing the datagram
/// actually put on the wire: `[epoch: 8][frame][checksum64: 8]`.
///
/// The epoch numbers the *broadcaster*, not the report: replicated
/// servers (`sw_live::ha`) bump it on every takeover so a receiver can
/// fence datagrams from a deposed primary. Unreplicated senders use
/// epoch 0.
/// The checksum covers the epoch bytes too, so a bit flip in the header
/// is detected exactly like a flip in the payload.
pub fn seal_frame(epoch: u64, frame: Vec<u8>) -> Vec<u8> {
    let mut datagram = Vec::with_capacity(frame.len() + 16);
    datagram.extend_from_slice(&epoch.to_be_bytes());
    datagram.extend_from_slice(&frame);
    let sum = checksum64(&datagram);
    datagram.extend_from_slice(&sum.to_be_bytes());
    datagram
}

/// Verifies and strips the [`checksum64`] trailer and epoch header of a
/// received datagram, returning `(epoch, frame bytes)`. A mismatch
/// means the datagram was damaged in flight; the caller must treat the
/// report as missed.
pub fn open_frame(datagram: &[u8]) -> Result<(u64, &[u8]), WireDecodeError> {
    if datagram.len() < 16 {
        return Err(WireDecodeError::Truncated {
            needed: 16,
            got: datagram.len(),
        });
    }
    let (body, trailer) = datagram.split_at(datagram.len() - 8);
    let declared = u64::from_be_bytes(trailer.try_into().expect("8 bytes"));
    if checksum64(body) != declared {
        return Err(WireDecodeError::ChecksumMismatch);
    }
    let (header, frame) = body.split_at(8);
    let epoch = u64::from_be_bytes(header.try_into().expect("8 bytes"));
    Ok((epoch, frame))
}

/// Minimal MSB-first bit packer backing [`WireEncode::serialize_payload`]:
/// appends whole bytes to a buffer it borrows.
struct BitWriter<'a> {
    buf: &'a mut Vec<u8>,
    cur: u8,
    filled: u32,
    bits: u64,
}

impl<'a> BitWriter<'a> {
    fn new(buf: &'a mut Vec<u8>) -> Self {
        BitWriter {
            buf,
            cur: 0,
            filled: 0,
            bits: 0,
        }
    }

    /// Writes the low `width` bits of `value`, MSB first. `width` beyond
    /// 64 pads with zero bits (timestamps wider than a machine word).
    fn put_bits(&mut self, value: u64, width: u32) {
        let pad = width.saturating_sub(64);
        for _ in 0..pad {
            self.push_bit(false);
        }
        let width = width.min(64);
        for i in (0..width).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    #[inline]
    fn push_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.filled += 1;
        self.bits += 1;
        if self.filled == 8 {
            self.buf.push(self.cur);
            self.cur = 0;
            self.filled = 0;
        }
    }

    /// Pads the last byte with zero bits; returns the exact number of
    /// bits written (the serialized header's length field, padding not
    /// counted).
    fn finish(mut self) -> u64 {
        if self.filled > 0 {
            self.cur <<= 8 - self.filled;
            self.buf.push(self.cur);
        }
        self.bits
    }
}

/// MSB-first bit unpacker backing [`WireEncode::deserialize`]; the
/// mirror of [`BitWriter`]. Bounded by the header's declared bit
/// length, never by the byte buffer alone, so padding bits cannot be
/// misread as data.
struct BitReader<'a> {
    body: &'a [u8],
    pos: u64,
    bits: u64,
}

impl<'a> BitReader<'a> {
    fn new(body: &'a [u8], bits: u64) -> Self {
        BitReader { body, pos: 0, bits }
    }

    /// Reads the next `width`-bit field MSB first, returning its low 64
    /// bits. For fields wider than 64 bits the leading pad must be zero
    /// (the writer only ever emits zeros there) — anything else is a
    /// damaged frame.
    fn get_bits(&mut self, width: u32) -> Result<u64, WireDecodeError> {
        if self.bits - self.pos < width as u64 {
            return Err(WireDecodeError::Malformed("field extends past declared length"));
        }
        let pad = width.saturating_sub(64);
        for _ in 0..pad {
            if self.take_bit() {
                return Err(WireDecodeError::Malformed("nonzero pad in over-wide field"));
            }
        }
        let mut v = 0u64;
        for _ in 0..width.min(64) {
            v = (v << 1) | self.take_bit() as u64;
        }
        Ok(v)
    }

    #[inline]
    fn take_bit(&mut self) -> bool {
        let byte = self.body[(self.pos / 8) as usize];
        let bit = byte & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        bit
    }

    /// Asserts the declared bit length was consumed exactly and the
    /// final byte's padding bits are all zero.
    fn finish(self) -> Result<(), WireDecodeError> {
        debug_assert_eq!(self.pos, self.bits, "decoder arithmetic consumes bits exactly");
        let tail = self.bits % 8;
        if tail != 0 {
            let last = self.body[(self.bits / 8) as usize];
            if last & (0xFF >> tail) != 0 {
                return Err(WireDecodeError::Malformed("nonzero final-byte padding"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> WireEncode {
        // Scenario 1 parameters: n = 1000, b_T = 512.
        WireEncode::new(1000, 512, 512, 512)
    }

    #[test]
    fn id_bits_is_ceil_log2() {
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(1000), 10);
        assert_eq!(id_bits(1024), 10);
        assert_eq!(id_bits(1025), 11);
        assert_eq!(id_bits(1_000_000), 20);
    }

    #[test]
    fn ts_report_bits_match_formula() {
        let e = enc();
        // n_c entries of (10-bit id + 512-bit timestamp).
        assert_eq!(e.ts_report_bits(7), 7 * (10 + 512));
    }

    #[test]
    fn at_report_bits_match_formula() {
        let e = enc();
        assert_eq!(e.at_report_bits(13), 13 * 10);
    }

    #[test]
    fn sig_report_bits_match_formula() {
        let e = enc();
        assert_eq!(e.sig_report_bits(100, 16), 1600);
    }

    #[test]
    fn frame_sizes_flow_from_payload() {
        let e = enc();
        let f = e.frame(FramePayload::AmnesicReport {
            report_ts_micros: 0,
            ids: vec![1, 2, 3],
        });
        assert_eq!(f.bits, 30);
        let q = e.frame(FramePayload::UplinkQuery { client: 0, item: 5 });
        assert_eq!(q.bits, 512);
        let a = e.frame(FramePayload::QueryAnswer {
            item: 5,
            value: 99,
            ts_micros: 1,
        });
        assert_eq!(a.bits, 512);
    }

    #[test]
    fn serialized_length_tracks_analytical_bits() {
        let e = enc();
        // AT report: 3 ids = 30 bits + 512-bit report timestamp header.
        let f = e.frame(FramePayload::AmnesicReport {
            report_ts_micros: 42,
            ids: vec![1, 2, 3],
        });
        let bytes = e.serialize_payload(&f.payload);
        // header (10) + ceil((512 + 30)/8) = 10 + 68
        assert_eq!(bytes.len(), 10 + 68);
    }

    #[test]
    fn serialization_is_deterministic() {
        let e = enc();
        let f = e.frame(FramePayload::TimestampReport {
            report_ts_micros: 10,
            entries: vec![(1, 5), (2, 9)],
        });
        assert_eq!(
            e.serialize_payload(&f.payload),
            e.serialize_payload(&f.payload)
        );
    }

    #[test]
    fn distinct_payloads_distinct_bytes() {
        let e = enc();
        let a = e.serialize_payload(&FramePayload::AmnesicReport {
            report_ts_micros: 0,
            ids: vec![1],
        });
        let b = e.serialize_payload(&FramePayload::AmnesicReport {
            report_ts_micros: 0,
            ids: vec![2],
        });
        assert_ne!(a, b);
    }

    #[test]
    fn kind_classification() {
        assert_eq!(
            WireEncode::kind(&FramePayload::UplinkQuery { client: 0, item: 0 }),
            FrameKind::Query
        );
        assert_eq!(
            WireEncode::kind(&FramePayload::SignatureReport {
                report_ts_micros: 0,
                sig_bits: 16,
                signatures: Arc::new(vec![])
            }),
            FrameKind::Report
        );
        assert_eq!(
            WireEncode::kind(&FramePayload::Invalidation { item: 3 }),
            FrameKind::Invalidation
        );
    }

    #[test]
    fn hybrid_report_bits_are_ids_plus_signatures() {
        let e = enc();
        let f = e.frame(FramePayload::HybridReport {
            report_ts_micros: 0,
            hot_ids: vec![1, 2, 3],
            sig_bits: 16,
            signatures: Arc::new(vec![0; 100]),
        });
        assert_eq!(f.bits, 3 * 10 + 100 * 16);
    }

    #[test]
    fn adaptive_report_bits_include_window_exceptions() {
        let e = enc();
        let f = e.frame(FramePayload::AdaptiveTimestampReport {
            report_ts_micros: 0,
            entries: vec![(1, 5), (2, 9)],
            window_exceptions: vec![(7, 50)],
        });
        // 2 entries × (10 + 512) + 1 exception × (10 + 16).
        assert_eq!(f.bits, 2 * 522 + 26);
    }

    #[test]
    fn hybrid_and_adaptive_serialize_deterministically() {
        let e = enc();
        for payload in [
            FramePayload::HybridReport {
                report_ts_micros: 5,
                hot_ids: vec![9],
                sig_bits: 16,
                signatures: Arc::new(vec![1, 2, 3]),
            },
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros: 5,
                entries: vec![(1, 2)],
                window_exceptions: vec![(3, 4)],
            },
        ] {
            let f = e.frame(payload);
            assert_eq!(
                e.serialize_payload(&f.payload),
                e.serialize_payload(&f.payload)
            );
            assert_eq!(WireEncode::kind(&f.payload), FrameKind::Report);
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let e = enc();
        let bytes = e.serialize_payload(&FramePayload::TimestampReport {
            report_ts_micros: 42,
            entries: vec![(1, 5), (2, 9), (999, 77)],
        });
        let clean = checksum64(&bytes);
        for bit in 0..(bytes.len() as u64 * 8) {
            let mut corrupted = bytes.clone();
            flip_bit(&mut corrupted, bit);
            assert_ne!(
                checksum64(&corrupted),
                clean,
                "flip of bit {bit} went undetected"
            );
            // Flipping back restores the frame and the checksum.
            flip_bit(&mut corrupted, bit);
            assert_eq!(corrupted, bytes);
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum64(&[1, 2]), checksum64(&[2, 1]));
        assert_ne!(checksum64(&[0]), checksum64(&[0, 0]));
    }

    #[test]
    fn flip_bit_wraps_out_of_range_draws() {
        let mut a = vec![0u8; 4];
        flip_bit(&mut a, 32); // == bit 0
        assert_eq!(a, vec![0x80, 0, 0, 0]);
        let mut empty: Vec<u8> = vec![];
        flip_bit(&mut empty, 5); // no-op, no panic
        assert!(empty.is_empty());
    }

    #[test]
    fn bitwriter_packs_msb_first() {
        let mut v = Vec::new();
        let mut w = BitWriter::new(&mut v);
        w.put_bits(0b101, 3);
        w.put_bits(0b11111, 5);
        assert_eq!(w.finish(), 8);
        assert_eq!(v, vec![0b1011_1111]);
    }

    #[test]
    fn bitwriter_pads_final_byte() {
        let mut v = vec![7];
        let mut w = BitWriter::new(&mut v);
        w.put_bits(0b1, 1);
        assert_eq!(w.finish(), 1);
        assert_eq!(v, vec![7, 0b1000_0000], "appended after what was there");
    }

    /// The kept-buffer form writes exactly the fresh one's bytes, over
    /// whatever a longer or shorter earlier frame left in the buffer.
    #[test]
    fn serialize_payload_into_a_used_buffer_matches_a_fresh_one() {
        let e = enc();
        let payloads = [
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros: 9,
                entries: vec![(3, 1), (4, 2)],
                window_exceptions: vec![(3, 5)],
            },
            FramePayload::Invalidation { item: 17 },
            FramePayload::HybridReport {
                report_ts_micros: 5,
                hot_ids: vec![1, 2, 3],
                sig_bits: 12,
                signatures: Arc::new(vec![0xABC, 0x123]),
            },
            FramePayload::AmnesicReport {
                report_ts_micros: 7,
                ids: vec![],
            },
        ];
        let mut kept = vec![0xEE; 300];
        for p in &payloads {
            e.serialize_payload_into(p, &mut kept);
            assert_eq!(kept, e.serialize_payload(p), "{p:?}");
        }
    }

    #[test]
    fn deserialize_inverts_serialize_on_each_kind() {
        let e = enc();
        let payloads = vec![
            FramePayload::TimestampReport {
                report_ts_micros: 42_000_000,
                entries: vec![(1, 5), (2, 9), (999, 77)],
            },
            FramePayload::AmnesicReport {
                report_ts_micros: 7,
                ids: vec![0, 999],
            },
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros: 3,
                entries: vec![(4, 8)],
                window_exceptions: vec![(7, 50), (9, 1)],
            },
            FramePayload::SignatureReport {
                report_ts_micros: 11,
                sig_bits: 16,
                signatures: Arc::new(vec![0xFFFF, 0, 0xABCD]),
            },
            FramePayload::HybridReport {
                report_ts_micros: 13,
                hot_ids: vec![5, 6],
                sig_bits: 16,
                signatures: Arc::new(vec![1, 2, 3]),
            },
            FramePayload::UplinkQuery { client: 3, item: 9 },
            FramePayload::QueryAnswer {
                item: 5,
                value: u64::MAX,
                ts_micros: 123,
            },
            FramePayload::Invalidation { item: 1000 - 1 },
        ];
        for p in payloads {
            let bytes = e.serialize_payload(&p);
            let back = e.deserialize(&bytes).expect("round trip");
            assert_eq!(back.payload, p);
            assert_eq!(back.bits, e.payload_bits(&p));
        }
    }

    #[test]
    fn deserialize_rejects_structural_damage() {
        let e = enc();
        let bytes = e.serialize_payload(&FramePayload::AmnesicReport {
            report_ts_micros: 42,
            ids: vec![1, 2, 3],
        });
        // Truncated at every length below the full frame.
        for cut in 0..bytes.len() {
            assert!(e.deserialize(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            e.deserialize(&long),
            Err(WireDecodeError::TrailingBytes {
                expected: bytes.len(),
                got: bytes.len() + 1
            })
        );
        // Unknown kind and future version.
        let mut k = bytes.clone();
        k[0] = 9;
        assert_eq!(e.deserialize(&k), Err(WireDecodeError::UnknownKind(9)));
        let mut v = bytes.clone();
        v[1] = 0;
        assert_eq!(e.deserialize(&v), Err(WireDecodeError::UnsupportedVersion(0)));
    }

    #[test]
    fn seal_and_open_round_trip_and_catch_damage() {
        let e = enc();
        let frame = e.serialize_payload(&FramePayload::Invalidation { item: 17 });
        for epoch in [0u64, 1, 7, u64::MAX] {
            let datagram = seal_frame(epoch, frame.clone());
            assert_eq!(open_frame(&datagram).expect("clean"), (epoch, &frame[..]));
            // The checksum covers the epoch header and the payload alike:
            // every single-bit flip anywhere in the datagram is caught.
            for bit in 0..(datagram.len() as u64 * 8) {
                let mut damaged = datagram.clone();
                flip_bit(&mut damaged, bit);
                assert_eq!(open_frame(&damaged), Err(WireDecodeError::ChecksumMismatch));
            }
            assert!(matches!(
                open_frame(&datagram[..4]),
                Err(WireDecodeError::Truncated { .. })
            ));
            assert!(matches!(
                open_frame(&datagram[..15]),
                Err(WireDecodeError::Truncated { needed: 16, .. })
            ));
        }
    }

    #[test]
    fn wide_timestamps_zero_pad() {
        // 512-bit field with a 64-bit value: 448 zero bits then the value.
        let mut v = Vec::new();
        let mut w = BitWriter::new(&mut v);
        w.put_bits(u64::MAX, 512);
        assert_eq!(w.finish(), 512);
        assert_eq!(v.len(), 64);
        assert!(v[..56].iter().all(|&b| b == 0));
        assert!(v[56..].iter().all(|&b| b == 0xFF));
    }
}
