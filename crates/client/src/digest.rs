//! One per-broadcast report digest.
//!
//! The paper writes both §3.1 (TS) and §3.2 (AT) client algorithms as
//! "for every item j *in the MU cache*: is j in the report?" — a
//! client's per-report cost is bounded by its cache (at most its hot
//! spot), and the report is only *probed*. A [`ReportDigest`] is what
//! makes the probe O(1): built once per broadcast from the
//! [`FramePayload`], it holds the report time `T_i` and one membership
//! bitset over the listed ids (AT ids, HYB `hot_ids`, GR changed-group
//! ids, TS entry ids). Every listening client — a boxed
//! [`crate::handler`] or a columnar slot block — then walks its own
//! cache and asks the digest, so an interval costs O(|report| +
//! awake·H) instead of O(awake·|report|·log H).
//!
//! The two verdict methods, [`ReportDigest::listed`] and
//! [`ReportDigest::ts_newer_than`], are the single definition of
//! keep / restamp / invalidate for TS, AT, GR, the hot half of HYB,
//! adaptive TS and quasi-delay; nothing else compares against the
//! report on its own.
//!
//! The buffers live in a [`DigestScratch`] the cell keeps across
//! intervals: building a digest allocates nothing once the scratch has
//! seen a report of that size, and the bitset is at most `n/8` bytes
//! for a database of `n` items.

use sw_server::ItemId;
use sw_sim::SimTime;
use sw_wireless::FramePayload;

use crate::handler::time_from_micros;

/// Ids below this bound get a bit in the membership set (2 MiB at the
/// very most). Larger ids — no report builder emits them, only
/// hand-built or hostile payloads do — go to a sorted overflow list, so
/// one huge id in a received frame cannot size an allocation.
const BITSET_ID_BOUND: u64 = 1 << 24;

/// Reusable buffers behind a [`ReportDigest`]; one per cell (or one
/// throw-away per call on the single-unit wrappers).
#[derive(Debug, Default)]
pub struct DigestScratch {
    /// Membership bits for ids below [`BITSET_ID_BOUND`].
    bits: Vec<u64>,
    /// Listed ids at or above the bound, sorted.
    overflow: Vec<u64>,
    /// TS entries re-sorted (strictly ascending ids, the newest `t_j`
    /// kept per id) — filled only when the payload's own entries are
    /// not already in that shape.
    sorted: Vec<(u64, u64)>,
}

impl DigestScratch {
    /// Digests `payload`: O(|report|), no allocation once warm.
    ///
    /// # Panics
    /// Panics if `payload` is not an invalidation report.
    pub fn digest<'a>(&'a mut self, payload: &'a FramePayload) -> ReportDigest<'a> {
        let (micros, entries, ids): (u64, &[(u64, u64)], &[u64]) = match payload {
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            }
            | FramePayload::AdaptiveTimestampReport {
                report_ts_micros,
                entries,
                ..
            } => (*report_ts_micros, entries, &[]),
            FramePayload::AmnesicReport {
                report_ts_micros,
                ids,
            }
            | FramePayload::HybridReport {
                report_ts_micros,
                hot_ids: ids,
                ..
            } => (*report_ts_micros, &[], ids),
            FramePayload::SignatureReport {
                report_ts_micros, ..
            } => (*report_ts_micros, &[], &[]),
            other => panic!("cannot digest a non-report frame: {other:?}"),
        };
        let listed = || entries.iter().map(|e| e.0).chain(ids.iter().copied());
        let words = listed()
            .filter(|&id| id < BITSET_ID_BOUND)
            .max()
            .map_or(0, |top| top as usize / 64 + 1);
        self.bits.clear();
        self.bits.resize(words, 0);
        self.overflow.clear();
        for id in listed() {
            if id < BITSET_ID_BOUND {
                self.bits[id as usize / 64] |= 1 << (id % 64);
            } else {
                self.overflow.push(id);
            }
        }
        self.overflow.sort_unstable();
        // Report builders emit entries in strictly ascending item
        // order, which is what the binary search needs; anything else
        // (hand-built, hostile) is normalised into the scratch copy.
        let entries = if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries
        } else {
            self.sorted.clear();
            self.sorted.extend_from_slice(entries);
            self.sorted.sort_unstable();
            self.sorted.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1; // sorted: the later duplicate is the newer
                }
                same
            });
            &self.sorted
        };
        ReportDigest {
            payload,
            t_i: time_from_micros(micros),
            bits: &self.bits,
            overflow: &self.overflow,
            entries,
        }
    }
}

/// What every listening client needs from one report, computed once per
/// broadcast. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ReportDigest<'a> {
    payload: &'a FramePayload,
    t_i: SimTime,
    bits: &'a [u64],
    overflow: &'a [u64],
    entries: &'a [(u64, u64)],
}

impl<'a> ReportDigest<'a> {
    /// The report timestamp `T_i`.
    #[inline]
    pub fn report_time(&self) -> SimTime {
        self.t_i
    }

    /// The digested payload (signatures, window exceptions and the
    /// frame kind are read from here; ids and entries never are).
    #[inline]
    pub fn payload(&self) -> &'a FramePayload {
        self.payload
    }

    /// Whether the report lists `id` — an AT item id, a HYB hot id, a
    /// GR group id, or a TS entry's item id.
    #[inline]
    pub fn listed(&self, id: u64) -> bool {
        match usize::try_from(id / 64).ok().and_then(|w| self.bits.get(w)) {
            Some(word) => word >> (id % 64) & 1 != 0,
            None => self.overflow.binary_search(&id).is_ok(),
        }
    }

    /// The §3.1 comparison: does the report carry an entry `[item,
    /// t_j]` with `t_j` newer than a copy stamped `cached_micros`? A bit
    /// test first; only listed ids pay the binary search.
    #[inline]
    pub fn ts_newer_than(&self, item: ItemId, cached_micros: u64) -> bool {
        self.listed(item)
            && self
                .entries
                .binary_search_by_key(&item, |&(id, _)| id)
                .is_ok_and(|ix| cached_micros < self.entries[ix].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{MasterSeed, StreamId};

    /// Ids the random payloads draw from: dense low ids (with 0 and a
    /// word boundary), ids above any hot spot, and ids past the bitset
    /// bound.
    const ID_POOL: [u64; 12] = [
        0,
        1,
        2,
        63,
        64,
        65,
        500,
        999,
        5_000,
        BITSET_ID_BOUND - 1,
        BITSET_ID_BOUND,
        u64::MAX,
    ];

    fn naive_newer(entries: &[(u64, u64)], item: u64, cached: u64) -> bool {
        entries.iter().any(|&(id, t_j)| id == item && cached < t_j)
    }

    #[test]
    fn verdicts_match_the_naive_definition_on_random_payloads() {
        let mut rng = MasterSeed(0xD16E57).stream(StreamId::Custom { tag: 1 });
        let mut scratch = DigestScratch::default();
        for round in 0..400 {
            // Lengths 0..8 (empty included); ids drawn with repetition,
            // in no particular order; t_j in 0..4 (t_j = 0 included).
            let len = rng.uniform_index(8) as usize;
            let entries: Vec<(u64, u64)> = (0..len)
                .map(|_| {
                    (
                        ID_POOL[rng.uniform_index(ID_POOL.len() as u64) as usize],
                        rng.uniform_index(4),
                    )
                })
                .collect();
            let ids: Vec<u64> = entries.iter().map(|e| e.0).collect();
            let report_ts_micros = 10_000_000 + round;
            let payloads = [
                FramePayload::TimestampReport {
                    report_ts_micros,
                    entries: entries.clone(),
                },
                FramePayload::AmnesicReport {
                    report_ts_micros,
                    ids: ids.clone(),
                },
            ];
            for payload in &payloads {
                // The scratch is reused across payloads of every shape:
                // nothing of the previous digest may leak into the next.
                let digest = scratch.digest(payload);
                assert_eq!(digest.report_time(), time_from_micros(report_ts_micros));
                let is_ts = matches!(payload, FramePayload::TimestampReport { .. });
                for probe in ID_POOL.iter().copied().chain([3, 66, 1_000, 1 << 30]) {
                    assert_eq!(
                        digest.listed(probe),
                        ids.contains(&probe),
                        "listed({probe})"
                    );
                    for cached in 0..4 {
                        assert_eq!(
                            digest.ts_newer_than(probe, cached),
                            is_ts && naive_newer(&entries, probe, cached),
                            "ts_newer_than({probe}, {cached}) over {entries:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sorted_entries_are_borrowed_not_copied() {
        let payload = FramePayload::TimestampReport {
            report_ts_micros: 1,
            entries: vec![(1, 5), (4, 2), (9, 7)],
        };
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(&payload);
        assert!(digest.ts_newer_than(4, 1));
        assert!(!digest.ts_newer_than(4, 2));
        assert!(!digest.ts_newer_than(5, 0));
        assert!(scratch.sorted.is_empty());
    }

    #[test]
    fn signature_reports_list_nothing_and_hybrid_lists_hot_ids() {
        let signatures = std::sync::Arc::new(vec![0u64; 4]);
        let sig = FramePayload::SignatureReport {
            report_ts_micros: 7_000_000,
            sig_bits: 16,
            signatures: signatures.clone(),
        };
        let hyb = FramePayload::HybridReport {
            report_ts_micros: 7_000_000,
            hot_ids: vec![3, 70],
            sig_bits: 16,
            signatures,
        };
        let mut scratch = DigestScratch::default();
        assert!(!scratch.digest(&sig).listed(0));
        let digest = scratch.digest(&hyb);
        assert!(digest.listed(3) && digest.listed(70) && !digest.listed(4));
        assert_eq!(digest.report_time(), SimTime::from_secs(7.0));
    }

    #[test]
    #[should_panic(expected = "non-report frame")]
    fn non_report_frames_are_rejected() {
        let _ = DigestScratch::default().digest(&FramePayload::Invalidation { item: 1 });
    }
}
