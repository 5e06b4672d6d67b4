//! The §3 client algorithms — once.
//!
//! The paper gives each strategy's MU side as one short loop "for every
//! item j in the MU cache". [`ReportRule`] names the strategy and the
//! parameters it shares across a fleet (window, latency, group map, hot
//! set, syndrome decoder); [`ReportRule::apply`] is the only text of the
//! algorithms in the workspace: the frame-kind check, the disconnection
//! gap rule, the keep / restamp / invalidate walk, ghost retire, and
//! SIG's diagnose → drop → re-scope tracking → adopt the broadcast
//! signatures. It is generic over *where the cache lives*:
//!
//! * [`CacheSlots`] is the view of one client's cache the algorithms
//!   need. [`Cache`] (boxed [`crate::MobileUnit`]s, hence the live MU)
//!   implements it here; the columnar fleet implements it for one
//!   client's slot block of its columns. Both run the same
//!   monomorphised `apply`.
//! * [`SigTrack`] is a borrowed view of one client's signature-tracking
//!   state, lent by whoever stores it (a [`crate::handler::RuleHandler`]
//!   field, or a row of the fleet's SIG columns).
//!
//! Safety discipline: TS, AT and GR "will only allow false alarm errors
//! and will always correctly inform the client if his copy is invalid"
//! (§2) — an argument about this one function. SIG is probabilistic: a
//! changed item escapes only if its combined signatures collide
//! (probability ≈ 2^−g each), plus a one-interval blind spot for items
//! fetched mid-interval whose subsets were not previously tracked (see
//! [`ReportRule::on_fetch`]); both are measured, not assumed, by the
//! integration tests.

use std::sync::Arc;

use sw_server::{GroupMap, HotSet, ItemId};
use sw_signature::{CombinedSignature, SyndromeDecoder};
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::cache::Cache;
use crate::digest::ReportDigest;
use crate::handler::{time_to_micros, ProcessOutcome};

/// One client's cache as the §3 algorithms see it.
///
/// Walk order is the implementor's business — a dense [`Cache`] and a
/// slot block visit ascending, a hashed `Cache` arbitrarily — but the
/// *results* are ordered: [`CacheSlots::sweep`] and
/// [`CacheSlots::sorted_items`] return ascending item ids whatever the
/// visit order, so [`ProcessOutcome::invalidated`] is identical on
/// every store.
pub trait CacheSlots {
    /// Number of cached items.
    fn len(&self) -> usize;

    /// True if nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the entire cache, ghosts included: after a whole-cache
    /// drop *nothing* would have been a hit, so no later miss is
    /// attributable to an earlier eviction.
    fn clear(&mut self);

    /// "For every item j in the MU cache": one walk. Entries
    /// `stale(item, t_cache)` condemns are dropped and returned,
    /// ascending; the rest are verified as of `T_i` (`t_cache := T_i`).
    /// Report processing is not a read: recency is untouched.
    fn sweep(&mut self, t_i: SimTime, stale: impl FnMut(ItemId, SimTime) -> bool) -> Vec<ItemId>;

    /// Ghost retire: marks every still-fresh ghost (the memory of an
    /// evicted entry) for which `proven_stale(item, eviction_stamp)`
    /// holds — that copy would have been dropped anyway, the eviction
    /// cost nothing. No-op on unbounded caches.
    fn retire_ghosts(&mut self, proven_stale: impl FnMut(ItemId, SimTime) -> bool);

    /// Cached ids, ascending.
    fn sorted_items(&self) -> Vec<ItemId>;
}

impl CacheSlots for Cache {
    fn len(&self) -> usize {
        Cache::len(self)
    }

    fn clear(&mut self) {
        Cache::clear(self);
    }

    fn sweep(
        &mut self,
        t_i: SimTime,
        mut stale: impl FnMut(ItemId, SimTime) -> bool,
    ) -> Vec<ItemId> {
        let mut invalidated = Vec::new();
        self.retain_entries(|item, entry| {
            let keep = !stale(item, entry.timestamp);
            if keep {
                entry.timestamp = t_i;
            } else {
                invalidated.push(item);
            }
            keep
        });
        // Ascending already for dense caches; hashed ones visit in
        // arbitrary order.
        invalidated.sort_unstable();
        invalidated
    }

    fn retire_ghosts(&mut self, proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
        self.ghosts_mark_stale(proven_stale);
    }

    fn sorted_items(&self) -> Vec<ItemId> {
        Cache::sorted_items(self)
    }
}

/// One client's signature-tracking state (SIG, and the cold half of
/// HYB), borrowed for one call.
#[derive(Debug)]
pub struct SigTrack<'a> {
    /// Tracked combined signature per subset index, dense over the
    /// plan's `m` subsets (`None` = untracked). Subset indices are dense
    /// by construction, so no hashing on the per-report path.
    pub tracked: &'a mut [Option<CombinedSignature>],
    /// How many of `tracked` are `Some`.
    pub count: &'a mut usize,
    /// The signatures of the last heard report — an [`Arc`] share of
    /// the broadcast payload, never a copy — kept so that uplink
    /// fetches within the current interval can adopt tracking for their
    /// subsets (see [`ReportRule::on_fetch`]). Empty before the first.
    pub last_report: &'a mut Arc<Vec<CombinedSignature>>,
    /// Unmatched-subset count from the last diagnosis (telemetry).
    pub last_unmatched: &'a mut u32,
}

/// The AT-family gap tolerance: `L` plus a relative epsilon, so a unit
/// that heard the previous report is never dropped by float rounding.
fn gap_limit(latency: SimDuration) -> SimDuration {
    latency + SimDuration::from_secs(latency.as_secs() * 1e-9)
}

/// A strategy's client half: which §3 algorithm, with the parameters a
/// whole fleet shares. Must match the server's report builder — the
/// pairing is made in one place, `Strategy::report_rule`.
#[derive(Debug, Clone)]
pub enum ReportRule {
    /// §3.1 Broadcasting Timestamps.
    Ts {
        /// The window `w = k·L`.
        window: SimDuration,
    },
    /// §3.2 Amnesic Terminals.
    At {
        /// The broadcast latency `L`.
        latency: SimDuration,
    },
    /// §4.2 no caching: the unit never keeps anything, so every query
    /// goes uplink.
    NoCache,
    /// §10 aggregate reports: AT at *group* granularity — a listed
    /// group drops every cached member (group-level false alarms: safe,
    /// coarse).
    Group {
        /// The broadcast latency `L`.
        latency: SimDuration,
        /// The shared item → group partition.
        map: GroupMap,
    },
    /// §3.3 Signatures: syndrome decoding over the tracked combined
    /// signatures of every subset containing a cached item. Nap-proof —
    /// no gap rule.
    Sig {
        /// The shared decoder (subset family + plan).
        decoder: SyndromeDecoder,
    },
    /// §10 hybrid weighted reports: hot cached items follow AT rules,
    /// cold ones SIG rules over the cold-only combined signatures. One
    /// report serves both.
    Hybrid {
        /// The broadcast latency `L` (hot-half gap rule).
        latency: SimDuration,
        /// The shared hot set.
        hot: HotSet,
        /// The shared cold-half decoder.
        decoder: SyndromeDecoder,
    },
}

impl ReportRule {
    /// The TS rule with window `w = k·L`.
    pub fn ts(latency: SimDuration, k: u32) -> Self {
        assert!(k >= 1, "TS window multiple k must be at least 1");
        ReportRule::Ts {
            window: latency.scaled(k as f64),
        }
    }

    /// Strategy name, matching the server builder.
    pub fn name(&self) -> &'static str {
        match self {
            ReportRule::Ts { .. } => "TS",
            ReportRule::At { .. } => "AT",
            ReportRule::NoCache => "NC",
            ReportRule::Group { .. } => "GR",
            ReportRule::Sig { .. } => "SIG",
            ReportRule::Hybrid { .. } => "HYB",
        }
    }

    /// The syndrome decoder, for the rules that track signatures.
    pub fn decoder(&self) -> Option<&SyndromeDecoder> {
        match self {
            ReportRule::Sig { decoder } | ReportRule::Hybrid { decoder, .. } => Some(decoder),
            _ => None,
        }
    }

    /// Whether `payload` is a report this rule can process: its own
    /// strategy's frame kind (NC ignores the contents, so any report),
    /// and for SIG/HYB exactly the plan's `m` signatures. The one frame
    /// check: [`Self::apply`] asserts it, and a receiver of frames from
    /// outside the program asks it first and discards what it refuses.
    pub fn accepts(&self, payload: &FramePayload) -> bool {
        match (self, payload) {
            (ReportRule::Ts { .. }, FramePayload::TimestampReport { .. })
            | (
                ReportRule::At { .. } | ReportRule::Group { .. },
                FramePayload::AmnesicReport { .. },
            )
            | (
                ReportRule::NoCache,
                FramePayload::TimestampReport { .. }
                | FramePayload::AdaptiveTimestampReport { .. }
                | FramePayload::AmnesicReport { .. }
                | FramePayload::SignatureReport { .. }
                | FramePayload::HybridReport { .. },
            ) => true,
            (ReportRule::Sig { decoder }, FramePayload::SignatureReport { signatures, .. })
            | (ReportRule::Hybrid { decoder, .. }, FramePayload::HybridReport { signatures, .. }) => {
                signatures.len() == decoder.plan().m as usize
            }
            _ => false,
        }
    }

    /// Processes the report behind `digest`, heard at `T_i`, against one
    /// client's cache. `t_l` is when the client last heard a report
    /// (`None`: never); `sig` its tracking state, required exactly when
    /// [`Self::decoder`] is `Some`.
    ///
    /// # Panics
    /// Panics if the rule does not [accept](Self::accepts) the frame —
    /// a mis-wired builder, since outside input is screened first.
    pub fn apply<C: CacheSlots>(
        &self,
        cache: &mut C,
        sig: Option<SigTrack<'_>>,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        assert!(
            self.accepts(digest.payload()),
            "{} rule fed a report it cannot process: {:?}",
            self.name(),
            digest.payload()
        );
        let t_i = digest.report_time();
        // `if (T_i − T_l > tolerance)`: TS tolerates its window, AT, GR
        // and the hot half of HYB one latency. A missed report means
        // changes the client can no longer reconstruct; a unit that
        // never heard one can prove nothing about what it holds.
        let tolerance = match self {
            ReportRule::Ts { window } => Some(*window),
            ReportRule::At { latency }
            | ReportRule::Group { latency, .. }
            | ReportRule::Hybrid { latency, .. } => Some(gap_limit(*latency)),
            ReportRule::NoCache | ReportRule::Sig { .. } => None,
        };
        let missed_report = tolerance.is_some_and(|tolerance| match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l) > tolerance,
            None => true,
        });
        let invalidated = match self {
            // `{ drop the entire cache }` — HYB alone confines the drop
            // to its hot half, below.
            ReportRule::Ts { .. } | ReportRule::At { .. } | ReportRule::Group { .. }
                if missed_report && (t_l.is_some() || !cache.is_empty()) =>
            {
                cache.clear();
                return ProcessOutcome {
                    report_time: t_i,
                    dropped_all: true,
                    invalidated: Vec::new(),
                    revalidated: 0,
                };
            }
            ReportRule::Ts { .. } => {
                // if [j, t_j] in U_i { if t_cache < t_j drop else t_cache := T_i }
                // (not mentioned ⇒ unchanged within w ⇒ t_cache := T_i)
                let newer = |item, stamp| digest.ts_newer_than(item, time_to_micros(stamp));
                let invalidated = cache.sweep(t_i, newer);
                // Sound as a ghost proof because any update inside the
                // window w appears in the report.
                cache.retire_ghosts(newer);
                invalidated
            }
            ReportRule::At { .. } => {
                // A listed id changed this interval: drop the copy —
                // and any evicted copy of it is provably stale.
                let listed = |item, _| digest.listed(item);
                let invalidated = cache.sweep(t_i, listed);
                cache.retire_ghosts(listed);
                invalidated
            }
            // The report lists changed *group* ids.
            ReportRule::Group { map, .. } => {
                cache.sweep(t_i, |item, _| digest.listed(map.group_of(item)))
            }
            ReportRule::NoCache => {
                cache.clear();
                Vec::new()
            }
            ReportRule::Sig { decoder } => {
                let sig = sig.expect("the SIG rule needs the client's tracking state");
                decode(cache, decoder, sig, digest, |_| true)
            }
            ReportRule::Hybrid { hot, decoder, .. } => {
                let sig = sig.expect("the HYB rule needs the client's tracking state");
                // Hot half: AT semantics, scoped to hot items only — a
                // missed report condemns every hot copy (the amnesic id
                // list cannot be reconstructed), a heard one the listed
                // ids. Cold half: SIG semantics over what remains.
                let mut invalidated = cache.sweep(t_i, |item, _| {
                    if missed_report {
                        hot.contains(item)
                    } else {
                        digest.listed(item)
                    }
                });
                invalidated.extend(decode(cache, decoder, sig, digest, |item| {
                    !hot.contains(item)
                }));
                invalidated
            }
        };
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated: cache.len(),
        }
    }

    /// Observes an uplink fetch installing `item` (after the report for
    /// the current interval was processed): SIG and the cold half of
    /// HYB start tracking the item's subsets *from the just-heard
    /// report*. The fetched value is current as of `T_i`, exactly the
    /// state that report's signatures describe, so this closes the
    /// fetch-to-next-report blind spot for every subset but those an
    /// update lands in between the fetch and the next report — a stale
    /// window of at most one interval, probability ≤ 1 − e^(−μL) per
    /// fetch. TS/AT have no such window; the other rules ignore fetches.
    pub fn on_fetch(&self, sig: Option<SigTrack<'_>>, item: ItemId) {
        let decoder = match self {
            ReportRule::Sig { decoder } => decoder,
            ReportRule::Hybrid { hot, decoder, .. } if !hot.contains(item) => decoder,
            _ => return,
        };
        let sig = sig.expect("a signature rule needs the client's tracking state");
        if sig.last_report.is_empty() {
            return; // fetched before any report was heard
        }
        for j in decoder.family().subsets_of(item) {
            let slot = &mut sig.tracked[j as usize];
            if slot.is_none() {
                *slot = Some(sig.last_report[j as usize]);
                *sig.count += 1;
            }
        }
    }
}

/// §3.3 over the cached items `scope` admits (all of them for SIG, the
/// cold ones for HYB): diagnose the tracked signatures against the
/// broadcast, drop the items in too many unmatched subsets, then
/// re-scope tracking to the survivors and adopt the broadcast values
/// ("the combined uncached signatures are considered equal to the ones
/// that are being broadcast"). Survivors are valid as of `T_i` with
/// probability `P_nf`.
fn decode<C: CacheSlots>(
    cache: &mut C,
    decoder: &SyndromeDecoder,
    sig: SigTrack<'_>,
    digest: &ReportDigest<'_>,
    scope: impl Fn(ItemId) -> bool,
) -> Vec<ItemId> {
    let (FramePayload::SignatureReport { signatures, .. }
    | FramePayload::HybridReport { signatures, .. }) = digest.payload()
    else {
        unreachable!("`accepts` admits only signature-bearing frames to a signature rule")
    };
    let mut items = cache.sorted_items();
    items.retain(|&item| scope(item));
    let tracked = &*sig.tracked;
    let diagnosis = decoder.diagnose(&items, |j| tracked[j as usize], signatures);
    *sig.last_unmatched = diagnosis.unmatched_subsets;
    sig.tracked.fill(None);
    *sig.count = 0;
    let condemned = &diagnosis.invalidated; // ascending, as `items` is
    cache.sweep(digest.report_time(), |item, _| {
        if condemned.binary_search(&item).is_ok() {
            return true;
        }
        if scope(item) {
            for j in decoder.family().subsets_of(item) {
                let slot = &mut sig.tracked[j as usize];
                if slot.is_none() {
                    *sig.count += 1;
                }
                *slot = Some(signatures[j as usize]);
            }
        }
        false
    });
    *sig.last_report = Arc::clone(signatures);
    diagnosis.invalidated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestScratch;
    use crate::handler::time_from_micros;
    use sw_signature::{SigPlan, SubsetFamily};
    use sw_sim::{MasterSeed, RngStream, StreamId};

    const L: f64 = 10.0;
    const K: u32 = 3;
    const UNIVERSE: u64 = 200;
    /// Hot ids for HYB; cached ids are drawn from the whole universe.
    const HOT_COUNT: u64 = 100;

    fn decoder() -> SyndromeDecoder {
        let plan = SigPlan::new(2, 16, UNIVERSE, 0.05, SigPlan::DEFAULT_K);
        SyndromeDecoder::new(SubsetFamily::new(0xACE, plan.m, plan.f), plan)
    }

    fn rules() -> Vec<ReportRule> {
        let latency = SimDuration::from_secs(L);
        vec![
            ReportRule::ts(latency, K),
            ReportRule::At { latency },
            ReportRule::NoCache,
            ReportRule::Group {
                latency,
                map: GroupMap::new(UNIVERSE, 40),
            },
            ReportRule::Sig { decoder: decoder() },
            ReportRule::Hybrid {
                latency,
                hot: HotSet::top_by_rank(HOT_COUNT),
                decoder: decoder(),
            },
        ]
    }

    /// §3 as the paper prints it — a loop over the cached items with a
    /// linear scan of the raw report inside — returning the ids that
    /// may stay. No digest, no `CacheSlots`, no decoder.
    fn oracle(
        rule: &ReportRule,
        cached: &[(ItemId, SimTime)],
        tracked: &[Option<CombinedSignature>],
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> Vec<ItemId> {
        const NO_ENTRIES: &[(u64, u64)] = &[];
        const NONE: &[u64] = &[];
        let (t_i, entries, ids, signatures) = match payload {
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            } => (*report_ts_micros, &entries[..], NONE, NONE),
            FramePayload::AmnesicReport {
                report_ts_micros,
                ids,
            } => (*report_ts_micros, NO_ENTRIES, &ids[..], NONE),
            FramePayload::SignatureReport {
                report_ts_micros,
                signatures,
                ..
            } => (*report_ts_micros, NO_ENTRIES, NONE, &signatures[..]),
            FramePayload::HybridReport {
                report_ts_micros,
                hot_ids,
                signatures,
                ..
            } => (*report_ts_micros, NO_ENTRIES, &hot_ids[..], &signatures[..]),
            other => panic!("not a report: {other:?}"),
        };
        let t_i = time_from_micros(t_i);
        // if (T_i − T_l > tolerance): a unit that never heard a report
        // is past every tolerance.
        let gap_over = |tolerance: f64| {
            t_l.is_none_or(|t_l| t_i.saturating_duration_since(t_l).as_secs() > tolerance)
        };
        let at_tolerance = L * (1.0 + 1e-9);
        // §3.3: j is invalid iff it sits in too many unmatched subsets.
        let sig_valid = |j: ItemId, decoder: &SyndromeDecoder| {
            let (mut degree, mut unmatched) = (0u32, 0u32);
            for s in 0..decoder.plan().m {
                if decoder.family().contains(s, j) {
                    degree += 1;
                    if tracked[s as usize].is_some_and(|mine| mine != signatures[s as usize]) {
                        unmatched += 1;
                    }
                }
            }
            unmatched as f64 <= decoder.plan().degree_threshold_fraction() * degree as f64
        };
        let keep = |&(j, t_cache): &(ItemId, SimTime)| match rule {
            ReportRule::Ts { window } => {
                !gap_over(window.as_secs())
                    && !entries
                        .iter()
                        .any(|&(id, t_j)| id == j && time_to_micros(t_cache) < t_j)
            }
            ReportRule::At { .. } => !gap_over(at_tolerance) && !ids.contains(&j),
            ReportRule::Group { map, .. } => {
                !gap_over(at_tolerance) && !ids.contains(&map.group_of(j))
            }
            ReportRule::NoCache => false,
            ReportRule::Sig { decoder } => sig_valid(j, decoder),
            ReportRule::Hybrid { hot, decoder, .. } => {
                if hot.contains(j) {
                    !gap_over(at_tolerance) && !ids.contains(&j)
                } else {
                    // (a hostile id list may name cold items too)
                    (gap_over(at_tolerance) || !ids.contains(&j)) && sig_valid(j, decoder)
                }
            }
        };
        cached.iter().filter(|e| keep(e)).map(|e| e.0).collect()
    }

    fn random_payload(rule: &ReportRule, t_i: u64, rng: &mut RngStream) -> FramePayload {
        // Unsorted, with repeats, some ids outside the universe.
        let len = rng.uniform_index(12) as usize;
        let ids: Vec<u64> = (0..len).map(|_| rng.uniform_index(UNIVERSE + 20)).collect();
        let m = decoder().plan().m as usize;
        let signatures = Arc::new((0..m).map(|_| rng.next_u64() >> 48).collect::<Vec<u64>>());
        match rule {
            ReportRule::Ts { .. } => FramePayload::TimestampReport {
                report_ts_micros: t_i,
                entries: ids
                    .into_iter()
                    .map(|id| (id, t_i - rng.uniform_index(60) * 1_000_000))
                    .collect(),
            },
            ReportRule::At { .. } | ReportRule::NoCache => FramePayload::AmnesicReport {
                report_ts_micros: t_i,
                ids,
            },
            ReportRule::Group { map, .. } => FramePayload::AmnesicReport {
                report_ts_micros: t_i,
                ids: ids.into_iter().map(|id| id % map.groups()).collect(),
            },
            ReportRule::Sig { .. } => FramePayload::SignatureReport {
                report_ts_micros: t_i,
                sig_bits: 16,
                signatures,
            },
            ReportRule::Hybrid { .. } => FramePayload::HybridReport {
                report_ts_micros: t_i,
                hot_ids: ids,
                sig_bits: 16,
                signatures,
            },
        }
    }

    /// The paper's one hard promise is about what a client may *keep*.
    #[test]
    fn apply_over_cache_never_keeps_what_the_section_3_pseudo_code_drops() {
        let mut rng = MasterSeed(0x5EC7_1003).stream(StreamId::Custom { tag: 3 });
        let mut scratch = DigestScratch::default();
        let t_i = 100.0;
        for round in 0..600 {
            let rule = &rules()[round % 6];
            let mut cache = match round / 6 % 3 {
                0 => Cache::for_universe(UNIVERSE),
                1 => Cache::unbounded(),
                _ => Cache::with_capacity_for_universe(64, UNIVERSE),
            };
            for _ in 0..rng.uniform_index(25) {
                let stamp = t_i - rng.uniform_index(50) as f64;
                cache.insert(rng.uniform_index(UNIVERSE), 0, SimTime::from_secs(stamp));
            }
            let cached: Vec<(ItemId, SimTime)> = Cache::sorted_items(&cache)
                .into_iter()
                .map(|j| (j, cache.peek(j).expect("just listed").timestamp))
                .collect();
            // Never heard, heard the previous report, asleep for exactly
            // the TS window, and one report longer than that.
            let t_l = [
                None,
                Some(t_i - L),
                Some(t_i - K as f64 * L),
                Some(t_i - (K + 1) as f64 * L),
            ][rng.uniform_index(4) as usize]
                .map(SimTime::from_secs);
            let payload = random_payload(rule, (t_i * 1e6) as u64, &mut rng);
            // Tracking state: most subsets tracked, a round-dependent
            // share of them out of date — from "nothing changed" to
            // "everything did", across the decoder's threshold.
            let stale_share = [0.0, 0.1, 0.4, 1.0][round / 18 % 4];
            let on_air: &[u64] = match &payload {
                FramePayload::SignatureReport { signatures, .. }
                | FramePayload::HybridReport { signatures, .. } => signatures,
                _ => &[],
            };
            let mut tracked: Vec<Option<CombinedSignature>> = on_air
                .iter()
                .map(|&sig| {
                    rng.bernoulli(0.8)
                        .then(|| sig + rng.bernoulli(stale_share) as u64)
                })
                .collect();
            let expected = oracle(rule, &cached, &tracked, &payload, t_l);

            let (mut count, mut last_report, mut last_unmatched) = (0, Arc::new(Vec::new()), 0);
            let sig = rule.decoder().map(|_| SigTrack {
                tracked: &mut tracked,
                count: &mut count,
                last_report: &mut last_report,
                last_unmatched: &mut last_unmatched,
            });
            let outcome = rule.apply(&mut cache, sig, &scratch.digest(&payload), t_l);

            let kept = Cache::sorted_items(&cache);
            let context =
                format!("round {round}: {rule:?}\n{payload:?}\nt_l={t_l:?} cached={cached:?}");
            assert!(
                kept.iter().all(|j| expected.contains(j)),
                "kept {kept:?}, §3 keeps only {expected:?}\n{context}"
            );
            // ... and no false alarm the pseudo-code does not raise.
            assert_eq!(kept, expected, "{context}");
            assert_eq!(outcome.revalidated, kept.len(), "{context}");
            assert!(
                kept.iter()
                    .all(|&j| cache.peek(j).expect("kept").timestamp == outcome.report_time),
                "survivors are verified as of T_i\n{context}"
            );
            if !outcome.dropped_all && !matches!(rule, ReportRule::NoCache) {
                let mut all = [kept, outcome.invalidated].concat();
                all.sort_unstable();
                let before: Vec<ItemId> = cached.iter().map(|e| e.0).collect();
                assert_eq!(all, before, "every entry is kept or reported\n{context}");
            }
        }
    }
}
