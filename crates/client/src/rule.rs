//! The client algorithms — once.
//!
//! The paper gives each strategy's MU side as one short loop "for every
//! item j in the MU cache", and writes §7's delay condition and §8's
//! adaptive windows as that loop with one changed test each.
//! [`ReportRule`] names the strategy and the parameters it shares across
//! a fleet (window, latency, group map, hot set, syndrome decoder, lag
//! bound); [`ReportRule::apply`] is the only text of the algorithms in
//! the workspace: the frame-kind check, the disconnection gap rule, the
//! keep / restamp / invalidate walk, ghost retire, and SIG's diagnose →
//! drop → re-scope tracking → adopt the broadcast signatures. It is
//! generic over *where the cache lives*:
//!
//! * [`CacheSlots`] is the view of one client's cache the algorithms
//!   need. [`crate::Cache`] (boxed [`crate::MobileUnit`]s, hence the
//!   live MU) implements it; the columnar fleet implements it for one
//!   client's slot block of its columns. Both run the same
//!   monomorphised `apply`.
//! * [`Lent`] is the per-client state a rule borrows for one call —
//!   SIG/HYB's signature tracking ([`SigTrack`]), adaptive TS's window
//!   table — lent by whoever stores it (a
//!   [`crate::handler::RuleHandler`] field, or a row of the fleet's SIG
//!   columns).
//!
//! Safety discipline: TS, AT, GR and adaptive TS "will only allow false
//! alarm errors and will always correctly inform the client if his copy
//! is invalid" (§2) — an argument about this one function; quasi-delay
//! copies lag by design, up to `α`. SIG is probabilistic: a changed
//! item escapes only if its combined signatures collide (probability
//! ≈ 2^−g each), plus a one-interval blind spot for items fetched
//! mid-interval whose subsets were not previously tracked (see
//! [`ReportRule::on_fetch`]); both are measured, not assumed, by the
//! integration tests.

use std::sync::Arc;

use sw_adaptive::window::{WindowTable, INFINITE_WINDOW};
use sw_server::{GroupMap, HotSet, ItemId};
use sw_signature::{CombinedSignature, SyndromeDecoder};
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::digest::ReportDigest;

/// What the walk does with one cached entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Invalid: the copy is dropped.
    Drop,
    /// Verified as of `T_i`: `t_cache := T_i`. A store need not write
    /// that per entry: the columnar fleet records it once, as the
    /// client's `T_l` (see [`CacheSlots`]), and writes nothing here.
    Restamp,
    /// §7 only: the copy may lag, so it stays with its stamp untouched
    /// — the lag clock keeps running from the copy's birth.
    Keep,
}

impl Verdict {
    /// §3's two-way test: drop what the report condemns, restamp the
    /// rest.
    #[inline]
    pub fn drop_if(stale: bool) -> Self {
        if stale {
            Verdict::Drop
        } else {
            Verdict::Restamp
        }
    }
}

/// One client's cache as the algorithms see it.
///
/// Walk order is the implementor's business — [`crate::Cache`] and a
/// slot block both happen to visit ascending — but the *results* are
/// ordered: [`CacheSlots::sweep`] and [`CacheSlots::drop_listed`] append
/// the ids they drop ascending, and [`CacheSlots::sorted_items`] returns
/// ascending ids, whatever the visit order, so
/// [`crate::ProcessOutcome::invalidated`] is identical on every store.
///
/// The walks append to a buffer the caller lends rather than return a
/// list of their own, so a caller that sweeps many clients (the
/// columnar fleet) keeps one buffer across clients and intervals and a
/// walk allocates nothing.
///
/// How a store records "verified as of `T_i`" is its business too.
/// [`crate::Cache`] writes `T_i` into every surviving entry. The
/// columnar fleet's slot block stores each entry's *install* stamp and
/// reads the validity stamp as `max(stamp, T_l)`: every rule it hosts
/// ends a heard report with each survivor verified as of `T_i` and
/// `T_l := T_i`, so a restamp costs it nothing and a §7 `Keep` (a
/// survivor *not* vouched for) is refused there.
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

    /// "For every item j in the MU cache": one walk, `verdict(item,
    /// t_cache)` deciding each entry's fate. The dropped ids are
    /// appended to `dropped`, ascending. Report processing is not a
    /// read: recency is untouched.
    fn sweep(
        &mut self,
        t_i: SimTime,
        verdict: impl FnMut(ItemId, SimTime) -> Verdict,
        dropped: &mut Vec<ItemId>,
    );

    /// The walk of a report that can only condemn what it lists: among
    /// the cached entries `listed(item)` names, drop those
    /// `stale(item, t_cache)` condemns; every other entry is verified as
    /// of `T_i`. `stale` runs only for listed entries. The dropped ids
    /// are appended to `dropped`, ascending.
    ///
    /// The default body is one [`Self::sweep`]. A store whose restamp
    /// is free overrides it to read a stamp only for `report ∩ cache`
    /// and write nothing for the rest, so a report that lists next to
    /// nothing costs a membership probe per cached entry.
    fn drop_listed(
        &mut self,
        t_i: SimTime,
        listed: impl Fn(ItemId) -> bool,
        mut stale: impl FnMut(ItemId, SimTime) -> bool,
        dropped: &mut Vec<ItemId>,
    ) {
        self.sweep(
            t_i,
            |item, stamp| Verdict::drop_if(listed(item) && stale(item, stamp)),
            dropped,
        )
    }

    /// Ghost retire: marks every still-fresh ghost (the memory of an
    /// evicted entry) for which `proven_stale(item, eviction_stamp)`
    /// holds — that copy would have been dropped anyway, the eviction
    /// cost nothing. No-op on unbounded caches.
    fn retire_ghosts(&mut self, proven_stale: impl FnMut(ItemId, SimTime) -> bool);

    /// Cached ids, ascending.
    fn sorted_items(&self) -> Vec<ItemId>;
}

/// One client's signature-tracking state (SIG, and the cold half of
/// HYB), borrowed for one call.
#[derive(Debug)]
pub struct SigTrack<'a> {
    /// Which of the plan's `m` subsets the client tracks: bit `j % 64`
    /// of word `j / 64`, `⌈m/64⌉` words, no bit at or above `m`. A
    /// tracked subset's combined signature is `last_report[j]` — what a
    /// heard report adopts and a fetch copies — so the values are never
    /// stored twice.
    pub tracked: &'a mut [u64],
    /// The signatures of the last heard report — an [`Arc`] share of
    /// the broadcast payload, never a copy — the value of every tracked
    /// subset, and what uplink fetches within the current interval
    /// adopt tracking from (see [`ReportRule::on_fetch`]). Empty before
    /// the first; nothing is tracked until then.
    pub last_report: &'a mut Arc<Vec<CombinedSignature>>,
    /// Unmatched-subset count from the last diagnosis (telemetry).
    pub last_unmatched: &'a mut u32,
}

/// The per-client state a rule borrows for one call.
#[derive(Debug)]
pub enum Lent<'a> {
    /// TS, AT, NC, GR and QD keep nothing per client.
    Nothing,
    /// SIG and HYB: the signature-tracking state.
    Sig(SigTrack<'a>),
    /// Adaptive TS: the client's view of the per-item windows, reloaded
    /// from every heard report.
    Windows(&'a mut WindowTable),
}

impl SigTrack<'_> {
    /// The mask words a client of `decoder` keeps: `⌈m/64⌉`.
    pub fn words(decoder: &SyndromeDecoder) -> usize {
        (decoder.plan().m as usize).div_ceil(64)
    }

    /// How many subsets `mask` tracks.
    pub fn count(mask: &[u64]) -> usize {
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Whether bit `j` of `mask` is set.
#[inline]
fn bit(mask: &[u64], j: u32) -> bool {
    mask[j as usize / 64] & (1 << (j % 64)) != 0
}

/// Sets bit `j` of `mask`.
#[inline]
fn set_bit(mask: &mut [u64], j: u32) {
    mask[j as usize / 64] |= 1 << (j % 64);
}

impl<'a> Lent<'a> {
    fn sig(self) -> SigTrack<'a> {
        match self {
            Lent::Sig(track) => track,
            _ => panic!("a signature rule needs the client's tracking state"),
        }
    }
}

/// The AT-family gap tolerance: `L` plus a relative epsilon, so a unit
/// that heard the previous report is never dropped by float rounding.
fn gap_limit(latency: SimDuration) -> SimDuration {
    latency + SimDuration::from_secs(latency.as_secs() * 1e-9)
}

/// `latency`, which every gap rule measures against, must be positive.
fn positive(latency: SimDuration) -> SimDuration {
    assert!(!latency.is_zero(), "latency must be positive");
    latency
}

/// A strategy's client half: which algorithm, with the parameters a
/// whole fleet shares. Must match the server's report — the pairing is
/// made in one place, `Strategy::report_rule`.
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
    /// §8 adaptive TS: §3.1 with the window per item. The whole-cache
    /// drop `T_i − T_l > w` becomes "drop `j` iff `T_i − T_l > w_j`" —
    /// within `w_j` the report still mentions any update to `j` the
    /// client could have missed — and the rest follow the TS test.
    AdaptiveTs {
        /// The broadcast latency `L`; windows are multiples of it.
        latency: SimDuration,
        /// The window multiple `k_0` every item starts from (must match
        /// the server's).
        default_k: u32,
    },
    /// §7 delay condition over TS-style reports: a copy may lag the
    /// server by at most `α`. Once it reaches age `α` the unit waits
    /// for the next report — "if x is there, it drops the cache,
    /// otherwise it keeps it and makes ts(x) equal to the time of the
    /// current report." A unit that *missed* a report cannot apply
    /// that rule safely, so then every copy of age `α` goes.
    QuasiDelay {
        /// The broadcast latency `L`.
        latency: SimDuration,
        /// The allowed lag `α`.
        alpha: SimDuration,
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

    /// The AT rule for broadcast latency `L`.
    pub fn at(latency: SimDuration) -> Self {
        ReportRule::At {
            latency: positive(latency),
        }
    }

    /// The GR rule; `map` must be the partition the server groups its
    /// report by.
    pub fn group(latency: SimDuration, map: GroupMap) -> Self {
        ReportRule::Group {
            latency: positive(latency),
            map,
        }
    }

    /// The HYB rule; `hot` and `decoder` must match the server's
    /// [`sw_server::SignatureVector`].
    pub fn hybrid(latency: SimDuration, hot: HotSet, decoder: SyndromeDecoder) -> Self {
        ReportRule::Hybrid {
            latency: positive(latency),
            hot,
            decoder,
        }
    }

    /// The adaptive TS rule; `default_k` must match the server's.
    pub fn adaptive_ts(latency: SimDuration, default_k: u32) -> Self {
        assert!(default_k >= 1, "default window must be at least one interval");
        ReportRule::AdaptiveTs {
            latency: positive(latency),
            default_k,
        }
    }

    /// The quasi-delay rule with `α = alpha_intervals · L`.
    pub fn quasi_delay(latency: SimDuration, alpha_intervals: u64) -> Self {
        assert!(alpha_intervals >= 1, "α must be at least one interval");
        ReportRule::QuasiDelay {
            latency: positive(latency),
            alpha: latency.scaled(alpha_intervals as f64),
        }
    }

    /// Strategy name, matching `Strategy::name`.
    pub fn name(&self) -> &'static str {
        match self {
            ReportRule::Ts { .. } => "TS",
            ReportRule::At { .. } => "AT",
            ReportRule::NoCache => "NC",
            ReportRule::Group { .. } => "GR",
            ReportRule::Sig { .. } => "SIG",
            ReportRule::Hybrid { .. } => "HYB",
            ReportRule::AdaptiveTs { .. } => "ATS",
            ReportRule::QuasiDelay { .. } => "QD",
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
            (
                ReportRule::Ts { .. } | ReportRule::QuasiDelay { .. },
                FramePayload::TimestampReport { .. },
            )
            | (ReportRule::AdaptiveTs { .. }, FramePayload::AdaptiveTimestampReport { .. })
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
    /// (`None`: never); `lent` the per-client state this rule keeps, if
    /// any. The ids the report invalidates are appended to
    /// `invalidated` — ascending, and for HYB in two ascending runs, as
    /// [`crate::ProcessOutcome::invalidated`] documents — which the caller
    /// lends and may already hold other clients' ids. Returns whether
    /// the whole cache was dropped instead (a gap the rule cannot
    /// bridge), in which case nothing is appended.
    ///
    /// # Panics
    /// Panics if the rule does not [accept](Self::accepts) the frame —
    /// a mis-wired server, since outside input is screened first — or
    /// if `lent` is not the state the rule needs.
    pub fn apply<C: CacheSlots>(
        &self,
        cache: &mut C,
        lent: Lent<'_>,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
        invalidated: &mut Vec<ItemId>,
    ) -> bool {
        assert!(
            self.accepts(digest.payload()),
            "{} rule fed a report it cannot process: {:?}",
            self.name(),
            digest.payload()
        );
        let t_i = digest.report_time();
        // `if (T_i − T_l > tolerance)`: TS tolerates its window, AT, GR,
        // the hot half of HYB and QD's due copies one latency; adaptive
        // TS asks per item, below. A missed report means changes the
        // client can no longer reconstruct; a unit that never heard one
        // can prove nothing about what it holds.
        let tolerance = match self {
            ReportRule::Ts { window } => Some(*window),
            ReportRule::At { latency }
            | ReportRule::Group { latency, .. }
            | ReportRule::Hybrid { latency, .. }
            | ReportRule::QuasiDelay { latency, .. } => Some(gap_limit(*latency)),
            ReportRule::NoCache | ReportRule::Sig { .. } | ReportRule::AdaptiveTs { .. } => None,
        };
        let missed_report = tolerance.is_some_and(|tolerance| match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l) > tolerance,
            None => true,
        });
        match self {
            // `{ drop the entire cache }` — HYB alone confines the drop
            // to its hot half, below.
            ReportRule::Ts { .. } | ReportRule::At { .. } | ReportRule::Group { .. }
                if missed_report && (t_l.is_some() || !cache.is_empty()) =>
            {
                cache.clear();
                return true;
            }
            ReportRule::Ts { .. } => {
                // if [j, t_j] in U_i { if t_cache < t_j drop else t_cache := T_i }
                // (not mentioned ⇒ unchanged within w ⇒ t_cache := T_i)
                let newer = |item, stamp: SimTime| digest.ts_newer_than(item, stamp.as_micros());
                cache.drop_listed(t_i, |item| digest.listed(item), newer, invalidated);
                // Sound as a ghost proof because any update inside the
                // window w appears in the report.
                cache.retire_ghosts(newer);
            }
            ReportRule::AdaptiveTs { latency, .. } => {
                let Lent::Windows(windows) = lent else {
                    panic!("the adaptive TS rule needs the client's window table")
                };
                let FramePayload::AdaptiveTimestampReport {
                    window_exceptions, ..
                } = digest.payload()
                else {
                    unreachable!("`accepts` admits only adaptive reports to the adaptive rule")
                };
                // The current windows ride in with every report.
                windows.load_exceptions(window_exceptions);
                let gap = t_l.map_or(f64::INFINITY, |t_l| {
                    t_i.saturating_duration_since(t_l).as_secs()
                });
                cache.sweep(
                    t_i,
                    |item, stamp| {
                        // §8: "it makes sense to keep an 'infinite'
                        // window for an item like this" — no gap can
                        // age it out.
                        let w_j = match windows.get(item) {
                            k if k >= INFINITE_WINDOW => f64::INFINITY,
                            k => k as f64 * latency.as_secs(),
                        };
                        // A gap of exactly `w_j` is survivable, as for TS.
                        Verdict::drop_if(
                            gap > w_j * (1.0 + 1e-12)
                                || digest.ts_newer_than(item, stamp.as_micros()),
                        )
                    },
                    invalidated,
                );
            }
            ReportRule::QuasiDelay { alpha, .. } => cache.sweep(
                t_i,
                |item, stamp| {
                    // A copy reaches its allowed lag at age = α exactly,
                    // the interval the server's obligation comes due
                    // (`l + j`): `≥` keeps the two in lockstep, a strict
                    // `>` would look one interval late, after the
                    // obligation was popped.
                    let age = t_i.saturating_duration_since(stamp).as_secs();
                    if age < alpha.as_secs() * (1.0 - 1e-12) {
                        Verdict::Keep
                    } else {
                        // Due: named ⇒ drop; a unit that slept past a
                        // report cannot know whether the due one named it.
                        Verdict::drop_if(digest.listed(item) || missed_report)
                    }
                },
                invalidated,
            ),
            ReportRule::At { .. } => {
                // A listed id changed this interval: drop the copy —
                // and any evicted copy of it is provably stale.
                let listed = |item| digest.listed(item);
                cache.drop_listed(t_i, listed, |_, _| true, invalidated);
                cache.retire_ghosts(|item, _| listed(item));
            }
            // The report lists changed *group* ids.
            ReportRule::Group { map, .. } => cache.drop_listed(
                t_i,
                |item| digest.listed(map.group_of(item)),
                |_, _| true,
                invalidated,
            ),
            ReportRule::NoCache => cache.clear(),
            ReportRule::Sig { decoder } => {
                decode(cache, decoder, lent.sig(), digest, |_| true, invalidated)
            }
            ReportRule::Hybrid { hot, decoder, .. } => {
                // Hot half: AT semantics, scoped to hot items only — a
                // missed report condemns every hot copy (the amnesic id
                // list cannot be reconstructed), a heard one the listed
                // ids. Cold half: SIG semantics over what remains.
                let condemned = |item| {
                    if missed_report {
                        hot.contains(item)
                    } else {
                        digest.listed(item)
                    }
                };
                cache.drop_listed(t_i, condemned, |_, _| true, invalidated);
                decode(
                    cache,
                    decoder,
                    lent.sig(),
                    digest,
                    |item| !hot.contains(item),
                    invalidated,
                );
            }
        }
        false
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
    pub fn on_fetch(&self, lent: Lent<'_>, item: ItemId) {
        let decoder = match self {
            ReportRule::Sig { decoder } => decoder,
            ReportRule::Hybrid { hot, decoder, .. } if !hot.contains(item) => decoder,
            _ => return,
        };
        let sig = lent.sig();
        if sig.last_report.is_empty() {
            return; // fetched before any report was heard
        }
        for &j in decoder.subsets_of(item) {
            set_bit(sig.tracked, j);
        }
    }
}

/// §3.3 over the cached items `scope` admits (all of them for SIG, the
/// cold ones for HYB): diagnose the tracked signatures against the
/// broadcast, drop the items in too many unmatched subsets, then
/// re-scope tracking to the survivors and adopt the broadcast values
/// ("the combined uncached signatures are considered equal to the ones
/// that are being broadcast"). Survivors are valid as of `T_i` with
/// probability `P_nf`. The dropped ids — exactly the diagnosis's, which
/// names only cached items in scope — are appended to `invalidated`.
// Out of line: inlined into `apply`, it slows the sweeps of rules that never decode.
#[inline(never)]
fn decode<C: CacheSlots>(
    cache: &mut C,
    decoder: &SyndromeDecoder,
    sig: SigTrack<'_>,
    digest: &ReportDigest<'_>,
    scope: impl Fn(ItemId) -> bool,
    invalidated: &mut Vec<ItemId>,
) {
    let (FramePayload::SignatureReport { signatures, .. }
    | FramePayload::HybridReport { signatures, .. }) = digest.payload()
    else {
        unreachable!("`accepts` admits only signature-bearing frames to a signature rule")
    };
    let mut items = cache.sorted_items();
    items.retain(|&item| scope(item));
    let (tracked, last_report) = (&*sig.tracked, &**sig.last_report);
    let diagnosis = decoder.diagnose(
        &items,
        |j| bit(tracked, j).then(|| last_report[j as usize]),
        signatures,
    );
    *sig.last_unmatched = diagnosis.unmatched_subsets;
    sig.tracked.fill(0);
    let condemned = &diagnosis.invalidated; // ascending, as `items` is
    cache.sweep(
        digest.report_time(),
        |item, _| {
            if condemned.binary_search(&item).is_ok() {
                return Verdict::Drop;
            }
            if scope(item) {
                for &j in decoder.subsets_of(item) {
                    set_bit(sig.tracked, j);
                }
            }
            Verdict::Restamp
        },
        invalidated,
    );
    *sig.last_report = Arc::clone(signatures);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::digest::DigestScratch;
    use crate::handler::ProcessOutcome;
    use sw_signature::{SigPlan, SubsetFamily};
    use sw_sim::{MasterSeed, RngStream, StreamId};

    /// [`ReportRule::apply`] into a fresh buffer, as an outcome.
    fn outcome<C: CacheSlots>(
        rule: &ReportRule,
        cache: &mut C,
        lent: Lent<'_>,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let mut invalidated = Vec::new();
        let dropped_all = rule.apply(cache, lent, digest, t_l, &mut invalidated);
        ProcessOutcome {
            report_time: digest.report_time(),
            dropped_all,
            invalidated,
        }
    }

    const L: f64 = 10.0;
    const K: u32 = 3;
    /// QD's allowed lag, in intervals.
    const ALPHA: u64 = 2;
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
            ReportRule::at(latency),
            ReportRule::NoCache,
            ReportRule::group(latency, GroupMap::new(UNIVERSE, 40)),
            ReportRule::Sig { decoder: decoder() },
            ReportRule::hybrid(latency, HotSet::top_by_rank(HOT_COUNT), decoder()),
            ReportRule::adaptive_ts(latency, K),
            ReportRule::quasi_delay(latency, ALPHA),
        ]
    }

    /// §3, §7 and §8 as the paper prints them — a loop over the cached
    /// items with a linear scan of the raw report inside — returning
    /// the ids that may stay. No digest, no `CacheSlots`, no decoder,
    /// no window table.
    fn oracle(
        rule: &ReportRule,
        cached: &[(ItemId, SimTime)],
        tracked: &[Option<CombinedSignature>],
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> Vec<ItemId> {
        const NO_ENTRIES: &[(u64, u64)] = &[];
        const NO_WINDOWS: &[(u64, u32)] = &[];
        const NONE: &[u64] = &[];
        let (t_i, entries, windows, ids, signatures) = match payload {
            FramePayload::TimestampReport {
                report_ts_micros,
                entries,
            } => (*report_ts_micros, &entries[..], NO_WINDOWS, NONE, NONE),
            FramePayload::AdaptiveTimestampReport {
                report_ts_micros,
                entries,
                window_exceptions,
            } => (
                *report_ts_micros,
                &entries[..],
                &window_exceptions[..],
                NONE,
                NONE,
            ),
            FramePayload::AmnesicReport {
                report_ts_micros,
                ids,
            } => (*report_ts_micros, NO_ENTRIES, NO_WINDOWS, &ids[..], NONE),
            FramePayload::SignatureReport {
                report_ts_micros,
                signatures,
                ..
            } => (
                *report_ts_micros,
                NO_ENTRIES,
                NO_WINDOWS,
                NONE,
                &signatures[..],
            ),
            FramePayload::HybridReport {
                report_ts_micros,
                hot_ids,
                signatures,
                ..
            } => (
                *report_ts_micros,
                NO_ENTRIES,
                NO_WINDOWS,
                &hot_ids[..],
                &signatures[..],
            ),
            other => panic!("not a report: {other:?}"),
        };
        let t_i = SimTime::from_micros(t_i);
        // if (T_i − T_l > tolerance): a unit that never heard a report
        // is past every tolerance.
        let gap_over = |tolerance: f64| {
            t_l.is_none_or(|t_l| t_i.saturating_duration_since(t_l).as_secs() > tolerance)
        };
        let at_tolerance = L * (1.0 + 1e-9);
        // §3.1: if [j, t_j] in U_i and t_cache < t_j, drop.
        let ts_newer = |j: ItemId, t_cache: SimTime| {
            entries
                .iter()
                .any(|&(id, t_j)| id == j && t_cache.as_micros() < t_j)
        };
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
            ReportRule::Ts { window } => !gap_over(window.as_secs()) && !ts_newer(j, t_cache),
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
            // §8: drop j iff T_i − T_l > w_j (an "infinite" window never
            // ages out), else the TS test.
            ReportRule::AdaptiveTs { default_k, .. } => {
                let k_j = windows
                    .iter()
                    .find(|&&(id, _)| id == j)
                    .map_or(*default_k, |&(_, k)| k);
                (k_j == INFINITE_WINDOW || !gap_over(k_j as f64 * L)) && !ts_newer(j, t_cache)
            }
            // §7: a copy that reached age α drops iff the report names
            // it or a report was missed; a younger one stays.
            ReportRule::QuasiDelay { alpha, .. } => {
                let due = t_i.saturating_duration_since(t_cache) >= *alpha;
                !(due && (entries.iter().any(|e| e.0 == j) || gap_over(at_tolerance)))
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
        let entries = |ids: Vec<u64>, rng: &mut RngStream| -> Vec<(u64, u64)> {
            ids.into_iter()
                .map(|id| (id, t_i - rng.uniform_index(60) * 1_000_000))
                .collect()
        };
        match rule {
            ReportRule::Ts { .. } | ReportRule::QuasiDelay { .. } => {
                FramePayload::TimestampReport {
                    report_ts_micros: t_i,
                    entries: entries(ids, rng),
                }
            }
            ReportRule::AdaptiveTs { .. } => FramePayload::AdaptiveTimestampReport {
                report_ts_micros: t_i,
                entries: entries(ids, rng),
                // A window for about a sixth of the universe, descending
                // (so: unsorted), each id once — never reported, shorter
                // and longer than the default, infinite.
                window_exceptions: (0..UNIVERSE)
                    .rev()
                    .filter(|_| rng.bernoulli(1.0 / 6.0))
                    .map(|id| (id, [0, 1, 2, 5, INFINITE_WINDOW][id as usize % 5]))
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
        for round in 0..800 {
            let rule = &rules()[round % 8];
            let mut cache = match round / 8 % 3 {
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
            // Tracking state: most subsets tracked, and the last heard
            // report differing from this one in a round-dependent share
            // of them — from "nothing changed" to "everything did",
            // across the decoder's threshold.
            let stale_share = [0.0, 0.1, 0.4, 1.0][round / 24 % 4];
            let on_air: &[u64] = match &payload {
                FramePayload::SignatureReport { signatures, .. }
                | FramePayload::HybridReport { signatures, .. } => signatures,
                _ => &[],
            };
            let mut mask = vec![0; on_air.len().div_ceil(64)];
            let mut last_report: Vec<CombinedSignature> = on_air.to_vec();
            // What the oracle reads: the values the client tracks.
            let mut tracked = Vec::new();
            for (j, last) in last_report.iter_mut().enumerate() {
                let on = rng.bernoulli(0.8);
                if on {
                    set_bit(&mut mask, j as u32);
                    *last += rng.bernoulli(stale_share) as u64;
                }
                tracked.push(on.then_some(*last));
            }
            let expected = oracle(rule, &cached, &tracked, &payload, t_l);

            let (mut last_report, mut last_unmatched) = (Arc::new(last_report), 0);
            let mut windows = WindowTable::new(K);
            let lent = match rule {
                ReportRule::AdaptiveTs { .. } => Lent::Windows(&mut windows),
                _ if rule.decoder().is_some() => Lent::Sig(SigTrack {
                    tracked: &mut mask,
                    last_report: &mut last_report,
                    last_unmatched: &mut last_unmatched,
                }),
                _ => Lent::Nothing,
            };
            let outcome = outcome(rule, &mut cache, lent, &scratch.digest(&payload), t_l);

            let kept = Cache::sorted_items(&cache);
            let context =
                format!("round {round}: {rule:?}\n{payload:?}\nt_l={t_l:?} cached={cached:?}");
            assert!(
                kept.iter().all(|j| expected.contains(j)),
                "kept {kept:?}, the paper keeps only {expected:?}\n{context}"
            );
            // ... and no false alarm the pseudo-code does not raise.
            assert_eq!(kept, expected, "{context}");
            for &(j, before) in cached.iter().filter(|e| kept.contains(&e.0)) {
                // §7 alone keeps a copy without vouching for it: one
                // still under α keeps its lag clock.
                let lagging = matches!(rule, ReportRule::QuasiDelay { alpha, .. }
                    if outcome.report_time.saturating_duration_since(before) < *alpha);
                assert_eq!(
                    cache.peek(j).expect("kept").timestamp,
                    if lagging { before } else { outcome.report_time },
                    "survivors are verified as of T_i\n{context}"
                );
            }
            if !outcome.dropped_all && !matches!(rule, ReportRule::NoCache) {
                let mut all = [kept, outcome.invalidated].concat();
                all.sort_unstable();
                let before: Vec<ItemId> = cached.iter().map(|e| e.0).collect();
                assert_eq!(all, before, "every entry is kept or reported\n{context}");
            }
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A cache of copies `(item, stamp)`.
    fn cache_of(copies: &[(ItemId, f64)]) -> Cache {
        let mut cache = Cache::unbounded();
        for &(item, stamp) in copies {
            cache.insert(item, 0, t(stamp));
        }
        cache
    }

    fn micros(entries: &[(u64, f64)]) -> Vec<(u64, u64)> {
        entries.iter().map(|&(j, t_j)| (j, (t_j * 1e6) as u64)).collect()
    }

    mod adaptive_ts {
        use super::*;

        /// One adaptive report heard at `t_i` by a client (`L` = 10 s,
        /// default window from `windows`) that last heard one at `t_l`.
        fn hear(
            cache: &mut Cache,
            windows: &mut WindowTable,
            t_i: f64,
            entries: &[(u64, f64)],
            window_exceptions: &[(u64, u32)],
            t_l: Option<f64>,
        ) -> ProcessOutcome {
            let payload = FramePayload::AdaptiveTimestampReport {
                report_ts_micros: (t_i * 1e6) as u64,
                entries: micros(entries),
                window_exceptions: window_exceptions.to_vec(),
            };
            outcome(
                &ReportRule::adaptive_ts(SimDuration::from_secs(L), windows.default_k()),
                cache,
                Lent::Windows(windows),
                &DigestScratch::default().digest(&payload),
                t_l.map(t),
            )
        }

        /// An id listed twice is judged by its newest `t_j`, in either
        /// order: a copy stamped between the two is stale. (A handler
        /// that binary-searched an unstably sorted copy of the entries
        /// kept it, restamped — a false validation — in one order.)
        #[test]
        fn a_twice_listed_id_is_judged_by_its_newest_entry() {
            for entries in [[(5, 30.0), (5, 10.0)], [(5, 10.0), (5, 30.0)]] {
                let mut c = cache_of(&[(5, 20.0)]);
                let mut w = WindowTable::new(2);
                let out = hear(&mut c, &mut w, 40.0, &entries, &[], Some(30.0));
                assert_eq!(out.invalidated, vec![5], "{entries:?}");
                assert!(c.is_empty());
            }
        }

        #[test]
        fn per_item_gap_check() {
            // Item 1 on the default w = 20, item 2 on w = 100.
            let mut c = cache_of(&[(1, 10.0), (2, 10.0)]);
            let mut w = WindowTable::new(2);
            // Gap = 40 − 10 = 30 > 20 for item 1, but ≤ 100 for item 2.
            let out = hear(&mut c, &mut w, 40.0, &[], &[(2, 10)], Some(10.0));
            assert_eq!(out.invalidated, vec![1]);
            assert!(!out.dropped_all, "the per-item check subsumes the whole-cache drop");
            assert!(c.contains(2));
        }

        #[test]
        fn infinite_window_survives_any_nap() {
            let mut c = cache_of(&[(7, 10.0)]);
            let mut w = WindowTable::new(1);
            let forever = [(7, INFINITE_WINDOW)];
            let out = hear(&mut c, &mut w, 1_000_000.0, &[], &forever, Some(10.0));
            assert!(out.invalidated.is_empty());
            assert!(c.contains(7));
        }

        #[test]
        fn timestamp_comparison_still_applies() {
            let mut c = cache_of(&[(3, 10.0)]);
            let mut w = WindowTable::new(10);
            let out = hear(&mut c, &mut w, 20.0, &[(3, 15.0)], &[], Some(10.0));
            assert_eq!(out.invalidated, vec![3]);
        }

        #[test]
        fn zero_window_item_dropped_on_any_gap() {
            // A zero-window item is never reported, so the client cannot
            // trust it across a report boundary at all.
            let mut c = cache_of(&[(4, 10.0)]);
            let mut w = WindowTable::new(5);
            let out = hear(&mut c, &mut w, 20.0, &[], &[(4, 0)], Some(10.0));
            assert_eq!(out.invalidated, vec![4]);
        }

        #[test]
        fn windows_update_with_each_report() {
            let mut c = Cache::unbounded();
            let mut w = WindowTable::new(2);
            hear(&mut c, &mut w, 10.0, &[], &[(1, 50)], None);
            assert_eq!(w.get(1), 50);
            // Next report shrinks it back.
            hear(&mut c, &mut w, 20.0, &[], &[], Some(10.0));
            assert_eq!(w.get(1), 2);
        }
    }

    mod quasi_delay {
        use super::*;

        /// One report naming `entries`, heard at `t_i` by a client with
        /// `α = alpha·L` (`L` = 10 s) that last heard one at `t_l`.
        fn hear(
            alpha: u64,
            cache: &mut Cache,
            t_i: f64,
            entries: &[(u64, f64)],
            t_l: f64,
        ) -> ProcessOutcome {
            let payload = FramePayload::TimestampReport {
                report_ts_micros: (t_i * 1e6) as u64,
                entries: micros(entries),
            };
            outcome(
                &ReportRule::quasi_delay(SimDuration::from_secs(L), alpha),
                cache,
                Lent::Nothing,
                &DigestScratch::default().digest(&payload),
                Some(t(t_l)),
            )
        }

        #[test]
        fn young_entries_keep_their_lag_clock() {
            let mut c = cache_of(&[(1, 10.0)]);
            let out = hear(3, &mut c, 20.0, &[], 10.0);
            // Age 10 < α = 30: kept, timestamp untouched (lag clock
            // running).
            assert!(out.invalidated.is_empty());
            assert_eq!(c.peek(1).unwrap().timestamp, t(10.0));
        }

        #[test]
        fn over_alpha_unreported_is_revalidated() {
            let mut c = cache_of(&[(1, 10.0)]);
            // Heard every report; at T=30 the age reaches exactly α = 20
            // — the due instant — with the item absent from the report →
            // keep and restamp to T=30 (the lag clock restarts).
            for t_i in [20.0, 30.0, 40.0] {
                hear(2, &mut c, t_i, &[], t_i - 10.0);
            }
            assert_eq!(c.peek(1).unwrap().timestamp, t(30.0));
        }

        #[test]
        fn over_alpha_reported_is_dropped() {
            let mut c = cache_of(&[(1, 10.0)]);
            let out = hear(2, &mut c, 40.0, &[(1, 35.0)], 30.0);
            assert_eq!(out.invalidated, vec![1]);
        }

        #[test]
        fn sleeper_over_alpha_drops_conservatively() {
            let mut c = cache_of(&[(1, 10.0)]);
            // Slept from 20 to 50 (gap 30 > L): over-α entries must go
            // even though this report does not name them.
            let out = hear(2, &mut c, 50.0, &[], 20.0);
            assert_eq!(out.invalidated, vec![1]);
            assert!(!out.dropped_all);
        }

        #[test]
        fn sleeper_under_alpha_keeps_entry() {
            let mut c = cache_of(&[(1, 10.0)]);
            // Slept 20→50; age 40 < α = 100: the delay condition holds.
            let out = hear(10, &mut c, 50.0, &[], 20.0);
            assert!(out.invalidated.is_empty());
            assert!(c.contains(1));
        }
    }
}
