//! The MU-side report-processing algorithms of §3.
//!
//! Each strategy is a [`ReportHandler`] invoked when the unit hears the
//! report broadcast at `T_i`. The handler mutates the cache exactly as
//! the paper's pseudo-code prescribes and reports what happened. The
//! caller (the [`crate::mu::MobileUnit`]) owns `T_l` — "a variable that
//! indicates the last time it received a report" — and passes it in.
//!
//! Safety discipline: TS and AT "will only allow false alarm errors and
//! will always correctly inform the client if his copy is invalid" (§2).
//! SIG is probabilistic: a changed item escapes only if its combined
//! signatures collide (probability ≈ 2^−g each), plus a one-interval
//! blind spot for items fetched mid-interval whose subsets were not
//! previously tracked (see [`SigHandler`] docs); both are measured, not
//! assumed, by the integration tests.

use std::sync::Arc;

use sw_server::ItemId;
use sw_signature::{CombinedSignature, SyndromeDecoder};
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::cache::Cache;
use crate::digest::{DigestScratch, ReportDigest};

/// Converts a wire timestamp (integer micros) back to [`SimTime`].
#[inline]
pub fn time_from_micros(micros: u64) -> SimTime {
    SimTime::from_secs(micros as f64 / 1e6)
}

/// Converts a [`SimTime`] to wire micros (mirror of the server side).
#[inline]
pub fn time_to_micros(t: SimTime) -> u64 {
    (t.as_secs() * 1e6).round() as u64
}

/// What processing one report did to the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOutcome {
    /// The report timestamp `T_i`.
    pub report_time: SimTime,
    /// True if the whole cache was dropped (disconnection gap exceeded
    /// the strategy's tolerance).
    pub dropped_all: bool,
    /// Items individually invalidated by this report, ascending by item
    /// id for *any* payload — sorted, unsorted or with duplicated ids —
    /// on every backend. HYB alone has two runs: ascending within the
    /// hot pass, then ascending within the cold pass.
    pub invalidated: Vec<ItemId>,
    /// Items that survived and were restamped to `T_i`.
    pub revalidated: usize,
}

/// A strategy's client half.
pub trait ReportHandler {
    /// Strategy name, matching the server builder ("TS", "AT", "SIG",
    /// "NC").
    fn name(&self) -> &'static str;

    /// Observes an uplink fetch installing `item` into the cache
    /// (called after the report for the current interval was
    /// processed). Default: no-op. SIG uses it to start tracking the
    /// fetched item's subsets *from the just-heard report*, closing the
    /// fetch-to-next-report blind spot: the fetched value is current as
    /// of `T_i`, exactly the state the report's signatures describe.
    fn on_fetch(&mut self, _item: ItemId) {}

    /// Processes the report heard at `T_i`. `t_l` is the time the unit
    /// last heard a report (`None` if it never has). For the handlers
    /// that probe a [`ReportDigest`] this digests `payload` on the spot
    /// and defers to [`Self::process_digest`].
    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome;

    /// [`Self::process`] given the broadcast's shared digest, so a cell
    /// digests each report once for all its listeners. Default: the
    /// strategy reads nothing the digest indexes, and processes the
    /// payload behind it.
    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process(cache, digest.payload(), t_l)
    }

    /// Syndrome-decode telemetry: how many cached subsets' signatures
    /// failed to match in the last processed report. `None` for
    /// non-signature strategies. Mismatched subsets are where SIG's
    /// false alarms (and, when the mismatch count stays under the
    /// decoding threshold, its false validations) originate, so the
    /// observability layer tracks them per interval.
    fn last_unmatched_subsets(&self) -> Option<u32> {
        None
    }
}

/// The AT-family gap tolerance: `L` plus a relative epsilon, so a unit
/// that heard the previous report is never dropped by float rounding.
pub fn gap_limit(latency: SimDuration) -> SimDuration {
    latency + SimDuration::from_secs(latency.as_secs() * 1e-9)
}

/// `if (T_i − T_l > tolerance) { drop the entire cache }` — the shared
/// opening of the TS (`w`), AT and GR (`L`) algorithms. A missed report
/// means changes the client can no longer reconstruct; a unit that
/// never heard one can prove nothing about what it holds.
fn drop_on_gap(
    cache: &mut Cache,
    t_i: SimTime,
    t_l: Option<SimTime>,
    tolerance: SimDuration,
) -> Option<ProcessOutcome> {
    let gap_too_large = match t_l {
        Some(t_l) => t_i.saturating_duration_since(t_l) > tolerance,
        None => !cache.is_empty(),
    };
    gap_too_large.then(|| {
        cache.clear();
        ProcessOutcome {
            report_time: t_i,
            dropped_all: true,
            invalidated: Vec::new(),
            revalidated: 0,
        }
    })
}

/// "For every item j in the MU cache": one walk, the report only
/// probed. Entries `stale(item, t_cache)` condemns are dropped and
/// collected; the rest are verified as of `T_i` (`t_cache := T_i`).
fn sweep_cache(
    cache: &mut Cache,
    t_i: SimTime,
    mut stale: impl FnMut(ItemId, SimTime) -> bool,
) -> Vec<ItemId> {
    let mut invalidated = Vec::new();
    cache.retain_entries(|item, entry| {
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

/// Broadcasting Timestamps — client algorithm of §3.1.
#[derive(Debug, Clone)]
pub struct TsHandler {
    window: SimDuration,
}

impl TsHandler {
    /// Creates the handler with window `w = k·L` (must match the
    /// server's [`sw_server::TsBuilder`]).
    pub fn new(latency: SimDuration, k: u32) -> Self {
        assert!(k >= 1, "TS window multiple k must be at least 1");
        TsHandler {
            window: latency.scaled(k as f64),
        }
    }

    /// Creates the handler with an explicit window.
    pub fn with_window(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "TS window must be positive");
        TsHandler { window }
    }

    /// The window `w`.
    pub fn window(&self) -> SimDuration {
        self.window
    }
}

impl ReportHandler for TsHandler {
    fn name(&self) -> &'static str {
        "TS"
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process_digest(cache, &DigestScratch::default().digest(payload), t_l)
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        assert!(
            matches!(digest.payload(), FramePayload::TimestampReport { .. }),
            "TS handler fed a non-TS report: {:?}",
            digest.payload()
        );
        let t_i = digest.report_time();
        if let Some(dropped) = drop_on_gap(cache, t_i, t_l, self.window) {
            return dropped;
        }
        // for every item j in the MU cache:
        //   if [j, t_j] in U_i { if t_cache < t_j drop else t_cache := T_i }
        //   (not mentioned ⇒ unchanged within w ⇒ t_cache := T_i)
        let invalidated = sweep_cache(cache, t_i, |item, stamp| {
            digest.ts_newer_than(item, time_to_micros(stamp))
        });
        // Ghost retire: a report entry [j, t_j] with t_j newer than an
        // evicted copy's stamp proves that copy would have been dropped
        // anyway — the eviction cost nothing. Sound because any update
        // inside the window w appears in the report.
        cache.ghosts_mark_stale(|item, stamp| digest.ts_newer_than(item, time_to_micros(stamp)));
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated: cache.len(),
        }
    }
}

/// Amnesic Terminals — client algorithm of §3.2.
#[derive(Debug, Clone)]
pub struct AtHandler {
    latency: SimDuration,
}

impl AtHandler {
    /// Creates the handler for broadcast latency `L`.
    pub fn new(latency: SimDuration) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        AtHandler { latency }
    }
}

impl ReportHandler for AtHandler {
    fn name(&self) -> &'static str {
        "AT"
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process_digest(cache, &DigestScratch::default().digest(payload), t_l)
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        assert!(
            matches!(digest.payload(), FramePayload::AmnesicReport { .. }),
            "AT handler fed a non-AT report: {:?}",
            digest.payload()
        );
        let t_i = digest.report_time();
        if let Some(dropped) = drop_on_gap(cache, t_i, t_l, gap_limit(self.latency)) {
            return dropped;
        }
        // A listed id changed this interval: drop the copy; every
        // survivor is verified as of T_i.
        let invalidated = sweep_cache(cache, t_i, |item, _| digest.listed(item));
        // ... and any evicted copy of a listed id is provably stale:
        // the eviction cost nothing.
        cache.ghosts_mark_stale(|item, _| digest.listed(item));
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated: cache.len(),
        }
    }
}

/// Signatures — client algorithm of §3.3.
///
/// The handler tracks, between reports, the combined signatures of every
/// subset containing a cached item. On a report it syndrome-decodes:
/// subsets whose tracked signature differs from the broadcast are
/// unmatched; cached items in more than `K·m·p · m⁻¹`… i.e. more than
/// the plan's count threshold of unmatched subsets are dropped. Tracked
/// signatures are then refreshed to the broadcast values and re-scoped
/// to the surviving cache contents.
///
/// **Blind spot (documented deviation):** an item fetched uplink during
/// the interval joins the tracked set only at the *next* report; a
/// subset of that item not already tracked cannot witness an update to
/// it that lands between the fetch and that report. The stale window is
/// at most one interval and occurs with probability ≤ 1 − e^(−μL) per
/// fetch; the integration suite measures it. TS/AT have no such window.
#[derive(Debug, Clone)]
pub struct SigHandler {
    decoder: SyndromeDecoder,
    /// Tracked combined signature per subset index, dense over the
    /// plan's `m` subsets (`None` = untracked). Subset indices are
    /// dense by construction, so no hashing on the per-report path.
    tracked: Vec<Option<CombinedSignature>>,
    tracked_count: usize,
    /// The signatures of the last heard report — an [`Arc`] share of
    /// the broadcast payload, never a copy — kept so that uplink
    /// fetches within the current interval can adopt tracking for their
    /// subsets (see [`ReportHandler::on_fetch`]).
    last_report: Arc<Vec<CombinedSignature>>,
    /// Unmatched-subset count from the last diagnosis (telemetry).
    last_unmatched: u32,
}

impl SigHandler {
    /// Creates the handler sharing the server's decoder configuration.
    pub fn new(decoder: SyndromeDecoder) -> Self {
        let m = decoder.family().m() as usize;
        SigHandler {
            decoder,
            tracked: vec![None; m],
            tracked_count: 0,
            last_report: Arc::new(Vec::new()),
            last_unmatched: 0,
        }
    }

    /// Number of subset signatures currently tracked.
    pub fn tracked_subsets(&self) -> usize {
        self.tracked_count
    }
}

impl ReportHandler for SigHandler {
    fn name(&self) -> &'static str {
        "SIG"
    }

    fn on_fetch(&mut self, item: ItemId) {
        if self.last_report.is_empty() {
            return; // fetched before any report was heard
        }
        for j in self.decoder.family().subsets_of(item) {
            let slot = &mut self.tracked[j as usize];
            if slot.is_none() {
                *slot = Some(self.last_report[j as usize]);
                self.tracked_count += 1;
            }
        }
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        _t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let (report_ts_micros, signatures) = match payload {
            FramePayload::SignatureReport {
                report_ts_micros,
                signatures,
                ..
            } => (*report_ts_micros, signatures),
            other => panic!("SIG handler fed a non-SIG report: {other:?}"),
        };
        let t_i = time_from_micros(report_ts_micros);

        let cached_items = cache.sorted_items();
        let tracked = &self.tracked;
        let diagnosis = self.decoder.diagnose(
            &cached_items,
            |j| tracked.get(j as usize).copied().flatten(),
            signatures,
        );
        self.last_unmatched = diagnosis.unmatched_subsets;
        for &item in &diagnosis.invalidated {
            cache.remove(item);
        }
        // Re-scope tracking to the surviving cache and adopt the
        // broadcast signatures ("the combined uncached signatures are
        // considered equal to the ones that are being broadcast").
        self.tracked.iter_mut().for_each(|slot| *slot = None);
        self.tracked_count = 0;
        for item in cache.items() {
            for j in self.decoder.family().subsets_of(item) {
                let slot = &mut self.tracked[j as usize];
                if slot.is_none() {
                    self.tracked_count += 1;
                }
                *slot = Some(signatures[j as usize]);
            }
        }
        // Survivors are valid as of T_i with probability P_nf.
        cache.restamp_all(t_i);
        self.last_report = Arc::clone(signatures);
        let revalidated = cache.len();
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated: diagnosis.invalidated,
            revalidated,
        }
    }

    fn last_unmatched_subsets(&self) -> Option<u32> {
        Some(self.last_unmatched)
    }
}

/// Hybrid weighted reports — client half of the §10 extension.
///
/// Hot cached items follow AT rules: a missed report drops them (the
/// amnesic id list cannot be reconstructed), and a listed id is
/// dropped. Cold cached items follow SIG rules: syndrome decoding over
/// the cold-only combined signatures, nap-proof. One report serves
/// both.
#[derive(Debug, Clone)]
pub struct HybridHandler {
    latency: SimDuration,
    hot: sw_server::HotSet,
    decoder: SyndromeDecoder,
    /// Dense per-subset tracking, as in [`SigHandler`].
    tracked: Vec<Option<CombinedSignature>>,
    tracked_count: usize,
    last_report: Arc<Vec<CombinedSignature>>,
    /// Unmatched-subset count from the last cold-half diagnosis.
    last_unmatched: u32,
}

impl HybridHandler {
    /// Creates the handler; `hot` and `decoder` must match the server's
    /// [`sw_server::HybridSigBuilder`].
    pub fn new(latency: SimDuration, hot: sw_server::HotSet, decoder: SyndromeDecoder) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        let m = decoder.family().m() as usize;
        HybridHandler {
            latency,
            hot,
            decoder,
            tracked: vec![None; m],
            tracked_count: 0,
            last_report: Arc::new(Vec::new()),
            last_unmatched: 0,
        }
    }

    /// Number of cold-subset signatures currently tracked.
    pub fn tracked_subsets(&self) -> usize {
        self.tracked_count
    }
}

impl ReportHandler for HybridHandler {
    fn name(&self) -> &'static str {
        "HYB"
    }

    fn on_fetch(&mut self, item: ItemId) {
        if self.hot.contains(item) || self.last_report.is_empty() {
            return;
        }
        for j in self.decoder.family().subsets_of(item) {
            let slot = &mut self.tracked[j as usize];
            if slot.is_none() {
                *slot = Some(self.last_report[j as usize]);
                self.tracked_count += 1;
            }
        }
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process_digest(cache, &DigestScratch::default().digest(payload), t_l)
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let signatures = match digest.payload() {
            FramePayload::HybridReport { signatures, .. } => signatures,
            other => panic!("hybrid handler fed a wrong report: {other:?}"),
        };
        let t_i = digest.report_time();

        // Hot half: AT semantics, scoped to hot items only — a missed
        // report condemns every hot copy, a heard one the listed ids.
        // (Survivors of either half end up stamped T_i.)
        let missed_report = match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l) > gap_limit(self.latency),
            None => true,
        };
        let hot = &self.hot;
        let mut invalidated = sweep_cache(cache, t_i, |item, _| {
            if missed_report {
                hot.contains(item)
            } else {
                digest.listed(item)
            }
        });

        // Cold half: SIG semantics over the remaining cached items.
        let cold_items: Vec<ItemId> = cache
            .sorted_items()
            .into_iter()
            .filter(|&i| !hot.contains(i))
            .collect();
        let tracked = &self.tracked;
        let diagnosis = self.decoder.diagnose(
            &cold_items,
            |j| tracked.get(j as usize).copied().flatten(),
            signatures,
        );
        self.last_unmatched = diagnosis.unmatched_subsets;
        for &item in &diagnosis.invalidated {
            cache.remove(item);
            invalidated.push(item);
        }
        self.tracked.iter_mut().for_each(|slot| *slot = None);
        self.tracked_count = 0;
        for item in cache.items() {
            if self.hot.contains(item) {
                continue;
            }
            for j in self.decoder.family().subsets_of(item) {
                let slot = &mut self.tracked[j as usize];
                if slot.is_none() {
                    self.tracked_count += 1;
                }
                *slot = Some(signatures[j as usize]);
            }
        }
        self.last_report = Arc::clone(signatures);

        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated: cache.len(),
        }
    }

    fn last_unmatched_subsets(&self) -> Option<u32> {
        Some(self.last_unmatched)
    }
}

/// Aggregate group-granularity reports — client half of the §10
/// "changes reported only per group of items" extension.
///
/// AT semantics lifted to groups: a missed report drops everything; a
/// listed group drops every cached member (group-level false alarms —
/// safe, coarse).
#[derive(Debug, Clone)]
pub struct GroupHandler {
    latency: SimDuration,
    map: sw_server::GroupMap,
}

impl GroupHandler {
    /// Creates the handler; `map` must match the server's
    /// [`sw_server::GroupReportBuilder`].
    pub fn new(latency: SimDuration, map: sw_server::GroupMap) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        GroupHandler { latency, map }
    }
}

impl ReportHandler for GroupHandler {
    fn name(&self) -> &'static str {
        "GR"
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process_digest(cache, &DigestScratch::default().digest(payload), t_l)
    }

    fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        assert!(
            matches!(digest.payload(), FramePayload::AmnesicReport { .. }),
            "group handler fed a wrong report: {:?}",
            digest.payload()
        );
        let t_i = digest.report_time();
        if let Some(dropped) = drop_on_gap(cache, t_i, t_l, gap_limit(self.latency)) {
            return dropped;
        }
        // The report lists changed *group* ids.
        let map = self.map;
        let invalidated = sweep_cache(cache, t_i, |item, _| digest.listed(map.group_of(item)));
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated,
            revalidated: cache.len(),
        }
    }
}

/// The no-caching baseline: the unit never keeps anything, so every
/// query goes uplink (§4.2).
#[derive(Debug, Clone, Default)]
pub struct NoCacheHandler;

impl ReportHandler for NoCacheHandler {
    fn name(&self) -> &'static str {
        "NC"
    }

    fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        _t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let t_i = match payload {
            FramePayload::AmnesicReport {
                report_ts_micros, ..
            } => time_from_micros(*report_ts_micros),
            FramePayload::TimestampReport {
                report_ts_micros, ..
            } => time_from_micros(*report_ts_micros),
            FramePayload::SignatureReport {
                report_ts_micros, ..
            } => time_from_micros(*report_ts_micros),
            other => panic!("NC handler fed a non-report frame: {other:?}"),
        };
        cache.clear();
        ProcessOutcome {
            report_time: t_i,
            dropped_all: false,
            invalidated: Vec::new(),
            revalidated: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts_report(t_i: f64, entries: Vec<(u64, f64)>) -> FramePayload {
        FramePayload::TimestampReport {
            report_ts_micros: (t_i * 1e6) as u64,
            entries: entries
                .into_iter()
                .map(|(i, t)| (i, (t * 1e6) as u64))
                .collect(),
        }
    }

    fn at_report(t_i: f64, ids: Vec<u64>) -> FramePayload {
        FramePayload::AmnesicReport {
            report_ts_micros: (t_i * 1e6) as u64,
            ids,
        }
    }

    #[test]
    fn ts_drops_updated_item() {
        let mut h = TsHandler::new(SimDuration::from_secs(10.0), 10);
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        c.insert(2, 20, SimTime::from_secs(10.0));
        // Item 1 changed at t = 15 > its cache stamp.
        let out = h.process(
            &mut c,
            &ts_report(20.0, vec![(1, 15.0)]),
            Some(SimTime::from_secs(10.0)),
        );
        assert_eq!(out.invalidated, vec![1]);
        assert!(!c.contains(1));
        assert!(c.contains(2));
        // Survivor restamped to T_i.
        assert_eq!(c.peek(2).unwrap().timestamp, SimTime::from_secs(20.0));
    }

    #[test]
    fn ts_keeps_item_updated_before_fetch() {
        // Cache stamped at 16 (uplink fetch), item's last change was 15:
        // the cached copy already reflects it.
        let mut h = TsHandler::new(SimDuration::from_secs(10.0), 10);
        let mut c = Cache::unbounded();
        c.insert(1, 99, SimTime::from_secs(16.0));
        let out = h.process(
            &mut c,
            &ts_report(20.0, vec![(1, 15.0)]),
            Some(SimTime::from_secs(10.0)),
        );
        assert!(out.invalidated.is_empty());
        assert!(c.contains(1));
    }

    #[test]
    fn ts_window_gap_drops_cache() {
        let mut h = TsHandler::new(SimDuration::from_secs(10.0), 2); // w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        // Last report heard at 10; this one at 40: gap 30 > 20.
        let out = h.process(&mut c, &ts_report(40.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(out.dropped_all);
        assert!(c.is_empty());
    }

    #[test]
    fn ts_gap_exactly_w_is_kept() {
        let mut h = TsHandler::new(SimDuration::from_secs(10.0), 2); // w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &ts_report(30.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(!out.dropped_all);
        assert!(c.contains(1));
    }

    #[test]
    fn at_drops_reported_ids() {
        let mut h = AtHandler::new(SimDuration::from_secs(10.0));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        c.insert(2, 20, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &at_report(20.0, vec![1, 5]), Some(SimTime::from_secs(10.0)));
        assert_eq!(out.invalidated, vec![1]);
        assert!(c.contains(2));
    }

    #[test]
    fn at_missed_report_drops_cache() {
        let mut h = AtHandler::new(SimDuration::from_secs(10.0));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        // Heard the report at 10, slept through 20, hears 30: gap 20 > L.
        let out = h.process(&mut c, &at_report(30.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(out.dropped_all);
        assert!(c.is_empty());
    }

    #[test]
    fn at_consecutive_reports_keep_cache() {
        let mut h = AtHandler::new(SimDuration::from_secs(10.0));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &at_report(20.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(!out.dropped_all);
        assert!(c.contains(1));
        assert_eq!(out.revalidated, 1);
    }

    #[test]
    fn first_report_with_empty_cache_is_clean() {
        let mut ts = TsHandler::new(SimDuration::from_secs(10.0), 5);
        let mut at = AtHandler::new(SimDuration::from_secs(10.0));
        let mut c = Cache::unbounded();
        assert!(!ts.process(&mut c, &ts_report(10.0, vec![]), None).dropped_all);
        assert!(!at.process(&mut c, &at_report(10.0, vec![]), None).dropped_all);
    }

    #[test]
    fn nc_never_retains() {
        let mut h = NoCacheHandler;
        let mut c = Cache::unbounded();
        c.insert(1, 1, SimTime::ZERO);
        let out = h.process(&mut c, &at_report(10.0, vec![]), None);
        assert!(c.is_empty());
        assert_eq!(out.revalidated, 0);
    }

    #[test]
    #[should_panic(expected = "non-TS report")]
    fn ts_rejects_wrong_payload() {
        let mut h = TsHandler::new(SimDuration::from_secs(10.0), 5);
        let mut c = Cache::unbounded();
        h.process(&mut c, &at_report(10.0, vec![]), None);
    }

    mod hybrid {
        use super::*;
        use sw_server::{Database, HotSet, HybridSigBuilder, ReportBuilder};
        use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
        use sw_sim::SimDuration;

        fn setup() -> (Database, HybridSigBuilder, HybridHandler) {
            let n = 300;
            let db = Database::new(n, |i| i + 9000, SimDuration::from_secs(1e6));
            let plan = SigPlan::new(8, 16, n, 0.05, SigPlan::DEFAULT_K);
            let family = SubsetFamily::new(0xCAFE, plan.m, plan.f);
            let latency = SimDuration::from_secs(10.0);
            let builder = HybridSigBuilder::new(
                latency,
                HotSet::top_by_rank(20),
                plan,
                family,
                &db,
            );
            let handler = HybridHandler::new(
                latency,
                HotSet::top_by_rank(20),
                SyndromeDecoder::new(family, plan),
            );
            (db, builder, handler)
        }

        #[test]
        fn hot_item_follows_at_rules() {
            let (mut db, mut builder, mut handler) = setup();
            let mut c = Cache::unbounded();
            let r1 = builder.build(1, SimTime::from_secs(10.0), &db);
            handler.process(&mut c, &r1, None);
            c.insert(5, db.value(5), SimTime::from_secs(10.0)); // hot
            c.insert(100, db.value(100), SimTime::from_secs(10.0)); // cold
            // Hot item updated in interval 2.
            let rec = db.apply_update(5, 777, SimTime::from_secs(15.0));
            builder.on_update(&rec);
            let r2 = builder.build(2, SimTime::from_secs(20.0), &db);
            let out = handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            assert_eq!(out.invalidated, vec![5]);
            assert!(c.contains(100));
        }

        #[test]
        fn missed_report_drops_hot_but_not_cold() {
            let (db, mut builder, mut handler) = setup();
            let mut c = Cache::unbounded();
            let r1 = builder.build(1, SimTime::from_secs(10.0), &db);
            handler.process(&mut c, &r1, None);
            c.insert(5, db.value(5), SimTime::from_secs(10.0)); // hot
            c.insert(100, db.value(100), SimTime::from_secs(10.0)); // cold
            // Track cold subsets by hearing report 2, then nap through 3.
            let r2 = builder.build(2, SimTime::from_secs(20.0), &db);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            let r4 = builder.build(4, SimTime::from_secs(40.0), &db);
            let out = handler.process(&mut c, &r4, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&5), "hot items are amnesic");
            assert!(c.contains(100), "cold items ride the signatures");
        }

        #[test]
        fn cold_update_diagnosed_after_nap() {
            let (mut db, mut builder, mut handler) = setup();
            let mut c = Cache::unbounded();
            let r1 = builder.build(1, SimTime::from_secs(10.0), &db);
            handler.process(&mut c, &r1, None);
            for i in 100..110 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            let r2 = builder.build(2, SimTime::from_secs(20.0), &db);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            let rec = db.apply_update(105, 31337, SimTime::from_secs(33.0));
            builder.on_update(&rec);
            // Nap through report 3; wake at 5.
            let r5 = builder.build(5, SimTime::from_secs(50.0), &db);
            let out = handler.process(&mut c, &r5, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&105));
            assert!(c.contains(104), "untouched cold neighbours survive");
        }
    }

    mod sig {
        use super::*;
        use sw_server::{Database, ReportBuilder, SigBuilder};
        use sw_signature::{SigPlan, SubsetFamily};

        fn setup(n: u64) -> (Database, SigBuilder, SigHandler) {
            let db = Database::new(n, |i| i + 5000, SimDuration::from_secs(1e6));
            let plan = SigPlan::new(8, 16, n, 0.05, SigPlan::DEFAULT_K);
            let family = SubsetFamily::new(0xFEED, plan.m, plan.f);
            let builder = SigBuilder::new(plan, family, &db);
            let handler = SigHandler::new(builder.decoder());
            (db, builder, handler)
        }

        fn report(builder: &mut SigBuilder, i: u64, t: f64, db: &Database) -> FramePayload {
            builder.build(i, SimTime::from_secs(t), db)
        }

        #[test]
        fn survives_sleep_and_detects_change() {
            let (mut db, mut builder, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            // Hear report 1, cache items 0..20.
            let r1 = report(&mut builder, 1, 10.0, &db);
            handler.process(&mut c, &r1, None);
            for i in 0..20 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            // Track the subsets by hearing report 2.
            let r2 = report(&mut builder, 2, 20.0, &db);
            let out = handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            assert!(out.invalidated.is_empty());
            // Sleep through reports 3..7 while item 5 changes.
            let rec = db.apply_update(5, 123_456, SimTime::from_secs(42.0));
            builder.on_update(&rec);
            // Wake for report 8 — SIG does NOT drop the cache on a gap.
            let r8 = report(&mut builder, 8, 80.0, &db);
            let out = handler.process(&mut c, &r8, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&5), "stale item must be caught");
            assert!(c.contains(6), "untouched items survive the nap");
        }

        #[test]
        fn no_updates_no_invalidation() {
            let (db, mut builder, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            let r1 = report(&mut builder, 1, 10.0, &db);
            handler.process(&mut c, &r1, None);
            for i in 0..30 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            let r2 = report(&mut builder, 2, 20.0, &db);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            let r3 = report(&mut builder, 3, 30.0, &db);
            let out = handler.process(&mut c, &r3, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.is_empty());
            assert_eq!(c.len(), 30);
        }

        #[test]
        fn tracking_scopes_to_cache() {
            let (db, mut builder, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            c.insert(7, db.value(7), SimTime::from_secs(5.0));
            let r1 = report(&mut builder, 1, 10.0, &db);
            handler.process(&mut c, &r1, None);
            let with_item = handler.tracked_subsets();
            assert!(with_item > 0);
            c.clear();
            let r2 = report(&mut builder, 2, 20.0, &db);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            assert_eq!(handler.tracked_subsets(), 0);
        }
    }
}
