//! The MU side of a strategy, as a [`crate::MobileUnit`] holds it.
//!
//! A [`RuleHandler`] is invoked when the unit hears the report
//! broadcast at `T_i`; it mutates the cache as the strategy prescribes
//! and reports what happened. The caller owns `T_l` — "a variable that
//! indicates the last time it received a report" — and passes it in.
//!
//! The algorithms themselves are not here: they are
//! [`ReportRule::apply`]. A handler is one rule plus the per-client
//! state that rule borrows — SIG/HYB's signature tracking, adaptive
//! TS's window table, nothing for the rest.

use std::sync::Arc;

use sw_adaptive::WindowTable;
use sw_server::ItemId;
use sw_signature::CombinedSignature;
use sw_sim::SimTime;
use sw_wireless::FramePayload;

use crate::cache::Cache;
use crate::digest::{DigestScratch, ReportDigest};
use crate::rule::{Lent, ReportRule, SigTrack};

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
}

/// One boxed client's signature-tracking state; what a [`SigTrack`]
/// borrows.
#[derive(Debug, Clone)]
struct SigState {
    tracked: Vec<u64>,
    last_report: Arc<Vec<CombinedSignature>>,
    last_unmatched: u32,
}

/// What one boxed client keeps between reports; what a [`Lent`]
/// borrows.
#[derive(Debug, Clone)]
enum State {
    Nothing,
    Sig(SigState),
    Windows(WindowTable),
}

/// A [`ReportRule`] as one boxed unit's handler.
#[derive(Debug, Clone)]
pub struct RuleHandler {
    rule: ReportRule,
    state: State,
}

impl RuleHandler {
    /// Wraps `rule` with fresh per-client state: nothing tracked, every
    /// window at its default.
    pub fn new(rule: ReportRule) -> Self {
        let state = match (&rule, rule.decoder()) {
            (ReportRule::AdaptiveTs { default_k, .. }, _) => {
                State::Windows(WindowTable::new(*default_k))
            }
            (_, Some(decoder)) => State::Sig(SigState {
                tracked: vec![0; SigTrack::words(decoder)],
                last_report: Arc::new(Vec::new()),
                last_unmatched: 0,
            }),
            (_, None) => State::Nothing,
        };
        RuleHandler { rule, state }
    }

    /// Strategy name ("TS", "AT", "SIG", "NC", …).
    pub fn name(&self) -> &'static str {
        self.rule.name()
    }

    /// The rule this handler applies.
    pub fn rule(&self) -> &ReportRule {
        &self.rule
    }

    /// Whether `payload` is a report this handler can process. Frames
    /// from outside the program (a live MU's socket) are screened with
    /// this and discarded like line noise when refused;
    /// [`Self::process_digest`] panics on a frame it does not accept.
    pub fn accepts(&self, payload: &FramePayload) -> bool {
        self.rule.accepts(payload)
    }

    /// Number of subsets currently tracked (0 for the rules that track
    /// none).
    pub fn tracked_subsets(&self) -> usize {
        match &self.state {
            State::Sig(s) => SigTrack::count(&s.tracked),
            _ => 0,
        }
    }

    /// Syndrome-decode telemetry: how many cached subsets' signatures
    /// failed to match in the last processed report. `None` for
    /// non-signature strategies. Mismatched subsets are where SIG's
    /// false alarms (and, when the mismatch count stays under the
    /// decoding threshold, its false validations) originate, so the
    /// observability layer tracks them per interval.
    pub fn last_unmatched_subsets(&self) -> Option<u32> {
        match &self.state {
            State::Sig(s) => Some(s.last_unmatched),
            _ => None,
        }
    }

    fn parts(&mut self) -> (&ReportRule, Lent<'_>) {
        let lent = match &mut self.state {
            State::Nothing => Lent::Nothing,
            State::Sig(s) => Lent::Sig(SigTrack {
                tracked: &mut s.tracked,
                last_report: &mut s.last_report,
                last_unmatched: &mut s.last_unmatched,
            }),
            State::Windows(windows) => Lent::Windows(windows),
        };
        (&self.rule, lent)
    }

    /// Observes an uplink fetch installing `item` into the cache
    /// (called after the report for the current interval was
    /// processed); see [`ReportRule::on_fetch`] for what the signature
    /// strategies do with it.
    pub fn on_fetch(&mut self, item: ItemId) {
        let (rule, lent) = self.parts();
        rule.on_fetch(lent, item);
    }

    /// Processes the report heard at `T_i`, digesting `payload` on the
    /// spot. `t_l` is the time the unit last heard a report (`None` if
    /// it never has).
    pub fn process(
        &mut self,
        cache: &mut Cache,
        payload: &FramePayload,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        self.process_digest(cache, &DigestScratch::default().digest(payload), t_l)
    }

    /// [`Self::process`] given the broadcast's shared digest, so a cell
    /// digests each report once for all its listeners.
    pub fn process_digest(
        &mut self,
        cache: &mut Cache,
        digest: &ReportDigest<'_>,
        t_l: Option<SimTime>,
    ) -> ProcessOutcome {
        let (rule, lent) = self.parts();
        rule.apply(cache, lent, digest, t_l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_server::{Database, HotSet, SignatureVector};
    use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
    use sw_sim::SimDuration;

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
        let mut h = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 10));
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
        let mut h = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 10));
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
        let mut h = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 2)); // w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        // Last report heard at 10; this one at 40: gap 30 > 20.
        let out = h.process(&mut c, &ts_report(40.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(out.dropped_all);
        assert!(c.is_empty());
    }

    #[test]
    fn ts_gap_exactly_w_is_kept() {
        let mut h = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 2)); // w = 20
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &ts_report(30.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(!out.dropped_all);
        assert!(c.contains(1));
    }

    #[test]
    fn at_drops_reported_ids() {
        let mut h = RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0)));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        c.insert(2, 20, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &at_report(20.0, vec![1, 5]), Some(SimTime::from_secs(10.0)));
        assert_eq!(out.invalidated, vec![1]);
        assert!(c.contains(2));
    }

    #[test]
    fn at_missed_report_drops_cache() {
        let mut h = RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0)));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        // Heard the report at 10, slept through 20, hears 30: gap 20 > L.
        let out = h.process(&mut c, &at_report(30.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(out.dropped_all);
        assert!(c.is_empty());
    }

    #[test]
    fn at_consecutive_reports_keep_cache() {
        let mut h = RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0)));
        let mut c = Cache::unbounded();
        c.insert(1, 10, SimTime::from_secs(10.0));
        let out = h.process(&mut c, &at_report(20.0, vec![]), Some(SimTime::from_secs(10.0)));
        assert!(!out.dropped_all);
        assert!(c.contains(1));
        assert_eq!(c.peek(1).unwrap().timestamp, SimTime::from_secs(20.0));
    }

    #[test]
    fn first_report_with_empty_cache_is_clean() {
        let mut ts = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 5));
        let mut at = RuleHandler::new(ReportRule::at(SimDuration::from_secs(10.0)));
        let mut c = Cache::unbounded();
        assert!(!ts.process(&mut c, &ts_report(10.0, vec![]), None).dropped_all);
        assert!(!at.process(&mut c, &at_report(10.0, vec![]), None).dropped_all);
    }

    #[test]
    fn nc_never_retains() {
        // Whatever kind of report is on the air: NC reads only `T_i`.
        let hybrid = FramePayload::HybridReport {
            report_ts_micros: 10_000_000,
            hot_ids: vec![1],
            sig_bits: 16,
            signatures: Arc::new(vec![0; 4]),
        };
        for payload in [at_report(10.0, vec![]), ts_report(10.0, vec![]), hybrid] {
            let mut h = RuleHandler::new(ReportRule::NoCache);
            let mut c = Cache::unbounded();
            c.insert(1, 1, SimTime::ZERO);
            let out = h.process(&mut c, &payload, None);
            assert!(c.is_empty());
            assert_eq!(out.report_time, SimTime::from_secs(10.0));
        }
    }

    #[test]
    #[should_panic(expected = "TS rule fed a report it cannot process")]
    fn ts_rejects_wrong_payload() {
        let mut h = RuleHandler::new(ReportRule::ts(SimDuration::from_secs(10.0), 5));
        let mut c = Cache::unbounded();
        h.process(&mut c, &at_report(10.0, vec![]), None);
    }

    /// A SIG/HYB server's signatures over `n` items (item `i` valued
    /// `i + base`), beside the rule a client of that server applies.
    fn sig_setup(
        n: u64,
        base: u64,
        seed: u64,
        hot: HotSet,
        rule: impl FnOnce(SyndromeDecoder) -> ReportRule,
    ) -> (Database, SignatureVector, RuleHandler) {
        let db = Database::new(n, |i| i + base, SimDuration::from_secs(1e6));
        let plan = SigPlan::new(8, 16, n, 0.05, SigPlan::DEFAULT_K);
        let decoder = SyndromeDecoder::new(SubsetFamily::new(seed, plan.m, plan.f), plan);
        let sigs = SignatureVector::new(decoder.clone(), hot, &db);
        (db, sigs, RuleHandler::new(rule(decoder)))
    }

    mod hybrid {
        use super::*;

        fn setup() -> (Database, SignatureVector, RuleHandler) {
            sig_setup(300, 9000, 0xCAFE, HotSet::top_by_rank(20), |decoder| {
                ReportRule::hybrid(
                    SimDuration::from_secs(10.0),
                    HotSet::top_by_rank(20),
                    decoder,
                )
            })
        }

        /// The HYB report at `t` listing the hot updates `hot_ids`.
        fn report(sigs: &SignatureVector, t: f64, hot_ids: Vec<u64>) -> FramePayload {
            FramePayload::HybridReport {
                report_ts_micros: SimTime::from_secs(t).as_micros(),
                hot_ids,
                sig_bits: sigs.sig_bits(),
                signatures: sigs.snapshot(),
            }
        }

        #[test]
        fn hot_item_follows_at_rules() {
            let (mut db, mut sigs, mut handler) = setup();
            let mut c = Cache::unbounded();
            handler.process(&mut c, &report(&sigs, 10.0, vec![]), None);
            c.insert(5, db.value(5), SimTime::from_secs(10.0)); // hot
            c.insert(100, db.value(100), SimTime::from_secs(10.0)); // cold
            // Hot item updated in interval 2.
            sigs.patch(&db.apply_update(5, 777, SimTime::from_secs(15.0)));
            let r2 = report(&sigs, 20.0, vec![5]);
            let out = handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            assert_eq!(out.invalidated, vec![5]);
            assert!(c.contains(100));
        }

        #[test]
        fn missed_report_drops_hot_but_not_cold() {
            let (db, sigs, mut handler) = setup();
            let mut c = Cache::unbounded();
            handler.process(&mut c, &report(&sigs, 10.0, vec![]), None);
            c.insert(5, db.value(5), SimTime::from_secs(10.0)); // hot
            c.insert(100, db.value(100), SimTime::from_secs(10.0)); // cold
            // Track cold subsets by hearing report 2, then nap through 3.
            let r2 = report(&sigs, 20.0, vec![]);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            let r4 = report(&sigs, 40.0, vec![]);
            let out = handler.process(&mut c, &r4, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&5), "hot items are amnesic");
            assert!(c.contains(100), "cold items ride the signatures");
        }

        #[test]
        fn cold_update_diagnosed_after_nap() {
            let (mut db, mut sigs, mut handler) = setup();
            let mut c = Cache::unbounded();
            handler.process(&mut c, &report(&sigs, 10.0, vec![]), None);
            for i in 100..110 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            let r2 = report(&sigs, 20.0, vec![]);
            handler.process(&mut c, &r2, Some(SimTime::from_secs(10.0)));
            sigs.patch(&db.apply_update(105, 31337, SimTime::from_secs(33.0)));
            // Nap through report 3; wake at 5.
            let r5 = report(&sigs, 50.0, vec![]);
            let out = handler.process(&mut c, &r5, Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&105));
            assert!(c.contains(104), "untouched cold neighbours survive");
        }
    }

    mod sig {
        use super::*;

        fn setup(n: u64) -> (Database, SignatureVector, RuleHandler) {
            sig_setup(n, 5000, 0xFEED, HotSet::default(), |decoder| {
                ReportRule::Sig { decoder }
            })
        }

        /// The SIG report at `t`.
        fn report(sigs: &SignatureVector, t: f64) -> FramePayload {
            FramePayload::SignatureReport {
                report_ts_micros: SimTime::from_secs(t).as_micros(),
                sig_bits: sigs.sig_bits(),
                signatures: sigs.snapshot(),
            }
        }

        #[test]
        fn survives_sleep_and_detects_change() {
            let (mut db, mut sigs, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            // Hear report 1, cache items 0..20.
            handler.process(&mut c, &report(&sigs, 10.0), None);
            for i in 0..20 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            // Track the subsets by hearing report 2.
            let out = handler.process(&mut c, &report(&sigs, 20.0), Some(SimTime::from_secs(10.0)));
            assert!(out.invalidated.is_empty());
            // Sleep through reports 3..7 while item 5 changes.
            sigs.patch(&db.apply_update(5, 123_456, SimTime::from_secs(42.0)));
            // Wake for report 8 — SIG does NOT drop the cache on a gap.
            let out = handler.process(&mut c, &report(&sigs, 80.0), Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.contains(&5), "stale item must be caught");
            assert!(c.contains(6), "untouched items survive the nap");
        }

        #[test]
        fn no_updates_no_invalidation() {
            let (db, sigs, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            handler.process(&mut c, &report(&sigs, 10.0), None);
            for i in 0..30 {
                c.insert(i, db.value(i), SimTime::from_secs(10.0));
            }
            handler.process(&mut c, &report(&sigs, 20.0), Some(SimTime::from_secs(10.0)));
            let out = handler.process(&mut c, &report(&sigs, 30.0), Some(SimTime::from_secs(20.0)));
            assert!(out.invalidated.is_empty());
            assert_eq!(c.len(), 30);
        }

        #[test]
        fn tracking_scopes_to_cache() {
            let (db, sigs, mut handler) = setup(300);
            let mut c = Cache::unbounded();
            c.insert(7, db.value(7), SimTime::from_secs(5.0));
            handler.process(&mut c, &report(&sigs, 10.0), None);
            let with_item = handler.tracked_subsets();
            assert!(with_item > 0);
            c.clear();
            handler.process(&mut c, &report(&sigs, 20.0), Some(SimTime::from_secs(10.0)));
            assert_eq!(handler.tracked_subsets(), 0);
        }

        /// A decode over every item tracks every subset that holds one,
        /// and the mask's last word keeps its bits at and above `m`
        /// clear.
        #[test]
        fn a_full_cache_decode_sets_no_bit_at_or_above_m() {
            let n = 300;
            let (db, sigs, mut handler) = setup(n);
            let decoder = handler.rule().decoder().expect("SIG decodes").clone();
            let m = decoder.plan().m;
            assert_ne!(m % 64, 0, "the last word must have bits above m");
            let mut c = Cache::unbounded();
            for i in 0..n {
                c.insert(i, db.value(i), SimTime::from_secs(5.0));
            }
            handler.process(&mut c, &report(&sigs, 10.0), None);
            assert_eq!(c.len(), n as usize, "nothing changed, nothing drops");
            let nonempty = (0..m)
                .filter(|&j| (0..n).any(|i| decoder.family().contains(j, i)))
                .count();
            assert_eq!(handler.tracked_subsets(), nonempty);
            let State::Sig(s) = &handler.state else {
                unreachable!("a SIG handler tracks signatures")
            };
            assert_eq!(s.tracked.len(), (m as usize).div_ceil(64));
            assert_eq!(s.tracked.last().map(|w| w >> (m % 64)), Some(0));
        }
    }
}
