//! The strategy catalogue.
//!
//! [`Strategy`] names every invalidation scheme this library implements.
//! Its server half is the matching arm of [`crate::ServerDriver`]; its
//! client half is [`Strategy::report_rule`]. The pairing is
//! load-bearing — a TS server with an AT client would be silently
//! wrong — so both sides derive the shared state (SIG decoder, hot set,
//! group map) from the helpers at the bottom of this file.

use sw_adaptive::FeedbackMethod;
use sw_client::{ReportRule, RuleHandler};
use sw_server::{GroupMap, HotSet};
use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
use sw_sim::{MasterSeed, SimDuration, StreamId};
use sw_workload::ScenarioParams;

/// Every cache-invalidation strategy in the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// §3.1 Broadcasting Timestamps, window `w = k·L` (k from the
    /// scenario parameters).
    BroadcastTimestamps,
    /// §3.2 Amnesic Terminals.
    AmnesicTerminals,
    /// §3.3 Signatures.
    Signatures,
    /// §4.2 No caching: every query goes uplink.
    NoCache,
    /// §8 Adaptive TS with per-item windows.
    AdaptiveTs {
        /// Feedback method (1 = piggybacked hit histories, 2 = uplink
        /// deltas).
        method: FeedbackMethod,
        /// Evaluation period, in intervals.
        eval_period: u32,
        /// Window adjustment step `e` of Eq. 31, in intervals.
        step: u32,
    },
    /// §7 delay-condition quasi-copies over TS reports, allowed lag
    /// `α = alpha_intervals·L`.
    QuasiDelay {
        /// Allowed lag in intervals (`j`, with `α = jL`).
        alpha_intervals: u64,
    },
    /// §2's stateful-server baseline: the server tracks every client's
    /// cache and sends *directed* invalidation messages. Clients behave
    /// like AT units (a disconnection loses the cache — the server
    /// dropped their registrations); the difference is the channel
    /// accounting: per-holder directed messages plus connect/disconnect
    /// registration traffic instead of one broadcast report.
    Stateful,
    /// §10's weighted-report extension: the `hot_count` most popular
    /// items (rank = id under the library's Zipf convention) are
    /// broadcast individually AT-style; the cold remainder participates
    /// in the combined signatures.
    HybridSig {
        /// Number of hot items broadcast individually.
        hot_count: u64,
    },
    /// §10's aggregate-report extension: AT at *group* granularity —
    /// one id per contiguous group of `n/groups` items with at least
    /// one change; clients drop every cached member of a listed group.
    GroupReports {
        /// Number of groups the database is partitioned into.
        groups: u64,
    },
}

impl Strategy {
    /// Short name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BroadcastTimestamps => "TS",
            Strategy::AmnesicTerminals => "AT",
            Strategy::Signatures => "SIG",
            Strategy::NoCache => "NC",
            Strategy::AdaptiveTs { .. } => "ATS",
            Strategy::QuasiDelay { .. } => "QD",
            Strategy::Stateful => "SF",
            Strategy::HybridSig { .. } => "HYB",
            Strategy::GroupReports { .. } => "GR",
        }
    }

    /// Whether clients under this strategy cache at all.
    pub fn caches(&self) -> bool {
        !matches!(self, Strategy::NoCache)
    }

    /// The strategy's safety contract for the no-stale-reads checker
    /// (see [`crate::safety::SafetyExpectation`]).
    ///
    /// Every gap-dropping strategy is never-stale under *any* fault
    /// schedule: TS, AT, the adaptive/quasi-window variants that keep
    /// the drop rule, the group-granular AT, the stateful baseline
    /// (whose reconnects drop), and trivially NC. The signature
    /// strategies tolerate a bounded false-validation rate (collisions
    /// plus the fetch-window blind spot); quasi-delay copies are stale
    /// *by design* up to `α`, so the strict checker is not an oracle
    /// for them.
    pub fn safety_expectation(&self) -> crate::safety::SafetyExpectation {
        use crate::safety::SafetyExpectation;
        match self {
            Strategy::Signatures | Strategy::HybridSig { .. } => {
                SafetyExpectation::BoundedRate(Self::SIG_VIOLATION_BOUND)
            }
            Strategy::QuasiDelay { .. } => SafetyExpectation::QuasiByDesign,
            Strategy::BroadcastTimestamps
            | Strategy::AmnesicTerminals
            | Strategy::NoCache
            | Strategy::AdaptiveTs { .. }
            | Strategy::Stateful
            | Strategy::GroupReports { .. } => SafetyExpectation::NeverStale,
        }
    }

    /// Documented bound on the SIG-family false-validation rate over
    /// checked cache entries: signature collisions contribute ≈ `2^-g`
    /// per unmatched pair and the one-interval fetch blind spot the
    /// rest; 1% holds with a wide margin at the paper's `g = 16`.
    pub const SIG_VIOLATION_BOUND: f64 = 0.01;

    /// The strategy's client half as a [`ReportRule`]: the algorithm
    /// and the window/latency/decoder/hot-set/group-map/lag bound every
    /// client of a cell shares. The one description boxed units, the
    /// columnar fleet and — through `MobileUnit` — the live MU all
    /// apply. A cell builds it once for all its clients, on either
    /// store, so a SIG cell fills each item's subset list once; a
    /// single unit can take [`Strategy::make_handler`].
    pub fn report_rule(&self, params: &ScenarioParams, seed: MasterSeed) -> ReportRule {
        let latency = SimDuration::from_secs(params.latency_secs);
        match self {
            Strategy::BroadcastTimestamps => ReportRule::ts(latency, params.k),
            // Stateful clients process the union of their directed
            // invalidations, which the driver frames as an AT-style id
            // list; the gap-drop models losing the cache on reconnect.
            Strategy::AmnesicTerminals | Strategy::Stateful => ReportRule::at(latency),
            Strategy::Signatures => ReportRule::Sig {
                decoder: sig_decoder(params, seed),
            },
            Strategy::NoCache => ReportRule::NoCache,
            Strategy::AdaptiveTs { .. } => ReportRule::adaptive_ts(latency, params.k),
            Strategy::QuasiDelay { alpha_intervals } => {
                ReportRule::quasi_delay(latency, *alpha_intervals)
            }
            Strategy::HybridSig { hot_count } => ReportRule::hybrid(
                latency,
                hot_set(*hot_count, params),
                sig_decoder(params, seed),
            ),
            Strategy::GroupReports { groups } => {
                ReportRule::group(latency, group_map(*groups, params))
            }
        }
    }

    /// Builds one client's report handler: the rule plus fresh
    /// per-client state.
    ///
    /// Public because a live MU must process reports with exactly the
    /// handler the simulated MU would use.
    pub fn make_handler(&self, params: &ScenarioParams, seed: MasterSeed) -> RuleHandler {
        RuleHandler::new(self.report_rule(params, seed))
    }
}

/// The SIG/HYB decoder (plan + subset family) both sides derive from
/// the scenario parameters and the master seed — otherwise every
/// diagnosis is garbage.
pub(crate) fn sig_decoder(params: &ScenarioParams, seed: MasterSeed) -> SyndromeDecoder {
    let plan = SigPlan::new(
        params.f,
        params.g,
        params.n_items,
        params.sig_delta,
        SigPlan::DEFAULT_K,
    );
    SyndromeDecoder::new(SubsetFamily::new(sig_seed(seed), plan.m, plan.f), plan)
}

/// HYB's individually broadcast items: the `hot_count` most popular.
pub(crate) fn hot_set(hot_count: u64, params: &ScenarioParams) -> HotSet {
    HotSet::top_by_rank(hot_count.min(params.n_items))
}

/// GR's partition of the database into `groups` contiguous groups.
pub(crate) fn group_map(groups: u64, params: &ScenarioParams) -> GroupMap {
    GroupMap::new(params.n_items, groups.clamp(1, params.n_items))
}

/// The SIG subset-family seed both sides derive from the master seed.
fn sig_seed(seed: MasterSeed) -> u64 {
    // Any deterministic function of the master seed works; draw one word
    // from the dedicated signature stream.
    seed.stream(StreamId::Signatures).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Strategy::BroadcastTimestamps.name(), "TS");
        assert_eq!(Strategy::AmnesicTerminals.name(), "AT");
        assert_eq!(Strategy::Signatures.name(), "SIG");
        assert_eq!(Strategy::NoCache.name(), "NC");
    }

    #[test]
    fn handler_names_match_strategy_names() {
        let params = ScenarioParams::scenario1();
        for s in [
            Strategy::BroadcastTimestamps,
            Strategy::AmnesicTerminals,
            Strategy::Signatures,
            Strategy::NoCache,
            Strategy::AdaptiveTs {
                method: FeedbackMethod::Method2,
                eval_period: 4,
                step: 1,
            },
            Strategy::QuasiDelay { alpha_intervals: 2 },
            Strategy::HybridSig { hot_count: 10 },
            Strategy::GroupReports { groups: 10 },
        ] {
            assert_eq!(
                s.make_handler(&params, MasterSeed::TEST).name(),
                s.name(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn sig_sides_share_the_family() {
        // Server and client must derive the same subset family from the
        // same master seed — otherwise every diagnosis is garbage. The
        // cheap proxy: same seed twice gives identical families.
        assert_eq!(sig_seed(MasterSeed(1)), sig_seed(MasterSeed(1)));
        assert_ne!(sig_seed(MasterSeed(1)), sig_seed(MasterSeed(2)));
    }

    #[test]
    fn no_cache_does_not_cache() {
        assert!(!Strategy::NoCache.caches());
        assert!(Strategy::Signatures.caches());
    }

    #[test]
    fn safety_expectations_follow_the_paper() {
        use crate::safety::SafetyExpectation;
        assert_eq!(
            Strategy::BroadcastTimestamps.safety_expectation(),
            SafetyExpectation::NeverStale
        );
        assert_eq!(
            Strategy::AmnesicTerminals.safety_expectation(),
            SafetyExpectation::NeverStale
        );
        assert_eq!(
            Strategy::Stateful.safety_expectation(),
            SafetyExpectation::NeverStale
        );
        assert_eq!(
            Strategy::Signatures.safety_expectation(),
            SafetyExpectation::BoundedRate(Strategy::SIG_VIOLATION_BOUND)
        );
        assert_eq!(
            Strategy::HybridSig { hot_count: 10 }.safety_expectation(),
            SafetyExpectation::BoundedRate(Strategy::SIG_VIOLATION_BOUND)
        );
        assert_eq!(
            Strategy::QuasiDelay { alpha_intervals: 3 }.safety_expectation(),
            SafetyExpectation::QuasiByDesign
        );
    }
}
