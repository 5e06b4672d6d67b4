//! # sw-client — the mobile unit (MU side)
//!
//! Everything that runs on the palmtop:
//!
//! * [`cache`] — the MU cache: item → (value, validity timestamp `t_x`),
//!   with optional capacity-bounded eviction under a pluggable
//!   `sw-capacity` replacement policy (LRU/LFU/window-age) plus ghost
//!   bookkeeping for the capacity-miss statistics;
//! * [`digest`] — the per-broadcast [`digest::ReportDigest`]: the
//!   report time plus a membership bitset over the listed ids, built
//!   once per report so every client walks its own cache and only
//!   *probes* the report; its verdict methods are the one definition of
//!   keep / restamp / invalidate;
//! * [`rule`] — the §3 report-processing algorithms, once:
//!   [`rule::ReportRule::apply`] holds the frame check, the gap rule,
//!   the keep / restamp / invalidate walk, ghost retire and SIG's
//!   syndrome decode for TS/AT/NC/GR/SIG/HYB, generic over a
//!   [`rule::CacheSlots`] view that [`cache::Cache`] and the columnar
//!   fleet's per-client slot block both implement;
//! * [`handler`] — the [`handler::ReportHandler`] trait a
//!   [`mu::MobileUnit`] holds its strategy by, and
//!   [`handler::RuleHandler`]: a rule plus one client's
//!   signature-tracking state ([`handler::TsHandler`] … are named
//!   constructors over it);
//! * [`mu`] — the [`mu::MobileUnit`] driver that ties the sleep process,
//!   the query stream, the pending-query list `Q_i`, and the handler
//!   together, implementing the interval semantics of Figure 2: queries
//!   posed during `(T_{i−1}, T_i]` are answered only after the report at
//!   `T_i` is processed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod handler;
pub mod mu;
pub mod rule;

pub use cache::{Cache, CacheEntry};
pub use digest::{DigestScratch, ReportDigest};
pub use sw_capacity::{GhostFate, ReplacementPolicy};
pub use handler::{
    AtHandler, GroupHandler, HybridHandler, NoCacheHandler, ProcessOutcome, ReportHandler,
    RuleHandler, SigHandler, TsHandler,
};
pub use mu::{IntervalReport, MobileUnit, MuConfig, MuStats, PendingQuery};
pub use rule::{CacheSlots, ReportRule, SigTrack};
