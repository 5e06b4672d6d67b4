//! # sw-client — the mobile unit (MU side)
//!
//! Everything that runs on the palmtop:
//!
//! * [`cache`] — the MU cache: item → (value, validity timestamp `t_x`),
//!   with optional capacity-bounded eviction under a pluggable
//!   replacement policy (LRU/LFU/window-age) plus ghost bookkeeping for
//!   the capacity-miss statistics;
//! * [`digest`] — the per-broadcast [`digest::ReportDigest`]: the
//!   report time plus a membership bitset over the listed ids (and an
//!   adaptive report's per-item windows), built once per report so
//!   every client walks its own cache and only *probes* the report; its
//!   verdict methods are the one definition of keep / restamp /
//!   invalidate;
//! * [`rule`] — the report-processing algorithms, once:
//!   [`rule::ReportRule::apply`] holds the frame check, the gap rule,
//!   the keep / restamp / invalidate walk, ghost retire and SIG's
//!   syndrome decode for TS/AT/NC/GR/SIG/HYB and for §7 quasi-delay and
//!   §8 adaptive TS, generic over a [`rule::CacheSlots`] view that
//!   [`cache::Cache`] and the columnar fleet's per-client slot block
//!   both implement;
//! * [`handler`] — [`handler::RuleHandler`], what a [`mu::MobileUnit`]
//!   holds its strategy by: a rule plus the per-client state it borrows
//!   (signature tracking, the only such state);
//! * [`UnitState`] — one unit's interval bookkeeping (stats, `T_l`, the
//!   awake flag and presence, the waiting queries' count and latency
//!   sums, the query count law and the sleep process; plain data),
//!   whose methods are the only text of each Figure 2 step on either
//!   client store;
//! * [`mu`] — the [`mu::MobileUnit`] driver that ties a [`UnitState`],
//!   the cache, the pending-query list `Q_i`, and the handler together,
//!   implementing the interval semantics of Figure 2: queries posed
//!   during `(T_{i−1}, T_i]` are answered only after the report at `T_i`
//!   is processed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod handler;
pub mod mu;
pub mod rule;
mod unit;

pub use cache::{Cache, CacheEntry, CapacityStats, GhostFate, ReplacementPolicy};
pub use digest::{DigestScratch, ReportDigest};
pub use handler::{ProcessOutcome, RuleHandler};
pub use mu::{IntervalReport, MobileUnit, MuConfig, MuStats};
pub use rule::{CacheSlots, Lent, ReportRule, SigTrack, Verdict};
pub use unit::{Presence, UnitState};
