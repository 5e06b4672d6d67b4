//! # sw-client — the mobile unit (MU side)
//!
//! Everything that runs on the palmtop:
//!
//! * [`store`] — the [`SlotStore`]: every client's cache, pending set
//!   and interval bookkeeping as parallel columns, one row per client,
//!   with the one install-and-evict path ([`SlotStore::install`]) and
//!   the one per-client apply-and-answer ([`store::Rows::hear`]). The
//!   fleet in `sleepers` holds one with a row per client (the live
//!   MU's, one with its own row); a [`MobileUnit`] is one with a
//!   single row;
//! * [`cache`] — one row's cache: the [`SlotBlock`] the algorithms
//!   walk, the read-only [`CacheView`], each entry's validity stamp
//!   `t_x`, and the replacement vocabulary of a capacity-bounded cache
//!   (LRU/LFU/window-age, the one victim scan, ghosts for the
//!   capacity-miss statistics);
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
//!   §8 adaptive TS, over one row's [`SlotBlock`];
//! * [`UnitState`] — one unit's interval bookkeeping (stats, `T_l`, the
//!   awake flag and presence, the waiting queries' count and latency
//!   sums, the query count law and the sleep process; plain data),
//!   whose methods are the only text of each Figure 2 step;
//! * [`mu`] — the [`mu::MobileUnit`]: a one-row store and its id,
//!   implementing the interval semantics of Figure 2: queries posed
//!   during `(T_{i−1}, T_i]` are answered only after the report at `T_i`
//!   is processed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod mu;
pub mod rule;
pub mod store;
mod unit;

pub use cache::{CacheEntry, CacheView, CapacityStats, GhostFate, ReplacementPolicy, SlotBlock};
pub use digest::{DigestScratch, ReportDigest};
pub use mu::{IntervalReport, MobileUnit, MuConfig, MuStats, ProcessOutcome};
pub use rule::{Lent, ReportRule, SigTrack, Verdict};
pub use store::{CapacitySpec, Heard, Rows, SlotStore, SweepLists};
pub use unit::{Presence, UnitState};
