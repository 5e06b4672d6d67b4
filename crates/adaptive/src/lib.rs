//! # sw-adaptive — adaptive invalidation reports (§8)
//!
//! Static TS uses one window `w = kL` for every item. §8 shows why that
//! is wrong at both extremes — a never-changing item queried by sleepers
//! generates needless uplink traffic once it ages out of the window,
//! while a constantly-changing item bloats every report for nothing —
//! and proposes making the window *per item*, adjusted from feedback:
//!
//! * **Method 1** ([`method1`]): clients piggyback, on each uplink
//!   query, the timestamps of the local cache hits since their previous
//!   uplink for that item; the server reconstructs the actual hit ratio
//!   `AHR(i)` and the no-sleep ceiling `MHR(i)` and evaluates the gain
//!   of the last window change (Eq. 29/30);
//! * **Method 2** ([`method2`]): no piggybacking; the server uses the
//!   coarser uplink-count delta (Eq. 32).
//!
//! Both adjust windows by `±e` intervals per evaluation period
//! (Eq. 31), floored at zero ("the item should not be included in the
//! report") and unbounded above ("it makes sense to keep an 'infinite'
//! window").
//!
//! [`window`] holds the per-item window table shared (by value, via the
//! report) between server and clients; [`server`] implements the
//! adaptive report builder; [`controller`] runs the evaluation periods.
//! The client half — §3.1's whole-cache drop check made *per item*,
//! `T_i − T_l > w_i` — is `sw_client::ReportRule::AdaptiveTs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod method1;
pub mod method2;
pub mod server;
pub mod window;

pub use controller::{Adjustment, AdaptiveController, FeedbackMethod, PeriodItemStats, PeriodSummary};
pub use method1::{estimate_ahr, estimate_mhr, gain_method1};
pub use method2::gain_method2;
pub use server::{AdaptiveReport, AdaptiveTsBuilder};
pub use window::{WindowTable, WINDOW_FIELD_BITS};
