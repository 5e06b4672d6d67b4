//! Adaptive invalidation reports (§8): the server's window controller.
//!
//! Static TS uses one window `w = kL` for every item. §8 shows why that
//! is wrong at both extremes — a never-changing item queried by sleepers
//! generates needless uplink traffic once it ages out of the window,
//! while a constantly-changing item bloats every report for nothing —
//! and proposes making the window *per item*, adjusted from feedback:
//!
//! * **Method 1**: clients piggyback, on each uplink query, the
//!   timestamps of the local cache hits since their previous uplink for
//!   that item; the server reconstructs the actual hit ratio `AHR(i)`
//!   and the no-sleep ceiling `MHR(i)` and evaluates the gain of the
//!   last window change (Eq. 29/30);
//! * **Method 2**: no piggybacking; the server uses the coarser
//!   uplink-count delta (Eq. 32).
//!
//! Both adjust windows by `±e` intervals per evaluation period
//! (Eq. 31), floored at zero ("the item should not be included in the
//! report") and unbounded above ("it makes sense to keep an 'infinite'
//! window").
//!
//! The per-item [`WindowTable`] is the server's; its exception list
//! rides every adaptive report, and [`AdaptiveController`] runs the
//! evaluation periods that adjust it. The server half
//! — the report listing each item updated within *its own* window — is
//! the adaptive arm of [`ServerDriver`](crate::ServerDriver), this
//! module's only caller. The client half — §3.1's whole-cache drop
//! check made *per item*, `T_i − T_l > w_i` — is
//! [`ReportRule::AdaptiveTs`](sw_client::ReportRule::AdaptiveTs), which
//! reads each `w_i` off the report it hears.

mod controller;
mod method1;
mod method2;
mod window;

pub use controller::{Adjustment, AdaptiveController, FeedbackMethod, PeriodItemStats, PeriodSummary};
pub(crate) use method1::estimate_mhr;
pub use window::WindowTable;
