//! # sw-wireless — the narrow-band wireless cell substrate
//!
//! Models the communication fabric of the paper's Figure 1: one Mobile
//! Support Station (MSS) per cell, broadcasting downlink to every mobile
//! unit (MU) in the cell, with a shared uplink for queries.
//!
//! The quantity the whole evaluation turns on is **bits** (§2: "The goal
//! is to minimize the number of bits that are transmitted in the channel
//! both ways"). [`channel::BroadcastChannel`] therefore accounts downlink
//! and uplink traffic in bits against a bandwidth of `W` bits/second, and
//! exposes the per-interval budget `L·W − B_c` of Eq. 9 — the bits left
//! for answering cache misses after the invalidation report is sent.
//!
//! [`frame`] gives reports and queries a concrete wire encoding (real
//! byte buffers) so that sizes are *measured from real serialization*, not
//! just computed from the analytical formulas — the tests assert the two
//! agree. [`delivery`] models §9's two addressing schemes (precise timer
//! synchronization à la PRMA/MACAW vs multicast-address wakeup à la
//! Ethernet/CDPD) and their client listening-cost consequences.
//!
//! **One channel per cell.** A [`BroadcastChannel`] is strictly
//! cell-local: it never carries a bit for a unit in another cell. The
//! mesh layer (`sleepers::mesh`) instantiates one per shard, which is what
//! makes the cells independently steppable between migration barriers;
//! a unit in transit between cells is on *no* channel for that
//! interval, and the resulting report gap — not any cross-cell
//! signalling — is what the caching strategies react to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod delivery;
pub mod energy;
pub mod frame;

pub use channel::{BroadcastChannel, ChannelError, FrameCounts, IntervalBudget, TrafficTotals};
pub use delivery::{DeliveryMode, DeliveryOutcome, ReportDelivery};
pub use energy::{EnergyModel, EnergyTotals};
pub use frame::{Frame, FrameKind, FramePayload, WireEncode};
