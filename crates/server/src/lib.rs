//! # sw-server — the stationary data server (MSS side)
//!
//! Implements everything that runs at the Mobile Support Station:
//!
//! * [`database`] — the collection of named items, each with a value and
//!   the timestamp of its last update (§2: "A database is a collection
//!   of named data items ... data are being updated at the servers");
//! * [`update`] — the update process: per-item exponential updates at
//!   rate μ, realized as the superposed Poisson process at rate `n·μ`
//!   (§4 model assumptions);
//! * [`signatures`] — the combined signatures SIG (§3.3) broadcasts,
//!   kept materialized and XOR-patched per update; [`hybrid`]'s hot set
//!   and [`group`]'s item → group map are the state the §10 variants
//!   share with their clients. Which items a report lists is decided by
//!   the strategy's server driver (`sleepers::ServerDriver`), from the
//!   database's update log;
//! * [`async_bcast`] — the asynchronous per-update invalidation
//!   broadcast that §3.2 proves equivalent to AT;
//! * [`stateful`] — the stateful-server baseline of §2, which tracks
//!   every client's cache contents and sends directed invalidation
//!   messages (the strategy whose idealized, zero-cost version defines
//!   `T_max`);
//! * [`uplink`] — query answering, including the piggybacked local-hit
//!   history that §8's adaptive Method 1 consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_bcast;
pub mod database;
pub mod group;
pub mod hybrid;
pub mod signatures;
pub mod stateful;
pub mod table;
pub mod update;
pub mod uplink;

pub use async_bcast::AsyncBroadcaster;
pub use database::{Database, ItemId, UpdateLog, UpdateRecord};
pub use group::GroupMap;
pub use hybrid::HotSet;
pub use signatures::SignatureVector;
pub use stateful::StatefulServer;
pub use table::ItemTable;
pub use update::UpdateEngine;
pub use uplink::{PiggybackInfo, QueryAnswer, UplinkProcessor};
