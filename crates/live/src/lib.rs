//! # sw-live — the networked invalidation-report runtime
//!
//! The paper's design (Barbará & Imieliński, §2) is exactly the shape
//! of a deployable service: a *stateless* server periodically
//! broadcasting invalidation reports to clients it knows nothing
//! about, with a point-to-point uplink for cache misses. This crate is
//! that service, std-only (threads + `std::net`), speaking the
//! simulator's own wire format:
//!
//! - [`server`]: the `sw-serve` engine — ingests updates over TCP,
//!   drives the same `sleepers::CellServer` the simulator steps, and
//!   broadcasts each report as a sealed UDP datagram every `L`
//!   milliseconds;
//! - [`mu`]: the `sw-mu` client library — a real `crates/client`
//!   cache behind real sockets, buffering queries until the next heard
//!   report (the paper's latency rule), falling back to TCP uplink on
//!   miss, and applying each strategy's own drop/restamp/re-diagnose
//!   recovery on missed or corrupt frames (verified by
//!   [`sw_wireless::frame::checksum64`]);
//! - [`proto`]: the length-prefixed TCP control protocol and the
//!   [`proto::DecisionRow`] decision-log encoding;
//! - [`conformance`]: the harness that makes the simulator the
//!   daemon's executable spec — same master seed and update schedule
//!   ⇒ byte-identical per-client decision logs from equal report bits;
//! - [`ha`]: replicated cell servers with zero-stale failover — N
//!   daemons that see one update stream, one of them on the air, and
//!   the seeded server-fault schedules that crash or partition them.
//! - [`ops`]: the operations plane both sides publish to — a metrics
//!   hub, the Prometheus/JSON exporter `sw-top` scrapes, and the
//!   flight recorder a dying session dumps.
//!
//! Who sequences a tick and who airs it is one decision, made by the
//! ticker's coordinator: an unreplicated [`LiveServer::spawn`] runs a
//! trivial one (epoch 0, always primary, always broadcast), and an
//! [`ha::HaNode`] runs the replicated one. The seam is private to this
//! crate.
//!
//! The `observe` and `faults` cargo features forward to the same
//! switches everywhere else in the workspace: observation hangs
//! counters/spans/series on the real socket path, and fault injection
//! replays the simulator's per-client loss/corruption fates against
//! real datagrams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod ha;
pub mod mu;
pub mod ops;
pub mod proto;
pub mod server;

pub use conformance::{check_conformance, Conformance, ConformanceError, ServerTotals};
pub use mu::{audit_against_history, run_mu, CacheAuditRow, LiveMu, LiveMuReport, MuOptions};
pub use proto::{encode_rows, DecisionRow, Msg};
pub use server::{LiveOptions, LiveServer, LiveServerReport, Pace, ServerHandle, Stopper};
