//! # sleepers — broadcast cache invalidation for mobile environments
//!
//! A complete, from-scratch reproduction of
//!
//! > Daniel Barbará and Tomasz Imieliński, *"Sleepers and Workaholics:
//! > Caching Strategies in Mobile Environments"*, SIGMOD 1994 (extended
//! > version: The VLDB Journal 4(4), 1995).
//!
//! Mobile units cache database items and listen to a periodic
//! **invalidation report** broadcast by a *stateless* server — one that
//! knows nothing about who is in the cell, who is awake, or what anyone
//! caches. The paper proposes three report designs and analyzes how
//! each fares as clients' disconnection ("sleep") patterns vary:
//!
//! * **TS** — Broadcasting Timestamps: ids + update timestamps for the
//!   last `w = kL` seconds;
//! * **AT** — Amnesic Terminals: ids updated in the last interval only;
//! * **SIG** — combined signatures: XOR-compressed checksums of random
//!   item subsets, decoded by counting unmatched subsets.
//!
//! # Quick start
//!
//! ```
//! use sleepers::prelude::*;
//!
//! // Scenario 1 of the paper (Figure 3), 20 clients, 30% sleep chance.
//! let params = ScenarioParams::scenario1().with_s(0.3);
//! let config = CellConfig::new(params)
//!     .with_clients(20)
//!     .with_hotspot_size(50)
//!     .with_seed(7);
//! let mut sim = CellSimulation::new(config, Strategy::AmnesicTerminals).unwrap();
//! let report = sim.run(200).unwrap();
//! println!("measured hit ratio: {:.3}", report.hit_ratio());
//! println!("measured effectiveness: {:.3}", report.effectiveness());
//! ```
//!
//! The analytical model lives in [`sw_analysis`] (re-exported as
//! [`analysis`]); the discrete-event simulator in [`simulation`]. The
//! two are validated against each other in the integration test-suite
//! and the experiment harness regenerates every figure of the paper
//! from both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub(crate) mod fleet;
pub mod metrics;
pub mod prelude;
pub mod safety;
pub mod seat;
pub mod simulation;
pub mod strategy;

pub use config::{CellConfig, FleetBackend, WakeMode};
pub use driver::{CellServer, ServerDriver};
pub use metrics::{MigrationStats, SimulationReport};
pub use seat::ClientSeat;
pub use simulation::{CellSimulation, HandoffClient, SimulationError};
pub use strategy::Strategy;

/// Re-export: the analytical model (closed-form formulas of §4–§5).
pub use sw_analysis as analysis;
/// Re-export: client-side building blocks.
pub use sw_client as client;
/// Re-export: server-side building blocks.
pub use sw_server as server;
/// Re-export: signature machinery.
pub use sw_signature as signature;
/// Re-export: simulation kernel.
pub use sw_sim as sim;
/// Re-export: wireless channel substrate.
pub use sw_wireless as wireless;
/// Re-export: workloads and scenario presets.
pub use sw_workload as workload;
/// Re-export: adaptive invalidation reports (§8).
pub use sw_adaptive as adaptive;
/// Re-export: quasi-copy coherency (§7).
pub use sw_quasi as quasi;
/// Re-export: query-result caching and transactional multi-item reads
/// over the invalidation stream.
pub use sw_query as query;
/// Re-export: zero-cost instrumentation (counters, histograms, span
/// timers, NDJSON traces, per-interval series).
pub use sw_observe as observe;
/// Re-export: deterministic fault injection (report loss, frame
/// corruption, uplink retry with backoff, clock drift).
pub use sw_faults as faults;
/// Re-export: bounded caches — replacement policies, eviction
/// statistics, and the cooperative-miss building blocks.
pub use sw_capacity as capacity;
