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
//! from both. The paper's extensions sit beside the cell they drive:
//! [`quasi`] (§7 quasi-copies) and [`adaptive`] (§8 adaptive windows)
//! feed arms of the [`ServerDriver`], and [`mesh`] composes cells into
//! a multi-cell network with handoffs and cooperative misses.
//! [`faults`] is the adversary the paper's recovery rules are tested
//! against: seed-streamed report loss, frame corruption, uplink retry
//! and clock drift, compiled in by the `faults` cargo feature and inert
//! without it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod driver;
pub mod faults;
pub(crate) mod fleet;
pub mod mesh;
pub mod metrics;
pub mod prelude;
pub mod quasi;
pub mod safety;
pub mod seat;
pub mod simulation;
pub mod strategy;

pub use config::{CellConfig, FleetBackend, WakeMode};
pub use driver::{CellServer, ServerDriver};
pub use fleet::Fleet;
pub use metrics::{MigrationStats, SimulationReport};
pub use simulation::{CellSimulation, SimulationError};
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
/// Re-export: query-result caching and transactional multi-item reads
/// over the invalidation stream.
pub use sw_query as query;
/// Re-export: zero-cost instrumentation (counters, histograms, span
/// timers, NDJSON traces, per-interval series).
pub use sw_observe as observe;
