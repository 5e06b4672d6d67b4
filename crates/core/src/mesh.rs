//! The multi-cell network environment.
//!
//! The paper's world is a mesh of cells, each served by a mobile
//! support station broadcasting invalidation reports, with mobile
//! units roaming between them (§1's architecture). The single-cell
//! simulator ([`CellSimulation`](crate::CellSimulation)) models one
//! cell in isolation; this module composes N of them into a
//! [`MeshSimulation`]: a shared backbone database replicated across
//! every cell, a [`CellGraph`] saying which cells abut, and a
//! deterministic [`MobilityModel`] migrating units at interval
//! barriers.
//!
//! A handoff needs no new protocol: from the unit's strategy's point
//! of view it is a report gap (the transit blackout) plus a change of
//! report stream, so §3's own rules govern recovery — AT drops its
//! cache, TS keeps entries iff the gap stayed inside its window *and*
//! the two cells broadcast the same invalidation history, SIG
//! re-diagnoses by signature, and the stateful baseline re-registers
//! with the new cell's server.
//!
//! ```
//! use sleepers::prelude::*;
//! use sleepers::mesh::{CellGraph, MeshConfig, MeshSimulation, MobilityModel};
//!
//! let params = ScenarioParams::scenario1().with_s(0.3);
//! let base = CellConfig::new(params).with_clients(10).with_hotspot_size(50);
//! let config = MeshConfig::new(CellGraph::ring(4), base, MasterSeed(7))
//!     .with_mobility(MobilityModel::Markov { rate: 0.05 });
//! let mut mesh = MeshSimulation::new(config, Strategy::BroadcastTimestamps).unwrap();
//! let report = mesh.run(100).unwrap();
//! println!("mesh hit ratio: {:.3}", report.hit_ratio());
//! println!("migrations: {}", report.migrations);
//! ```
//!
//! Runs are byte-identical at any `SW_THREADS` setting: cells step in
//! parallel between barriers, but every migration decision and every
//! handoff applies in fixed home-index order on one thread.
//!
//! The same barrier carries cooperative misses (Joy & Jacob's
//! cooperative caching, one cell apart): a bounded client's fresh miss
//! may be served by a neighbor cell's verifiably fresh copy, charged at
//! [`CoopConfig::b_coop`] bits instead of an uplink exchange (armed by
//! [`MeshConfig::with_coop`]).

mod coop;
pub mod graph;
pub mod mobility;
pub mod sim;

pub use coop::{CoopConfig, CoopDirectory, CoopStats};
pub use graph::CellGraph;
pub use mobility::MobilityModel;
pub use sim::{MeshConfig, MeshReport, MeshSimulation};
