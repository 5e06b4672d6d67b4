//! The mesh: N cell shards over a shared backbone database.
//!
//! Every cell of a [`MeshSimulation`] replicates the same logical
//! database (they share a *backbone* seed, so database contents, the
//! update schedule, and the SIG subset family coincide across shards)
//! while keeping its own client fleet, broadcast channel, and report
//! builder. Mobile units migrate between cells at interval barriers;
//! a handoff is, from the strategy's point of view, nothing but a
//! report gap plus a change of report stream — the paper's own sleep
//! rules decide what survives it.
//!
//! # Determinism
//!
//! The mesh is bit-deterministic at any thread count:
//!
//! * Cells only step **between** barriers, and each cell's step draws
//!   exclusively from that cell's own seed-split streams — the shards
//!   share no mutable state, so stepping them in parallel is a pure
//!   fan-out. [`ParallelRunner::run_mut`] assigns each shard to
//!   exactly one worker per barrier and writes results by index.
//! * Mobility decisions draw from per-unit `StreamId::Mobility`
//!   streams of the *mesh* seed, polled in fixed home-index order at
//!   the barrier (single-threaded), so trajectories are independent of
//!   scheduling.
//! * Migrations apply in home-index order: detach from the source,
//!   compare report-digest logs, attach to the destination. Slot
//!   indices and client ids in every cell are therefore a pure
//!   function of (config, interval), never of thread interleaving.
//!
//! Cell seeds come from [`mesh_seed`] — a separate seed domain from
//! the figure harness's [`cell_seed`](sw_sim::cell_seed) — so meshes
//! never replay a figure sweep's randomness.

use sleepers::capacity::{CapacityStats, CoopConfig, CoopDirectory, CoopFeed, CoopStats};
use sleepers::{
    CellConfig, CellSimulation, MigrationStats, SimulationError, SimulationReport, Strategy,
};
use sw_sim::{mesh_seed, Counters, MasterSeed, ParallelRunner, RngStream, StreamId};

use crate::graph::CellGraph;
use crate::mobility::MobilityModel;

/// Configuration for a [`MeshSimulation`].
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// The cell adjacency graph.
    pub graph: CellGraph,
    /// Template for every cell: scenario parameters, per-cell fleet
    /// size, wake mode, safety checking, fault plans, observe label.
    /// The template's `seed` and `backbone` are ignored — each cell
    /// gets its own seed from the mesh seed domain and the mesh seed
    /// as backbone.
    pub base: CellConfig,
    /// Master seed of the mesh: the backbone protocol seed shared by
    /// all shards, and the root of every mobility stream.
    pub seed: MasterSeed,
    /// How units move between cells.
    pub mobility: MobilityModel,
}

impl MeshConfig {
    /// A stationary mesh (no mobility until
    /// [`with_mobility`](Self::with_mobility)).
    pub fn new(graph: CellGraph, base: CellConfig, seed: MasterSeed) -> Self {
        MeshConfig {
            graph,
            base,
            seed,
            mobility: MobilityModel::Stationary,
        }
    }

    /// Sets the mobility model.
    pub fn with_mobility(mut self, mobility: MobilityModel) -> Self {
        self.mobility = mobility;
        self
    }

    /// Arms cooperative misses: at every barrier each cell publishes a
    /// directory of cache entries stamped at the last report time, and
    /// its neighbors (in ascending cell order — ties go to the lowest
    /// cell) may serve a fresh miss from that directory next interval
    /// at `b_coop` bits instead of a full uplink exchange. The served
    /// copy is vouched for against the receiver's own intact report, so
    /// the never-stale guarantee is untouched.
    pub fn with_coop(mut self, coop: CoopConfig) -> Self {
        self.base.coop = Some(coop);
        self
    }

    /// The full per-cell configuration for shard `cell`: the base
    /// template with a cell-specific seed drawn from the mesh seed
    /// domain, the mesh seed as the shared backbone, and (when the
    /// template carries an observe label) a `…/cellN` label suffix.
    ///
    /// A standalone [`CellSimulation`] built from this config is
    /// byte-identical to the mesh shard as long as no unit migrates —
    /// the property the zero-mobility equivalence test pins.
    pub fn cell_config(&self, cell: usize) -> CellConfig {
        let mut config = self.base.clone();
        config.seed = MasterSeed(mesh_seed(self.seed.0, &[cell as u64]));
        config.backbone = Some(self.seed);
        if let Some(label) = &self.base.observe {
            config.observe = Some(format!("{label}/cell{cell}"));
        }
        config
    }
}

/// Where one mobile unit currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Location {
    /// Cell the unit is attached to.
    cell: usize,
    /// Slot index within that cell.
    slot: usize,
    /// Lifetime hop count (cycles the neighbor list under
    /// [`MobilityModel::Periodic`]).
    hops: u64,
}

/// A multi-cell simulation: N [`CellSimulation`] shards stepped in
/// parallel between migration barriers.
pub struct MeshSimulation {
    config: MeshConfig,
    cells: Vec<CellSimulation>,
    /// One mobility stream per unit, indexed by home index (global
    /// unit number at construction: `home = cell·n_per_cell + slot`).
    mobility_rngs: Vec<RngStream>,
    /// Current location per home index.
    locations: Vec<Location>,
    runner: ParallelRunner,
    /// Completed intervals (== barrier number of the *next* barrier).
    intervals_done: u64,
    /// Total accepted migrations across the run.
    migrations: u64,
}

impl MeshSimulation {
    /// Builds every shard. Thread count comes from `SW_THREADS` (see
    /// [`ParallelRunner::from_env`]); results are identical at any
    /// setting.
    pub fn new(config: MeshConfig, strategy: Strategy) -> Result<Self, SimulationError> {
        Self::with_runner(config, strategy, ParallelRunner::from_env())
    }

    /// Builds every shard with an explicit runner (test hook for
    /// pinning thread counts).
    pub fn with_runner(
        config: MeshConfig,
        strategy: Strategy,
        runner: ParallelRunner,
    ) -> Result<Self, SimulationError> {
        let n_cells = config.graph.n_cells();
        let n_per_cell = config.base.n_clients;
        let mut cells = Vec::with_capacity(n_cells);
        for cell in 0..n_cells {
            cells.push(CellSimulation::new(config.cell_config(cell), strategy)?);
        }
        let total = n_cells * n_per_cell;
        let mut mobility_rngs = Vec::with_capacity(total);
        let mut locations = Vec::with_capacity(total);
        for home in 0..total {
            mobility_rngs.push(config.seed.stream(StreamId::Mobility {
                index: home as u64,
            }));
            locations.push(Location {
                cell: home / n_per_cell,
                slot: home % n_per_cell,
                hops: 0,
            });
        }
        Ok(MeshSimulation {
            config,
            cells,
            mobility_rngs,
            locations,
            runner,
            intervals_done: 0,
            migrations: 0,
        })
    }

    /// Runs one interval on every shard (in parallel), then executes
    /// the migration barrier. Errors surface deterministically: if
    /// several shards fail the same interval, the lowest cell index
    /// wins regardless of which worker finished first.
    pub fn step(&mut self) -> Result<(), SimulationError> {
        let results = self
            .runner
            .run_mut(&mut self.cells, |_, cell| cell.step());
        for result in results {
            result?;
        }
        self.intervals_done += 1;
        self.migrate_barrier(self.intervals_done);
        if self.config.base.coop.is_some() {
            self.exchange_coop_directories();
        }
        Ok(())
    }

    /// The cooperative half of the barrier: snapshot every cell's
    /// directory of report-fresh entries, then hand each cell the merge
    /// of its neighbors' directories (ascending cell order, first entry
    /// wins). Runs after migration so arriving travelers' caches are
    /// already counted where they now live. Single-threaded, like the
    /// migration pass — determinism comes from the fixed cell order.
    fn exchange_coop_directories(&mut self) {
        let directories: Vec<CoopDirectory> =
            self.cells.iter().map(|c| c.coop_directory()).collect();
        for (cell, sim) in self.cells.iter_mut().enumerate() {
            let neighbor_dirs: Vec<&CoopDirectory> = self
                .config
                .graph
                .neighbors(cell)
                .iter()
                .map(|&n| &directories[n])
                .collect();
            sim.install_coop_feed(CoopFeed::merge(&neighbor_dirs));
        }
    }

    /// Runs `intervals` intervals and returns the mesh report.
    pub fn run(&mut self, intervals: u64) -> Result<MeshReport, SimulationError> {
        for _ in 0..intervals {
            self.step()?;
        }
        Ok(self.report())
    }

    /// Runs `warmup` unmeasured intervals, zeroes every shard's
    /// metrics, then runs `intervals` measured ones.
    pub fn run_measured(
        &mut self,
        warmup: u64,
        intervals: u64,
    ) -> Result<MeshReport, SimulationError> {
        for _ in 0..warmup {
            self.step()?;
        }
        self.reset_metrics();
        self.run(intervals)
    }

    /// Zeroes every shard's metrics (and the mesh migration total)
    /// without touching caches, protocol state, or unit locations.
    pub fn reset_metrics(&mut self) {
        for cell in &mut self.cells {
            cell.reset_metrics();
        }
        self.migrations = 0;
    }

    /// One migration barrier: poll every unit's mobility model in home
    /// order and hand accepted moves off cell-to-cell. Single-threaded
    /// by design — the barrier is the synchronization point, and home
    /// order makes slot assignment reproducible.
    fn migrate_barrier(&mut self, barrier: u64) {
        for home in 0..self.locations.len() {
            let Location { cell, slot, hops } = self.locations[home];
            let neighbors = self.config.graph.neighbors(cell);
            let dest = match self.config.mobility.decide(
                &mut self.mobility_rngs[home],
                barrier,
                hops,
                neighbors,
            ) {
                Some(dest) => dest,
                None => continue,
            };
            debug_assert_ne!(dest, cell, "graph has no self-loops");
            // The TS handoff clause: a traveler keeps its cache across
            // the handoff only if the destination has been broadcasting
            // the same invalidation information. With a shared backbone
            // the static strategies' reports coincide and this is
            // always true; adaptive/quasi builders fold local feedback
            // into their reports and can genuinely diverge.
            let agree = self.cells[cell].report_history_agrees(&self.cells[dest]);
            let traveler = self.cells[cell].detach_client(slot);
            let new_slot = self.cells[dest].attach_client(traveler, agree);
            self.locations[home] = Location {
                cell: dest,
                slot: new_slot,
                hops: hops + 1,
            };
            self.migrations += 1;
        }
    }

    /// Snapshot of every shard's metrics plus the mesh totals.
    pub fn report(&self) -> MeshReport {
        let cells: Vec<_> = self.cells.iter().map(|c| c.report()).collect();
        // The shards share one clock; their measured-interval counts
        // always agree (and reset together with the metrics).
        let intervals = cells.first().map(|c| c.intervals).unwrap_or(0);
        MeshReport {
            cells,
            intervals,
            migrations: self.migrations,
        }
    }

    /// The shards, in cell order (read-only test hook).
    pub fn cells(&self) -> &[CellSimulation] {
        &self.cells
    }

    /// Total accepted migrations so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }
}

/// Aggregated output of a mesh run.
#[derive(Debug, Clone)]
pub struct MeshReport {
    /// Per-shard reports, in cell order.
    pub cells: Vec<SimulationReport>,
    /// Intervals each shard simulated (measured since the last metrics
    /// reset; shards always agree).
    pub intervals: u64,
    /// Accepted migrations across the mesh (measured window).
    pub migrations: u64,
}

impl MeshReport {
    /// Mesh-wide hit ratio over query events (NaN when no unit posed a
    /// query, matching [`SimulationReport::hit_ratio`]).
    pub fn hit_ratio(&self) -> f64 {
        let hits: u64 = self.cells.iter().map(|c| c.hit_events).sum();
        let events: u64 = self.cells.iter().map(|c| c.hit_events + c.miss_events).sum();
        if events == 0 {
            f64::NAN
        } else {
            hits as f64 / events as f64
        }
    }

    /// Mesh-wide query events.
    pub fn query_events(&self) -> u64 {
        self.cells.iter().map(|c| c.query_events()).sum()
    }

    /// Mesh-wide uplink traffic in bits (queries sent up across all
    /// cells' channels).
    pub fn uplink_bits(&self) -> u64 {
        self.cells.iter().map(|c| c.traffic.query_bits).sum()
    }

    /// Summed handoff counters across all shards. `migrations_in` and
    /// `migrations_out` each count every accepted migration once (one
    /// cell logs the departure, another the arrival), so at the mesh
    /// level they agree with [`migrations`](MeshReport::migrations)
    /// over the same window.
    pub fn migration(&self) -> MigrationStats {
        MigrationStats::total(self.cells.iter().map(|c| c.migration))
    }

    /// Mesh-wide safety violations (stale cache entries validated).
    pub fn safety_violations(&self) -> u64 {
        self.cells.iter().map(|c| c.safety.violations).sum()
    }

    /// Summed eviction statistics across all shards (zero when the
    /// mesh runs unbounded caches).
    pub fn capacity(&self) -> CapacityStats {
        CapacityStats::total(self.cells.iter().map(|c| c.capacity))
    }

    /// Summed cooperative-miss statistics across all shards (zero when
    /// [`MeshConfig::with_coop`] was never armed).
    pub fn coop(&self) -> CoopStats {
        CoopStats::total(self.cells.iter().map(|c| c.coop))
    }
}
