//! One-stop imports for library users.
//!
//! ```
//! use sleepers::prelude::*;
//! let params = ScenarioParams::scenario1();
//! let _ = CellConfig::new(params);
//! ```

pub use crate::config::{CellConfig, FleetBackend, WakeMode};
pub use crate::metrics::{MigrationStats, SimulationReport};
pub use crate::simulation::{CellSimulation, SimulationError};
pub use crate::strategy::Strategy;

pub use crate::adaptive::FeedbackMethod;
pub use crate::faults::{ClockDrift, FaultPlan, FaultTotals, LossModel, UplinkFaults};
pub use crate::mesh::{CoopConfig, CoopStats};
pub use sw_client::{CapacityStats, ReplacementPolicy};
pub use sw_analysis::{
    effectiveness_at, h_at, h_sig, h_ts_bounds, h_ts_estimate, mhr, throughput_at,
    throughput_max, throughput_nc, throughput_sig, throughput_ts, Sweep, Throughputs,
};
pub use sw_query::{QueryPlaneConfig, QueryPredicate, QueryStats};
pub use sw_sim::{Counters, MasterSeed, SimDuration, SimTime};
pub use sw_wireless::DeliveryMode;
pub use sw_workload::{Popularity, ScenarioParams, SweepAxis};
