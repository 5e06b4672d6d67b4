//! Simulation output metrics.
//!
//! The analysis speaks in hit ratios, report bits, and Eq. 9
//! throughput; [`SimulationReport`] exposes the *measured* counterparts
//! so the validation tests and the experiment harness can put the
//! simulator and the model side by side.

use sw_client::CapacityStats;
use sw_observe::ObserveSnapshot;
use sw_query::QueryStats;
use sw_sim::counters;
use sw_wireless::{EnergyTotals, TrafficTotals};

use crate::faults::FaultTotals;
use crate::mesh::CoopStats;
use crate::safety::SafetyStats;

counters! {
    /// Handoff counters for a cell participating in a mesh. All zeros for
    /// a standalone cell — nothing here affects single-cell metrics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MigrationStats {
        /// Units that arrived from another cell.
        pub migrations_in as "migrations",
        /// Units that departed for another cell.
        pub migrations_out,
        /// Arrivals whose carried cache was lost to the handoff — either
        /// dropped at attach because the cells' report histories diverged,
        /// or dropped by the unit's own strategy at the first report heard
        /// in the new cell (AT always; TS when the transit gap exceeded
        /// its window).
        pub handoff_drops,
        /// Stateful baseline only: wake-up registrations by units that
        /// migrated in (each costs a directed control message, the §2
        /// per-cell state the paper charges the stateful server for).
        pub cross_cell_registrations,
    }
}

/// Everything one simulation run measured.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Strategy name ("TS", "AT", "SIG", "NC", "ATS", "QD").
    pub strategy: &'static str,
    /// Broadcast intervals simulated.
    pub intervals: u64,
    /// Clients in the cell.
    pub n_clients: usize,
    /// Query events (item × interval) answered from cache.
    pub hit_events: u64,
    /// Query events that went uplink.
    pub miss_events: u64,
    /// Raw query arrivals.
    pub queries_posed: u64,
    /// Whole-cache drops across all clients.
    pub cache_drops: u64,
    /// Individual invalidations across all clients.
    pub items_invalidated: u64,
    /// Sum of report sizes over all intervals (analytical bits).
    pub report_bits_total: u64,
    /// Channel traffic totals.
    pub traffic: TrafficTotals,
    /// Query exchanges that did not fit their interval's bit budget and
    /// overflowed into accounting-only overage (the simulated fleet is
    /// normally far below channel capacity; a non-zero value flags an
    /// overloaded configuration).
    pub overflow_exchanges: u64,
    /// Connect/disconnect control messages (stateful baseline only).
    pub registration_messages: u64,
    /// Aggregate client energy by radio state (§9/§10 accounting).
    pub energy: EnergyTotals,
    /// Safety-checker counters (all zeros unless enabled).
    pub safety: SafetyStats,
    /// Query-plane counters summed over the fleet (all zeros unless the
    /// cell was configured with
    /// [`crate::config::CellConfig::with_query`]).
    pub query: QueryStats,
    /// Handoff counters (all zeros for standalone cells).
    pub migration: MigrationStats,
    /// Fault-injection counters (all zeros unless a plan is armed and
    /// the `faults` cargo feature is on).
    pub faults: FaultTotals,
    /// Bounded-cache eviction counters summed over the fleet (all zeros
    /// for unbounded cells).
    pub capacity: CapacityStats,
    /// Cooperative-miss counters (all zeros unless
    /// [`MeshConfig::with_coop`](crate::mesh::MeshConfig::with_coop)
    /// armed the path).
    pub coop: CoopStats,
    /// Interval capacity `L·W` in bits.
    pub interval_bits: f64,
    /// `b_q + b_a` in bits.
    pub per_query_bits: f64,
    /// Analytical `T_max` at the run's parameters (Eq. 11).
    pub t_max_analytic: f64,
    /// Attached observation snapshot: `Some` only when the run was
    /// configured with [`crate::config::CellConfig::with_observe`] AND
    /// the `observe` cargo feature is on. Contains wall-clock span
    /// timings, so strip it (`report.observe = None`) before comparing
    /// reports byte-for-byte; the snapshot's own deterministic parts
    /// are compared via `ObserveSnapshot::deterministic_digest`.
    pub observe: Option<ObserveSnapshot>,
}

impl SimulationReport {
    /// Measured hit ratio over query events. NaN for a run with no
    /// query events at all: "no data" must not plot as the real point
    /// `h = 0` (formatters render it as `--`/`null`).
    pub fn hit_ratio(&self) -> f64 {
        let events = self.hit_events + self.miss_events;
        if events == 0 {
            f64::NAN
        } else {
            self.hit_events as f64 / events as f64
        }
    }

    /// Total query events.
    pub fn query_events(&self) -> u64 {
        self.hit_events + self.miss_events
    }

    /// Mean report size in bits. NaN when no interval was simulated
    /// (an empty run has no mean, and `0.0` would silently plot as a
    /// real data point).
    pub fn report_bits_mean(&self) -> f64 {
        if self.intervals == 0 {
            f64::NAN
        } else {
            self.report_bits_total as f64 / self.intervals as f64
        }
    }

    /// Eq. 9 evaluated with the *measured* hit ratio and mean report
    /// size: the throughput this cell could sustain at saturation.
    /// NaN when the run measured nothing (empty-run `hit_ratio` /
    /// `report_bits_mean` propagate).
    pub fn throughput(&self) -> f64 {
        let bc = self.report_bits_mean();
        if bc >= self.interval_bits {
            return 0.0;
        }
        let h = self.hit_ratio();
        if h.is_nan() || bc.is_nan() {
            return f64::NAN;
        }
        let miss = (1.0 - h).max(1e-15);
        (self.interval_bits - bc) / (self.per_query_bits * miss)
    }

    /// Measured effectiveness `e = T/T_max` (Eq. 10), capped at 1.
    /// NaN for an empty run (`f64::min` would otherwise swallow the
    /// NaN throughput and report a perfect 1.0).
    pub fn effectiveness(&self) -> f64 {
        if self.t_max_analytic <= 0.0 {
            return 0.0;
        }
        let t = self.throughput();
        if t.is_nan() {
            return f64::NAN;
        }
        (t / self.t_max_analytic).min(1.0)
    }

    /// Mean client energy per interval (all radio states).
    pub fn energy_per_client_interval(&self) -> f64 {
        let denom = (self.intervals * self.n_clients as u64).max(1) as f64;
        self.energy.total() / denom
    }

    /// Uplink query events per interval actually simulated.
    pub fn misses_per_interval(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.miss_events as f64 / self.intervals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimulationReport {
        SimulationReport {
            strategy: "AT",
            intervals: 100,
            n_clients: 10,
            hit_events: 900,
            miss_events: 100,
            queries_posed: 2000,
            cache_drops: 5,
            items_invalidated: 50,
            report_bits_total: 100 * 1000,
            traffic: TrafficTotals::default(),
            overflow_exchanges: 0,
            registration_messages: 0,
            energy: EnergyTotals::default(),
            safety: SafetyStats::default(),
            query: QueryStats::default(),
            migration: MigrationStats::default(),
            faults: FaultTotals::default(),
            capacity: CapacityStats::default(),
            coop: CoopStats::default(),
            interval_bits: 100_000.0,
            per_query_bits: 1024.0,
            t_max_analytic: 10_000.0,
            observe: None,
        }
    }

    #[test]
    fn migration_stats_obey_the_counter_laws() {
        sw_sim::counters::assert_laws::<MigrationStats>();
    }

    #[test]
    fn hit_ratio_and_events() {
        let r = report();
        assert!((r.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(r.query_events(), 1000);
    }

    #[test]
    fn throughput_matches_eq9_by_hand() {
        let r = report();
        // B_c = 1000 bits/interval; (1e5 − 1e3)/(1024 · 0.1).
        let expected = 99_000.0 / 102.4;
        assert!((r.throughput() - expected).abs() < 1e-9);
    }

    #[test]
    fn effectiveness_normalizes_and_caps() {
        let mut r = report();
        let e = r.effectiveness();
        assert!((e - r.throughput() / 10_000.0).abs() < 1e-12);
        r.t_max_analytic = 1.0;
        assert_eq!(r.effectiveness(), 1.0, "capped at 1");
    }

    #[test]
    fn oversized_report_means_zero_throughput() {
        let mut r = report();
        r.report_bits_total = 200_000 * 100;
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn energy_per_client_interval_normalizes() {
        let mut r = report();
        r.energy = sw_wireless::EnergyTotals {
            rx: 500.0,
            tx: 300.0,
            doze: 200.0,
            sleep: 0.0,
        };
        // 100 intervals × 10 clients.
        assert!((r.energy_per_client_interval() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reports_nan_not_zero() {
        // "No data" must not plot as the real data point h = 0 /
        // B_c = 0; downstream serializers render NaN as null/--.
        let mut r = report();
        r.intervals = 0;
        r.hit_events = 0;
        r.miss_events = 0;
        assert!(r.hit_ratio().is_nan());
        assert!(r.report_bits_mean().is_nan());
        assert!(r.throughput().is_nan(), "NaN propagates through Eq. 9");
        assert!(r.effectiveness().is_nan(), "min() must not mask the NaN");
        assert_eq!(r.misses_per_interval(), 0.0);
    }

    #[test]
    fn zero_events_alone_is_nan_hit_ratio() {
        let mut r = report();
        r.hit_events = 0;
        r.miss_events = 0;
        assert!(r.hit_ratio().is_nan());
        // Intervals ran, so the mean report size is still real.
        assert!((r.report_bits_mean() - 1000.0).abs() < 1e-12);
        assert!(r.throughput().is_nan());
    }
}
