//! Cell-level configuration.
//!
//! [`CellConfig`] combines the paper's model parameters
//! ([`ScenarioParams`]) with the simulation-level knobs the analysis
//! abstracts away: how many clients to actually instantiate, their
//! hotspot sizes and popularity skew, the random seed, the report
//! delivery mode (§9), and whether expensive safety checking is on.

use sw_capacity::{CoopConfig, ReplacementPolicy};
use sw_faults::FaultPlan;
use sw_query::QueryPlaneConfig;
use sw_sim::MasterSeed;
use sw_wireless::DeliveryMode;
use sw_workload::{Popularity, ScenarioParams};

/// How the cell tracks which units wake in which interval.
///
/// Both representations yield the identical awake set in the identical
/// (ascending-index) order — every random stream is consumed in the
/// same sequence — so the choice is purely a time/space trade, never a
/// results change. [`CellConfig::with_wake_mode`] forces one; the
/// default picks by the cell's mean sleep probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeMode {
    /// Dense scan of a per-client next-wake vector: O(n) per interval
    /// with a branch-predictable sequential pass. Fastest for
    /// workaholic-leaning cells, where most units wake most intervals
    /// and a heap would churn an entry per client per interval.
    Scan,
    /// Min-heap of `(wake_interval, client)` — the sleeper skip-list:
    /// O(awake · log n) per interval, never visiting sleepers. Wins
    /// when nearly the whole cell sleeps (s ≳ 0.95), which is exactly
    /// the paper's sleeper regime.
    Heap,
}

/// Which storage layout holds the client fleet's mutable state.
///
/// Both layouts simulate the identical model and produce bit-identical
/// reports (pinned by the equivalence suite); the choice is purely a
/// memory-layout/performance trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetBackend {
    /// One [`sw_client::MobileUnit`] struct per client: caches are
    /// per-client item tables, handlers are boxed trait objects. The
    /// fully general backend — required for the driver-constructed
    /// strategies (adaptive TS, quasi-delay, stateful), bounded caches,
    /// piggybacking, and mesh shards (whose units migrate as whole
    /// structs).
    Units,
    /// Struct-of-arrays: per-item cache timestamps, values, and
    /// validity bitmaps for *all* clients live in dense parallel
    /// vectors strided by the hotspot size (a client can only ever
    /// cache items it queries, and it only queries its hotspot), with
    /// per-client strategy state held in typed columns instead of
    /// boxed handlers. One report sweep is a cache-friendly linear
    /// scan, and memory scales with `clients × hotspot` instead of
    /// `clients × n_items` — the layout that makes 10⁵–10⁶-client
    /// cells tractable.
    Columnar,
}

/// Full configuration of one simulated cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// The paper's model parameters.
    pub params: ScenarioParams,
    /// Number of mobile units in the cell.
    pub n_clients: usize,
    /// Hotspot size per client.
    pub hotspot_size: usize,
    /// Popularity skew across clients' hotspots.
    pub popularity: Popularity,
    /// Master seed for all random streams.
    pub seed: MasterSeed,
    /// Report delivery mode (§9). Timing only; defaults to exact timer
    /// synchronization.
    pub delivery: DeliveryMode,
    /// Collect local-hit timestamps for uplink piggybacking (§8.1).
    pub piggyback_hits: bool,
    /// Optional per-client cache capacity (None = unbounded).
    pub cache_capacity: Option<usize>,
    /// Replacement policy for bounded caches. Ignored (and must stay at
    /// its default) when `cache_capacity` is `None` — an unbounded
    /// cache never evicts, so there is nothing for a policy to decide.
    pub replacement: ReplacementPolicy,
    /// Zipf exponent θ for skewed intra-hotspot query popularity.
    /// `None` — the default — keeps the paper's uniform hotspot draw
    /// and leaves every pre-existing run byte-identical; `Some(θ)`
    /// draws item picks from the dedicated
    /// `StreamId::ZipfQuery { index }` streams (arrival *times* still
    /// come from the untouched query streams). Standalone cells only.
    pub query_zipf: Option<f64>,
    /// Cooperative-miss configuration: a bounded client's fresh miss
    /// may be answered by a neighbor cell holding a verifiably fresh
    /// copy, charged at `b_coop` bits instead of an uplink exchange.
    /// `None` — the default — arms nothing. Requires a mesh backbone
    /// (neighbors only exist in a `CellGraph`).
    pub coop: Option<CoopConfig>,
    /// Record full value history and verify the no-stale-reads
    /// invariant after every interval (O(updates) memory; test use).
    pub check_safety: bool,
    /// Optional per-client sleep probabilities, assigned cyclically —
    /// a *mixed population* of sleepers and workaholics in one cell
    /// (the paper analyzes homogeneous populations; the title's two
    /// species rarely live apart in practice). `None` = every client
    /// uses `params.s`.
    pub sleep_profile: Option<Vec<f64>>,
    /// Wake-tracking representation; `None` picks automatically from
    /// the cell's mean sleep probability (heap for sleeper cells, scan
    /// otherwise). Either choice produces bit-identical results.
    pub wake_mode: Option<WakeMode>,
    /// Cell label under which to record an observation trace
    /// (counters, per-interval series, NDJSON events). `None` — the
    /// default — records nothing; with the `observe` cargo feature off
    /// the label is ignored and the recorder is a compile-time no-op
    /// either way. Observation never changes simulation results (the
    /// determinism suite pins this).
    pub observe: Option<String>,
    /// Deterministic fault schedule (report loss, frame corruption,
    /// uplink retry, clock drift). `None` — the default — injects
    /// nothing; with the `faults` cargo feature off any plan is ignored
    /// and the injector is a compile-time no-op either way.
    pub faults: Option<FaultPlan>,
    /// Worker-thread count for the intra-cell report sweep. `None` —
    /// the default — resolves from `SW_THREADS`, falling back to the
    /// machine's parallelism. Any value (including 1) produces
    /// bit-identical results: the sweep partitions the awake set into
    /// disjoint contiguous ranges, the report is shared immutably, and
    /// every random draw happens outside the parallel section.
    pub sweep_threads: Option<usize>,
    /// Client-state storage backend. `None` — the default — picks the
    /// columnar struct-of-arrays fleet whenever the configuration is
    /// eligible (static report strategies, unbounded caches, no
    /// piggybacking, standalone cell) and the per-unit struct fleet
    /// otherwise. Both backends are bit-identical; the explicit
    /// settings exist for A/B equivalence tests.
    pub fleet: Option<FleetBackend>,
    /// Optional query-result plane (`sw-query`): every client runs a
    /// predicate-query workload whose cached results are invalidated by
    /// the same reports the item cache hears, plus multi-item
    /// transactional reads. `None` — the default — arms nothing and
    /// leaves every pre-query run byte-identical (the plane draws only
    /// from `StreamId::QueryPlan { index }`). Query-armed cells always
    /// use the boxed-unit fleet (the plane reads each client's item
    /// cache directly) and must be standalone (no mesh backbone).
    pub query: Option<QueryPlaneConfig>,
    /// Backbone seed for mesh membership. `None` — the default — means
    /// the cell is standalone and derives *everything* from `seed`.
    /// `Some(b)` marks the cell as one shard of a replicated-backbone
    /// mesh: the database contents, the server's update process, and
    /// the SIG subset family derive from `b` (shared by every shard)
    /// while the per-client query/sleep/hotspot streams still derive
    /// from the cell's own `seed`. Shards of one mesh therefore hold
    /// identical database replicas seeing identical updates — the
    /// precondition for a migrated cache entry to be meaningful at all
    /// — and the cell keeps a rolling log of report digests so the
    /// mesh can test the "report histories diverge" handoff clause.
    pub backbone: Option<MasterSeed>,
}

impl CellConfig {
    /// Creates a config with sensible defaults: 10 clients, hotspots of
    /// 50 items (clamped to `n`), uniform popularity, the test seed,
    /// timer-synchronized delivery, no piggybacking, safety checks off.
    pub fn new(params: ScenarioParams) -> Self {
        let hotspot = 50.min(params.n_items as usize);
        CellConfig {
            params,
            n_clients: 10,
            hotspot_size: hotspot,
            popularity: Popularity::Uniform,
            seed: MasterSeed::TEST,
            delivery: DeliveryMode::TimerSynchronized {
                clock_skew_bound: 0.0,
            },
            piggyback_hits: false,
            cache_capacity: None,
            replacement: ReplacementPolicy::default(),
            query_zipf: None,
            coop: None,
            check_safety: false,
            sleep_profile: None,
            wake_mode: None,
            observe: None,
            faults: None,
            sweep_threads: None,
            fleet: None,
            query: None,
            backbone: None,
        }
    }

    /// Sets the number of clients.
    pub fn with_clients(mut self, n: usize) -> Self {
        assert!(n > 0, "a cell needs at least one client");
        self.n_clients = n;
        self
    }

    /// Sets the per-client hotspot size.
    pub fn with_hotspot_size(mut self, size: usize) -> Self {
        assert!(
            size > 0 && size as u64 <= self.params.n_items,
            "hotspot size must be in 1..=n"
        );
        self.hotspot_size = size;
        self
    }

    /// Sets the popularity model.
    pub fn with_popularity(mut self, p: Popularity) -> Self {
        self.popularity = p;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = MasterSeed(seed);
        self
    }

    /// Sets the delivery mode.
    pub fn with_delivery(mut self, delivery: DeliveryMode) -> Self {
        self.delivery = delivery;
        self
    }

    /// Enables uplink piggybacking of local-hit histories.
    pub fn with_piggybacking(mut self) -> Self {
        self.piggyback_hits = true;
        self
    }

    /// Bounds each client's cache.
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = Some(cap);
        self
    }

    /// Picks the replacement policy for bounded caches (meaningful only
    /// together with [`CellConfig::with_cache_capacity`]).
    pub fn with_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Skews intra-hotspot query popularity with a Zipf(θ) draw over
    /// each client's hotspot (θ = 0 is uniform-by-another-stream; the
    /// default `None` keeps the original uniform stream untouched).
    pub fn with_query_zipf(mut self, theta: f64) -> Self {
        self.query_zipf = Some(theta);
        self
    }

    /// Arms cooperative misses over the mesh backbone: fresh misses may
    /// be served by a neighbor cell's verified copy at `b_coop` bits.
    pub fn with_coop(mut self, coop: CoopConfig) -> Self {
        self.coop = Some(coop);
        self
    }

    /// Enables the per-interval no-stale-reads invariant checker.
    pub fn with_safety_checking(mut self) -> Self {
        self.check_safety = true;
        self
    }

    /// Gives each client its own sleep probability (assigned
    /// cyclically), overriding the homogeneous `params.s`.
    pub fn with_sleep_profile(mut self, profile: Vec<f64>) -> Self {
        assert!(!profile.is_empty(), "sleep profile cannot be empty");
        assert!(
            profile.iter().all(|s| (0.0..=1.0).contains(s)),
            "sleep probabilities must be in [0,1]"
        );
        self.sleep_profile = Some(profile);
        self
    }

    /// Forces the wake-tracking representation (tests and benches; the
    /// automatic choice is right for normal runs).
    pub fn with_wake_mode(mut self, mode: WakeMode) -> Self {
        self.wake_mode = Some(mode);
        self
    }

    /// Enables observation under the given cell label: the run records
    /// counters, histograms, a per-interval time series and an NDJSON
    /// event trace, attached to the report as
    /// [`crate::metrics::SimulationReport::observe`]. Requires the
    /// `observe` cargo feature to actually capture anything.
    pub fn with_observe(mut self, label: impl Into<String>) -> Self {
        self.observe = Some(label.into());
        self
    }

    /// Arms the deterministic fault injector with the given plan
    /// (requires the `faults` cargo feature to actually inject
    /// anything; the schedule is a pure function of the master seed).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pins the intra-cell report-sweep worker count (tests and
    /// benches; normal runs resolve it from `SW_THREADS`/the machine).
    /// Bit-identical at any value.
    pub fn with_sweep_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "sweep needs at least one worker");
        self.sweep_threads = Some(threads);
        self
    }

    /// Forces the client-state storage backend (A/B equivalence tests;
    /// normal runs pick automatically). Forcing `Columnar` on an
    /// ineligible configuration is a construction error.
    pub fn with_fleet(mut self, backend: FleetBackend) -> Self {
        self.fleet = Some(backend);
        self
    }

    /// Arms the per-client query-result plane (`sw-query`): predicate
    /// queries over cached multi-item results, invalidated by the same
    /// reports as the item cache, plus transactional multi-item reads.
    pub fn with_query(mut self, query: QueryPlaneConfig) -> Self {
        self.query = Some(query);
        self
    }

    /// Marks the cell as a mesh shard sharing the given backbone seed
    /// (see the `backbone` field for exactly which streams move over).
    /// Standalone runs never set this, which is what keeps every
    /// pre-mesh artifact byte-identical.
    pub fn with_backbone(mut self, backbone: MasterSeed) -> Self {
        self.backbone = Some(backbone);
        self
    }

    /// The seed the cell-independent machinery derives from: the
    /// backbone seed for a mesh shard, the cell's own seed otherwise.
    pub fn protocol_seed(&self) -> MasterSeed {
        self.backbone.unwrap_or(self.seed)
    }

    /// Mean sleep probability across the cell (profile-weighted under
    /// the cyclic assignment), used to auto-pick the wake mode.
    pub fn mean_sleep_probability(&self) -> f64 {
        match &self.sleep_profile {
            Some(profile) => {
                let total: f64 = (0..self.n_clients)
                    .map(|idx| profile[idx % profile.len()])
                    .sum();
                total / self.n_clients as f64
            }
            None => self.params.s,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if self.n_clients == 0 {
            return Err("a cell needs at least one client".into());
        }
        if self.hotspot_size == 0 || self.hotspot_size as u64 > self.params.n_items {
            return Err(format!(
                "hotspot size {} must be in 1..=n ({})",
                self.hotspot_size, self.params.n_items
            ));
        }
        if let Some(cap) = self.cache_capacity {
            if cap == 0 {
                return Err("cache capacity must be positive".into());
            }
        }
        if let Some(theta) = self.query_zipf {
            if !theta.is_finite() || theta < 0.0 {
                return Err(format!(
                    "Zipf exponent must be finite and non-negative, got {theta}"
                ));
            }
            if self.backbone.is_some() {
                return Err(
                    "Zipf-skewed queries are standalone-only (the mesh's migration \
                     machinery replays hotspot draws it cannot re-skew)"
                        .into(),
                );
            }
        }
        if self.coop.is_some() && self.backbone.is_none() {
            return Err(
                "cooperative misses need a mesh backbone: a standalone cell \
                 has no neighbors to borrow fresh copies from"
                    .into(),
            );
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(query) = &self.query {
            query.validate()?;
            if self.backbone.is_some() {
                return Err(
                    "the query plane is standalone-only (mesh shards hand whole units \
                     between cells; a traveling query cache is not modeled)"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_for_all_scenarios() {
        for (_, name, p) in ScenarioParams::all_scenarios() {
            CellConfig::new(p)
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn builder_chain_applies() {
        let c = CellConfig::new(ScenarioParams::scenario1())
            .with_clients(5)
            .with_hotspot_size(20)
            .with_seed(99)
            .with_piggybacking()
            .with_cache_capacity(10)
            .with_safety_checking();
        assert_eq!(c.n_clients, 5);
        assert_eq!(c.hotspot_size, 20);
        assert_eq!(c.seed, MasterSeed(99));
        assert!(c.piggyback_hits);
        assert_eq!(c.cache_capacity, Some(10));
        assert!(c.check_safety);
    }

    #[test]
    fn hotspot_clamped_to_database() {
        let mut p = ScenarioParams::scenario1();
        p.n_items = 10;
        let c = CellConfig::new(p);
        assert_eq!(c.hotspot_size, 10);
    }

    #[test]
    fn sleep_profile_applies() {
        let c = CellConfig::new(ScenarioParams::scenario1())
            .with_sleep_profile(vec![0.0, 0.8]);
        assert_eq!(c.sleep_profile, Some(vec![0.0, 0.8]));
    }

    #[test]
    #[should_panic(expected = "sleep probabilities")]
    fn bad_sleep_profile_rejected() {
        let _ = CellConfig::new(ScenarioParams::scenario1()).with_sleep_profile(vec![0.5, 1.2]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_sleep_profile_rejected() {
        let _ = CellConfig::new(ScenarioParams::scenario1()).with_sleep_profile(vec![]);
    }

    #[test]
    fn protocol_seed_follows_backbone() {
        let standalone = CellConfig::new(ScenarioParams::scenario1()).with_seed(7);
        assert_eq!(standalone.protocol_seed(), MasterSeed(7));
        let shard = standalone.clone().with_backbone(MasterSeed(99));
        assert_eq!(shard.protocol_seed(), MasterSeed(99));
        assert_eq!(shard.seed, MasterSeed(7), "client streams keep the cell seed");
    }

    #[test]
    fn fault_plan_is_validated() {
        use sw_faults::LossModel;
        let good = CellConfig::new(ScenarioParams::scenario1())
            .with_faults(FaultPlan::none().with_loss(LossModel::bernoulli(0.1)));
        good.validate().unwrap();
        let bad = CellConfig::new(ScenarioParams::scenario1())
            .with_faults(FaultPlan::none().with_loss(LossModel::bernoulli(2.0)));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn coop_requires_backbone() {
        let standalone =
            CellConfig::new(ScenarioParams::scenario1()).with_coop(CoopConfig::default());
        assert!(standalone.validate().is_err());
        let shard = standalone.with_backbone(MasterSeed(5));
        shard.validate().unwrap();
    }

    #[test]
    fn query_zipf_standalone_and_finite() {
        let base = CellConfig::new(ScenarioParams::scenario1());
        base.clone().with_query_zipf(0.8).validate().unwrap();
        assert!(base.clone().with_query_zipf(-1.0).validate().is_err());
        assert!(base.clone().with_query_zipf(f64::NAN).validate().is_err());
        assert!(base
            .with_query_zipf(0.8)
            .with_backbone(MasterSeed(5))
            .validate()
            .is_err());
    }

    #[test]
    fn replacement_builder_applies() {
        let c = CellConfig::new(ScenarioParams::scenario1())
            .with_cache_capacity(8)
            .with_replacement(ReplacementPolicy::WindowAge);
        assert_eq!(c.replacement, ReplacementPolicy::WindowAge);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "hotspot size")]
    fn oversized_hotspot_rejected() {
        let mut p = ScenarioParams::scenario1();
        p.n_items = 10;
        let _ = CellConfig::new(p).with_hotspot_size(11);
    }
}
