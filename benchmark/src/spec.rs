//! The workloads: their names, sizes, reasons and cell configurations.

use sleepers::prelude::*;
use sleepers::WakeMode;

/// Hot-spot size of every cell workload (≈ the steady-state cache size).
pub const HOTSPOT: usize = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WorkaholicTs,
    SleeperSig,
    AtChurn,
    BoxedQueryBounded,
    LiveLockstepTs,
    PaperGrid,
}

/// How big one run of a workload is. An *op* is one simulated interval
/// (cell workloads), one lockstep tick (live) or one regenerated figure
/// (paper grid).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Simulated clients (cell workloads) or live MUs.
    pub clients: usize,
    /// Ops run and discarded before measuring, so caches are full.
    pub warm: u64,
    /// Ops in the counted window: the prefix of each measured window (a
    /// timed leg has `cell::REPEATS` of them, one per cell) over which
    /// the simulated-time counters are taken. Fixed, so the counters
    /// repeat bit for bit however many more ops fit into `--seconds`.
    pub counted: u64,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WorkaholicTs,
        Workload::SleeperSig,
        Workload::AtChurn,
        Workload::BoxedQueryBounded,
        Workload::LiveLockstepTs,
        Workload::PaperGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WorkaholicTs => "workaholic_ts",
            Workload::SleeperSig => "sleeper_sig",
            Workload::AtChurn => "at_churn",
            Workload::BoxedQueryBounded => "boxed_query_bounded",
            Workload::LiveLockstepTs => "live_lockstep_ts",
            Workload::PaperGrid => "paper_grid",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — which layers it loads and which it
    /// bypasses. `BENCHMARK.json` carries the same text.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WorkaholicTs => "TS, s=0.1, columnar fleet, scan wake, 2 sweep threads: nearly every unit is awake and hits (h~0.99), so report sweep and query generation do the work and the server almost none",
            Workload::SleeperSig => "SIG, s=0.98, heap wake: the paper's sleeper regime; ~100 of 5000 units wake per interval, each paying a syndrome decode and a cache refill, and 4900 sleepers must cost nothing",
            Workload::AtChurn => "AT, mu=lambda=0.1, s=0.2: the cache is written (invalidated, installed) far more than read; invalidation and uplink exchanges do the work, so a read-path gain that taxes writes shows as a loss",
            Workload::BoxedQueryBounded => "TS with query plane, capacity 24 of 30 LRU, Zipf 0.8: forces boxed MobileUnits, the only workload that runs client/handler.rs, cache eviction, victim_key and sw-query",
            Workload::LiveLockstepTs => "live stack over loopback, lockstep, 2 MUs, ~25 KB TS report: the only workload that seals, sends, opens and decodes a report and pays uplink round trips",
            Workload::PaperGrid => "run_figure(Figure 3, quick) at 1 thread: what a reader reproducing the paper runs; 12 tiny cells where per-step overhead and CellSimulation::new dominate, fleet kernels idle",
        }
    }

    /// Final sizes on the 2-vCPU reference host; `--smoke` divides the
    /// fleet and the windows by about fifty.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let (clients, warm, counted) = match self {
            Workload::WorkaholicTs => (10_000, 60, 150),
            Workload::SleeperSig => (5_000, 200, 100),
            Workload::AtChurn => (5_000, 60, 25),
            Workload::BoxedQueryBounded => (400, 120, 400),
            Workload::LiveLockstepTs => (2, 200, 1_000),
            Workload::PaperGrid => (6, 1, 5),
        };
        if !smoke {
            return Sizes {
                clients,
                warm,
                counted,
            };
        }
        match self {
            // Two MUs and one figure are already the smallest shape.
            Workload::LiveLockstepTs => Sizes {
                clients,
                warm: 10,
                counted: 40,
            },
            Workload::PaperGrid => Sizes {
                clients,
                warm: 1,
                counted: 2,
            },
            _ => Sizes {
                clients: clients / 50,
                warm: warm / 4,
                counted: 8,
            },
        }
    }

    /// Whether the workload runs on one thread, so that the measuring
    /// thread can be moved between CPUs (`crate::pin`). The sweep threads
    /// of `workaholic_ts` would inherit a pin and share one CPU; the live
    /// session is a server and two MUs.
    pub fn single_threaded(self) -> bool {
        !matches!(self, Workload::WorkaholicTs | Workload::LiveLockstepTs)
    }

    /// The strategy on the air (the paper grid runs all four).
    pub fn strategy(self) -> Strategy {
        match self {
            Workload::SleeperSig => Strategy::Signatures,
            Workload::AtChurn => Strategy::AmnesicTerminals,
            _ => Strategy::BroadcastTimestamps,
        }
    }

    /// The cell configuration (cell and live workloads). The channel is
    /// widened until no exchange is ever deferred, so the uplink queue
    /// plays no part and the assembled interval, which has no queue, sees
    /// the same install schedule.
    pub fn cell_config(self, seed: u64, clients: usize) -> CellConfig {
        let widen = |p: &mut ScenarioParams| {
            p.bandwidth_bps *= 2_048 * (clients as u64).div_ceil(1_000);
        };
        let config = |p: ScenarioParams| {
            CellConfig::new(p)
                .with_clients(clients)
                .with_hotspot_size(HOTSPOT)
                .with_seed(seed)
        };
        match self {
            Workload::WorkaholicTs => {
                let mut p = ScenarioParams::scenario1().with_s(0.1);
                p.n_items = 2_000;
                p.lambda *= 0.1;
                widen(&mut p);
                config(p)
                    .with_wake_mode(WakeMode::Scan)
                    .with_sweep_threads(2)
            }
            Workload::SleeperSig => {
                let mut p = ScenarioParams::scenario1().with_s(0.98);
                widen(&mut p);
                config(p)
                    .with_wake_mode(WakeMode::Heap)
                    .with_sweep_threads(1)
            }
            Workload::AtChurn => {
                let mut p = ScenarioParams::scenario3().with_s(0.2);
                widen(&mut p);
                config(p).with_sweep_threads(1)
            }
            Workload::BoxedQueryBounded => {
                let mut p = ScenarioParams::scenario1().with_s(0.5);
                p.n_items = 2_000;
                widen(&mut p);
                config(p)
                    .with_sweep_threads(1)
                    .with_query(QueryPlaneConfig::new())
                    .with_cache_capacity(24)
                    .with_replacement(ReplacementPolicy::Lru)
                    .with_query_zipf(0.8)
            }
            Workload::LiveLockstepTs => {
                // mu = 5e-4 over the w = kL = 1000 s window marks ~390
                // of 1000 items: a ~25 KB sealed report, well inside one
                // UDP datagram. The simulated twin charges that report
                // to its channel, so the channel is widened here too.
                let mut p = ScenarioParams::scenario1().with_s(0.1).with_mu(5e-4);
                widen(&mut p);
                config(p).with_sweep_threads(1)
            }
            Workload::PaperGrid => unreachable!("the paper grid builds its cells in run_figure"),
        }
    }
}

/// One metric of `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [MetricSpec; 6] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
    },
    MetricSpec {
        name: "interval_us_p05",
        unit: "us",
    },
    MetricSpec {
        name: "peak_rss_mb",
        unit: "MiB",
    },
    MetricSpec {
        name: "hit_ratio",
        unit: "fraction",
    },
    MetricSpec {
        name: "report_bits_per_interval",
        unit: "bits",
    },
    MetricSpec {
        name: "fresh_share",
        unit: "fraction",
    },
];

/// The end-to-end metrics counted in simulated time: two runs of one
/// build with one seed must agree on them exactly.
pub const SIMULATED: [&str; 3] = ["hit_ratio", "report_bits_per_interval", "fresh_share"];

/// The span names whose self time (`<name>.us`, per interval) and call
/// count (`<name>.calls`, per interval) are per-layer metrics.
pub const SPAN_LAYERS: [&str; 8] = [
    "client.query_gen",
    "client.sleep_draw",
    "client.report_apply",
    "client.install",
    "server.uplink_answer",
    "wireless.channel_charge",
    "server.update_apply",
    "query.plane",
];

/// The per-layer metrics that are not a `<span>.us` / `<span>.calls`
/// pair, with their units.
pub const PER_LAYER_SCALARS: [MetricSpec; 41] = [
    MetricSpec {
        name: "core.step.p50_us",
        unit: "us",
    },
    MetricSpec {
        name: "core.step.p99_us",
        unit: "us",
    },
    MetricSpec {
        name: "core.step.us_per_awake_client",
        unit: "us",
    },
    MetricSpec {
        name: "core.awake_per_interval",
        unit: "count",
    },
    MetricSpec {
        name: "core.uplinks_per_interval",
        unit: "count",
    },
    MetricSpec {
        name: "core.overflow_exchanges",
        unit: "count",
    },
    MetricSpec {
        name: "core.sweep.speedup_2t",
        unit: "ratio",
    },
    MetricSpec {
        name: "core.new.s",
        unit: "s",
    },
    MetricSpec {
        name: "core.warmup.s",
        unit: "s",
    },
    MetricSpec {
        name: "workload.hotspot_draw.us",
        unit: "us",
    },
    MetricSpec {
        name: "client.invalidations_per_interval",
        unit: "count",
    },
    MetricSpec {
        name: "client.cache_drops_per_interval",
        unit: "count",
    },
    MetricSpec {
        name: "server.log_prune.us",
        unit: "us",
    },
    MetricSpec {
        name: "server.report_build.us",
        unit: "us",
    },
    MetricSpec {
        name: "capacity.evictions_per_interval",
        unit: "count",
    },
    MetricSpec {
        name: "capacity.miss_share",
        unit: "fraction",
    },
    MetricSpec {
        name: "query.hit_ratio",
        unit: "fraction",
    },
    MetricSpec {
        name: "query.abort_ratio",
        unit: "fraction",
    },
    MetricSpec {
        name: "wireless.frame_encode.us",
        unit: "us",
    },
    MetricSpec {
        name: "wireless.frame_decode.us",
        unit: "us",
    },
    MetricSpec {
        name: "wireless.report_bytes",
        unit: "bytes",
    },
    MetricSpec {
        name: "live.tick.p50_us",
        unit: "us",
    },
    MetricSpec {
        name: "live.tick.p99_us",
        unit: "us",
    },
    MetricSpec {
        name: "live.report_wait.us",
        unit: "us",
    },
    MetricSpec {
        name: "live.mu_apply.us",
        unit: "us",
    },
    MetricSpec {
        name: "live.uplink_rtt.p50_us",
        unit: "us",
    },
    MetricSpec {
        name: "live.uplink_rtt.p99_us",
        unit: "us",
    },
    MetricSpec {
        name: "live.uplink_rtt.calls",
        unit: "count",
    },
    MetricSpec {
        name: "live.done_barrier.us",
        unit: "us",
    },
    MetricSpec {
        name: "sim.runner.speedup_2t",
        unit: "ratio",
    },
    MetricSpec {
        name: "analysis.hit_ratio_abs_err",
        unit: "fraction",
    },
    MetricSpec {
        name: "assembled.interval.us",
        unit: "us",
    },
    MetricSpec {
        name: "assembled.vs_step",
        unit: "ratio",
    },
    MetricSpec {
        name: "check.stale_share",
        unit: "fraction",
    },
    MetricSpec {
        name: "check.ops_checked",
        unit: "count",
    },
    MetricSpec {
        name: "host.wall_s",
        unit: "s",
    },
    MetricSpec {
        name: "host.cpu_s",
        unit: "s",
    },
    MetricSpec {
        name: "host.cpu_per_wall",
        unit: "ratio",
    },
    MetricSpec {
        name: "trace.overhead_frac",
        unit: "fraction",
    },
    MetricSpec {
        name: "trace.spans_recorded",
        unit: "count",
    },
    MetricSpec {
        name: "trace.spans_written",
        unit: "count",
    },
];

/// Every per-layer metric name with its unit, scalars first.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_SCALARS
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    for span in SPAN_LAYERS {
        all.push((format!("{span}.us"), "us"));
        all.push((format!("{span}.calls"), "count"));
    }
    all
}
