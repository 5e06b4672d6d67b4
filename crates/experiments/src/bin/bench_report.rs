//! Machine-readable performance report (`BENCH_report.json`).
//!
//! Wall-clock measurements of the cell driver:
//!
//! 1. **Figure grid**: the Figure-3 sweep grid (x × strategy cells)
//!    through [`ParallelRunner`] at 1 thread vs all available threads.
//!    Cells are independent and identically seeded either way (the
//!    determinism tests pin byte-identical output), so the speedup is
//!    the runner's parallel efficiency × available cores.
//! 2. **Per-interval loop**: the cell driver (columnar struct-of-arrays
//!    fleet, wake-run scheduling, zero-copy report charge) swept over
//!    the sleep probability `s`, on a channel wide enough never to
//!    defer an exchange, warm-up discarded. (The comparison against a
//!    re-creation of the seed-era loop that used to run beside it is
//!    recorded in CHANGES.md, PRs 1 and 6; `benchmark/` gates
//!    regressions now.)
//! 3. **Bounded caches**: the same cell with capacity clamped to half
//!    the hot spot, against the unbounded run.
//! 4. **Scale runs**: the columnar sweep at 100k and 1M clients in one
//!    cell, timed at 1 sweep thread vs all available — the intra-cell
//!    parallel speedup.
//!
//! Usage: `cargo run --release -p sw-experiments --bin bench_report`.
//! Knobs: `SW_BENCH_INTERVALS` / `SW_BENCH_WARMUP` /
//! `SW_BENCH_CLIENTS` / `SW_BENCH_LAMBDA_SCALE`.

use std::time::Instant;

use sleepers::client::ReplacementPolicy;
use sleepers::prelude::*;
use sw_experiments::figures::{run_figure, FigureSpec, SimSettings};

const CLIENTS: usize = 1_000;
const N_ITEMS: u64 = 2_000;
/// Per-client hot spot (≈ steady-state cache size).
const HOTSPOT: usize = 30;
/// Swept sleep probabilities: workaholic cell → paper's sleeper cell.
const SLEEPS: [f64; 3] = [0.5, 0.9, 0.99];
const SEED: u64 = 11;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn client_count() -> usize {
    env_u64("SW_BENCH_CLIENTS", CLIENTS as u64) as usize
}

fn horizon_intervals() -> u64 {
    env_u64("SW_BENCH_INTERVALS", 400)
}

/// Unmeasured intervals discarded before timing/counting starts. Long
/// enough that every client has been awake, filled its hot spot, and
/// settled into the TS steady state.
fn warmup_intervals() -> u64 {
    env_u64("SW_BENCH_WARMUP", 120)
}

fn bench_params(sleep_s: f64) -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.n_items = N_ITEMS;
    // Wide-open channel: the cold-start fetch burst (≈ awake clients ×
    // hot-spot items exchanges) must clear within its own interval, so
    // the channel never defers an exchange and the timing measures the
    // driver, not a queue draining.
    p.bandwidth_bps *= 2_048;
    if let Ok(scale) = std::env::var("SW_BENCH_LAMBDA_SCALE") {
        p.lambda *= scale.parse::<f64>().unwrap_or(1.0);
    }
    p.with_s(sleep_s)
}

/// The per-interval loop: the real cell driver (columnar fleet
/// auto-selected for this TS configuration). Warm-up intervals are run
/// and discarded, then the measured horizon is timed; returns seconds,
/// hit ratio and queries posed. With
/// `SW_OBSERVE=1` (and the `observe` cargo feature) the run also
/// records a per-interval series and writes it next to the JSON
/// report — the timing then deliberately includes the recorder, which
/// is how observation overhead itself gets measured.
fn run_current(sleep_s: f64, warmup: u64, intervals: u64) -> (f64, f64, u64) {
    let mut cfg = CellConfig::new(bench_params(sleep_s))
        .with_clients(client_count())
        .with_hotspot_size(HOTSPOT)
        .with_seed(SEED);
    if std::env::var("SW_OBSERVE").is_ok() {
        cfg = cfg.with_observe(format!("bench:s={sleep_s}"));
    }
    let mut sim =
        CellSimulation::new(cfg, Strategy::BroadcastTimestamps).expect("bench cell constructs");
    sim.run(warmup).expect("bench warmup runs");
    sim.reset_metrics();
    let start = Instant::now();
    let report = sim.run(intervals).expect("bench cell runs");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        report.overflow_exchanges, 0,
        "the bench channel must never defer an exchange (s={sleep_s}); \
         widen the bandwidth headroom"
    );
    if let Some(snap) = &report.observe {
        match sw_experiments::results::write_text(
            &format!("BENCH_series_s{sleep_s}.csv"),
            &snap.series_csv(),
        ) {
            Ok(f) => eprintln!("wrote {}", f.display()),
            Err(e) => eprintln!("could not write bench series: {e}"),
        }
    }
    (secs, report.hit_ratio(), report.queries_posed)
}

/// The bounded-cache leg: the same columnar TS cell as `run_current`,
/// but with capacity clamped to half the hot spot, timed per interval.
/// Compared against the unbounded run it isolates what capacity
/// enforcement — victim ranking at every install plus the ghost
/// table — costs on the columnar hot path. `None` runs the unbounded
/// baseline through the identical code path for a fair denominator.
fn run_bounded(
    bound: Option<(usize, ReplacementPolicy)>,
    warmup: u64,
    intervals: u64,
) -> (f64, f64, u64) {
    let mut cfg = CellConfig::new(bench_params(0.5))
        .with_clients(client_count())
        .with_hotspot_size(HOTSPOT)
        .with_seed(SEED);
    if let Some((cap, policy)) = bound {
        cfg = cfg.with_cache_capacity(cap).with_replacement(policy);
    }
    let mut sim =
        CellSimulation::new(cfg, Strategy::BroadcastTimestamps).expect("bounded cell constructs");
    assert!(
        sim.is_columnar(),
        "the bounded bench must exercise the columnar fleet"
    );
    sim.run(warmup).expect("bounded warmup runs");
    sim.reset_metrics();
    let start = Instant::now();
    let report = sim.run(intervals).expect("bounded cell runs");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.overflow_exchanges, 0, "bounded channel saturated");
    (
        secs / intervals as f64 * 1e6,
        report.hit_ratio(),
        report.capacity.evictions,
    )
}

/// Columnar sweep at fleet scale: one cell, `clients` units, timed per
/// interval at a given sweep-thread count. Bandwidth and query rate
/// scale with the fleet so the per-client workload shape is preserved
/// without the channel deferring exchanges.
fn run_at_scale(clients: usize, threads: usize, warmup: u64, intervals: u64) -> (f64, f64) {
    let mut params = bench_params(0.5);
    params.bandwidth_bps *= (clients as u64 / 1_000).max(1);
    // Tame the raw query volume (λ·H·L = 30 per awake client-interval
    // at scenario-1 rates): the scale runs measure fleet-sweep
    // throughput, not query generation.
    params.lambda *= if clients >= 1_000_000 { 0.05 } else { 0.1 };
    let cfg = CellConfig::new(params)
        .with_clients(clients)
        .with_hotspot_size(HOTSPOT)
        .with_seed(SEED)
        .with_sweep_threads(threads);
    let mut sim =
        CellSimulation::new(cfg, Strategy::BroadcastTimestamps).expect("scale cell constructs");
    sim.run(warmup).expect("scale warmup runs");
    sim.reset_metrics();
    let start = Instant::now();
    let report = sim.run(intervals).expect("scale cell runs");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.overflow_exchanges, 0, "scale channel saturated");
    (secs / intervals as f64 * 1e6, report.hit_ratio())
}

fn time_figure_grid(threads: &str) -> (f64, usize) {
    std::env::set_var("SW_THREADS", threads);
    let spec = FigureSpec::for_figure(3);
    let start = Instant::now();
    let result = run_figure(&spec, SimSettings::quick());
    let secs = start.elapsed().as_secs_f64();
    std::env::remove_var("SW_THREADS");
    (secs, result.simulated.len())
}

/// The short git revision the binary is benchmarked at, `"unknown"`
/// outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run metadata stamped into both artifacts: a bench number is only
/// interpretable against the host's core count, the revision it ran
/// at, and which instrumentation features were compiled in.
fn run_metadata(auto_threads: usize) -> serde_json::Value {
    let mut features = Vec::new();
    if cfg!(feature = "observe") {
        features.push("observe");
    }
    if cfg!(feature = "faults") {
        features.push("faults");
    }
    serde_json::json!({
        "available_parallelism": auto_threads,
        "git_rev": git_rev(),
        "features": features,
        "profile": if cfg!(debug_assertions) { "dev" } else { "release" },
    })
}

fn main() {
    let intervals = horizon_intervals();
    let warmup = warmup_intervals();
    let auto_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("figure grid (fig 3, quick settings), 1 thread ...");
    let (grid_1, cells) = time_figure_grid("1");
    eprintln!("figure grid, {auto_threads} thread(s) ...");
    let (grid_auto, _) = time_figure_grid(&auto_threads.to_string());

    let mut sweep = Vec::new();
    for s in SLEEPS {
        eprintln!("per-interval loop at s={s}, {warmup}+{intervals} intervals ...");
        let (secs, hit_ratio, queries) = run_current(s, warmup, intervals);
        sweep.push(serde_json::json!({
            "sleep_probability": s,
            "us_per_interval": secs / intervals as f64 * 1e6,
            "hit_ratio": hit_ratio,
            "queries": queries,
        }));
    }

    eprintln!("bounded-cache leg: unbounded baseline, {warmup}+{intervals} intervals ...");
    let (base_us, base_hit, _) = run_bounded(None, warmup, intervals);
    let mut bounded = Vec::new();
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::WindowAge] {
        let cap = HOTSPOT / 2;
        eprintln!("bounded-cache leg: capacity {cap}, {} ...", policy.name());
        let (us, hit, evictions) = run_bounded(Some((cap, policy)), warmup, intervals);
        bounded.push(serde_json::json!({
            "policy": policy.name(),
            "capacity": cap,
            "us_per_interval": us,
            "enforcement_overhead": us / base_us,
            "hit_ratio": hit,
            "evictions": evictions,
        }));
    }

    let mut scale = Vec::new();
    for &clients in &[100_000usize, 1_000_000] {
        let (scale_warmup, scale_intervals) = if clients >= 1_000_000 {
            (5u64, 10u64)
        } else {
            (10, 20)
        };
        eprintln!("scale run: {clients} clients, 1 sweep thread ...");
        let (us_1, hit) = run_at_scale(clients, 1, scale_warmup, scale_intervals);
        // On a single-core host the "all threads" leg is the identical
        // configuration; rerunning it would report run-to-run variance
        // as a parallel speedup.
        let us_auto = if auto_threads > 1 {
            eprintln!("scale run: {clients} clients, {auto_threads} sweep thread(s) ...");
            run_at_scale(clients, auto_threads, scale_warmup, scale_intervals).0
        } else {
            us_1
        };
        scale.push(serde_json::json!({
            "clients": clients,
            "intervals": scale_intervals,
            "threads_1_us_per_interval": us_1,
            "threads_auto": auto_threads,
            "threads_auto_us_per_interval": us_auto,
            "parallel_speedup": us_1 / us_auto,
            "hit_ratio": hit,
        }));
    }

    let report = serde_json::json!({
        "host": run_metadata(auto_threads),
        "figure_grid": serde_json::json!({
            "figure": 3,
            "cells": cells,
            "threads_1_secs": grid_1,
            "threads_auto": auto_threads,
            "threads_auto_secs": grid_auto,
            "multi_thread_speedup": grid_1 / grid_auto,
            "note": "cells are independent and deterministically seeded; speedup \
                     tracks available cores (≈1.0 on a 1-core host by construction)",
        }),
        "per_interval": serde_json::json!({
            "strategy": "TS",
            "clients": client_count(),
            "n_items": N_ITEMS,
            "warmup_intervals": warmup,
            "intervals": intervals,
            "sweep": serde_json::Value::Array(sweep),
            "note": "the cell driver on a channel wide enough never to defer an \
                     exchange (asserted), warm-up intervals discarded",
        }),
        "bounded": serde_json::json!({
            "strategy": "TS",
            "sleep_probability": 0.5,
            "clients": client_count(),
            "hotspot": HOTSPOT,
            "unbounded_us_per_interval": base_us,
            "unbounded_hit_ratio": base_hit,
            "runs": serde_json::Value::Array(bounded),
            "note": "capacity clamped to half the hot spot on the columnar TS \
                     cell; enforcement_overhead is bounded-vs-unbounded wall \
                     clock through the identical driver — victim ranking and \
                     ghost bookkeeping plus the extra uplink exchanges the \
                     halved hit ratio genuinely costs. The zero-cost claim for \
                     the *unbounded* path is pinned separately by hot_guard",
        }),
        "scale": serde_json::json!({
            "strategy": "TS",
            "sleep_probability": 0.5,
            "n_items": N_ITEMS,
            "runs": serde_json::Value::Array(scale),
            "note": "columnar intra-cell sweep at fleet scale; parallel speedup \
                     tracks available cores (exactly 1.0 on a 1-core host, where \
                     the all-threads leg is the same configuration and is not \
                     rerun — the chunked sweep is byte-identical at any thread \
                     count, so the figure is the headroom, not a simulation \
                     change)",
        }),
        "microbenches": "cargo bench -p sw-bench --bench hot_paths",
    });
    let path = "BENCH_report.json";
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serializes"))
        .expect("writes BENCH_report.json");
    println!("{}", serde_json::to_string_pretty(&report).expect("serializes"));
    println!("wrote {path}");
}
