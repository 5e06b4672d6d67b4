//! `paper_grid`: regenerating Figure 3 the way a reader of the paper does.

use std::time::{Duration, Instant};

use serde_json::Value;
use sleepers::analysis::throughput::sig_p_nf;
use sleepers::prelude::*;
use sleepers::FleetBackend;
use sw_experiments::figures::{run_figure, FigureResult, FigureSpec, SimSettings};

use crate::assembled;
use crate::cell::{assembled_metrics, sub_seed, REPEATS};
use crate::clock;
use crate::outcome::{OpTimes, Outcome};
use crate::pin::CpuRotation;
use crate::spec::Sizes;
use crate::stats;
use crate::trace::Tracer;

/// The sleep probability of the grid cells the assembled interval and
/// the audit run on: the middle of the figure's three x points.
const MID_S: f64 = 0.5;

const STRATEGIES: [Strategy; 4] = [
    Strategy::BroadcastTimestamps,
    Strategy::AmnesicTerminals,
    Strategy::Signatures,
    Strategy::NoCache,
];

fn settings(seed: u64) -> SimSettings {
    SimSettings {
        seed,
        ..SimSettings::quick()
    }
}

/// `SW_THREADS` is how `run_figure` is told its thread count. Set while
/// the process is still single-threaded.
fn set_runner_threads(n: usize) {
    std::env::set_var("SW_THREADS", n.to_string());
}

/// One regeneration, its wall time in microseconds and its JSON.
fn regenerate(spec: &FigureSpec, sim: SimSettings) -> (FigureResult, f64, String) {
    let t = Instant::now();
    let result = run_figure(spec, sim);
    let us = t.elapsed().as_secs_f64() * 1e6;
    let json = serde_json::to_string(&result).expect("a figure serialises");
    (result, us, json)
}

/// [`regenerate`] with the core's clock probed around it.
fn regenerate_probed(spec: &FigureSpec, sim: SimSettings) -> (FigureResult, (f64, f64), String) {
    let before = clock::probe_us();
    let (result, us, json) = regenerate(spec, sim);
    (result, (us, before.min(clock::probe_us())), json)
}

/// A measured window of regenerations.
struct Window {
    /// `(microseconds, clock probe)` of every regeneration.
    samples: Vec<(f64, f64)>,
    times: OpTimes,
    first: FigureResult,
    /// Regenerations that serialised differently from the first.
    diverging: u64,
}

fn measure(
    spec: &FigureSpec,
    sim: SimSettings,
    counted: u64,
    deadline: Instant,
    rot: &mut CpuRotation,
) -> Window {
    let (first, sample, reference) = regenerate_probed(spec, sim);
    let mut samples = vec![sample];
    let mut diverging = 0;
    while (samples.len() as u64) < counted || Instant::now() < deadline {
        rot.tick();
        let (_, sample, json) = regenerate_probed(spec, sim);
        samples.push(sample);
        diverging += (json != reference) as u64;
    }
    Window {
        times: OpTimes::at_base_clock(&samples),
        samples,
        first,
        diverging,
    }
}

/// Simulated intervals one regeneration measures: cells × intervals.
fn intervals_per_figure(result: &FigureResult, sim: SimSettings) -> f64 {
    result.simulated.len() as f64 * sim.intervals as f64
}

fn note_window(out: &mut Outcome, label: &str, win: &Window, sim: SimSettings) {
    let per = intervals_per_figure(&win.first, sim);
    let (pct, tail) = win.times.tail();
    out.note(format!(
        "{label}: {} regenerations timed, {} at the base clock ({} cells x {} intervals each): p5 {:.1} ms, p50 {:.1} ms, p{pct} {:.1} ms; {:.2} us per simulated interval",
        win.times.count(),
        win.times.kept(),
        win.first.simulated.len(),
        sim.intervals,
        win.times.p05() / 1e3,
        win.times.p50() / 1e3,
        tail / 1e3,
        win.times.p05() / per,
    ));
}

/// A grid cell's configuration, as `run_figure` builds it (the seed is
/// the run's, not the figure's per-cell derivation).
fn grid_cell(spec: &FigureSpec, sim: SimSettings) -> CellConfig {
    let mut base = spec.base;
    base.n_items = base.n_items.min(sim.max_sim_items);
    let params = spec.axis.apply(base, MID_S);
    CellConfig::new(params)
        .with_clients(sim.clients)
        .with_hotspot_size(sim.hotspot.min(params.n_items as usize))
        .with_seed(sim.seed)
}

/// The safety audit on one grid cell per strategy.
fn audit(out: &mut Outcome, spec: &FigureSpec, sim: SimSettings) {
    for strategy in STRATEGIES {
        let cfg = grid_cell(spec, sim).with_safety_checking();
        let mut cell = CellSimulation::new(cfg, strategy).expect("a grid cell constructs");
        let errored = cell.run(sim.intervals).is_err() as u64;
        let safety = cell.report().safety;
        out.attempted += safety.entries_checked + sim.intervals;
        out.failed += safety.violations + errored;
        out.check(
            format!(
                "paper_grid: {} cell audit, {} violations in {} cached entries",
                strategy.name(),
                safety.violations,
                safety.entries_checked
            ),
            errored == 0 && safety.verify(strategy.safety_expectation()).is_ok(),
        );
    }
}

/// The timed leg, at one runner thread. Like the cell workloads it
/// regenerates with [`REPEATS`] seeds derived from `--seed`, a quarter of
/// `--seconds` each, and pools their times. A 6-client cell's work moves
/// by a few per cent with its seed, so the pooled low quantile leans to
/// the lightest of the four; that repeats for a `--seed`, and moves far
/// less from run to run than a quantile of one seed's 40 samples.
pub fn timed(sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    set_runner_threads(1);
    let mut out = Outcome::default();
    let spec = FigureSpec::for_figure(3);
    let mut rot = CpuRotation::new(true);
    let mut setups = Vec::new();
    let mut us_per_interval = Vec::new();
    let (mut events, mut hits, mut report_bits) = (0.0, 0.0, Vec::new());
    let (mut regenerations, mut diverging, mut overflow) = (0, 0, 0);
    for r in 0..REPEATS {
        let sim = settings(sub_seed(seed, r));
        rot.advance();
        // Set-up is a discarded first regeneration: page faults,
        // allocator growth and lazy statics land there.
        setups.push(regenerate(&spec, sim).1 / 1e6);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / REPEATS as f64);
        let win = measure(&spec, sim, sizes.counted, deadline, &mut rot);
        note_window(&mut out, "timed", &win, sim);
        let per = intervals_per_figure(&win.first, sim);
        us_per_interval.extend(win.samples.iter().map(|&(us, probe)| (us / per, probe)));
        regenerations += win.times.count() as u64;
        diverging += win.diverging;
        for p in &win.first.simulated {
            overflow += p.overflow_exchanges;
            report_bits.push(p.report_bits);
            // A cell that never woke (s = 1) posed no query and has no ratio.
            if p.query_events > 0 {
                events += p.query_events as f64;
                hits += p.hit_ratio * p.query_events as f64;
            }
        }
    }
    drop(rot);
    let peak_rss_mib = stats::peak_rss_mib();
    out.attempted += regenerations;
    out.failed += diverging;
    out.check(
        format!(
            "paper_grid: all {regenerations} regenerations serialise identically, seed by seed"
        ),
        diverging == 0,
    );
    out.check(
        format!("paper_grid: overflow_exchanges == 0 (saw {overflow})"),
        overflow == 0,
    );
    audit(&mut out, &spec, settings(sub_seed(seed, 0)));

    out.end_to_end(
        &setups,
        OpTimes::at_base_clock(&us_per_interval).p05(),
        peak_rss_mib,
        hits / events.max(1.0),
        stats::mean(&report_bits),
    );
    out
}

/// The committed reference result, next to the benchmark's own
/// directory in the checkout.
fn committed_fig3() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig3.json");
    let text = std::fs::read_to_string(path).expect("results/fig3.json is committed");
    serde_json::from_str(&text).expect("results/fig3.json parses")
}

/// Regenerates Figure 3 at the default settings and the figure's own
/// seed, checks its simulated points against `results/fig3.json`, and
/// returns max |simulated h − closed-form h| over them.
fn reference_figure(out: &mut Outcome, spec: &FigureSpec) -> f64 {
    let fresh = run_figure(spec, SimSettings::default());
    let fresh_json: Value =
        serde_json::from_str(&serde_json::to_string(&fresh).expect("a figure serialises"))
            .expect("and parses back");
    out.check(
        "paper_grid: default-settings Figure 3 reproduces the simulated points of results/fig3.json exactly",
        fresh_json.get("simulated") == committed_fig3().get("simulated"),
    );
    fresh
        .simulated
        .iter()
        .filter(|p| !p.unusable && p.query_events > 0)
        .filter_map(|p| {
            let params = spec.axis.apply(spec.base, p.x);
            let closed = match p.strategy.as_str() {
                "TS" => h_ts_estimate(&params),
                "AT" => h_at(&params),
                "SIG" => h_sig(&params, sig_p_nf(&params)),
                _ => return None,
            };
            Some((p.hit_ratio - closed).abs())
        })
        .fold(0.0, f64::max)
}

/// The traced leg.
pub fn traced(sizes: Sizes, seed: u64, seconds: f64, smoke: bool) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let spec = FigureSpec::for_figure(3);
    let sim = settings(sub_seed(seed, 0));

    // Two runner threads against one, a third of `seconds` each and
    // neither pinned; the timed leg stays at one.
    let share = Duration::from_secs_f64(seconds / 3.0);
    let mut off = CpuRotation::new(false);
    set_runner_threads(2);
    regenerate(&spec, sim);
    let two = measure(&spec, sim, sizes.counted, Instant::now() + share, &mut off);
    note_window(&mut out, "2 runner threads", &two, sim);
    set_runner_threads(1);
    regenerate(&spec, sim);
    let one = measure(&spec, sim, sizes.counted, Instant::now() + share, &mut off);
    note_window(&mut out, "1 runner thread", &one, sim);
    out.check(
        "paper_grid: 1 and 2 runner threads serialise identically",
        serde_json::to_string(&one.first).ok() == serde_json::to_string(&two.first).ok()
            && one.diverging + two.diverging == 0,
    );
    out.attempted += (one.times.count() + two.times.count()) as u64;
    out.failed += one.diverging + two.diverging;

    // The reference figure is the slow part (1500 intervals a cell); the
    // smoke run checks everything else.
    let abs_err = if smoke {
        0.0
    } else {
        reference_figure(&mut out, &spec)
    };

    // One grid cell per strategy: the real cell untraced, then with
    // spans around it and the audit on, then the assembled interval
    // against a boxed-units cell.
    let mut tr = Tracer::new(true);
    let mut asm_tr = Tracer::new(true);
    let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
    let (mut new_s, mut warm_s) = (0.0, 0.0);
    let warm = sim.intervals / 4;
    for strategy in STRATEGIES {
        let cfg = grid_cell(&spec, sim);
        let mut plain = CellSimulation::new(cfg.clone(), strategy).expect("a grid cell constructs");
        plain.run(warm).expect("warm-up runs");
        for _ in 0..sim.intervals {
            let t = Instant::now();
            plain.step().expect("a grid cell steps");
            plain_us.push(t.elapsed().as_secs_f64() * 1e6);
        }

        tr.set_interval(0);
        tr.enter("core.new");
        let t = Instant::now();
        let mut cell = CellSimulation::new(cfg.clone().with_safety_checking(), strategy)
            .expect("a grid cell constructs");
        new_s += t.elapsed().as_secs_f64();
        tr.exit();
        tr.enter("core.warmup");
        let t = Instant::now();
        cell.run(warm).expect("warm-up runs");
        cell.reset_metrics();
        warm_s += t.elapsed().as_secs_f64();
        tr.exit();
        for op in 0..sim.intervals {
            tr.set_interval(op);
            tr.enter("core.step");
            let t = Instant::now();
            cell.step().expect("a grid cell steps");
            traced_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.exit();
        }
        let safety = cell.report().safety;
        out.attempted += safety.entries_checked + sim.intervals;
        out.failed += safety.violations;
        out.check(
            format!(
                "paper_grid: {} cell, {} violations in {} audited entries",
                strategy.name(),
                safety.violations,
                safety.entries_checked
            ),
            safety.verify(strategy.safety_expectation()).is_ok(),
        );

        let asm = assembled::run(&cfg, strategy, warm, sim.intervals, false, &mut asm_tr);
        let mut units = CellSimulation::new(cfg.with_fleet(FleetBackend::Units), strategy)
            .expect("a grid cell constructs");
        let report = units
            .run_measured(warm, sim.intervals)
            .expect("a grid cell runs");
        out.check(
            format!("paper_grid: {} assembled interval matches a FleetBackend::Units cell on (queries, hits, misses) = {asm:?}", strategy.name()),
            (asm.queries, asm.hits, asm.misses) == (report.queries_posed, report.hit_events, report.miss_events),
        );
    }

    let steps = OpTimes::new(&plain_us);
    let cells = STRATEGIES.len() as f64;
    let cell_intervals = STRATEGIES.len() as u64 * sim.intervals;
    out.metric("core.step.p50_us", steps.p50(), "us");
    out.metric("core.step.p99_us", steps.tail().1, "us");
    out.metric("core.new.s", new_s / cells, "s");
    out.metric("core.warmup.s", warm_s / cells, "s");
    out.metric(
        "sim.runner.speedup_2t",
        one.times.p05() / two.times.p05(),
        "ratio",
    );
    out.metric("analysis.hit_ratio_abs_err", abs_err, "fraction");
    let points = &one.first.simulated;
    out.metric(
        "wireless.report_bytes",
        points.iter().map(|p| p.report_bits).sum::<f64>() / points.len() as f64 / 8.0,
        "bytes",
    );
    let asm_us = assembled_metrics(&mut out, &asm_tr, cell_intervals);
    out.metric("assembled.vs_step", asm_us / steps.mean(), "ratio");
    out.metric(
        "trace.overhead_frac",
        OpTimes::new(&traced_us).mean() / steps.mean() - 1.0,
        "fraction",
    );
    tr.absorb(asm_tr);
    (out, tr)
}
