//! The four single-cell workloads: timed leg, audit, and traced leg.

use std::time::{Duration, Instant};

use sleepers::prelude::*;
use sleepers::wireless::FrameKind;
use sleepers::FleetBackend;

use crate::assembled;
use crate::clock;
use crate::outcome::{OpTimes, Outcome};
use crate::pin::CpuRotation;
use crate::spec::{Sizes, Workload};
use crate::stats;
use crate::trace::Tracer;

/// Cells a timed leg builds, one after another. Each has its own seed
/// derived from `--seed`, is set up on the other CPU than the one before,
/// and is measured for a quarter of `--seconds`: `setup_s` is the median
/// of the set-ups, and the simulated-time metrics are sums over four
/// independent update streams, which moves them far less from seed to
/// seed than one stream four times as long.
pub const REPEATS: usize = 4;

/// The seed of a run's `r`-th cell. Runs with different `--seed` share
/// no cell.
pub fn sub_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(REPEATS as u64).wrapping_add(r as u64)
}

/// The assembled interval and the audit run on a sub-fleet of at most
/// this many units: the same code paths at a tenth of the cost.
const SUB_FLEET: usize = 1_000;

/// The simulated-time counters of a counted window. They repeat bit for
/// bit for a seed, on any host and at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub ops: u64,
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub drops: u64,
    pub report_bits: u64,
}

impl Counters {
    pub fn of(report: &SimulationReport) -> Self {
        Counters {
            ops: report.intervals,
            queries: report.queries_posed,
            hits: report.hit_events,
            misses: report.miss_events,
            invalidations: report.items_invalidated,
            drops: report.cache_drops,
            report_bits: report.report_bits_total,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.ops += other.ops;
        self.queries += other.queries;
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.drops += other.drops;
        self.report_bits += other.report_bits;
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    pub fn report_bits_per_interval(&self) -> f64 {
        self.report_bits as f64 / self.ops.max(1) as f64
    }
}

/// Builds the cell and runs its warm-up; returns it with metrics reset
/// and the seconds construction and warm-up took.
fn set_up(cfg: &CellConfig, strategy: Strategy, warm: u64) -> (CellSimulation, f64, f64) {
    let t = Instant::now();
    let mut cell =
        CellSimulation::new(cfg.clone(), strategy).expect("the workload's cell constructs");
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..warm {
        cell.step().expect("warm-up steps");
    }
    cell.reset_metrics();
    (cell, new_s, t.elapsed().as_secs_f64())
}

/// A measured window of one cell.
struct Window {
    /// `(microseconds, clock probe)` of every step.
    samples: Vec<(f64, f64)>,
    /// Counters at the end of the counted prefix.
    counters: Counters,
    /// The cell's report at the end of the counted prefix.
    report: SimulationReport,
    errored_steps: u64,
}

/// Steps `cell` for at least `counted` ops and until `deadline`, timing
/// every step and probing the core's clock around it. `tr` gets one
/// `core.step` span per op.
fn measure(
    cell: &mut CellSimulation,
    counted: u64,
    deadline: Instant,
    rot: &mut CpuRotation,
    tr: &mut Tracer,
) -> Window {
    let mut samples = Vec::new();
    let mut at_counted = None;
    let mut errored_steps = 0;
    loop {
        let op = samples.len() as u64;
        rot.tick();
        let before = clock::probe_us();
        tr.set_interval(op);
        tr.enter("core.step");
        let t = Instant::now();
        let stepped = cell.step();
        let us = t.elapsed().as_secs_f64() * 1e6;
        tr.exit();
        samples.push((us, before.min(clock::probe_us())));
        if let Err(e) = stepped {
            eprintln!("step {op} failed: {e}");
            errored_steps += 1;
            break;
        }
        if op + 1 == counted {
            at_counted = Some(cell.report());
        }
        if op + 1 >= counted && Instant::now() >= deadline {
            break;
        }
    }
    let report = at_counted.unwrap_or_else(|| cell.report());
    Window {
        samples,
        counters: Counters::of(&report),
        report,
        errored_steps,
    }
}

/// The channel must never have deferred an exchange: the workloads
/// measure the fleet and the server, not the uplink queue.
fn check_channel(out: &mut Outcome, w: Workload, overflow_exchanges: u64) {
    out.check(
        format!(
            "{}: overflow_exchanges == 0 (saw {overflow_exchanges}); widen the channel in spec.rs if not",
            w.name(),
        ),
        overflow_exchanges == 0,
    );
}

/// The safety audit: the same configuration on a sub-fleet with
/// `with_safety_checking()`, every cached entry compared with the item's
/// value history after every interval. Feeds `attempted` / `failed`.
pub fn audit(out: &mut Outcome, w: Workload, sizes: Sizes, seed: u64) {
    let clients = sizes.clients.min(SUB_FLEET);
    let cfg = w.cell_config(seed, clients).with_safety_checking();
    let (mut cell, _, _) = set_up(&cfg, w.strategy(), sizes.warm);
    let ops = sizes.counted.min(100);
    let mut errored = 0;
    for _ in 0..ops {
        // A never-stale strategy aborts the step at its first violation.
        if cell.step().is_err() {
            errored += 1;
            break;
        }
    }
    let safety = cell.report().safety;
    out.attempted += safety.entries_checked + ops;
    out.failed += safety.violations + errored;
    out.check(
        format!(
            "{}: safety audit over {} cached entries on {clients} units: {} violations, within {:?}",
            w.name(),
            safety.entries_checked,
            safety.violations,
            w.strategy().safety_expectation()
        ),
        errored == 0 && safety.verify(w.strategy().safety_expectation()).is_ok(),
    );
}

fn check_steps(out: &mut Outcome, w: Workload, errored_steps: u64) {
    out.failed += errored_steps;
    out.check(
        format!(
            "{}: every step returned Ok ({errored_steps} did not)",
            w.name()
        ),
        errored_steps == 0,
    );
}

fn note_times(out: &mut Outcome, label: &str, times: &OpTimes, counted: u64) {
    let (pct, tail) = times.tail();
    out.note(format!(
        "{label}: {} ops timed (counted {counted}), {} of them at the base clock: p5 {:.1} us, p50 {:.1} us, p{pct} {:.1} us",
        times.count(),
        times.kept(),
        times.p05(),
        times.p50(),
        tail
    ));
}

/// The timed leg: tracing off, end-to-end metrics.
pub fn timed(w: Workload, sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut rot = CpuRotation::new(w.single_threaded());
    out.note(format!(
        "the measuring thread {} between two CPUs",
        if rot.is_on() {
            "alternates"
        } else {
            "is not moved"
        }
    ));
    let mut setups = Vec::new();
    let mut samples = Vec::new();
    let mut counters = Counters::default();
    let (mut overflow_exchanges, mut errored_steps) = (0, 0);
    // One cell alive at a time, so peak RSS is one cell's.
    for r in 0..REPEATS {
        let cfg = w.cell_config(sub_seed(seed, r), sizes.clients);
        rot.advance();
        let (mut cell, new_s, warm_s) = set_up(&cfg, w.strategy(), sizes.warm);
        setups.push(new_s + warm_s);
        let boxed = w == Workload::BoxedQueryBounded;
        if r == 0 {
            out.check(
                format!(
                    "{}: runs the {} fleet",
                    w.name(),
                    if boxed { "boxed" } else { "columnar" }
                ),
                cell.is_columnar() != boxed,
            );
        }
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / REPEATS as f64);
        let win = measure(
            &mut cell,
            sizes.counted,
            deadline,
            &mut rot,
            &mut Tracer::new(false),
        );
        overflow_exchanges += win.report.overflow_exchanges;
        counters.add(&win.counters);
        samples.extend(win.samples);
        errored_steps += win.errored_steps;
    }
    drop(rot);
    check_channel(&mut out, w, overflow_exchanges);
    check_steps(&mut out, w, errored_steps);
    // Read before the audit, whose value histories are not the workload's.
    let peak_rss_mib = stats::peak_rss_mib();
    let times = OpTimes::at_base_clock(&samples);
    note_times(&mut out, "timed", &times, counters.ops);
    out.attempted += times.count() as u64;
    audit(&mut out, w, sizes, sub_seed(seed, 0));

    out.end_to_end(
        &setups,
        times.p05(),
        peak_rss_mib,
        counters.hit_ratio(),
        counters.report_bits_per_interval(),
    );
    out.note(format!("counters: {counters:?}"));
    out
}

/// The traced leg: per-layer metrics. Returns the outcome and the spans.
pub fn traced(w: Workload, sizes: Sizes, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let leg_start = Instant::now();
    let mut out = Outcome::default();
    let strategy = w.strategy();
    let cfg = w.cell_config(sub_seed(seed, 0), sizes.clients);
    let no_trace = &mut Tracer::new(false);
    let mut rot = CpuRotation::new(w.single_threaded());
    // The untimed twins each get this long, so their percentiles rest on
    // more than the counted prefix.
    let share = Duration::from_secs_f64(seconds / 4.0);

    // The untraced twin: the real numbers of `CellSimulation::step`.
    let (mut plain, new_s, warm_s) = set_up(&cfg, strategy, sizes.warm);
    let plain_win = measure(
        &mut plain,
        sizes.counted,
        Instant::now() + share,
        &mut rot,
        no_trace,
    );
    let plain_times = OpTimes::at_base_clock(&plain_win.samples);
    let awake: u64 = (0..plain.client_slots())
        .map(|idx| plain.client_stats(idx).intervals_awake)
        .sum();
    drop(plain);
    check_channel(&mut out, w, plain_win.report.overflow_exchanges);
    note_times(
        &mut out,
        "untraced twin",
        &plain_times,
        plain_win.counters.ops,
    );
    out.attempted += plain_times.count() as u64;

    // One sweep thread against two: same counters, recorded speed-up.
    let mut sweep_speedup = 0.0;
    if w == Workload::WorkaholicTs {
        let (mut one, _, _) = set_up(&cfg.clone().with_sweep_threads(1), strategy, sizes.warm);
        let one_win = measure(
            &mut one,
            sizes.counted,
            Instant::now() + share,
            &mut rot,
            no_trace,
        );
        let one_times = OpTimes::at_base_clock(&one_win.samples);
        note_times(&mut out, "1 sweep thread", &one_times, one_win.counters.ops);
        out.check(
            "workaholic_ts: 1 sweep thread reproduces the 2-thread counters exactly",
            one_win.counters == plain_win.counters,
        );
        sweep_speedup = one_times.p05() / plain_times.p05();
    }

    // The assembled interval on a sub-fleet, against a boxed-units cell.
    let sub = sizes.clients.min(SUB_FLEET);
    let sub_cfg = w.cell_config(sub_seed(seed, 0), sub);
    let sub_ops = sizes.counted.min(100);
    let mut asm_tr = Tracer::new(true);
    let asm = assembled::run(&sub_cfg, strategy, sizes.warm, sub_ops, false, &mut asm_tr);
    let (mut units, _, _) = set_up(
        &sub_cfg.clone().with_fleet(FleetBackend::Units),
        strategy,
        sizes.warm,
    );
    let units_win = measure(&mut units, sub_ops, Instant::now(), &mut rot, no_trace);
    drop(units);
    out.check(
        format!(
            "{}: assembled interval matches a FleetBackend::Units cell on (queries, hits, misses) = {asm:?}",
            w.name()
        ),
        (asm.queries, asm.hits, asm.misses)
            == (
                units_win.counters.queries,
                units_win.counters.hits,
                units_win.counters.misses,
            ),
    );

    // The traced cell: safety checking on, one span per step. It runs
    // last and keeps stepping until the leg as a whole has lasted
    // `seconds`.
    let mut tr = Tracer::new(true);
    tr.enter("core.new");
    let mut cell = CellSimulation::new(cfg.clone().with_safety_checking(), strategy)
        .expect("the workload's cell constructs");
    tr.exit();
    tr.enter("core.warmup");
    for _ in 0..sizes.warm {
        cell.step().expect("warm-up steps");
    }
    cell.reset_metrics();
    tr.exit();
    let deadline = leg_start + Duration::from_secs_f64(seconds);
    let traced_win = measure(&mut cell, sizes.counted, deadline, &mut rot, &mut tr);
    let traced_times = OpTimes::at_base_clock(&traced_win.samples);
    drop(cell);
    note_times(
        &mut out,
        "traced cell (with safety audit)",
        &traced_times,
        traced_win.counters.ops,
    );
    out.check(
        format!(
            "{}: traced and untraced legs agree exactly on {:?}",
            w.name(),
            plain_win.counters
        ),
        traced_win.counters == plain_win.counters,
    );
    let safety = traced_win.report.safety;
    out.attempted += safety.entries_checked + traced_times.count() as u64;
    out.failed += safety.violations;
    check_steps(
        &mut out,
        w,
        plain_win.errored_steps + traced_win.errored_steps,
    );
    out.check(
        format!(
            "{}: {} violations in {} audited cache entries, within {:?}",
            w.name(),
            safety.violations,
            safety.entries_checked,
            strategy.safety_expectation()
        ),
        safety.verify(strategy.safety_expectation()).is_ok(),
    );

    // The report covers the counted prefix; `awake` every op stepped.
    let ops = plain_win.counters.ops as f64;
    let report = &plain_win.report;
    let awake_per_interval = awake as f64 / plain_times.count() as f64;
    out.metric("core.step.p50_us", plain_times.p50(), "us");
    out.metric("core.step.p99_us", plain_times.tail().1, "us");
    out.metric(
        "core.step.us_per_awake_client",
        plain_times.p50() / awake_per_interval.max(1.0),
        "us",
    );
    out.metric("core.awake_per_interval", awake_per_interval, "count");
    out.metric(
        "core.uplinks_per_interval",
        report.traffic.frames.get(FrameKind::Query) as f64 / ops,
        "count",
    );
    out.metric(
        "core.overflow_exchanges",
        report.overflow_exchanges as f64,
        "count",
    );
    out.metric("core.sweep.speedup_2t", sweep_speedup, "ratio");
    out.metric("core.new.s", new_s, "s");
    out.metric("core.warmup.s", warm_s, "s");
    out.metric(
        "client.invalidations_per_interval",
        report.items_invalidated as f64 / ops,
        "count",
    );
    out.metric(
        "client.cache_drops_per_interval",
        report.cache_drops as f64 / ops,
        "count",
    );
    out.metric(
        "capacity.evictions_per_interval",
        report.capacity.evictions as f64 / ops,
        "count",
    );
    out.metric(
        "capacity.miss_share",
        report.capacity.capacity_misses as f64 / report.miss_events.max(1) as f64,
        "fraction",
    );
    out.metric("query.hit_ratio", report.query.hit_ratio(), "fraction");
    out.metric(
        "query.abort_ratio",
        report.query.txn_aborts as f64
            / (report.query.txn_aborts + report.query.txn_commits).max(1) as f64,
        "fraction",
    );
    out.metric(
        "wireless.report_bytes",
        plain_win.counters.report_bits_per_interval() / 8.0,
        "bytes",
    );
    let asm_us = assembled_metrics(&mut out, &asm_tr, sub_ops);
    out.metric(
        "assembled.vs_step",
        (asm_us / sub as f64) / (plain_times.mean() / sizes.clients as f64),
        "ratio",
    );
    out.metric(
        "trace.overhead_frac",
        traced_times.p05() / plain_times.p05() - 1.0,
        "fraction",
    );
    tr.absorb(asm_tr);
    (out, tr)
}

/// Emits the assembled interval's per-layer metrics — `<span>.us` (self
/// time per interval) and `<span>.calls` (per interval) — and returns
/// the whole interval's microseconds.
pub fn assembled_metrics(out: &mut Outcome, asm: &Tracer, intervals: u64) -> f64 {
    let per_interval = |ns: u64| ns as f64 / 1e3 / intervals.max(1) as f64;
    for span in crate::spec::SPAN_LAYERS {
        let t = asm.total(span);
        out.metric(format!("{span}.us"), per_interval(t.self_ns), "us");
        out.metric(
            format!("{span}.calls"),
            t.calls as f64 / intervals.max(1) as f64,
            "count",
        );
    }
    for span in [
        "server.log_prune",
        "server.report_build",
        "wireless.frame_encode",
        "wireless.frame_decode",
    ] {
        out.metric(
            format!("{span}.us"),
            per_interval(asm.total(span).self_ns),
            "us",
        );
    }
    let draws = asm.total("workload.hotspot_draw");
    out.metric(
        "workload.hotspot_draw.us",
        draws.self_ns as f64 / 1e3 / draws.calls.max(1) as f64,
        "us",
    );
    // The whole interval: the parent's self time plus every child's.
    let whole: u64 = [
        "assembled.interval",
        "server.log_prune",
        "server.report_build",
        "wireless.frame_encode",
        "wireless.frame_decode",
    ]
    .into_iter()
    .chain(crate::spec::SPAN_LAYERS)
    .map(|name| asm.total(name).self_ns)
    .sum();
    let asm_us = per_interval(whole);
    out.metric("assembled.interval.us", asm_us, "us");
    asm_us
}
