//! Figure sweeps: analytic curves plus simulated validation points.

use serde::{Deserialize, Serialize};
use sleepers::prelude::*;

/// Which figure to regenerate and how.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Paper figure number (3–8).
    pub figure: u8,
    /// Scenario label ("Scenario 1" …).
    pub scenario: &'static str,
    /// Base parameters.
    pub base: ScenarioParams,
    /// Swept axis.
    pub axis: SweepAxis,
}

impl FigureSpec {
    /// The spec for paper figure `figure` (3–8).
    ///
    /// # Panics
    /// Panics for figure numbers outside 3–8.
    pub fn for_figure(figure: u8) -> FigureSpec {
        let (scenario, base) = match figure {
            3 => ("Scenario 1", ScenarioParams::scenario1()),
            4 => ("Scenario 2", ScenarioParams::scenario2()),
            5 => ("Scenario 3", ScenarioParams::scenario3()),
            6 => ("Scenario 4", ScenarioParams::scenario4()),
            7 => ("Scenario 5", ScenarioParams::scenario5()),
            8 => ("Scenario 6", ScenarioParams::scenario6()),
            other => panic!("the paper has figures 3..=8, not {other}"),
        };
        let axis = if figure <= 6 {
            SweepAxis::sleep_default()
        } else {
            SweepAxis::update_default()
        };
        FigureSpec {
            figure,
            scenario,
            base,
            axis,
        }
    }

    /// The x-axis label.
    pub fn x_label(&self) -> &'static str {
        match self.axis {
            SweepAxis::SleepProbability { .. } => "s",
            SweepAxis::UpdateRate { .. } => "mu",
        }
    }
}

/// Simulation settings for the validation points.
#[derive(Debug, Clone, Copy)]
pub struct SimSettings {
    /// Number of x-axis points to simulate (evenly spaced).
    pub points: usize,
    /// Broadcast intervals per run.
    pub intervals: u64,
    /// Clients per cell.
    pub clients: usize,
    /// Hotspot size per client.
    pub hotspot: usize,
    /// Cap on the simulated database size (larger scenarios are scaled
    /// down; hit ratios are n-independent in the model).
    pub max_sim_items: u64,
    /// Master seed.
    pub seed: u64,
    /// Record an observation trace per simulated cell (counters,
    /// per-interval series, NDJSON events), merged across the grid in
    /// task order. Captures nothing unless the `observe` cargo feature
    /// is on; never changes the simulated numbers either way.
    pub observe: bool,
    /// Arm every simulated cell's deterministic fault injector with
    /// this plan. `None` (the default) injects nothing; with the
    /// `faults` cargo feature off the plan is carried but inert.
    pub faults: Option<sleepers::faults::FaultPlan>,
}

impl Default for SimSettings {
    fn default() -> Self {
        // Fleet sized below channel saturation: the narrow-band
        // scenarios carry ≈97 uplink exchanges per interval
        // (`L·W / (b_q + b_a)` = 10⁵/1024), and a worst-case fleet of
        // 6 clients × 15-item hotspots poses ≤90 query events per
        // interval, so even the cache-less strategy fits. The old
        // 10 × 30 default silently overflowed the budget on
        // Scenarios 1/3/5 (validation h and B_c stayed unbiased, but
        // the traffic accounting was fiction); `run_paper_figure` now
        // asserts the default configurations stay overflow-free. The
        // longer horizon restores the query-event sample the smaller
        // fleet gives up — Eq. 9's 1/(1−h) amplifies h noise hard
        // near h = 1 (`run_paper_figure` trims it back to 400 for the
        // update-intensive figures, whose h sits far from 1 and whose
        // update engines dominate runtime at the scaled item counts).
        SimSettings {
            points: 5,
            intervals: 1200,
            clients: 6,
            hotspot: 15,
            max_sim_items: 10_000,
            seed: 0xF1650,
            observe: false,
            faults: None,
        }
    }
}

impl SimSettings {
    /// Quick settings for tests and benches.
    pub fn quick() -> Self {
        SimSettings {
            points: 3,
            intervals: 120,
            clients: 6,
            hotspot: 15,
            max_sim_items: 2_000,
            seed: 0xF1650,
            observe: false,
            faults: None,
        }
    }
}

/// One simulated validation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Strategy name.
    pub strategy: String,
    /// Measured hit ratio.
    pub hit_ratio: f64,
    /// Measured effectiveness (Eq. 9/10 with measured h and B_c).
    pub effectiveness: f64,
    /// Mean report size in bits.
    pub report_bits: f64,
    /// Query events simulated.
    pub query_events: u64,
    /// True when the strategy was unusable (report exceeded `L·W`).
    pub unusable: bool,
    /// Query exchanges that overflowed the interval bit budget. Must be
    /// zero for every default figure configuration — a non-zero value
    /// means the cell is oversubscribed and the throughput numbers are
    /// unreliable ([`run_paper_figure`] warns and asserts on it).
    pub overflow_exchanges: u64,
}

/// A regenerated figure: the analytic sweep plus simulated points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureResult {
    /// Figure number.
    pub figure: u8,
    /// Scenario label.
    pub scenario: String,
    /// Analytic sweep (one effectiveness point per x).
    pub analytic: Sweep,
    /// Simulated validation points.
    pub simulated: Vec<SimPoint>,
}

/// A regenerated figure bundled with its merged observation snapshot:
/// `observe` is `Some` only when [`SimSettings::observe`] was set *and*
/// the `observe` cargo feature is on.
#[derive(Debug, Clone)]
pub struct ObservedFigure {
    /// The analytic sweep plus simulated points.
    pub result: FigureResult,
    /// Per-cell snapshots merged in task (seed) order — independent of
    /// `SW_THREADS`, like everything else the runner produces.
    pub observe: Option<sw_observe::ObserveSnapshot>,
}

/// Regenerates a figure: full analytic sweep + simulated points.
pub fn run_figure(spec: &FigureSpec, sim: SimSettings) -> FigureResult {
    run_figure_with(spec, sim).result
}

/// [`run_figure`], keeping the observation snapshots the cells
/// captured (`trace_run` uses this form).
pub fn run_figure_with(spec: &FigureSpec, sim: SimSettings) -> ObservedFigure {
    let analytic = Sweep::run(
        format!("Figure {} / {}", spec.figure, spec.scenario),
        spec.base,
        spec.axis,
    );

    // Scaled simulation parameters (hit ratios are n-independent).
    let mut sim_base = spec.base;
    if sim_base.n_items > sim.max_sim_items {
        sim_base.n_items = sim.max_sim_items;
    }

    let xs = pick_sim_xs(&spec.axis, sim.points);
    let strategies = [
        Strategy::BroadcastTimestamps,
        Strategy::AmnesicTerminals,
        Strategy::Signatures,
        Strategy::NoCache,
    ];

    // Fan the (x, strategy) grid across the shared sweep runner. Seeds
    // are pure functions of the cell coordinates, so the output is
    // identical at any thread count.
    let tasks: Vec<(f64, Strategy)> = xs
        .iter()
        .flat_map(|&x| strategies.iter().map(move |&s| (x, s)))
        .collect();
    let runner = sw_sim::runner::ParallelRunner::from_env();
    let results = runner.run(&tasks, |_, &(x, strategy)| {
        simulate_point(sim_base, spec.axis, x, strategy, sim)
    });

    // The runner returns outputs in task order regardless of thread
    // count, so merging here keeps the combined trace deterministic.
    let mut simulated = Vec::with_capacity(results.len());
    let mut observe: Option<sw_observe::ObserveSnapshot> = None;
    for (point, snap) in results {
        simulated.push(point);
        if let Some(snap) = snap {
            observe
                .get_or_insert_with(sw_observe::ObserveSnapshot::empty)
                .merge(snap);
        }
    }

    ObservedFigure {
        result: FigureResult {
            figure: spec.figure,
            scenario: spec.scenario.to_string(),
            analytic,
            simulated,
        },
        observe,
    }
}

fn pick_sim_xs(axis: &SweepAxis, points: usize) -> Vec<f64> {
    let all = axis.points();
    if points >= all.len() {
        return all;
    }
    let step = (all.len() - 1) as f64 / (points - 1) as f64;
    (0..points)
        .map(|i| all[(i as f64 * step).round() as usize])
        .collect()
}

fn simulate_point(
    base: ScenarioParams,
    axis: SweepAxis,
    x: f64,
    strategy: Strategy,
    sim: SimSettings,
) -> (SimPoint, Option<sw_observe::ObserveSnapshot>) {
    let params = axis.apply(base, x);
    // Seed is a pure function of the cell coordinates (the old ad-hoc
    // XOR collided for same-length strategy names and depended on float
    // rounding).
    let strategy_tag = strategy
        .name()
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
    let seed = sw_sim::runner::cell_seed(sim.seed, &[x.to_bits(), strategy_tag]);
    let mut config = CellConfig::new(params)
        .with_clients(sim.clients)
        .with_hotspot_size(sim.hotspot.min(params.n_items as usize))
        .with_seed(seed);
    if sim.observe {
        config = config.with_observe(format!("{}:x={x}", strategy.name()));
    }
    if let Some(plan) = sim.faults {
        config = config.with_faults(plan);
    }
    match CellSimulation::new(config, strategy) {
        Ok(mut cell) => match cell.run_measured(sim.intervals / 4, sim.intervals) {
            Ok(report) => {
                let point = SimPoint {
                    x,
                    strategy: strategy.name().to_string(),
                    hit_ratio: report.hit_ratio(),
                    effectiveness: report.effectiveness(),
                    report_bits: report.report_bits_mean(),
                    query_events: report.query_events(),
                    unusable: false,
                    overflow_exchanges: report.overflow_exchanges,
                };
                (point, report.observe)
            }
            // Even an unusable run keeps its trace: the events up to
            // the oversized report show *why* it died.
            Err(SimulationError::ReportTooLarge { .. }) => {
                (unusable(x, strategy), cell.observe_snapshot())
            }
            Err(e) => panic!("simulation failed at x={x}: {e}"),
        },
        Err(e) => panic!("bad config at x={x}: {e}"),
    }
}

fn unusable(x: f64, strategy: Strategy) -> SimPoint {
    SimPoint {
        x,
        strategy: strategy.name().to_string(),
        hit_ratio: 0.0,
        effectiveness: 0.0,
        report_bits: 0.0,
        query_events: 0,
        unusable: true,
        overflow_exchanges: 0,
    }
}

/// Prints the figure as the paper-shaped table: one row per x, one
/// column per strategy, `--` where unusable.
fn print_figure_table(result: &FigureResult, x_label: &str) {
    println!(
        "Figure {} — {} (analytic effectiveness, Eq. 10)",
        result.figure, result.scenario
    );
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8}   winner",
        x_label, "e_TS", "e_AT", "e_SIG", "e_NC"
    );
    let fmt = |v: Option<f64>| match v {
        Some(e) => format!("{e:8.4}"),
        None => format!("{:>8}", "--"),
    };
    for p in &result.analytic.points {
        let (winner, _) = p.winner();
        println!(
            "{:>10.5} {} {} {} {:8.4}   {}",
            p.x,
            fmt(p.e_ts),
            fmt(p.e_at),
            fmt(p.e_sig),
            p.e_nc,
            winner
        );
    }
    println!();
    println!("Simulated validation points (discrete-event, scaled n where noted):");
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>12} {:>10}",
        x_label, "strat", "h_sim", "e_sim", "B_c bits", "events"
    );
    let mut sorted = result.simulated.clone();
    sorted.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap()
            .then(a.strategy.cmp(&b.strategy))
    });
    for p in &sorted {
        if p.unusable {
            println!(
                "{:>10.5} {:>6} {:>10} {:>10} {:>12} {:>10}",
                p.x, p.strategy, "--", "--", "(too big)", "--"
            );
        } else {
            println!(
                "{:>10.5} {:>6} {:>10.4} {:>10.4} {:>12.1} {:>10}",
                p.x, p.strategy, p.hit_ratio, p.effectiveness, p.report_bits, p.query_events
            );
        }
    }
}

/// The `fig3`…`fig8` catalogue entries: runs the figure (quick
/// settings when `fast`) at the master seed of `replicate`, prints the
/// table and an ASCII chart, and returns the JSON artifact text.
/// `trace_run <figure>` is the observed twin of this path.
pub fn run_paper_figure(figure: u8, fast: bool, replicate: u64) -> String {
    let spec = FigureSpec::for_figure(figure);
    let settings = if fast {
        SimSettings::quick()
    } else {
        let mut s = SimSettings::default();
        // The update-intensive scenarios (figures 5–6) keep the
        // shorter horizon: their hit ratios sit far from 1, where
        // Eq. 9 does not amplify h noise, and their update engines
        // dominate runtime at the scaled item counts — tripling the
        // horizon there buys nothing but minutes.
        if matches!(figure, 5 | 6) {
            s.intervals = 400;
        }
        s
    };
    let settings = SimSettings {
        seed: crate::replicate::replicate_seed(settings.seed, replicate),
        ..settings
    };
    let result = run_figure(&spec, settings);
    print_figure_table(&result, spec.x_label());

    let curves = result.analytic.curves();
    let series: Vec<crate::plot::Series<'_>> = curves
        .iter()
        .map(|c| {
            let marker = match c.name.as_str() {
                "TS" => 'T',
                "AT" => 'A',
                "SIG" => 'S',
                _ => 'N',
            };
            (marker, c.name.as_str(), c.points.as_slice())
        })
        .collect();
    println!();
    println!(
        "{}",
        crate::plot::ascii_chart(
            &format!(
                "Figure {} — {}: effectiveness vs {}",
                figure,
                spec.scenario,
                spec.x_label()
            ),
            &series,
            64,
            20,
        )
    );

    // The paper's figure configurations run the cell far below channel
    // saturation; overflowing exchanges would make every throughput
    // number above meaningless, so surface it loudly and refuse to
    // commit such an artifact. A seed replicate reports its overflow
    // as one more leaf of the summary instead: figure 7 overflows one
    // exchange on some replicate seeds.
    let overflow: u64 = result.simulated.iter().map(|p| p.overflow_exchanges).sum();
    if let Some(warning) = sw_observe::sink::overflow_warning(overflow) {
        eprintln!("{warning}");
    }
    assert!(
        overflow == 0 || replicate != 0,
        "figure {figure}'s default configuration oversubscribed the uplink channel"
    );
    crate::results::to_json(&result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figure_specs_resolve() {
        for fig in 3..=8 {
            let spec = FigureSpec::for_figure(fig);
            assert_eq!(spec.figure, fig);
            spec.base.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "figures 3..=8")]
    fn unknown_figure_panics() {
        let _ = FigureSpec::for_figure(9);
    }

    #[test]
    fn sim_xs_cover_the_range() {
        let axis = SweepAxis::sleep_default();
        let xs = pick_sim_xs(&axis, 5);
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0], 0.0);
        assert_eq!(*xs.last().unwrap(), 1.0);
    }

    #[test]
    fn quick_figure3_run_is_consistent() {
        let spec = FigureSpec::for_figure(3);
        let result = run_figure(&spec, SimSettings::quick());
        assert_eq!(result.analytic.points.len(), 21);
        // 3 x-points × 4 strategies.
        assert_eq!(result.simulated.len(), 12);
        // At s = 0 every caching strategy should have a high simulated
        // hit ratio.
        for p in &result.simulated {
            if p.x == 0.0 && p.strategy != "NC" && !p.unusable {
                assert!(
                    p.hit_ratio > 0.8,
                    "{} at s=0: hit ratio {}",
                    p.strategy,
                    p.hit_ratio
                );
            }
        }
    }

    #[test]
    fn figure5_marks_ts_unusable() {
        let spec = FigureSpec::for_figure(5);
        let mut sim = SimSettings::quick();
        sim.points = 2;
        let result = run_figure(&spec, sim);
        let ts_points: Vec<_> = result
            .simulated
            .iter()
            .filter(|p| p.strategy == "TS")
            .collect();
        assert!(
            ts_points.iter().all(|p| p.unusable),
            "TS must be unusable throughout Scenario 3: {ts_points:?}"
        );
    }
}
