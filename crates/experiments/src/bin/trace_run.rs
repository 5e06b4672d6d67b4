//! Replays any figure configuration — or a mesh run — with observation
//! turned on and writes the full trace: NDJSON events, per-interval
//! series CSV, and the end-of-run summary table.
//!
//! Usage: `cargo run --release -p sw-experiments --features observe \
//!   --bin trace_run -- [figure|mesh|live]` (defaults to figure 3;
//!   `SW_FAST=1` uses the quick settings). Figure artifacts land in
//! `results/` as `trace_fig<N>.trace.ndjson`, `trace_fig<N>.series.csv`,
//! and `trace_fig<N>.summary.txt`; the `mesh` argument traces a 2-cell
//! mesh with Markov mobility instead, writing per-cell artifacts
//! (`trace_mesh.cell<C>.*`) plus one combined summary; the `live`
//! argument runs a real `sw-live` session over loopback sockets in
//! lockstep pacing and writes its merged server+client trace
//! (`trace_live.*`). Mesh traces
//! carry the handoff counter family (`migrations`, `migrations_out`,
//! `handoff_drops`, `cross_cell_registrations`) and a per-cell
//! `migrations` series column.
//!
//! The trace is deterministic: the same configuration at the same
//! settings produces byte-identical NDJSON and CSV at any `SW_THREADS`
//! value (pinned by the determinism suite). Wall-clock span timings
//! appear only in the summary table.
//!
//! Set `SW_FAULT_LOSS=<p>` to arm a Bernoulli report-loss plan at rate
//! `p` (requires the `faults` cargo feature as well): the fault event
//! family (`report_missed` events, `reports_lost`/`uplink_retries`
//! counters, the `lost`/`retries` series columns) then shows up in all
//! three artifacts.

use sleepers::mesh::{CellGraph, MeshConfig, MeshSimulation, MobilityModel};
use sleepers::prelude::*;
use sw_experiments::figures::{run_figure_with, FigureSpec, SimSettings};
use sw_experiments::results::write_text;
use sw_sim::MasterSeed;

fn fault_plan() -> Option<FaultPlan> {
    let p = std::env::var("SW_FAULT_LOSS")
        .ok()
        .map(|v| v.parse::<f64>().expect("SW_FAULT_LOSS must be a rate in [0, 1]"))?;
    if !sleepers::faults::compiled_in() {
        eprintln!(
            "SW_FAULT_LOSS={p} ignored: fault injection is compiled out; \
             rebuild with `--features observe,faults`"
        );
    }
    Some(FaultPlan::none().with_loss(LossModel::bernoulli(p)))
}

fn no_observe_bail(rerun_arg: &str) -> ! {
    eprintln!(
        "no trace captured: this binary was built without the `observe` cargo \
         feature. Rerun as\n  cargo run --release -p sw-experiments \
         --features observe --bin trace_run -- {rerun_arg}"
    );
    std::process::exit(1);
}

fn trace_mesh(fast: bool) {
    let intervals = if fast { 150 } else { 600 };
    let mut params = ScenarioParams::scenario1().with_s(0.3);
    params.n_items = 1_000;
    params.mu = 1e-3;
    params.k = 10;
    let mut base = CellConfig::new(params)
        .with_clients(8)
        .with_hotspot_size(25)
        .with_observe("mesh");
    if let Some(plan) = fault_plan() {
        base = base.with_faults(plan);
    }
    let config = MeshConfig::new(CellGraph::line(2), base, MasterSeed(0xACE7))
        .with_mobility(MobilityModel::Markov { rate: 0.1 });
    eprintln!("tracing mesh: 2-cell line, TS, Markov rate 0.1, {intervals} intervals ...");
    let mut mesh =
        MeshSimulation::new(config, Strategy::BroadcastTimestamps).expect("valid config");
    mesh.run(intervals).expect("mesh run");

    let mut combined = String::new();
    for (cell, sim) in mesh.cells().iter().enumerate() {
        let Some(snap) = sim.observe_snapshot() else {
            no_observe_bail("mesh");
        };
        let summary = sw_observe::summary(&snap);
        println!("{summary}");
        combined.push_str(&summary);
        combined.push('\n');
        for (suffix, body) in [
            ("trace.ndjson", snap.to_ndjson()),
            ("series.csv", snap.series_csv()),
        ] {
            match write_text(&format!("trace_mesh.cell{cell}.{suffix}"), &body) {
                Ok(f) => println!("wrote {}", f.display()),
                Err(e) => eprintln!("could not write trace_mesh.cell{cell}.{suffix}: {e}"),
            }
        }
    }
    match write_text("trace_mesh.summary.txt", &combined) {
        Ok(f) => println!("wrote {}", f.display()),
        Err(e) => eprintln!("could not write trace_mesh.summary.txt: {e}"),
    }
}

/// Runs a real `sw-live` session — TCP registration, UDP report
/// datagrams, uplink round-trips over loopback sockets — in lockstep
/// pacing, and writes its combined trace (server recorder merged with
/// every mobile unit's, in index order) through the same observe
/// tooling as the figure and mesh traces.
fn trace_live(fast: bool) {
    use sw_live::{run_mu, LiveOptions, LiveServer, MuOptions};

    let intervals = if fast { 80 } else { 320 };
    let clients = 6;
    let mut params = ScenarioParams::scenario1().with_s(0.4);
    params.n_items = 400;
    params.mu = 2e-3;
    params.k = 10;
    let mut config = CellConfig::new(params)
        .with_clients(clients)
        .with_hotspot_size(20)
        .with_seed(0x11FE_7ACE)
        .with_observe("live");
    if let Some(plan) = fault_plan() {
        config = config.with_faults(plan);
    }
    eprintln!("tracing live session: {clients} MUs, TS, lockstep, {intervals} intervals ...");

    let handle = LiveServer::spawn(
        config.clone(),
        Strategy::BroadcastTimestamps,
        LiveOptions::lockstep(intervals),
    )
    .expect("spawn live server");
    let addr = handle.addr();
    // A seeded receiver-side drop rate so the recovery path runs and
    // the `report_missed` event family shows up in the NDJSON trace.
    let opts = MuOptions {
        rx_drop: 0.08,
        ..MuOptions::default()
    };
    let workers: Vec<_> = (0..clients)
        .map(|idx| {
            let config = config.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                run_mu(addr, &config, Strategy::BroadcastTimestamps, idx, opts)
            })
        })
        .collect();
    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread").expect("client session"))
        .collect();
    let server = handle.wait().expect("server session");

    let Some(mut snap) = server.observe else {
        no_observe_bail("live");
    };
    for report in reports {
        let Some(mu_snap) = report.observe else {
            no_observe_bail("live");
        };
        snap.merge(mu_snap);
    }

    let summary = sw_observe::summary(&snap);
    println!("{summary}");
    for (suffix, body) in [
        ("trace.ndjson", snap.to_ndjson()),
        ("series.csv", snap.series_csv()),
        ("summary.txt", summary),
    ] {
        match write_text(&format!("trace_live.{suffix}"), &body) {
            Ok(f) => println!("wrote {}", f.display()),
            Err(e) => eprintln!("could not write trace_live.{suffix}: {e}"),
        }
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let fast = std::env::var("SW_FAST").is_ok();
    if arg.as_deref() == Some("mesh") {
        trace_mesh(fast);
        return;
    }
    if arg.as_deref() == Some("live") {
        trace_live(fast);
        return;
    }

    let figure: u8 = arg
        .map(|a| a.parse().expect("argument must be `mesh`, `live`, or a figure in 3..=8"))
        .unwrap_or(3);
    let mut settings = if fast {
        SimSettings::quick()
    } else {
        SimSettings::default()
    };
    settings.observe = true;
    settings.faults = fault_plan();

    let spec = FigureSpec::for_figure(figure);
    eprintln!(
        "tracing figure {figure} ({}): {} x-points × 4 strategies, {} intervals each ...",
        spec.scenario, settings.points, settings.intervals
    );
    let observed = run_figure_with(&spec, settings);

    let Some(snap) = observed.observe else {
        no_observe_bail(&figure.to_string());
    };

    let summary = sw_observe::summary(&snap);
    println!("{summary}");
    if let Some(warning) = sw_observe::overflow_warning(snap.counter("overflow_exchanges")) {
        eprintln!("{warning}");
    }

    for (suffix, body) in [
        ("trace.ndjson", snap.to_ndjson()),
        ("series.csv", snap.series_csv()),
        ("summary.txt", summary),
    ] {
        match write_text(&format!("trace_fig{figure}.{suffix}"), &body) {
            Ok(f) => println!("wrote {}", f.display()),
            Err(e) => eprintln!("could not write trace_fig{figure}.{suffix}: {e}"),
        }
    }
}
