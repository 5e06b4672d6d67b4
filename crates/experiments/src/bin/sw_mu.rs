//! `sw-mu` — a live mobile-unit client.
//!
//! Connects to a running `sw-serve`, registers over TCP, listens for
//! UDP invalidation reports, and runs the real [`sleepers::client`]
//! cache against them: queries buffered until the next heard report,
//! misses answered over the TCP uplink, per-strategy recovery on missed
//! frames.
//!
//! Usage:
//!
//! ```text
//! sw-mu --server ADDR[,ADDR...] [--index N] [--rx-drop P] [--audit]
//!       [--reconnect-after N]
//!       [--flight N] [--storm N] [--flight-dir DIR]
//!       [--strategy ts|at|sig|hyb] [--clients N] [--n-items N]
//!       [--update-rate MU] [--s S] [--hotspot N] [--seed HEX]
//!       [--observe LABEL]
//! ```
//!
//! `--server` takes a comma-separated rotation: the first address is
//! dialed at startup, the full list is the successor roster of a
//! replicated fleet (`sw-serve --ha-node`). When the broadcaster goes
//! quiet for `--reconnect-after` consecutive intervals (default 2
//! with a rotation), the unit re-registers through the rotation with
//! bounded exponential backoff and rides the takeover — the blackout
//! is just ordinary missed reports to the caching strategy.
//!
//! `--flight N` keeps the last N intervals in a flight-recorder ring;
//! `--storm N` dumps that ring to `--flight-dir` (NDJSON) after N
//! consecutive missed reports — post-mortem forensics for a unit that
//! fell off the broadcast.
//!
//! The cell flags must match the server's: both sides derive their
//! deterministic streams from the same `CellConfig`. Exits 0 after the
//! server halts the session, printing a one-line client summary.

use std::net::SocketAddr;
use std::process::exit;

use sw_experiments::live_cli::{parse_cell_args, take_flag, take_switch};
use sw_live::{run_mu, MuOptions};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let servers: Vec<SocketAddr> = take_flag(&mut args, "--server")
        .unwrap_or_else(|| die("--server ADDR[,ADDR...] is required"))
        .split(',')
        .map(|a| a.parse().unwrap_or_else(|e| die(&format!("--server {a}: {e}"))))
        .collect();
    let server = servers[0];
    let reconnect_after: u64 = take_flag(&mut args, "--reconnect-after")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| die(&format!("--reconnect-after: {e}")))
        })
        .unwrap_or(0);
    let index: usize = take_flag(&mut args, "--index")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--index: {e}"))))
        .unwrap_or(0);
    let rx_drop: f64 = take_flag(&mut args, "--rx-drop")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--rx-drop: {e}"))))
        .unwrap_or(0.0);
    let audit_cache = take_switch(&mut args, "--audit");
    let flight_capacity: usize = take_flag(&mut args, "--flight")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--flight: {e}"))))
        .unwrap_or(0);
    let storm_threshold: u64 = take_flag(&mut args, "--storm")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--storm: {e}"))))
        .unwrap_or(0);
    let flight_dir = take_flag(&mut args, "--flight-dir").map(std::path::PathBuf::from);
    let cell = parse_cell_args(&mut args).unwrap_or_else(|e| die(&e));
    if !args.is_empty() {
        die(&format!("unrecognized arguments: {args:?}"));
    }
    if index >= cell.config.n_clients {
        die(&format!(
            "--index {index} out of range for --clients {}",
            cell.config.n_clients
        ));
    }

    let opts = MuOptions {
        rx_drop,
        audit_cache,
        flight_capacity,
        storm_threshold,
        flight_dir,
        successors: if servers.len() > 1 { servers } else { Vec::new() },
        reconnect_after,
        ..MuOptions::default()
    };
    match run_mu(server, &cell.config, cell.strategy, index, opts) {
        Ok(report) => {
            let s = &report.stats;
            println!(
                "mu {} ({}): {} intervals ({} awake), {} queries \
                 ({} hits, {} misses), {} reports heard, {} missed, \
                 {} invalidated, {} cache drops",
                report.index,
                cell.strategy.name(),
                report.rows.len(),
                s.intervals_awake,
                s.queries_posed,
                s.hit_events,
                s.miss_events,
                report.reports_heard,
                report.reports_missed,
                s.items_invalidated,
                s.cache_drops,
            );
            if report.reconnects > 0 {
                println!(
                    "mu {}: re-registered {} time(s) through the successor rotation",
                    report.index, report.reconnects
                );
            }
            if let Some(snap) = report.observe {
                println!("{}", sw_observe::summary(&snap));
            }
        }
        Err(e) => die(&format!("session failed: {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sw-mu: {msg}");
    exit(2);
}
