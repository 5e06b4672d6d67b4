//! `sw-serve` — the live invalidation-report daemon.
//!
//! Boots a [`sw_live::LiveServer`]: TCP registration/uplink listener
//! plus a UDP broadcast ticker emitting one invalidation report per
//! interval, built by the same report builders the simulator uses.
//!
//! Usage:
//!
//! ```text
//! sw-serve [--port N] [--intervals N] [--interval-ms N] [--lockstep]
//!          [--announce FILE]
//!          [--metrics-port N] [--metrics-announce FILE]
//!          [--flight N] [--flight-dir DIR]
//!          [--ha-node N] [--ha-rep-port N] [--ha-announce FILE]
//!          [--ha-peer FILE]... [--crash-at N]
//!          [--strategy ts|at|sig|hyb] [--clients N] [--n-items N]
//!          [--update-rate MU] [--s S] [--hotspot N] [--seed HEX]
//!          [--observe LABEL]
//! ```
//!
//! The bound address is printed to stdout as `listening ADDR` before
//! the first report goes out; `--announce FILE` additionally writes
//! the bare `ADDR` to `FILE` so scripts can poll for it (the smoke leg
//! of `scripts/check.sh` does exactly that). `--metrics-port` arms the
//! ops plane: `GET /metrics` (Prometheus text), `/healthz`, and
//! `/snapshot.json` on that port for the session's lifetime, announced
//! as `metrics ADDR` (and to `--metrics-announce FILE`).
//!
//! `--flight N` keeps the last N broadcast ticks in a flight-recorder
//! ring. On SIGTERM the daemon stops the session cleanly, prints its
//! summary, and — when `--flight-dir` is set — dumps the ring as
//! NDJSON forensics before exiting.
//!
//! `--ha-node N` turns the daemon into one member of a replicated
//! cell-server fleet (see `sw_live::ha`): it binds a second, peer-facing
//! replication listener (`--ha-rep-port`), writes its own coordinates
//! to `--ha-announce FILE` as one `NODE CLIENT_ADDR REP_ADDR` line,
//! and polls each `--ha-peer FILE` (another node's `--ha-announce`
//! output) to assemble the shared membership list. The lowest node id
//! starts as the broadcasting primary; every other node applies the
//! replicated log silently, ready to take over mid-session. Clients
//! pointed at any member with `sw-mu --server a,b,…` ride a primary
//! crash through to the announced successor. `--crash-at N` injects a
//! deterministic primary crash at interval N — the kill-mid-run demo
//! without having to aim a `kill -9` by hand.

// Only the SIGTERM hook in `signal` may opt in to unsafe code.
#![deny(unsafe_code)]

mod signal;

use std::net::SocketAddr;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw_experiments::live_cli::{parse_cell_args, take_flag, take_switch};
use sw_live::ha::{CrashPoint, HaHandle, HaNode, HaOptions, PeerSpec, ServerFaultPlan};
use sw_live::{LiveOptions, LiveServer, LiveServerReport, ServerHandle};

use signal::arm_termination_flag;

/// How a session was spawned; both arms share the stopper type, so
/// everything but the final wait is common.
enum Session {
    Plain(ServerHandle),
    Ha(HaHandle),
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let port: u16 = take_flag(&mut args, "--port")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--port: {e}"))))
        .unwrap_or(0);
    let intervals: u64 = take_flag(&mut args, "--intervals")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--intervals: {e}"))))
        .unwrap_or(600);
    let interval_ms: u64 = take_flag(&mut args, "--interval-ms")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--interval-ms: {e}"))))
        .unwrap_or(100);
    let lockstep = take_switch(&mut args, "--lockstep");
    let announce = take_flag(&mut args, "--announce");
    let metrics_port: Option<u16> = take_flag(&mut args, "--metrics-port")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--metrics-port: {e}"))));
    let metrics_announce = take_flag(&mut args, "--metrics-announce");
    let flight: usize = take_flag(&mut args, "--flight")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--flight: {e}"))))
        .unwrap_or(0);
    let flight_dir = take_flag(&mut args, "--flight-dir").map(std::path::PathBuf::from);
    let ha_node: Option<u32> = take_flag(&mut args, "--ha-node")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--ha-node: {e}"))));
    let ha_rep_port: u16 = take_flag(&mut args, "--ha-rep-port")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--ha-rep-port: {e}"))))
        .unwrap_or(0);
    let ha_announce = take_flag(&mut args, "--ha-announce");
    let mut ha_peers: Vec<String> = Vec::new();
    while let Some(p) = take_flag(&mut args, "--ha-peer") {
        ha_peers.push(p);
    }
    let crash_at: Option<u64> = take_flag(&mut args, "--crash-at")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--crash-at: {e}"))));
    let cell = parse_cell_args(&mut args).unwrap_or_else(|e| die(&e));
    if !args.is_empty() {
        die(&format!("unrecognized arguments: {args:?}"));
    }
    if ha_node.is_none() && (ha_announce.is_some() || !ha_peers.is_empty() || crash_at.is_some()) {
        die("--ha-announce/--ha-peer/--crash-at require --ha-node");
    }

    let bind: SocketAddr = ([127, 0, 0, 1], port).into();
    let mut opts = if lockstep {
        LiveOptions::lockstep(intervals)
    } else {
        LiveOptions::paced(intervals, interval_ms)
    }
    .with_bind(bind)
    .with_flight_capacity(flight);
    if let Some(dir) = flight_dir.as_ref() {
        opts = opts.with_flight_dir(dir.clone());
    }
    if let Some(mp) = metrics_port {
        opts = opts.with_metrics(([127, 0, 0, 1], mp).into());
    }

    let session = match ha_node {
        None => Session::Plain(
            LiveServer::spawn(cell.config.clone(), cell.strategy, opts)
                .unwrap_or_else(|e| die(&format!("could not start server: {e}"))),
        ),
        Some(node) => {
            let ha = HaNode::bind(([127, 0, 0, 1], ha_rep_port).into(), bind)
                .unwrap_or_else(|e| die(&format!("could not bind HA listeners: {e}")));
            let myself = PeerSpec {
                node,
                rep: ha.rep_addr().unwrap_or_else(|e| die(&format!("rep addr: {e}"))),
                client: ha
                    .client_addr()
                    .unwrap_or_else(|e| die(&format!("client addr: {e}"))),
            };
            if let Some(path) = &ha_announce {
                let line = format!("{} {} {}\n", myself.node, myself.client, myself.rep);
                std::fs::write(path, line)
                    .unwrap_or_else(|e| die(&format!("could not write {path}: {e}")));
            }
            let mut peers = vec![myself];
            for file in &ha_peers {
                peers.push(await_peer_file(file));
            }
            let mut hopts = HaOptions::new(node, peers, opts);
            if let Some(at) = crash_at {
                hopts = hopts
                    .with_faults(ServerFaultPlan::none().with_crash(at, CrashPoint::AfterAppend));
            }
            Session::Ha(
                ha.start(cell.config.clone(), cell.strategy, hopts)
                    .unwrap_or_else(|e| die(&format!("could not start HA node: {e}"))),
            )
        }
    };

    let (addr, maddr, stopper) = match &session {
        Session::Plain(h) => (h.addr(), h.metrics_addr(), h.stopper()),
        Session::Ha(h) => (h.addr(), h.metrics_addr(), h.stopper()),
    };
    println!("listening {addr}");
    if let Some(path) = announce {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("sw-serve: could not write announce file {path}: {e}");
            stopper.stop();
            match session {
                Session::Plain(h) => drop(h.wait()),
                Session::Ha(h) => drop(h.wait()),
            }
            exit(1);
        }
    }
    if let Some(maddr) = maddr {
        println!("metrics {maddr}");
        if let Some(path) = metrics_announce {
            if let Err(e) = std::fs::write(&path, format!("{maddr}\n")) {
                eprintln!("sw-serve: could not write metrics announce file {path}: {e}");
            }
        }
    }

    // The SIGTERM watcher: a `kill` stops the session cleanly (partial
    // summary, flight dump) instead of vaporizing it.
    let term = arm_termination_flag();
    let session_over = Arc::new(AtomicBool::new(false));
    let watcher = {
        let session_over = Arc::clone(&session_over);
        std::thread::spawn(move || loop {
            if term.load(Ordering::Relaxed) {
                eprintln!("sw-serve: SIGTERM; stopping the session");
                stopper.stop();
                return true;
            }
            if session_over.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
    };

    // Wait the session out. An HA node folds down to the same report
    // shape, prefixed with its cluster view; a node that died to an
    // injected fault has no session report at all — by design, it
    // models a killed process.
    let result = match session {
        Session::Plain(h) => h.wait().map(|r| (None, Some(r))),
        Session::Ha(h) => h.wait().map(|r| {
            let ha = (r.node, r.epoch, r.took_over_at);
            (Some(ha), r.live)
        }),
    };
    session_over.store(true, Ordering::Relaxed);
    let terminated = watcher.join().expect("signal watcher thread");

    match result {
        Ok((ha, live)) => {
            if let Some((node, epoch, took_over_at)) = ha {
                match took_over_at {
                    Some(i) => println!("ha node {node}: epoch {epoch}, took over at interval {i}"),
                    None => println!("ha node {node}: epoch {epoch}"),
                }
            }
            let Some(report) = live else {
                println!("crashed at injected fault; no session report");
                return;
            };
            print_summary(&report, cell.strategy.name());
            if terminated {
                if let Some(dir) = flight_dir {
                    let path = dir.join("sw-flight-server.ndjson");
                    let reason = format!(
                        "sigterm after {} of {} intervals",
                        report.intervals, intervals
                    );
                    match report.flight.dump(&path, &reason) {
                        Ok(n) => println!("flight ring ({n} B) -> {}", path.display()),
                        Err(e) => eprintln!("sw-serve: flight dump failed: {e}"),
                    }
                }
            }
            if let Some(snap) = report.observe {
                println!("{}", sw_observe::summary(&snap));
            }
        }
        Err(e) => die(&format!("session failed: {e}")),
    }
}

fn print_summary(report: &LiveServerReport, strategy: &str) {
    println!(
        "served {} intervals ({}): {} datagrams, {} report bytes, \
         {} updates, {} uplink answers",
        report.intervals,
        strategy,
        report.datagrams_sent,
        report.report_bytes,
        report.updates_applied,
        report.uplink_answers,
    );
}

/// Polls a peer's `--ha-announce` file until it appears and parses.
/// The fleet boots in any order; whoever comes up first simply waits
/// here for the rest.
fn await_peer_file(path: &str) -> PeerSpec {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(spec) = parse_peer_line(&text) {
                return spec;
            }
        }
        if Instant::now() >= deadline {
            die(&format!("peer file {path} never appeared or never parsed"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn parse_peer_line(text: &str) -> Option<PeerSpec> {
    let mut fields = text.split_whitespace();
    let node = fields.next()?.parse().ok()?;
    let client = fields.next()?.parse().ok()?;
    let rep = fields.next()?.parse().ok()?;
    Some(PeerSpec { node, rep, client })
}

fn die(msg: &str) -> ! {
    eprintln!("sw-serve: {msg}");
    exit(2);
}
