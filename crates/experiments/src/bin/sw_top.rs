//! `sw-top` — a terminal dashboard for a live `sw-serve` session.
//!
//! Polls the daemon's metrics endpoint (see `sw-serve
//! --metrics-port`) and renders a refreshing per-strategy view of the
//! session: identity labels, instantaneous gauges, and — when the
//! server was built with `--features observe` — the recorder's
//! counters.
//!
//! Usage:
//!
//! ```text
//! sw-top --metrics ADDR[,ADDR...] [--interval-ms N] [--retries N] [--once]
//! ```
//!
//! `--once` prints a single snapshot and exits (the CI smoke mode);
//! otherwise the screen refreshes every `--interval-ms` (default 500).
//! A failed poll is not the end: the dashboard shows a
//! `DISCONNECTED (n attempts)` banner and retries, rotating through
//! the `--metrics` list — so when a replicated fleet's primary dies,
//! sw-top reattaches to the successor's exporter and the header's
//! epoch/role line shows the takeover. Only after `--retries`
//! consecutive failures (default 10) does it conclude the session is
//! over and exit.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

use sw_experiments::live_cli::{take_flag, take_switch};

/// One parsed sample: metric name, rendered label set, value text.
struct Sample {
    name: String,
    labels: String,
    value: String,
}

/// Parses a Prometheus text page into (gauges, counters), keyed off
/// the `# TYPE` comments the exporter emits. Histogram families are
/// summarized by their `_count` sample.
fn parse_page(page: &str) -> (Vec<Sample>, Vec<Sample>) {
    let mut kind = "";
    let mut gauges = Vec::new();
    let mut counters = Vec::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            kind = rest.split_whitespace().nth(1).unwrap_or("");
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match key.split_once('{') {
            Some((n, l)) => (n, format!("{{{l}")),
            None => (key, String::new()),
        };
        let sample = |n: &str| Sample {
            name: n.to_string(),
            labels: labels.clone(),
            value: value.to_string(),
        };
        match kind {
            "gauge" => gauges.push(sample(name)),
            "counter" => counters.push(sample(name)),
            "histogram" => {
                if let Some(base) = name.strip_suffix("_count") {
                    counters.push(sample(&format!("{base}_count")));
                }
            }
            _ => {}
        }
    }
    (gauges, counters)
}

/// Pulls a label's value out of a rendered `{k="v",…}` set.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let start = labels.find(&format!("{key}=\""))? + key.len() + 2;
    let end = labels[start..].find('"')?;
    Some(&labels[start..start + end])
}

fn render(addr: SocketAddr, page: &str) -> String {
    let (gauges, counters) = parse_page(page);
    let mut out = String::new();
    let identity = gauges
        .iter()
        .chain(&counters)
        .map(|s| s.labels.as_str())
        .find(|l| !l.is_empty())
        .unwrap_or("");
    let strategy = label_value(identity, "strategy").unwrap_or("?");
    let role = label_value(identity, "role").unwrap_or("?");
    let interval = gauges
        .iter()
        .find(|s| s.name == "sw_interval")
        .map(|s| s.value.as_str())
        .unwrap_or("?");
    // Cluster view, present only when the server runs replicated
    // (`sw-serve --ha-node`): the primary epoch and whether this
    // node is the one broadcasting.
    let gauge_value = |name: &str| gauges.iter().find(|s| s.name == name).map(|s| &s.value);
    let ha = gauge_value("sw_ha_epoch").map(|epoch| {
        let primary = gauge_value("sw_ha_role")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            >= 1.0;
        let ha_role = if primary { "PRIMARY" } else { "replica" };
        format!(" — epoch {epoch} {ha_role}")
    });
    let _ = writeln!(
        out,
        "sw-top — {addr} — {role}/{strategy} — interval {interval}{}",
        ha.unwrap_or_default()
    );
    let _ = writeln!(out, "{:—<64}", "");
    let width = gauges
        .iter()
        .chain(&counters)
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0);
    for s in gauges.iter().filter(|s| s.name != "sw_interval") {
        let _ = writeln!(out, "  {:width$}  {}", s.name, s.value);
    }
    if !counters.is_empty() {
        let _ = writeln!(out, "  {:—<62}", "");
        for s in &counters {
            let _ = writeln!(out, "  {:width$}  {}", s.name, s.value);
        }
    }
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addrs: Vec<SocketAddr> = take_flag(&mut args, "--metrics")
        .unwrap_or_else(|| die("--metrics ADDR[,ADDR...] is required"))
        .split(',')
        .map(|a| a.parse().unwrap_or_else(|e| die(&format!("--metrics {a}: {e}"))))
        .collect();
    let interval_ms: u64 = take_flag(&mut args, "--interval-ms")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--interval-ms: {e}"))))
        .unwrap_or(500);
    let retries: u32 = take_flag(&mut args, "--retries")
        .map(|v| v.parse().unwrap_or_else(|e| die(&format!("--retries: {e}"))))
        .unwrap_or(10);
    let once = take_switch(&mut args, "--once");
    if !args.is_empty() {
        die(&format!("unrecognized arguments: {args:?}"));
    }

    let timeout = Duration::from_secs(2);
    let mut seen_any = false;
    let mut attempts = 0u32;
    let mut at = 0usize;
    loop {
        let addr = addrs[at % addrs.len()];
        match sw_live::ops::http::get(addr, "/metrics", timeout) {
            Ok(page) => {
                seen_any = true;
                attempts = 0;
                if once {
                    print!("{}", render(addr, &page));
                    return;
                }
                // Clear + home, then the fresh frame.
                print!("\x1b[2J\x1b[H{}", render(addr, &page));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(e) if once => die(&format!("GET {addr}/metrics: {e}")),
            Err(e) => {
                // Not the end of the world: the primary may have just
                // crashed. Rotate to the next exporter (the announced
                // successor carries the session forward) and keep
                // polling until the retry budget is gone.
                attempts += 1;
                if attempts > retries {
                    if seen_any {
                        println!("sw-top: endpoint gone after {attempts} attempts; session over");
                        return;
                    }
                    die(&format!("GET {addr}/metrics: {e}"));
                }
                at += 1;
                println!(
                    "sw-top: DISCONNECTED ({attempts} attempts) — retrying {}",
                    addrs[at % addrs.len()]
                );
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sw-top: {msg}");
    exit(2);
}
