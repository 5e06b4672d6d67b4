//! The repository's benchmark: six workloads over the simulator and the
//! live stack, end-to-end metrics with tracing off and per-layer metrics
//! from a separate traced leg. See `README.md` beside this package.

mod assembled;
mod cell;
mod clock;
mod grid;
mod live;
mod outcome;
mod pin;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{json, Map, Value};

use outcome::Outcome;
use spec::{Sizes, Workload};

const DEFAULT_SEED: u64 = 1994;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: sw-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--agree]
  --workload NAME  run one workload (default: every workload, each in a fresh child process)
  --seed N         reseed every workload (default 1994)
  --seconds S      how long each workload measures (default 15)
  --trace [0|1]    1: the traced leg and the per-layer metrics; 0 (default): the timed leg
  --smoke          every workload at about 1/50 size and for its counted ops only: all checks, no timing claims
  --agree          two sides of three alternating timed sets each; fails if a median differs by more than its bound";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                // The driver passes 0 or 1; a bare `--trace` means 1.
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        // Only the counted ops: a smoke run makes no timing claim.
        args.seconds = 0.0;
    }
    Ok(args)
}

/// Why this build or host cannot produce comparable numbers, if so.
fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("this is a debug build; run with `cargo run --release`".into());
    }
    if sleepers::observe::Recorder::enabled("probe").is_enabled() {
        return Some(
            "the `observe` feature is compiled in; the benchmark times the uninstrumented build"
                .into(),
        );
    }
    if sleepers::faults::compiled_in() {
        return Some(
            "the `faults` feature is compiled in; the benchmark times the default build".into(),
        );
    }
    let nproc = nproc();
    if nproc < 2 {
        return Some(format!(
            "{nproc} CPU available; the 2-thread sweep, the 2-MU live session and both speed-up ratios need 2"
        ));
    }
    None
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What every output carries, so a number can be read against its host.
fn stamp(args: &Args, w: Workload, sizes: Sizes) -> Value {
    json!({
        "nproc": nproc(),
        "git_rev": command_line("git", &["rev-parse", "--short", "HEAD"]),
        "rustc": command_line("rustc", &["--version"]),
        "profile": "release",
        "features": "default (observe and faults off)",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workload": w.name(),
        "clients": sizes.clients,
        "warm_ops": sizes.warm,
        "counted_ops": sizes.counted,
    })
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, w: Workload) -> ExitCode {
    let sizes = w.sizes(args.smoke);
    let stamp = stamp(args, w, sizes);
    println!(
        "# {} ({})",
        w.name(),
        if args.trace {
            "traced leg"
        } else {
            "timed leg"
        }
    );
    println!("# why: {}", w.why());
    println!(
        "# stamp: {}",
        serde_json::to_string(&stamp).expect("a value serialises")
    );
    let wall = Instant::now();
    let cpu = stats::cpu_secs();
    let out = if !args.trace {
        match w {
            Workload::LiveLockstepTs => live::timed(sizes, args.seed, args.seconds),
            Workload::PaperGrid => grid::timed(sizes, args.seed, args.seconds),
            _ => cell::timed(w, sizes, args.seed, args.seconds),
        }
    } else {
        let (mut out, tracer) = match w {
            Workload::LiveLockstepTs => live::traced(sizes, args.seed, args.seconds),
            Workload::PaperGrid => grid::traced(sizes, args.seed, args.seconds, args.smoke),
            _ => cell::traced(w, sizes, args.seed, args.seconds),
        };
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu_s = stats::cpu_secs() - cpu;
        out.metric("check.stale_share", 1.0 - out.fresh_share(), "fraction");
        out.metric("check.ops_checked", out.attempted as f64, "count");
        out.metric("host.wall_s", wall_s, "s");
        out.metric("host.cpu_s", cpu_s, "s");
        out.metric("host.cpu_per_wall", cpu_s / wall_s, "ratio");
        out.metric(
            "trace.spans_recorded",
            tracer.spans_recorded() as f64,
            "count",
        );
        out.metric("trace.spans_written", tracer.raw().len() as f64, "count");
        write_trace(&mut out, w, &tracer, stamp);
        fill_per_layer(&mut out);
        out
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for (what, ok) in &out.checks {
        println!("# check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "# checked {} operations, {} failed",
        out.attempted, out.failed
    );
    for (name, value, unit) in &out.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: a correctness check failed", w.name());
        ExitCode::FAILURE
    }
}

/// Writes `benchmark/out/trace_<workload>.json`.
fn write_trace(out: &mut Outcome, w: Workload, tracer: &trace::Tracer, stamp: Value) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{}.json", w.name());
    let body = serde_json::to_string(&tracer.to_json(w.name(), stamp)).expect("a value serialises");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => out.note(format!("wrote {path}")),
        Err(e) => out.check(format!("write {path}: {e}"), false),
    }
}

/// Orders the traced leg's metrics as `BENCHMARK.json` lists them; a
/// metric the workload has no layer for reads 0.
fn fill_per_layer(out: &mut Outcome) {
    let emitted = std::mem::take(&mut out.metrics);
    let names = spec::per_layer_metrics();
    assert!(
        emitted
            .iter()
            .all(|(n, _, _)| names.iter().any(|(m, _)| m == n)),
        "a workload emitted a per-layer metric BENCHMARK.json does not list"
    );
    for (name, unit) in names {
        let value = emitted
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v);
        out.metric(name, value, unit);
    }
}

/// Runs `w` in a fresh child process (so its peak RSS is its own), echoes
/// the child's output and returns the parsed result line.
fn run_child(args: &Args, w: Workload) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name(), output.status));
    }
    let last = text.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{}: unreadable result line: {e}", w.name()))
}

/// Runs every workload, each in its own child; returns name → result.
fn run_set(args: &Args) -> Result<Map, String> {
    let mut set = Map::new();
    for w in Workload::ALL {
        set.insert(w.name().to_string(), run_child(args, w)?);
    }
    Ok(set)
}

fn metric_value(set: &Map, workload: &str, metric: &str) -> Option<f64> {
    set.get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `BENCHMARK.json`'s bound for each end-to-end metric.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = file
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a malformed end_to_end entry".to_string())
}

/// Runs of each side `--agree` takes the median of. One run against one
/// run says nothing on a shared VM, where two runs of one build differ by
/// more than any bound; the pipeline compares medians too.
const AGREE_ROUNDS: usize = 3;

/// Two sides of the same build, [`AGREE_ROUNDS`] timed sets each, run
/// alternately so that a slow spell of the host falls on both: every
/// workload x end-to-end metric must agree within the metric's bound,
/// median against median, and the simulated ones exactly on every run.
fn agree(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sides: [Vec<Map>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..AGREE_ROUNDS {
        for side in &mut sides {
            side.push(run_set(args)?);
        }
    }
    let mut ok = true;
    println!(
        "# agreement of two sides, the median of {AGREE_ROUNDS} alternating sets each (seed {}, {} s)",
        args.seed, args.seconds
    );
    println!(
        "{:<22} {:<26} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in Workload::ALL {
        for (metric, bound, lower_is_better) in &bounds {
            let values = |side: &[Map]| {
                side.iter()
                    .map(|set| metric_value(set, w.name(), metric))
                    .collect::<Option<Vec<f64>>>()
                    .ok_or("a metric is missing")
            };
            let (first, second) = (values(&sides[0])?, values(&sides[1])?);
            let median = |v: &[f64]| stats::quantile(&stats::sorted(v), 0.5);
            let (a, b) = (median(&first), median(&second));
            // The second side is the "change": worse by more than the
            // bound is a disagreement either way round.
            let gap = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            // Simulated time repeats bit for bit for a seed.
            let within = if spec::SIMULATED.contains(&metric.as_str()) {
                first.iter().chain(&second).all(|v| *v == a)
            } else {
                gap <= *bound
            };
            ok &= within;
            println!(
                "{:<22} {:<26} {a:>16.6} {b:>16.6} {:>8.3}% {:>6.1}%{}",
                w.name(),
                metric,
                gap * 100.0,
                bound * 100.0,
                if within {
                    ""
                } else if *lower_is_better == (b > a) {
                    "  WORSE"
                } else {
                    "  BETTER (beyond bound)"
                }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal() {
        eprintln!("sw-benchmark refuses to run: {why}");
        return ExitCode::from(3);
    }
    if let Some(w) = args.workload {
        return run_one(&args, w);
    }
    let verdict = if args.agree {
        agree(&args)
    } else {
        run_set(&args).map(|set| {
            println!(
                "{}",
                serde_json::to_string(&Value::Object(set)).expect("a value serialises")
            );
            true
        })
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("two sides of the same build disagree beyond a bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, both legs, every correctness check
    /// on. One test, so the legs run one after another: the paper grid
    /// sets `SW_THREADS` and the live workload binds sockets.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in Workload::ALL {
            let sizes = w.sizes(true);
            let timed = match w {
                Workload::LiveLockstepTs => live::timed(sizes, DEFAULT_SEED, 0.0),
                Workload::PaperGrid => grid::timed(sizes, DEFAULT_SEED, 0.0),
                _ => cell::timed(w, sizes, DEFAULT_SEED, 0.0),
            };
            let (mut traced, _spans) = match w {
                Workload::LiveLockstepTs => live::traced(sizes, DEFAULT_SEED, 0.0),
                Workload::PaperGrid => grid::traced(sizes, DEFAULT_SEED, 0.0, true),
                _ => cell::traced(w, sizes, DEFAULT_SEED, 0.0),
            };
            for out in [&timed, &traced] {
                assert!(out.correct(), "{}: {:?}", w.name(), out.checks);
                assert!(out.attempted > 0);
            }
            // Every metric a traced leg emits is one BENCHMARK.json lists.
            fill_per_layer(&mut traced);
        }
    }

    /// `(name, second field)` of every entry of a list in BENCHMARK.json.
    fn listed(file: &Value, list: &str, field: &str) -> Vec<(String, String)> {
        let text =
            |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).map(String::from);
        file.get(list)
            .and_then(Value::as_array)
            .expect("the list is there")
            .iter()
            .map(|e| {
                (
                    text(e, "name").expect("a name"),
                    text(e, field).expect("the field"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file: Value = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json is committed"),
        )
        .expect("BENCHMARK.json parses");
        let pairs = |items: Vec<(&str, &str)>| -> Vec<(String, String)> {
            items
                .into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            listed(&file, "workloads", "why"),
            pairs(Workload::ALL.iter().map(|w| (w.name(), w.why())).collect())
        );
        assert_eq!(
            listed(&file, "end_to_end", "unit"),
            pairs(spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
        );
        let per_layer = spec::per_layer_metrics();
        assert_eq!(
            listed(&file, "per_layer", "unit"),
            pairs(per_layer.iter().map(|(n, u)| (n.as_str(), *u)).collect())
        );
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
