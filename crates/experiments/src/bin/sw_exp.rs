//! `sw-exp`: lists, regenerates and checks every artifact of the
//! reproduction — the rows of `sw_experiments::catalogue::CATALOGUE`.
//!
//! ```text
//! sw-exp list               the catalogue: id, name, what it shows
//! sw-exp run <name>...      regenerate the named artifacts into results/
//! sw-exp all                regenerate every artifact
//! sw-exp replicate [name...]
//!                           run every (or each named) row over seeds
//!                           0..R and write results/<name>.ci.json: each
//!                           JSON leaf's mean, SD and n, or its exact
//!                           value when no seed moves it
//! sw-exp check [name...]    regenerate at full settings in memory and
//!                           compare byte for byte with the committed
//!                           results/<name>.json; writes nothing
//! sw-exp check --stat [--first K] [name...]
//!                           regenerate the replicates (seeds K..K+R,
//!                           default 0) and test every leaf against the
//!                           committed results/<name>.ci.json; writes
//!                           nothing
//! ```
//!
//! `check --stat` is the gate for a change that re-draws a random stream
//! on purpose, where byte identity must fail. A leaf fails when its mean
//! moved by more than the two-sample critical value allows, at a
//! family-wise 1 % per row (`sw_experiments::replicate::compare`); every
//! failing leaf is named by its JSON pointer. `--first` picks a seed list
//! disjoint from the committed one, which must pass too.
//!
//! `SW_FAST=1` makes `run`/`all`/`replicate` use the quick settings (a
//! smoke, not an artifact: run it from a scratch directory); `check`
//! ignores it. A row that needs a `--features faults` build fails in any
//! other. Under cargo, `results/` is the workspace's; outside cargo it
//! is `./results`. `SW_THREADS` sizes the sweep runner as everywhere
//! else.
//!
//! Every command but `list` prints each row's wall time to stderr as
//! `<name>: <s> s`, then `total: <s> s`, so a log that discards stdout
//! still says where the time went.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use sw_experiments::catalogue::{Experiment, CATALOGUE};
use sw_experiments::replicate::{compare, Summary, REPLICATES};
use sw_experiments::results::{results_dir, write_text_in};

const USAGE: &str = "usage: sw-exp list | run <name>... | all | replicate [name...] | \
check [--stat [--first K]] [name...]   (names: sw-exp list)";

/// `check --stat`: the replicates of `e` against its committed summary.
fn stat_check(e: &Experiment, first: u64, dir: &Path) -> Result<&'static str, String> {
    let path = dir.join(e.ci_file_name());
    let committed_text =
        std::fs::read_to_string(&path).map_err(|err| format!("{}: {err}", path.display()))?;
    let committed =
        Summary::parse(&committed_text).map_err(|err| format!("{}: {err}", path.display()))?;
    let fresh = e.replicates(false, first);
    let verdict = compare(&committed, &fresh);
    let max_z = verdict
        .max_z
        .as_ref()
        .map_or("no noisy leaf".to_string(), |(z, at)| {
            format!("max |z| {z:.2} at {at}")
        });
    eprintln!(
        "{}: {} leaves judged ({} noisy, {max_z}), {} unjudged",
        e.name, verdict.judged, verdict.noisy, verdict.unjudged
    );
    if !verdict.failures.is_empty() {
        for failure in &verdict.failures {
            eprintln!("{}: {failure}", e.name);
        }
        return Err(format!(
            "{} of {} leaves moved beyond seed noise",
            verdict.failures.len(),
            verdict.judged
        ));
    }
    Ok(if fresh.to_json() == committed_text {
        "identical:"
    } else {
        "within seed noise of"
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map_or("", String::as_str);
    let mut names = args.get(1..).unwrap_or_default();
    let mut stat = false;
    let mut first = 0u64;
    if command == "check" && names.first().map(String::as_str) == Some("--stat") {
        stat = true;
        names = &names[1..];
        if names.first().map(String::as_str) == Some("--first") {
            let Some(k) = names.get(1).and_then(|k| k.parse().ok()) else {
                eprintln!("--first takes a replicate index\n{USAGE}");
                return ExitCode::from(2);
            };
            first = k;
            names = &names[2..];
        }
    }
    let rows: Option<Vec<&Experiment>> = match (command, names.is_empty()) {
        ("list", true) => {
            for e in CATALOGUE {
                let faults = if e.needs_faults {
                    " [--features faults]"
                } else {
                    ""
                };
                println!("{:<6} {:<20} {}{faults}", e.id, e.name, e.about);
            }
            return ExitCode::SUCCESS;
        }
        ("all" | "check" | "replicate", true) => Some(CATALOGUE.iter().collect()),
        ("run" | "check" | "replicate", false) => names
            .iter()
            .map(|name| CATALOGUE.iter().find(|e| e.name == name))
            .collect(),
        _ => None,
    };
    let Some(rows) = rows else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let check = command == "check";
    let summaries = stat || command == "replicate";
    let fast = !check && std::env::var("SW_FAST").is_ok();
    let dir = results_dir();
    let mut failed = Vec::new();
    let started = Instant::now();
    if summaries {
        eprintln!(
            "replicates {first}..{} ({REPLICATES} seeds per row)",
            first + REPLICATES
        );
    }
    for e in &rows {
        println!("== {} {} — {}", e.id, e.name, e.about);
        let file = if summaries {
            e.ci_file_name()
        } else {
            e.file_name()
        };
        let path = dir.join(&file);
        let row_started = Instant::now();
        let outcome = if !e.runnable() {
            Err("fault injection is compiled out; rebuild with `--features faults`".to_string())
        } else if stat {
            stat_check(e, first, &dir)
        } else {
            let fresh = if summaries {
                e.replicates(fast, 0).to_json()
            } else {
                (e.run)(fast, 0)
            };
            if check {
                match std::fs::read_to_string(&path) {
                    Ok(committed) if committed == fresh => Ok("identical:"),
                    Ok(_) => Err(format!("differs from {}", path.display())),
                    Err(err) => Err(format!("{}: {err}", path.display())),
                }
            } else {
                write_text_in(&dir, &file, &fresh)
                    .map(|_| "wrote")
                    .map_err(|err| format!("{}: {err}", path.display()))
            }
        };
        eprintln!("{}: {:.1} s", e.name, row_started.elapsed().as_secs_f64());
        match outcome {
            Ok(verb) => println!("{verb} {}\n", path.display()),
            Err(why) => {
                eprintln!("{}: {why}", e.name);
                failed.push(e.name);
            }
        }
    }
    eprintln!("total: {:.1} s", started.elapsed().as_secs_f64());
    if check {
        let what = if stat {
            "replicate summaries within seed noise of"
        } else {
            "artifacts byte-identical to"
        };
        println!(
            "{} of {} {what} {}",
            rows.len() - failed.len(),
            rows.len(),
            dir.display()
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
