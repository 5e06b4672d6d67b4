//! `sw-exp`: lists, regenerates and byte-checks every artifact of the
//! reproduction — the rows of `sw_experiments::catalogue::CATALOGUE`.
//!
//! ```text
//! sw-exp list               the catalogue: id, name, what it shows
//! sw-exp run <name>...      regenerate the named artifacts into results/
//! sw-exp all                regenerate every artifact
//! sw-exp check [name...]    regenerate at full settings in memory and
//!                           compare byte for byte with the committed
//!                           results/<name>.json; writes nothing
//! ```
//!
//! `SW_FAST=1` makes `run`/`all` use the quick settings (a smoke, not an
//! artifact: run it from a scratch directory); `check` ignores it. A
//! row that needs a `--features faults` build fails in any other. Under
//! cargo, `results/` is the workspace's; outside cargo it is
//! `./results`. `SW_THREADS` sizes the sweep runner as everywhere else.
//!
//! `run`, `all` and `check` print each row's wall time to stderr as
//! `<name>: <s> s`, then `total: <s> s`, so a log that discards stdout
//! still says where the time went.

use std::process::ExitCode;
use std::time::Instant;

use sw_experiments::catalogue::{Experiment, CATALOGUE};
use sw_experiments::results::{results_dir, write_text_in};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map_or("", String::as_str);
    let names = args.get(1..).unwrap_or_default();
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
        ("all" | "check", true) => Some(CATALOGUE.iter().collect()),
        ("run" | "check", false) => names
            .iter()
            .map(|name| CATALOGUE.iter().find(|e| e.name == name))
            .collect(),
        _ => None,
    };
    let Some(rows) = rows else {
        eprintln!(
            "usage: sw-exp list | run <name>... | all | check [name...]   (names: sw-exp list)"
        );
        return ExitCode::from(2);
    };

    let check = command == "check";
    let fast = !check && std::env::var("SW_FAST").is_ok();
    let dir = results_dir();
    let mut failed = Vec::new();
    let started = Instant::now();
    for e in &rows {
        println!("== {} {} — {}", e.id, e.name, e.about);
        let path = dir.join(e.file_name());
        let row_started = Instant::now();
        let outcome = if !e.runnable() {
            Err("fault injection is compiled out; rebuild with `--features faults`".to_string())
        } else {
            let fresh = (e.run)(fast);
            if check {
                match std::fs::read_to_string(&path) {
                    Ok(committed) if committed == fresh => Ok("identical:"),
                    Ok(_) => Err(format!("differs from {}", path.display())),
                    Err(err) => Err(format!("{}: {err}", path.display())),
                }
            } else {
                write_text_in(&dir, &e.file_name(), &fresh)
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
        println!(
            "{} of {} artifacts byte-identical to {}",
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
