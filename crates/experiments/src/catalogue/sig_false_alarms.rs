//! Monte-Carlo measurement of SIG's false-alarm and missed-
//! detection rates against the analytical quantities of §4.5 — the
//! Chernoff bound of Eq. 22 and the detection guarantee of the
//! degree-normalized decoder (see `sw_signature::syndrome` for why the
//! operational threshold differs from the paper's literal `K·m·p`).

use sleepers::signature::{
    combine, item_signature, SigPlan, SubsetFamily, SyndromeDecoder,
};
use sleepers::sim::{MasterSeed, StreamId};

#[derive(serde::Serialize)]
struct Row {
    f: u32,
    actual_differing: u32,
    trials: u32,
    false_alarm_rate: f64,
    missed_detection_rate: f64,
    chernoff_bound_k2: f64,
}

fn experiment(f: u32, d: u32, trials: u32) -> Row {
    let n = 1_000u64;
    let g = 16;
    let cache_size = 30usize;
    let plan = SigPlan::new(f, g, n, 0.05, SigPlan::DEFAULT_K);
    let mut rng = MasterSeed(0xE14).stream(StreamId::Custom { tag: (f as u64) << 32 | d as u64 });

    let mut false_alarms = 0u64;
    let mut valid_checked = 0u64;
    let mut missed = 0u64;
    let mut invalid_checked = 0u64;

    for trial in 0..trials {
        let family = SubsetFamily::new(0xBEEF ^ trial as u64, plan.m, f);
        let decoder = SyndromeDecoder::new(family, plan);
        let values: Vec<u64> = (0..n).map(|i| i * 77 + 13).collect();
        // Client caches items 0..cache_size with current signatures.
        let cached: Vec<u64> = (0..cache_size as u64).collect();
        let broadcast_before: Vec<u64> = (0..plan.m)
            .map(|j| {
                combine(
                    (0..n)
                        .filter(|&i| family.contains(j, i))
                        .map(|i| item_signature(i, values[i as usize], g)),
                )
            })
            .collect();
        // d items change: the first ⌈d/3⌉ inside the cache, the rest
        // outside (so both false alarms and detections are exercised).
        let inside = (d as usize / 3).max(usize::from(d > 0)).min(cache_size);
        let mut new_values = values.clone();
        for c in 0..inside as u64 {
            new_values[c as usize] ^= (0xDEAD_0000 + rng.next_u64()) | 1;
        }
        for r in 0..(d as u64).saturating_sub(inside as u64) {
            let idx = (cache_size as u64 + 100 + r) % n;
            new_values[idx as usize] ^= (0xBEEF_0000 + rng.next_u64()) | 1;
        }
        let broadcast_after: Vec<u64> = (0..plan.m)
            .map(|j| {
                combine(
                    (0..n)
                        .filter(|&i| family.contains(j, i))
                        .map(|i| item_signature(i, new_values[i as usize], g)),
                )
            })
            .collect();
        let diag = decoder.diagnose(
            &cached,
            |j| Some(broadcast_before[j as usize]),
            &broadcast_after,
        );
        for &item in &cached {
            let truly_changed = item < inside as u64;
            let flagged = diag.invalidated.contains(&item);
            if truly_changed {
                invalid_checked += 1;
                if !flagged {
                    missed += 1;
                }
            } else {
                valid_checked += 1;
                if flagged {
                    false_alarms += 1;
                }
            }
        }
    }

    Row {
        f,
        actual_differing: d,
        trials,
        false_alarm_rate: false_alarms as f64 / valid_checked.max(1) as f64,
        missed_detection_rate: missed as f64 / invalid_checked.max(1) as f64,
        chernoff_bound_k2: plan.false_alarm_bound,
    }
}

pub(super) fn run(fast: bool) -> String {
    let trials = if fast { 10 } else { 60 };

    println!("SIG diagnosis quality (Monte Carlo, n=1000, g=16, cache=30)");
    println!(
        "{:>4} {:>8} {:>8} {:>14} {:>14} {:>14}",
        "f", "actual d", "trials", "false alarm", "missed", "Chernoff(K)"
    );
    let mut rows = Vec::new();
    for (f, d) in [(10u32, 1u32), (10, 5), (10, 10), (10, 30), (20, 10), (20, 60)] {
        let row = experiment(f, d, trials);
        println!(
            "{:>4} {:>8} {:>8} {:>14.4} {:>14.4} {:>14.6}",
            row.f,
            row.actual_differing,
            row.trials,
            row.false_alarm_rate,
            row.missed_detection_rate,
            row.chernoff_bound_k2
        );
        rows.push(row);
    }
    println!();
    println!("Shape checks (paper §3.3/§4.5):");
    println!("  * d ≤ f: false alarms rare, detections ~certain;");
    println!("  * d > f: decoder returns a SUPERSET — false alarms climb,");
    println!("    detections stay (safe direction).");

    crate::results::to_json(&rows)
}
