//! Ablations: the design knobs behind the strategies, swept one
//! at a time on a Scenario-1-like base.
//!
//! * **TS window multiple k** — the sleeper-immunity vs report-size
//!   dial (§3.1/§8's motivation);
//! * **timestamp width b_T** — §10's "timestamps given on the per
//!   minute instead of per second basis" granularity idea, as its
//!   report-size consequence;
//! * **broadcast latency L** — the paper's fixed 10 s, swept: longer
//!   intervals amortize the report but batch more updates and delay
//!   answers;
//! * **SIG signature width g and diagnosable-difference budget f** —
//!   false-alarm probability vs report size (Eqs. 21–25);
//! * **group-report granularity G** — §10's aggregate reports: report
//!   bits vs collateral invalidation, simulated.

use sleepers::prelude::*;

fn base() -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.n_items = 1_000;
    p.mu = 1e-3;
    p.k = 10;
    p
}

pub(super) fn run(fast: bool) -> String {
    let intervals = if fast { 150 } else { 600 };
    let mut out = serde_json::Map::new();

    // --- k: TS window multiple (analytic, s = 0.5 sleepers) ---------
    println!("Ablation 1 — TS window multiple k (s = 0.5, μ = 1e-3)");
    println!("{:>6} {:>10} {:>12} {:>10}", "k", "h_ts(mid)", "B_c bits", "e_ts");
    let mut k_rows = Vec::new();
    for k in [1u32, 2, 5, 10, 20, 50] {
        let mut p = base().with_s(0.5);
        p.k = k;
        let h = h_ts_estimate(&p);
        let bits = sleepers::analysis::throughput::ts_report_bits(&p);
        let e = effectiveness_at(&p, 0.5).e_ts;
        println!(
            "{:>6} {:>10.4} {:>12.0} {:>10}",
            k,
            h,
            bits,
            e.map(|e| format!("{e:.4}")).unwrap_or_else(|| "--".into())
        );
        k_rows.push(serde_json::json!({"k": k, "h_ts": h, "report_bits": bits, "e_ts": e}));
    }
    out.insert("ts_window_k".into(), k_rows.into());

    // --- b_T: timestamp width (analytic) ----------------------------
    println!();
    println!("Ablation 2 — timestamp width b_T (TS report size / effectiveness)");
    println!("{:>6} {:>12} {:>10}", "b_T", "B_c bits", "e_ts");
    let mut bt_rows = Vec::new();
    for bt in [32u32, 64, 128, 256, 512] {
        let mut p = base().with_s(0.3);
        p.timestamp_bits = bt;
        let bits = sleepers::analysis::throughput::ts_report_bits(&p);
        let e = effectiveness_at(&p, 0.3).e_ts;
        println!(
            "{:>6} {:>12.0} {:>10}",
            bt,
            bits,
            e.map(|e| format!("{e:.4}")).unwrap_or_else(|| "--".into())
        );
        bt_rows.push(serde_json::json!({"b_t": bt, "report_bits": bits, "e_ts": e}));
    }
    out.insert("timestamp_bits".into(), bt_rows.into());

    // --- L: broadcast latency (analytic) -----------------------------
    println!();
    println!("Ablation 3 — broadcast latency L (s = 0.3)");
    println!("{:>6} {:>10} {:>10} {:>10}", "L", "e_ts", "e_at", "e_sig");
    let mut l_rows = Vec::new();
    for l in [1.0f64, 5.0, 10.0, 30.0, 60.0] {
        let mut p = base().with_s(0.3);
        p.latency_secs = l;
        let e = effectiveness_at(&p, 0.3);
        let show = |v: Option<f64>| v.map(|e| format!("{e:.4}")).unwrap_or_else(|| "--".into());
        println!("{:>6} {:>10} {:>10} {:>10}", l, show(e.e_ts), show(e.e_at), show(e.e_sig));
        l_rows.push(serde_json::json!({
            "latency": l, "e_ts": e.e_ts, "e_at": e.e_at, "e_sig": e.e_sig
        }));
    }
    out.insert("latency".into(), l_rows.into());

    // --- SIG g and f (analytic) --------------------------------------
    println!();
    println!("Ablation 4 — SIG width g and budget f");
    println!("{:>4} {:>4} {:>8} {:>12} {:>10}", "f", "g", "m", "B_c bits", "e_sig");
    let mut sig_rows = Vec::new();
    for (f, g) in [(5u32, 16u32), (10, 8), (10, 16), (10, 32), (20, 16), (40, 16)] {
        let mut p = base().with_s(0.3);
        p.f = f;
        p.g = g;
        let m = sleepers::analysis::throughput::sig_m(&p);
        let bits = sleepers::analysis::throughput::sig_report_bits(&p);
        let e = effectiveness_at(&p, 0.3).e_sig;
        println!(
            "{:>4} {:>4} {:>8} {:>12.0} {:>10}",
            f,
            g,
            m,
            bits,
            e.map(|e| format!("{e:.4}")).unwrap_or_else(|| "--".into())
        );
        sig_rows.push(serde_json::json!({
            "f": f, "g": g, "m": m, "report_bits": bits, "e_sig": e
        }));
    }
    out.insert("sig_f_g".into(), sig_rows.into());

    // --- Group granularity (simulated) --------------------------------
    println!();
    println!("Ablation 5 — §10 aggregate reports: group count G (simulated, s = 0.3)");
    println!(
        "{:>6} {:>12} {:>10} {:>14}",
        "G", "mean grp sz", "h (sim)", "report entries"
    );
    let mut g_rows = Vec::new();
    for groups in [1_000u64, 200, 50, 10] {
        let cfg = CellConfig::new(base().with_s(0.3))
            .with_clients(10)
            .with_hotspot_size(25)
            .with_seed(0xE18);
        let mut sim =
            CellSimulation::new(cfg, Strategy::GroupReports { groups }).expect("valid");
        let r = sim.run_measured(intervals / 4, intervals).expect("fits");
        let entries_per_interval = r.report_bits_mean() / 10.0; // ⌈log₂1000⌉ = 10 bits/id
        println!(
            "{:>6} {:>12.1} {:>10.4} {:>14.1}",
            groups,
            1000.0 / groups as f64,
            r.hit_ratio(),
            entries_per_interval
        );
        g_rows.push(serde_json::json!({
            "groups": groups,
            "hit_ratio": r.hit_ratio(),
            "entries_per_interval": entries_per_interval
        }));
    }
    out.insert("group_granularity".into(), g_rows.into());
    println!();
    println!("G = n is exact AT; coarser groups shrink the id list but");
    println!("invalidate innocent same-group neighbours (lower h).");

    crate::results::to_json(&serde_json::Value::Object(out))
}
