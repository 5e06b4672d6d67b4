//! Method 1: gain from piggybacked hit histories (§8.1).
//!
//! The clients piggyback, on every uplink query for item `i`, "all the
//! timestamps of requests about `i` that were satisfied locally from
//! the time of the previous uplink request about i. In this way, the
//! server, knowing the update history and the full history of queries,
//! can compute both MHR(i) and AHR(i)."
//!
//! * `AHR(i)` — actual hit ratio: local hits / total queries in the
//!   period ([`PeriodItemStats::ahr`](super::PeriodItemStats::ahr));
//! * `MHR(i)` — the hit ratio a never-sleeping client would have
//!   achieved: replay the merged query/update sequence; a query hits
//!   iff no update landed since the previous query (Eq. 12's discrete
//!   counterpart).
//!
//! The gain of the last window change (Eq. 29/30, reconstructed — the
//! scanned equation's sign is garbled; the reconstruction below is the
//! only one where "gain positive ⇒ the bigger window paid off"):
//!
//! `Gain(i) = (AHR(i,new) − AHR(i,old))·q[i]·b_q
//!            − (Report(i,new) − Report(i,old))·(⌈log₂n⌉ + b_T)`
//!
//! i.e. uplink bits saved by the improved hit ratio minus downlink bits
//! spent keeping the item in more reports.

use sw_sim::SimTime;

/// Maximal hit ratio for an item given its full (merged) query and
/// update history in the period: a query is a *potential* hit iff no
/// update occurred since the previous query. The first query of the
/// period is charged as a miss (matching the paper's MHR derivation,
/// which conditions on a previous query existing).
pub(crate) fn estimate_mhr(query_times: &[SimTime], update_times: &[SimTime]) -> f64 {
    if query_times.is_empty() {
        return 0.0;
    }
    let mut queries = query_times.to_vec();
    queries.sort_unstable();
    let mut updates = update_times.to_vec();
    updates.sort_unstable();

    let mut hits = 0u64;
    let mut u_idx = 0usize;
    let mut prev_query: Option<SimTime> = None;
    for &q in &queries {
        // Advance the update cursor to the last update ≤ q.
        while u_idx < updates.len() && updates[u_idx] <= q {
            u_idx += 1;
        }
        let last_update_before_q = if u_idx == 0 { None } else { Some(updates[u_idx - 1]) };
        if let Some(pq) = prev_query {
            let updated_since = match last_update_before_q {
                Some(u) => u > pq,
                None => false,
            };
            if !updated_since {
                hits += 1;
            }
        }
        prev_query = Some(q);
    }
    hits as f64 / queries.len() as f64
}

/// Eq. 30 (reconstructed): positive gain ⇒ the window change paid for
/// itself in channel bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gain_method1(
    ahr_new: f64,
    ahr_old: f64,
    total_queries: u64,
    query_bits: u32,
    reports_new: u32,
    reports_old: u32,
    n_items: u64,
    timestamp_bits: u32,
) -> f64 {
    let id_bits = if n_items <= 1 {
        1.0
    } else {
        (64 - (n_items - 1).leading_zeros()) as f64
    };
    let uplink_saved = (ahr_new - ahr_old) * total_queries as f64 * query_bits as f64;
    let report_cost = (reports_new as f64 - reports_old as f64) * (id_bits + timestamp_bits as f64);
    uplink_saved - report_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn mhr_never_changing_item_is_near_one() {
        // 10 queries, no updates: 9 of 10 hit (first is charged a miss).
        let queries: Vec<SimTime> = (1..=10).map(|i| t(i as f64)).collect();
        let mhr = estimate_mhr(&queries, &[]);
        assert!((mhr - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mhr_update_between_every_query_is_zero() {
        let queries: Vec<SimTime> = (1..=5).map(|i| t(i as f64 * 10.0)).collect();
        let updates: Vec<SimTime> = (1..=5).map(|i| t(i as f64 * 10.0 - 5.0)).collect();
        assert_eq!(estimate_mhr(&queries, &updates), 0.0);
    }

    #[test]
    fn mhr_counts_only_intervening_updates() {
        // Queries at 10, 20, 30; one update at 15: exactly one miss
        // among the two follow-up queries.
        let mhr = estimate_mhr(&[t(10.0), t(20.0), t(30.0)], &[t(15.0)]);
        assert!((mhr - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mhr_update_exactly_at_query_counts_as_seen() {
        // An update at the same instant as the query is reflected in the
        // answer (Figure 2 semantics) — the *next* query still hits.
        let mhr = estimate_mhr(&[t(10.0), t(20.0)], &[t(10.0)]);
        assert!((mhr - 0.5).abs() < 1e-12, "got {mhr}");
    }

    #[test]
    fn mhr_empty_queries_is_zero() {
        assert_eq!(estimate_mhr(&[], &[t(1.0)]), 0.0);
    }

    #[test]
    fn gain_positive_when_hit_ratio_improves_cheaply() {
        // AHR improved 0.2 → 0.8 over 100 queries at 512 bits/query:
        // saves 30,720 bits; 5 extra report mentions at 522 bits cost
        // 2,610 bits.
        let g = gain_method1(0.8, 0.2, 100, 512, 10, 5, 1000, 512);
        assert!(g > 0.0);
        assert!((g - (0.6 * 100.0 * 512.0 - 5.0 * 522.0)).abs() < 1e-9);
    }

    #[test]
    fn gain_negative_when_reports_buy_nothing() {
        // Hit ratio unchanged, 20 extra mentions: pure cost.
        let g = gain_method1(0.5, 0.5, 50, 512, 25, 5, 1000, 512);
        assert!(g < 0.0);
    }

    #[test]
    fn gain_zero_query_item_only_counts_report_cost() {
        let g = gain_method1(0.0, 0.0, 0, 512, 3, 0, 1000, 512);
        assert!((g + 3.0 * 522.0).abs() < 1e-9);
    }
}
