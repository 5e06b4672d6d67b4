//! Method 2: gain from uplink-count deltas (§8.2).
//!
//! "In this method, the clients do not send extra information with the
//! queries. The server uses a much coarser measure": the change in the
//! number of uplink queries between consecutive evaluation periods.
//!
//! Reconstructed Eq. 32 (the scan inserts a spurious `q[i]` factor that
//! §8.2's own prose rules out — without piggybacking the server cannot
//! know `q[i]`):
//!
//! `Gain(i) = (Q[i,old] − Q[i,new])·b_q
//!            − (Report(i,new) − Report(i,old))·(⌈log₂n⌉ + b_T)`
//!
//! Fewer uplink queries than last period ⇒ the larger window saved
//! uplink bits. The paper notes the failure mode we keep: "if a sudden,
//! bursty activity over an item occurs, this method will wrongfully
//! diagnose the need to change the window size."

/// Eq. 32 (reconstructed).
pub(crate) fn gain_method2(
    uplink_old: u64,
    uplink_new: u64,
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
    let uplink_saved = (uplink_old as f64 - uplink_new as f64) * query_bits as f64;
    let report_cost = (reports_new as f64 - reports_old as f64) * (id_bits + timestamp_bits as f64);
    uplink_saved - report_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_uplinks_is_gain() {
        let g = gain_method2(20, 5, 512, 8, 8, 1000, 512);
        assert!((g - 15.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn more_report_mentions_is_cost() {
        let g = gain_method2(10, 10, 512, 12, 2, 1000, 512);
        assert!((g + 10.0 * 522.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_queries_mislead_method2() {
        // The documented failure mode: a burst doubles uplink count with
        // no window change; Method 2 sees negative gain and will shrink
        // the window even though the window was fine.
        let g = gain_method2(10, 40, 512, 5, 5, 1000, 512);
        assert!(g < 0.0);
    }
}
