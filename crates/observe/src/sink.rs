//! Output sinks: the end-of-run summary table and warning lines.
//!
//! The NDJSON trace writer lives on the snapshot itself
//! ([`crate::ObserveSnapshot::to_ndjson`]); this module renders the
//! human-facing end-of-run view — counters, histogram quantiles, series
//! totals — plus the overload warning the figure rows print when a run
//! overflowed its channel budget.

use std::fmt::Write as _;

use crate::ObserveSnapshot;

/// Renders the end-of-run summary table. Counters, value histograms,
/// series column totals and the event census are deterministic; the
/// span-timer section is wall clock and labelled as such.
pub fn summary(snap: &ObserveSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== observation summary ({} cell(s)) ===", snap.cells.len());

    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<28} {v:>14}");
        }
    }

    if !snap.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12.1} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.is_empty() { 0 } else { h.max },
            );
        }
    }

    if !snap.series.columns.is_empty() {
        let _ = writeln!(
            out,
            "series: {} row(s) over {} column(s); totals:",
            snap.series.rows.len(),
            snap.series.columns.len()
        );
        for (name, sum) in snap.series.columns.iter().zip(snap.series.column_sums()) {
            let _ = writeln!(out, "  {name:<28} {sum:>14}");
        }
    }

    if !snap.events.is_empty() {
        let _ = writeln!(out, "events ({} total):", snap.events.len());
        let mut kinds: Vec<(&'static str, u64)> = Vec::new();
        for e in &snap.events {
            crate::snapshot::bump(&mut kinds, e.kind, 1);
        }
        for (kind, n) in kinds {
            let _ = writeln!(out, "  {kind:<28} {n:>14}");
        }
    }

    if !snap.timings.is_empty() {
        let _ = writeln!(out, "span timings (wall-clock ns; non-deterministic):");
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>10} {:>10}",
            "span", "count", "mean", "p50", "p99"
        );
        for (name, h) in &snap.timings {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12.0} {:>10} {:>10}",
                name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
    }

    if let Some(w) = overflow_warning(snap.counter("overflow_exchanges")) {
        let _ = writeln!(out, "{w}");
    }
    out
}

/// The visible end-of-run warning for channel overflow: `Some` when any
/// query exchange did not fit its interval's bit budget (`§4`'s `L·W`),
/// which means the configuration oversubscribes the channel and the
/// throughput numbers are accounting fiction past that point.
pub fn overflow_warning(overflow_exchanges: u64) -> Option<String> {
    (overflow_exchanges > 0).then(|| {
        format!(
            "WARNING: {overflow_exchanges} query exchange(s) overflowed the interval bit \
             budget; the cell is oversubscribed and throughput figures are unreliable"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::hist_slot;

    #[test]
    fn summary_renders_all_sections() {
        let mut s = ObserveSnapshot::empty();
        s.cells.push("c".into());
        s.counters.push(("overflow_exchanges", 2));
        hist_slot(&mut s.hists, "report_bits").record(512);
        hist_slot(&mut s.timings, "server_build").record(1_000);
        let text = summary(&s);
        assert!(text.contains("counters:"));
        assert!(text.contains("report_bits"));
        assert!(text.contains("non-deterministic"));
        assert!(text.contains("WARNING: 2 query exchange(s)"));
    }

    #[test]
    fn overflow_warning_only_fires_when_nonzero() {
        assert!(overflow_warning(0).is_none());
        assert!(overflow_warning(7).unwrap().contains("7"));
    }
}
