//! Renderers for a [`Published`] view: Prometheus text exposition
//! (`/metrics`) and the hand-rolled JSON snapshot (`/snapshot.json`).
//!
//! The Prometheus mapping is deliberately plain:
//!
//! - publisher gauges → `sw_<name>` gauges;
//! - recorder counters → `sw_<name>_total` counters;
//! - recorder value histograms → `sw_<name>` Prometheus histograms
//!   whose cumulative `le` buckets are the recorder's power-of-two
//!   bucket upper bounds (only occupied buckets are emitted, plus the
//!   mandatory `+Inf`);
//! - recorder span timings → the same shape under `sw_<name>_ns`
//!   (wall-clock nanoseconds; these are the only non-deterministic
//!   series on the page);
//! - every sample carries the view's identity labels verbatim.
//!
//! Metric names are sanitized to `[a-zA-Z0-9_]`; everything is written
//! with `fmt::Write` into one `String` — no allocator churn beyond the
//! page itself, no dependencies.

use std::fmt::Write as _;

use sw_observe::event::{push_json_str, push_json_value, Value};
use sw_observe::hist::bucket_upper;
use sw_observe::Histogram;

use crate::ops::hub::Published;

/// Prometheus metric-name sanitation: every char outside
/// `[a-zA-Z0-9_]` becomes `_`.
fn metric_name(out: &mut String, prefix: &str, name: &str, suffix: &str) {
    out.push_str(prefix);
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out.push_str(suffix);
}

/// Renders the `{k="v",…}` label suffix (empty string for no labels).
fn label_suffix(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus-safe float: finite values via Rust's shortest roundtrip,
/// non-finite clamped to 0 (a poisoned gauge must not poison the page).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn hist_block(out: &mut String, name: &str, suffix: &str, labels: &str, h: &Histogram) {
    let mut full = String::new();
    metric_name(&mut full, "sw_", name, suffix);
    let _ = writeln!(out, "# TYPE {full} histogram");
    let base = if labels.is_empty() {
        String::new()
    } else {
        // Splice histogram labels inside the existing label set:
        // `{a="b"}` → `a="b",`.
        format!("{},", &labels[1..labels.len() - 1])
    };
    let mut seen = 0u64;
    for (bucket, &count) in h.counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        seen += count;
        let _ = writeln!(out, "{full}_bucket{{{base}le=\"{}\"}} {seen}", bucket_upper(bucket));
    }
    let _ = writeln!(out, "{full}_bucket{{{base}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{full}_sum{labels} {}", h.sum);
    let _ = writeln!(out, "{full}_count{labels} {}", h.count);
}

/// Renders the full Prometheus text page for one published view.
pub fn render_metrics(view: &Published) -> String {
    let labels = label_suffix(&view.labels);
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE sw_interval gauge");
    let _ = writeln!(out, "sw_interval{labels} {}", view.interval);
    for (name, v) in &view.gauges {
        let mut full = String::new();
        metric_name(&mut full, "sw_", name, "");
        let _ = writeln!(out, "# TYPE {full} gauge");
        out.push_str(&full);
        out.push_str(&labels);
        out.push(' ');
        push_f64(&mut out, *v);
        out.push('\n');
    }
    if let Some(snap) = &view.snapshot {
        for (name, v) in &snap.counters {
            let mut full = String::new();
            metric_name(&mut full, "sw_", name, "_total");
            let _ = writeln!(out, "# TYPE {full} counter");
            let _ = writeln!(out, "{full}{labels} {v}");
        }
        for (name, h) in &snap.hists {
            hist_block(&mut out, name, "", &labels, h);
        }
        for (name, h) in &snap.timings {
            hist_block(&mut out, name, "_ns", &labels, h);
        }
    }
    out
}

/// Renders one published view as a single JSON object (the
/// `/snapshot.json` body): interval, labels, gauges, and — when a
/// recorder snapshot is attached — its counters, histogram summaries,
/// and trace/series sizes.
pub fn render_json(view: &Published) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"interval\":{}", view.interval);
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in view.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push(':');
        push_json_str(&mut out, v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in view.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push(':');
        push_json_value(&mut out, &Value::F64(*v));
    }
    out.push('}');
    match &view.snapshot {
        None => out.push_str(",\"observe\":null"),
        Some(snap) => {
            out.push_str(",\"observe\":{\"cells\":[");
            for (i, cell) in snap.cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, cell);
            }
            out.push_str("],\"counters\":{");
            for (i, (k, v)) in snap.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push_str("},\"hists\":{");
            for (i, (k, h)) in snap.hists.iter().chain(snap.timings.iter()).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                let _ = write!(
                    out,
                    ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                    h.count,
                    h.sum,
                    if h.is_empty() { 0 } else { h.min },
                    h.max
                );
            }
            let _ = write!(
                out,
                "}},\"series_rows\":{},\"events\":{}}}",
                snap.series.rows.len(),
                snap.events.len()
            );
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_observe::ObserveSnapshot;

    fn view() -> Published {
        let mut snap = ObserveSnapshot::empty();
        snap.cells.push("cell".into());
        snap.counters.push(("reports_built", 12));
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(900);
        snap.hists.push(("report_bits", h));
        Published::at(9)
            .label("strategy", "TS")
            .gauge("uplink_queue_depth", 2.0)
            .snapshot(Some(snap))
    }

    #[test]
    fn metrics_page_has_all_families() {
        let page = render_metrics(&view());
        assert!(page.contains("sw_interval{strategy=\"TS\"} 9"));
        assert!(page.contains("# TYPE sw_uplink_queue_depth gauge"));
        assert!(page.contains("sw_uplink_queue_depth{strategy=\"TS\"} 2"));
        assert!(page.contains("# TYPE sw_reports_built_total counter"));
        assert!(page.contains("sw_reports_built_total{strategy=\"TS\"} 12"));
        // Cumulative power-of-two buckets: 0 → 1 sample, ≤3 → 2, ≤1023 → 3.
        assert!(page.contains("sw_report_bits_bucket{strategy=\"TS\",le=\"0\"} 1"));
        assert!(page.contains("sw_report_bits_bucket{strategy=\"TS\",le=\"3\"} 2"));
        assert!(page.contains("sw_report_bits_bucket{strategy=\"TS\",le=\"1023\"} 3"));
        assert!(page.contains("sw_report_bits_bucket{strategy=\"TS\",le=\"+Inf\"} 3"));
        assert!(page.contains("sw_report_bits_sum{strategy=\"TS\"} 903"));
        assert!(page.contains("sw_report_bits_count{strategy=\"TS\"} 3"));
    }

    #[test]
    fn unlabeled_and_snapshotless_views_render() {
        let page = render_metrics(&Published::at(1).gauge("x", f64::NAN));
        assert!(page.contains("sw_interval 1"));
        assert!(page.contains("sw_x 0"), "non-finite gauges clamp: {page}");
        assert!(!page.contains("_total"));
    }

    #[test]
    fn json_snapshot_is_wellformed() {
        let body = render_json(&view());
        assert!(body.starts_with("{\"interval\":9"));
        assert!(body.contains("\"strategy\":\"TS\""));
        assert!(body.contains("\"uplink_queue_depth\":2"));
        assert!(body.contains("\"reports_built\":12"));
        assert!(body.contains("\"report_bits\":{\"count\":3,\"sum\":903,\"min\":0,\"max\":900}"));
        assert!(body.ends_with("}"));
        let no_obs = render_json(&Published::at(2));
        assert!(no_obs.contains("\"observe\":null"));
    }
}
