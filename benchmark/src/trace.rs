//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans nest by a stack: a span's parent is whatever was open when it
//! was entered. Totals (self time and call count per name) cover every
//! span; the raw spans are kept for the first intervals only, so a trace
//! file stays small however long the run.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// Raw spans are kept while the interval index is below this …
pub const RAW_INTERVALS: u64 = 50;
/// … and while fewer than this many are held (≈ 90 bytes each as JSON,
/// so a file stays under 2 MB).
pub const RAW_SPAN_CAP: usize = 20_000;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub interval: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub self_ns: u64,
    pub calls: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    interval: u64,
    child_ns: u64,
}

/// The span recorder. A disabled tracer takes no timestamps and records
/// nothing, so the timed leg can run the same code as the traced one.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<Open>,
    raw: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    recorded: u64,
    /// The interval spans entered from now on belong to.
    interval: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            raw: Vec::new(),
            totals: BTreeMap::new(),
            recorded: 0,
            interval: 0,
        }
    }

    /// Switches recording on or off (warm-up runs untraced); returns the
    /// previous setting. Only between spans: one opened while enabled
    /// must be closed while enabled.
    pub fn set_enabled(&mut self, on: bool) -> bool {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        std::mem::replace(&mut self.enabled, on)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans entered from now on belong to `interval`.
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
    }

    /// Opens a span named `name` in the current interval.
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.now_ns();
            self.enter_at(name, now);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let now = self.now_ns();
            self.exit_at(now);
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// [`Self::enter`] at an explicit timestamp.
    pub fn enter_at(&mut self, name: &'static str, now_ns: u64) {
        self.open.push(Open {
            id: self.recorded + self.open.len() as u64,
            name,
            start_ns: now_ns,
            interval: self.interval,
            child_ns: 0,
        });
    }

    /// [`Self::exit`] at an explicit timestamp.
    ///
    /// # Panics
    /// Panics when no span is open.
    pub fn exit_at(&mut self, now_ns: u64) {
        let done = self.open.pop().expect("exit without a matching enter");
        let duration = now_ns.saturating_sub(done.start_ns);
        let total = self.totals.entry(done.name).or_default();
        total.self_ns += duration.saturating_sub(done.child_ns);
        total.calls += 1;
        self.recorded += 1;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        if done.interval < RAW_INTERVALS && self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Span {
                id: done.id,
                name: done.name,
                start_ns: done.start_ns,
                end_ns: now_ns,
                parent,
                interval: done.interval,
            });
        }
    }

    /// Self time and calls of `name` (zero when never entered).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span closed so far, kept raw or not.
    pub fn spans_recorded(&self) -> u64 {
        self.recorded
    }

    /// The raw spans that will be written.
    pub fn raw(&self) -> &[Span] {
        &self.raw
    }

    /// Folds another tracer's totals and raw spans into this one (the
    /// live workload records one tracer per MU thread).
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.self_ns += t.self_ns;
            mine.calls += t.calls;
        }
        self.recorded += other.recorded;
        let room = RAW_SPAN_CAP.saturating_sub(self.raw.len());
        self.raw.extend(other.raw.into_iter().take(room));
    }

    /// The trace file's contents.
    pub fn to_json(&self, workload: &str, stamp: Value) -> Value {
        let mut totals = serde_json::Map::new();
        for (name, t) in &self.totals {
            totals.insert(
                (*name).to_string(),
                json!({"self_ns": t.self_ns, "calls": t.calls}),
            );
        }
        let spans: Vec<Value> = self
            .raw
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "interval": s.interval,
                })
            })
            .collect();
        json!({
            "workload": workload,
            "stamp": stamp,
            "spans_recorded": self.recorded,
            "spans_written": self.raw.len(),
            "raw_intervals": RAW_INTERVALS,
            "totals": Value::Object(totals),
            "spans": Value::Array(spans),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter_at("parent", 100);
        t.enter_at("child", 150);
        t.enter_at("grandchild", 160);
        t.exit_at(180); // grandchild: 20
        t.exit_at(250); // child: 100 long, 80 self
        t.enter_at("child", 300);
        t.exit_at(340); // child: 40
        t.exit_at(500); // parent: 400 long, children cover 140
        assert_eq!(
            t.total("grandchild"),
            Total {
                self_ns: 20,
                calls: 1
            }
        );
        assert_eq!(
            t.total("child"),
            Total {
                self_ns: 120,
                calls: 2
            }
        );
        assert_eq!(
            t.total("parent"),
            Total {
                self_ns: 260,
                calls: 1
            }
        );
        assert_eq!(t.total("absent"), Total::default());
    }

    #[test]
    fn raw_spans_carry_their_parent() {
        let mut t = Tracer::new(true);
        t.set_interval(3);
        t.enter_at("a", 0);
        t.enter_at("b", 1);
        t.exit_at(2);
        t.exit_at(5);
        let raw = t.raw();
        assert_eq!(raw.len(), 2);
        assert_eq!((raw[0].name, raw[0].parent), ("b", Some(raw[1].id)));
        assert_eq!(
            (raw[1].name, raw[1].parent, raw[1].interval),
            ("a", None, 3)
        );
        assert_ne!(raw[0].id, raw[1].id);
    }

    #[test]
    fn totals_count_every_span_but_only_early_ones_are_kept() {
        let mut t = Tracer::new(true);
        for interval in 0..RAW_INTERVALS + 10 {
            t.set_interval(interval);
            t.enter_at("step", interval * 10);
            t.exit_at(interval * 10 + 4);
        }
        assert_eq!(t.spans_recorded(), RAW_INTERVALS + 10);
        assert_eq!(t.raw().len() as u64, RAW_INTERVALS);
        assert_eq!(t.total("step").self_ns, 4 * (RAW_INTERVALS + 10));

        let mut t = Tracer::new(true);
        for i in 0..RAW_SPAN_CAP as u64 + 5 {
            t.enter_at("call", i);
            t.exit_at(i);
        }
        assert_eq!(t.spans_recorded(), RAW_SPAN_CAP as u64 + 5);
        assert_eq!(t.raw().len(), RAW_SPAN_CAP);
        let file = t.to_json("w", Value::Null);
        assert_eq!(
            file.get("spans_recorded").and_then(Value::as_f64),
            Some(RAW_SPAN_CAP as f64 + 5.0)
        );
        assert_eq!(
            file.get("spans_written").and_then(Value::as_f64),
            Some(RAW_SPAN_CAP as f64)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.spans_recorded(), 0);
        assert!(t.raw().is_empty());
    }
}
