//! The metrics rendezvous: periodic snapshot swaps from a live run.
//!
//! A running session owns its [`sw_observe::Recorder`] exclusively —
//! that is what keeps recording free of synchronization. The hub is
//! the bridge to concurrent observers: once per interval the publisher
//! assembles a [`Published`] value (gauges it computed, labels, and —
//! when observing — a clone of everything the recorder has seen so
//! far) and swaps it in behind an `Arc`. The mutex guards only the
//! pointer swap and the pointer clone, so readers polling `/metrics`
//! can never hold the publisher for longer than an `Arc::clone`.

use std::sync::{Arc, Mutex};

use sw_observe::ObserveSnapshot;

/// One published view of a live session, immutable once swapped in.
#[derive(Debug, Clone, Default)]
pub struct Published {
    /// The broadcast interval this view was published at (0: none yet).
    pub interval: u64,
    /// Constant identity labels rendered onto every metric
    /// (`strategy`, `role`, …).
    pub labels: Vec<(&'static str, String)>,
    /// Instantaneous gauges computed by the publisher (queue depths,
    /// latencies in seconds, population counts).
    pub gauges: Vec<(&'static str, f64)>,
    /// Everything the live recorder has accumulated so far; `None`
    /// when the `observe` feature is off or the recorder is disabled.
    pub snapshot: Option<ObserveSnapshot>,
}

impl Published {
    /// A view stamped at `interval` with no labels, gauges, or
    /// snapshot yet.
    pub fn at(interval: u64) -> Self {
        Published {
            interval,
            ..Published::default()
        }
    }

    /// Adds a constant identity label.
    pub fn label(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.labels.push((name, value.into()));
        self
    }

    /// Sets a gauge (last write wins on duplicate names).
    pub fn gauge(mut self, name: &'static str, value: f64) -> Self {
        match self.gauges.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
        self
    }

    /// Sets one gauge per `(name, count)` pair of a counter record —
    /// what `Counters::named()` yields.
    pub fn gauges(self, named: impl IntoIterator<Item = (&'static str, u64)>) -> Self {
        named
            .into_iter()
            .fold(self, |view, (name, v)| view.gauge(name, v as f64))
    }

    /// Attaches the recorder snapshot (pass [`sw_observe::Recorder::snapshot`]
    /// output directly; `None` is the disabled recorder and is fine).
    pub fn snapshot(mut self, snap: Option<ObserveSnapshot>) -> Self {
        self.snapshot = snap;
        self
    }

    /// Reads a gauge back, `None` if never set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// The shared slot a publisher swaps [`Published`] views into and
/// readers clone them out of.
#[derive(Debug)]
pub struct MetricsHub {
    slot: Mutex<Arc<Published>>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub {
            slot: Mutex::new(Arc::new(Published::default())),
        }
    }
}

impl MetricsHub {
    /// A hub holding an empty view (interval 0, nothing published).
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsHub::default())
    }

    /// Swaps in a freshly built view. O(1) under the lock: the old
    /// `Arc` drops outside any reader's critical section.
    pub fn publish(&self, view: Published) {
        *self.slot.lock().expect("metrics hub lock") = Arc::new(view);
    }

    /// Clones the current view's handle out. O(1) under the lock; the
    /// returned view is immutable and can be rendered without any
    /// further coordination.
    pub fn read(&self) -> Arc<Published> {
        Arc::clone(&self.slot.lock().expect("metrics hub lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_read_round_trips() {
        let hub = MetricsHub::new();
        assert_eq!(hub.read().interval, 0);
        hub.publish(
            Published::at(7)
                .label("strategy", "TS")
                .gauge("queue_depth", 3.0)
                .gauge("queue_depth", 4.0)
                .gauges([("answers", 5), ("updates", 6)]),
        );
        let view = hub.read();
        assert_eq!(view.interval, 7);
        assert_eq!(view.labels, vec![("strategy", "TS".to_string())]);
        assert_eq!(view.gauge_value("queue_depth"), Some(4.0));
        assert_eq!(view.gauge_value("updates"), Some(6.0));
        assert_eq!(view.gauge_value("absent"), None);
        assert!(view.snapshot.is_none());
    }

    #[test]
    fn readers_keep_old_views_alive_across_swaps() {
        let hub = MetricsHub::new();
        hub.publish(Published::at(1));
        let old = hub.read();
        hub.publish(Published::at(2));
        assert_eq!(old.interval, 1, "a held view is immutable");
        assert_eq!(hub.read().interval, 2);
    }
}
