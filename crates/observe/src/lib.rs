#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `sw-observe`: zero-cost instrumentation for the simulator.
//!
//! The crate provides four recording primitives — monotonic counters,
//! fixed power-of-two-bucket [`Histogram`]s, RAII span timers, and a
//! per-interval time-series recorder — behind one [`Recorder`] handle,
//! plus two sinks: an NDJSON event trace
//! ([`ObserveSnapshot::to_ndjson`], one `{t, cell, kind, …}` object per
//! line) and an end-of-run summary table ([`sink::summary`]).
//!
//! **Zero cost when off.** Everything is gated on the `observe` cargo
//! feature (default off). Without it, [`Recorder`] is a zero-sized
//! type, every method is an inlined no-op, [`Recorder::is_enabled`]
//! returns a compile-time `false` (so `if rec.is_enabled() { … }`
//! blocks are dead code), and the [`obs!`] macro expands to nothing —
//! its arguments are never evaluated. The `hot_guard` gate of
//! `scripts/check.sh` is the enforcement: an instrumented-but-disabled
//! build must stay within 5% of an uninstrumented one.
//!
//! **Deterministic when on.** Counters, value histograms, events and
//! series are pure functions of the simulation seed; the determinism
//! suite compares [`ObserveSnapshot::deterministic_digest`] output
//! byte-for-byte across `SW_THREADS` values. Wall-clock span timings
//! are inherently non-deterministic, so they are quarantined in
//! [`ObserveSnapshot::timings`] and surface only in the summary table,
//! never in the trace or the series.
//!
//! **Multi-cell runs.** The mesh layer (`sw-mesh`) gives each shard
//! its own recorder labelled `<label>/cell<N>`, so per-cell traces
//! never interleave and can be merged or diffed offline. Mesh cells
//! additionally record the migration counter family — `migrations`
//! (arrivals), `migrations_out`, `handoff_drops`,
//! `cross_cell_registrations` — and append a per-interval `migrations`
//! series column (arrivals settled at the preceding barrier);
//! `trace_run -- mesh` writes one trace and series per cell plus a
//! combined summary.

pub mod event;
pub mod hist;
pub mod series;
pub mod sink;
pub mod snapshot;

pub use event::{Event, Value};
pub use hist::Histogram;
pub use series::{SeriesData, SeriesRow};
pub use sink::{overflow_warning, summary};
pub use snapshot::ObserveSnapshot;

use std::time::Instant;

/// Live recorder state; boxed so a disabled-at-runtime recorder is one
/// null-pointer check on every call.
struct Inner {
    cell: String,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Histogram)>,
    timings: Vec<(&'static str, Histogram)>,
    columns: Vec<&'static str>,
    rows: Vec<SeriesRow>,
    events: Vec<Event>,
}

/// Where [`Recorder`], [`SpanGuard`] and [`Timer`] keep their state.
/// Only this type is gated on the cargo feature, so every method below
/// is written once: with `observe` on a `Slot<T>` is an `Option<T>`;
/// with it off it is a zero-sized stand-in that is never filled and
/// whose accessors are a constant `None`, which folds every method
/// body away.
#[cfg(feature = "observe")]
mod slot {
    pub(crate) type Slot<T> = Option<T>;

    pub(crate) fn fill<T>(make: impl FnOnce() -> Option<T>) -> Slot<T> {
        make()
    }
}

#[cfg(not(feature = "observe"))]
mod slot {
    use core::marker::PhantomData;
    use core::ops::{Deref, DerefMut};

    pub(crate) struct Slot<T>(PhantomData<T>);

    impl<T> Slot<T> {
        #[inline(always)]
        pub(crate) fn is_some(&self) -> bool {
            false
        }

        #[inline(always)]
        pub(crate) fn take(&mut self) -> Option<T> {
            None
        }

        #[inline(always)]
        pub(crate) fn as_deref(&self) -> Option<&T::Target>
        where
            T: Deref,
        {
            None
        }

        #[inline(always)]
        pub(crate) fn as_deref_mut(&mut self) -> Option<&mut T::Target>
        where
            T: DerefMut,
        {
            None
        }
    }

    #[inline(always)]
    pub(crate) fn fill<T>(_make: impl FnOnce() -> Option<T>) -> Slot<T> {
        Slot(PhantomData)
    }
}

use slot::Slot;

/// The instrumentation handle a simulation owns.
///
/// Three states, two of them free:
/// - feature `observe` **off**: a zero-sized no-op (statically free);
/// - feature on, [`Recorder::disabled`]: one `Option` check per call;
/// - feature on, [`Recorder::enabled`]: records into an owned buffer,
///   harvested once at the end of the run via [`Recorder::snapshot`].
pub struct Recorder {
    inner: Slot<Box<Inner>>,
}

/// A live span: the timing sink to record into, the span name, and the
/// start instant.
type ActiveSpan<'a> = (&'a mut Vec<(&'static str, Histogram)>, &'static str, Instant);

/// RAII span timer: records the elapsed wall-clock nanoseconds into the
/// recorder's timing histograms when dropped. Exclusive — it borrows
/// the recorder for its whole extent; use [`Recorder::timer`] /
/// [`Recorder::finish`] for regions that also record events.
#[must_use = "a span records on drop; binding it to _ discards the measurement"]
pub struct SpanGuard<'a> {
    inner: Slot<ActiveSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((sink, name, start)) = self.inner.take() {
            snapshot::hist_slot(sink, name).record(elapsed_ns(start));
        }
    }
}

/// Detached span timer for regions that keep using the recorder; pass
/// back to [`Recorder::finish`] to record.
pub struct Timer {
    inner: Slot<(&'static str, Instant)>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Recorder {
    /// A recorder that records nothing (the normal simulation state).
    #[inline]
    pub fn disabled() -> Self {
        Recorder {
            inner: slot::fill(|| None),
        }
    }

    /// A recorder capturing under the given cell label. Without the
    /// `observe` feature this still returns the no-op recorder, so
    /// callers never need their own `cfg`.
    pub fn enabled(cell: impl Into<String>) -> Self {
        Recorder {
            inner: slot::fill(|| {
                Some(Box::new(Inner {
                    cell: cell.into(),
                    counters: Vec::new(),
                    hists: Vec::new(),
                    timings: Vec::new(),
                    columns: Vec::new(),
                    rows: Vec::new(),
                    events: Vec::new(),
                }))
            }),
        }
    }

    /// True when calls will actually record. A compile-time `false`
    /// without the `observe` feature, so guarded blocks are dead code.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the named monotonic counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            snapshot::bump(&mut inner.counters, name, n);
        }
    }

    /// Adds every `(name, n)` pair of a counter record — what
    /// `Counters::named()` yields — to the counters of those names.
    #[inline]
    pub fn add_all(&mut self, named: impl IntoIterator<Item = (&'static str, u64)>) {
        if self.is_enabled() {
            named.into_iter().for_each(|(name, n)| self.add(name, n));
        }
    }

    /// Records one sample into the named value histogram
    /// (deterministic data: bits, counts — never wall-clock).
    #[inline]
    pub fn record(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            snapshot::hist_slot(&mut inner.hists, name).record(value);
        }
    }

    /// Appends one trace event at interval `t`. Fields are `(name,
    /// value)` pairs — `Value`s, or bare `u64`s as a counter record's
    /// `named()` yields them.
    pub fn event<V: Into<Value>>(
        &mut self,
        t: u64,
        kind: &'static str,
        fields: impl IntoIterator<Item = (&'static str, V)>,
    ) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.events.push(Event {
                cell: 0,
                t,
                kind,
                fields: fields.into_iter().map(|(k, v)| (k, v.into())).collect(),
            });
        }
    }

    /// Declares the time-series column schema (once, before any row)
    /// — a row record's `NAMES`.
    pub fn series_schema(&mut self, columns: impl IntoIterator<Item = &'static str>) {
        if let Some(inner) = self.inner.as_deref_mut() {
            debug_assert!(inner.columns.is_empty(), "series schema already declared");
            inner.columns = columns.into_iter().collect();
        }
    }

    /// Appends one series row at interval `t`; `values` — a row
    /// record's `values()` — must be parallel to the declared schema.
    pub fn series_row(&mut self, t: u64, values: impl IntoIterator<Item = u64>) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let values: Vec<u64> = values.into_iter().collect();
            debug_assert_eq!(
                values.len(),
                inner.columns.len(),
                "series row width must match the declared schema"
            );
            inner.rows.push(SeriesRow { cell: 0, t, values });
        }
    }

    /// Opens an RAII wall-clock span; the elapsed nanoseconds land in
    /// the named timing histogram when the guard drops.
    #[inline]
    pub fn span(&mut self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            inner: slot::fill(|| {
                self.inner
                    .as_deref_mut()
                    .map(|i| (&mut i.timings, name, Instant::now()))
            }),
        }
    }

    /// Starts a detached wall-clock timer (no borrow held; the timed
    /// region may keep recording).
    #[inline]
    pub fn timer(&self, name: &'static str) -> Timer {
        Timer {
            inner: slot::fill(|| self.is_enabled().then(|| (name, Instant::now()))),
        }
    }

    /// Stops a detached timer and records its elapsed nanoseconds.
    #[inline]
    pub fn finish(&mut self, mut timer: Timer) {
        if let (Some(inner), Some((name, start))) = (self.inner.as_deref_mut(), timer.inner.take())
        {
            snapshot::hist_slot(&mut inner.timings, name).record(elapsed_ns(start));
        }
    }

    /// Clones everything recorded so far into a detached snapshot;
    /// `None` when disabled (either way).
    pub fn snapshot(&self) -> Option<ObserveSnapshot> {
        self.inner.as_deref().map(|i| ObserveSnapshot {
            cells: vec![i.cell.clone()],
            counters: i.counters.clone(),
            hists: i.hists.clone(),
            timings: i.timings.clone(),
            series: SeriesData {
                columns: i.columns.clone(),
                rows: i.rows.clone(),
            },
            events: i.events.clone(),
        })
    }
}

/// Calls a [`Recorder`] method when the `observe` feature is compiled
/// in; expands to **nothing** (arguments unevaluated) when it is not:
///
/// ```
/// # use sw_observe::{obs, Recorder};
/// # let mut rec = Recorder::disabled();
/// obs!(rec, add("overflow_exchanges", 1));
/// ```
#[cfg(feature = "observe")]
#[macro_export]
macro_rules! obs {
    ($rec:expr, $method:ident($($arg:expr),* $(,)?)) => {
        $rec.$method($($arg),*)
    };
}

/// Calls a [`Recorder`] method when the `observe` feature is compiled
/// in; expands to **nothing** (arguments unevaluated) when it is not.
#[cfg(not(feature = "observe"))]
#[macro_export]
macro_rules! obs {
    ($rec:expr, $method:ident($($arg:expr),* $(,)?)) => {{
        let _ = &$rec;
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_snapshots_to_none() {
        let mut rec = Recorder::disabled();
        rec.add("c", 1);
        rec.record("h", 10);
        rec.add_all([("c", 1)]);
        rec.event(1, "k", [("f", Value::U64(1))]);
        rec.series_schema(["a"]);
        rec.series_row(1, [2]);
        let t = rec.timer("t");
        rec.finish(t);
        drop(rec.span("s"));
        obs!(rec, add("c", 1));
        assert!(!rec.is_enabled());
        assert!(rec.snapshot().is_none());
    }

    #[cfg(feature = "observe")]
    #[test]
    fn enabled_recorder_captures_everything() {
        let mut rec = Recorder::enabled("cell-0");
        assert!(rec.is_enabled());
        rec.series_schema(["hits", "misses"]);
        rec.add_all([("queries", 3)]);
        obs!(rec, add("queries", 2));
        rec.record("report_bits", 640);
        rec.event(5, "overflow", [("item", 9u64)]);
        rec.series_row(5, [2, 1]);
        {
            let _span = rec.span("build");
        }
        let t = rec.timer("process");
        rec.finish(t);
        let snap = rec.snapshot().expect("enabled recorder snapshots");
        assert_eq!(snap.cells, vec!["cell-0"]);
        assert_eq!(snap.counter("queries"), 5);
        assert_eq!(snap.hists[0].0, "report_bits");
        assert_eq!(snap.timings.len(), 2, "span + timer");
        assert_eq!(snap.series.rows.len(), 1);
        let ndjson = snap.to_ndjson();
        assert_eq!(
            ndjson,
            "{\"t\":5,\"cell\":\"cell-0\",\"kind\":\"overflow\",\"item\":9}\n"
        );
        assert!(snap.series_csv().starts_with("cell,t,hits,misses\n"));
        // The digest must exclude the wall-clock timings.
        assert!(!snap.deterministic_digest().contains("process"));
    }

    #[cfg(not(feature = "observe"))]
    #[test]
    fn recorder_is_zero_sized_when_off() {
        assert_eq!(std::mem::size_of::<Recorder>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard<'_>>(), 0);
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        // `enabled` is also a no-op without the feature.
        assert!(!Recorder::enabled("cell").is_enabled());
    }
}
