//! The live operations plane.
//!
//! The paper's server is stateless toward its clients (§2); this module
//! is how an operator still *sees* it. Std-only, it provides:
//!
//! - [`hub::MetricsHub`]: the rendezvous between a running session and
//!   its observers — the publisher (the server ticker, a client loop)
//!   swaps in a fresh [`hub::Published`] snapshot per interval under a
//!   pointer-sized critical section; readers clone the `Arc` out and
//!   render at leisure, never stalling the hot path;
//! - [`http::MetricsExporter`]: a tiny blocking HTTP listener serving
//!   Prometheus text exposition at `/metrics`, liveness at `/healthz`,
//!   and the full published state as JSON at `/snapshot.json`;
//! - [`prom`]: the Prometheus text renderer (counters, gauges,
//!   power-of-two histograms with cumulative `le` buckets) and the
//!   hand-rolled JSON snapshot writer;
//! - [`flight::FlightRecorder`]: a bounded ring of the most recent
//!   per-interval decisions/events, dumped to NDJSON when something
//!   goes wrong (safety violation, fault storm, termination) — the
//!   black box that turns "zero stale reads" from a claim into a
//!   forensically checkable artifact.
//!
//! Everything here works with or without the `observe` cargo feature:
//! without it the published snapshots are simply absent and `/metrics`
//! degrades to the gauge set, so the exporter can stay compiled into
//! production binaries whose hot paths must remain uninstrumented.

pub mod flight;
pub mod http;
pub mod hub;
pub mod prom;
