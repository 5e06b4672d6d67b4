//! # sw-sim — discrete-event simulation kernel
//!
//! Substrate crate for the *Sleepers and Workaholics* reproduction
//! (Barbará & Imieliński, SIGMOD 1994 / VLDB Journal 1995).
//!
//! The paper's evaluation model is a cell in which a stateless server
//! broadcasts an invalidation report every `L` seconds while mobile units
//! issue queries, sleep, and wake. This crate provides the generic pieces
//! every higher layer builds on:
//!
//! * [`time`] — a virtual clock ([`SimTime`]) measured in seconds with
//!   total ordering and interval arithmetic;
//! * [`rng`] — reproducible, stream-split random number generation
//!   ([`RngStream`]) so that e.g. the update process and each client's
//!   query process draw from independent, replayable streams;
//! * [`process`] — the stochastic processes the paper assumes: Poisson
//!   arrivals with exponential inter-arrival times (queries at rate λ,
//!   updates at rate μ) and the per-interval Bernoulli sleep process
//!   (probability `s` of being disconnected in an interval);
//! * [`runner`] — the order-preserving parallel sweep runner
//!   ([`ParallelRunner`]) and the two deterministic seed-derivation
//!   domains ([`cell_seed`] for figure sweeps, [`mesh_seed`] for mesh
//!   shards);
//! * [`counters`] — the [`Counters`] trait and the [`counters!`] macro:
//!   every stats struct and per-interval record declares its `u64`
//!   fields once, and folds, deltas and sinks read that one list.
//!
//! All randomness is deterministic given a master seed, which makes the
//! integration tests and the figure-regeneration experiments replayable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod process;
pub mod rng;
pub mod runner;
pub mod time;

pub use counters::{Counters, MAX_COUNTERS};
pub use process::{BernoulliIntervalProcess, IntervalClock, PoissonProcess};
pub use rng::{MasterSeed, RngStream, StreamId};
pub use runner::{cell_seed, mesh_seed, ParallelRunner};
pub use time::{SimDuration, SimTime};
