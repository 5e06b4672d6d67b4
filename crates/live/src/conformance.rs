//! Sim-vs-live conformance: the simulator as the daemon's executable
//! spec.
//!
//! Drive `CellSimulation` and the live stack (a lockstep `sw-serve`
//! session plus one [`run_mu`] thread per client, over real loopback
//! sockets) from the same [`CellConfig`] and assert that every
//! client's per-interval decision sequence — awake/heard flags,
//! queries, hits, misses, invalidations, whole-cache drops — is
//! **byte-identical** between the two. The comparison is over the
//! fixed-width [`DecisionRow`] encodings, so "identical" means equal
//! byte strings, not approximately-equal statistics.
//!
//! Preconditions for the identity (checked, not assumed):
//!
//! - a static broadcast strategy (TS, AT, SIG, hybrid) — the
//!   stateless-server shapes the live daemon can run;
//! - zero channel overflow in the simulated run (`overflow_exchanges
//!   == 0`): the live TCP uplink has no per-interval bit budget, so a
//!   saturated simulated interval would defer answers the live stack
//!   delivers immediately;
//! - no uplink fault injection (the live wire models downlink loss
//!   and corruption; uplink TCP is reliable by construction).

use std::io;
use std::net::SocketAddr;
use std::thread;

use sleepers::{CellConfig, CellSimulation, SimulationError, Strategy};
use sw_client::MuStats;
use sw_query::QueryStats;

use crate::mu::{run_mu, MuOptions};
use crate::proto::{encode_rows, DecisionRow};
use crate::server::{LiveOptions, LiveServer};

/// Why a conformance check could not produce (or did not produce) the
/// identity.
#[derive(Debug)]
pub enum ConformanceError {
    /// The simulated reference run failed.
    Sim(SimulationError),
    /// The live session failed at the socket layer.
    Io(io::Error),
    /// The simulated run saturated its uplink channel; the comparison
    /// is undefined (the live stack has no interval bit budget).
    Saturated {
        /// Deferred exchanges in the simulated run.
        overflow_exchanges: u64,
    },
    /// The logs differ.
    Mismatch {
        /// Client whose logs first diverged.
        client: usize,
        /// First differing interval.
        interval: u64,
        /// The simulator's row.
        sim: Box<DecisionRow>,
        /// The live stack's row.
        live: Box<DecisionRow>,
    },
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "simulated reference run failed: {e}"),
            Self::Io(e) => write!(f, "live session failed: {e}"),
            Self::Saturated { overflow_exchanges } => write!(
                f,
                "simulated run deferred {overflow_exchanges} uplink exchanges; \
                 shrink the fleet or widen the bandwidth for a valid comparison"
            ),
            Self::Mismatch {
                client,
                interval,
                sim,
                live,
            } => write!(
                f,
                "client {client} diverged at interval {interval}: sim {sim:?}, live {live:?}"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<SimulationError> for ConformanceError {
    fn from(e: SimulationError) -> Self {
        Self::Sim(e)
    }
}

impl From<io::Error> for ConformanceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Both decision logs of a passed conformance run, for further
/// inspection (they are equal, per [`check_conformance`]).
pub struct Conformance {
    /// Per-client rows from the simulated run.
    pub sim: Vec<Vec<DecisionRow>>,
    /// Per-client rows from the live run.
    pub live: Vec<Vec<DecisionRow>>,
}

/// Runs the reference simulation interval by interval and extracts
/// each client's decision row per interval from its stat deltas.
pub fn sim_decision_log(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Vec<Vec<DecisionRow>>, ConformanceError> {
    let mut sim = CellSimulation::new(cfg.clone(), strategy)?;
    let n = cfg.n_clients;
    let mut prev: Vec<MuStats> = (0..n).map(|idx| sim.client_stats(idx)).collect();
    let mut prev_q: Vec<QueryStats> = (0..n)
        .map(|idx| sim.client_query_stats(idx).unwrap_or_default())
        .collect();
    let mut rows: Vec<Vec<DecisionRow>> = vec![Vec::with_capacity(intervals as usize); n];
    for i in 1..=intervals {
        sim.step()?;
        for (idx, log) in rows.iter_mut().enumerate() {
            let s = sim.client_stats(idx);
            let q = sim.client_query_stats(idx).unwrap_or_default();
            log.push(DecisionRow::from_deltas(i, &prev[idx], &s, &prev_q[idx], &q));
            prev[idx] = s;
            prev_q[idx] = q;
        }
    }
    let report = sim.report();
    if report.overflow_exchanges > 0 {
        return Err(ConformanceError::Saturated {
            overflow_exchanges: report.overflow_exchanges,
        });
    }
    Ok(rows)
}

/// Runs the same configuration through the live stack — a lockstep
/// server plus one client thread per fleet index, over real loopback
/// TCP/UDP — and collects each client's decision rows.
pub fn live_decision_log(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Vec<Vec<DecisionRow>>, ConformanceError> {
    live_decision_log_with(
        cfg,
        strategy,
        LiveOptions::lockstep(intervals),
        MuOptions::default(),
        |_| {},
    )
}

/// [`live_decision_log`] with explicit server/client options. Must be
/// a lockstep session (the barrier is what makes the rows
/// deterministic). `on_spawn` runs once the server is up, receiving
/// its metrics address when [`LiveOptions::metrics_bind`] armed one —
/// the hook a test uses to scrape `/metrics` *while* the conformance
/// session runs.
pub fn live_decision_log_with(
    cfg: &CellConfig,
    strategy: Strategy,
    opts: LiveOptions,
    mu_opts: MuOptions,
    on_spawn: impl FnOnce(Option<SocketAddr>),
) -> Result<Vec<Vec<DecisionRow>>, ConformanceError> {
    let handle = LiveServer::spawn(cfg.clone(), strategy, opts)?;
    let addr = handle.addr();
    on_spawn(handle.metrics_addr());
    let workers: Vec<_> = (0..cfg.n_clients)
        .map(|idx| {
            let cfg = cfg.clone();
            let mu_opts = mu_opts.clone();
            thread::spawn(move || run_mu(addr, &cfg, strategy, idx, mu_opts))
        })
        .collect();
    let mut rows = Vec::with_capacity(cfg.n_clients);
    let mut first_err: Option<io::Error> = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(report)) => rows.push(report.rows),
            Ok(Err(e)) => {
                first_err.get_or_insert(e);
            }
            Err(_) => {
                first_err.get_or_insert_with(|| io::Error::other("client thread panicked"));
            }
        }
    }
    if let Some(e) = first_err {
        handle.shutdown();
        let _ = handle.wait();
        return Err(e.into());
    }
    let server = handle.wait()?;
    // Cross-check: the rows the server collected over the barrier are
    // the same bytes the clients kept locally.
    for (idx, local) in rows.iter().enumerate() {
        if encode_rows(local) != encode_rows(&server.rows[idx]) {
            return Err(ConformanceError::Io(io::Error::other(format!(
                "client {idx}'s barrier rows diverge from its local rows"
            ))));
        }
    }
    Ok(rows)
}

/// The headline check: same seed, same update schedule ⇒ byte-identical
/// per-client decision logs between `CellSimulation` and the live
/// stack.
pub fn check_conformance(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Conformance, ConformanceError> {
    let sim = sim_decision_log(cfg, strategy, intervals)?;
    let live = live_decision_log(cfg, strategy, intervals)?;
    for (client, (s_rows, l_rows)) in sim.iter().zip(&live).enumerate() {
        if encode_rows(s_rows) == encode_rows(l_rows) {
            continue;
        }
        let (sim_row, live_row) = s_rows
            .iter()
            .zip(l_rows)
            .find(|(a, b)| a != b)
            .map(|(a, b)| (*a, *b))
            .unwrap_or_default();
        return Err(ConformanceError::Mismatch {
            client,
            interval: sim_row.interval,
            sim: Box::new(sim_row),
            live: Box::new(live_row),
        });
    }
    Ok(Conformance { sim, live })
}
