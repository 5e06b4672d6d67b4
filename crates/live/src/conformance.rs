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
//! byte strings, not approximately-equal statistics. Rows alone do not
//! pin the server — a report can list one entry more or less without a
//! client deciding differently — so the two sides' summed report bits
//! and applied-update counts ([`ServerTotals`]) must be equal too.
//!
//! Preconditions for the identity (checked, not assumed):
//!
//! - a strategy the live daemon can serve (the static builders,
//!   Method-2 adaptive TS, quasi-delay; `LiveServer::spawn` refuses
//!   the rest);
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
    /// Every row agrees, but the two servers did different work.
    ServerMismatch {
        /// The simulator's server totals.
        sim: ServerTotals,
        /// The live server's totals.
        live: ServerTotals,
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
            Self::ServerMismatch { sim, live } => write!(
                f,
                "decision rows agree but the servers diverged: sim {sim:?}, live {live:?}"
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

/// What one side's server did over a session — the part of the server
/// half the clients' rows cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTotals {
    /// Report payload bits aired, summed over the session.
    pub report_bits: u64,
    /// Updates applied to the database.
    pub updates_applied: u64,
}

/// Both decision logs of a passed conformance run, for further
/// inspection (they are equal, per [`check_conformance`]).
pub struct Conformance {
    /// Per-client rows from the simulated run.
    pub sim: Vec<Vec<DecisionRow>>,
    /// Per-client rows from the live run.
    pub live: Vec<Vec<DecisionRow>>,
    /// The server totals both sides agreed on.
    pub server: ServerTotals,
}

/// One side's session: every client's rows and what its server did.
type Session = (Vec<Vec<DecisionRow>>, ServerTotals);

/// Runs the reference simulation interval by interval and extracts
/// each client's decision row per interval from its stat deltas.
pub fn sim_decision_log(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Vec<Vec<DecisionRow>>, ConformanceError> {
    sim_session(cfg, strategy, intervals).map(|(rows, _)| rows)
}

fn sim_session(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Session, ConformanceError> {
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
    let totals = ServerTotals {
        report_bits: report.report_bits_total,
        updates_applied: sim.database().update_count(),
    };
    Ok((rows, totals))
}

/// Runs the same configuration through the live stack — a server plus
/// one client thread per fleet index, over real loopback TCP/UDP — and
/// collects each client's decision rows. Must be a lockstep session
/// (the barrier is what makes the rows deterministic). `on_spawn` runs
/// once the server is up, receiving its metrics address when
/// [`LiveOptions::metrics_bind`] armed one — the hook a test uses to
/// scrape `/metrics` *while* the conformance session runs.
pub fn live_decision_log_with(
    cfg: &CellConfig,
    strategy: Strategy,
    opts: LiveOptions,
    mu_opts: MuOptions,
    on_spawn: impl FnOnce(Option<SocketAddr>),
) -> Result<Vec<Vec<DecisionRow>>, ConformanceError> {
    live_session(cfg, strategy, opts, mu_opts, on_spawn).map(|(rows, _)| rows)
}

fn live_session(
    cfg: &CellConfig,
    strategy: Strategy,
    opts: LiveOptions,
    mu_opts: MuOptions,
    on_spawn: impl FnOnce(Option<SocketAddr>),
) -> Result<Session, ConformanceError> {
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
    let totals = ServerTotals {
        report_bits: server.report_bits,
        updates_applied: server.updates_applied + server.publishes_applied,
    };
    Ok((rows, totals))
}

/// The headline check: same seed, same update schedule ⇒ byte-identical
/// per-client decision logs between `CellSimulation` and the live
/// stack, from servers that aired the same report bits over the same
/// updates.
pub fn check_conformance(
    cfg: &CellConfig,
    strategy: Strategy,
    intervals: u64,
) -> Result<Conformance, ConformanceError> {
    let sim = sim_session(cfg, strategy, intervals)?;
    let live = live_session(
        cfg,
        strategy,
        LiveOptions::lockstep(intervals),
        MuOptions::default(),
        |_| {},
    )?;
    compare(sim, live)
}

/// The comparison itself: the first diverging row, else unequal server
/// totals, else the identity.
fn compare(
    (sim, sim_server): Session,
    (live, live_server): Session,
) -> Result<Conformance, ConformanceError> {
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
    if sim_server != live_server {
        return Err(ConformanceError::ServerMismatch {
            sim: sim_server,
            live: live_server,
        });
    }
    Ok(Conformance {
        sim,
        live,
        server: sim_server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal rows are not enough: a server that aired different report
    /// bits, or applied a different number of updates, does not conform.
    #[test]
    fn equal_rows_over_unequal_server_totals_do_not_conform() {
        let rows = vec![vec![DecisionRow::default()]];
        let totals = ServerTotals {
            report_bits: 1_112_898,
            updates_applied: 72,
        };
        let session = |totals| (rows.clone(), totals);
        let passed = compare(session(totals), session(totals)).expect("identical sessions");
        assert_eq!(passed.server, totals);
        for drifted in [
            ServerTotals {
                report_bits: 1_114_040,
                ..totals
            },
            ServerTotals {
                updates_applied: 73,
                ..totals
            },
        ] {
            match compare(session(totals), session(drifted)) {
                Err(ConformanceError::ServerMismatch { sim, live }) => {
                    assert_eq!((sim, live), (totals, drifted));
                }
                other => panic!("expected a server mismatch, got {:?}", other.err()),
            }
        }
    }
}
