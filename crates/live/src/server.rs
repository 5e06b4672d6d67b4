//! The live invalidation-report server (`sw-serve`'s engine).
//!
//! One daemon per cell, stateless toward its clients exactly as the
//! paper prescribes (§2): it never tracks who is listening, what they
//! cache, or when they sleep. It owns one [`CellServer`] — the server
//! the simulator steps: database, seeded update engine, report
//! builder, uplink processor — and adds what a daemon has and a
//! simulated server does not: `Publish` messages ingested over TCP,
//! one sealed UDP datagram per registered receiver every `L`
//! milliseconds, uplink queries arriving over TCP (answered by the
//! same [`CellServer::answer`], stamped with the current report time).
//!
//! Threading model: one accept thread, one connection thread per
//! client (registration, uplink answers, barrier collection), and one
//! ticker thread that owns the report cadence. All server state lives
//! in a single mutex (`Core`: the `CellServer` plus the publishes
//! waiting for the next tick); the only cross-thread signals are the
//! registration condvar (all clients present → session starts) and
//! the lockstep barrier condvar (all clients done → next interval).
//!
//! What a tick did is one record, `TickFacts`, declared beside
//! `ticker_loop`: the flight ring's `report` line is its fields, the
//! trace's series row and the `/metrics` gauges are read off it and off
//! the session totals it is absorbed into.
//!
//! Pacing is either wall-clock (`Pace::Paced`, the daemon mode) or a
//! TCP barrier (`Pace::Lockstep`, the conformance mode, where the
//! session advances exactly one interval at a time with no timers at
//! all — determinism does not race the scheduler).

use std::io::{self, BufReader, BufWriter};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sleepers::adaptive::FeedbackMethod;
use sleepers::safety::ValueHistory;
use sleepers::{CellConfig, CellServer, Strategy};
use sw_observe::{ObserveSnapshot, Recorder};
use sw_ops::{FlightRecorder, MetricsExporter, MetricsHub, Published};
use sw_sim::{counters, Counters, IntervalClock, SimDuration};
use sw_wireless::frame::{open_frame, seal_frame, FramePayload, WireEncode};

use crate::proto::{DecisionRow, Msg};

/// How the session advances from one report interval to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Deterministic TCP barrier: broadcast, `Start`, wait for every
    /// client's `Done`. No wall clock anywhere — conformance mode.
    Lockstep,
    /// Wall-clock cadence: report `i` airs at `t₀ + i·interval`.
    Paced {
        /// Real milliseconds between broadcasts (the live `L`).
        interval_ms: u64,
    },
}

/// Session options for [`LiveServer::spawn`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Total broadcast intervals before the server halts the session.
    pub intervals: u64,
    /// Pacing mode.
    pub pace: Pace,
    /// How long to wait for the full fleet to register.
    pub registration_timeout: Duration,
    /// TCP address to listen on (port 0: ephemeral; read the bound
    /// port back from [`ServerHandle::addr`]).
    pub bind: SocketAddr,
    /// When set, serve a live metrics plane (`/metrics`, `/healthz`,
    /// `/snapshot.json`) on this address for the session's lifetime
    /// (port 0: ephemeral; read it back from
    /// [`ServerHandle::metrics_addr`]). `None` (the default) compiles
    /// the session exactly as before — no listener, no publishing.
    pub metrics_bind: Option<SocketAddr>,
    /// Flight-recorder ring size: the last `flight_capacity` intervals
    /// of per-tick facts kept for a crash dump. 0 (the default)
    /// disables the ring.
    pub flight_capacity: usize,
    /// Directory for automatic flight dumps (the takeover dump a
    /// promoted replica writes). `None` (the default) skips them.
    pub flight_dir: Option<PathBuf>,
}

impl LiveOptions {
    fn new(intervals: u64, pace: Pace) -> Self {
        Self {
            intervals,
            pace,
            registration_timeout: Duration::from_secs(30),
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_bind: None,
            flight_capacity: 0,
            flight_dir: None,
        }
    }

    /// Lockstep (conformance) session over `intervals` intervals.
    pub fn lockstep(intervals: u64) -> Self {
        Self::new(intervals, Pace::Lockstep)
    }

    /// Wall-clock session: `intervals` reports, one every
    /// `interval_ms` real milliseconds.
    pub fn paced(intervals: u64, interval_ms: u64) -> Self {
        Self::new(intervals, Pace::Paced { interval_ms })
    }

    /// Listens on a fixed address instead of an ephemeral port.
    pub fn with_bind(mut self, bind: SocketAddr) -> Self {
        self.bind = bind;
        self
    }

    /// Serves the metrics plane on `bind` for the session's lifetime.
    pub fn with_metrics(mut self, bind: SocketAddr) -> Self {
        self.metrics_bind = Some(bind);
        self
    }

    /// Keeps the last `capacity` intervals in the flight ring.
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Writes automatic flight dumps (takeover) under `dir`.
    pub fn with_flight_dir(mut self, dir: PathBuf) -> Self {
        self.flight_dir = Some(dir);
        self
    }
}

/// Per-interval instruction from a [`TickCoordinator`]: what epoch the
/// tick belongs to, whether this node broadcasts it, and the sequenced
/// external publishes to fold in. Every node *builds* every tick (that
/// is what keeps a replica's database, builder, and history identical
/// to the primary's); only the node the directive marks `broadcast`
/// puts the report on the wire.
#[derive(Debug, Clone)]
pub struct TickDirective {
    /// Epoch the sealed datagram is stamped with.
    pub epoch: u64,
    /// Whether this node is (now) the primary.
    pub primary: bool,
    /// Whether this node broadcasts this interval's report.
    pub broadcast: bool,
    /// The replicated publish sequence for this interval — on the
    /// primary these are its own drained `Publish`es, on a replica the
    /// log entry's.
    pub publishes: Vec<(u64, u64)>,
    /// On promotion: the estimated session start instant, so a paced
    /// successor resumes the original cadence instead of restarting it.
    pub pace_anchor: Option<Instant>,
    /// True exactly on the tick where this node took over as primary.
    pub promoted: bool,
}

impl TickDirective {
    /// The directive an unreplicated server gives itself: epoch 0,
    /// always primary, always broadcast, own publishes.
    pub fn solo(publishes: Vec<(u64, u64)>) -> Self {
        Self {
            epoch: 0,
            primary: true,
            broadcast: true,
            publishes,
            pace_anchor: None,
            promoted: false,
        }
    }
}

/// A replication coordinator plugged into the ticker via
/// [`LiveServer::spawn_coordinated`]. The ticker calls
/// [`TickCoordinator::coordinate`] once per interval *before* building
/// the tick; on a replica the call blocks until the primary's log
/// entry for that interval arrives — or until the primary is declared
/// dead and this node promotes itself.
///
/// An `Err` of kind [`io::ErrorKind::ConnectionAborted`] from
/// `coordinate` or `after_broadcast` is the injected-crash signal: the
/// ticker severs every client connection without a `Halt` (clients see
/// the same abrupt EOF a `kill -9` produces) and returns the error.
pub trait TickCoordinator: Send {
    /// Sequences interval `interval`. `local_publishes` are the
    /// publishes this node's own clients submitted since the last
    /// tick; the primary replicates them, a replica's are discarded
    /// (replicas refuse client registration, so there are none).
    fn coordinate(
        &mut self,
        interval: u64,
        local_publishes: Vec<(u64, u64)>,
        stop: &AtomicBool,
    ) -> io::Result<TickDirective>;

    /// Called after the tick was built (and broadcast, on the
    /// primary) — the `AfterBroadcast`-style crash hook.
    fn after_broadcast(&mut self, _interval: u64) -> io::Result<()> {
        Ok(())
    }

    /// `(epoch, is_primary)` before the session starts.
    fn status(&self) -> (u64, bool);

    /// Client-facing addresses of the whole cluster in deterministic
    /// takeover order, announced to every client after `Welcome`.
    fn successors(&self) -> Vec<SocketAddr> {
        Vec::new()
    }

    /// The session ended cleanly; release replication-side resources.
    fn halted(&mut self) {}
}

/// End-of-session accounting from the server side.
pub struct LiveServerReport {
    /// Intervals actually broadcast.
    pub intervals: u64,
    /// Report datagrams sent (one per registered client per interval).
    pub datagrams_sent: u64,
    /// Total sealed report bytes broadcast.
    pub report_bytes: u64,
    /// Total report payload bits broadcast — `B_c` summed, what the
    /// simulator's channel charges for the same reports (headers and
    /// the seal excluded, as the paper sizes them).
    pub report_bits: u64,
    /// Updates applied by the seeded update engine.
    pub updates_applied: u64,
    /// Updates ingested over TCP (`Publish`).
    pub publishes_applied: u64,
    /// Uplink queries answered.
    pub uplink_answers: u64,
    /// Lockstep only: every client's decision rows, by fleet index.
    pub rows: Vec<Vec<DecisionRow>>,
    /// The value history for post-run staleness audits, when the
    /// config enabled safety checking.
    pub history: Option<ValueHistory>,
    /// Instrumentation snapshot (`observe` feature + configured label).
    pub observe: Option<ObserveSnapshot>,
    /// The server's flight ring: the last
    /// [`LiveOptions::flight_capacity`] intervals of per-tick facts,
    /// ready to dump as NDJSON if the session ended badly.
    pub flight: FlightRecorder,
}

/// Server state guarded by one mutex: the cell's server — the same
/// [`CellServer`] the simulator steps — and the `Publish`es that
/// arrived since the last tick.
struct Core {
    server: CellServer,
    pending_publishes: Vec<(u64, u64)>,
}

/// One registered client: where its reports go and how to reach it
/// over TCP.
#[derive(Clone)]
struct Peer {
    udp: SocketAddr,
    writer: Arc<Mutex<BufWriter<TcpStream>>>,
}

#[derive(Default)]
struct Registry {
    slots: Vec<Option<Peer>>,
    registered: usize,
}

struct BarrierState {
    done: Vec<bool>,
    rows: Vec<Vec<DecisionRow>>,
}

impl BarrierState {
    /// Files client `idx`'s row and marks it done for this tick. The
    /// halt path harvests `rows` with `mem::take`, so a `Done` that
    /// lands after it has no slot left: that is a typed error for the
    /// connection thread to hang up on, never an index panic.
    fn record_done(&mut self, idx: usize, row: DecisionRow) -> io::Result<()> {
        let (Some(rows), Some(done)) = (self.rows.get_mut(idx), self.done.get_mut(idx)) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("Done from client {idx} after the session closed its barrier"),
            ));
        };
        rows.push(row);
        *done = true;
        Ok(())
    }
}

/// Replication-facing session state the connection threads consult:
/// the current epoch and role (a replica refuses registration with
/// `Standby`), the announced successor order, and whether the session
/// has started (after which a `Hello` is a failover re-registration
/// and is greeted from the connection thread instead of the ticker).
struct HaState {
    epoch: u64,
    primary: bool,
    successors: Vec<SocketAddr>,
    started: bool,
}

/// Immutable session parameters echoed in every `Welcome`.
#[derive(Clone, Copy)]
struct SessionMeta {
    interval_ms: u64,
    intervals: u64,
    lockstep: bool,
}

struct Shared {
    core: Mutex<Core>,
    reg: Mutex<Registry>,
    reg_cv: Condvar,
    bar: Mutex<BarrierState>,
    bar_cv: Condvar,
    stop: AtomicBool,
    encode: WireEncode,
    n_items: u64,
    n_clients: usize,
    session: SessionMeta,
    ha: Mutex<HaState>,
}

/// Spawner for a live report server.
pub struct LiveServer;

/// A running server session: its bound TCP address plus the handles to
/// collect its report or shut it down early.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Option<SocketAddr>,
    shared: Arc<Shared>,
    ticker: JoinHandle<io::Result<LiveServerReport>>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The TCP address clients connect (and send `Hello`) to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics endpoint address, when
    /// [`LiveOptions::metrics_bind`] asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics
    }

    /// Requests an early stop: the ticker exits at its next check and
    /// the accept loop unblocks.
    pub fn shutdown(&self) {
        self.stopper().stop();
    }

    /// A clonable, `Send` handle that can request the stop from
    /// another thread (a signal watcher, a deadline timer) while this
    /// handle blocks in [`ServerHandle::wait`].
    pub fn stopper(&self) -> Stopper {
        Stopper {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Waits for the session to finish and returns the server report.
    pub fn wait(self) -> io::Result<LiveServerReport> {
        let result = self
            .ticker
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server ticker panicked")));
        // The happy paths set `stop` on the way out, but a ticker that
        // bailed through `?` (registration timeout, stalled barrier,
        // broken pipe) did not — force it here so the accept loop's
        // poke below actually lands, and sever any client still
        // blocked on this session so *its* session errors out instead
        // of hanging.
        if !self.shared.stop.swap(true, Ordering::SeqCst) && result.is_err() {
            for peer in current_peers(&self.shared) {
                if let Ok(w) = peer.writer.lock() {
                    let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
                }
            }
        }
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        result
    }
}

/// A detached stop trigger for a running session (see
/// [`ServerHandle::stopper`]).
#[derive(Clone)]
pub struct Stopper {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Stopper {
    /// Requests the session stop; idempotent, safe from any thread.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.reg_cv.notify_all();
        self.shared.bar_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

impl LiveServer {
    /// Binds an ephemeral TCP port on loopback and spawns the session
    /// threads. The session starts once all `cfg.n_clients` clients
    /// have registered, runs `opts.intervals` report intervals, then
    /// halts every client and returns its report via
    /// [`ServerHandle::wait`].
    ///
    /// Servable strategies are the broadcast ones a stateless server
    /// can run from what the live wire actually carries: the static
    /// builders (TS, AT, SIG, hybrid), adaptive TS under Method 2
    /// (its feedback is report mentions + answered uplinks, both
    /// observed server-side), and quasi-delay (obligations are keyed
    /// by answered uplinks). Rejected: adaptive Method 1 (its MHR
    /// estimate needs piggybacked local-hit times, which the live
    /// uplink frame does not carry) and the stateful baseline (§2
    /// directed messages need per-client channels this broadcast
    /// daemon does not model).
    pub fn spawn(
        cfg: CellConfig,
        strategy: Strategy,
        opts: LiveOptions,
    ) -> io::Result<ServerHandle> {
        Self::spawn_inner(cfg, strategy, opts, None, None)
    }

    /// Like [`LiveServer::spawn`], but with a pre-bound listener (so a
    /// replication layer can announce the address before the session
    /// exists) and a [`TickCoordinator`] that sequences every interval
    /// across the cluster. `opts.bind` is ignored in favor of
    /// `listener`.
    pub fn spawn_coordinated(
        cfg: CellConfig,
        strategy: Strategy,
        opts: LiveOptions,
        listener: TcpListener,
        coordinator: Box<dyn TickCoordinator>,
    ) -> io::Result<ServerHandle> {
        Self::spawn_inner(cfg, strategy, opts, Some(listener), Some(coordinator))
    }

    fn spawn_inner(
        cfg: CellConfig,
        strategy: Strategy,
        opts: LiveOptions,
        listener: Option<TcpListener>,
        coordinator: Option<Box<dyn TickCoordinator>>,
    ) -> io::Result<ServerHandle> {
        if !matches!(
            strategy,
            Strategy::BroadcastTimestamps
                | Strategy::AmnesicTerminals
                | Strategy::Signatures
                | Strategy::HybridSig { .. }
                | Strategy::AdaptiveTs {
                    method: FeedbackMethod::Method2,
                    ..
                }
                | Strategy::QuasiDelay { .. }
        ) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("strategy {} is not servable live", strategy.name()),
            ));
        }
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let params = cfg.params;
        let latency = SimDuration::from_secs(params.latency_secs);
        let encode = WireEncode::new(
            params.n_items,
            params.timestamp_bits,
            params.query_bits,
            params.answer_bits,
        );

        let listener = match listener {
            Some(l) => l,
            None => TcpListener::bind(opts.bind)?,
        };
        let addr = listener.local_addr()?;
        let n_clients = cfg.n_clients;
        let (initial_epoch, initial_primary) = match coordinator.as_deref() {
            Some(c) => c.status(),
            None => (0, true),
        };
        let session = SessionMeta {
            interval_ms: match opts.pace {
                Pace::Lockstep => 0,
                Pace::Paced { interval_ms } => interval_ms,
            },
            intervals: opts.intervals,
            lockstep: matches!(opts.pace, Pace::Lockstep),
        };
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                server: CellServer::new(&cfg, strategy),
                pending_publishes: Vec::new(),
            }),
            reg: Mutex::new(Registry {
                slots: vec![None; n_clients],
                registered: 0,
            }),
            reg_cv: Condvar::new(),
            bar: Mutex::new(BarrierState {
                done: vec![false; n_clients],
                rows: vec![Vec::new(); n_clients],
            }),
            bar_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            encode,
            n_items: params.n_items,
            n_clients,
            session,
            ha: Mutex::new(HaState {
                epoch: initial_epoch,
                primary: initial_primary,
                successors: coordinator
                    .as_deref()
                    .map(|c| c.successors())
                    .unwrap_or_default(),
                started: false,
            }),
        });

        // The metrics plane, when asked for: the exporter thread serves
        // immutable views the ticker publishes once per interval. The
        // exporter handle moves into the ticker thread so the endpoint
        // lives exactly as long as the session.
        let metrics = match opts.metrics_bind {
            Some(bind) => {
                let hub = MetricsHub::new();
                let exporter = MetricsExporter::bind(bind, Arc::clone(&hub))?;
                Some((hub, exporter))
            }
            None => None,
        };
        let metrics_addr = metrics.as_ref().map(|(_, e)| e.addr());

        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };
        let ticker = {
            let shared = Arc::clone(&shared);
            let obs = match &cfg.observe {
                Some(label) => Recorder::enabled(format!("{label}.server")),
                None => Recorder::disabled(),
            };
            let strategy_name = strategy.name();
            thread::spawn(move || {
                ticker_loop(shared, latency, opts, obs, strategy_name, metrics, coordinator)
            })
        };
        Ok(ServerHandle {
            addr,
            metrics: metrics_addr,
            shared,
            ticker,
            accept,
        })
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        // Connection threads exit when their client hangs up; a
        // straggler at shutdown holds only an Arc.
        thread::spawn(move || {
            let _ = conn_loop(stream, shared);
        });
    }
}

/// Services one client connection: registration, uplink answers,
/// publish ingestion, and barrier rows.
fn conn_loop(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let peer_ip: IpAddr = stream.peer_addr()?.ip();
    let reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(BufWriter::new(stream)));
    let mut reader = BufReader::new(reader);
    let mut my_index: Option<usize> = None;
    // A read error is a hangup (or garbage): drop the connection.
    while let Ok(msg) = Msg::read_from(&mut reader) {
        match msg {
            Msg::Hello { index, udp_port } => {
                let (primary, epoch, started, successors) = {
                    let ha = shared.ha.lock().expect("ha lock");
                    (ha.primary, ha.epoch, ha.started, ha.successors.clone())
                };
                if !primary {
                    // A replica serves nobody: refuse with the current
                    // epoch so the client walks its successor list.
                    Msg::Standby { epoch }
                        .write_to(&mut *writer.lock().expect("writer lock"))?;
                    continue;
                }
                let idx = index as usize;
                if idx >= shared.n_clients {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("bad client index {idx}"),
                    ));
                }
                if started {
                    // Mid-session join: the ticker greeted the original
                    // fleet already — greet this one here, *before* its
                    // slot becomes visible, or the ticker could slip a
                    // `Start` in ahead of the `Welcome`.
                    greet(&writer, shared.session, &successors)?;
                }
                {
                    let mut reg = shared.reg.lock().expect("registry lock");
                    // Before the session starts a duplicate index is a
                    // config error; after, it is a failover
                    // re-registration replacing a dead connection.
                    if !started && reg.slots[idx].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("duplicate client index {idx}"),
                        ));
                    }
                    if reg.slots[idx].is_none() {
                        reg.registered += 1;
                    }
                    reg.slots[idx] = Some(Peer {
                        udp: SocketAddr::new(peer_ip, udp_port),
                        writer: Arc::clone(&writer),
                    });
                    my_index = Some(idx);
                    shared.reg_cv.notify_all();
                }
            }
            Msg::Query { frame } => {
                let (_, inner) = open_frame(&frame)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let decoded = shared
                    .encode
                    .deserialize(inner)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let FramePayload::UplinkQuery { item, .. } = decoded.payload else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "expected an uplink query frame",
                    ));
                };
                // The codec admits any `id_bits`-wide id; the database
                // holds `n_items`. Refuse the rest here, as `Publish`
                // does, before it can index the database under the
                // core mutex every other thread needs.
                if item >= shared.n_items {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("query for item {item} outside the universe"),
                    ));
                }
                // No piggyback: the live frame does not carry it, which
                // is why adaptive Method 1 is not servable.
                let answer = shared
                    .core
                    .lock()
                    .expect("core lock")
                    .server
                    .answer(0, item, None);
                let payload = FramePayload::QueryAnswer {
                    item: answer.item,
                    value: answer.value,
                    ts_micros: answer.timestamp.as_micros(),
                };
                let epoch = shared.ha.lock().expect("ha lock").epoch;
                let datagram = seal_frame(epoch, shared.encode.serialize_payload(&payload));
                Msg::Answer { frame: datagram }
                    .write_to(&mut *writer.lock().expect("writer lock"))?;
            }
            Msg::Publish { item, value } => {
                if item >= shared.n_items {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("publish for item {item} outside the universe"),
                    ));
                }
                let mut core = shared.core.lock().expect("core lock");
                core.pending_publishes.push((item, value));
            }
            Msg::Done { row } => {
                let Some(idx) = my_index else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "Done before Hello",
                    ));
                };
                let mut bar = shared.bar.lock().expect("barrier lock");
                bar.record_done(idx, row)?;
                shared.bar_cv.notify_all();
            }
            Msg::Bye => break,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected client message {other:?}"),
                ))
            }
        }
    }
    Ok(())
}

/// Sends `Welcome` then `Successors` — the fixed greeting pair every
/// registered client receives, whether at session start (from the
/// ticker) or on a failover re-registration (from the conn thread).
fn greet(
    writer: &Arc<Mutex<BufWriter<TcpStream>>>,
    session: SessionMeta,
    successors: &[SocketAddr],
) -> io::Result<()> {
    let mut w = writer.lock().expect("writer lock");
    Msg::Welcome {
        interval_ms: session.interval_ms,
        intervals: session.intervals,
        lockstep: session.lockstep,
    }
    .write_to(&mut *w)?;
    Msg::Successors {
        peers: successors.to_vec(),
    }
    .write_to(&mut *w)
}

/// Snapshot of the currently registered peers. Re-read every interval
/// (not captured once): a failover re-registration must reach the next
/// fanout immediately.
fn current_peers(shared: &Shared) -> Vec<Peer> {
    shared
        .reg
        .lock()
        .expect("registry lock")
        .slots
        .iter()
        .flatten()
        .cloned()
        .collect()
}

/// Blocks until all `n_clients` slots are registered (or stop/timeout).
fn wait_for_registration(shared: &Shared, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    let mut reg = shared.reg.lock().expect("registry lock");
    while reg.registered < shared.n_clients {
        if shared.stop.load(Ordering::SeqCst) {
            return Err(io::Error::other("stopped before registration completed"));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "{}/{} clients registered within {timeout:?}",
                    reg.registered, shared.n_clients
                ),
            ));
        }
        let (guard, _) = shared
            .reg_cv
            .wait_timeout(reg, Duration::from_millis(50))
            .expect("registry lock");
        reg = guard;
    }
    Ok(())
}

counters! {
    /// What one report tick did — the flight ring's `report` line, field
    /// for field. Every node builds one every tick (a silent replica's
    /// `bytes` and `fanout_us` stay zero); the session totals are these
    /// absorbed.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct TickFacts {
        bytes,
        updates,
        answers,
        queue_depth,
        build_us,
        fanout_us,
    }
}

impl TickFacts {
    /// The tick that brings these session totals up to `server`'s
    /// counters, with `queue_depth` publishes waiting.
    fn next(&self, server: &CellServer, queue_depth: usize) -> TickFacts {
        TickFacts {
            updates: server.updates_applied() - self.updates,
            answers: server.uplink_answers() - self.answers,
            queue_depth: queue_depth as u64,
            ..TickFacts::default()
        }
    }

    /// The trace's series row: column names beside this tick's values.
    fn series(&self) -> [(&'static str, u64); 3] {
        [
            ("report_bits", self.bytes * 8),
            ("updates", self.updates),
            ("answers", self.answers),
        ]
    }
}

/// The ticker's running view of its session: what `/metrics` shows
/// after every tick.
#[derive(Default)]
struct TickView {
    registered: usize,
    epoch: u64,
    primary: bool,
    datagrams_sent: u64,
    /// The latest tick, and every tick so far absorbed.
    tick: TickFacts,
    totals: TickFacts,
}

fn ticker_loop(
    shared: Arc<Shared>,
    latency: SimDuration,
    opts: LiveOptions,
    mut obs: Recorder,
    strategy_name: &'static str,
    metrics: Option<(Arc<MetricsHub>, MetricsExporter)>,
    mut coordinator: Option<Box<dyn TickCoordinator>>,
) -> io::Result<LiveServerReport> {
    let (epoch, primary) = match coordinator.as_deref() {
        Some(c) => c.status(),
        None => (0, true),
    };
    let mut view = TickView {
        epoch,
        primary,
        ..TickView::default()
    };
    // Phase 1: the primary waits for the full fleet; a replica serves
    // nobody yet and begins its (silent) cadence immediately.
    if view.primary {
        wait_for_registration(&shared, opts.registration_timeout)?;
    }
    let lockstep = shared.session.lockstep;
    // Snapshot the fleet to greet *before* flipping `started`, so a
    // registration racing the flip is greeted exactly once (by its
    // conn thread, which only greets after `started` is set).
    let greeted = current_peers(&shared);
    let successors = {
        let mut ha = shared.ha.lock().expect("ha lock");
        ha.started = true;
        ha.successors.clone()
    };
    for peer in &greeted {
        greet(&peer.writer, shared.session, &successors)?;
    }
    let mut t0 = Instant::now();
    let udp = UdpSocket::bind(("0.0.0.0", 0))?;
    let mut clock = IntervalClock::new(latency);
    let mut report_bits = 0u64;
    let mut intervals_run = 0u64;
    if obs.is_enabled() {
        obs.series_schema(TickFacts::default().series().map(|(column, _)| column));
        obs.add("clients_registered", greeted.len() as u64);
    }
    let mut flight = FlightRecorder::new(opts.flight_capacity);
    // Publishes one immutable view of this tick for scrapers; gauges
    // cover the uninstrumented build, the attached recorder snapshot
    // adds the full counter/histogram plane when `observe` is on.
    let publish_tick = |i: u64, obs: &Recorder, view: &TickView| {
        let Some((hub, _)) = metrics.as_ref() else {
            return;
        };
        hub.publish(
            Published::at(i)
                .label("role", "server")
                .label("strategy", strategy_name)
                .gauge("mu_registered", view.registered as f64)
                .gauge("ha_epoch", view.epoch as f64)
                .gauge("ha_role", if view.primary { 1.0 } else { 0.0 })
                .gauge("uplink_queue_depth", view.tick.queue_depth as f64)
                .gauge("report_build_seconds", view.tick.build_us as f64 / 1e6)
                .gauge("udp_fanout_seconds", view.tick.fanout_us as f64 / 1e6)
                .gauge("datagrams_sent", view.datagrams_sent as f64)
                .gauge("report_bytes", view.totals.bytes as f64)
                .gauge("uplink_answers", view.totals.answers as f64)
                .gauge("updates_applied", view.totals.updates as f64)
                .snapshot(obs.snapshot()),
        );
    };

    // Phase 2: the broadcast cadence. Every node builds every tick;
    // only the directive's broadcaster puts it on the wire.
    let mut crash_err: Option<io::Error> = None;
    'run: for _ in 0..opts.intervals {
        let (i, t_i) = clock.tick();
        let from = clock.report_time(i - 1);
        if view.primary {
            if let Pace::Paced { interval_ms } = opts.pace {
                let due = t0 + Duration::from_millis(interval_ms) * i as u32;
                if !paced_sleep_until(&shared, due) {
                    break 'run;
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let local: Vec<(u64, u64)> = {
            let mut core = shared.core.lock().expect("core lock");
            core.pending_publishes.drain(..).collect()
        };
        let dir = match coordinator.as_deref_mut() {
            Some(c) => match c.coordinate(i, local, &shared.stop) {
                Ok(d) => d,
                Err(e) => {
                    crash_err = Some(e);
                    break 'run;
                }
            },
            None => TickDirective::solo(local),
        };
        (view.epoch, view.primary) = (dir.epoch, dir.primary);
        let epoch = view.epoch;
        {
            let mut ha = shared.ha.lock().expect("ha lock");
            ha.epoch = epoch;
            ha.primary = view.primary;
        }
        if dir.promoted {
            // Takeover: this replica is now the broadcaster. Record
            // it, dump the flight ring for the post-mortem, adopt the
            // original cadence, and (lockstep) wait for the fleet to
            // re-register — nobody can answer a Start before that.
            flight.push(i, "takeover", [("epoch", epoch)]);
            if let Some(dir_path) = opts.flight_dir.as_deref() {
                let path = dir_path.join("sw-flight-takeover.ndjson");
                let reason = format!("takeover at interval {i}, epoch {epoch}");
                match flight.dump(&path, &reason) {
                    Ok(n) => eprintln!("sw-live: takeover flight dump: {} ({n} B)", path.display()),
                    Err(e) => eprintln!("sw-live: takeover flight dump failed: {e}"),
                }
            }
            if let Some(anchor) = dir.pace_anchor {
                t0 = anchor;
            }
            if lockstep {
                wait_for_registration(&shared, opts.registration_timeout)?;
            } else if let Pace::Paced { interval_ms } = opts.pace {
                let due = t0 + Duration::from_millis(interval_ms) * i as u32;
                if !paced_sleep_until(&shared, due) {
                    break 'run;
                }
            }
        }
        let build_started = Instant::now();
        let (payload, mut tick) = {
            let _span = obs.span("report_build");
            let mut core = shared.core.lock().expect("core lock");
            core.server.advance(i, from, t_i, &dir.publishes);
            let payload = core.server.build();
            (payload, view.totals.next(&core.server, dir.publishes.len()))
        };
        tick.build_us = build_started.elapsed().as_micros() as u64;
        let peers = current_peers(&shared);
        if dir.broadcast {
            let datagram = {
                let _span = obs.span("report_encode");
                seal_frame(epoch, shared.encode.serialize_payload(&payload))
            };
            let fanout_started = Instant::now();
            {
                let _span = obs.span("udp_send");
                for peer in &peers {
                    if udp.send_to(&datagram, peer.udp).is_ok() {
                        view.datagrams_sent += 1;
                    }
                }
            }
            tick.fanout_us = fanout_started.elapsed().as_micros() as u64;
            tick.bytes = datagram.len() as u64;
            report_bits += shared.encode.payload_bits(&payload);
            obs.add("reports_built", 1);
            obs.series_row(i, tick.series().map(|(_, value)| value));
            flight.push(i, "report", tick.named());
        }
        intervals_run = i;
        view.registered = peers.len();
        view.tick = tick;
        view.totals.absorb(&tick);
        publish_tick(i, &obs, &view);
        if let Some(c) = coordinator.as_deref_mut() {
            if let Err(e) = c.after_broadcast(i) {
                crash_err = Some(e);
                break 'run;
            }
        }

        if lockstep && dir.broadcast {
            for peer in &peers {
                Msg::Start { interval: i }
                    .write_to(&mut *peer.writer.lock().expect("writer lock"))?;
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut bar = shared.bar.lock().expect("barrier lock");
            while !bar.done.iter().all(|&d| d) {
                if shared.stop.load(Ordering::SeqCst) {
                    break 'run;
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("lockstep barrier stalled at interval {i}"),
                    ));
                }
                let (guard, _) = shared
                    .bar_cv
                    .wait_timeout(bar, Duration::from_millis(50))
                    .expect("barrier lock");
                bar = guard;
            }
            bar.done.iter_mut().for_each(|d| *d = false);
        }

        // Close the interval — evaluation-period boundary, then log
        // prune — after the barrier (or this tick's paced window) so
        // the period's uplink feedback is complete. Per-item counts are
        // order-independent within an interval, so lockstep sessions
        // close periods exactly as the simulator does regardless of
        // uplink arrival order.
        let closed = shared.core.lock().expect("core lock").server.close_interval();
        if let Some(period) = closed {
            obs.event(i, "adaptive_period", period.named());
            flight.push(i, "adaptive_period", period.named());
        }
    }

    if let Some(e) = crash_err {
        // An injected crash: die abruptly. No Halt, no grace — sever
        // every client connection so the fleet sees the same EOF a
        // `kill -9` produces, and leave the coordinator's links to the
        // coordinator (it closed them before returning the error).
        shared.stop.store(true, Ordering::SeqCst);
        {
            let mut ha = shared.ha.lock().expect("ha lock");
            ha.primary = false;
        }
        for peer in current_peers(&shared) {
            if let Ok(w) = peer.writer.lock() {
                let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some((_, mut exporter)) = metrics {
            exporter.shutdown();
        }
        return Err(e);
    }

    // Phase 3: halt. Paced clients may still be mid-interval; give
    // them one interval of grace to finish their uplink exchanges
    // before the halt lands.
    if let Pace::Paced { interval_ms } = opts.pace {
        thread::sleep(Duration::from_millis(interval_ms));
    }
    for peer in current_peers(&shared) {
        let _ = Msg::Halt.write_to(&mut *peer.writer.lock().expect("writer lock"));
    }
    shared.stop.store(true, Ordering::SeqCst);
    if let Some(c) = coordinator.as_deref_mut() {
        c.halted();
    }

    let rows = {
        let mut bar = shared.bar.lock().expect("barrier lock");
        std::mem::take(&mut bar.rows)
    };
    view.registered = shared.reg.lock().expect("registry lock").registered;
    let mut core = shared.core.lock().expect("core lock");
    // One last view so a scraper that polls right at session end sees
    // the final totals (uplink answers keep arriving after the last
    // tick), then tear the endpoint down with the session.
    view.tick = view.totals.next(&core.server, core.pending_publishes.len());
    view.totals.absorb(&view.tick);
    if obs.is_enabled() {
        obs.add("updates_applied", view.totals.updates);
        obs.add("publishes_applied", core.server.publishes_applied());
        obs.add("uplink_answers", view.totals.answers);
        obs.add("report_bytes", view.totals.bytes);
    }
    publish_tick(intervals_run, &obs, &view);
    if let Some((_, mut exporter)) = metrics {
        exporter.shutdown();
    }
    Ok(LiveServerReport {
        intervals: intervals_run,
        datagrams_sent: view.datagrams_sent,
        report_bytes: view.totals.bytes,
        report_bits,
        updates_applied: view.totals.updates,
        publishes_applied: core.server.publishes_applied(),
        uplink_answers: view.totals.answers,
        rows,
        history: core.server.take_history(),
        observe: obs.snapshot(),
        flight,
    })
}

/// Sleeps in short stop-pollable slices until `due`. Returns `false`
/// if the session was stopped while waiting.
fn paced_sleep_until(shared: &Shared, due: Instant) -> bool {
    while let Some(remaining) = due
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
    {
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        thread::sleep(remaining.min(Duration::from_millis(5)));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_facts_obey_the_counter_laws_and_project_their_series() {
        sw_sim::counters::assert_laws::<TickFacts>();
        let tick = TickFacts {
            bytes: 25,
            updates: 3,
            answers: 2,
            ..TickFacts::default()
        };
        assert_eq!(
            tick.series(),
            [("report_bits", 200), ("updates", 3), ("answers", 2)]
        );
    }

    #[test]
    fn late_done_after_the_rows_were_harvested_is_an_error_not_a_panic() {
        let mut bar = BarrierState {
            done: vec![false; 2],
            rows: vec![Vec::new(); 2],
        };
        bar.record_done(1, DecisionRow::default())
            .expect("a Done during the session files its row");
        assert_eq!((bar.rows[1].len(), bar.done[1]), (1, true));
        // The halt path of `ticker_loop`, verbatim.
        let harvested = std::mem::take(&mut bar.rows);
        assert_eq!(harvested[1].len(), 1);
        let late = bar
            .record_done(1, DecisionRow::default())
            .expect_err("no row slot is left after the harvest");
        assert_eq!(late.kind(), io::ErrorKind::InvalidData);
    }
}
