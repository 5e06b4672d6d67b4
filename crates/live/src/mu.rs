//! The live mobile-unit: the simulator's client cache behind real
//! sockets.
//!
//! [`LiveMu`] is the transport-free core: a one-row [`Fleet`] — the very
//! type `CellSimulation` steps, built for client `index` alone on the
//! slot store and driven through the same phase calls — plus what only
//! a live unit has: the wire codec, a digest scratch and sweep lists
//! kept across ticks, and its own copy of the fault layer's per-client
//! fate draws. Its row, streams, wake mark and query plane are the
//! fleet's columns for that client, and its simulated twin is a row of
//! a many-row fleet: hearing a report, answering the pending queries
//! and installing an answer are the same code on both, over the same
//! `UnitState` and streams. A live unit fed the same seed and the same
//! report bytes therefore makes byte-identical decisions to its
//! simulated twin by construction; the conformance harness (see
//! [`crate::conformance`]) pins what is left — the codec, the server
//! side, and the order the daemon calls the phases in.
//!
//! [`run_mu`] wraps the core in the actual transport: a TCP control
//! connection to `sw-serve` (registration, uplink queries, lockstep
//! barriers) and a UDP socket listening for the periodic invalidation
//! reports. Queries buffer in the unit until the next heard report
//! answers them locally or sends them uplink — the paper's latency
//! rule (§2) — and a missed or corrupt report triggers the strategy's
//! own recovery at the next intact one. However an interval went —
//! slept through, blacked out mid-failover, missed, heard — it ends on
//! one path: its [`DecisionRow`] is filed, shown on the flight ring and
//! the gauges, audited, and sent as the lockstep `Done`.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sleepers::safety::ValueHistory;
use sleepers::faults::{FaultLayer, ReportFate};
use sleepers::{CellConfig, Fleet, Strategy};
use sw_client::{DigestScratch, MuStats, SweepLists};
use sw_observe::{ObserveSnapshot, Recorder};
use sw_query::QueryStats;
use sw_server::uplink::{PiggybackInfo, QueryAnswer};
use sw_sim::{Counters, IntervalClock, RngStream, SimDuration, SimTime, StreamId};
use sw_wireless::frame::{
    open_frame, seal_frame, FramePayload, WireDecodeError, WireEncode,
};
use sw_wireless::ReportDelivery;

use crate::ops::flight::FlightRecorder;
use crate::ops::hub::{MetricsHub, Published};
use crate::proto::{DecisionRow, Msg};

/// Rng-stream tag for the live-level receive-drop injector (soak
/// tests): deliberately *not* a `StreamId::Faults` stream, so it can
/// model OS-level datagram loss without touching the decision streams.
const RX_DROP_TAG: u64 = 0xD809_0000;

/// Rng-stream tag for the reconnect-backoff jitter draws — the
/// client's own stream in the session's seed space, so even a
/// reconnect storm replays byte-identically from the master seed.
const BACKOFF_TAG: u64 = 0xBAC0_0FF5;

/// Connection attempts granted to the initial registration.
const STARTUP_ATTEMPTS: u32 = 40;

/// Transport-free twin of one simulated client.
///
/// The one-row fleet consumes exactly the streams the simulator
/// consumes for client `index` (hotspot, query, sleep, Zipf, query
/// plan), and each method below is one phase of `CellSimulation::step`
/// for that client, delegated to the fleet's row 0. Timestamps cross
/// the wire as integer microseconds and convert back via
/// [`SimTime::from_micros`], which round-trips exactly whenever `L·10⁶`
/// is integral.
pub struct LiveMu {
    /// Client `index` alone, as its row 0.
    fleet: Fleet,
    /// The report digest's scratch and the heard report's lists, kept
    /// across ticks and cleared before each use.
    scratch: DigestScratch,
    lists: SweepLists,
    faults: FaultLayer,
    delivery: ReportDelivery,
    clock: IntervalClock,
    encode: WireEncode,
    index: usize,
    /// Item- and query-plane stats as the current interval opened; the
    /// decision row is their delta.
    prev: MuStats,
    prev_q: QueryStats,
}

impl LiveMu {
    /// Builds client `index` of this configuration exactly as
    /// `CellSimulation::new` does.
    pub fn new(cfg: &CellConfig, strategy: Strategy, index: usize) -> Self {
        let params = cfg.params;
        Self {
            fleet: Fleet::client(cfg, strategy, index),
            scratch: DigestScratch::default(),
            lists: SweepLists::default(),
            // The full-fleet layer (same per-client streams as the
            // simulator's); this unit only ever consumes slot `index`.
            faults: FaultLayer::new(cfg.faults.as_ref(), cfg.seed, cfg.n_clients),
            delivery: ReportDelivery::new(cfg.delivery),
            clock: IntervalClock::new(SimDuration::from_secs(params.latency_secs)),
            encode: WireEncode::new(
                params.n_items,
                params.timestamp_bits,
                params.query_bits,
                params.answer_bits,
            ),
            index,
            prev: MuStats::default(),
            prev_q: QueryStats::default(),
        }
    }

    /// First interval the unit will be awake for (`u64::MAX`: never).
    pub fn next_wake(&self) -> u64 {
        self.fleet.next_wake(0)
    }

    /// The report timestamp the server stamps on interval `i`'s
    /// report, in wire microseconds — the tag live receivers filter
    /// stale datagrams by.
    pub fn expected_report_micros(&self, i: u64) -> u64 {
        self.clock.report_time(i).as_micros()
    }

    /// Decodes `frame` as a report this unit's strategy can process. A
    /// well-formed frame of any other kind — another strategy's report,
    /// a SIG/HYB report with the wrong signature count, non-report
    /// traffic — is [`WireDecodeError::Malformed`], not a panic: any
    /// peer can put one on the air.
    fn decode_report(&self, frame: &[u8]) -> Result<FramePayload, WireDecodeError> {
        let payload = self.encode.deserialize(frame)?.payload;
        if !self.fleet.rule().accepts(&payload) {
            return Err(WireDecodeError::Malformed(
                "not a report this unit's strategy can process",
            ));
        }
        Ok(payload)
    }

    /// The all-zero decision row an asleep interval contributes.
    pub fn asleep_row(&self, i: u64) -> DecisionRow {
        DecisionRow {
            interval: i,
            ..DecisionRow::default()
        }
    }

    /// Opens interval `i` for an awake unit — the simulator's phase 1
    /// for this client.
    pub fn begin_interval(&mut self, i: u64) {
        self.prev = self.stats();
        self.prev_q = self.query_stats().unwrap_or_default();
        let (from, to) = (self.clock.report_time(i - 1), self.clock.report_time(i));
        self.fleet.open_interval(0, i, from, to);
    }

    /// Draws this interval's delivery fate from the unit's own fault
    /// stream (always [`ReportFate::Heard`] when no plan is armed) —
    /// the simulator's phase-4 pre-listen draw.
    pub fn report_fate(&mut self, i: u64) -> ReportFate {
        if !self.faults.is_active() {
            return ReportFate::Heard;
        }
        let delivery = self.delivery;
        self.faults
            .report_fate(self.index, i, |drift| delivery.misses_with_drift(drift))
    }

    /// Processes a received report *frame* (datagram minus checksum
    /// trailer) under the drawn fate. A `Corrupted` fate flips the
    /// same bit the simulator would flip in these bytes, verifies the
    /// checksum catches it, and misses the report; `Heard` decodes and
    /// applies it, returning the uplink requests the report could not
    /// satisfy locally. A frame [`LiveMu`] cannot process is refused
    /// whole, as [`WireDecodeError::Malformed`].
    pub fn hear_frame(
        &mut self,
        frame: &[u8],
        fate: ReportFate,
    ) -> Result<Vec<(u64, Option<PiggybackInfo>)>, WireDecodeError> {
        if fate.is_missed() {
            self.lose_report(frame, fate);
            return Ok(Vec::new());
        }
        let payload = self.decode_report(frame)?;
        Ok(self.hear_report(&payload))
    }

    /// Misses a report whose bytes arrived under a missed fate; a
    /// `Corrupted` fate first flips the simulator's bit in `frame` and
    /// checks the checksum catches it.
    fn lose_report(&mut self, frame: &[u8], fate: ReportFate) {
        if fate == ReportFate::Corrupted {
            self.faults.demonstrate_corruption(self.index, frame);
        }
        self.miss_report();
    }

    /// Applies a decoded report [`LiveMu::decode_report`] accepted.
    fn hear_report(&mut self, payload: &FramePayload) -> Vec<(u64, Option<PiggybackInfo>)> {
        self.lists.clear();
        let digest = self.scratch.digest(payload);
        let heard = self.fleet.hear(0, &digest, &mut self.lists);
        // Parallel to the uplinks when the unit collects hit histories,
        // else empty.
        let mut piggybacks = self.lists.piggybacks.drain(..);
        let uplinks = self.lists.uplinks[heard.uplinks].iter();
        uplinks.map(|&item| (item, piggybacks.next())).collect()
    }

    /// Records a report that never arrived (loss, drift, a receive
    /// timeout): pending queries stay queued for the next report.
    pub fn miss_report(&mut self) {
        self.fleet.miss_report(0);
    }

    /// Runs the query plane's footprint check against the item cache
    /// after a heard report closing interval `i` — the simulator's
    /// merge-phase call — returning the footprint items to fetch over
    /// the uplink before [`LiveMu::settle_queries`]. Empty when no
    /// plane is armed.
    pub fn check_queries(&mut self, i: u64) -> Vec<u64> {
        let t_i = self.clock.report_time(i);
        self.fleet.check_queries(0, t_i).unwrap_or_default()
    }

    /// Settles the query plane for interval `i` after the fetch list
    /// was served: materializes missed results and resolves
    /// transactional reads. No-op when no plane is armed.
    pub fn settle_queries(&mut self, i: u64) {
        self.fleet.settle_queries(0, self.clock.report_time(i));
    }

    /// Accumulated query-plane counters (`None`: no plane armed).
    pub fn query_stats(&self) -> Option<QueryStats> {
        self.fleet.query_plane(0).map(|p| p.stats())
    }

    /// Serializes and seals an uplink query frame for `item`. The
    /// datagram epoch header numbers *broadcasters*; client-sourced
    /// frames always carry epoch 0.
    pub fn query_frame(&self, item: u64) -> Vec<u8> {
        let payload = FramePayload::UplinkQuery {
            client: self.index as u64,
            item,
        };
        seal_frame(0, self.encode.serialize_payload(&payload))
    }

    /// Opens, decodes, and installs an uplink answer datagram.
    pub fn install_answer_frame(&mut self, datagram: &[u8]) -> Result<(), WireDecodeError> {
        let (_epoch, frame) = open_frame(datagram)?;
        let decoded = self.encode.deserialize(frame)?;
        // The id field is sized to the next power of two above `n`, and
        // the unit asks only for its hotspot's items: no server answers
        // for any other id.
        match decoded.payload {
            FramePayload::QueryAnswer {
                item,
                value,
                ts_micros,
            } if item < self.encode.n_items && self.fleet.in_hotspot(0, item) => {
                self.fleet.install_answer(0, QueryAnswer {
                    item,
                    value,
                    timestamp: SimTime::from_micros(ts_micros),
                });
                Ok(())
            }
            _ => Err(WireDecodeError::Malformed(
                "expected a query answer for an item this unit asks for",
            )),
        }
    }

    /// Closes interval `i`: computes the decision row from the stat
    /// deltas, then draws the next sleep run and schedules the wake —
    /// the simulator's phase 8 for this client.
    pub fn end_interval(&mut self, i: u64) -> DecisionRow {
        let q = self.query_stats().unwrap_or_default();
        let row = DecisionRow::from_deltas(i, &self.prev, &self.stats(), &self.prev_q, &q);
        self.fleet.close_interval(0, i);
        row
    }

    /// Cumulative client statistics.
    pub fn stats(&self) -> MuStats {
        self.fleet.unit(0).stats()
    }

    /// The cell's wire-encoding parameters.
    pub fn encoder(&self) -> WireEncode {
        self.encode
    }

    /// Snapshot of everything the unit would answer a query from — each
    /// item-cache entry, then each materialized query-result row — as
    /// audit rows stamped with interval `i`: the live analogue of the
    /// simulator's phase-6 safety sweep, audited against the server's
    /// [`ValueHistory`] after the run.
    pub fn audit_snapshot(&self, i: u64) -> Vec<CacheAuditRow> {
        let cache = self.fleet.cache(0);
        let items = cache
            .iter()
            .map(|(item, entry)| (item, entry.value, entry.timestamp));
        let rows = self.fleet.query_plane(0).into_iter().flat_map(|plane| {
            plane
                .cache()
                .iter()
                .flat_map(|entry| entry.rows.iter().map(|r| (r.item, r.value, r.timestamp)))
        });
        items
            .chain(rows)
            .map(|(item, value, timestamp)| CacheAuditRow {
                interval: i,
                item,
                value,
                ts_micros: timestamp.as_micros(),
            })
            .collect()
    }
}

/// One audited cache entry from one awake interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAuditRow {
    /// Interval the snapshot was taken at.
    pub interval: u64,
    /// Cached item.
    pub item: u64,
    /// Cached value.
    pub value: u64,
    /// Validity timestamp, wire microseconds.
    pub ts_micros: u64,
}

/// Audits recorded cache entries against the server's value history;
/// returns `(entries_checked, violations)` — the live analogue of the
/// simulator's `SafetyStats`.
pub fn audit_against_history(history: &ValueHistory, audit: &[CacheAuditRow]) -> (u64, u64) {
    let mut violations = 0u64;
    for row in audit {
        if !history.is_consistent(row.item, row.value, SimTime::from_micros(row.ts_micros)) {
            violations += 1;
        }
    }
    (audit.len() as u64, violations)
}

/// Options for [`run_mu`].
#[derive(Debug, Clone, Default)]
pub struct MuOptions {
    /// Probability of deliberately dropping each interval's report
    /// datagram at the receiver (seeded, live-level; models OS-side
    /// UDP loss for the soak test). Zero disables.
    pub rx_drop: f64,
    /// Record a per-interval cache snapshot for the staleness audit.
    pub audit_cache: bool,
    /// Flight-recorder ring size: the last `flight_capacity` intervals
    /// of decision rows and report fates, kept for a crash dump. 0
    /// (the default) disables the ring.
    pub flight_capacity: usize,
    /// Dump the flight ring after this many *consecutive* missed
    /// reports — a fault storm, the live failure mode worth forensics.
    /// 0 (the default) never triggers; the dump fires at most once per
    /// session and needs [`MuOptions::flight_dir`] set.
    pub storm_threshold: u64,
    /// Directory the fault-storm dump (`sw-flight-mu<index>.ndjson`)
    /// is written to. `None` disables the automatic dump (the ring is
    /// still returned in [`LiveMuReport::flight`]).
    pub flight_dir: Option<PathBuf>,
    /// A metrics hub to publish per-interval client gauges to (hit
    /// ratio, reports heard/missed, staleness window). `None` (the
    /// default) publishes nothing.
    pub metrics: Option<Arc<MetricsHub>>,
    /// Additional server addresses to fall back to, in announced
    /// takeover order. The unit rotates through `server` plus these
    /// (plus whatever roster the server announces after `Welcome`)
    /// whenever its current server goes quiet or dies.
    pub successors: Vec<SocketAddr>,
    /// Paced sessions only: after this many *consecutive* missed
    /// reports, probe the rotation for a (possibly new) primary.
    /// 0 defaults to 2 when `successors` is non-empty, else never —
    /// an unreplicated session treats silence as plain loss.
    pub reconnect_after: u64,
}

/// What one live client brings home.
pub struct LiveMuReport {
    /// Fleet index.
    pub index: usize,
    /// One decision row per interval, `1..=intervals`.
    pub rows: Vec<DecisionRow>,
    /// Cumulative client statistics.
    pub stats: MuStats,
    /// Cache snapshots, when [`MuOptions::audit_cache`] was set.
    pub audit: Vec<CacheAuditRow>,
    /// Reports received intact over the socket.
    pub reports_heard: u64,
    /// Awake intervals with no intact report (lost, dropped, corrupt,
    /// or timed out).
    pub reports_missed: u64,
    /// Instrumentation snapshot (`observe` feature + configured label).
    pub observe: Option<ObserveSnapshot>,
    /// The client's flight ring: the last
    /// [`MuOptions::flight_capacity`] intervals of decision facts.
    pub flight: FlightRecorder,
    /// Times the unit re-registered mid-session (0 = the original
    /// connection survived the whole run).
    pub reconnects: u64,
    /// Query-plane counters (all zeros when the cell configuration
    /// carried no [`sw_query::QueryPlaneConfig`]).
    pub query: QueryStats,
}

/// How long past the nominal broadcast instant a paced client keeps
/// listening before declaring the report missed.
fn paced_grace(interval: Duration) -> Duration {
    interval / 2
}

fn other_err(what: String) -> io::Error {
    io::Error::other(what)
}

/// Bounded exponential backoff with seeded jitter for TCP reconnects:
/// `20ms · 2^min(n,5)`, scaled by a uniform factor in `[0.5, 1.5)`
/// drawn from the client's own [`BACKOFF_TAG`] stream, capped at one
/// second per sleep.
struct Backoff {
    rng: RngStream,
    attempt: u32,
}

impl Backoff {
    fn new(cfg: &CellConfig, index: usize) -> Self {
        Self {
            rng: cfg.seed.stream(StreamId::Custom {
                tag: BACKOFF_TAG ^ index as u64,
            }),
            attempt: 0,
        }
    }

    fn delay(&mut self) -> Duration {
        let base_ms = 20u64 << self.attempt.min(5);
        self.attempt += 1;
        let jittered = (base_ms as f64 * (0.5 + self.rng.uniform())) as u64;
        Duration::from_millis(jittered.min(1_000))
    }

    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One live TCP control connection.
struct Link {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Link {
    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        msg.write_to(&mut self.writer)
    }

    fn recv(&mut self) -> io::Result<Msg> {
        Msg::read_from(&mut self.reader)
    }
}

/// The session geometry announced in the first `Welcome`.
#[derive(Clone, Copy)]
struct SessionInfo {
    interval_ms: u64,
    intervals: u64,
    lockstep: bool,
}

/// What a lockstep `Start` wait resolved to.
enum StartOutcome {
    /// `Start(i)` for the interval being waited on.
    Now,
    /// `Start(j)` with `j > i`: the broadcaster (a fresh successor)
    /// skipped ahead; the skipped intervals were never aired.
    Future(u64),
    /// The session is over.
    Halt,
}

/// The client's view of the server fleet: the connect rotation, the
/// live control link (if any), and the highest broadcaster epoch
/// heard — the fence that silences deposed primaries.
struct Uplink {
    targets: Vec<SocketAddr>,
    cursor: usize,
    link: Option<Link>,
    epoch_seen: u64,
    reconnects: u64,
}

impl Uplink {
    fn new(server: SocketAddr, successors: &[SocketAddr]) -> Self {
        let mut up = Self {
            targets: vec![server],
            cursor: 0,
            link: None,
            epoch_seen: 0,
            reconnects: 0,
        };
        up.merge_targets(successors);
        up
    }

    fn merge_targets(&mut self, more: &[SocketAddr]) {
        for addr in more {
            if !self.targets.contains(addr) {
                self.targets.push(*addr);
            }
        }
    }

    fn drop_link(&mut self) {
        self.link = None;
    }

    /// Walks the target rotation until a primary accepts the
    /// registration, up to `max_attempts` tries. [`Msg::Standby`]
    /// replies (live replicas) advance the rotation immediately;
    /// connect/handshake failures additionally sleep the backoff.
    fn connect(
        &mut self,
        index: usize,
        udp_port: u16,
        backoff: &mut Backoff,
        max_attempts: u32,
    ) -> io::Result<SessionInfo> {
        self.link = None;
        let mut last_err: Option<io::Error> = None;
        for _ in 0..max_attempts {
            let target = self.targets[self.cursor % self.targets.len()];
            match self.try_target(target, index, udp_port) {
                Ok(Some(info)) => {
                    backoff.reset();
                    return Ok(info);
                }
                Ok(None) => self.cursor += 1,
                Err(e) => {
                    last_err = Some(e);
                    self.cursor += 1;
                    std::thread::sleep(backoff.delay());
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| other_err("no primary found in the server rotation".into())))
    }

    /// One registration attempt. `Ok(None)`: the target is a standby
    /// replica — try the next one.
    fn try_target(
        &mut self,
        target: SocketAddr,
        index: usize,
        udp_port: u16,
    ) -> io::Result<Option<SessionInfo>> {
        let tcp = TcpStream::connect_timeout(&target, Duration::from_millis(500))?;
        tcp.set_nodelay(true)?;
        let mut link = Link {
            reader: BufReader::new(tcp.try_clone()?),
            writer: BufWriter::new(tcp),
        };
        link.send(&Msg::Hello {
            index: index as u32,
            udp_port,
        })?;
        match link.recv()? {
            Msg::Welcome {
                interval_ms,
                intervals,
                lockstep,
            } => {
                // The successor roster rides right behind the Welcome.
                match link.recv()? {
                    Msg::Successors { peers } => self.merge_targets(&peers),
                    other => {
                        return Err(other_err(format!("expected Successors, got {other:?}")))
                    }
                }
                self.link = Some(link);
                Ok(Some(SessionInfo {
                    interval_ms,
                    intervals,
                    lockstep,
                }))
            }
            Msg::Standby { epoch } => {
                self.epoch_seen = self.epoch_seen.max(epoch);
                Ok(None)
            }
            other => Err(other_err(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// Lockstep: blocks for the next `Start`, re-registering through
    /// the rotation whenever the link dies (the primary crashed). A
    /// reconnect here is hard-bounded — a lockstep session cannot
    /// proceed without a broadcaster.
    fn wait_start(
        &mut self,
        i: u64,
        index: usize,
        udp_port: u16,
        backoff: &mut Backoff,
        flight: &mut FlightRecorder,
    ) -> io::Result<StartOutcome> {
        loop {
            if self.link.is_none() {
                self.connect(index, udp_port, backoff, STARTUP_ATTEMPTS)?;
                self.note_reconnect(i, flight);
            }
            let link = self.link.as_mut().expect("link just ensured");
            match link.recv() {
                Ok(Msg::Start { interval }) if interval == i => return Ok(StartOutcome::Now),
                Ok(Msg::Start { interval }) if interval > i => {
                    return Ok(StartOutcome::Future(interval))
                }
                Ok(Msg::Start { interval }) => {
                    return Err(other_err(format!("Start({interval}) after interval {i}")))
                }
                Ok(Msg::Halt) => return Ok(StartOutcome::Halt),
                Ok(other) => {
                    return Err(other_err(format!("expected Start({i}), got {other:?}")))
                }
                Err(_) => self.link = None,
            }
        }
    }

    /// Counts a mid-session re-registration and puts it on the flight
    /// ring.
    fn note_reconnect(&mut self, i: u64, flight: &mut FlightRecorder) {
        self.reconnects += 1;
        let fields = [("epoch", self.epoch_seen), ("reconnects", self.reconnects)];
        flight.push(i, "reconnect", fields);
    }

    /// Best-effort send: a failure just drops the link (the next
    /// barrier wait or probe re-registers).
    fn send_soft(&mut self, msg: &Msg) {
        let died = match self.link.as_mut() {
            Some(link) => link.send(msg).is_err(),
            None => false,
        };
        if died {
            self.link = None;
        }
    }

    /// Uplink query round-trip. `Ok(None)`: the server halted the
    /// session mid-exchange. `Err`: the link died (the caller treats
    /// the remaining queries as unanswered and moves on).
    fn exchange_query(&mut self, frame: Vec<u8>) -> io::Result<Option<Vec<u8>>> {
        let link = self
            .link
            .as_mut()
            .ok_or_else(|| other_err("no live control link".into()))?;
        let result = (|| -> io::Result<Option<Vec<u8>>> {
            link.send(&Msg::Query { frame })?;
            match link.recv()? {
                Msg::Answer { frame } => Ok(Some(frame)),
                Msg::Halt => Ok(None),
                other => Err(other_err(format!("expected Answer, got {other:?}"))),
            }
        })();
        if result.is_err() {
            self.link = None;
        }
        result
    }

    /// Fetches `items` one uplink round-trip each and installs the
    /// answers. `Ok(false)`: the server halted the session
    /// mid-exchange. A link that dies on the way (the server crashed)
    /// leaves the remaining items unanswered; the next barrier wait or
    /// probe re-registers.
    fn fetch(
        &mut self,
        live: &mut LiveMu,
        items: impl IntoIterator<Item = u64>,
    ) -> io::Result<bool> {
        for item in items {
            match self.exchange_query(live.query_frame(item)) {
                Ok(Some(frame)) => live
                    .install_answer_frame(&frame)
                    .map_err(|e| other_err(format!("undecodable answer: {e}")))?,
                Ok(None) => return Ok(false),
                Err(_) => break,
            }
        }
        Ok(true)
    }
}

/// Runs one live client session against an `sw-serve` daemon at
/// `server`: registers, listens for every report it is awake for,
/// answers queries from cache or uplink, and plays the strategy's own
/// recovery on every miss. Returns once the server halts the session.
///
/// `cfg`/`strategy`/`index` must match the server's configuration —
/// the client derives its query/sleep/fault streams from them, which
/// is exactly what makes the session reproducible.
pub fn run_mu(
    server: SocketAddr,
    cfg: &CellConfig,
    strategy: Strategy,
    index: usize,
    opts: MuOptions,
) -> io::Result<LiveMuReport> {
    let mut obs = match &cfg.observe {
        Some(label) => Recorder::enabled(format!("{label}.mu{index}")),
        None => Recorder::disabled(),
    };
    let mut live = LiveMu::new(cfg, strategy, index);
    let mut rx_drop_rng = (opts.rx_drop > 0.0)
        .then(|| cfg.seed.stream(StreamId::Custom { tag: RX_DROP_TAG ^ index as u64 }));

    let udp = UdpSocket::bind(("127.0.0.1", 0))?;
    let udp_port = udp.local_addr()?.port();
    let mut backoff = Backoff::new(cfg, index);
    let mut uplink = Uplink::new(server, &opts.successors);
    let SessionInfo {
        interval_ms,
        intervals,
        lockstep,
    } = uplink.connect(index, udp_port, &mut backoff, STARTUP_ATTEMPTS)?;
    let interval = Duration::from_millis(interval_ms.max(1));
    let t0 = Instant::now();
    // Paced probe threshold: consecutive misses before hunting for a
    // successor (0 = never; silence is then indistinguishable from
    // loss, the unreplicated default).
    let reconnect_after = match opts.reconnect_after {
        0 if opts.successors.is_empty() => 0,
        0 => 2,
        n => n,
    };
    let mut pending_start: Option<u64> = None;

    let mut rows = Vec::with_capacity(intervals as usize);
    let mut reports_heard = 0u64;
    let mut reports_missed = 0u64;
    let mut audit = Vec::new();
    // A report for a future interval, pulled off the socket while
    // hunting for the current one (paced mode only).
    let mut lookahead: Option<(u64, HeardReport)> = None;
    // The one receive buffer every tick's `recv_report` reads into. UDP
    // bounds a datagram at 64 KiB; a live report must fit one (the
    // paper's reports are small by design — §3 sizes them in hundreds
    // of bits; even a full Scenario-1 TS window is ~4 KiB).
    let mut datagram = vec![0u8; 1 << 16];
    let mut halted = false;
    let mut flight = FlightRecorder::new(opts.flight_capacity);
    // Fault-storm forensics: count *consecutive* missed reports, dump
    // the ring once when the run crosses the configured threshold.
    let mut consecutive_missed = 0u64;
    let mut storm_dumped = false;
    let mut last_heard_interval = 0u64;
    'session: for i in 1..=intervals {
        // `started == false` only mid-failover in lockstep: the
        // broadcaster skipped this interval entirely (it died before
        // airing it and its successor resumed later), so the unit
        // settles it locally — a forced miss consuming no fault
        // randomness, the exact twin of a simulated blackout window —
        // and sends no Done (it never saw a Start).
        let started = if lockstep {
            match pending_start {
                Some(j) if j > i => false,
                Some(_) => {
                    pending_start = None;
                    true
                }
                None => match uplink.wait_start(i, index, udp_port, &mut backoff, &mut flight)? {
                    StartOutcome::Now => true,
                    StartOutcome::Future(j) => {
                        pending_start = Some(j);
                        false
                    }
                    StartOutcome::Halt => break 'session,
                },
            }
        } else {
            true
        };
        let row = if i < live.next_wake() {
            // Asleep: no listening, no rng draws — the simulator's
            // sleepers cost nothing per interval either.
            live.asleep_row(i)
        } else {
            live.begin_interval(i);
            // The report's bytes and the fate they arrive under; `None`
            // is a miss. A blackout interval draws no fate and reads no
            // socket.
            let delivered = if started {
                let fate = live.report_fate(i);
                let expected = live.expected_report_micros(i);
                // Live-level receive drop (soak): the datagram is simply
                // never read; a fate that already missed the report
                // skips the socket too (the bytes go stale and are
                // discarded by timestamp). A corruption fate still needs
                // the real bytes to flip.
                let dropped_rx = match rx_drop_rng.as_mut() {
                    Some(rng) => rng.uniform() < opts.rx_drop,
                    None => false,
                };
                let wants_bytes =
                    fate == ReportFate::Heard && !dropped_rx || fate == ReportFate::Corrupted;
                let deadline = if lockstep {
                    Instant::now() + Duration::from_secs(5)
                } else {
                    t0 + interval * i as u32 + paced_grace(interval)
                };
                if wants_bytes {
                    recv_report(
                        &udp,
                        &mut datagram,
                        &live,
                        expected,
                        deadline,
                        fate == ReportFate::Corrupted,
                        &mut lookahead,
                        &mut uplink.epoch_seen,
                    )?
                    .map(|report| (report, fate))
                } else {
                    None
                }
            } else {
                None
            };
            let requests = match &delivered {
                Some((report, ReportFate::Heard)) => live.hear_report(&report.payload),
                Some((report, fate)) => {
                    let frame = report.frame.as_deref();
                    live.lose_report(frame.expect("a corrupted fate keeps its bytes"), *fate);
                    Vec::new()
                }
                None => {
                    live.miss_report();
                    Vec::new()
                }
            };
            let heard = matches!(delivered, Some((_, ReportFate::Heard)));
            if heard {
                reports_heard += 1;
                consecutive_missed = 0;
                last_heard_interval = i;
            } else {
                reports_missed += 1;
                consecutive_missed += 1;
                let missed = [("consecutive", consecutive_missed)];
                obs.event(i, "report_missed", missed);
                let kind = if started {
                    "report_missed"
                } else {
                    "report_blackout"
                };
                flight.push(i, kind, missed);
                if started
                    && opts.storm_threshold > 0
                    && consecutive_missed >= opts.storm_threshold
                    && !storm_dumped
                {
                    storm_dumped = true;
                    flight.push(
                        i,
                        "fault_storm",
                        [
                            ("consecutive", consecutive_missed),
                            ("threshold", opts.storm_threshold),
                        ],
                    );
                    if let Some(dir) = opts.flight_dir.as_deref() {
                        let path = dir.join(format!("sw-flight-mu{index}.ndjson"));
                        let reason = format!(
                            "fault storm: {consecutive_missed} consecutive missed \
                             reports at interval {i}"
                        );
                        match flight.dump(&path, &reason) {
                            Ok(n) => eprintln!(
                                "mu{index}: fault storm; dumped {n}-byte flight ring to {}",
                                path.display()
                            ),
                            Err(e) => eprintln!(
                                "mu{index}: fault storm; flight dump to {} failed: {e}",
                                path.display()
                            ),
                        }
                    }
                }
                if !lockstep && reconnect_after > 0 && consecutive_missed >= reconnect_after {
                    // The broadcaster has gone quiet; probe the rotation
                    // for the announced successor. Failure is soft — the
                    // unit stays offline, treats further silence as
                    // ordinary misses, and probes again next interval.
                    uplink.drop_link();
                    let budget = uplink.targets.len() as u32 * 2;
                    if uplink
                        .connect(index, udp_port, &mut backoff, budget)
                        .is_ok()
                    {
                        consecutive_missed = 0;
                        uplink.note_reconnect(i, &mut flight);
                    }
                }
            }
            // Piggybacked hit histories are an adaptive-strategy input;
            // the live wire carries the plain query (static strategies
            // never read them server-side).
            if !uplink.fetch(&mut live, requests.into_iter().map(|(item, _)| item))? {
                halted = true;
                break 'session;
            }
            if heard {
                // Query plane, in the simulator's order: footprint check
                // against the just-settled item cache, fetch the missing
                // footprint rows over the same uplink, then materialize
                // and resolve transactional reads. Missed reports skip
                // all of it — the plane already queued its work via
                // miss_report.
                let footprint = live.check_queries(i);
                if !uplink.fetch(&mut live, footprint)? {
                    halted = true;
                    break 'session;
                }
                live.settle_queries(i);
            }
            live.end_interval(i)
        };
        // The one way interval `i` finishes — slept through, blacked
        // out, missed or heard: the row is filed, shown on the flight
        // ring and the gauges, audited, and (lockstep) releases the
        // server's barrier.
        rows.push(row);
        flight.push(i, "decision", row.flight_fields());
        if let Some(hub) = opts.metrics.as_ref() {
            let s = live.stats();
            let mut tick = Published::at(i)
                .label("role", "mu")
                .label("index", index.to_string())
                .label("strategy", strategy.name())
                .gauge("awake", if row.awake { 1.0 } else { 0.0 })
                .gauge("cache_hit_ratio", s.hit_ratio())
                .gauge("reports_heard", reports_heard as f64)
                .gauge("reports_missed", reports_missed as f64)
                .gauge("staleness_window", (i - last_heard_interval) as f64)
                .gauge("queries", s.queries_posed as f64);
            if let Some(q) = live.query_stats() {
                tick = tick.gauges(q.named());
            }
            if cfg.cache_capacity.is_some() {
                tick = tick.gauges(s.capacity().named());
            }
            hub.publish(tick);
        }
        if row.awake && opts.audit_cache {
            audit.extend(live.audit_snapshot(i));
        }
        if lockstep {
            if started {
                uplink.send_soft(&Msg::Done { row });
            }
        } else if !row.awake {
            sleep_until(t0 + interval * i as u32);
        }
    }
    if !halted {
        uplink.send_soft(&Msg::Bye);
    }

    let stats = live.stats();
    let query = live.query_stats().unwrap_or_default();
    if obs.is_enabled() {
        obs.add("queries", stats.queries_posed);
        obs.add("hits", stats.hit_events);
        obs.add("misses", stats.miss_events);
        obs.add("reports_heard", reports_heard);
        obs.add("reports_missed", reports_missed);
        obs.add("cache_drops", stats.cache_drops);
        obs.add("items_invalidated", stats.items_invalidated);
        obs.add_all(query.named());
    }
    Ok(LiveMuReport {
        index,
        rows,
        stats,
        audit,
        reports_heard,
        reports_missed,
        observe: obs.snapshot(),
        flight,
        reconnects: uplink.reconnects,
        query,
    })
}

/// A datagram's frame that decoded to a report this unit accepts: the
/// report, decoded once, and its bytes if a fate may need them (a
/// `Corrupted` fate flips one).
struct HeardReport {
    payload: FramePayload,
    frame: Option<Vec<u8>>,
}

/// The timestamp a report is stamped with — the tag live receivers
/// discard stale datagrams by.
fn report_stamp_micros(payload: &FramePayload) -> Option<u64> {
    match payload {
        FramePayload::TimestampReport {
            report_ts_micros, ..
        }
        | FramePayload::AmnesicReport {
            report_ts_micros, ..
        }
        | FramePayload::SignatureReport {
            report_ts_micros, ..
        }
        | FramePayload::AdaptiveTimestampReport {
            report_ts_micros, ..
        }
        | FramePayload::HybridReport {
            report_ts_micros, ..
        } => Some(*report_ts_micros),
        _ => None,
    }
}

/// Pulls datagrams off the socket until one decodes to a report
/// stamped `expected` micros, the deadline passes, or a *future*
/// report shows up (stashed in `lookahead`; the current one is then
/// declared missed). Stale or undecodable datagrams are discarded.
/// Datagrams are read into the caller's `buf`; the current report keeps
/// a copy of its bytes only if `keep_frame` (its fate reads them), and
/// a stashed one always does (its fate is drawn later).
#[allow(clippy::too_many_arguments)]
fn recv_report(
    udp: &UdpSocket,
    buf: &mut [u8],
    live: &LiveMu,
    expected: u64,
    deadline: Instant,
    keep_frame: bool,
    lookahead: &mut Option<(u64, HeardReport)>,
    epoch_floor: &mut u64,
) -> io::Result<Option<HeardReport>> {
    if let Some((ts, _)) = lookahead {
        if *ts == expected {
            return Ok(lookahead.take().map(|(_, report)| report));
        }
        if *ts > expected {
            return Ok(None);
        }
        *lookahead = None;
    }
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
        else {
            return Ok(None);
        };
        udp.set_read_timeout(Some(remaining))?;
        let n = match udp.recv(buf) {
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        let Ok((epoch, frame)) = open_frame(&buf[..n]) else {
            continue; // line noise: failed the checksum
        };
        if epoch < *epoch_floor {
            continue; // a deposed broadcaster from an older epoch
        }
        *epoch_floor = epoch.max(*epoch_floor);
        // Not a report frame, or not one of this strategy's.
        let Ok(payload) = live.decode_report(frame) else {
            continue;
        };
        let Some(ts) = report_stamp_micros(&payload) else {
            continue;
        };
        let report = |keep: bool| HeardReport {
            payload,
            frame: keep.then(|| frame.to_vec()),
        };
        match ts.cmp(&expected) {
            std::cmp::Ordering::Equal => return Ok(Some(report(keep_frame))),
            std::cmp::Ordering::Less => continue, // stale: slept/missed past it
            std::cmp::Ordering::Greater => {
                *lookahead = Some((ts, report(true)));
                return Ok(None);
            }
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if let Some(d) = at.checked_duration_since(now) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepers::ServerDriver;
    use sw_server::Database;
    use sw_workload::ScenarioParams;

    /// A well-formed datagram of another strategy's report kind, or a
    /// SIG/HYB report with one signature too few or too many, is what
    /// any peer on the segment can send: `hear_frame` must refuse it as
    /// malformed (and `recv_report`, through `decode_report`, discard
    /// it like line noise) instead of panicking the MU thread —
    /// and refuse it *whole*, so the genuine report still applies.
    #[test]
    fn reports_of_another_strategy_or_signature_count_are_refused_not_a_panic() {
        let mut params = ScenarioParams::scenario1().with_s(0.0);
        params.n_items = 300;
        let cfg = CellConfig::new(params).with_clients(1).with_hotspot_size(15);
        let db = Database::new(params.n_items, |i| i, SimDuration::from_secs(1e6));
        let strategies = [
            Strategy::BroadcastTimestamps,
            Strategy::AmnesicTerminals,
            Strategy::Signatures,
            Strategy::HybridSig { hot_count: 40 },
        ];
        let t_1 = SimTime::from_secs(params.latency_secs);
        let genuine: Vec<FramePayload> = strategies
            .iter()
            .map(|&s| ServerDriver::new(s, &params, cfg.protocol_seed(), &db, 1).build(1, t_1, &db))
            .collect();
        for (own, strategy) in strategies.iter().enumerate() {
            let mut live = LiveMu::new(&cfg, *strategy, 0);
            live.begin_interval(1);
            let mut hostile: Vec<FramePayload> = genuine.clone();
            hostile.remove(own);
            // Short and long signature vectors of the unit's own kind.
            for longer in [false, true] {
                let mut wrong = genuine[own].clone();
                if let FramePayload::SignatureReport { signatures, .. }
                | FramePayload::HybridReport { signatures, .. } = &mut wrong
                {
                    let signatures = Arc::make_mut(signatures);
                    if longer {
                        signatures.push(7);
                    } else {
                        signatures.pop();
                    }
                    hostile.push(wrong);
                }
            }
            for payload in &hostile {
                let frame = live.encoder().serialize_payload(payload);
                assert!(live.decode_report(&frame).is_err(), "{payload:?}");
                let refused = live.hear_frame(&frame, ReportFate::Heard);
                assert!(
                    matches!(refused, Err(WireDecodeError::Malformed(_))),
                    "{} unit given {payload:?}: {refused:?}",
                    strategy.name()
                );
            }
            let frame = live.encoder().serialize_payload(&genuine[own]);
            let own = live.decode_report(&frame).expect("the unit's own report");
            assert_eq!(
                report_stamp_micros(&own),
                Some(live.expected_report_micros(1))
            );
            live.hear_frame(&frame, ReportFate::Heard)
                .expect("the unit's own report is heard after the hostile ones");
            assert_eq!(live.end_interval(1).drops, 0, "nothing was half-applied");
        }
    }

    /// An answer frame can name ids up to the id field's power of two:
    /// one past the database is refused before it reaches the cache or
    /// SIG's subset masks, and so is an id in the database that the
    /// unit never asks for (one outside its hotspot).
    #[test]
    fn an_answer_for_an_item_outside_the_database_is_refused() {
        let mut params = ScenarioParams::scenario1().with_s(0.0);
        params.n_items = 300;
        let cfg = CellConfig::new(params).with_clients(1).with_hotspot_size(15);
        let mut live = LiveMu::new(&cfg, Strategy::Signatures, 0);
        let encode = live.encoder();
        let answer = |item| {
            let payload = FramePayload::QueryAnswer {
                item,
                value: 1,
                ts_micros: 0,
            };
            seal_frame(0, encode.serialize_payload(&payload))
        };
        let fleet = &live.fleet;
        let stranger = (0..params.n_items)
            .rev()
            .find(|&item| !fleet.in_hotspot(0, item))
            .expect("a 15-item hotspot leaves most of the database out");
        let mine = (0..params.n_items)
            .find(|&item| fleet.in_hotspot(0, item))
            .expect("the hotspot is not empty");
        for refused in [params.n_items, stranger] {
            assert!(
                matches!(
                    live.install_answer_frame(&answer(refused)),
                    Err(WireDecodeError::Malformed(_))
                ),
                "item {refused}"
            );
        }
        live.install_answer_frame(&answer(mine))
            .expect("a hotspot item is in the database");
        assert_eq!(live.fleet.cache(0).len(), 1, "only the answer it asked for");
    }
}
