//! The HA node: a replication coordinator wrapped around one
//! [`LiveServer`] session.
//!
//! Threading, per node:
//!
//! - the `sw-live` session threads (accept / per-client / ticker),
//!   exactly as unreplicated — the ticker simply asks the coordinator
//!   for a [`TickDirective`] each interval;
//! - one replication accept thread on the rep listener;
//! - one reader thread per peer link, applying `RepAppend` /
//!   `RepAck` / `RepPromote` to the shared replication core;
//! - one dialer thread per smaller-id peer (the smaller id accepts,
//!   the larger dials; the dialer redials on link death, which is how
//!   a restarted node is re-absorbed).
//!
//! All coordination state lives in one mutex-guarded `RepCore`; the
//! coordinator's waits are short condvar timeouts so a stop request is
//! never blocked on.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sleepers::{CellConfig, Strategy};
use sw_faults::server::{CrashPoint, ServerFaultClock, ServerFaultPlan};
use sw_live::proto::Msg;
use sw_live::server::{
    LiveOptions, LiveServer, LiveServerReport, Pace, ServerHandle, TickCoordinator, TickDirective,
};

/// One cluster member's addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSpec {
    /// Cluster node id — also the takeover priority (lowest first).
    pub node: u32,
    /// Peer-to-peer replication (TCP) address.
    pub rep: SocketAddr,
    /// Client-facing (`sw-live` control) address.
    pub client: SocketAddr,
}

/// Options for one [`HaNode`].
#[derive(Debug, Clone)]
pub struct HaOptions {
    /// This node's cluster id.
    pub node: u32,
    /// Every cluster member, self included (the full membership list
    /// must be identical on every node — it defines the successor
    /// order clients are told about).
    pub peers: Vec<PeerSpec>,
    /// The wrapped live-session options (its `bind` is ignored — the
    /// node's pre-bound client listener is used instead).
    pub live: LiveOptions,
    /// This node's seeded fault schedule.
    pub faults: ServerFaultPlan,
    /// This process is a restart of a crashed cluster member: join as
    /// a replica and wait for `RepHello` catch-up replay to begin
    /// before coordinating any tick, instead of assuming the cold-start
    /// primacy order (which may name *this* node and would have it
    /// sequence bogus entries for intervals the cluster settled long
    /// ago).
    pub rejoin: bool,
}

impl HaOptions {
    /// Options for `node` in the given membership, wrapping `live`.
    pub fn new(node: u32, peers: Vec<PeerSpec>, live: LiveOptions) -> Self {
        Self {
            node,
            peers,
            live,
            faults: ServerFaultPlan::none(),
            rejoin: false,
        }
    }

    /// Arms this node's seeded fault schedule.
    pub fn with_faults(mut self, faults: ServerFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Marks this process as a restarted cluster member rejoining
    /// mid-session (see [`HaOptions::rejoin`]).
    pub fn with_rejoin(mut self) -> Self {
        self.rejoin = true;
        self
    }
}

/// How long the primary waits for majority acks before proceeding
/// degraded (the entry is still committed locally and replayed to
/// late peers via their `RepHello`).
const ACK_TIMEOUT: Duration = Duration::from_millis(250);

/// Replica-side silence bound: with the primary's link still up but no
/// append heard for this long after the epoch's previous one, the
/// primary is presumed partitioned and the successor takes over. Never
/// shorter than four of the session's own report intervals — a slowly
/// paced primary is not a silent one. (A *dead* primary is detected
/// faster — by its link closing.)
fn silence_bound(interval_ms: Option<u64>) -> Duration {
    let floor = Duration::from_secs(2);
    interval_ms.map_or(floor, |ms| floor.max(Duration::from_millis(ms) * 4))
}

/// What one HA node brings home.
pub struct HaReport {
    /// This node's cluster id.
    pub node: u32,
    /// The final epoch this node observed.
    pub epoch: u64,
    /// The interval at which this node took over broadcasting, if it
    /// ever promoted itself.
    pub took_over_at: Option<u64>,
    /// True when the node died to an injected fault (its session
    /// report is lost, like the process it models).
    pub crashed: bool,
    /// The wrapped live-session report (`None` when `crashed`).
    pub live: Option<LiveServerReport>,
}

type LinkWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// Mutex-guarded replication state shared between the coordinator and
/// the link reader threads.
struct RepCore {
    epoch: u64,
    /// Node id of the epoch's log writer.
    primary: u32,
    /// Full session log of sequenced publishes, kept for catch-up
    /// replay to late or restarted peers.
    log: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Committed entries this node's ticker has not yet consumed.
    pending: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Peer acks per interval (primary side).
    acks: HashMap<u64, Vec<u32>>,
    /// Live links by peer node id.
    links: HashMap<u32, LinkWriter>,
    last_applied: u64,
    /// When the current epoch's latest entry arrived (replica side).
    /// `None` until its first one: a primary still waiting for its
    /// fleet to register has nothing to append, and its silence is not
    /// a fault.
    last_entry: Option<Instant>,
    /// The primary's link died.
    primary_dead: bool,
    took_over_at: Option<u64>,
    /// Paced only: estimate of the session's `t0`, back-derived from
    /// append arrival times so a successor can adopt the original
    /// broadcast cadence.
    anchor: Option<Instant>,
}

struct RepShared {
    node: u32,
    interval_ms: Option<u64>,
    core: Mutex<RepCore>,
    cv: Condvar,
    /// Replication plane off: set on session halt and on injected
    /// crash (a crashed node must refuse new links, or it would keep
    /// replicating like nothing happened).
    down: AtomicBool,
}

impl RepShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, RepCore> {
        self.core.lock().expect("replication core lock")
    }

    /// Registers (or replaces) a peer link.
    fn register_link(&self, peer: u32, writer: LinkWriter) {
        let mut core = self.lock();
        core.links.insert(peer, writer);
        if peer == core.primary {
            core.primary_dead = false;
        }
        drop(core);
        self.cv.notify_all();
    }

    /// Drops a dead peer link; a dead primary link flags the failover.
    fn drop_link(&self, peer: u32) {
        let mut core = self.lock();
        core.links.remove(&peer);
        if peer == core.primary {
            core.primary_dead = true;
        }
        drop(core);
        self.cv.notify_all();
    }
}

/// Reads and applies one peer's replication traffic until the link
/// dies. `hello_seen` is the already-consumed handshake on the accept
/// side (the dialer sends its `RepHello` before entering).
fn reader_loop(shared: &RepShared, peer: u32, reader: &mut BufReader<TcpStream>) {
    loop {
        if shared.down.load(Ordering::SeqCst) {
            break;
        }
        let msg = match Msg::read_from(reader) {
            Ok(m) => m,
            Err(_) => break,
        };
        if !apply_rep_msg(shared, peer, msg) {
            break;
        }
    }
    shared.drop_link(peer);
}

/// Applies one replication message; false = protocol violation, drop
/// the link.
fn apply_rep_msg(shared: &RepShared, peer: u32, msg: Msg) -> bool {
    let mut replies: Vec<Msg> = Vec::new();
    {
        let mut core = shared.lock();
        match msg {
            Msg::RepHello { last_applied, .. } => {
                // Catch-up replay: a late or restarted peer announces
                // how far it got; if we write the log, resend the rest.
                if core.primary == shared.node {
                    for (&j, pubs) in core.log.range(last_applied + 1..) {
                        replies.push(Msg::RepAppend {
                            epoch: core.epoch,
                            interval: j,
                            publishes: pubs.clone(),
                        });
                    }
                }
            }
            Msg::RepAppend {
                epoch,
                interval,
                publishes,
            } => {
                if epoch < core.epoch {
                    // A deposed primary still sequencing: demote it.
                    replies.push(Msg::RepPromote {
                        epoch: core.epoch,
                        resume_at: core.last_applied + 1,
                    });
                } else {
                    if epoch > core.epoch {
                        core.epoch = epoch;
                        core.primary_dead = false;
                    }
                    // The appender is the epoch's writer.
                    core.primary = peer;
                    core.last_entry = Some(Instant::now());
                    if let Some(ms) = shared.interval_ms {
                        core.anchor = Instant::now()
                            .checked_sub(Duration::from_millis(ms) * interval as u32)
                            .or(core.anchor);
                    }
                    core.log.insert(interval, publishes.clone());
                    core.pending.insert(interval, publishes);
                    replies.push(Msg::RepAck {
                        epoch: core.epoch,
                        interval,
                    });
                }
            }
            Msg::RepAck { epoch, interval } => {
                if epoch == core.epoch {
                    let ackers = core.acks.entry(interval).or_default();
                    if !ackers.contains(&peer) {
                        ackers.push(peer);
                    }
                }
            }
            Msg::RepPromote { epoch, .. } => {
                if epoch > core.epoch {
                    core.epoch = epoch;
                    core.primary = peer;
                    core.primary_dead = false;
                    core.last_entry = None;
                }
            }
            _ => return false,
        }
    }
    shared.cv.notify_all();
    if !replies.is_empty() {
        let link = shared.lock().links.get(&peer).cloned();
        let Some(link) = link else { return false };
        let mut w = link.lock().expect("link writer lock");
        for m in &replies {
            if m.write_to(&mut *w).is_err() {
                return false;
            }
        }
    }
    true
}

/// The [`TickCoordinator`] implementation: primary sequencing,
/// replica application, and deterministic takeover.
struct HaCoordinator {
    shared: Arc<RepShared>,
    node: u32,
    /// Membership sorted by node id (= successor order).
    peers: Vec<PeerSpec>,
    clock: ServerFaultClock,
    links_awaited: bool,
    /// [`HaOptions::rejoin`]: wait for catch-up replay before the
    /// first tick.
    rejoin: bool,
}

enum ReplicaOutcome {
    /// The entry arrived: the directive to build it.
    Entry(TickDirective),
    /// This node is the deterministic successor: promote.
    Promote,
    /// Primacy changed under us: re-enter the decision loop.
    Reconsider,
}

impl HaCoordinator {
    fn inert(&self) -> TickDirective {
        let core = self.shared.lock();
        TickDirective {
            epoch: core.epoch,
            primary: core.primary == self.node,
            broadcast: false,
            publishes: Vec::new(),
            pace_anchor: None,
            promoted: false,
        }
    }

    /// Blocks (bounded) until every configured peer link is up, so a
    /// fleet started together replicates from interval 1 instead of
    /// racing its own dialers. Late peers are still absorbed any time
    /// via `RepHello` catch-up replay.
    fn wait_for_links(&self, stop: &AtomicBool) {
        let want = self.peers.len().saturating_sub(1);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut core = self.shared.lock();
        while core.links.len() < want
            && Instant::now() < deadline
            && !stop.load(Ordering::SeqCst)
        {
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(20))
                .expect("replication core lock");
            core = guard;
        }
    }

    /// Rejoin gate: blocks (bounded) until the cluster's catch-up
    /// replay lands — the first replicated entry both demotes this
    /// node (the appender is the epoch's writer) and seeds `pending`
    /// with everything it missed, so the ticker replays the session
    /// from interval 1 off the canonical log instead of sequencing
    /// its own cold-start entries.
    fn wait_for_catch_up(&self, stop: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut core = self.shared.lock();
        while core.pending.is_empty()
            && Instant::now() < deadline
            && !stop.load(Ordering::SeqCst)
        {
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(20))
                .expect("replication core lock");
            core = guard;
        }
    }

    /// The injected-crash exit: sever every rep link abruptly (peers
    /// see the same EOF a `kill -9` produces), take the rep plane
    /// down, and hand the ticker the error that kills the session.
    fn die(&mut self) -> io::Error {
        self.shared.down.store(true, Ordering::SeqCst);
        let links: Vec<LinkWriter> = {
            let mut core = self.shared.lock();
            core.links.drain().map(|(_, w)| w).collect()
        };
        for link in links {
            if let Ok(w) = link.lock() {
                let _ = w.get_ref().shutdown(Shutdown::Both);
            }
        }
        self.shared.cv.notify_all();
        io::Error::new(io::ErrorKind::ConnectionAborted, "injected server crash")
    }

    /// Primary path: appends the entry, replicates it, waits (bounded)
    /// for a majority of the live cluster, and returns the broadcast
    /// directive. `None`: demoted mid-sequence (a healed partition) —
    /// the caller falls back to the replica path.
    fn sequence(
        &self,
        interval: u64,
        local: Vec<(u64, u64)>,
        stop: &AtomicBool,
    ) -> Option<TickDirective> {
        let partitioned = self.clock.partitioned_at(interval);
        let (epoch, links) = {
            let mut core = self.shared.lock();
            core.log.insert(interval, local.clone());
            core.last_applied = interval;
            let links: Vec<LinkWriter> = if partitioned {
                Vec::new()
            } else {
                core.links.values().cloned().collect()
            };
            (core.epoch, links)
        };
        if !links.is_empty() {
            let msg = Msg::RepAppend {
                epoch,
                interval,
                publishes: local.clone(),
            };
            for link in &links {
                let _ = msg.write_to(&mut *link.lock().expect("link writer lock"));
            }
            let deadline = Instant::now() + ACK_TIMEOUT;
            let mut core = self.shared.lock();
            loop {
                if core.primary != self.node {
                    // Demoted mid-wait: the entry we just logged will
                    // be overwritten by the real primary's append.
                    core.acks.remove(&interval);
                    return None;
                }
                // Majority of the *live* cluster, self included: with
                // k live links we need ⌊(k+1)/2⌋ peer acks.
                let needed = core.links.len().div_ceil(2);
                let got = core.acks.get(&interval).map_or(0, |v| v.len());
                if got >= needed {
                    break;
                }
                if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
                    break; // degraded: commit locally, replay later
                }
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(core, Duration::from_millis(5))
                    .expect("replication core lock");
                core = guard;
            }
            core.acks.remove(&interval);
        }
        Some(TickDirective {
            epoch,
            primary: true,
            broadcast: true,
            publishes: local,
            pace_anchor: None,
            promoted: false,
        })
    }

    /// Replica path: waits for interval `interval`'s committed entry,
    /// watching for the primary's death or silence.
    fn replica_wait(&self, interval: u64, stop: &AtomicBool) -> ReplicaOutcome {
        let mut core = self.shared.lock();
        loop {
            if let Some(pubs) = core.pending.remove(&interval) {
                core.last_applied = core.last_applied.max(interval);
                return ReplicaOutcome::Entry(TickDirective {
                    epoch: core.epoch,
                    primary: false,
                    broadcast: false,
                    publishes: pubs,
                    pace_anchor: None,
                    promoted: false,
                });
            }
            if stop.load(Ordering::SeqCst) || core.primary == self.node {
                return ReplicaOutcome::Reconsider;
            }
            let linkless = !core.links.contains_key(&core.primary);
            let silent = core
                .last_entry
                .is_some_and(|at| at.elapsed() >= silence_bound(self.shared.interval_ms));
            if core.primary_dead || linkless || silent {
                // Deterministic successor: the lowest-id survivor.
                let successor = core
                    .links
                    .keys()
                    .copied()
                    .chain([self.node])
                    .filter(|n| *n != core.primary)
                    .min()
                    .unwrap_or(self.node);
                if successor == self.node {
                    return ReplicaOutcome::Promote;
                }
                // Someone else takes over; wait for their entry.
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(10))
                .expect("replication core lock");
            core = guard;
        }
    }

    /// Takeover: bump the epoch, announce it, sequence the resumption
    /// interval, and return the promoted broadcast directive (with the
    /// back-derived pace anchor, so the original cadence is kept).
    fn promote(&self, interval: u64, local: Vec<(u64, u64)>) -> TickDirective {
        let (epoch, links, anchor) = {
            let mut core = self.shared.lock();
            core.epoch += 1;
            core.primary = self.node;
            core.primary_dead = false;
            if core.took_over_at.is_none() {
                core.took_over_at = Some(interval);
            }
            core.log.insert(interval, local.clone());
            core.last_applied = interval;
            let links: Vec<LinkWriter> = core.links.values().cloned().collect();
            (core.epoch, links, core.anchor)
        };
        let announce = Msg::RepPromote {
            epoch,
            resume_at: interval,
        };
        let append = Msg::RepAppend {
            epoch,
            interval,
            publishes: local.clone(),
        };
        for link in &links {
            let mut w = link.lock().expect("link writer lock");
            let _ = announce.write_to(&mut *w);
            let _ = append.write_to(&mut *w);
        }
        TickDirective {
            epoch,
            primary: true,
            broadcast: true,
            publishes: local,
            pace_anchor: anchor,
            promoted: true,
        }
    }
}

impl TickCoordinator for HaCoordinator {
    fn coordinate(
        &mut self,
        interval: u64,
        local_publishes: Vec<(u64, u64)>,
        stop: &std::sync::atomic::AtomicBool,
    ) -> io::Result<TickDirective> {
        if !self.links_awaited {
            self.wait_for_links(stop);
            if self.rejoin {
                self.wait_for_catch_up(stop);
            }
            self.links_awaited = true;
        }
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(self.inert());
            }
            let am_primary = self.shared.lock().primary == self.node;
            if am_primary {
                match self.clock.crash_at(interval) {
                    Some(CrashPoint::BeforeAppend) => return Err(self.die()),
                    Some(CrashPoint::AfterAppend) => {
                        // Commit the entry first — it is replicated
                        // and acked but will never be aired: every
                        // client misses exactly this interval.
                        let _ = self.sequence(interval, local_publishes.clone(), stop);
                        return Err(self.die());
                    }
                    None => {}
                }
                match self.sequence(interval, local_publishes.clone(), stop) {
                    Some(directive) => return Ok(directive),
                    None => continue, // demoted: replica path below
                }
            }
            if self.clock.crash_at(interval).is_some() {
                return Err(self.die());
            }
            match self.replica_wait(interval, stop) {
                ReplicaOutcome::Entry(directive) => return Ok(directive),
                ReplicaOutcome::Promote => {
                    return Ok(self.promote(interval, local_publishes));
                }
                ReplicaOutcome::Reconsider => continue,
            }
        }
    }

    fn status(&self) -> (u64, bool) {
        let core = self.shared.lock();
        (core.epoch, core.primary == self.node)
    }

    fn successors(&self) -> Vec<SocketAddr> {
        self.peers.iter().map(|p| p.client).collect()
    }

    fn halted(&mut self) {
        self.shared.down.store(true, Ordering::SeqCst);
        let links: Vec<LinkWriter> = {
            let mut core = self.shared.lock();
            core.links.drain().map(|(_, w)| w).collect()
        };
        for link in links {
            if let Ok(w) = link.lock() {
                let _ = w.get_ref().shutdown(Shutdown::Both);
            }
        }
        self.shared.cv.notify_all();
    }
}

/// A pre-bound HA node, ready to start. Two-phase construction lets a
/// test bind every node on ephemeral ports first, collect the real
/// addresses into the shared [`PeerSpec`] membership, then start them.
pub struct HaNode {
    rep_listener: TcpListener,
    client_listener: TcpListener,
}

impl HaNode {
    /// Binds the node's two listeners (port 0: ephemeral).
    pub fn bind(rep: SocketAddr, client: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            rep_listener: TcpListener::bind(rep)?,
            client_listener: TcpListener::bind(client)?,
        })
    }

    /// The bound replication address.
    pub fn rep_addr(&self) -> io::Result<SocketAddr> {
        self.rep_listener.local_addr()
    }

    /// The bound client-facing address.
    pub fn client_addr(&self) -> io::Result<SocketAddr> {
        self.client_listener.local_addr()
    }

    /// Starts the node: the replication plane (accept + dialers) and
    /// the wrapped live session.
    pub fn start(
        self,
        cfg: CellConfig,
        strategy: Strategy,
        opts: HaOptions,
    ) -> io::Result<HaHandle> {
        let mut peers = opts.peers.clone();
        peers.sort_by_key(|p| p.node);
        if !peers.iter().any(|p| p.node == opts.node) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "HaOptions::peers must include this node",
            ));
        }
        // Cold start: the lowest id leads. Rejoin: the true primary is
        // unknown but is definitely *not us* — guessing any other
        // member keeps the wrapped session in replica mode (no client
        // registration wait, no sequencing) until the first replayed
        // append names the real writer.
        let initial_primary = if opts.rejoin {
            peers
                .iter()
                .map(|p| p.node)
                .find(|&n| n != opts.node)
                .unwrap_or(opts.node)
        } else {
            peers.first().map(|p| p.node).unwrap_or(opts.node)
        };
        let interval_ms = match opts.live.pace {
            Pace::Paced { interval_ms } => Some(interval_ms),
            Pace::Lockstep => None,
        };
        let shared = Arc::new(RepShared {
            node: opts.node,
            interval_ms,
            core: Mutex::new(RepCore {
                epoch: 1,
                primary: initial_primary,
                log: BTreeMap::new(),
                pending: BTreeMap::new(),
                acks: HashMap::new(),
                links: HashMap::new(),
                last_applied: 0,
                last_entry: None,
                primary_dead: false,
                took_over_at: None,
                anchor: None,
            }),
            cv: Condvar::new(),
            down: AtomicBool::new(false),
        });

        let rep_addr = self.rep_listener.local_addr()?;
        let accept = {
            let shared = Arc::clone(&shared);
            let listener = self.rep_listener;
            thread::Builder::new()
                .name(format!("sw-ha-rep-accept-{}", opts.node))
                .spawn(move || rep_accept_loop(&shared, &listener))?
        };
        // The smaller id accepts, the larger dials: every pair gets
        // exactly one link, and the dialer side owns the redial.
        let mut dialers = Vec::new();
        for peer in peers.iter().filter(|p| p.node < opts.node) {
            let shared = Arc::clone(&shared);
            let peer = *peer;
            let node = opts.node;
            dialers.push(
                thread::Builder::new()
                    .name(format!("sw-ha-rep-dial-{}-{}", node, peer.node))
                    .spawn(move || dial_loop(&shared, node, peer))?,
            );
        }

        let coordinator = HaCoordinator {
            shared: Arc::clone(&shared),
            node: opts.node,
            peers,
            clock: ServerFaultClock::new(&opts.faults, cfg.seed, opts.node),
            links_awaited: false,
            rejoin: opts.rejoin,
        };
        let server = LiveServer::spawn_coordinated(
            cfg,
            strategy,
            opts.live,
            self.client_listener,
            Box::new(coordinator),
        )?;
        Ok(HaHandle {
            node: opts.node,
            server,
            shared,
            rep_addr,
            accept,
            dialers,
        })
    }
}

/// Accepts incoming replication links: the first message must be the
/// peer's `RepHello`; it registers the link, triggers catch-up replay
/// (via the normal message path), gets our `RepHello` back, and the
/// connection becomes a plain reader loop.
fn rep_accept_loop(shared: &Arc<RepShared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name(format!("sw-ha-rep-link-{}", shared.node))
            .spawn(move || {
                let _ = serve_rep_link(&shared, stream);
            });
    }
}

fn serve_rep_link(shared: &Arc<RepShared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let hello = Msg::read_from(&mut reader)?;
    let Msg::RepHello { node: peer, .. } = hello else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "rep link did not open with RepHello",
        ));
    };
    let writer: LinkWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    shared.register_link(peer, Arc::clone(&writer));
    // Answer with our own hello (epoch + progress), then let the
    // normal handler run the replay-side effects of theirs.
    {
        let (epoch, last_applied) = {
            let core = shared.lock();
            (core.epoch, core.last_applied)
        };
        let mut w = writer.lock().expect("link writer lock");
        Msg::RepHello {
            node: shared.node,
            epoch,
            last_applied,
        }
        .write_to(&mut *w)?;
    }
    apply_rep_msg(shared, peer, hello);
    reader_loop(shared, peer, &mut reader);
    Ok(())
}

/// Dials a smaller-id peer, runs its link, and redials on death until
/// the rep plane goes down — which is also how a restarted peer
/// process (same address) is re-absorbed into the cluster.
fn dial_loop(shared: &Arc<RepShared>, node: u32, peer: PeerSpec) {
    while !shared.down.load(Ordering::SeqCst) {
        let Ok(stream) = TcpStream::connect_timeout(&peer.rep, Duration::from_millis(500))
        else {
            thread::sleep(Duration::from_millis(100));
            continue;
        };
        let Ok(()) = stream.set_nodelay(true) else { continue };
        let Ok(clone) = stream.try_clone() else { continue };
        let mut reader = BufReader::new(clone);
        let writer: LinkWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
        shared.register_link(peer.node, Arc::clone(&writer));
        let hello = {
            let core = shared.lock();
            Msg::RepHello {
                node,
                epoch: core.epoch,
                last_applied: core.last_applied,
            }
        };
        if hello
            .write_to(&mut *writer.lock().expect("link writer lock"))
            .is_err()
        {
            shared.drop_link(peer.node);
            continue;
        }
        reader_loop(shared, peer.node, &mut reader);
        thread::sleep(Duration::from_millis(100));
    }
}

/// A running HA node: the wrapped live session plus its replication
/// plane.
pub struct HaHandle {
    node: u32,
    server: ServerHandle,
    shared: Arc<RepShared>,
    rep_addr: SocketAddr,
    accept: JoinHandle<()>,
    dialers: Vec<JoinHandle<()>>,
}

impl HaHandle {
    /// The client-facing TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The replication address.
    pub fn rep_addr(&self) -> SocketAddr {
        self.rep_addr
    }

    /// The metrics endpoint, when the wrapped session asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.server.metrics_addr()
    }

    /// A detached stop trigger for the wrapped session.
    pub fn stopper(&self) -> sw_live::Stopper {
        self.server.stopper()
    }

    /// This node's current `(epoch, is_primary)` view.
    pub fn ha_status(&self) -> (u64, bool) {
        let core = self.shared.lock();
        (core.epoch, core.primary == self.shared.node)
    }

    /// Waits for the session and the replication plane to finish. An
    /// injected crash is a *normal* outcome here (`crashed: true`);
    /// any other session error propagates.
    pub fn wait(self) -> io::Result<HaReport> {
        let result = self.server.wait();
        self.shared.down.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        // Poke the rep accept loop off `accept()` so it can be joined.
        let _ = TcpStream::connect(self.rep_addr);
        let _ = self.accept.join();
        for d in self.dialers {
            let _ = d.join();
        }
        let (epoch, took_over_at) = {
            let core = self.shared.lock();
            (core.epoch, core.took_over_at)
        };
        match result {
            Ok(live) => Ok(HaReport {
                node: self.node,
                epoch,
                took_over_at,
                crashed: false,
                live: Some(live),
            }),
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => Ok(HaReport {
                node: self.node,
                epoch,
                took_over_at,
                crashed: true,
                live: None,
            }),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_bound_spans_several_of_the_sessions_own_intervals() {
        let two_s = Duration::from_secs(2);
        assert_eq!(silence_bound(None), two_s, "lockstep: no cadence");
        assert_eq!(silence_bound(Some(25)), two_s, "fast pace: the floor");
        assert_eq!(silence_bound(Some(2000)), Duration::from_secs(8));
    }
}
