//! `live_lockstep_ts`: the live stack over loopback, driven tick by tick.
//!
//! The server is the real `LiveServer`; each MU is a real `LiveMu` on
//! its own TCP and UDP sockets, one thread per MU. The loop around the
//! MU is the bench's own — the phase order of `sw_live::run_mu` for a
//! lockstep session — so each phase can be stamped. All traffic crosses
//! the loopback interface.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sleepers::faults::ReportFate;
use sleepers::prelude::*;
use sleepers::wireless::frame::open_frame;
use sleepers::wireless::{FramePayload, WireEncode};
use sw_live::conformance::sim_decision_log;
use sw_live::{encode_rows, DecisionRow, LiveMu, LiveOptions, LiveServer, Msg};

use crate::assembled;
use crate::cell::{assembled_metrics, sub_seed, REPEATS};
use crate::clock;
use crate::outcome::{OpTimes, Outcome};
use crate::pin;
use crate::spec::{Sizes, Workload};
use crate::stats;
use crate::trace::Tracer;

const W: Workload = Workload::LiveLockstepTs;

/// What the MU threads share: the tick MU 0 decides to stop after.
struct Control {
    stop_at: AtomicU64,
    warm: u64,
    counted: u64,
    seconds: f64,
}

/// What one MU thread brings home.
struct MuRun {
    rows: Vec<DecisionRow>,
    /// `(tick, sealed datagram bytes)` for every report heard.
    datagrams: Vec<(u64, usize)>,
    /// Done-to-Done periods after warm-up, microseconds.
    tick_us: Vec<f64>,
    /// The core's clock probed after each of those ticks.
    probe_us: Vec<f64>,
    /// Uplink round trips after warm-up, microseconds.
    rtt_us: Vec<f64>,
    /// When the last warm-up tick finished.
    warm_done: Instant,
    tracer: Tracer,
    /// Kept open until the server has been shut down: a peer that hangs
    /// up first makes the ticker's next `Start` fail.
    _sockets: (TcpStream, UdpSocket),
}

fn unexpected(what: &str, got: &Msg) -> io::Error {
    io::Error::other(format!("expected {what}, got {got:?}"))
}

/// The timestamp a report frame is stamped with (`None`: not a report).
fn report_stamp_micros(encode: &WireEncode, frame: &[u8]) -> Option<u64> {
    match encode.deserialize(frame).ok()?.payload {
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
        } => Some(report_ts_micros),
        _ => None,
    }
}

/// Reads datagrams until the report stamped `expected` arrives; reports
/// the unit slept through are still queued on the socket and discarded.
/// Returns the frame and the sealed datagram's length.
fn recv_report(
    udp: &UdpSocket,
    encode: &WireEncode,
    expected: u64,
    buf: &mut [u8],
) -> io::Result<(Vec<u8>, usize)> {
    loop {
        let n = udp.recv(buf)?;
        let Ok((_epoch, frame)) = open_frame(&buf[..n]) else {
            continue;
        };
        if report_stamp_micros(encode, frame) == Some(expected) {
            return Ok((frame.to_vec(), n));
        }
    }
}

/// Drives MU `index` through the session, tick by tick.
fn drive_mu(
    server: SocketAddr,
    cfg: &CellConfig,
    strategy: Strategy,
    index: usize,
    ctl: &Control,
    trace: bool,
    cpu: Option<usize>,
) -> io::Result<MuRun> {
    if let Some(cpu) = cpu {
        pin::set_affinity(&[cpu]);
    }
    let mut live = LiveMu::new(cfg, strategy, index);
    let encode = live.encoder();
    let udp = UdpSocket::bind(("127.0.0.1", 0))?;
    udp.set_read_timeout(Some(Duration::from_secs(5)))?;
    let tcp = TcpStream::connect(server)?;
    tcp.set_nodelay(true)?;
    let mut reader = BufReader::new(tcp.try_clone()?);
    let mut writer = BufWriter::new(tcp.try_clone()?);
    Msg::Hello {
        index: index as u32,
        udp_port: udp.local_addr()?.port(),
    }
    .write_to(&mut writer)?;
    match Msg::read_from(&mut reader)? {
        Msg::Welcome { lockstep: true, .. } => {}
        other => return Err(unexpected("a lockstep Welcome", &other)),
    }
    match Msg::read_from(&mut reader)? {
        Msg::Successors { .. } => {}
        other => return Err(unexpected("Successors", &other)),
    }

    let mut tr = Tracer::new(false);
    let mut run = MuRun {
        rows: Vec::new(),
        datagrams: Vec::new(),
        tick_us: Vec::new(),
        probe_us: Vec::new(),
        rtt_us: Vec::new(),
        warm_done: Instant::now(),
        tracer: Tracer::new(false),
        _sockets: (tcp, udp.try_clone()?),
    };
    let mut buf = vec![0u8; 1 << 16];
    let mut last_done = Instant::now();
    let mut deadline = None;
    for i in 1.. {
        let measuring = i > ctl.warm;
        if i == ctl.warm + 1 {
            tr.set_enabled(trace);
        }
        // Spans are numbered from the first measured tick.
        tr.set_interval(i.saturating_sub(ctl.warm + 1));
        tr.enter("live.tick");
        tr.enter("live.done_barrier");
        let msg = Msg::read_from(&mut reader)?;
        tr.exit();
        match msg {
            Msg::Start { interval } if interval == i => {}
            other => return Err(unexpected("Start", &other)),
        }
        let row = if i < live.next_wake() {
            live.asleep_row(i)
        } else {
            tr.enter("live.begin_interval");
            live.begin_interval(i);
            tr.exit();
            let fate = live.report_fate(i);
            debug_assert_eq!(fate, ReportFate::Heard, "no fault plan is armed");
            tr.enter("live.report_wait");
            let (frame, sealed_len) =
                recv_report(&udp, &encode, live.expected_report_micros(i), &mut buf)?;
            tr.exit();
            run.datagrams.push((i, sealed_len));
            tr.enter("live.mu_apply");
            let requests = live
                .hear_frame(&frame, fate)
                .map_err(|e| io::Error::other(format!("undecodable report: {e}")))?;
            tr.exit();
            for (item, _piggyback) in requests {
                tr.enter("live.uplink_rtt");
                let t = Instant::now();
                Msg::Query {
                    frame: live.query_frame(item),
                }
                .write_to(&mut writer)?;
                let answer = match Msg::read_from(&mut reader)? {
                    Msg::Answer { frame } => frame,
                    other => return Err(unexpected("Answer", &other)),
                };
                if measuring {
                    run.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                tr.exit();
                tr.enter("live.install");
                live.install_answer_frame(&answer)
                    .map_err(|e| io::Error::other(format!("undecodable answer: {e}")))?;
                tr.exit();
            }
            tr.enter("live.end_interval");
            let row = live.end_interval(i);
            tr.exit();
            row
        };
        run.rows.push(row);
        if index == 0 {
            // MU 0 ends the session: it names the last tick *before*
            // its own Done lets the server start that tick, so the other
            // MU cannot have passed it.
            if i == ctl.warm {
                run.warm_done = Instant::now();
                deadline = Some(run.warm_done + Duration::from_secs_f64(ctl.seconds));
            }
            if ctl.stop_at.load(Ordering::SeqCst) == u64::MAX
                && i >= ctl.warm + ctl.counted
                && deadline.is_some_and(|d| Instant::now() >= d)
            {
                ctl.stop_at.store(i + 1, Ordering::SeqCst);
            }
        }
        Msg::Done { row }.write_to(&mut writer)?;
        tr.exit();
        let now = Instant::now();
        if measuring {
            run.tick_us.push((now - last_done).as_secs_f64() * 1e6);
            // While the server, on the other CPU, gathers the Dones.
            run.probe_us.push(clock::probe_us());
        }
        last_done = now;
        if ctl.stop_at.load(Ordering::SeqCst) == i {
            // The next tick's Start proves the server has taken every
            // MU's last Done; shut down before that and its connection
            // thread can meet a barrier already torn down.
            match Msg::read_from(&mut reader)? {
                Msg::Start { .. } => break,
                other => return Err(unexpected("the Start after the last tick", &other)),
            }
        }
    }
    run.tracer = tr;
    Ok(run)
}

/// One finished session.
struct Session {
    /// Seconds from spawning the server to the end of the warm-up ticks.
    setup_s: f64,
    /// Per-MU results, by fleet index.
    mus: Vec<MuRun>,
}

impl Session {
    fn ticks(&self) -> u64 {
        self.mus[0].rows.len() as u64
    }

    /// (hits, misses) over the counted window, both MUs.
    fn counted_hits_misses(&self, sizes: Sizes) -> (u64, u64) {
        let window = sizes.warm as usize..(sizes.warm + sizes.counted) as usize;
        self.mus
            .iter()
            .flat_map(|mu| &mu.rows[window.clone()])
            .fold((0, 0), |(h, m), row| (h + row.hits, m + row.misses))
    }

    /// Mean sealed report size in bytes over the counted window's heard
    /// reports (each tick's report counted once).
    fn counted_report_bytes(&self, sizes: Sizes) -> f64 {
        let mut sizes_by_tick = std::collections::BTreeMap::new();
        for &(tick, bytes) in self.mus.iter().flat_map(|mu| &mu.datagrams) {
            if tick > sizes.warm && tick <= sizes.warm + sizes.counted {
                sizes_by_tick.insert(tick, bytes);
            }
        }
        sizes_by_tick.values().sum::<usize>() as f64 / sizes_by_tick.len().max(1) as f64
    }
}

/// Spawns the server and one thread per MU, runs `warm` warm-up ticks,
/// then at least `counted` ticks and until `seconds` have passed.
///
/// The server's threads are pinned to one CPU and both MU threads to the
/// other; `first` says which way round. Left to the guest scheduler, five
/// threads on two vCPUs settle into a placement per session, and the
/// tick time into one of two levels 25 % apart (ten-seed spread 24 %).
/// Of the fixed placements tried, this one moved least (2-4 %); all on
/// one CPU was as steady in the median but not in the low quantiles.
fn session(
    cfg: &CellConfig,
    sizes: Sizes,
    counted: u64,
    seconds: f64,
    trace: bool,
    first: usize,
) -> io::Result<Session> {
    let strategy = W.strategy();
    let t0 = Instant::now();
    let cpus = pin::allowed_cpus().unwrap_or_default();
    let placed = (cpus.len() >= 2).then(|| (cpus[first % 2], cpus[(first + 1) % 2]));
    // The server's threads inherit the pin of the thread that spawns them.
    if let Some((server_cpu, _)) = placed {
        pin::set_affinity(&[server_cpu]);
    }
    // The session is ended by MU 0, never by the interval budget.
    let handle = LiveServer::spawn(cfg.clone(), strategy, LiveOptions::lockstep(u64::MAX));
    if placed.is_some() {
        pin::set_affinity(&cpus);
    }
    let handle = handle?;
    let mu_cpu = placed.map(|(_, mu_cpu)| mu_cpu);
    let addr = handle.addr();
    let ctl = Control {
        stop_at: AtomicU64::new(u64::MAX),
        warm: sizes.warm,
        counted,
        seconds,
    };
    let results: Vec<io::Result<MuRun>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.n_clients)
            .map(|index| {
                let ctl = &ctl;
                scope.spawn(move || drive_mu(addr, cfg, strategy, index, ctl, trace, mu_cpu))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("an MU thread panicked"))
            .collect()
    });
    handle.shutdown();
    let server = handle.wait();
    let mus = results.into_iter().collect::<io::Result<Vec<MuRun>>>()?;
    server?;
    Ok(Session {
        setup_s: (mus[0].warm_done - t0).as_secs_f64(),
        mus,
    })
}

/// Compares every live row with the simulator's decision log of the
/// same configuration; returns `(rows compared, rows diverging)`.
fn compare_with_sim(out: &mut Outcome, cfg: &CellConfig, s: &Session) {
    let sim = sim_decision_log(cfg, W.strategy(), s.ticks()).expect("the simulated twin runs");
    let mut diverging = 0u64;
    let mut compared = 0u64;
    for (mu, sim_rows) in s.mus.iter().zip(&sim) {
        compared += mu.rows.len() as u64;
        diverging += mu.rows.iter().zip(sim_rows).filter(|(a, b)| a != b).count() as u64;
        out.check(
            format!(
                "live_lockstep_ts: MU rows byte-identical (encode_rows) to sim_decision_log over {} ticks",
                mu.rows.len()
            ),
            encode_rows(&mu.rows) == encode_rows(sim_rows),
        );
    }
    out.attempted += compared;
    out.failed += diverging;
}

/// Ticks whose mean period is one timing sample.
const BLOCK: usize = 16;

/// The timing samples of a session: MU 0's Done-to-Done period after
/// warm-up, averaged over every [`BLOCK`] consecutive ticks. Both MUs
/// share a CPU and which of them the kernel runs first changes from tick
/// to tick, which moves a single period by one MU's whole work, up or
/// down; over a block that cancels. Naps (s = 0.1) are left in: their
/// share of a block follows from the seed. The block's clock probe is
/// the shortest of its ticks' (the MUs' CPU; the server's is not seen).
fn block_samples(s: &Session) -> Vec<(f64, f64)> {
    let mu = &s.mus[0];
    mu.tick_us
        .chunks_exact(BLOCK)
        .zip(mu.probe_us.chunks_exact(BLOCK))
        .map(|(ticks, probes)| {
            let probe = probes.iter().copied().fold(f64::INFINITY, f64::min);
            (stats::mean(ticks), probe)
        })
        .collect()
}

fn block_times(out: &mut Outcome, label: &str, samples: &[(f64, f64)]) -> OpTimes {
    let times = OpTimes::at_base_clock(samples);
    let (pct, tail) = times.tail();
    out.note(format!(
        "{label}: {} blocks of {BLOCK} ticks timed, {} at the base clock, over loopback (MU 0, Done to Done, per tick): p5 {:.1} us, p50 {:.1} us, p{pct} {:.1} us",
        times.count(),
        times.kept(),
        times.p05(),
        times.p50(),
        tail
    ));
    times
}

/// MU 0's single Done-to-Done periods over the measured ticks in which
/// every MU was awake: the traced leg's `live.tick.*` percentiles.
fn awake_tick_times(s: &Session, warm: u64) -> OpTimes {
    let samples: Vec<f64> = s.mus[0]
        .tick_us
        .iter()
        .enumerate()
        .filter(|(j, _)| s.mus.iter().all(|mu| mu.rows[warm as usize + j].awake))
        .map(|(_, &us)| us)
        .collect();
    OpTimes::new(&samples)
}

/// The timed leg.
pub fn timed(sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut samples = Vec::new();
    let (mut hits, mut misses, mut report_bytes) = (0, 0, Vec::new());
    for r in 0..REPEATS {
        let cfg = W.cell_config(sub_seed(seed, r), sizes.clients);
        let s = session(
            &cfg,
            sizes,
            sizes.counted,
            seconds / REPEATS as f64,
            false,
            r,
        )
        .expect("the live session runs");
        setups.push(s.setup_s);
        samples.extend(block_samples(&s));
        out.attempted += s.ticks();
        compare_with_sim(&mut out, &cfg, &s);
        let (h, m) = s.counted_hits_misses(sizes);
        hits += h;
        misses += m;
        report_bytes.push(s.counted_report_bytes(sizes));
    }
    let peak_rss_mib = stats::peak_rss_mib();
    let times = block_times(&mut out, "timed", &samples);
    crate::cell::audit(&mut out, W, sizes, sub_seed(seed, 0));

    out.end_to_end(
        &setups,
        times.p05(),
        peak_rss_mib,
        hits as f64 / (hits + misses).max(1) as f64,
        stats::mean(&report_bytes) * 8.0,
    );
    out
}

/// The traced leg.
pub fn traced(sizes: Sizes, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let leg_start = Instant::now();
    let mut out = Outcome::default();
    let cfg = W.cell_config(sub_seed(seed, 0), sizes.clients);

    let plain =
        session(&cfg, sizes, sizes.counted, 0.0, false, 0).expect("the untraced session runs");
    let plain_times = block_times(&mut out, "untraced twin", &block_samples(&plain));
    let plain_ticks = awake_tick_times(&plain, sizes.warm);

    // The same reports built, sealed, opened and decoded bench-side, and
    // the same two units driven through the public calls.
    let sub_ops = sizes.counted.min(1_000);
    let mut asm_tr = Tracer::new(true);
    let asm = assembled::run(&cfg, W.strategy(), sizes.warm, sub_ops, true, &mut asm_tr);
    let sim = sim_decision_log(&cfg, W.strategy(), sizes.warm + sub_ops)
        .expect("the simulated twin runs");
    let (queries, hits, misses) = sim
        .iter()
        .flat_map(|rows| &rows[sizes.warm as usize..])
        .fold((0, 0, 0), |(q, h, m), r| {
            (q + r.queries, h + r.hits, m + r.misses)
        });
    out.check(
        format!("live_lockstep_ts: assembled interval matches the simulated rows on (queries, hits, misses) = {asm:?}"),
        (asm.queries, asm.hits, asm.misses) == (queries, hits, misses),
    );

    let remaining = (seconds - leg_start.elapsed().as_secs_f64()).max(0.0);
    let s =
        session(&cfg, sizes, sizes.counted, remaining, true, 0).expect("the traced session runs");
    let traced_times = block_times(&mut out, "traced session", &block_samples(&s));
    out.attempted += s.ticks();
    compare_with_sim(&mut out, &cfg, &s);
    out.check(
        "live_lockstep_ts: traced and untraced sessions agree exactly on the counted window's rows",
        plain.mus.iter().zip(&s.mus).all(|(a, b)| {
            let window = sizes.warm as usize..(sizes.warm + sizes.counted) as usize;
            a.rows[window.clone()] == b.rows[window]
        }),
    );
    out.note("traffic crossed the loopback interface (2 TCP + 2 UDP sockets, closed loop, 2 MUs)");

    let mut mus = s.mus.into_iter();
    let mu0 = mus.next().expect("MU 0 ran");
    let ticks = mu0.tick_us.len().max(1) as f64;
    let per_tick = |name: &str| mu0.tracer.total(name).self_ns as f64 / 1e3 / ticks;
    out.metric("live.tick.p50_us", plain_ticks.p50(), "us");
    out.metric("live.tick.p99_us", plain_ticks.tail().1, "us");
    out.metric("live.report_wait.us", per_tick("live.report_wait"), "us");
    out.metric("live.mu_apply.us", per_tick("live.mu_apply"), "us");
    out.metric("live.done_barrier.us", per_tick("live.done_barrier"), "us");
    let rtt = OpTimes::new(&mu0.rtt_us);
    if rtt.count() > 0 {
        out.metric("live.uplink_rtt.p50_us", rtt.p50(), "us");
        out.metric("live.uplink_rtt.p99_us", rtt.tail().1, "us");
    }
    out.metric("live.uplink_rtt.calls", rtt.count() as f64 / ticks, "count");
    out.metric(
        "wireless.report_bytes",
        plain.counted_report_bytes(sizes),
        "bytes",
    );
    let asm_us = assembled_metrics(&mut out, &asm_tr, sub_ops);
    // Here the "real backend" is the live tick: how small the whole
    // simulated interval is against one tick over sockets.
    out.metric("assembled.vs_step", asm_us / plain_times.p50(), "ratio");
    out.metric(
        "trace.overhead_frac",
        traced_times.p05() / plain_times.p05() - 1.0,
        "fraction",
    );

    let mut tr = mu0.tracer;
    for mu in mus {
        tr.absorb(mu.tracer);
    }
    tr.absorb(asm_tr);
    (out, tr)
}
