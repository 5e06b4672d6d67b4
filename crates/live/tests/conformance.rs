//! The acceptance gate: same seed + same update schedule ⇒
//! byte-identical per-client decision logs between `CellSimulation`
//! and the live stack, for TS, AT, and SIG (plus the hybrid report,
//! and — with the `faults` feature — under injected downlink loss and
//! corruption against real datagram bytes).

use sleepers::{CellConfig, Strategy};
use sw_live::check_conformance;
use sw_workload::ScenarioParams;

/// A fleet small enough that the simulated channel never saturates
/// (saturation would defer answers the live TCP uplink delivers
/// immediately — `check_conformance` rejects such runs instead of
/// comparing them).
fn small_cell(s: f64) -> CellConfig {
    let mut params = ScenarioParams::scenario1().with_s(s);
    params.n_items = 300;
    params.mu = 2e-3;
    params.k = 10;
    CellConfig::new(params)
        .with_clients(6)
        .with_hotspot_size(15)
        .with_seed(0x11FE_C0DE)
}

fn assert_conforms(cfg: &CellConfig, strategy: Strategy, intervals: u64) {
    let outcome = check_conformance(cfg, strategy, intervals)
        .unwrap_or_else(|e| panic!("{} conformance failed: {e}", strategy.name()));
    // The harness already compared the encodings; sanity-check the
    // logs are non-trivial (somebody was awake and decided something).
    let decided: u64 = outcome
        .sim
        .iter()
        .flatten()
        .map(|r| r.queries + r.hits + r.misses)
        .sum();
    assert!(decided > 0, "a trivial log conforms vacuously");
}

#[test]
fn ts_decision_logs_are_byte_identical() {
    assert_conforms(&small_cell(0.4), Strategy::BroadcastTimestamps, 48);
}

#[test]
fn at_decision_logs_are_byte_identical() {
    assert_conforms(&small_cell(0.6), Strategy::AmnesicTerminals, 48);
}

#[test]
fn sig_decision_logs_are_byte_identical() {
    assert_conforms(&small_cell(0.4), Strategy::Signatures, 32);
}

#[test]
fn hybrid_decision_logs_are_byte_identical() {
    assert_conforms(&small_cell(0.5), Strategy::HybridSig { hot_count: 40 }, 32);
}

/// Sleep-heavy fleets exercise the gap-recovery paths (TS window
/// overruns, AT whole-cache drops) rather than the steady state.
#[test]
fn sleeper_heavy_ts_and_at_conform() {
    let cfg = small_cell(0.9);
    assert_conforms(&cfg, Strategy::BroadcastTimestamps, 40);
    assert_conforms(&cfg, Strategy::AmnesicTerminals, 40);
}

/// The query-plane gate: arming result caching on both sides keeps the
/// widened decision rows — query hit/miss verdicts and transaction
/// commit/abort outcomes included — byte-identical for every static
/// strategy the daemon serves.
#[test]
fn query_armed_decision_logs_are_byte_identical() {
    let qc = sleepers::query::QueryPlaneConfig::new();
    let outcome = check_conformance(
        &small_cell(0.4).with_query(qc),
        Strategy::BroadcastTimestamps,
        48,
    )
    .expect("TS query conformance");
    let resolved: u64 = outcome
        .sim
        .iter()
        .flatten()
        .map(|r| r.qhits + r.qmisses)
        .sum();
    assert!(resolved > 0, "the query plane never resolved a query");
    let txns: u64 = outcome
        .sim
        .iter()
        .flatten()
        .map(|r| r.qcommits + r.qaborts)
        .sum();
    assert!(txns > 0, "no transactional read ever finished");
    assert_conforms(
        &small_cell(0.6).with_query(qc),
        Strategy::AmnesicTerminals,
        40,
    );
    assert_conforms(&small_cell(0.4).with_query(qc), Strategy::Signatures, 28);
}

/// The bounded-cache gate: with finite capacity armed on both sides,
/// the widened decision rows — eviction and capacity-miss counters
/// included — stay byte-identical for every replacement policy. The
/// simulator side hosts the columnar fleet here (bounded caches are
/// columnar-eligible), so this also pins live-vs-columnar equality
/// under eviction pressure.
#[test]
fn bounded_cache_decision_logs_are_byte_identical() {
    use sleepers::capacity::ReplacementPolicy;

    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Lfu,
        ReplacementPolicy::WindowAge,
    ] {
        let cfg = small_cell(0.4)
            .with_cache_capacity(6)
            .with_replacement(policy);
        let outcome = check_conformance(&cfg, Strategy::BroadcastTimestamps, 40)
            .unwrap_or_else(|e| panic!("{policy:?} bounded conformance failed: {e}"));
        let evicted: u64 = outcome.sim.iter().flatten().map(|r| r.evictions).sum();
        assert!(evicted > 0, "{policy:?}: capacity 6 under a 15-item hotspot must evict");
    }
    assert_conforms(
        &small_cell(0.6).with_cache_capacity(6),
        Strategy::AmnesicTerminals,
        40,
    );
}

/// The Zipf gate: `CellConfig::query_zipf` moves every arrival's item
/// pick onto the client's dedicated stream, and a live unit honours it
/// because it sits in the same seat the simulator's clients do. Bounded
/// LRU caches make the skew bite: which items are hot decides what gets
/// evicted.
#[test]
fn zipf_bounded_decision_logs_are_byte_identical() {
    use sleepers::capacity::ReplacementPolicy;

    let cell = |s: f64| {
        small_cell(s)
            .with_query_zipf(0.8)
            .with_cache_capacity(6)
            .with_replacement(ReplacementPolicy::Lru)
    };
    assert_conforms(&cell(0.4), Strategy::BroadcastTimestamps, 48);
    assert_conforms(&cell(0.6), Strategy::AmnesicTerminals, 48);
}

/// The `ServerDriver` extraction makes the feedback strategies
/// live-eligible: Method-2 adaptive TS (per-item windows steered by
/// uplink deltas the daemon already sees) and delay-condition quasi
/// caching now run on the daemon, and their decision logs — query
/// verdicts included — still match the simulator byte for byte.
#[test]
fn adaptive_and_quasi_go_live_and_conform() {
    use sleepers::adaptive::FeedbackMethod;

    let qc = sleepers::query::QueryPlaneConfig::new();
    assert_conforms(
        &small_cell(0.4).with_query(qc),
        Strategy::AdaptiveTs {
            method: FeedbackMethod::Method2,
            eval_period: 8,
            step: 2,
        },
        40,
    );
    assert_conforms(
        &small_cell(0.5).with_query(qc),
        Strategy::QuasiDelay { alpha_intervals: 3 },
        40,
    );
    // Windows that grow past the starting retention (`k = 1`, four
    // intervals a step): the report after a period boundary reaches
    // back into history a prune *before* the boundary has already
    // discarded, so this pins the server's period-then-prune order.
    let growing = Strategy::AdaptiveTs {
        method: FeedbackMethod::Method2,
        eval_period: 4,
        step: 4,
    };
    let mut grower = small_cell(0.7).with_seed(3);
    grower.params.k = 1;
    assert_conforms(&grower, growing, 300);
    // The same drift where no client happens to decide differently:
    // only the servers' totals tell the two orders apart (the
    // prune-first daemon aired 1 114 040 bits here).
    let mut quiet = small_cell(0.4);
    quiet.params.k = 1;
    let outcome = check_conformance(&quiet, growing, 120).expect("ATS k=1 conformance");
    assert_eq!(outcome.server.report_bits, 1_112_898);
}

/// Arming the ops plane must not perturb the session: with the metrics
/// exporter serving `/metrics` — and a scraper hammering it *during*
/// the lockstep run — plus flight recorders on both sides, the live
/// decision log is still byte-identical to the simulator's.
#[test]
fn conformance_holds_with_metrics_exporter_polling() {
    use sw_live::conformance::{live_decision_log_with, sim_decision_log};
    use sw_live::{encode_rows, LiveOptions, MuOptions};

    let cfg = small_cell(0.4);
    let strategy = Strategy::BroadcastTimestamps;
    let intervals = 40;
    let sim = sim_decision_log(&cfg, strategy, intervals).expect("sim reference");

    let opts = LiveOptions::lockstep(intervals)
        .with_metrics(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
        .with_flight_capacity(16);
    let mu_opts = MuOptions {
        flight_capacity: 8,
        ..MuOptions::default()
    };
    let mut scraper = None;
    let live = live_decision_log_with(&cfg, strategy, opts, mu_opts, |metrics| {
        let addr = metrics.expect("metrics_bind was set");
        scraper = Some(std::thread::spawn(move || {
            let timeout = std::time::Duration::from_secs(2);
            let mut pages = 0u64;
            // Poll until the exporter dies with the session.
            while let Ok(page) = sw_ops::http::get(addr, "/metrics", timeout) {
                assert!(page.contains("sw_interval"), "malformed page: {page}");
                pages += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            pages
        }));
    })
    .expect("live session with exporter armed");

    for (idx, (s_rows, l_rows)) in sim.iter().zip(&live).enumerate() {
        assert_eq!(
            encode_rows(s_rows),
            encode_rows(l_rows),
            "client {idx} diverged under an armed exporter"
        );
    }
    let pages = scraper
        .expect("on_spawn ran")
        .join()
        .expect("scraper thread");
    assert!(pages > 0, "the scraper never got a page mid-run");
}

/// Observation must be a pure read: with the `observe` feature
/// compiled in, an observing session's decision log is byte-identical
/// to the unobserved session's.
#[cfg(feature = "observe")]
#[test]
fn observing_session_decides_identically() {
    use sw_live::encode_rows;

    let strategy = Strategy::BroadcastTimestamps;
    let plain = check_conformance(&small_cell(0.4), strategy, 40).expect("plain run");
    let observed = check_conformance(&small_cell(0.4).with_observe("conf"), strategy, 40)
        .expect("observing run");
    for (idx, (p_rows, o_rows)) in plain.live.iter().zip(&observed.live).enumerate() {
        assert_eq!(
            encode_rows(p_rows),
            encode_rows(o_rows),
            "client {idx}: observation perturbed the decisions"
        );
    }
}

/// With fault injection compiled in, the live client draws the same
/// per-client loss/corruption fates the simulator draws — corruption
/// flipping a bit of the *received datagram's* frame bytes — and the
/// decision logs must still match row for row.
#[cfg(feature = "faults")]
#[test]
fn faulty_downlink_decision_logs_are_byte_identical() {
    use sleepers::faults::compiled_in;
    use sw_faults::{FaultPlan, LossModel};
    assert!(compiled_in());
    let plan = FaultPlan::none()
        .with_loss(LossModel::bernoulli(0.15))
        .with_corruption(0.10);
    let cfg = small_cell(0.4).with_faults(plan);
    assert_conforms(&cfg, Strategy::BroadcastTimestamps, 40);
    assert_conforms(&cfg, Strategy::AmnesicTerminals, 40);
    assert_conforms(&cfg, Strategy::Signatures, 28);
}
