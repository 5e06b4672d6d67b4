//! `Fleet::Units` against `Fleet::Columnar`, one client each, driven
//! through the *same* phase calls — `open_interval`, `miss_report`,
//! `sweep`, `install_answer`, `close_interval` — on payloads and
//! schedules the cell driver never produces.
//!
//! `tests/columnar_equivalence.rs` only ever feeds both stores what
//! `ServerDriver` builds (ascending, unique), so the
//! `ProcessOutcome::invalidated` ordering contract, the duplicate-id
//! verdicts and the gap rule at its exact boundary are pinned here, for
//! every rule, where a payload can be hand-built: unsorted, with
//! duplicated ids, with ids outside every hot spot. Both stores apply
//! the same `ReportRule`; what can differ is the `CacheSlots` store
//! under it and the answer loop around it. The remaining rows pin what
//! the seat and the columns each keep beside the cache: sleep-run
//! settlement across a stats reset, the never-wake sentinel, the Zipf
//! pick's stream discipline, and the pending set across missed reports.

use sw_client::{DigestScratch, MobileUnit, MuConfig, ProcessOutcome, RuleHandler};
use sw_server::{GroupMap, HotSet};
use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
use sw_sim::{MasterSeed, StreamId};
use sw_wireless::FramePayload;

use super::*;

const LATENCY: f64 = 10.0;
/// TS window multiple: `w = 3L`.
const K: u32 = 3;
const UNIVERSE: u64 = 1_000;
/// Draw order is not id order; 64/65 sit across a bitmap word boundary
/// of the digest, 0 is the smallest id there is.
const HOTSPOT: [ItemId; 6] = [70, 0, 3, 64, 9, 65];
/// HYB's hot items: half the hot spot.
const HOT: [ItemId; 3] = [0, 64, 65];
const LAMBDA: f64 = 0.4;
/// The unit sleeps through these reports: the gap at report 7 is
/// exactly `3L` — `w` on the nose, kept by TS, two reports too many for
/// AT, GR and HYB's hot half — and at report 13 it is `4L`, past `w`.
const ASLEEP: [u64; 5] = [5, 6, 10, 11, 12];
const INTERVALS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Ts,
    At,
    Gr,
    Nc,
    Sig,
    Hyb,
}

fn secs(t: f64) -> u64 {
    (t * 1e6) as u64
}

fn decoder() -> SyndromeDecoder {
    let plan = SigPlan::new(2, 16, UNIVERSE, 0.05, SigPlan::DEFAULT_K);
    SyndromeDecoder::new(SubsetFamily::new(0x5EED, plan.m, plan.f), plan)
}

fn group_map() -> GroupMap {
    // Groups of four: 0 and 3 share one, as do 64 and 65.
    GroupMap::new(UNIVERSE, UNIVERSE / 4)
}

fn rule(kind: Kind) -> ReportRule {
    let latency = SimDuration::from_secs(LATENCY);
    match kind {
        Kind::Ts => ReportRule::ts(latency, K),
        Kind::At => ReportRule::At { latency },
        Kind::Gr => ReportRule::Group {
            latency,
            map: group_map(),
        },
        Kind::Nc => ReportRule::NoCache,
        Kind::Sig => ReportRule::Sig { decoder: decoder() },
        Kind::Hyb => ReportRule::Hybrid {
            latency,
            hot: HotSet::new(HOT),
            decoder: decoder(),
        },
    }
}

/// What one heard report did, in comparable form.
type Heard = (ProcessOutcome, Vec<ItemId>, String);

fn report_time(i: u64) -> SimTime {
    SimTime::from_secs(LATENCY * i as f64)
}

/// One-client fleets are driven through the interval protocol by the
/// phase calls `CellSimulation::step` makes — the same ones on either
/// variant.
impl Fleet {
    fn open(&mut self, i: u64) {
        self.open_interval(0, i, report_time(i - 1), report_time(i));
    }

    /// Hears `payload`, then installs an answer stamped `T_i` for every
    /// miss (the uplink exchange of the merge phase).
    fn hear(&mut self, payload: &FramePayload) -> Heard {
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(payload);
        let mut items = self.sweep(&[0], &[0], &digest, false, 1);
        let report = items.pop().expect("one listener, one item").outcome;
        let uplink: Vec<ItemId> = report
            .uplink_requests
            .iter()
            .map(|(item, _)| *item)
            .collect();
        for &item in &uplink {
            let answer = QueryAnswer {
                item,
                value: item + 1,
                timestamp: digest.report_time(),
            };
            self.install_answer(0, answer);
        }
        (report.outcome, uplink, self.summary())
    }

    fn summary(&self) -> String {
        format!(
            "{:?} unmatched={:?} awake={} next_wake={}",
            self.stats(0),
            self.last_unmatched_subsets(0),
            self.is_awake(0),
            self.next_wake(0)
        )
    }
}

/// One client over `HOTSPOT` with sleep probability `s`, on either
/// store, from the same streams.
fn fleet(columnar: bool, kind: Kind, capacity: Option<usize>, s: f64, zipf: Option<f64>) -> Fleet {
    let stream = |id| MasterSeed::TEST.stream(id);
    let streams = ClientStreams {
        hotspot: HOTSPOT.to_vec(),
        sleep_probability: s,
        query_rng: stream(StreamId::Queries { index: 0 }),
        sleep_rng: stream(StreamId::Sleep { index: 0 }),
        zipf_rng: zipf.map(|_| stream(StreamId::ZipfQuery { index: 0 })),
    };
    let picker = zipf.map(|theta| Arc::new(ZipfPicker::new(HOTSPOT.len(), theta)));
    let window = SimDuration::from_secs(LATENCY).scaled(K as f64);
    if columnar {
        let capacity = capacity.map(|cap| CapacitySpec {
            cap,
            policy: ReplacementPolicy::Lru,
            window,
        });
        let mut fleet = ColumnarFleet::new(HOTSPOT.len(), rule(kind), capacity, picker);
        fleet.push_client(streams, LAMBDA);
        Fleet::Columnar(fleet)
    } else {
        let config = MuConfig {
            id: 0,
            hotspot: streams.hotspot,
            query_rate_per_item: LAMBDA,
            sleep_probability: s,
            cache_capacity: capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: window,
            piggyback_hits: false,
            item_universe: Some(UNIVERSE),
        };
        let handler = RuleHandler::new(rule(kind));
        let mut query_rng = streams.query_rng;
        let mu = MobileUnit::new(config, handler, &mut query_rng);
        let zipf = picker.zip(streams.zipf_rng);
        Fleet::Units(vec![ClientSeat::seated(
            mu,
            query_rng,
            streams.sleep_rng,
            zipf,
            None,
        )])
    }
}

/// Both stores of the same one-client cell.
fn both(kind: Kind, capacity: Option<usize>, s: f64, zipf: Option<f64>) -> [Fleet; 2] {
    [false, true].map(|columnar| fleet(columnar, kind, capacity, s, zipf))
}

/// The hand-built report stream of one strategy. Every other report is
/// hostile: ids out of order, repeated (TS: with an older *and* a newer
/// `t_j`, in both orders), outside the hot spot, and id 0.
struct Reports {
    kind: Kind,
    /// SIG/HYB: the combined signatures on the air, patched per update.
    signatures: Vec<u64>,
}

impl Reports {
    fn new(kind: Kind) -> Self {
        let m = decoder().plan().m as u64;
        Reports {
            kind,
            signatures: (0..m).map(|j| j * 7 + 1).collect(),
        }
    }

    /// The report closing interval `i` (at `T_i = 10·i`). Must be
    /// called for every `i`, heard or not: the signatures accumulate.
    fn next(&mut self, i: u64) -> FramePayload {
        let t_i = LATENCY * i as f64;
        let prev = t_i - LATENCY;
        let entries: Vec<(u64, f64)> = match i % 4 {
            1 => vec![],
            2 => vec![
                (65, prev + 5.0),
                (3, prev + 2.0),
                (65, prev - 5.0),
                (0, prev + 1.0),
                (999, prev + 9.0),
                (3, prev - 8.0),
                (9, prev - 1.0),
                (9, prev - 2.0),
            ],
            3 => vec![(9, prev + 1.0), (64, prev + 2.0)],
            _ => vec![
                (70, prev + 3.0),
                (64, prev - 3.0),
                (5_000_000_000, prev),
                (70, prev + 3.0),
            ],
        };
        let report_ts_micros = secs(t_i);
        // What changed *this interval*: the entries newer than the
        // previous report, in payload order, duplicates and all.
        let changed: Vec<u64> = entries.iter().filter(|e| e.1 > prev).map(|e| e.0).collect();
        if matches!(self.kind, Kind::Sig | Kind::Hyb) {
            let family = *decoder().family();
            let hot = HotSet::new(HOT);
            for (n, &item) in changed.iter().enumerate() {
                // HYB's signatures cover the cold items only.
                if self.kind == Kind::Hyb && hot.contains(item) {
                    continue;
                }
                for j in family.subsets_of(item) {
                    // A fresh value per update, so a repeated id does
                    // not cancel itself out of the XOR.
                    self.signatures[j as usize] ^= (i << 8 | n as u64) + 1;
                }
            }
        }
        let signatures = Arc::new(self.signatures.clone());
        match self.kind {
            Kind::Ts => FramePayload::TimestampReport {
                report_ts_micros,
                entries: entries.into_iter().map(|(id, t)| (id, secs(t))).collect(),
            },
            Kind::At | Kind::Nc => FramePayload::AmnesicReport {
                report_ts_micros,
                ids: changed,
            },
            // GR lists changed *group* ids — here unsorted and repeated,
            // plus one no group map produces.
            Kind::Gr => FramePayload::AmnesicReport {
                report_ts_micros,
                ids: changed
                    .iter()
                    .map(|&item| match item {
                        item if item < UNIVERSE => group_map().group_of(item),
                        hostile => hostile,
                    })
                    .collect(),
            },
            Kind::Sig => FramePayload::SignatureReport {
                report_ts_micros,
                sig_bits: 16,
                signatures,
            },
            // A server lists hot ids only; this one lists cold ids too.
            Kind::Hyb => FramePayload::HybridReport {
                report_ts_micros,
                hot_ids: changed,
                sig_bits: 16,
                signatures,
            },
        }
    }
}

#[test]
fn hand_built_unsorted_and_duplicated_payloads_agree_across_backends() {
    use Kind::*;
    // (rule, least invalidations, least whole-cache drops) the hostile
    // stream must cause — per capacity setting — for the row to count.
    for (kind, min_invalidated, min_drops) in [
        (Ts, 6, 1),
        (At, 6, 2),
        (Gr, 8, 2),
        (Nc, 0, 0),
        (Sig, 8, 0),
        (Hyb, 8, 0),
    ] {
        for capacity in [None, Some(4)] {
            let [mut boxed, mut columnar] = both(kind, capacity, 0.0, None);
            let mut reports = Reports::new(kind);
            let (mut invalidated_total, mut drops) = (0, 0);
            for i in 1..=INTERVALS {
                let payload = reports.next(i);
                if ASLEEP.contains(&i) {
                    continue;
                }
                boxed.open(i);
                columnar.open(i);
                // The first report finds the cache empty (and `T_l`
                // unset): no rule may call that a drop.
                let expected = boxed.hear(&payload);
                assert_eq!(
                    expected,
                    columnar.hear(&payload),
                    "{kind:?} capacity={capacity:?} interval {i}"
                );
                // A workaholic is due again the very next interval.
                assert_eq!(boxed.close_interval(0, i), i + 1);
                assert_eq!(columnar.close_interval(0, i), i + 1);
                let outcome = &expected.0;
                assert!(
                    i > 1 || !outcome.dropped_all,
                    "{kind:?}: a drop at the first report"
                );
                // HYB alone reports two ascending runs, hot then cold.
                assert!(
                    kind == Hyb || outcome.invalidated.windows(2).all(|w| w[0] < w[1]),
                    "{kind:?}: invalidated must ascend whatever the payload order: {:?}",
                    outcome.invalidated
                );
                invalidated_total += outcome.invalidated.len();
                drops += outcome.dropped_all as usize;
            }
            assert!(
                invalidated_total >= min_invalidated && drops >= min_drops,
                "{kind:?} capacity={capacity:?}: the hostile reports must bite \
                 ({invalidated_total} invalidated, {drops} drops)"
            );
            // Gap exactly `w` is survivable, `w + L` is not.
            assert!(kind != Ts || drops == 1, "TS drops at 4L only, saw {drops}");
        }
    }
}

#[test]
fn sleep_run_straddling_a_stats_reset_credits_no_pre_reset_intervals() {
    for mut fleet in both(Kind::Ts, None, 0.0, None) {
        fleet.open(1);
        fleet.hear(&Reports::new(Kind::Ts).next(1));
        fleet.close_interval(0, 1);
        // Asleep over 2..=6; the warm-up ends after interval 4.
        fleet.reset_stats(4);
        fleet.open(7);
        let stats = fleet.stats(0);
        assert_eq!(
            stats.intervals_asleep, 2,
            "only intervals 5 and 6 are post-reset"
        );
        assert_eq!(stats.intervals_awake, 1);
        // A reset while awake credits nothing at the next wake either.
        fleet.close_interval(0, 7);
        fleet.reset_stats(7);
        fleet.open(8);
        assert_eq!(fleet.stats(0).intervals_asleep, 0);
    }
}

#[test]
fn never_wake_sentinel_leaves_the_schedule_under_both_wake_modes() {
    for fleet in both(Kind::At, None, 1.0, None) {
        // s = 1: the first sleep run is the sentinel.
        assert_eq!(fleet.next_wake(0), u64::MAX);
        assert!(!fleet.is_awake(0));
        for mode in [WakeMode::Scan, WakeMode::Heap] {
            let mut schedule = WakeSchedule::new(mode, &fleet);
            let mut awake = Vec::new();
            for i in [1, 2, 1 << 40, u64::MAX - 1] {
                schedule.pop_due(i, &fleet, &mut awake);
            }
            assert!(awake.is_empty(), "{mode:?}: a never-waking unit came due");
            assert!(
                matches!(schedule, WakeSchedule::Scan)
                    || matches!(&schedule, WakeSchedule::Heap(heap) if heap.is_empty()),
                "{mode:?}: the sentinel must not sit in the heap"
            );
        }
    }
    // A unit that does wake is due exactly once per scheduling, in
    // either mode.
    for fleet in both(Kind::At, None, 0.0, None) {
        for mode in [WakeMode::Scan, WakeMode::Heap] {
            let mut schedule = WakeSchedule::new(mode, &fleet);
            let mut awake = Vec::new();
            schedule.pop_due(1, &fleet, &mut awake);
            assert_eq!(awake, [0], "{mode:?}");
        }
    }
}

#[test]
fn zipf_pick_consumes_no_uniform_draw_from_the_query_stream() {
    let [mut boxed, mut columnar] = both(Kind::At, None, 0.0, Some(0.8));
    let [mut uniform, _] = both(Kind::At, None, 0.0, None);
    // The query stream with nothing but arrival times drawn from it.
    let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
    let mut arrivals = PoissonProcess::new(LAMBDA * HOTSPOT.len() as f64, &mut rng);
    let mut posed = 0u64;
    for i in 1..=12 {
        posed += arrivals
            .arrivals_in(report_time(i - 1), report_time(i), &mut rng)
            .len() as u64;
        for fleet in [&mut boxed, &mut columnar, &mut uniform] {
            fleet.open(i);
        }
        assert_eq!(boxed.stats(0).queries_posed, posed, "interval {i}");
        assert_eq!(columnar.stats(0).queries_posed, posed, "interval {i}");
        let payload = Reports::new(Kind::At).next(i);
        assert_eq!(
            boxed.hear(&payload),
            columnar.hear(&payload),
            "interval {i}"
        );
        uniform.hear(&payload);
    }
    assert!(posed > 20, "the row needs arrivals to mean anything");
    assert_ne!(
        uniform.stats(0).queries_posed,
        posed,
        "uniform picks interleave with the arrival draws, so the schedules part"
    );
}

#[test]
fn missed_reports_keep_the_pending_set_and_accrue_latency() {
    let [mut boxed, mut columnar] = both(Kind::Ts, None, 0.0, None);
    let mut reports = Reports::new(Kind::Ts);
    for fleet in [&mut boxed, &mut columnar] {
        fleet.open(1);
    }
    let first = reports.next(1);
    assert_eq!(boxed.hear(&first), columnar.hear(&first));
    let answered = boxed.stats(0).query_events();
    // Intervals 2 and 3: queries are posed, the report never arrives.
    for i in 2..=3 {
        reports.next(i);
        for fleet in [&mut boxed, &mut columnar] {
            fleet.open(i);
            fleet.miss_report(0);
            assert_eq!(fleet.close_interval(0, i), i + 1);
            let stats = fleet.stats(0);
            assert_eq!(stats.reports_missed, i - 1);
            assert_eq!(
                stats.query_events(),
                answered,
                "nothing is answered without a report"
            );
        }
        assert_eq!(boxed.summary(), columnar.summary(), "interval {i}");
    }
    assert!(boxed.stats(0).queries_posed > answered, "queries piled up");
    let fourth = reports.next(4);
    for fleet in [&mut boxed, &mut columnar] {
        fleet.open(4);
    }
    let heard = boxed.hear(&fourth);
    assert_eq!(heard, columnar.hear(&fourth));
    let stats = boxed.stats(0);
    assert!(
        stats.query_events() > answered,
        "the pending set is answered at report 4"
    );
    // A query of interval 2 waited from (T_1, T_2] to T_4: over 2L.
    assert!(
        stats.latency_max_secs >= 2.0 * LATENCY,
        "latency keeps accruing across missed reports: {}",
        stats.latency_max_secs
    );
}
