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
//! under it and the answer loop around it. Every row compares each
//! cached entry's `(item, value, stamp)` too: the columns store install
//! stamps and derive validity from `T_l` (quasi-delay's restamp writes
//! its slot), the seat restamps, and the two must read the same — and
//! every uplink's piggybacked hit history, which only Method 1 carries.
//! The remaining rows pin what the seat and the columns each keep
//! beside the cache: sleep-run settlement across a stats reset, the
//! never-wake sentinel, the Zipf pick's stream discipline, the pending
//! set across missed reports, the SIG subsets a fetch tracks and the
//! size of the SIG columns — and, on a bare slot block, that a heard
//! report reads only `report ∩ cache`, and that quasi-delay's kept
//! copies keep their stamps. The last row moves one client's row of the
//! columns between two fleets, as a mesh handoff does. `summary`
//! carries each store's tracked-subset count, so every row that compares
//! summaries also compares what the two stores vouch for.

use sw_client::{Cache, DigestScratch, MobileUnit, MuConfig, ProcessOutcome, RuleHandler};
use sw_server::{GroupMap, HotSet};
use sw_signature::{SigPlan, SubsetFamily, SyndromeDecoder};
use sw_sim::{MasterSeed, PoissonCount, StreamId};
use sw_wireless::frame::INFINITE_WINDOW;
use sw_wireless::FramePayload;
use sw_workload::ZipfPicker;

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
/// Quasi-delay's allowed lag, in intervals: `α = 2L`.
const ALPHA: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Ts,
    At,
    Gr,
    Nc,
    Sig,
    Hyb,
    Ats,
    /// Adaptive TS whose clients piggyback their hit histories (Method
    /// 1): the `Ats` rule and reports.
    M1,
    Qd,
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
        Kind::Ats | Kind::M1 => ReportRule::adaptive_ts(latency, K),
        Kind::Qd => ReportRule::quasi_delay(latency, ALPHA),
    }
}

/// What one heard report did, in comparable form: the outcome, the
/// uplinks and their piggybacked hit histories, and the summary after
/// the answers are installed.
type Heard = (ProcessOutcome, Vec<ItemId>, Vec<PiggybackInfo>, String);

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
        let mut out = [SweepOut::default()];
        self.sweep(&[0], &[0], &digest, false, &mut out);
        let [out] = out;
        let [swept] = &out.items[..] else {
            panic!("one listener, one item")
        };
        let outcome = ProcessOutcome {
            report_time: digest.report_time(),
            dropped_all: swept.dropped_all,
            invalidated: out.invalidated[swept.invalidated.clone()].to_vec(),
        };
        let uplink = out.uplinks[swept.uplinks.clone()].to_vec();
        // Parallel to the uplinks when the client piggybacks, else empty.
        let piggybacks = out.piggybacks.clone();
        assert!(piggybacks.is_empty() || piggybacks.len() == uplink.len());
        for &item in &uplink {
            let answer = QueryAnswer {
                item,
                value: item + 1,
                timestamp: digest.report_time(),
            };
            self.install_answer(0, answer);
        }
        (outcome, uplink, piggybacks, self.summary())
    }

    /// SIG/HYB: how many subsets the client vouches for — the set bits
    /// of its row of the mask (0 for the rules that track none).
    fn tracked_subsets(&self, idx: usize) -> usize {
        match self {
            Fleet::Units(seats) => seats[idx].unit().handler().tracked_subsets(),
            Fleet::Columnar(fleet) => fleet.sig.as_ref().map_or(0, |s| {
                SigTrack::count(&s.tracked[idx * s.words..(idx + 1) * s.words])
            }),
        }
    }

    /// Every cached `(item, value, stamp)`: the stamps are the validity
    /// stamps the safety audit and the mesh's coop directory read.
    fn cached(&self) -> Vec<(ItemId, u64, SimTime)> {
        let mut cached = Vec::new();
        self.for_each_cached_entry(|item, value, stamp| cached.push((item, value, stamp)));
        cached
    }

    fn summary(&self) -> String {
        format!(
            "{:?} unmatched={:?} tracked={} awake={} next_wake={} cached={:?}",
            self.stats(0),
            self.last_unmatched_subsets(0),
            self.tracked_subsets(0),
            self.unit(0).is_awake(),
            self.next_wake(0),
            self.cached()
        )
    }
}

/// Client `index`'s start over `HOTSPOT`, with sleep probability `s`.
fn streams(index: u64, s: f64, zipf: Option<f64>) -> ClientStart {
    let stream = |id| MasterSeed::TEST.stream(id);
    let picker = |theta| Arc::new(ZipfPicker::new(HOTSPOT.len(), theta));
    let streams = ClientStreams::new(
        stream(StreamId::Queries { index }),
        stream(StreamId::Sleep { index }),
        zipf.map(|theta| (picker(theta), stream(StreamId::ZipfQuery { index }))),
    );
    (HOTSPOT.to_vec(), s, streams)
}

/// One client over `HOTSPOT` with sleep probability `s`, on either
/// store, from the same streams.
fn fleet(columnar: bool, kind: Kind, capacity: Option<usize>, s: f64, zipf: Option<f64>) -> Fleet {
    let start = streams(0, s, zipf);
    let window = SimDuration::from_secs(LATENCY).scaled(K as f64);
    if columnar {
        let capacity = capacity.map(|cap| CapacitySpec {
            cap,
            policy: ReplacementPolicy::Lru,
            window,
        });
        let mut fleet =
            ColumnarFleet::new(HOTSPOT.len(), 1, rule(kind), capacity, kind == Kind::M1);
        fleet.push_client(start, LAMBDA);
        Fleet::Columnar(fleet)
    } else {
        let (hotspot, _, mut streams) = start;
        let config = MuConfig {
            id: 0,
            hotspot,
            query_rate_per_item: LAMBDA,
            sleep_probability: s,
            cache_capacity: capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: window,
            piggyback_hits: kind == Kind::M1,
            item_universe: Some(UNIVERSE),
        };
        let handler = RuleHandler::new(rule(kind));
        let mu = MobileUnit::new(config, handler, streams.query_rng());
        Fleet::Units(vec![ClientSeat::seated(mu, streams, None)])
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
            Kind::Ts | Kind::Qd => FramePayload::TimestampReport {
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
            // The same windows every report — 9 outlasts both naps, 3
            // any nap, 64 none, and 65 is listed at 9 and at 2, so it
            // takes 2 — on the hostile reports out of order and
            // repeated, with an id no hot spot holds.
            Kind::Ats | Kind::M1 => FramePayload::AdaptiveTimestampReport {
                report_ts_micros,
                entries: entries.into_iter().map(|(id, t)| (id, secs(t))).collect(),
                window_exceptions: if i.is_multiple_of(2) {
                    vec![
                        (65, 9),
                        (9, 20),
                        (64, 0),
                        (5_000_000_000, 1),
                        (65, 2),
                        (3, INFINITE_WINDOW),
                        (9, 20),
                    ]
                } else {
                    vec![(3, INFINITE_WINDOW), (9, 20), (64, 0), (65, 2)]
                },
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
        (Ats, 12, 0),
        (M1, 12, 0),
        (Qd, 4, 0),
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

/// A boxed SIG cell builds its rule once: every seat's decoder reads
/// the same subset mask and list, filled by whichever seat asked first.
#[test]
fn the_seats_of_a_units_sig_cell_share_one_subset_list_table() {
    let config = CellConfig::new(sw_workload::ScenarioParams::scenario1())
        .with_clients(3)
        .with_fleet(FleetBackend::Units);
    let Ok(Fleet::Units(seats)) = Fleet::new(&config, Strategy::Signatures) else {
        panic!("a forced Units fleet is boxed seats");
    };
    let decoder = |seat: &ClientSeat| {
        let rule = seat.unit().handler().rule();
        rule.decoder().expect("SIG rules decode").clone()
    };
    let (first, last) = (decoder(&seats[0]), decoder(&seats[2]));
    for item in [0, 17, config.params.n_items - 1] {
        assert!(
            std::ptr::eq(first.subsets_of(item), last.subsets_of(item)),
            "item {item}"
        );
        assert!(
            std::ptr::eq(first.members(item), last.members(item)),
            "item {item}"
        );
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
        assert!(!fleet.unit(0).is_awake());
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
    // The query stream with nothing but each window's count and pose
    // times drawn from it.
    let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
    let mut count = PoissonCount::new(LAMBDA * HOTSPOT.len() as f64);
    let mut posed = 0;
    for i in 1..=12 {
        let window = report_time(i).duration_since(report_time(i - 1));
        let n = count.draw(window, &mut rng);
        for _ in 0..n {
            rng.uniform();
        }
        posed += n;
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
    assert!(posed > 20, "the row needs queries to mean anything");
    assert_ne!(
        uniform.stats(0).queries_posed,
        posed,
        "uniform picks interleave with the pose-time draws, so the schedules part"
    );
}

#[test]
fn missed_reports_keep_the_pending_set_and_accrue_latency() {
    for kind in [
        Kind::Ts,
        Kind::Sig,
        Kind::Hyb,
        Kind::Ats,
        Kind::M1,
        Kind::Qd,
    ] {
        missed_reports_keep_the_pending_set(kind);
    }
}

fn missed_reports_keep_the_pending_set(kind: Kind) {
    let [mut boxed, mut columnar] = both(kind, None, 0.0, None);
    let mut reports = Reports::new(kind);
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
        assert_eq!(boxed.summary(), columnar.summary(), "{kind:?} interval {i}");
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

/// An entry installed before the client ever heard a report has no
/// `T_l` to vouch for it: it carries its own install stamp until the
/// first heard report decides it — a whole-cache drop under a gap rule,
/// a survivor verified as of `T_1` under SIG, a copy kept on its install
/// stamp under quasi-delay until it is due.
#[test]
fn installs_before_the_first_heard_report_keep_their_own_stamp() {
    use Kind::*;
    let installed = SimTime::from_secs(4.0);
    for kind in [Ts, At, Gr, Nc, Sig, Hyb, Ats, M1, Qd] {
        let [mut boxed, mut columnar] = both(kind, None, 0.0, None);
        for fleet in [&mut boxed, &mut columnar] {
            fleet.open(1);
            for item in [3, 64] {
                fleet.install_answer(
                    0,
                    QueryAnswer {
                        item,
                        value: item + 1,
                        timestamp: installed,
                    },
                );
            }
            // No report heard, so nothing to vouch against: the first
            // decode below must not read the empty last report.
            assert_eq!(fleet.tracked_subsets(0), 0, "{kind:?}");
            assert!(
                fleet.cached().iter().all(|e| e.2 == installed),
                "{kind:?}: {:?}",
                fleet.cached()
            );
        }
        assert_eq!(
            boxed.summary(),
            columnar.summary(),
            "{kind:?} before any report"
        );
        let first = Reports::new(kind).next(1);
        assert_eq!(boxed.hear(&first), columnar.hear(&first), "{kind:?}");
    }
}

/// A fetch tracks the subsets of the item it installs — under HYB only
/// a cold one's — on both stores alike.
#[test]
fn a_fetch_tracks_its_items_subsets_and_hyb_only_a_cold_items() {
    let decoder = decoder();
    let answer = |item| QueryAnswer {
        item,
        value: item + 1,
        timestamp: report_time(1),
    };
    let (hot, cold) = (64, 3);
    let union = |items: &[ItemId]| {
        let subsets: std::collections::BTreeSet<u32> = items
            .iter()
            .flat_map(|&item| decoder.subsets_of(item).iter().copied())
            .collect();
        subsets.len()
    };
    assert!(
        union(&[cold]) > 0,
        "the row needs a cold item in some subset"
    );
    for kind in [Kind::Sig, Kind::Hyb] {
        let payload = Reports::new(kind).next(1);
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(&payload);
        // HYB vouches for the cold items only.
        let vouched = |items: &[ItemId]| {
            let tracked: Vec<ItemId> = items
                .iter()
                .copied()
                .filter(|&item| kind == Kind::Sig || item != hot)
                .collect();
            union(&tracked)
        };
        for mut fleet in both(kind, None, 0.0, None) {
            fleet.open(1);
            // The first report over an empty cache leaves the queries
            // unanswered and nothing tracked.
            fleet.sweep(&[0], &[0], &digest, false, &mut [SweepOut::default()]);
            assert_eq!(fleet.tracked_subsets(0), 0, "{kind:?}");
            fleet.install_answer(0, answer(hot));
            assert_eq!(fleet.tracked_subsets(0), vouched(&[hot]), "{kind:?}");
            fleet.install_answer(0, answer(cold));
            assert_eq!(fleet.tracked_subsets(0), vouched(&[hot, cold]), "{kind:?}");
        }
    }
}

/// The SIG columns hold one mask word per 64 subsets per client, and
/// no per-subset value: the values are the last report's.
#[test]
fn a_sig_columnar_fleet_holds_one_mask_bit_per_subset_per_client() {
    let n = 5;
    let mut fleet = ColumnarFleet::new(HOTSPOT.len(), n as usize, rule(Kind::Sig), None, false);
    for index in 0..n {
        fleet.push_client(streams(index, 0.0, None), LAMBDA);
    }
    // Exhaustive, so a column added to the SIG state fails to compile
    // here until this row sizes it.
    let SigColumns {
        words,
        tracked,
        last_report,
        last_unmatched,
    } = fleet.sig.as_ref().expect("a SIG fleet tracks signatures");
    let m = decoder().plan().m as usize;
    assert_eq!(*words, m.div_ceil(64));
    assert_eq!(tracked.len(), n as usize * words);
    assert_eq!(last_report.len(), n as usize);
    assert_eq!(last_unmatched.len(), n as usize);
}

/// One TS report applied to `cache` through `drop_listed`, with a
/// counting `stale`: the ids dropped and how often `stale` ran.
fn hear_counted<C: CacheSlots>(
    cache: &mut C,
    t_i: f64,
    entries: &[(u64, f64)],
) -> (Vec<ItemId>, u32) {
    let payload = FramePayload::TimestampReport {
        report_ts_micros: secs(t_i),
        entries: entries.iter().map(|&(id, t)| (id, secs(t))).collect(),
    };
    let mut scratch = DigestScratch::default();
    let digest = scratch.digest(&payload);
    let (mut calls, mut dropped) = (0, Vec::new());
    cache.drop_listed(
        digest.report_time(),
        |item| digest.listed(item),
        |item, stamp| {
            calls += 1;
            digest.ts_newer_than(item, stamp.as_micros())
        },
        &mut dropped,
    );
    (dropped, calls)
}

/// A slot block's cached ids, ascending.
fn cached_items(block: &SlotBlock<'_>) -> Vec<ItemId> {
    let words = block.valid.iter().enumerate();
    words
        .flat_map(|(w, &word)| set_bits(word, w * 64))
        .map(|slot| block.items[slot])
        .collect()
}

/// The mechanism, pinned by equality rather than timing: a full slot
/// block hearing a TS report runs `stale` once per *listed cached* id —
/// never for the uncached ids the report also lists — and writes no
/// stamp, yet every survivor reads as verified at `T_i`; a later report
/// naming a cached id with a newer `t_j` drops it, judged against that
/// vouched stamp, not the install stamp. `sw_client::Cache` reaches the
/// same outcome through `drop_listed`'s default body, restamping.
#[test]
fn drop_listed_runs_stale_only_on_report_and_cache_and_writes_no_stamp() {
    let Fleet::Columnar(mut columns) = fleet(true, Kind::Ts, None, 0.0, None) else {
        unreachable!("asked for the columnar store")
    };
    let mut boxed = Cache::unbounded();
    let t_1 = report_time(1);
    for item in HOTSPOT {
        columns.install_answer(
            0,
            QueryAnswer {
                item,
                value: item + 1,
                timestamp: t_1,
            },
        );
        boxed.insert(item, item + 1, t_1);
    }
    let installed = columns.stamps.clone();
    let mut block = SlotBlock {
        items: &columns.slot_items,
        valid: &mut columns.valid,
        stamps: &mut columns.stamps,
        vouches: true,
        vouched: Some(t_1),
        cached: &mut columns.cached[0],
        ghosts: None,
    };
    assert_eq!(block.len(), HOTSPOT.len(), "the block is full");
    // (T_i, the report's entries, (the ids it drops, `stale` calls))
    let reports = [
        // Cached 9 listed but not newer; 1, 2 and 500 listed, uncached.
        (
            20.0,
            vec![(1, 15.0), (2, 18.0), (9, 5.0), (500, 19.0)],
            (vec![], 1),
        ),
        // 64 changed after the vouched T = 20; 9's t_j = 15 is newer
        // than its install stamp (10) but not than its validity (20).
        (30.0, vec![(9, 15.0), (64, 25.0)], (vec![64], 2)),
    ];
    for (t_i, entries, want) in reports {
        assert_eq!(
            hear_counted(&mut block, t_i, &entries),
            want,
            "slot block at {t_i}"
        );
        assert_eq!(
            hear_counted(&mut boxed, t_i, &entries),
            want,
            "boxed cache at {t_i}"
        );
        let survivors: Vec<(ItemId, SimTime)> = cached_items(&block)
            .into_iter()
            .map(|item| {
                let slot = block.items.binary_search(&item).expect("a hotspot item");
                (item, validity(block.stamps[slot], block.vouched))
            })
            .collect();
        let boxed_survivors: Vec<(ItemId, SimTime)> = Cache::sorted_items(&boxed)
            .into_iter()
            .map(|item| (item, boxed.peek(item).expect("listed").timestamp))
            .collect();
        assert_eq!(survivors, boxed_survivors, "at {t_i}");
        assert!(survivors.iter().all(|e| e.1 == SimTime::from_secs(t_i)));
    }
    assert_eq!(columns.stamps, installed, "the sweep wrote a stamp");
}

/// Quasi-delay over a bare slot block, which vouches for nothing: a copy
/// younger than `α` is kept with its stamp running, a due copy the
/// report does not name is restamped `T_i` in its slot, and a named one
/// is dropped — after every report the same `(item, value, stamp)` as
/// `sw_client::Cache` under the same rule.
#[test]
fn quasi_delay_keeps_stamps_running_and_restamps_its_slots() {
    let Fleet::Columnar(mut columns) = fleet(true, Kind::Qd, None, 0.0, None) else {
        unreachable!("asked for the columnar store")
    };
    assert!(!columns.vouches, "quasi-delay vouches for no survivor");
    let mut boxed = Cache::unbounded();
    // 0, 3 and 9 installed at T_1, the rest at T_2.
    for item in HOTSPOT {
        let stamp = report_time(if item < 10 { 1 } else { 2 });
        let answer = QueryAnswer {
            item,
            value: item + 1,
            timestamp: stamp,
        };
        columns.install_answer(0, answer);
        boxed.insert(item, item + 1, stamp);
    }
    let rule = rule(Kind::Qd);
    let mut block = SlotBlock {
        items: &columns.slot_items,
        valid: &mut columns.valid,
        stamps: &mut columns.stamps,
        vouches: false,
        vouched: None,
        cached: &mut columns.cached[0],
        ghosts: None,
    };
    // (report i, its entries, the ids it drops, each survivor's stamp
    // as the report interval that stamped it)
    let reports = [
        // The T_1 copies are due: 9 is named, 0 and 3 restamped; the
        // T_2 copies are kept.
        (
            3,
            vec![(9, 25.0)],
            vec![9],
            vec![(0, 3), (3, 3), (64, 2), (65, 2), (70, 2)],
        ),
        // The T_2 copies are due: 64 is named; 0 and 3 are kept on T_3
        // although the report names 3.
        (
            4,
            vec![(64, 35.0), (3, 36.0)],
            vec![64],
            vec![(0, 3), (3, 3), (65, 4), (70, 4)],
        ),
        (5, vec![(3, 45.0)], vec![3], vec![(0, 5), (65, 4), (70, 4)]),
    ];
    for (i, entries, want_dropped, want) in reports {
        let payload = FramePayload::TimestampReport {
            report_ts_micros: secs(LATENCY * i as f64),
            entries: entries.iter().map(|&(id, t)| (id, secs(t))).collect(),
        };
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(&payload);
        let t_l = Some(report_time(i - 1));
        let (mut dropped, mut boxed_dropped) = (Vec::new(), Vec::new());
        let drop_all = rule.apply(&mut block, Lent::Nothing, &digest, t_l, &mut dropped);
        let boxed_drop_all =
            rule.apply(&mut boxed, Lent::Nothing, &digest, t_l, &mut boxed_dropped);
        assert!(!drop_all && !boxed_drop_all, "report {i}");
        assert_eq!(dropped, want_dropped, "slot block, report {i}");
        assert_eq!(boxed_dropped, want_dropped, "boxed cache, report {i}");
        let survivors: Vec<(ItemId, u64, SimTime)> = cached_items(&block)
            .into_iter()
            .map(|item| {
                let slot = block.items.binary_search(&item).expect("a hotspot item");
                (item, columns.values[slot], block.stamps[slot])
            })
            .collect();
        let boxed_survivors: Vec<(ItemId, u64, SimTime)> = Cache::sorted_items(&boxed)
            .into_iter()
            .map(|item| {
                let entry = boxed.peek(item).expect("listed");
                (item, entry.value, entry.timestamp)
            })
            .collect();
        assert_eq!(survivors, boxed_survivors, "report {i}");
        let want: Vec<(ItemId, u64, SimTime)> = want
            .into_iter()
            .map(|(item, stamped)| (item, item + 1, report_time(stamped)))
            .collect();
        assert_eq!(survivors, want, "report {i}");
    }
}

/// Method 1: a slot's hit history is the boxed unit's `PiggybackInfo`
/// for the same queries — the hits since the item's last uplink, kept
/// across the report that invalidates the copy and shipped with the
/// miss that follows.
#[test]
fn a_slots_hit_history_is_the_units_piggyback() {
    let [mut boxed, mut columnar] = both(Kind::M1, None, 0.0, None);
    let mut reports = Reports::new(Kind::M1);
    let mut invalidated_with_history = 0;
    for i in 1..=INTERVALS {
        let payload = reports.next(i);
        boxed.open(i);
        columnar.open(i);
        let heard = boxed.hear(&payload);
        assert_eq!(heard, columnar.hear(&payload), "interval {i}");
        let (outcome, uplinks, piggybacks, _) = heard;
        assert_eq!(piggybacks.len(), uplinks.len(), "interval {i}");
        // A hit before the invalidation, shipped by the miss after it:
        // every hit was logged at an earlier report than this one.
        for (item, piggyback) in uplinks.iter().zip(&piggybacks) {
            let times = &piggyback.local_hit_times;
            if outcome.invalidated.contains(item) && !times.is_empty() {
                assert!(times.iter().all(|&t| t < report_time(i)), "{times:?}");
                invalidated_with_history += 1;
            }
        }
        boxed.close_interval(0, i);
        columnar.close_interval(0, i);
    }
    assert!(
        invalidated_with_history > 0,
        "no invalidated item shipped a hit history"
    );
}

/// The columns of a columnar fixture.
fn columns(fleet: &Fleet) -> &ColumnarFleet {
    match fleet {
        Fleet::Columnar(columns) => columns,
        Fleet::Units(_) => unreachable!("the fixture is columnar"),
    }
}

/// Client `idx`'s row of every per-client column, each as text, in the
/// order `move_row` moves them; the SIG share is compared by pointer
/// instead.
fn row_of(fleet: &ColumnarFleet, idx: usize) -> Vec<(&'static str, String)> {
    let slots = idx * fleet.h..(idx + 1) * fleet.h;
    let words = idx * fleet.words..(idx + 1) * fleet.words;
    let sig = fleet.sig.as_ref().expect("the fixture tracks signatures");
    let cap = fleet.cap.as_ref().expect("the fixture bounds its caches");
    let hit_times = fleet
        .hit_times
        .as_ref()
        .expect("the fixture keeps hit histories");
    let text = |column: &dyn std::fmt::Debug| format!("{column:?}");
    vec![
        ("draw_slot", text(&&fleet.draw_slot[slots.clone()])),
        ("slot_items", text(&&fleet.slot_items[slots.clone()])),
        ("valid", text(&&fleet.valid[words.clone()])),
        ("values", text(&&fleet.values[slots.clone()])),
        ("stamps", text(&&fleet.stamps[slots.clone()])),
        ("cached", text(&fleet.cached[idx])),
        ("pending_mask", text(&&fleet.pending_mask[words])),
        ("unit", text(&fleet.units[idx])),
        ("streams", text(&fleet.streams[idx])),
        ("next_wake", text(&fleet.next_wake[idx])),
        (
            "tracked",
            text(&&sig.tracked[idx * sig.words..(idx + 1) * sig.words]),
        ),
        ("last_unmatched", text(&sig.last_unmatched[idx])),
        ("last_used", text(&&cap.last_used[slots.clone()])),
        ("use_count", text(&&cap.use_count[slots.clone()])),
        ("ghost", text(&&cap.ghost[slots.clone()])),
        ("ghost_stamps", text(&&cap.ghost_stamps[slots.clone()])),
        ("clock", text(&cap.clock[idx])),
        ("hit_times", text(&&hit_times[slots])),
    ]
}

/// A mesh handoff moves one client's row between two fleets: the slot
/// it leaves is departed, the row lands whole, and an arrival under
/// diverged report histories drops a carried cache exactly once.
#[test]
fn a_handoff_moves_one_row_and_leaves_a_departed_slot() {
    // Bounded at 2 of 6 slots, so installs evict and leave ghosts, with
    // every per-client column armed: SIG's mask, the capacity columns,
    // the hit histories.
    let bounded_sig = |indices: std::ops::Range<u64>| {
        let capacity = CapacitySpec {
            cap: 2,
            policy: ReplacementPolicy::Lru,
            window: SimDuration::from_secs(LATENCY).scaled(K as f64),
        };
        let clients = indices.end - indices.start;
        let (sig, capacity) = (rule(Kind::Sig), Some(capacity));
        let mut fleet = ColumnarFleet::new(HOTSPOT.len(), clients as usize, sig, capacity, true);
        for index in indices {
            fleet.push_client(streams(index, 0.0, None), LAMBDA);
        }
        Fleet::Columnar(fleet)
    };
    let (mut a, mut b) = (bounded_sig(0..3), bounded_sig(10..12));
    let mut reports = Reports::new(Kind::Sig);
    let last = 6;
    for i in 1..=last {
        let payload = reports.next(i);
        for fleet in [&mut a, &mut b] {
            let everyone: Vec<usize> = (0..fleet.len()).collect();
            for &idx in &everyone {
                fleet.open_interval(idx, i, report_time(i - 1), report_time(i));
            }
            // The last report is lost, so the pending sets travel too.
            if i == last {
                for &idx in &everyone {
                    fleet.miss_report(idx);
                }
            } else {
                let mut scratch = DigestScratch::default();
                let digest = scratch.digest(&payload);
                let mut out = [SweepOut::default()];
                fleet.sweep(&everyone, &everyone, &digest, false, &mut out);
                let [out] = out;
                for swept in &out.items {
                    for &item in &out.uplinks[swept.uplinks.clone()] {
                        let answer = QueryAnswer {
                            item,
                            value: item + 1,
                            timestamp: digest.report_time(),
                        };
                        fleet.install_answer(swept.slot, answer);
                    }
                }
            }
            for &idx in &everyone {
                fleet.close_interval(idx, i);
            }
        }
    }
    let k = 1;
    let (h, words) = (columns(&a).h, columns(&a).words);
    let before = row_of(columns(&a), k);
    let share = Arc::clone(&columns(&a).sig.as_ref().unwrap().last_report[k]);
    let carried = columns(&a).cached[k] as usize;
    assert!(carried > 0, "the traveler carries a cache");
    let ghosts = &columns(&a).cap.as_ref().unwrap().ghost[k * h..(k + 1) * h];
    assert!(ghosts.iter().any(Option::is_some), "and ghosts");
    let pending = &columns(&a).pending_mask[k * words..(k + 1) * words];
    assert!(pending.iter().any(|&w| w != 0), "and queries still waiting");
    let sig = columns(&a).sig.as_ref().unwrap();
    let tracked = &sig.tracked[k * sig.words..(k + 1) * sig.words];
    assert!(SigTrack::count(tracked) > 0, "and tracked subsets");
    let entries_before = a.cached().len();
    // Built before the cut: the heap keeps the traveler's entry.
    let schedules = [WakeMode::Scan, WakeMode::Heap].map(|mode| WakeSchedule::new(mode, &a));

    let landed = a.shard_mut().move_row(k, b.shard_mut());
    // A's slot is departed: no valid bits, zero stats, never woken,
    // nothing cached.
    assert!(a.is_departed(k));
    assert_eq!(a.stats(k), MuStats::default());
    assert_eq!(a.next_wake(k), u64::MAX);
    assert!(columns(&a).valid[k * words..(k + 1) * words]
        .iter()
        .all(|&w| w == 0));
    assert_eq!(columns(&a).cached[k], 0);
    assert_eq!(a.cached().len(), entries_before - carried);
    for mut schedule in schedules {
        let mut awake = Vec::new();
        for i in last + 1..last + 20 {
            schedule.pop_due(i, &a, &mut awake);
        }
        assert!(!awake.contains(&k), "a departed slot woke");
        assert!(
            awake.contains(&0) && awake.contains(&2),
            "the residents still wake"
        );
    }
    // B's new row is A's old one, column by column.
    assert_eq!(landed, 2, "an arrival appends a slot");
    assert_eq!(row_of(columns(&b), landed), before);
    assert!(Arc::ptr_eq(
        &columns(&b).sig.as_ref().unwrap().last_report[landed],
        &share
    ));

    // Landing: asleep through the transit interval, arrived until it
    // hears a report; histories that agree keep the cache.
    let transit = last + 1;
    assert!(
        !b.shard_mut().land(landed, transit, true),
        "agreeing histories drop nothing"
    );
    assert_eq!(b.unit(landed).presence(), Presence::Arrived);
    assert!(!b.unit(landed).is_awake());
    assert!(b.next_wake(landed) > transit);
    assert_eq!(columns(&b).cached[landed] as usize, carried);
    // Diverged histories empty the row — entries and ghosts — and count
    // one drop; an empty row has nothing to lose and counts none.
    let drops = b.stats(landed).cache_drops;
    assert!(
        b.shard_mut().land(landed, transit, false),
        "a carried cache is lost"
    );
    assert_eq!(columns(&b).cached[landed], 0);
    assert!(columns(&b).valid[landed * words..(landed + 1) * words]
        .iter()
        .all(|&w| w == 0));
    let ghosts = &columns(&b).cap.as_ref().unwrap().ghost[landed * h..(landed + 1) * h];
    assert!(ghosts.iter().all(Option::is_none));
    assert_eq!(b.stats(landed).cache_drops, drops + 1);
    assert!(
        !b.shard_mut().land(landed, transit, false),
        "an empty row loses nothing"
    );
    assert_eq!(b.stats(landed).cache_drops, drops + 1);
}
