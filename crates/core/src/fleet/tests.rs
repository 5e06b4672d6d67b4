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
//! stamps and derive validity from `T_l`, the seat restamps, and the
//! two must read the same. The remaining rows pin what the seat and the
//! columns each keep beside the cache: sleep-run settlement across a
//! stats reset, the never-wake sentinel, the Zipf pick's stream
//! discipline, the pending set across missed reports, the SIG subsets a
//! fetch tracks and the size of the SIG columns — and, on a bare slot
//! block, that a heard report reads only `report ∩ cache`. `summary`
//! carries each store's tracked-subset count, so every row that compares
//! summaries also compares what the two stores vouch for.

use sw_client::{Cache, DigestScratch, MobileUnit, MuConfig, ProcessOutcome, RuleHandler};
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
        for &item in &uplink {
            let answer = QueryAnswer {
                item,
                value: item + 1,
                timestamp: digest.report_time(),
            };
            self.install_answer(0, answer);
        }
        (outcome, uplink, self.summary())
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
            self.is_awake(0),
            self.next_wake(0),
            self.cached()
        )
    }
}

/// Client `index`'s streams over `HOTSPOT`, with sleep probability `s`.
fn streams(index: u64, s: f64, zipf: Option<f64>) -> ClientStreams {
    let stream = |id| MasterSeed::TEST.stream(id);
    ClientStreams {
        hotspot: HOTSPOT.to_vec(),
        sleep_probability: s,
        query_rng: stream(StreamId::Queries { index }),
        sleep_rng: stream(StreamId::Sleep { index }),
        zipf_rng: zipf.map(|_| stream(StreamId::ZipfQuery { index })),
    }
}

/// One client over `HOTSPOT` with sleep probability `s`, on either
/// store, from the same streams.
fn fleet(columnar: bool, kind: Kind, capacity: Option<usize>, s: f64, zipf: Option<f64>) -> Fleet {
    let streams = streams(0, s, zipf);
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

/// A boxed SIG cell builds its rule once: every seat's decoder reads
/// the same subset list, filled by whichever seat asked first.
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
    let mut posed_at = Vec::new();
    for i in 1..=12 {
        arrivals.arrivals_in(report_time(i - 1), report_time(i), &mut rng, &mut posed_at);
        for fleet in [&mut boxed, &mut columnar, &mut uniform] {
            fleet.open(i);
        }
        let posed = posed_at.len() as u64;
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
    let posed = posed_at.len() as u64;
    assert!(posed > 20, "the row needs arrivals to mean anything");
    assert_ne!(
        uniform.stats(0).queries_posed,
        posed,
        "uniform picks interleave with the arrival draws, so the schedules part"
    );
}

#[test]
fn missed_reports_keep_the_pending_set_and_accrue_latency() {
    for kind in [Kind::Ts, Kind::Sig, Kind::Hyb] {
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
/// a survivor verified as of `T_1` under SIG.
#[test]
fn installs_before_the_first_heard_report_keep_their_own_stamp() {
    use Kind::*;
    let installed = SimTime::from_secs(4.0);
    for kind in [Ts, At, Gr, Nc, Sig, Hyb] {
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
    let mut fleet = ColumnarFleet::new(HOTSPOT.len(), rule(Kind::Sig), None, None);
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
        stamps: &columns.stamps,
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
        let survivors: Vec<(ItemId, SimTime)> = CacheSlots::sorted_items(&block)
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
