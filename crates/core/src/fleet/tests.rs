//! A fleet on boxed units against a fleet on the slot store, one client
//! each, driven through the *same* phase calls — `open_interval`,
//! `miss_report`, `sweep`, `install_answer`, `close_interval` — on
//! payloads and schedules the cell driver never produces.
//!
//! Both layouts are rows of one client store (`sw_client::SlotStore`):
//! a boxed `MobileUnit` is a one-row store, the slot layout a row of
//! the fleet's. What the rows below pin is that the fleet drives both
//! alike — the same phase calls reach the same row code with the same
//! streams — on hand-built payloads: unsorted, with duplicated ids,
//! with ids outside every hot spot, the gap rule at its exact boundary,
//! for every rule. Every row compares each cached entry's `(item,
//! value, stamp)` too, and every uplink's piggybacked hit history,
//! which only Method 1 carries. The remaining rows pin what the fleet
//! keeps beside the rows: sleep-run settlement across a stats reset,
//! the never-wake sentinel, the Zipf pick's stream discipline, the
//! pending set across missed reports, the SIG subsets a fetch tracks.
//! The last row moves one client's row between two fleets, as a mesh
//! handoff does. `summary` carries each layout's tracked-subset count,
//! so every row that compares summaries also compares what the two
//! vouch for. The store's own columns — the SIG columns' size, the slot
//! block's walks, a moved row column by column — are pinned in
//! `sw_client::store`'s tests.

use std::sync::Arc;

use sw_client::{DigestScratch, MobileUnit, MuConfig, ProcessOutcome, ReplacementPolicy};
use sw_server::{GroupMap, HotSet, PiggybackInfo};
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
/// layout.
impl Fleet {
    fn open(&mut self, i: u64) {
        self.open_interval(0, i, report_time(i - 1), report_time(i));
    }

    /// Hears `payload`, then installs an answer stamped `T_i` for every
    /// miss (the uplink exchange of the merge phase).
    fn hear_payload(&mut self, payload: &FramePayload) -> Heard {
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(payload);
        let mut out = [SweepOut::default()];
        self.sweep(&[0], &[0], &digest, false, &mut out);
        let [out] = out;
        let [swept] = &out.items[..] else {
            panic!("one listener, one item")
        };
        let (heard, lists) = (&swept.heard, &out.lists);
        let outcome = ProcessOutcome {
            report_time: digest.report_time(),
            dropped_all: heard.dropped_all,
            invalidated: lists.invalidated[heard.invalidated.clone()].to_vec(),
        };
        let uplink = lists.uplinks[heard.uplinks.clone()].to_vec();
        // Parallel to the uplinks when the client piggybacks, else empty.
        let piggybacks = lists.piggybacks.clone();
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
        match &self.store {
            RowStore::Slots(store) => store.tracked_subsets(idx),
            RowStore::Units(units) => units[idx].tracked_subsets(),
        }
    }

    /// The slot store of a fleet on that layout.
    fn columns(&self) -> &SlotStore {
        match &self.store {
            RowStore::Slots(store) => store,
            RowStore::Units(_) => unreachable!("the fixture is columnar"),
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

/// Client `index`'s streams, with Zipf picks over `HOTSPOT` if armed.
fn streams(index: u64, zipf: Option<f64>) -> ClientStreams {
    let stream = |id| MasterSeed::TEST.stream(id);
    let picker = |theta| Arc::new(ZipfPicker::new(HOTSPOT.len(), theta));
    ClientStreams::new(
        stream(StreamId::Queries { index }),
        stream(StreamId::Sleep { index }),
        zipf.map(|theta| (picker(theta), stream(StreamId::ZipfQuery { index }))),
    )
}

/// An empty slot store over `HOTSPOT`-sized rows, bounded at
/// `capacity` under LRU.
fn slot_store(rule: ReportRule, capacity: Option<usize>, piggyback: bool) -> SlotStore {
    let capacity = capacity.map(|cap| CapacitySpec {
        cap,
        policy: ReplacementPolicy::Lru,
        window: SimDuration::from_secs(LATENCY).scaled(K as f64),
    });
    SlotStore::new(HOTSPOT.len(), 1, rule, capacity, piggyback)
}

/// One client over `HOTSPOT` with sleep probability `s`, on either
/// layout, from the same streams.
fn fleet(columnar: bool, kind: Kind, capacity: Option<usize>, s: f64, zipf: Option<f64>) -> Fleet {
    let mut streams = streams(0, zipf);
    let store = if columnar {
        let mut store = slot_store(rule(kind), capacity, kind == Kind::M1);
        store.push_row(&HOTSPOT, LAMBDA, s);
        RowStore::Slots(store)
    } else {
        let config = MuConfig {
            id: 0,
            hotspot: HOTSPOT.to_vec(),
            query_rate_per_item: LAMBDA,
            sleep_probability: s,
            cache_capacity: capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: SimDuration::from_secs(LATENCY).scaled(K as f64),
            piggyback_hits: kind == Kind::M1,
            item_universe: Some(UNIVERSE),
        };
        RowStore::Units(vec![MobileUnit::new(config, rule(kind), streams.query_rng())])
    };
    let mut fleet = Fleet::with_store(store, 1);
    fleet.push_client(streams);
    fleet
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
                let expected = boxed.hear_payload(&payload);
                assert_eq!(
                    expected,
                    columnar.hear_payload(&payload),
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

/// A boxed SIG cell builds its rule once: every unit's decoder reads
/// the same subset mask and list, filled by whichever unit asked first.
#[test]
fn the_units_of_a_boxed_sig_cell_share_one_subset_list_table() {
    let config = CellConfig::new(sw_workload::ScenarioParams::scenario1())
        .with_clients(3)
        .with_fleet(FleetBackend::Units);
    let fleet = Fleet::new(&config, Strategy::Signatures).expect("a valid cell");
    let RowStore::Units(units) = &fleet.store else {
        panic!("a forced Units fleet is boxed units");
    };
    let decoder = |unit: &MobileUnit| unit.rule().decoder().expect("SIG rules decode").clone();
    let (first, last) = (decoder(&units[0]), decoder(&units[2]));
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
        fleet.hear_payload(&Reports::new(Kind::Ts).next(1));
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
            boxed.hear_payload(&payload),
            columnar.hear_payload(&payload),
            "interval {i}"
        );
        uniform.hear_payload(&payload);
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
    assert_eq!(boxed.hear_payload(&first), columnar.hear_payload(&first));
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
    let heard = boxed.hear_payload(&fourth);
    assert_eq!(heard, columnar.hear_payload(&fourth));
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
        assert_eq!(boxed.hear_payload(&first), columnar.hear_payload(&first), "{kind:?}");
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

/// Method 1: a slot's hit history is the uplink's `PiggybackInfo` on
/// either layout for the same queries — the hits since the item's last
/// uplink, kept across the report that invalidates the copy and shipped
/// with the miss that follows.
#[test]
fn a_slots_hit_history_is_the_units_piggyback() {
    let [mut boxed, mut columnar] = both(Kind::M1, None, 0.0, None);
    let mut reports = Reports::new(Kind::M1);
    let mut invalidated_with_history = 0;
    for i in 1..=INTERVALS {
        let payload = reports.next(i);
        boxed.open(i);
        columnar.open(i);
        let heard = boxed.hear_payload(&payload);
        assert_eq!(heard, columnar.hear_payload(&payload), "interval {i}");
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

/// Client `idx`'s row as the fleet moves it: its streams, its wake
/// mark, and what its row of the store reads as — the unit, the cached
/// entries with their validity stamps, the pending count, the tracked
/// subsets and the last unmatched count. (`sw_client::store`'s tests
/// compare a moved row column by column.)
fn row_of(fleet: &Fleet, idx: usize) -> Vec<(&'static str, String)> {
    let store = fleet.columns();
    let text = |column: &dyn std::fmt::Debug| format!("{column:?}");
    let cached: Vec<_> = store.cache(idx).iter().collect();
    vec![
        ("streams", text(&fleet.streams[idx])),
        ("next_wake", text(&fleet.next_wake[idx])),
        ("unit", text(store.unit(idx))),
        ("cached", text(&cached)),
        ("pending", text(&store.pending_len(idx))),
        ("tracked", text(&store.tracked_subsets(idx))),
        ("last_unmatched", text(&store.last_unmatched(idx))),
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
        let store = slot_store(rule(Kind::Sig), Some(2), true);
        let mut fleet = Fleet::with_store(RowStore::Slots(store), indices.clone().count());
        for index in indices {
            fleet.store.slots().push_row(&HOTSPOT, LAMBDA, 0.0);
            fleet.push_client(streams(index, None));
        }
        fleet
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
                    for &item in &out.lists.uplinks[swept.heard.uplinks.clone()] {
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
    let before = row_of(&a, k);
    let carried = a.columns().cache(k).len();
    assert!(carried > 0, "the traveler carries a cache");
    assert!(a.columns().unit(k).stats().evictions > 0, "and ghosts");
    assert!(
        a.columns().pending_len(k) > 0,
        "and queries still waiting"
    );
    assert!(
        a.columns().tracked_subsets(k) > 0,
        "and tracked subsets"
    );
    let entries_before = a.cached().len();
    // Built before the cut: the heap keeps the traveler's entry.
    let schedules = [WakeMode::Scan, WakeMode::Heap].map(|mode| WakeSchedule::new(mode, &a));

    let landed = a.move_row(k, &mut b);
    // A's slot is departed: zero stats, never woken, nothing cached.
    assert!(a.is_departed(k));
    assert_eq!(a.stats(k), MuStats::default());
    assert_eq!(a.next_wake(k), u64::MAX);
    assert!(a.columns().cache(k).is_empty());
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
    // B's new row is A's old one.
    assert_eq!(landed, 2, "an arrival appends a slot");
    assert_eq!(row_of(&b, landed), before);

    // Landing: asleep through the transit interval, arrived until it
    // hears a report; histories that agree keep the cache.
    let transit = last + 1;
    assert!(
        !b.land(landed, transit, true),
        "agreeing histories drop nothing"
    );
    assert_eq!(b.unit(landed).presence(), Presence::Arrived);
    assert!(!b.unit(landed).is_awake());
    assert!(b.next_wake(landed) > transit);
    assert_eq!(b.columns().cache(landed).len(), carried);
    // Diverged histories empty the row and count one drop; an empty row
    // has nothing to lose and counts none.
    let drops = b.stats(landed).cache_drops;
    assert!(
        b.land(landed, transit, false),
        "a carried cache is lost"
    );
    assert!(b.columns().cache(landed).is_empty());
    assert_eq!(b.stats(landed).cache_drops, drops + 1);
    assert!(
        !b.land(landed, transit, false),
        "an empty row loses nothing"
    );
    assert_eq!(b.stats(landed).cache_drops, drops + 1);
}
