//! Boxed `MobileUnit` against a one-client `ColumnarFleet` on payloads
//! no report builder emits: unsorted, with duplicated ids, with ids
//! outside every hot spot. `tests/columnar_equivalence.rs` only ever
//! feeds both backends what `ReportBuilder`s produce (ascending, unique),
//! so the `ProcessOutcome::invalidated` ordering contract, the
//! duplicate-id verdicts and the gap rule at its exact boundary are
//! pinned here, for every rule, where a payload can be hand-built and
//! handed to `ColumnarFleet::sweep` directly. Both backends apply the
//! same `ReportRule`; what can differ is the `CacheSlots` store under
//! it and the answer loop around it.

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

/// The two backends behind one face, one client each.
enum Unit {
    Boxed(Box<MobileUnit>),
    Columnar(Box<ColumnarFleet>),
}

impl Unit {
    fn begin(&mut self, from: f64, to: f64, rng: &mut RngStream) {
        let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
        match self {
            Unit::Boxed(mu) => mu.begin_awake_interval(from, to, rng),
            Unit::Columnar(fleet) => fleet.begin_awake_interval_skewed(0, from, to, rng, None),
        }
    }

    /// Hears `payload`, then installs an answer stamped `T_i` for every
    /// miss (the uplink exchange of the merge phase).
    fn hear(&mut self, payload: &FramePayload) -> Heard {
        let mut scratch = DigestScratch::default();
        let digest = scratch.digest(payload);
        let report = match self {
            Unit::Boxed(mu) => mu.hear_digest_and_answer(&digest),
            Unit::Columnar(fleet) => {
                let mut items = fleet.sweep(&[0], &[0], &digest, false, 1, usize::MAX);
                items.pop().expect("one listener, one item").outcome
            }
        };
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
            match self {
                Unit::Boxed(mu) => mu.install_answer(answer),
                Unit::Columnar(fleet) => fleet.install_answer(0, answer),
            }
        }
        let (stats, unmatched) = match self {
            Unit::Boxed(mu) => (mu.stats(), mu.last_unmatched_subsets()),
            Unit::Columnar(fleet) => (fleet.stats(0), fleet.last_unmatched_subsets(0)),
        };
        (
            report.outcome.expect("an awake unit processes the report"),
            uplink,
            format!("{stats:?} unmatched={unmatched:?}"),
        )
    }
}

fn unit(columnar: bool, kind: Kind, capacity: Option<usize>) -> (Unit, RngStream) {
    let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
    let window = SimDuration::from_secs(LATENCY).scaled(K as f64);
    let unit = if columnar {
        let capacity = capacity.map(|cap| CapacitySpec {
            cap,
            policy: ReplacementPolicy::Lru,
            window,
        });
        let mut fleet = ColumnarFleet::new(HOTSPOT.len(), rule(kind), capacity);
        fleet.push_client(HOTSPOT.to_vec(), LAMBDA, 0.0, &mut rng);
        Unit::Columnar(Box::new(fleet))
    } else {
        let config = MuConfig {
            id: 0,
            hotspot: HOTSPOT.to_vec(),
            query_rate_per_item: LAMBDA,
            sleep_probability: 0.0,
            cache_capacity: capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: window,
            piggyback_hits: false,
            item_universe: Some(UNIVERSE),
        };
        let handler = Box::new(RuleHandler::new(rule(kind)));
        Unit::Boxed(Box::new(MobileUnit::new(config, handler, &mut rng)))
    };
    (unit, rng)
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
            let (mut boxed, mut boxed_rng) = unit(false, kind, capacity);
            let (mut columnar, mut columnar_rng) = unit(true, kind, capacity);
            let mut reports = Reports::new(kind);
            let (mut invalidated_total, mut drops) = (0, 0);
            for i in 1..=INTERVALS {
                let payload = reports.next(i);
                if ASLEEP.contains(&i) {
                    continue;
                }
                let (from, to) = (LATENCY * (i - 1) as f64, LATENCY * i as f64);
                boxed.begin(from, to, &mut boxed_rng);
                columnar.begin(from, to, &mut columnar_rng);
                // The first report finds the cache empty (and `T_l`
                // unset): no rule may call that a drop.
                let expected = boxed.hear(&payload);
                assert_eq!(
                    expected,
                    columnar.hear(&payload),
                    "{kind:?} capacity={capacity:?} interval {i}"
                );
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
