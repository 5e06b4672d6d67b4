//! Boxed `MobileUnit` against the columnar kernels on payloads no
//! report builder emits: unsorted, with duplicated ids, with ids
//! outside every hot spot. `tests/columnar_equivalence.rs` only ever
//! feeds both backends what `ReportBuilder`s produce (ascending, unique),
//! so the `ProcessOutcome::invalidated` ordering contract and the
//! duplicate-id verdicts are pinned here, where a payload can be
//! hand-built and handed to `ColumnarFleet::sweep` directly.

use sw_client::{AtHandler, DigestScratch, MobileUnit, MuConfig, ReportHandler, TsHandler};
use sw_sim::{MasterSeed, StreamId};

use super::*;

const LATENCY: f64 = 10.0;
/// Draw order is not id order; 64/65 sit across a bitmap word boundary
/// of the digest, 0 is the smallest id there is.
const HOTSPOT: [ItemId; 6] = [70, 0, 3, 64, 9, 65];
const LAMBDA: f64 = 0.4;

fn secs(t: f64) -> u64 {
    (t * 1e6) as u64
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
        let stats = match self {
            Unit::Boxed(mu) => mu.stats(),
            Unit::Columnar(fleet) => fleet.stats(0),
        };
        (
            report.outcome.expect("an awake unit processes the report"),
            uplink,
            format!("{stats:?}"),
        )
    }
}

fn unit(columnar: bool, at: bool, capacity: Option<usize>) -> (Unit, RngStream) {
    let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
    let latency = SimDuration::from_secs(LATENCY);
    let window = latency.scaled(3.0);
    let unit = if columnar {
        let spec = if at {
            ColumnarSpec::At { latency }
        } else {
            ColumnarSpec::Ts { window }
        };
        let capacity = capacity.map(|cap| CapacitySpec {
            cap,
            policy: ReplacementPolicy::Lru,
            window,
        });
        let mut fleet = ColumnarFleet::new(HOTSPOT.len(), spec, capacity);
        fleet.push_client(HOTSPOT.to_vec(), LAMBDA, 0.0, &mut rng);
        Unit::Columnar(Box::new(fleet))
    } else {
        let handler: Box<dyn ReportHandler + Send> = if at {
            Box::new(AtHandler::new(latency))
        } else {
            Box::new(TsHandler::with_window(window))
        };
        let config = MuConfig {
            id: 0,
            hotspot: HOTSPOT.to_vec(),
            query_rate_per_item: LAMBDA,
            sleep_probability: 0.0,
            cache_capacity: capacity,
            replacement: ReplacementPolicy::Lru,
            replacement_window: window,
            piggyback_hits: false,
            item_universe: Some(1_000),
        };
        Unit::Boxed(Box::new(MobileUnit::new(config, handler, &mut rng)))
    };
    (unit, rng)
}

/// The report closing interval `i` (at `T_i = 10·i`). Every other one is
/// hostile: ids out of order, repeated (TS: with an older *and* a newer
/// `t_j`, in both orders), outside the hot spot, and id 0.
fn report(at: bool, i: u64) -> FramePayload {
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
    if at {
        // AT lists what changed *this interval*: the entries newer than
        // the previous report.
        FramePayload::AmnesicReport {
            report_ts_micros,
            ids: entries.iter().filter(|e| e.1 > prev).map(|e| e.0).collect(),
        }
    } else {
        FramePayload::TimestampReport {
            report_ts_micros,
            entries: entries.into_iter().map(|(id, t)| (id, secs(t))).collect(),
        }
    }
}

#[test]
fn hand_built_unsorted_and_duplicated_payloads_agree_across_backends() {
    for at in [false, true] {
        for capacity in [None, Some(4)] {
            let (mut boxed, mut boxed_rng) = unit(false, at, capacity);
            let (mut columnar, mut columnar_rng) = unit(true, at, capacity);
            let mut invalidated_total = 0;
            for i in 1..=12u64 {
                let (from, to) = (LATENCY * (i - 1) as f64, LATENCY * i as f64);
                boxed.begin(from, to, &mut boxed_rng);
                columnar.begin(from, to, &mut columnar_rng);
                let payload = report(at, i);
                let expected = boxed.hear(&payload);
                assert_eq!(
                    expected,
                    columnar.hear(&payload),
                    "at={at} capacity={capacity:?} interval {i}"
                );
                let invalidated = &expected.0.invalidated;
                assert!(
                    invalidated.windows(2).all(|w| w[0] < w[1]),
                    "invalidated must ascend whatever the payload order: {invalidated:?}"
                );
                invalidated_total += invalidated.len();
            }
            assert!(invalidated_total >= 6, "the hostile reports must bite");
        }
    }
}
