//! What a cell keeps per client beside the client store: each
//! client's `ClientStreams` — its query, sleep and Zipf streams and
//! its settled-interval mark, with the one `open` and the one `close`
//! of an awake interval — and the cell-wide facts every client is
//! built from ([`shared_zipf`], `piggybacks`).
//!
//! The cell's [`Fleet`](crate::Fleet) holds one `ClientStreams` per
//! client in a column beside its rows, whichever layout the rows take,
//! and the live MU's one-row fleet holds one too, so a client's streams
//! are opened and closed by one piece of code everywhere.
//! [`demonstrate_corruption`] is the fault layer's corruption check on
//! real bytes, shared by the cell and the live MU.

use std::sync::Arc;

use sw_client::UnitState;
use sw_faults::FaultLayer;
use sw_server::ItemId;
use sw_sim::{RngStream, StreamId};
use sw_wireless::frame::{checksum64, flip_bit};
use sw_workload::{HotspotSpec, ZipfPicker};

use crate::adaptive::FeedbackMethod;
use crate::config::CellConfig;
use crate::strategy::Strategy;

/// Whether a cell's units collect local-hit histories for uplink
/// piggybacking: adaptive TS's Method 1 feeds on them (§8.1).
pub(crate) fn piggybacks(strategy: Strategy) -> bool {
    matches!(
        strategy,
        Strategy::AdaptiveTs {
            method: FeedbackMethod::Method1,
            ..
        }
    )
}

/// The Zipf rank CDF every client of the cell shares
/// (`CellConfig::query_zipf`); `None` when queries pick uniformly.
pub fn shared_zipf(cfg: &CellConfig) -> Option<Arc<ZipfPicker>> {
    cfg.query_zipf
        .map(|theta| Arc::new(ZipfPicker::new(cfg.hotspot_size, theta)))
}

/// What client `index` of a configuration starts from on either fleet
/// backend: its hotspot (in draw order), its sleep probability, and its
/// private streams, each a pure function of `(seed, StreamId { index })`.
pub(crate) type ClientStart = (Vec<ItemId>, f64, ClientStreams);

/// A client's private streams and its settled-interval mark: one record
/// on either store, with the one [`open`](Self::open) and the one
/// [`close`](Self::close) of an awake interval.
#[derive(Debug, Clone)]
pub(crate) struct ClientStreams {
    /// Each window's query count and pose times, and the item pick
    /// unless Zipf is armed.
    query_rng: RngStream,
    sleep_rng: RngStream,
    /// The cell's shared Zipf rank CDF and the per-arrival rank draw
    /// (`Some` iff `query_zipf` is set), so unarmed runs consume exactly
    /// the classic draw sequence.
    zipf: Option<(Arc<ZipfPicker>, RngStream)>,
    /// Last interval whose sleep accounting was settled (sleep runs are
    /// credited lazily at wake-up).
    last_settled: u64,
}

impl ClientStreams {
    pub(crate) fn new(
        query_rng: RngStream,
        sleep_rng: RngStream,
        zipf: Option<(Arc<ZipfPicker>, RngStream)>,
    ) -> Self {
        ClientStreams {
            query_rng,
            sleep_rng,
            zipf,
            last_settled: 0,
        }
    }

    /// Client `index` of `cfg`; `zipf` is the cell's [`shared_zipf`]
    /// picker.
    pub(crate) fn draw(
        cfg: &CellConfig,
        index: usize,
        zipf: Option<&Arc<ZipfPicker>>,
    ) -> ClientStart {
        let idx = index as u64;
        let spec = HotspotSpec::new(cfg.params.n_items, cfg.hotspot_size, cfg.popularity);
        (
            spec.draw(&mut cfg.seed.stream(StreamId::Hotspot { index: idx })),
            match &cfg.sleep_profile {
                Some(profile) => profile[index % profile.len()],
                None => cfg.params.s,
            },
            ClientStreams::new(
                cfg.seed.stream(StreamId::Queries { index: idx }),
                cfg.seed.stream(StreamId::Sleep { index: idx }),
                zipf.map(|picker| {
                    let rng = cfg.seed.stream(StreamId::ZipfQuery { index: idx });
                    (Arc::clone(picker), rng)
                }),
            ),
        )
    }

    /// The query stream, which `MobileUnit::new` is handed and draws
    /// nothing from.
    pub(crate) fn query_rng(&mut self) -> &mut RngStream {
        &mut self.query_rng
    }

    /// Opens interval `i` for the waking `unit`: credits the sleep run
    /// that just ended, then hands back what
    /// [`UnitState::pose`](sw_client::UnitState::pose) draws the
    /// interval's queries from — the query stream, and the pick on the
    /// Zipf stream when Zipf is armed.
    pub(crate) fn open(
        &mut self,
        unit: &mut UnitState,
        i: u64,
    ) -> (&mut RngStream, Option<impl FnMut() -> usize + '_>) {
        unit.credit_asleep_intervals(i - self.last_settled - 1);
        self.last_settled = i;
        let pick = self.zipf.as_mut();
        let pick = pick.map(|(picker, rng)| move || picker.draw(rng));
        (&mut self.query_rng, pick)
    }

    /// Closes interval `i` for `unit`: draws its next sleep run and
    /// returns the next interval it is awake in (`u64::MAX` = never).
    pub(crate) fn close(&mut self, unit: &mut UnitState, i: u64) -> u64 {
        let run = unit.draw_sleep_run(&mut self.sleep_rng);
        if run > 0 {
            unit.enter_sleep();
        }
        // A never-waking run, `u64::MAX`, saturates to itself.
        (i + 1).saturating_add(run)
    }

    /// Credits no asleep interval up to `i` at the next wake: a warm-up
    /// reset at `i`, or a handoff in transit through `i`.
    pub(crate) fn settled_through(&mut self, i: u64) {
        self.last_settled = self.last_settled.max(i);
    }
}

/// Demonstrates corruption detection on real bytes: flips the bit of
/// `frame` the fault layer draws for `client` and requires the checksum
/// to notice. An undetected flip would mean a half-applied report.
pub fn demonstrate_corruption(faults: &mut FaultLayer, client: usize, frame: &[u8]) {
    let mut damaged = frame.to_vec();
    let bit = faults.corrupt_bit_index(client, damaged.len() as u64 * 8);
    flip_bit(&mut damaged, bit);
    if checksum64(&damaged) == checksum64(frame) {
        faults.note_undetected_corruption();
    }
}
