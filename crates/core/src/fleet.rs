//! Columnar client fleet: struct-of-arrays mobile-unit state.
//!
//! The boxed-[`sw_client::MobileUnit`] fleet stores each client's cache
//! as a dense `n_items`-wide table behind a trait-object handler. That
//! layout is exact but hostile to the hot path: one report sweep visits
//! a thousand heap-scattered caches, each a universe-sized vector of
//! `Option<CacheEntry>`, and at 10⁵–10⁶ clients per cell the per-client
//! tables alone dwarf RAM (a million 2000-item dense caches ≈ 48 GB).
//!
//! This module keeps the *same observable semantics* in parallel
//! columns. The enabling invariant is that a client's cache is always a
//! subset of its hotspot: queries draw only hotspot items, and entries
//! are installed only by answers to queries. So every client owns a
//! fixed block of `H = hotspot_size` *slots*, one per hotspot item in
//! ascending id order, and the whole fleet is flat vectors indexed by
//! `client * H + slot` (bitmaps: `client * ⌈H/64⌉ + slot / 64`):
//!
//! * `slot_items` — the hotspot, sorted (slot → item id);
//! * `valid` — one bit per slot (cached or not), `⌈H/64⌉` words/client;
//! * `values`, `stamps` — the cached value and validity timestamp;
//! * `draw_slot` — the hotspot in draw order, as slots (query draw
//!   index → slot);
//! * `pending_mask` — one bit per slot queried since the last heard
//!   report: the deduplicated `Q_i`, already in answer order;
//! * plus per-client scalars (stats, `T_l`, awake flag, query pose
//!   times, the query/sleep processes).
//!
//! One report sweep is then a cache-friendly linear scan over the slot
//! block, and disjoint client ranges of the columns can be swept by
//! parallel workers with no aliasing. This module holds no report
//! algorithm of its own: the §3 client algorithms live once, in
//! [`ReportRule::apply`], generic over a [`CacheSlots`] view, and the
//! fleet's share is [`SlotBlock`] — that view over one client's block
//! of the columns — plus lending the client's row of the SIG columns
//! as a [`SigTrack`]. A boxed `MobileUnit` runs the same function over
//! its `Cache`. `SlotBlock`'s walk is the way §3 writes the loop — "for
//! every item j *in the MU cache*" — ascending over the client's valid
//! bits (slot order is item-id order), with the broadcast's shared
//! [`ReportDigest`] only *probed*, a bit test per slot: an interval
//! costs O(|report| + awake·H). What remains for
//! `tests/columnar_equivalence.rs` to pin is everything around the
//! rule: query draws, the answer loop, capacity columns, uplinks.
//!
//! Bounded caches ride along as optional columns ([`CapColumns`]):
//! per-slot recency/frequency ticks, a per-client access clock, and a
//! per-slot ghost byte remembering evicted-entry stamps. They are
//! materialized only when the cell bounds its caches, so unbounded
//! sweeps touch nothing new; when armed, eviction at install time and
//! ghost classification at answer time follow
//! `sw_client::Cache` exactly (the victim key's item-id tiebreak makes
//! the minimum unique, so the slot scan and the boxed table walk pick
//! the same victim).
//!
//! Eligibility is decided by the simulation driver: static report
//! builders only (TS/AT/SIG/NC/HYB/GR), no piggyback histories,
//! standalone cells (no mesh backbone). Everything else stays on the
//! boxed-unit fleet.

use std::sync::Arc;

use sw_capacity::{victim_key, EntryMeta, ReplacementPolicy};
use sw_client::{CacheSlots, IntervalReport, MuStats, ReportDigest, ReportRule, SigTrack};
use sw_server::{ItemId, QueryAnswer};
use sw_signature::CombinedSignature;
use sw_sim::{BernoulliIntervalProcess, PoissonProcess, RngStream, SimDuration, SimTime};

/// Set bit positions of `word`, ascending, offset by `base`. `word` is
/// a copy, so the loop body may clear bits of the column it came from.
fn set_bits(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// Per-client SIG/HYB tracking state, columnar: what each client lends
/// the rule as a [`SigTrack`] — `m` signature slots per client, the
/// tracked count, the last-heard report share, and the unmatched-subset
/// telemetry.
struct SigColumns {
    m: usize,
    /// Tracked combined signature per subset, stride `m` per client.
    tracked: Vec<Option<CombinedSignature>>,
    tracked_count: Vec<usize>,
    last_report: Vec<Arc<Vec<CombinedSignature>>>,
    last_unmatched: Vec<u32>,
}

impl SigColumns {
    /// All clients' columns as one chunk.
    fn chunk(&mut self) -> SigChunk<'_> {
        SigChunk {
            m: self.m,
            tracked: &mut self.tracked,
            tracked_count: &mut self.tracked_count,
            last_report: &mut self.last_report,
            last_unmatched: &mut self.last_unmatched,
        }
    }
}

/// Capacity configuration for a bounded fleet (mirrors the boxed
/// cache's `with_capacity` + `set_replacement`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapacitySpec {
    /// Max cached entries per client.
    pub cap: usize,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
    /// TS window `w = kL` for [`ReplacementPolicy::WindowAge`].
    pub window: SimDuration,
}

/// Bounded-cache state, columnar: the per-entry replacement metadata
/// and ghost list of `sw_client::Cache`, as parallel slot columns.
/// Allocated only for bounded fleets — unbounded sweeps never touch it.
struct CapColumns {
    spec: CapacitySpec,
    /// Recency tick of the last access, stride `h` (only meaningful
    /// where the valid bit is set; reinstall overwrites).
    last_used: Vec<u64>,
    /// Hits since install (1 at install), stride `h`.
    use_count: Vec<u64>,
    /// Ghost state per slot: 0 = none, 1 = fresh, 2 = proven stale.
    ghost: Vec<u8>,
    /// Evicted entry's validity stamp (meaningful where `ghost != 0`),
    /// stride `h`.
    ghost_stamps: Vec<SimTime>,
    /// Per-client access clock (`Cache::clock`): bumped on every
    /// answer-loop read — hit or miss — and on every install.
    clock: Vec<u64>,
}

/// Bounded-cache columns of one contiguous client chunk.
struct CapChunk<'a> {
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [u8],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut [u64],
}

/// The columnar client fleet. See the module docs for the layout.
pub(crate) struct ColumnarFleet {
    n: usize,
    /// Hotspot size `H` = slots per client.
    h: usize,
    /// Validity bitmap words per client.
    words: usize,
    /// Draw index → slot, stride `h`: a query's uniform (or Zipf) draw
    /// indexes the hotspot in *draw order*, exactly like
    /// `MuConfig::hotspot`; this maps it straight to the slot.
    draw_slot: Vec<u32>,
    /// Hotspot in ascending id order, stride `h` (slot → item).
    slot_items: Vec<ItemId>,
    /// Validity bitmap, stride `words`.
    valid: Vec<u64>,
    /// Cached values, stride `h`.
    values: Vec<u64>,
    /// Validity timestamps `t_x`, stride `h`.
    stamps: Vec<SimTime>,
    /// Live slot count per client (= `cache.len()`).
    cached: Vec<u32>,
    t_l: Vec<Option<SimTime>>,
    awake: Vec<bool>,
    /// Slots queried since the last heard report, one bit each, stride
    /// `words` — the deduplicated `Q_i`, already in answer order.
    pending_mask: Vec<u64>,
    /// When each of those queries was posed (latency accounting).
    posed_at: Vec<Vec<SimTime>>,
    stats: Vec<MuStats>,
    queries: Vec<PoissonProcess>,
    sleep: Vec<BernoulliIntervalProcess>,
    /// The strategy's client half, shared by every client.
    rule: ReportRule,
    sig: Option<SigColumns>,
    cap: Option<CapColumns>,
}

impl ColumnarFleet {
    /// Creates an empty fleet; clients are appended by
    /// [`Self::push_client`] in the constructor's per-index loop, so
    /// the rng draw order matches the boxed-unit path exactly.
    pub(crate) fn new(
        hotspot_size: usize,
        rule: ReportRule,
        capacity: Option<CapacitySpec>,
    ) -> Self {
        assert!(hotspot_size > 0, "hotspot cannot be empty");
        let sig = rule.decoder().map(|d| {
            let m = d.plan().m as usize;
            SigColumns {
                m,
                tracked: Vec::new(),
                tracked_count: Vec::new(),
                last_report: Vec::new(),
                last_unmatched: Vec::new(),
            }
        });
        let cap = capacity.map(|spec| {
            assert!(spec.cap > 0, "cache capacity must be positive");
            CapColumns {
                spec,
                last_used: Vec::new(),
                use_count: Vec::new(),
                ghost: Vec::new(),
                ghost_stamps: Vec::new(),
                clock: Vec::new(),
            }
        });
        ColumnarFleet {
            n: 0,
            h: hotspot_size,
            words: hotspot_size.div_ceil(64),
            draw_slot: Vec::new(),
            slot_items: Vec::new(),
            valid: Vec::new(),
            values: Vec::new(),
            stamps: Vec::new(),
            cached: Vec::new(),
            t_l: Vec::new(),
            awake: Vec::new(),
            pending_mask: Vec::new(),
            posed_at: Vec::new(),
            stats: Vec::new(),
            queries: Vec::new(),
            sleep: Vec::new(),
            rule,
            sig,
            cap,
        }
    }

    /// Appends one client, consuming exactly the draws
    /// `MobileUnit::new` would: one exponential from `query_rng` for
    /// the Poisson query process's first arrival. The hotspot arrives
    /// in draw order and is sorted into slot order here.
    pub(crate) fn push_client(
        &mut self,
        hotspot: Vec<ItemId>,
        query_rate_per_item: f64,
        sleep_probability: f64,
        query_rng: &mut RngStream,
    ) {
        assert_eq!(hotspot.len(), self.h, "fleet hotspots must share one size");
        let total_rate = query_rate_per_item * hotspot.len() as f64;
        let mut sorted = hotspot.clone();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "hotspot draws must be distinct for the slot mapping"
        );
        self.draw_slot.extend(hotspot.iter().map(|item| {
            sorted
                .binary_search(item)
                .expect("the sorted hotspot holds every drawn item") as u32
        }));
        self.slot_items.extend_from_slice(&sorted);
        self.valid.extend(std::iter::repeat_n(0u64, self.words));
        self.pending_mask
            .extend(std::iter::repeat_n(0u64, self.words));
        self.values.extend(std::iter::repeat_n(0u64, self.h));
        self.stamps.extend(std::iter::repeat_n(SimTime::ZERO, self.h));
        self.cached.push(0);
        self.t_l.push(None);
        self.awake.push(true);
        self.posed_at.push(Vec::new());
        self.stats.push(MuStats::default());
        self.queries.push(PoissonProcess::new(total_rate, query_rng));
        self.sleep.push(BernoulliIntervalProcess::new(sleep_probability));
        if let Some(sig) = &mut self.sig {
            sig.tracked.extend(std::iter::repeat_n(None, sig.m));
            sig.tracked_count.push(0);
            sig.last_report.push(Arc::new(Vec::new()));
            sig.last_unmatched.push(0);
        }
        if let Some(cap) = &mut self.cap {
            cap.last_used.extend(std::iter::repeat_n(0u64, self.h));
            cap.use_count.extend(std::iter::repeat_n(0u64, self.h));
            cap.ghost.extend(std::iter::repeat_n(0u8, self.h));
            cap.ghost_stamps
                .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
            cap.clock.push(0);
        }
        self.n += 1;
    }

    /// Number of clients.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Whether client `idx` is awake this interval.
    pub(crate) fn is_awake(&self, idx: usize) -> bool {
        self.awake[idx]
    }

    /// Stats snapshot for client `idx`.
    pub(crate) fn stats(&self, idx: usize) -> MuStats {
        self.stats[idx]
    }

    /// Iterates all per-client stats (report aggregation).
    pub(crate) fn stats_iter(&self) -> impl Iterator<Item = &MuStats> + '_ {
        self.stats.iter()
    }

    /// Zeroes every client's stats (warm-up reset).
    pub(crate) fn reset_stats(&mut self) {
        self.stats.fill(MuStats::default());
    }

    /// Marks client `idx` asleep.
    pub(crate) fn enter_sleep(&mut self, idx: usize) {
        self.awake[idx] = false;
    }

    /// Credits `k` asleep intervals (lazy settlement at wake-up).
    pub(crate) fn credit_asleep_intervals(&mut self, idx: usize, k: u64) {
        self.stats[idx].intervals_asleep += k;
    }

    /// Draws client `idx`'s next sleep run.
    pub(crate) fn draw_sleep_run(&self, idx: usize, rng: &mut RngStream) -> u64 {
        self.sleep[idx].draw_sleep_run(rng)
    }

    /// Unmatched-subset telemetry from the last processed report
    /// (SIG/HYB only; `ReportHandler::last_unmatched_subsets`).
    pub(crate) fn last_unmatched_subsets(&self, idx: usize) -> Option<u32> {
        self.sig.as_ref().map(|s| s.last_unmatched[idx])
    }

    /// Starts interval `(from, to]` for awake client `idx`: generates
    /// this interval's query arrivals into its pending set, consuming
    /// `query_rng` exactly like `MobileUnit::begin_awake_interval`.
    /// When `pick` is `Some` (Zipf skew), each arrival's hotspot index
    /// comes from the closure and the uniform draw on `query_rng` is
    /// *not consumed* — mirroring
    /// `MobileUnit::begin_awake_interval_skewed`.
    pub(crate) fn begin_awake_interval_skewed(
        &mut self,
        idx: usize,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        mut pick: Option<&mut dyn FnMut() -> usize>,
    ) {
        self.awake[idx] = true;
        let stats = &mut self.stats[idx];
        stats.intervals_awake += 1;
        let base = idx * self.h;
        for at in self.queries[idx].arrivals_in(from, to, query_rng) {
            let j = match pick.as_deref_mut() {
                Some(pick) => pick(),
                None => query_rng.uniform_index(self.h as u64) as usize,
            };
            let slot = self.draw_slot[base + j] as usize;
            self.pending_mask[idx * self.words + slot / 64] |= 1 << (slot % 64);
            self.posed_at[idx].push(at);
            stats.queries_posed += 1;
        }
    }

    /// Slot of `item` in client `idx`'s hotspot block, if any.
    fn slot_of(&self, idx: usize, item: ItemId) -> Option<usize> {
        let block = &self.slot_items[idx * self.h..idx * self.h + self.h];
        block.binary_search(&item).ok()
    }

    /// Installs an uplink answer: cache the fresh copy under the
    /// request's server timestamp and (SIG/HYB) adopt tracking for the
    /// item's subsets from the last heard report.
    pub(crate) fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        let slot = self
            .slot_of(idx, answer.item)
            .expect("uplink answers only items the client queried, i.e. hotspot items");
        let word = idx * self.words + slot / 64;
        let bit = 1u64 << (slot % 64);
        if self.valid[word] & bit == 0 {
            self.valid[word] |= bit;
            self.cached[idx] += 1;
        }
        self.values[idx * self.h + slot] = answer.value;
        self.stamps[idx * self.h + slot] = answer.timestamp;
        if let Some(cap) = &mut self.cap {
            let base = idx * self.h;
            cap.clock[idx] += 1;
            cap.last_used[base + slot] = cap.clock[idx];
            cap.use_count[base + slot] = 1;
            // A fresh install clears any ghost of the item.
            cap.ghost[base + slot] = 0;
            while self.cached[idx] as usize > cap.spec.cap {
                // Same victim scan as `Cache::insert`: the key ends in
                // the item id, so the minimum is unique and the slot
                // order cannot disagree with the boxed table walk.
                let mut victim: Option<([u64; 4], usize)> = None;
                for s in 0..self.h {
                    if self.valid[idx * self.words + s / 64] & (1 << (s % 64)) == 0 {
                        continue;
                    }
                    let key = victim_key(
                        cap.spec.policy,
                        EntryMeta {
                            last_used: cap.last_used[base + s],
                            use_count: cap.use_count[base + s],
                            stamp: self.stamps[base + s],
                        },
                        answer.timestamp,
                        cap.spec.window,
                        self.slot_items[base + s],
                    );
                    if victim.is_none_or(|(best, _)| key < best) {
                        victim = Some((key, s));
                    }
                }
                let (_, vslot) = victim.expect("cache over capacity cannot be empty");
                self.valid[idx * self.words + vslot / 64] &= !(1 << (vslot % 64));
                self.cached[idx] -= 1;
                cap.ghost[base + vslot] = 1;
                cap.ghost_stamps[base + vslot] = self.stamps[base + vslot];
                self.stats[idx].evictions += 1;
            }
        }
        let mut sig = self.sig.as_mut().map(SigColumns::chunk);
        self.rule
            .on_fetch(sig.as_mut().map(|s| s.track(idx)), answer.item);
    }

    /// Records a listened-for-but-missed report (fault injection).
    pub(crate) fn miss_report(&mut self, idx: usize) {
        assert!(
            self.awake[idx],
            "a sleeping unit was not listening for the report"
        );
        self.stats[idx].reports_missed += 1;
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending — the iteration order of the
    /// boxed-unit safety check.
    pub(crate) fn for_each_cached_entry<F: FnMut(ItemId, u64, SimTime)>(&self, mut f: F) {
        for idx in 0..self.n {
            let base = idx * self.h;
            for slot in 0..self.h {
                if self.valid[idx * self.words + slot / 64] & (1 << (slot % 64)) != 0 {
                    f(
                        self.slot_items[base + slot],
                        self.values[base + slot],
                        self.stamps[base + slot],
                    );
                }
            }
        }
    }

    /// The whole-fleet report sweep: every listening client (the
    /// `heard` awake-slots, client indices `awake[slot]` ascending)
    /// probes the broadcast's shared digest over its own slot block and
    /// answers its pending queries.
    /// Pure per-client work — no randomness, no shared mutation — so
    /// when `threads > 1` and the listening set is large enough the
    /// columns are split at client boundaries into contiguous chunks
    /// and swept by scoped workers; results are returned in ascending
    /// order either way, bit-identical at any worker count.
    pub(crate) fn sweep(
        &mut self,
        heard: &[usize],
        awake: &[usize],
        digest: &ReportDigest<'_>,
        observing: bool,
        threads: usize,
        par_min: usize,
    ) -> Vec<super::simulation::SweepItem> {
        let rule = &self.rule;
        let h = self.h;
        let words = self.words;
        if threads > 1 && heard.len() >= par_min {
            let workers = threads.min(heard.len());
            let chunk_len = heard.len().div_ceil(workers);
            let mut out = Vec::with_capacity(heard.len());
            // Progressively split every mutable column at the chunk's
            // last client index; read-only columns are shared whole.
            let slot_items = &self.slot_items;
            let awake_flags = &self.awake;
            let mut valid = &mut self.valid[..];
            let mut stamps = &mut self.stamps[..];
            let mut cached = &mut self.cached[..];
            let mut t_l = &mut self.t_l[..];
            let mut pending_mask = &mut self.pending_mask[..];
            let mut posed_at = &mut self.posed_at[..];
            let mut stats = &mut self.stats[..];
            let mut sig_cols = self.sig.as_mut().map(|s| {
                (
                    s.m,
                    &mut s.tracked[..],
                    &mut s.tracked_count[..],
                    &mut s.last_report[..],
                    &mut s.last_unmatched[..],
                )
            });
            let mut cap_cols = self.cap.as_mut().map(|c| {
                (
                    &mut c.last_used[..],
                    &mut c.use_count[..],
                    &mut c.ghost[..],
                    &mut c.ghost_stamps[..],
                    &mut c.clock[..],
                )
            });
            let mut base = 0usize;
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for chunk in heard.chunks(chunk_len) {
                    let last_idx = awake[*chunk.last().expect("chunks are non-empty")];
                    let take = last_idx + 1 - base;
                    let (valid_c, valid_r) = valid.split_at_mut(take * words);
                    valid = valid_r;
                    let (stamps_c, stamps_r) = stamps.split_at_mut(take * h);
                    stamps = stamps_r;
                    let (cached_c, cached_r) = cached.split_at_mut(take);
                    cached = cached_r;
                    let (t_l_c, t_l_r) = t_l.split_at_mut(take);
                    t_l = t_l_r;
                    let (mask_c, mask_r) = pending_mask.split_at_mut(take * words);
                    pending_mask = mask_r;
                    let (posed_c, posed_r) = posed_at.split_at_mut(take);
                    posed_at = posed_r;
                    let (stats_c, stats_r) = stats.split_at_mut(take);
                    stats = stats_r;
                    let sig_chunk = match &mut sig_cols {
                        Some((m, tracked, count, last, unmatched)) => {
                            let m = *m;
                            let (tr_c, tr_r) = std::mem::take(tracked).split_at_mut(take * m);
                            *tracked = tr_r;
                            let (ct_c, ct_r) = std::mem::take(count).split_at_mut(take);
                            *count = ct_r;
                            let (lr_c, lr_r) = std::mem::take(last).split_at_mut(take);
                            *last = lr_r;
                            let (um_c, um_r) = std::mem::take(unmatched).split_at_mut(take);
                            *unmatched = um_r;
                            Some(SigChunk {
                                m,
                                tracked: tr_c,
                                tracked_count: ct_c,
                                last_report: lr_c,
                                last_unmatched: um_c,
                            })
                        }
                        None => None,
                    };
                    let cap_chunk = match &mut cap_cols {
                        Some((last_used, use_count, ghost, ghost_stamps, clock)) => {
                            let (lu_c, lu_r) = std::mem::take(last_used).split_at_mut(take * h);
                            *last_used = lu_r;
                            let (uc_c, uc_r) = std::mem::take(use_count).split_at_mut(take * h);
                            *use_count = uc_r;
                            let (gh_c, gh_r) = std::mem::take(ghost).split_at_mut(take * h);
                            *ghost = gh_r;
                            let (gs_c, gs_r) =
                                std::mem::take(ghost_stamps).split_at_mut(take * h);
                            *ghost_stamps = gs_r;
                            let (ck_c, ck_r) = std::mem::take(clock).split_at_mut(take);
                            *clock = ck_r;
                            Some(CapChunk {
                                last_used: lu_c,
                                use_count: uc_c,
                                ghost: gh_c,
                                ghost_stamps: gs_c,
                                clock: ck_c,
                            })
                        }
                        None => None,
                    };
                    let mut view = ChunkView {
                        base,
                        h,
                        words,
                        slot_items,
                        awake: awake_flags,
                        valid: valid_c,
                        stamps: stamps_c,
                        cached: cached_c,
                        t_l: t_l_c,
                        pending_mask: mask_c,
                        posed_at: posed_c,
                        stats: stats_c,
                        sig: sig_chunk,
                        cap: cap_chunk,
                    };
                    base = last_idx + 1;
                    handles.push(scope.spawn(move || {
                        let mut items = Vec::with_capacity(chunk.len());
                        for &slot in chunk {
                            let idx = awake[slot];
                            items.push(sweep_client(
                                &mut view, rule, digest, idx, slot, observing,
                            ));
                        }
                        items
                    }));
                }
                for handle in handles {
                    out.extend(handle.join().expect("columnar sweep worker panicked"));
                }
            });
            out
        } else {
            let mut view = ChunkView {
                base: 0,
                h,
                words,
                slot_items: &self.slot_items,
                awake: &self.awake,
                valid: &mut self.valid,
                stamps: &mut self.stamps,
                cached: &mut self.cached,
                t_l: &mut self.t_l,
                pending_mask: &mut self.pending_mask,
                posed_at: &mut self.posed_at,
                stats: &mut self.stats,
                sig: self.sig.as_mut().map(SigColumns::chunk),
                cap: self.cap.as_mut().map(|c| CapChunk {
                    last_used: &mut c.last_used,
                    use_count: &mut c.use_count,
                    ghost: &mut c.ghost,
                    ghost_stamps: &mut c.ghost_stamps,
                    clock: &mut c.clock,
                }),
            };
            heard
                .iter()
                .map(|&slot| {
                    let idx = awake[slot];
                    sweep_client(&mut view, rule, digest, idx, slot, observing)
                })
                .collect()
        }
    }
}

/// SIG columns of one contiguous client chunk.
struct SigChunk<'a> {
    m: usize,
    tracked: &'a mut [Option<CombinedSignature>],
    tracked_count: &'a mut [usize],
    last_report: &'a mut [Arc<Vec<CombinedSignature>>],
    last_unmatched: &'a mut [u32],
}

impl SigChunk<'_> {
    /// The tracking state of the chunk's `local`-th client.
    fn track(&mut self, local: usize) -> SigTrack<'_> {
        SigTrack {
            tracked: &mut self.tracked[local * self.m..(local + 1) * self.m],
            count: &mut self.tracked_count[local],
            last_report: &mut self.last_report[local],
            last_unmatched: &mut self.last_unmatched[local],
        }
    }
}

/// A contiguous client range of the fleet's columns, local indices
/// rebased by `base`. One chunk per sweep worker; chunks never alias.
struct ChunkView<'a> {
    base: usize,
    h: usize,
    words: usize,
    slot_items: &'a [ItemId],
    awake: &'a [bool],
    valid: &'a mut [u64],
    stamps: &'a mut [SimTime],
    cached: &'a mut [u32],
    t_l: &'a mut [Option<SimTime>],
    pending_mask: &'a mut [u64],
    posed_at: &'a mut [Vec<SimTime>],
    stats: &'a mut [MuStats],
    sig: Option<SigChunk<'a>>,
    cap: Option<CapChunk<'a>>,
}

/// One client's block of the cache columns: the fleet's [`CacheSlots`].
/// Slot order is ascending item id, so every walk is ascending.
struct SlotBlock<'a> {
    /// Slot → item: the client's hotspot, ascending.
    items: &'a [ItemId],
    /// The client's validity words.
    valid: &'a mut [u64],
    stamps: &'a mut [SimTime],
    cached: &'a mut u32,
    /// Ghost state and eviction stamp per slot (bounded fleets only).
    ghosts: Option<(&'a mut [u8], &'a [SimTime])>,
}

impl CacheSlots for SlotBlock<'_> {
    fn len(&self) -> usize {
        *self.cached as usize
    }

    fn clear(&mut self) {
        self.valid.fill(0);
        *self.cached = 0;
        if let Some((ghost, _)) = &mut self.ghosts {
            ghost.fill(0);
        }
    }

    fn sweep(
        &mut self,
        t_i: SimTime,
        mut stale: impl FnMut(ItemId, SimTime) -> bool,
    ) -> Vec<ItemId> {
        let mut invalidated = Vec::new();
        for (w, word) in self.valid.iter_mut().enumerate() {
            for slot in set_bits(*word, w * 64) {
                let item = self.items[slot];
                let stamp = &mut self.stamps[slot];
                if stale(item, *stamp) {
                    *word &= !(1 << (slot % 64));
                    *self.cached -= 1;
                    invalidated.push(item);
                } else {
                    *stamp = t_i;
                }
            }
        }
        invalidated
    }

    fn retire_ghosts(&mut self, mut proven_stale: impl FnMut(ItemId, SimTime) -> bool) {
        let Some((ghost, ghost_stamps)) = &mut self.ghosts else {
            return;
        };
        for (slot, state) in ghost.iter_mut().enumerate() {
            if *state == 1 && proven_stale(self.items[slot], ghost_stamps[slot]) {
                *state = 2;
            }
        }
    }

    fn sorted_items(&self) -> Vec<ItemId> {
        let mut out = Vec::with_capacity(*self.cached as usize);
        for (w, &word) in self.valid.iter().enumerate() {
            out.extend(set_bits(word, w * 64).map(|slot| self.items[slot]));
        }
        out
    }
}

/// One client's share of the report sweep — what
/// `MobileUnit::hear_report_and_answer` does for a boxed unit: apply
/// the rule, then latency accounting, hit/miss events, deduplicated
/// uplink requests. `idx` is the global client index, `local = idx -
/// view.base` its position inside the chunk.
fn sweep_client(
    view: &mut ChunkView<'_>,
    rule: &ReportRule,
    digest: &ReportDigest<'_>,
    idx: usize,
    awake_slot: usize,
    observing: bool,
) -> super::simulation::SweepItem {
    assert!(view.awake[idx], "a sleeping unit cannot hear a report");
    let local = idx - view.base;
    let pre = if observing {
        Some((view.stats[local], view.t_l[local]))
    } else {
        None
    };
    let (h, words) = (view.h, view.words);
    let mut block = SlotBlock {
        // slot_items is the full shared column, indexed by the global
        // client index; every other column is the chunk's.
        items: &view.slot_items[idx * h..(idx + 1) * h],
        valid: &mut view.valid[local * words..(local + 1) * words],
        stamps: &mut view.stamps[local * h..(local + 1) * h],
        cached: &mut view.cached[local],
        ghosts: view.cap.as_mut().map(|cap| {
            (
                &mut cap.ghost[local * h..(local + 1) * h],
                &cap.ghost_stamps[local * h..(local + 1) * h],
            )
        }),
    };
    let sig = view.sig.as_mut().map(|s| s.track(local));
    let outcome = rule.apply(&mut block, sig, digest, view.t_l[local]);
    let t_i = outcome.report_time;
    let stats = &mut view.stats[local];
    for &posed_at in &view.posed_at[local] {
        let lat = t_i.saturating_duration_since(posed_at).as_secs();
        stats.latency_sum_secs += lat;
        if lat > stats.latency_max_secs {
            stats.latency_max_secs = lat;
        }
    }
    view.posed_at[local].clear();
    view.t_l[local] = Some(t_i);
    if outcome.dropped_all {
        stats.cache_drops += 1;
    }
    stats.items_invalidated += outcome.invalidated.len() as u64;
    // Answer Q_i: one event per distinct pending item. The pending mask
    // is that set already — one bit per queried slot, and ascending
    // bits are ascending item ids.
    let mut uplink = Vec::new();
    for w in 0..view.words {
        let word = local * view.words + w;
        for slot in set_bits(std::mem::take(&mut view.pending_mask[word]), w * 64) {
            let hit = view.valid[word] & (1 << (slot % 64)) != 0;
            let at = local * view.h + slot;
            // Mirror `Cache::get`: the access clock ticks on every
            // read, hit or miss; a hit also bumps recency and the LFU
            // count.
            if let Some(cap) = &mut view.cap {
                cap.clock[local] += 1;
                if hit {
                    cap.last_used[at] = cap.clock[local];
                    cap.use_count[at] += 1;
                }
            }
            if hit {
                stats.hit_events += 1;
                continue;
            }
            stats.miss_events += 1;
            // `Cache::take_ghost`: classify the requery of an evicted
            // copy — fresh ghost ⇒ the capacity bound caused this miss.
            if let Some(cap) = &mut view.cap {
                match std::mem::take(&mut cap.ghost[at]) {
                    1 => {
                        stats.capacity_misses += 1;
                        stats.evicted_then_requeried += 1;
                    }
                    2 => stats.evicted_then_requeried += 1,
                    _ => {}
                }
            }
            // Piggyback histories are ineligible for the columnar
            // fleet, so the uplink request never carries one.
            uplink.push((view.slot_items[idx * view.h + slot], None));
        }
    }
    super::simulation::SweepItem {
        slot: awake_slot,
        pre,
        migrated_pre_len: None,
        outcome: IntervalReport {
            awake: true,
            outcome: Some(outcome),
            uplink_requests: uplink,
        },
    }
}

#[cfg(test)]
mod tests;
