//! One unit's interval bookkeeping, written once for every client store.
//!
//! Figure 2 (§2) fixes what a unit does each interval: queries posed in
//! `(T_{i−1}, T_i]` wait for the report at `T_i`, hearing it moves `T_l`
//! to `T_i`, and a sleeper hears nothing. [`UnitState`] holds what that
//! takes beside the cache — the stats, `T_l`, the awake flag, the pose
//! times of the waiting queries, the query and sleep processes — and its
//! methods are the only text of each step. The boxed
//! [`MobileUnit`](crate::MobileUnit) holds one; the columnar fleet in
//! `sleepers` holds one per client in a vector beside its slot columns.
//! The stores differ only in where the cache and the pending set live,
//! so they hand each step the part that lives with them: a pose sink,
//! a rule's outcome, a hit, a miss with its [`GhostFate`].

use sw_sim::{BernoulliIntervalProcess, PoissonProcess, RngStream, SimTime};

use crate::cache::GhostFate;
use crate::mu::MuStats;

/// A unit's per-interval state. See the module docs.
#[derive(Debug, Clone)]
pub struct UnitState {
    stats: MuStats,
    t_l: Option<SimTime>,
    awake: bool,
    /// When each query waiting for the next report was posed.
    posed_at: Vec<SimTime>,
    queries: PoissonProcess,
    sleep: BernoulliIntervalProcess,
}

impl UnitState {
    /// An awake unit that has heard no report, posing queries at
    /// `query_rate` (λ · hotspot size) and sleeping with per-interval
    /// probability `sleep_probability`. Draws the query process's first
    /// arrival from `query_rng`: one exponential.
    pub fn new(query_rate: f64, sleep_probability: f64, query_rng: &mut RngStream) -> Self {
        UnitState {
            stats: MuStats::default(),
            t_l: None,
            awake: true,
            posed_at: Vec::new(),
            sleep: BernoulliIntervalProcess::new(sleep_probability),
            queries: PoissonProcess::new(query_rate, query_rng),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MuStats {
        self.stats
    }

    /// Zeroes the statistics; `T_l`, the processes and the waiting
    /// queries are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = MuStats::default();
    }

    /// Time the unit last heard a report (`T_l`).
    pub fn last_report_heard(&self) -> Option<SimTime> {
        self.t_l
    }

    /// Whether the unit is awake in the current interval.
    pub fn is_awake(&self) -> bool {
        self.awake
    }

    /// Wakes the unit for interval `(from, to]` and poses its queries:
    /// the arrival times come from `query_rng`, and each arrival's index
    /// into the `draws`-item hotspot from `pick` when it is `Some` (a
    /// Zipf draw on the caller's stream, which leaves the uniform draw
    /// on `query_rng` unconsumed), else uniformly from `query_rng`.
    /// Each index is handed to `posed`, which queues the query where the
    /// store keeps its pending set.
    pub fn pose<P: FnMut() -> usize>(
        &mut self,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        draws: usize,
        mut pick: Option<P>,
        mut posed: impl FnMut(usize),
    ) {
        self.awake = true;
        self.stats.intervals_awake += 1;
        let before = self.posed_at.len();
        self.queries
            .arrivals_in(from, to, query_rng, &mut self.posed_at);
        for _ in before..self.posed_at.len() {
            posed(match &mut pick {
                Some(pick) => pick(),
                None => query_rng.uniform_index(draws as u64) as usize,
            });
            self.stats.queries_posed += 1;
        }
    }

    /// The `T_l` the report closing the interval is applied against.
    ///
    /// # Panics
    /// Panics if the unit is asleep: a sleeper hears nothing.
    #[inline]
    pub fn hearing(&self) -> Option<SimTime> {
        assert!(self.awake, "a sleeping unit cannot hear a report");
        self.t_l
    }

    /// Settles the heard report at `t_i`, after the rule applied it:
    /// every waiting query is answered now (latency sum and max),
    /// `T_l := T_i`, and the rule's whole-cache drop and `invalidated`
    /// item count are recorded.
    #[inline]
    pub fn settle(&mut self, t_i: SimTime, dropped_all: bool, invalidated: usize) {
        for &posed_at in &self.posed_at {
            let lat = t_i.saturating_duration_since(posed_at).as_secs();
            self.stats.latency_sum_secs += lat;
            if lat > self.stats.latency_max_secs {
                self.stats.latency_max_secs = lat;
            }
        }
        self.posed_at.clear();
        self.t_l = Some(t_i);
        if dropped_all {
            self.note_cache_drop();
        }
        self.stats.items_invalidated += invalidated as u64;
    }

    /// One query event answered from the cache.
    pub fn hit(&mut self) {
        self.stats.hit_events += 1;
    }

    /// One query event that goes uplink; `ghost` is what the store knew
    /// of an evicted copy of the item (a fresh ghost means the capacity
    /// bound caused the miss).
    pub fn miss(&mut self, ghost: Option<GhostFate>) {
        self.stats.miss_events += 1;
        match ghost {
            Some(GhostFate::Fresh) => {
                self.stats.capacity_misses += 1;
                self.stats.evicted_then_requeried += 1;
            }
            Some(GhostFate::Stale) => self.stats.evicted_then_requeried += 1,
            None => {}
        }
    }

    /// Records that the awake unit listened for the interval-closing
    /// report but never received it intact (lost, corrupted, or missed
    /// through clock drift).
    ///
    /// Crucially, `T_l` does *not* advance and the waiting queries are
    /// *not* answered: to this unit the interval looks exactly like a
    /// nap, so the next intact report triggers the strategy's ordinary
    /// gap recovery (AT drops the cache after any missed report, TS
    /// drops iff the silent span exceeds the window `w`, SIG proceeds
    /// modulo collisions). The waiting queries wait for that next
    /// report, accruing latency — the §2 latency guarantee is exactly
    /// what a lossy channel breaks.
    ///
    /// # Panics
    /// Panics if the unit is asleep: it was not listening.
    #[inline]
    pub fn miss_report(&mut self) {
        assert!(
            self.awake,
            "a sleeping unit was not listening for the report"
        );
        self.stats.reports_missed += 1;
    }

    /// `n` entries evicted to make room for an install.
    pub fn note_evictions(&mut self, n: u64) {
        self.stats.evictions += n;
    }

    /// One whole-cache drop.
    pub fn note_cache_drop(&mut self) {
        self.stats.cache_drops += 1;
    }

    /// Draws a whole sleep run from the unit's sleep process (see
    /// [`BernoulliIntervalProcess::draw_sleep_run`]): the number of
    /// asleep intervals before the next awake one.
    #[inline]
    pub fn draw_sleep_run(&self, rng: &mut RngStream) -> u64 {
        self.sleep.draw_sleep_run(rng)
    }

    /// Marks the unit asleep; its asleep intervals are credited when it
    /// wakes ([`Self::credit_asleep_intervals`]).
    pub fn enter_sleep(&mut self) {
        self.awake = false;
    }

    /// Credits `k` intervals spent asleep.
    pub fn credit_asleep_intervals(&mut self, k: u64) {
        self.stats.intervals_asleep += k;
    }
}
