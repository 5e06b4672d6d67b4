//! One unit's interval bookkeeping, written once for every client store.
//!
//! Figure 2 (§2) fixes what a unit does each interval: queries posed in
//! `(T_{i−1}, T_i]` wait for the report at `T_i`, hearing it moves `T_l`
//! to `T_i`, and a sleeper hears nothing. [`UnitState`] holds what that
//! takes beside the cache — the stats, `T_l`, the awake flag, the
//! waiting queries' count and latency sums, the query count law and the
//! sleep process — and its methods are the only text of each step. It
//! is plain data, no heap buffer, so a fleet of them is one flat
//! vector. The boxed [`MobileUnit`](crate::MobileUnit) holds one; the
//! columnar fleet in `sleepers` holds one per client in a vector beside
//! its slot columns. The stores differ only in where the cache and the
//! pending set live, so they hand each step the part that lives with
//! them: a pose sink, a rule's outcome, a hit, a miss with its
//! [`GhostFate`].
//!
//! Queries are drawn by their law, not arrival by arrival (§4): a
//! window's count is Poisson, and given the count the pose times are
//! iid uniform over the window. A report answers every waiting query at
//! once, so the pose times are only ever read as a latency sum and max,
//! and that is all the unit keeps of them.

use sw_sim::{BernoulliIntervalProcess, PoissonCount, RngStream, SimTime};

use crate::cache::GhostFate;
use crate::mu::MuStats;

/// A unit's per-interval state. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct UnitState {
    stats: MuStats,
    t_l: Option<SimTime>,
    awake: bool,
    queries: PoissonCount,
    sleep: BernoulliIntervalProcess,
    /// Queries waiting for the next report.
    waiting: u64,
    /// The end of the last window that posed a query: `lag_sum` and
    /// `oldest_lag` are measured back from it, in seconds, so a wait is
    /// summed from small numbers rather than as a difference of large
    /// times.
    anchor: SimTime,
    lag_sum: f64,
    oldest_lag: f64,
}

// No per-client heap buffer: a unit's state is plain data.
const _: () = {
    const fn plain<T: Copy>() {}
    plain::<UnitState>()
};

impl UnitState {
    /// An awake unit that has heard no report, posing queries at
    /// `query_rate` (λ · hotspot size) and sleeping with per-interval
    /// probability `sleep_probability`. Draws nothing: each window's
    /// queries are drawn when [`pose`](Self::pose) opens it.
    pub fn new(query_rate: f64, sleep_probability: f64) -> Self {
        UnitState {
            stats: MuStats::default(),
            t_l: None,
            awake: true,
            queries: PoissonCount::new(query_rate),
            sleep: BernoulliIntervalProcess::new(sleep_probability),
            waiting: 0,
            anchor: SimTime::ZERO,
            lag_sum: 0.0,
            oldest_lag: 0.0,
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

    /// Wakes the unit for interval `(from, to]` and poses its queries.
    ///
    /// The draws, in order: the query count `N ~ Poisson(rate · (to −
    /// from))`, one uniform from `query_rng` (one per 500 of mean);
    /// then, per query, its pose time, one uniform over `(from, to]`
    /// from `query_rng`, and its index into the `draws`-item hotspot —
    /// from `pick` when it is `Some` (a Zipf draw on the caller's
    /// stream, which leaves `query_rng` alone), else `uniform_index` on
    /// `query_rng`. Each index is handed to `posed`, which queues the
    /// query where the store keeps its pending set. A window's draws do
    /// not depend on what came before it, so a wake after any sleep
    /// costs what a contiguous window costs.
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
        let len = to.duration_since(from);
        let n = self.queries.draw(len, query_rng);
        if n == 0 {
            return;
        }
        if self.waiting > 0 {
            // Queries still waiting from a missed report: re-measure
            // their lags from this window's end.
            let carry = to.saturating_duration_since(self.anchor).as_secs();
            self.lag_sum += self.waiting as f64 * carry;
            self.oldest_lag += carry;
        }
        self.anchor = to;
        for _ in 0..n {
            // Pose time `to − lag` ∈ (from, to].
            let lag = query_rng.uniform() * len.as_secs();
            self.lag_sum += lag;
            self.oldest_lag = self.oldest_lag.max(lag);
            posed(match &mut pick {
                Some(pick) => pick(),
                None => query_rng.uniform_index(draws as u64) as usize,
            });
        }
        self.waiting += n;
        self.stats.queries_posed += n;
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
        if self.waiting > 0 {
            let late = t_i.saturating_duration_since(self.anchor).as_secs();
            self.stats.latency_sum_secs += self.lag_sum + self.waiting as f64 * late;
            self.stats.latency_max_secs = self.stats.latency_max_secs.max(self.oldest_lag + late);
            self.waiting = 0;
            self.lag_sum = 0.0;
            self.oldest_lag = 0.0;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{poisson_inverse_cdf, MasterSeed, StreamId};

    const RATE: f64 = 2.0;
    const L: f64 = 10.0;
    const H: usize = 7;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Poses `(from, from + L]` with uniform picks, returning the picks.
    fn pose(unit: &mut UnitState, from: f64, rng: &mut RngStream) -> Vec<usize> {
        let mut picks = Vec::new();
        let no_zipf: Option<fn() -> usize> = None;
        unit.pose(t(from), t(from + L), rng, H, no_zipf, |j| picks.push(j));
        picks
    }

    /// Replays one window's draws on `rng`: the count, then a lag and a
    /// pick per query. Returns the picks and the lags.
    fn replay(rng: &mut RngStream) -> (Vec<usize>, Vec<f64>) {
        let m = RATE * L;
        let n = poisson_inverse_cdf(m, (-m).exp(), rng.uniform());
        (0..n)
            .map(|_| {
                let lag = rng.uniform() * L;
                (rng.uniform_index(H as u64) as usize, lag)
            })
            .unzip()
    }

    #[test]
    fn a_wake_after_a_long_sleep_draws_what_a_contiguous_window_does() {
        let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 0 });
        let mut unit = UnitState::new(RATE, 0.5);
        pose(&mut unit, 0.0, &mut rng);
        unit.settle(t(L), false, 0);
        let before = unit.stats();
        // 10⁴ s asleep: the skipped stretch would hold ~2·10⁴ arrivals.
        let from = 10_000.0;
        let mut expected = rng.clone();
        let picks = pose(&mut unit, from, &mut rng);
        let (want, lags) = replay(&mut expected);
        assert!(
            !picks.is_empty(),
            "the window needs queries to mean anything"
        );
        assert_eq!(
            picks, want,
            "one count, then a pose time and a pick per query"
        );
        assert_eq!(rng.next_u64(), expected.next_u64(), "and no draw more");
        unit.settle(t(from + L), false, 0);
        let stats = unit.stats();
        assert_eq!(
            stats.queries_posed - before.queries_posed,
            lags.len() as u64
        );
        let sum = stats.latency_sum_secs - before.latency_sum_secs;
        assert!(
            (sum - lags.iter().sum::<f64>()).abs() < 1e-9,
            "latency sum {sum}"
        );
        let oldest = lags.iter().copied().fold(0.0, f64::max);
        assert_eq!(stats.latency_max_secs, before.latency_max_secs.max(oldest));
    }

    #[test]
    fn queries_wait_across_a_missed_report() {
        let mut rng = MasterSeed::TEST.stream(StreamId::Queries { index: 1 });
        let mut expected = rng.clone();
        let mut unit = UnitState::new(RATE, 0.0);
        pose(&mut unit, 0.0, &mut rng);
        unit.miss_report();
        pose(&mut unit, L, &mut rng);
        unit.settle(t(2.0 * L), false, 0);
        // The first window's queries waited a whole interval more.
        let (_, first) = replay(&mut expected);
        let (_, second) = replay(&mut expected);
        let waits: Vec<f64> = first.iter().map(|lag| lag + L).chain(second).collect();
        let stats = unit.stats();
        assert_eq!(stats.queries_posed, waits.len() as u64);
        let sum: f64 = waits.iter().sum();
        assert!((stats.latency_sum_secs - sum).abs() < 1e-9);
        let oldest = waits.iter().copied().fold(0.0, f64::max);
        assert!((stats.latency_max_secs - oldest).abs() < 1e-9);
        assert!(stats.latency_max_secs > L && stats.latency_max_secs <= 2.0 * L);
        // Settled: the next report answers nothing.
        unit.settle(t(3.0 * L), false, 0);
        assert_eq!(unit.stats().latency_sum_secs, stats.latency_sum_secs);
    }
}
