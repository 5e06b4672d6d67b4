//! # sw-query — query-result caching and transactional reads over the
//! invalidation stream
//!
//! The paper's clients cache single items; this crate layers a
//! *query-result* cache on top of `sw-client`'s item cache, invalidated
//! by the very same §3–§6 reports:
//!
//! * [`QueryCache`] holds predicate entries — item-id footprints plus an
//!   optional value predicate over the hot-spot domain (Example 1's
//!   stock filter) — each entry carrying the materialized result rows
//!   and the report timestamp that last verified it;
//! * [`QueryPlane`] drives one client's query workload (Zipf template
//!   draws from `sw-workload`, seeded by
//!   `StreamId::QueryPlan { index }`): every heard report runs a
//!   single-pass footprint check that drops or re-verifies each entry
//!   against the *item* cache the owning strategy just processed, so
//!   TS/AT query results inherit the never-stale guarantee and SIG
//!   inherits its diagnosis bound — the plane never re-implements any
//!   gap/window/signature rule;
//! * [`ReadTxn`] adds multi-item transactional reads: a transaction pins
//!   one template footprint per heard report and commits at its last
//!   read iff every earlier pin is still current under that report's
//!   clock (the report timestamps double as the consistency witness,
//!   per Eyal et al.'s *Cache Serializability*), aborting otherwise —
//!   a detected non-serializable interleaving.
//!
//! The plane is deliberately split into an RNG-free *check* half
//! ([`QueryPlane::observe_report`], safe inside the parallel client
//! sweep) and a *settle* half ([`QueryPlane::settle`], run after the
//! driver served the requested uplink fetches), mirroring the cell
//! driver's sweep/merge phase split so runs stay byte-identical across
//! `SW_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sw_client::Cache;
use sw_server::ItemId;
use sw_sim::{counters, RngStream, SimTime};
use sw_workload::{QueryWorkload, QueryWorkloadSpec};

/// A value predicate applied to an entry's footprint rows — the "stock
/// filter" shape of Example 1: the result is the subset of footprint
/// items whose current value satisfies the predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPredicate {
    /// Every footprint item is part of the result (pure id-set query).
    Any,
    /// Only items whose value is strictly below the threshold (item
    /// values are uniform `u64`s, so `Below(u64::MAX / 2)` selects
    /// about half the footprint).
    Below(u64),
}

impl QueryPredicate {
    /// Whether a row with `value` satisfies the predicate.
    #[inline]
    pub fn matches(&self, value: u64) -> bool {
        match self {
            QueryPredicate::Any => true,
            QueryPredicate::Below(t) => value < *t,
        }
    }
}

/// One materialized footprint row: the item, the value the result was
/// computed from, and the validity timestamp the item cache carried
/// when this row was last verified (the audit anchor, exactly like the
/// item-cache safety sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultRow {
    /// The footprint item.
    pub item: ItemId,
    /// The value the result was materialized from.
    pub value: u64,
    /// Item-cache validity timestamp at materialization/re-verification.
    pub timestamp: SimTime,
}

/// One cached query result.
#[derive(Debug, Clone)]
pub struct QueryEntry {
    /// Template rank within the client's workload family.
    pub rank: usize,
    /// The value predicate the result view applies.
    pub predicate: QueryPredicate,
    /// Materialized footprint rows (all footprint items, matching or
    /// not — a non-matching item changing value can *join* the result,
    /// so the whole footprint is the invalidation unit).
    pub rows: Vec<ResultRow>,
    /// Report timestamp that last verified this entry.
    pub verified_at: SimTime,
}

impl QueryEntry {
    /// The result view: footprint rows satisfying the predicate.
    pub fn result(&self) -> impl Iterator<Item = &ResultRow> {
        self.rows.iter().filter(|r| self.predicate.matches(r.value))
    }
}

/// The per-client query-result cache: template rank → entry.
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    entries: Vec<Option<QueryEntry>>,
}

impl QueryCache {
    fn sized(n: usize) -> Self {
        QueryCache {
            entries: (0..n).map(|_| None).collect(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry for template `rank`, if cached.
    pub fn get(&self, rank: usize) -> Option<&QueryEntry> {
        self.entries.get(rank).and_then(|e| e.as_ref())
    }

    /// Iterates over live entries (ascending rank — deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &QueryEntry> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }
}

/// Configuration of one client's query plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlaneConfig {
    /// Distinct query templates per client.
    pub templates: usize,
    /// Footprint items per template (clipped to the hotspot size).
    pub footprint: usize,
    /// Zipf exponent of template popularity (0 = uniform).
    pub theta: f64,
    /// Probability that one predicate query fires in an awake interval
    /// (drawn `max_queries_per_interval` times, so the per-interval
    /// event count is Binomial(n, p) — all from the plane's own
    /// stream).
    pub query_probability: f64,
    /// Bernoulli draws per awake interval (≥ 1).
    pub max_queries_per_interval: u32,
    /// Probability that an awake interval begins a multi-item read
    /// transaction when none is in flight (0 disables transactions).
    pub txn_probability: f64,
    /// Template reads per transaction, one per heard report (≥ 2 for a
    /// cross-report consistency witness).
    pub txn_reads: usize,
    /// Fraction of templates carrying a `Below` value predicate (the
    /// rest are pure id-set queries).
    pub predicate_fraction: f64,
    /// Record committed read sets for post-run audits (tests/soaks; off
    /// in sweeps to bound memory).
    pub record_commits: bool,
}

impl QueryPlaneConfig {
    /// A small default plane: 8 templates of 4 items, Zipf(0.9), about
    /// one query per awake interval, occasional 2-read transactions.
    pub fn new() -> Self {
        QueryPlaneConfig {
            templates: 8,
            footprint: 4,
            theta: 0.9,
            query_probability: 0.35,
            max_queries_per_interval: 3,
            txn_probability: 0.15,
            txn_reads: 2,
            predicate_fraction: 0.5,
            record_commits: false,
        }
    }

    /// Sets the per-interval query intensity.
    pub fn with_query_mix(mut self, probability: f64, max_per_interval: u32) -> Self {
        self.query_probability = probability;
        self.max_queries_per_interval = max_per_interval;
        self
    }

    /// Sets the transaction arrival probability.
    pub fn with_txn_probability(mut self, probability: f64) -> Self {
        self.txn_probability = probability;
        self
    }

    /// Enables commit-set recording for audits.
    pub fn with_commit_recording(mut self) -> Self {
        self.record_commits = true;
        self
    }

    /// Checks the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.templates == 0 {
            return Err("query plane needs at least one template".into());
        }
        if self.footprint == 0 {
            return Err("query footprints cannot be empty".into());
        }
        if self.max_queries_per_interval == 0 {
            return Err("max_queries_per_interval must be ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.query_probability)
            || !(0.0..=1.0).contains(&self.txn_probability)
            || !(0.0..=1.0).contains(&self.predicate_fraction)
        {
            return Err("query plane probabilities must be in [0, 1]".into());
        }
        if self.txn_probability > 0.0 && self.txn_reads < 2 {
            return Err("transactions need ≥ 2 reads to witness consistency".into());
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err("Zipf exponent must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        QueryPlaneConfig::new()
    }
}

/// A multi-item read transaction in flight: one template footprint
/// pinned per heard report; commits at the last read iff every pin is
/// still current under that report's clock.
#[derive(Debug, Clone)]
pub struct ReadTxn {
    /// Template ranks to read, one per heard report.
    pub ranks: Vec<usize>,
    /// Reads already pinned.
    pub reads_done: usize,
    /// Pinned rows from completed reads.
    pub pins: Vec<ResultRow>,
}

/// A committed multi-item read set (recorded when
/// [`QueryPlaneConfig::record_commits`] is on).
#[derive(Debug, Clone)]
pub struct CommittedRead {
    /// The report clock the commit was witnessed under.
    pub committed_at: SimTime,
    /// The pinned rows, coherent as of `committed_at`.
    pub pins: Vec<ResultRow>,
}

counters! {
    /// Counters the experiments and decision logs read out, each under
    /// the name it bears on a trace and a `/metrics` page.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct QueryStats {
        /// Predicate queries drawn.
        pub queries_posed as "query_posed",
        /// Query events answered from a verified entry.
        pub hits as "query_hits",
        /// Query events that materialized (or re-materialized) an entry.
        pub misses as "query_misses",
        /// Entries dropped by the footprint check.
        pub entries_invalidated as "query_invalidated",
        /// Entries re-verified by the footprint check.
        pub entries_reverified as "query_reverified",
        /// Footprint items requested over the uplink.
        pub fetch_items as "query_fetch_items",
        /// Transactions begun.
        pub txns_begun as "query_txns_begun",
        /// Transactions committed (consistent snapshot witnessed).
        pub txn_commits as "query_txn_commits",
        /// Transactions aborted (non-serializable interleaving detected,
        /// or a pin could not be read).
        pub txn_aborts as "query_txn_aborts",
    }
}

impl QueryStats {
    /// Measured query hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let events = self.hits + self.misses;
        if events == 0 {
            0.0
        } else {
            self.hits as f64 / events as f64
        }
    }
}

/// What the footprint check wants from the driver: footprint items to
/// fetch over the existing uplink before [`QueryPlane::settle`] runs.
#[derive(Debug, Clone, Default)]
pub struct QueryCheck {
    /// Items to fetch (sorted, deduplicated; already excludes items the
    /// item cache holds verified under the current report clock).
    pub fetch: Vec<ItemId>,
}

/// One client's query plane: workload, cache, transaction state, and
/// the seeded draw stream.
pub struct QueryPlane {
    config: QueryPlaneConfig,
    workload: QueryWorkload,
    predicates: Vec<QueryPredicate>,
    cache: QueryCache,
    rng: RngStream,
    /// Template ranks queried since the last heard report.
    pending: Vec<usize>,
    /// Ranks whose entries must be materialized at settle.
    to_materialize: Vec<usize>,
    /// Whether the in-flight txn pins its next read at settle.
    txn_read_armed: bool,
    txn: Option<ReadTxn>,
    stats: QueryStats,
    commits: Vec<CommittedRead>,
}

impl std::fmt::Debug for QueryPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlane")
            .field("templates", &self.workload.len())
            .field("entries", &self.cache.len())
            .field("txn_in_flight", &self.txn.is_some())
            .finish_non_exhaustive()
    }
}

impl QueryPlane {
    /// Builds the plane over a client's hotspot `domain`, drawing the
    /// template family and per-template predicates from `rng` (the
    /// client's `StreamId::QueryPlan` stream).
    ///
    /// # Panics
    /// Panics if the config is invalid or the domain is empty.
    pub fn new(domain: &[ItemId], config: QueryPlaneConfig, mut rng: RngStream) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid query plane config: {e}");
        }
        let spec = QueryWorkloadSpec::new(config.templates, config.footprint, config.theta);
        let workload = QueryWorkload::generate(domain, spec, &mut rng);
        let predicates: Vec<QueryPredicate> = (0..config.templates)
            .map(|_| {
                if rng.bernoulli(config.predicate_fraction) {
                    QueryPredicate::Below(u64::MAX / 2)
                } else {
                    QueryPredicate::Any
                }
            })
            .collect();
        QueryPlane {
            cache: QueryCache::sized(config.templates),
            config,
            workload,
            predicates,
            rng,
            pending: Vec::new(),
            to_materialize: Vec::new(),
            txn_read_armed: false,
            txn: None,
            stats: QueryStats::default(),
            commits: Vec::new(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// The query-result cache (audits and tests).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Committed read sets (only populated with
    /// [`QueryPlaneConfig::record_commits`]).
    pub fn committed_reads(&self) -> &[CommittedRead] {
        &self.commits
    }

    /// The footprint of template `rank` (tests).
    pub fn footprint(&self, rank: usize) -> &[ItemId] {
        self.workload.footprint(rank)
    }

    /// Whether a transaction is in flight (tests).
    pub fn txn_in_flight(&self) -> bool {
        self.txn.is_some()
    }

    /// Zeroes the counters and recorded commits without touching the
    /// cache, workload, or transaction state (warm-up resets).
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
        self.commits.clear();
    }

    /// Starts an awake interval: draws this interval's query events and
    /// possibly begins a transaction. All randomness comes from the
    /// plane's own stream, in a fixed order, so the draw sequence is
    /// identical in the simulator and the live client.
    pub fn begin_awake_interval(&mut self) {
        for _ in 0..self.config.max_queries_per_interval {
            if self.rng.bernoulli(self.config.query_probability) {
                let rank = self.workload.draw(&mut self.rng);
                self.pending.push(rank);
                self.stats.queries_posed += 1;
            }
        }
        if self.txn.is_none()
            && self.config.txn_probability > 0.0
            && self.rng.bernoulli(self.config.txn_probability)
        {
            let ranks: Vec<usize> = (0..self.config.txn_reads)
                .map(|_| self.workload.draw(&mut self.rng))
                .collect();
            self.txn = Some(ReadTxn {
                ranks,
                reads_done: 0,
                pins: Vec::new(),
            });
            self.stats.txns_begun += 1;
        }
    }

    /// Records that the interval-closing report was never received
    /// intact. Pending queries and the in-flight transaction simply
    /// wait for the next heard report; entries keep their last
    /// verification timestamp and the next footprint check inherits
    /// whatever the item strategy's gap recovery does to the cache.
    pub fn on_report_missed(&mut self) {
        // Deliberately stateless: the item cache is the single source
        // of truth, and the strategy handler already encodes the gap
        // rules.
    }

    /// The single-pass footprint check, run against the item cache
    /// *after* the strategy handler processed the report closing at
    /// `t_i`. RNG-free and confined to this client's state, so the cell
    /// driver may run it inside the parallel sweep.
    ///
    /// Every entry either re-verifies (all footprint items cached with
    /// the handler's post-report validity stamp and unchanged values)
    /// or drops. Pending query events resolve to hits (entry survived)
    /// or misses (entry absent — the returned fetch list names the
    /// footprint items the uplink must supply before [`Self::settle`]).
    pub fn observe_report(&mut self, items: &Cache, t_i: SimTime) -> QueryCheck {
        // 1. Footprint check over the whole query cache.
        for slot in self.cache.entries.iter_mut() {
            let Some(entry) = slot else { continue };
            let mut servable = true;
            for row in entry.rows.iter_mut() {
                match items.peek(row.item) {
                    Some(e) if e.value == row.value && e.timestamp >= t_i => {
                        row.timestamp = e.timestamp;
                    }
                    _ => {
                        servable = false;
                        break;
                    }
                }
            }
            if servable {
                entry.verified_at = t_i;
                self.stats.entries_reverified += 1;
            } else {
                *slot = None;
                self.stats.entries_invalidated += 1;
            }
        }

        // 2. Resolve pending query events and collect fetch needs.
        let mut fetch: Vec<ItemId> = Vec::new();
        self.to_materialize.clear();
        for &rank in &self.pending {
            if self.cache.entries[rank].is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                if !self.to_materialize.contains(&rank) {
                    self.to_materialize.push(rank);
                }
                for &item in self.workload.footprint(rank) {
                    if items.peek(item).is_none_or(|e| e.timestamp < t_i) {
                        fetch.push(item);
                    }
                }
            }
        }
        self.pending.clear();

        // 3. Transaction progress: the next read's footprint must be
        // readable at settle.
        self.txn_read_armed = false;
        if let Some(txn) = &self.txn {
            if txn.reads_done < txn.ranks.len() {
                self.txn_read_armed = true;
                for &item in self.workload.footprint(txn.ranks[txn.reads_done]) {
                    if items.peek(item).is_none_or(|e| e.timestamp < t_i) {
                        fetch.push(item);
                    }
                }
            }
        }

        fetch.sort_unstable();
        fetch.dedup();
        self.stats.fetch_items += fetch.len() as u64;
        QueryCheck { fetch }
    }

    /// Settles the interval after the driver served the fetch list:
    /// materializes missed entries from the (now warm) item cache,
    /// pins the transaction's next read, and resolves commit/abort at
    /// the transaction's last read under the `t_i` clock. RNG-free.
    ///
    /// A footprint item the uplink failed to deliver (deferred under
    /// fault backoff) leaves that entry unmaterialized — the query
    /// stays a miss and a later event retries; a transaction read
    /// hitting the same condition aborts conservatively.
    pub fn settle(&mut self, items: &Cache, t_i: SimTime) {
        for &rank in &self.to_materialize {
            let footprint = self.workload.footprint(rank);
            let mut rows = Vec::with_capacity(footprint.len());
            let mut complete = true;
            for &item in footprint {
                match items.peek(item) {
                    Some(e) if e.timestamp >= t_i => rows.push(ResultRow {
                        item,
                        value: e.value,
                        timestamp: e.timestamp,
                    }),
                    _ => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                self.cache.entries[rank] = Some(QueryEntry {
                    rank,
                    predicate: self.predicates[rank],
                    rows,
                    verified_at: t_i,
                });
            }
        }
        self.to_materialize.clear();

        if self.txn_read_armed {
            self.txn_read_armed = false;
            let mut txn = self.txn.take().expect("armed read without a txn");
            let footprint = self.workload.footprint(txn.ranks[txn.reads_done]);
            let mut read_ok = true;
            for &item in footprint {
                match items.peek(item) {
                    Some(e) if e.timestamp >= t_i => txn.pins.push(ResultRow {
                        item,
                        value: e.value,
                        timestamp: e.timestamp,
                    }),
                    _ => {
                        read_ok = false;
                        break;
                    }
                }
            }
            if !read_ok {
                self.stats.txn_aborts += 1;
                return; // txn dropped
            }
            txn.reads_done += 1;
            if txn.reads_done < txn.ranks.len() {
                self.txn = Some(txn);
                return;
            }
            // Last read: commit iff every pin is still current under
            // this report's clock — the consistency witness. Pins from
            // this very read trivially pass (just copied from the
            // cache); earlier pins fail iff their item was invalidated
            // or changed value since they were read.
            let coherent = txn.pins.iter().all(|pin| {
                items
                    .peek(pin.item)
                    .is_some_and(|e| e.value == pin.value && e.timestamp >= t_i)
            });
            if coherent {
                self.stats.txn_commits += 1;
                if self.config.record_commits {
                    self.commits.push(CommittedRead {
                        committed_at: t_i,
                        pins: txn.pins,
                    });
                }
            } else {
                self.stats.txn_aborts += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_client::{CacheSlots, Verdict};
    use sw_sim::{Counters, MasterSeed, StreamId};

    fn rng(i: u64) -> RngStream {
        MasterSeed::TEST.stream(StreamId::QueryPlan { index: i })
    }

    fn warm_cache(domain: &[ItemId], t: SimTime) -> Cache {
        let mut c = Cache::unbounded();
        for &item in domain {
            c.insert(item, item * 10 + 1, t);
        }
        c
    }

    fn config() -> QueryPlaneConfig {
        QueryPlaneConfig::new()
            .with_query_mix(1.0, 2)
            .with_txn_probability(0.0)
    }

    fn domain() -> Vec<ItemId> {
        (0..20).collect()
    }

    /// Every field spelled out (no `..Default::default()`): a new
    /// counter fails to compile here until it is given a value, and it
    /// joins the round trip by being declared.
    #[test]
    fn since_then_absorb_round_trips_every_counter() {
        sw_sim::counters::assert_laws::<QueryStats>();
        let after = QueryStats {
            queries_posed: 90,
            hits: 80,
            misses: 70,
            entries_invalidated: 60,
            entries_reverified: 50,
            fetch_items: 40,
            txns_begun: 30,
            txn_commits: 20,
            txn_aborts: 10,
        };
        let before = QueryStats {
            queries_posed: 1,
            hits: 2,
            misses: 3,
            entries_invalidated: 4,
            entries_reverified: 5,
            fetch_items: 6,
            txns_begun: 7,
            txn_commits: 8,
            txn_aborts: 9,
        };
        let delta = after.since(&before);
        assert_eq!(
            delta,
            QueryStats {
                queries_posed: 89,
                hits: 78,
                misses: 67,
                entries_invalidated: 56,
                entries_reverified: 45,
                fetch_items: 34,
                txns_begun: 23,
                txn_commits: 12,
                txn_aborts: 1,
            }
        );
        let mut rebuilt = before;
        rebuilt.absorb(&delta);
        assert_eq!(rebuilt, after);
    }

    const T1: SimTime = SimTime::ZERO;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A heard report that names nothing: every entry verified as of `t`.
    fn restamp_all(cache: &mut Cache, t: SimTime) {
        CacheSlots::sweep(cache, t, |_, _| Verdict::Restamp);
    }

    #[test]
    fn miss_then_hit_through_materialization() {
        let d = domain();
        // One template: every draw repeats it, so interval 2 must hit.
        let cfg = QueryPlaneConfig {
            templates: 1,
            ..config()
        };
        let mut plane = QueryPlane::new(&d, cfg, rng(0));
        let cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        let check = plane.observe_report(&cache, t(10.0));
        assert!(plane.stats().misses > 0);
        assert_eq!(plane.stats().hits, 0);
        // Footprint items are all cached-fresh: nothing to fetch.
        assert!(check.fetch.is_empty());
        plane.settle(&cache, t(10.0));
        assert!(!plane.cache().is_empty());

        // Same templates queried again next interval: hits now.
        let misses_before = plane.stats().misses;
        plane.begin_awake_interval();
        let mut cache2 = cache.clone();
        restamp_all(&mut cache2, t(20.0));
        let check2 = plane.observe_report(&cache2, t(20.0));
        assert!(check2.fetch.is_empty());
        plane.settle(&cache2, t(20.0));
        assert!(plane.stats().hits > 0, "repeat queries should hit");
        assert_eq!(
            plane.stats().misses,
            misses_before,
            "no new misses on re-query"
        );
    }

    #[test]
    fn cold_item_cache_produces_fetch_list() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(1));
        let cache = Cache::unbounded();
        plane.begin_awake_interval();
        let check = plane.observe_report(&cache, t(10.0));
        assert!(!check.fetch.is_empty());
        let mut sorted = check.fetch.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, check.fetch, "fetch list is sorted and distinct");
        // Nothing fetched: the entry must not materialize, and the
        // cache stays empty (no stale result can be served).
        plane.settle(&cache, t(10.0));
        assert!(plane.cache().is_empty());
    }

    #[test]
    fn footprint_update_invalidates_the_entry() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(2));
        let mut cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        let cached: Vec<usize> = plane.cache().iter().map(|e| e.rank).collect();
        assert!(!cached.is_empty());
        // The server updates one footprint item of the first cached
        // entry: the report handler removes it from the item cache.
        let victim = plane.cache().get(cached[0]).unwrap().rows[0].item;
        cache.remove(victim);
        restamp_all(&mut cache, t(20.0));
        plane.observe_report(&cache, t(20.0));
        assert!(
            plane.cache().get(cached[0]).is_none(),
            "entry with an invalidated footprint item must drop"
        );
        assert!(plane.stats().entries_invalidated >= 1);
    }

    #[test]
    fn changed_value_invalidates_even_if_item_restamped() {
        // A refetched item can carry a new value with a fresh stamp; the
        // materialized result no longer matches and must drop.
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(3));
        let mut cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        let entry = plane.cache().iter().next().unwrap();
        let (rank, victim) = (entry.rank, entry.rows[0].item);
        cache.insert(victim, 0xDEAD_BEEF, t(20.0));
        restamp_all(&mut cache, t(20.0));
        plane.observe_report(&cache, t(20.0));
        assert!(plane.cache().get(rank).is_none());
    }

    #[test]
    fn stale_stamp_blocks_serving_and_reverify_bumps_the_clock() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(4));
        let cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        let n = plane.cache().len();
        assert!(n > 0);
        // Next report at t=20 but the item cache was NOT restamped
        // (models a handler that dropped everything silently — stamps
        // stuck at 10): every entry must drop, none re-verify.
        plane.observe_report(&cache, t(20.0));
        assert_eq!(plane.cache().len(), 0);
        assert_eq!(plane.stats().entries_invalidated as usize, n);
    }

    #[test]
    fn reverified_entries_advance_verified_at() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(5));
        let mut cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        restamp_all(&mut cache, t(20.0));
        plane.observe_report(&cache, t(20.0));
        for e in plane.cache().iter() {
            assert_eq!(e.verified_at, t(20.0));
            for row in &e.rows {
                assert_eq!(row.timestamp, t(20.0));
            }
        }
        assert!(plane.stats().entries_reverified > 0);
    }

    #[test]
    fn predicate_view_filters_rows() {
        let entry = QueryEntry {
            rank: 0,
            predicate: QueryPredicate::Below(100),
            rows: vec![
                ResultRow {
                    item: 1,
                    value: 50,
                    timestamp: T1,
                },
                ResultRow {
                    item: 2,
                    value: 150,
                    timestamp: T1,
                },
            ],
            verified_at: T1,
        };
        let view: Vec<ItemId> = entry.result().map(|r| r.item).collect();
        assert_eq!(view, vec![1]);
    }

    fn txn_config() -> QueryPlaneConfig {
        QueryPlaneConfig {
            query_probability: 0.0,
            txn_probability: 1.0,
            txn_reads: 2,
            record_commits: true,
            ..QueryPlaneConfig::new()
        }
    }

    #[test]
    fn quiet_footprints_commit_with_a_coherent_witness() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, txn_config(), rng(6));
        let mut cache = warm_cache(&d, t(10.0));
        // Interval 1: txn begins, first read pins at the report.
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        assert!(plane.txn_in_flight());
        assert_eq!(plane.stats().txns_begun, 1);
        // Interval 2: nothing changed; the second read commits.
        restamp_all(&mut cache, t(20.0));
        plane.observe_report(&cache, t(20.0));
        plane.settle(&cache, t(20.0));
        assert!(!plane.txn_in_flight());
        assert_eq!(plane.stats().txn_commits, 1);
        assert_eq!(plane.stats().txn_aborts, 0);
        let commit = &plane.committed_reads()[0];
        assert_eq!(commit.committed_at, t(20.0));
        assert!(!commit.pins.is_empty());
    }

    #[test]
    fn interleaved_update_is_detected_and_aborted() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, txn_config(), rng(6));
        let mut cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        assert!(plane.txn_in_flight());
        // An update hits a pinned item between the two reads: the
        // report at t=20 invalidates it from the item cache.
        let pinned = plane.txn.as_ref().unwrap().pins[0].item;
        cache.remove(pinned);
        restamp_all(&mut cache, t(20.0));
        let check = plane.observe_report(&cache, t(20.0));
        // The second read may need the invalidated item refetched; a
        // refetch delivers a NEW value, so simulate the uplink install.
        if check.fetch.contains(&pinned) {
            cache.insert(pinned, 0x0BAD_CAFE, t(20.5));
        }
        plane.settle(&cache, t(20.0));
        assert!(!plane.txn_in_flight());
        assert_eq!(
            plane.stats().txn_aborts,
            1,
            "the non-serializable interleaving must abort"
        );
        assert_eq!(plane.stats().txn_commits, 0);
    }

    #[test]
    fn draws_are_deterministic_per_stream() {
        let d = domain();
        let run = || {
            let mut plane = QueryPlane::new(&d, QueryPlaneConfig::new(), rng(9));
            let mut cache = warm_cache(&d, t(0.0));
            for i in 1..=50u64 {
                let t_i = t(i as f64 * 10.0);
                restamp_all(&mut cache, t_i);
                plane.begin_awake_interval();
                plane.observe_report(&cache, t_i);
                plane.settle(&cache, t_i);
            }
            plane.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missed_reports_defer_without_state_loss() {
        let d = domain();
        let mut plane = QueryPlane::new(&d, config(), rng(10));
        let mut cache = warm_cache(&d, t(10.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(10.0));
        plane.settle(&cache, t(10.0));
        let posed_before = plane.stats().queries_posed;
        // Interval 2: report lost. Queries stay pending.
        plane.begin_awake_interval();
        plane.on_report_missed();
        assert!(plane.stats().queries_posed > posed_before);
        let answered = plane.stats().hits + plane.stats().misses;
        // Interval 3: the next intact report answers the backlog. The
        // item handler dropped nothing (values unchanged), stamps
        // advance to the heard report.
        restamp_all(&mut cache, t(30.0));
        plane.begin_awake_interval();
        plane.observe_report(&cache, t(30.0));
        plane.settle(&cache, t(30.0));
        assert!(
            plane.stats().hits + plane.stats().misses > answered,
            "deferred queries answered at the next heard report"
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(QueryPlaneConfig {
            templates: 0,
            ..QueryPlaneConfig::new()
        }
        .validate()
        .is_err());
        assert!(QueryPlaneConfig {
            txn_reads: 1,
            txn_probability: 0.5,
            ..QueryPlaneConfig::new()
        }
        .validate()
        .is_err());
        assert!(QueryPlaneConfig {
            query_probability: 1.5,
            ..QueryPlaneConfig::new()
        }
        .validate()
        .is_err());
        assert!(QueryPlaneConfig::new().validate().is_ok());
    }
}
