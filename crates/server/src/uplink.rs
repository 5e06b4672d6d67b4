//! Uplink query processing.
//!
//! When a client's cache cannot answer a query it "goes uplink": sends
//! the query over the wireless channel and receives the item's current
//! value. The answer carries the server-clock timestamp of the request
//! (§2: "the obtained copy has the timestamp equal to the timestamp of
//! the request (using the server's clock)").
//!
//! For §8's adaptive Method 1, clients piggyback on each uplink query
//! "all the timestamps of requests about [the item] that were satisfied
//! locally from the time of the previous uplink request" — the server
//! needs the *full* query history per item to compute MHR(i) and
//! AHR(i). [`UplinkProcessor`] records both the uplink counts and the
//! piggybacked local-hit counts per item per evaluation period.

use sw_sim::SimTime;

use crate::database::{Database, ItemId};
use crate::table::ItemTable;

/// Timestamps of cache hits satisfied locally since the client's last
/// uplink request for this item (adaptive Method 1, §8.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PiggybackInfo {
    /// Times (client-observed) of local cache hits for the queried item.
    pub local_hit_times: Vec<SimTime>,
}

/// The answer to an uplink query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// The item queried.
    pub item: ItemId,
    /// Its current value at the server.
    pub value: u64,
    /// Server-clock timestamp assigned to the client's fresh cache entry.
    pub timestamp: SimTime,
}

/// Per-item uplink statistics for one evaluation period.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemUplinkStats {
    /// Queries that came uplink (cache misses), `Q[i]` in §8.2.
    pub uplink_queries: u64,
    /// Locally satisfied queries reported via piggybacking; together
    /// with `uplink_queries` this is the total query count `q[i]` of
    /// §8.1.
    pub piggybacked_hits: u64,
}

impl ItemUplinkStats {
    /// Total queries the clients posed for this item, `q[i]`.
    pub fn total_queries(&self) -> u64 {
        self.uplink_queries + self.piggybacked_hits
    }
}

/// Answers uplink queries and accumulates the per-item statistics the
/// adaptive controllers consume.
///
/// The per-item table is pre-sized when the item universe is known
/// (the cell driver sizes it from the database) and grows otherwise; no
/// hashing on the per-query hot path either way.
#[derive(Debug, Clone, Default)]
pub struct UplinkProcessor {
    stats: ItemTable<ItemUplinkStats>,
    total_uplink: u64,
}

impl UplinkProcessor {
    /// Creates an empty processor over an unknown item universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a processor whose stats table is pre-sized for items
    /// `0..universe`.
    pub fn with_universe(universe: u64) -> Self {
        UplinkProcessor {
            stats: ItemTable::dense(universe),
            total_uplink: 0,
        }
    }

    /// Processes one uplink query at server time `now`, returning the
    /// answer and recording statistics. `piggyback` carries the client's
    /// local-hit history if the cell runs adaptive Method 1.
    pub fn answer(
        &mut self,
        db: &Database,
        item: ItemId,
        now: SimTime,
        piggyback: Option<&PiggybackInfo>,
    ) -> QueryAnswer {
        let entry = self.stats.get_or_insert_with(item, Default::default);
        entry.uplink_queries += 1;
        if let Some(pb) = piggyback {
            entry.piggybacked_hits += pb.local_hit_times.len() as u64;
        }
        self.total_uplink += 1;
        QueryAnswer {
            item,
            value: db.value(item),
            timestamp: now,
        }
    }

    /// Statistics for `item` in the current evaluation period.
    pub fn item_stats(&self, item: ItemId) -> ItemUplinkStats {
        self.stats.get(item).copied().unwrap_or_default()
    }

    /// Total uplink queries since construction (never reset).
    pub fn total_uplink_queries(&self) -> u64 {
        self.total_uplink
    }

    /// Ends the evaluation period: returns the period's statistics and
    /// starts a fresh one (same table layout).
    pub fn end_period(&mut self) -> ItemTable<ItemUplinkStats> {
        self.stats.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::SimDuration;

    fn db() -> Database {
        Database::new(10, |i| i * 7, SimDuration::from_secs(100.0))
    }

    #[test]
    fn answer_carries_current_value_and_request_time() {
        let mut d = db();
        d.apply_update(3, 999, SimTime::from_secs(5.0));
        let mut up = UplinkProcessor::new();
        let ans = up.answer(&d, 3, SimTime::from_secs(7.0), None);
        assert_eq!(ans.value, 999);
        assert_eq!(ans.timestamp, SimTime::from_secs(7.0));
    }

    #[test]
    fn uplink_counts_accumulate() {
        let d = db();
        let mut up = UplinkProcessor::new();
        up.answer(&d, 1, SimTime::from_secs(1.0), None);
        up.answer(&d, 1, SimTime::from_secs(2.0), None);
        up.answer(&d, 2, SimTime::from_secs(3.0), None);
        assert_eq!(up.item_stats(1).uplink_queries, 2);
        assert_eq!(up.item_stats(2).uplink_queries, 1);
        assert_eq!(up.total_uplink_queries(), 3);
    }

    #[test]
    fn piggyback_contributes_to_total_queries() {
        let d = db();
        let mut up = UplinkProcessor::new();
        let pb = PiggybackInfo {
            local_hit_times: vec![
                SimTime::from_secs(0.5),
                SimTime::from_secs(0.8),
                SimTime::from_secs(0.9),
            ],
        };
        up.answer(&d, 4, SimTime::from_secs(1.0), Some(&pb));
        let s = up.item_stats(4);
        assert_eq!(s.uplink_queries, 1);
        assert_eq!(s.piggybacked_hits, 3);
        assert_eq!(s.total_queries(), 4);
    }

    #[test]
    fn end_period_resets_per_item_stats() {
        let d = db();
        let mut up = UplinkProcessor::new();
        up.answer(&d, 1, SimTime::from_secs(1.0), None);
        let period = up.end_period();
        assert_eq!(period.get(1).expect("active item").uplink_queries, 1);
        assert_eq!(up.item_stats(1), ItemUplinkStats::default());
        // The lifetime total survives.
        assert_eq!(up.total_uplink_queries(), 1);
    }

    #[test]
    fn inactive_item_has_zero_stats() {
        let up = UplinkProcessor::new();
        assert_eq!(up.item_stats(9), ItemUplinkStats::default());
    }
}
