//! The stateful-server baseline (§2).
//!
//! "The stateful server knows which units currently reside in its cell.
//! It also knows the states of their caches. If a particular data item
//! changes, and it is cached by a user U, then the server will send an
//! invalidation message ... to U. To maintain the server state, the
//! clients must inform the server when they come and go ... and when
//! they are about to disconnect."
//!
//! Disconnection therefore *loses the cache*: the server cannot reach a
//! sleeping client, so on reconnection the client must drop everything
//! and re-register. The idealized version of this server — invalidation
//! messages that are instantaneous and free — is the unattainable
//! strategy whose throughput defines `T_max` (§4.1); the simulated
//! version here charges real invalidation messages to the channel.

use std::collections::{HashMap, HashSet};

use crate::database::{ItemId, UpdateRecord};
use crate::table::ItemTable;

/// A client identifier within the cell.
pub type ClientId = u64;

/// The stateful server's registry of connected clients and their caches.
///
/// The per-update index (`watchers`) is an [`ItemTable`], dense when
/// the item universe is known; `caches` stays client-keyed (client ids
/// are few and the map is only walked on connect/disconnect, not per
/// update).
#[derive(Debug, Clone, Default)]
pub struct StatefulServer {
    /// item → clients caching it (the index used on update).
    watchers: ItemTable<HashSet<ClientId>>,
    /// client → items it caches (for O(cache) disconnect cleanup).
    caches: HashMap<ClientId, HashSet<ItemId>>,
    invalidations_sent: u64,
}

impl StatefulServer {
    /// Creates an empty registry over an unknown item universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with the watcher index pre-sized for
    /// items `0..universe`.
    pub fn with_universe(universe: u64) -> Self {
        StatefulServer {
            watchers: ItemTable::dense(universe),
            ..Self::default()
        }
    }

    /// A client announces itself (entering the cell or reconnecting).
    /// Reconnection starts from an empty registered cache.
    pub fn connect(&mut self, client: ClientId) {
        self.caches.entry(client).or_default();
    }

    /// True if the client is currently registered.
    pub fn is_connected(&self, client: ClientId) -> bool {
        self.caches.contains_key(&client)
    }

    /// A client informs the server it now caches `item`.
    ///
    /// # Panics
    /// Panics if the client never connected — the protocol requires
    /// registration first.
    pub fn register_cache(&mut self, client: ClientId, item: ItemId) {
        let cache = self
            .caches
            .get_mut(&client)
            .expect("client must connect before registering cache entries");
        if cache.insert(item) {
            self.watchers
                .get_or_insert_with(item, HashSet::new)
                .insert(client);
        }
    }

    /// A client disconnects (or leaves the cell): all its registrations
    /// are dropped — "disconnection automatically implies loosing a
    /// cache" (§1).
    pub fn disconnect(&mut self, client: ClientId) {
        if let Some(items) = self.caches.remove(&client) {
            for item in items {
                if let Some(w) = self.watchers.get_mut(item) {
                    w.remove(&client);
                    if w.is_empty() {
                        self.watchers.remove(item);
                    }
                }
            }
        }
    }

    /// Handles one update: returns the connected clients that must be
    /// sent an invalidation message for the item, and counts the
    /// messages.
    pub fn on_update(&mut self, rec: &UpdateRecord) -> Vec<ClientId> {
        let recipients: Vec<ClientId> = self
            .watchers
            .get(rec.item)
            .map(|s| {
                let mut v: Vec<ClientId> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default();
        self.invalidations_sent += recipients.len() as u64;
        // The server-side registration is dropped too: after the
        // invalidation the client no longer holds the item (it must
        // re-fetch and re-register).
        for c in &recipients {
            if let Some(cache) = self.caches.get_mut(c) {
                cache.remove(&rec.item);
            }
        }
        self.watchers.remove(rec.item);
        recipients
    }

    /// Total invalidation messages sent since construction.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations_sent
    }

    /// Number of (client, item) registrations currently held.
    pub fn registrations(&self) -> usize {
        self.caches.values().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::SimTime;

    fn upd(item: ItemId) -> UpdateRecord {
        UpdateRecord {
            item,
            at: SimTime::from_secs(1.0),
            value: 1,
            previous: 0,
        }
    }

    #[test]
    fn update_notifies_exactly_the_watchers() {
        let mut s = StatefulServer::new();
        s.connect(1);
        s.connect(2);
        s.connect(3);
        s.register_cache(1, 7);
        s.register_cache(2, 7);
        s.register_cache(3, 8);
        let notified = s.on_update(&upd(7));
        assert_eq!(notified, vec![1, 2]);
        assert_eq!(s.invalidations_sent(), 2);
    }

    #[test]
    fn invalidation_drops_registration() {
        let mut s = StatefulServer::new();
        s.connect(1);
        s.register_cache(1, 7);
        s.on_update(&upd(7));
        // The second update to the same item notifies no one: client 1
        // no longer holds it.
        assert!(s.on_update(&upd(7)).is_empty());
    }

    #[test]
    fn disconnect_loses_cache() {
        let mut s = StatefulServer::new();
        s.connect(1);
        s.register_cache(1, 7);
        s.register_cache(1, 8);
        assert_eq!(s.registrations(), 2);
        s.disconnect(1);
        assert_eq!(s.registrations(), 0);
        assert!(!s.is_connected(1));
        assert!(s.on_update(&upd(7)).is_empty());
    }

    #[test]
    fn reconnect_starts_empty() {
        let mut s = StatefulServer::new();
        s.connect(1);
        s.register_cache(1, 7);
        s.disconnect(1);
        s.connect(1);
        assert!(s.is_connected(1));
        assert_eq!(s.registrations(), 0);
    }

    #[test]
    #[should_panic(expected = "must connect")]
    fn register_without_connect_panics() {
        let mut s = StatefulServer::new();
        s.register_cache(1, 7);
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut s = StatefulServer::new();
        s.connect(1);
        s.register_cache(1, 7);
        s.register_cache(1, 7);
        assert_eq!(s.registrations(), 1);
        assert_eq!(s.on_update(&upd(7)), vec![1]);
        assert_eq!(s.invalidations_sent(), 1);
    }
}
