//! The update process.
//!
//! §4: "Updates occur following an exponential distribution, at an
//! update rate of μ per item." With `n` independent per-item exponential
//! streams, the superposition is a Poisson process of rate `n·μ` whose
//! events land on a uniformly chosen item — which is how we generate
//! updates so that a 10^6-item database costs the same per event as a
//! 10^3-item one.

use sw_sim::{PoissonProcess, RngStream, SimTime};

use crate::database::{Database, UpdateRecord};

/// Drives item updates into a [`Database`].
#[derive(Debug, Clone)]
pub struct UpdateEngine {
    per_item_rate: f64,
    process: PoissonProcess,
    /// One interval's update times, reused across calls.
    times: Vec<SimTime>,
}

impl UpdateEngine {
    /// Creates the engine for a database of `n` items updated at `μ`
    /// per item per second. A rate of zero produces no updates
    /// (Scenarios 5/6 sweep down to very low rates; μ = 0 is the
    /// degenerate "static database" case).
    pub fn new(n: u64, per_item_rate: f64, rng: &mut RngStream) -> Self {
        assert!(
            per_item_rate.is_finite() && per_item_rate >= 0.0,
            "update rate must be non-negative, got {per_item_rate}"
        );
        UpdateEngine {
            per_item_rate,
            process: PoissonProcess::new(n as f64 * per_item_rate, rng),
            times: Vec::new(),
        }
    }

    /// The per-item update rate μ.
    pub fn per_item_rate(&self) -> f64 {
        self.per_item_rate
    }

    /// Generates and applies every update in `(from, to]`, returning the
    /// applied records in time order.
    ///
    /// Each event picks a uniform item and assigns it a fresh random
    /// value (guaranteed different from the current one, since "update"
    /// in the paper means the value changed).
    pub fn advance(
        &mut self,
        db: &mut Database,
        from: SimTime,
        to: SimTime,
        rng: &mut RngStream,
    ) -> Vec<UpdateRecord> {
        self.times.clear();
        self.process.arrivals_in(from, to, rng, &mut self.times);
        let mut out = Vec::with_capacity(self.times.len());
        for &at in &self.times {
            let item = rng.uniform_index(db.len());
            let old = db.value(item);
            let mut value = rng.next_u64();
            if value == old {
                value = value.wrapping_add(1);
            }
            out.push(db.apply_update(item, value, at));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{MasterSeed, SimDuration, StreamId};

    fn setup(n: u64, mu: f64) -> (Database, UpdateEngine, RngStream) {
        let mut rng = MasterSeed::TEST.stream(StreamId::Updates);
        let db = Database::new(n, |i| i, SimDuration::from_secs(1e6));
        let eng = UpdateEngine::new(n, mu, &mut rng);
        (db, eng, rng)
    }

    #[test]
    fn update_count_matches_n_mu_t() {
        let (mut db, mut eng, mut rng) = setup(1000, 1e-3);
        let horizon = SimTime::from_secs(100_000.0);
        let recs = eng.advance(&mut db, SimTime::ZERO, horizon, &mut rng);
        // Expected n·μ·t = 1000 × 1e-3 × 1e5 = 1e5 updates.
        let expected = 100_000.0;
        assert!(
            (recs.len() as f64 - expected).abs() / expected < 0.02,
            "got {} updates, expected ≈{expected}",
            recs.len()
        );
        assert_eq!(db.update_count(), recs.len() as u64);
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let (mut db, mut eng, mut rng) = setup(1000, 0.0);
        let recs = eng.advance(&mut db, SimTime::ZERO, SimTime::from_secs(1e6), &mut rng);
        assert!(recs.is_empty());
    }

    #[test]
    fn updates_change_values() {
        let (mut db, mut eng, mut rng) = setup(100, 0.1);
        let recs = eng.advance(&mut db, SimTime::ZERO, SimTime::from_secs(1000.0), &mut rng);
        assert!(!recs.is_empty());
        for r in &recs {
            assert_ne!(r.value, r.previous, "an update must change the value");
        }
    }

    #[test]
    fn updates_are_time_ordered() {
        let (mut db, mut eng, mut rng) = setup(100, 0.1);
        let recs = eng.advance(&mut db, SimTime::ZERO, SimTime::from_secs(1000.0), &mut rng);
        assert!(recs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn items_hit_roughly_uniformly() {
        let (mut db, mut eng, mut rng) = setup(10, 1.0);
        let recs = eng.advance(&mut db, SimTime::ZERO, SimTime::from_secs(10_000.0), &mut rng);
        let mut counts = [0u64; 10];
        for r in &recs {
            counts[r.item as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        let expected = total as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.1,
                "item {i} hit {c} times, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn fraction_updated_matches_eq15() {
        // Eq. 15: n_c = n(1 − e^{−μw}) items updated within a window w.
        let n = 2000u64;
        let mu = 1e-3;
        let w = 500.0;
        let (mut db, mut eng, mut rng) = setup(n, mu);
        eng.advance(&mut db, SimTime::ZERO, SimTime::from_secs(w), &mut rng);
        let changed = db
            .updated_in_window(SimTime::ZERO, SimTime::from_secs(w))
            .len() as f64;
        let expected = n as f64 * (1.0 - (-mu * w).exp());
        assert!(
            (changed - expected).abs() / expected < 0.08,
            "changed {changed}, Eq.15 predicts {expected}"
        );
    }
}
