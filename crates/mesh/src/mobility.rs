//! Deterministic client mobility.
//!
//! Every mobile unit owns one dedicated random stream
//! (`StreamId::Mobility { index }` of the mesh's master seed), and the
//! mesh polls each unit once per interval barrier in fixed home-index
//! order. Because a unit's draws come only from its own stream, its
//! trajectory is a pure function of the mesh seed and its home index —
//! independent of thread count, of every other unit, and of every
//! stream the single-cell simulator consumes.

use sw_sim::RngStream;

/// How mobile units move between cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Nobody moves. The mesh degenerates to independent cells.
    Stationary,
    /// Per-barrier Markov walk: at every interval barrier each unit
    /// flips a `rate`-weighted coin; on heads it hops to a uniformly
    /// drawn neighbor cell. `rate = 0` draws the coin but never moves
    /// (keeping the stream positions identical to any other rate).
    Markov {
        /// Per-barrier hop probability in `[0, 1]`.
        rate: f64,
    },
    /// RNG-free deterministic mobility for tests and the handoff
    /// experiment: every `every` barriers each unit hops to the next
    /// neighbor in cyclic order (its hop count indexes the neighbor
    /// list). Barriers are numbered from 1.
    Periodic {
        /// Barrier period between hops (0 behaves as
        /// [`MobilityModel::Stationary`]).
        every: u64,
    },
}

impl MobilityModel {
    /// Decides one unit's move at one barrier. `hops` is the unit's
    /// lifetime hop count (incremented on every accepted move;
    /// [`Periodic`](Self::Periodic) uses it to cycle the neighbor
    /// list). Returns the destination cell, or `None` to stay.
    pub(crate) fn decide(
        &self,
        rng: &mut RngStream,
        barrier: u64,
        hops: u64,
        neighbors: &[usize],
    ) -> Option<usize> {
        match *self {
            MobilityModel::Stationary => None,
            MobilityModel::Markov { rate } => {
                // The coin is flipped before the isolation check so a
                // unit parked in a degenerate single-cell graph keeps
                // the same stream position as everyone else.
                let moving = rng.bernoulli(rate);
                if !moving || neighbors.is_empty() {
                    return None;
                }
                let pick = rng.uniform_index(neighbors.len() as u64) as usize;
                Some(neighbors[pick])
            }
            MobilityModel::Periodic { every } => {
                if every == 0 || neighbors.is_empty() || !barrier.is_multiple_of(every) {
                    return None;
                }
                Some(neighbors[(hops % neighbors.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{MasterSeed, StreamId};

    fn stream() -> RngStream {
        MasterSeed(7).stream(StreamId::Mobility { index: 0 })
    }

    #[test]
    fn stationary_never_moves() {
        let mut rng = stream();
        for barrier in 1..50 {
            assert_eq!(
                MobilityModel::Stationary.decide(&mut rng, barrier, 0, &[1, 2]),
                None
            );
        }
    }

    #[test]
    fn markov_rate_zero_draws_but_stays() {
        let model = MobilityModel::Markov { rate: 0.0 };
        let mut rng = stream();
        let mut twin = stream();
        for barrier in 1..100 {
            assert_eq!(model.decide(&mut rng, barrier, 0, &[1, 2]), None);
            // Exactly one coin per barrier: the stream position matches
            // a twin that drew the same coins by hand.
            twin.bernoulli(0.0);
        }
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn markov_rate_one_always_moves_to_a_neighbor() {
        let model = MobilityModel::Markov { rate: 1.0 };
        let mut rng = stream();
        for barrier in 1..100 {
            let dest = model.decide(&mut rng, barrier, 0, &[3, 5]).unwrap();
            assert!(dest == 3 || dest == 5);
        }
    }

    #[test]
    fn markov_in_isolation_flips_but_cannot_move() {
        let model = MobilityModel::Markov { rate: 1.0 };
        let mut rng = stream();
        assert_eq!(model.decide(&mut rng, 1, 0, &[]), None);
    }

    #[test]
    fn periodic_cycles_neighbors_on_schedule() {
        let model = MobilityModel::Periodic { every: 3 };
        let mut rng = stream();
        assert_eq!(model.decide(&mut rng, 1, 0, &[4, 9]), None);
        assert_eq!(model.decide(&mut rng, 2, 0, &[4, 9]), None);
        assert_eq!(model.decide(&mut rng, 3, 0, &[4, 9]), Some(4));
        assert_eq!(model.decide(&mut rng, 6, 1, &[4, 9]), Some(9));
        assert_eq!(model.decide(&mut rng, 9, 2, &[4, 9]), Some(4));
        // RNG-free: the stream never advanced.
        let mut twin = stream();
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn periodic_zero_is_stationary() {
        let model = MobilityModel::Periodic { every: 0 };
        let mut rng = stream();
        for barrier in 1..20 {
            assert_eq!(model.decide(&mut rng, barrier, 0, &[1]), None);
        }
    }
}
