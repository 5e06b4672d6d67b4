//! Deterministic server-side fault schedules for the replicated
//! servers of [`crate::ha`].
//!
//! [`sleepers::faults`] perturbs what a *client* hears; this module
//! perturbs the *servers*: a primary that crashes at a chosen interval,
//! crashes and comes back, or is partitioned away from its replicas
//! while it keeps broadcasting. Schedules are seeded the same way as
//! everything else — a dedicated `StreamId::Custom { tag }` stream per
//! node resolves the optional jitter — so a failover run is a pure
//! function of `(MasterSeed, ServerFaultPlan, node)` and can be
//! replayed byte-identically.
//!
//! Unlike [`sleepers::faults::FaultLayer`], nothing here is
//! feature-gated: it steers the replication control plane (which
//! intervals a node participates in), never the per-interval hot path,
//! so there is nothing to compile away.

use sw_sim::rng::{MasterSeed, StreamId};

/// Stream tag for server-fault jitter draws; XORed with the node id so
/// each node resolves its schedule independently.
const SERVER_FAULT_TAG: u64 = 0x5EF0_CA5C;

/// Where in the interval's replication round a crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// Before the interval's log entry is replicated: no peer has the
    /// entry, so the successor promotes *at* the crash interval and
    /// broadcasts it itself — clients see no gap at all.
    BeforeAppend,
    /// After the entry is replicated and acknowledged but before the
    /// report is broadcast: the entry is committed yet never aired, so
    /// every client deterministically misses exactly the crash interval
    /// (the successor resumes at the next one — broadcast is
    /// at-most-once, never replayed).
    #[default]
    AfterAppend,
}

/// A scheduled crash of one server process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// Interval at which the node dies (before any jitter shift).
    pub at_interval: u64,
    /// Where in the replication round the crash fires.
    pub point: CrashPoint,
}

/// One server-side fault to inject at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFault {
    /// The node crashes and stays down for the rest of the session.
    Crash(ServerCrash),
    /// The node crashes, stays down for `down_intervals` intervals,
    /// then rejoins as a replica and catches up from the log.
    CrashRestart {
        /// The crash itself.
        crash: ServerCrash,
        /// Intervals the node stays down before redialing its peers.
        down_intervals: u64,
    },
    /// The node (assumed primary) loses its replication links for
    /// `heal_after` intervals while continuing to run: it stops
    /// sending appends and collecting acks, the replicas promote a new
    /// epoch behind its back, and on heal it is demoted by the higher
    /// epoch it then hears.
    PrimaryPartition {
        /// First partitioned interval (before any jitter shift).
        at_interval: u64,
        /// Number of intervals the partition lasts.
        heal_after: u64,
    },
}

/// A server-side fault schedule for one node.
///
/// `jitter_intervals` optionally shifts the fault's trigger interval by
/// a seeded uniform draw in `[0, jitter_intervals]`, so a fleet of
/// nodes with the same plan does not fail in lockstep — while staying
/// fully deterministic for a given seed and node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerFaultPlan {
    /// The fault to inject, if any.
    pub fault: Option<ServerFault>,
    /// Uniform trigger-interval shift bound (0 = no jitter, no draw).
    pub jitter_intervals: u64,
}

impl ServerFaultPlan {
    /// An empty plan: the node runs the whole session undisturbed.
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules a permanent crash.
    pub fn with_crash(mut self, at_interval: u64, point: CrashPoint) -> Self {
        self.fault = Some(ServerFault::Crash(ServerCrash { at_interval, point }));
        self
    }

    /// Schedules a crash followed by a rejoin after `down_intervals`.
    pub fn with_crash_restart(
        mut self,
        at_interval: u64,
        point: CrashPoint,
        down_intervals: u64,
    ) -> Self {
        self.fault = Some(ServerFault::CrashRestart {
            crash: ServerCrash { at_interval, point },
            down_intervals,
        });
        self
    }

    /// Schedules a primary partition window.
    pub fn with_partition(mut self, at_interval: u64, heal_after: u64) -> Self {
        self.fault = Some(ServerFault::PrimaryPartition {
            at_interval,
            heal_after,
        });
        self
    }

    /// Sets the seeded trigger-interval jitter bound.
    pub fn with_jitter(mut self, jitter_intervals: u64) -> Self {
        self.jitter_intervals = jitter_intervals;
        self
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.fault.is_none()
    }

    /// Checks the plan's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self.fault {
            Some(ServerFault::Crash(c)) | Some(ServerFault::CrashRestart { crash: c, .. })
                if c.at_interval == 0 =>
            {
                Err("server crash at_interval must be ≥ 1 (interval 0 never airs)".into())
            }
            Some(ServerFault::PrimaryPartition { heal_after: 0, .. }) => {
                Err("partition heal_after must be ≥ 1".into())
            }
            _ => Ok(()),
        }
    }
}

/// The resolved, per-node schedule: plan + seeded jitter, queried by
/// the replication coordinator each interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerFaultClock {
    fault: Option<ServerFault>,
    /// Jitter shift resolved at construction (0 when no jitter).
    shift: u64,
}

impl ServerFaultClock {
    /// Resolves `plan` for `node`: draws the jitter shift (if any) from
    /// `StreamId::Custom { tag: SERVER_FAULT_TAG ^ node }`. A plan with
    /// `jitter_intervals == 0` draws nothing.
    pub(crate) fn new(plan: &ServerFaultPlan, seed: MasterSeed, node: u32) -> Self {
        let shift = if plan.fault.is_some() && plan.jitter_intervals > 0 {
            let mut rng = seed.stream(StreamId::Custom {
                tag: SERVER_FAULT_TAG ^ node as u64,
            });
            rng.uniform_index(plan.jitter_intervals + 1)
        } else {
            0
        };
        Self {
            fault: plan.fault,
            shift,
        }
    }

    /// If this node crashes at `interval`, where in the round it dies.
    pub(crate) fn crash_at(&self, interval: u64) -> Option<CrashPoint> {
        match self.fault? {
            ServerFault::Crash(c) | ServerFault::CrashRestart { crash: c, .. }
                if c.at_interval + self.shift == interval =>
            {
                Some(c.point)
            }
            _ => None,
        }
    }

    /// Whether this node's replication links are partitioned away at
    /// `interval`.
    pub(crate) fn partitioned_at(&self, interval: u64) -> bool {
        match self.fault {
            Some(ServerFault::PrimaryPartition {
                at_interval,
                heal_after,
            }) => {
                let from = at_interval + self.shift;
                (from..from + heal_after).contains(&interval)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first interval at which `clock` crashes its node.
    fn first_crash(clock: &ServerFaultClock) -> Option<u64> {
        (0..100).find(|&i| clock.crash_at(i).is_some())
    }

    #[test]
    fn empty_plan_yields_an_inert_clock() {
        let plan = ServerFaultPlan::none();
        assert!(plan.is_empty());
        plan.validate().unwrap();
        let clock = ServerFaultClock::new(&plan, MasterSeed::TEST, 0);
        assert_eq!(first_crash(&clock), None);
        for i in 0..100 {
            assert_eq!(clock.crash_at(i), None);
            assert!(!clock.partitioned_at(i));
        }
    }

    #[test]
    fn plan_validation_rejects_degenerate_triggers() {
        assert!(ServerFaultPlan::none()
            .with_crash(0, CrashPoint::AfterAppend)
            .validate()
            .is_err());
        assert!(ServerFaultPlan::none()
            .with_partition(5, 0)
            .validate()
            .is_err());
        assert!(ServerFaultPlan::none()
            .with_crash_restart(3, CrashPoint::BeforeAppend, 4)
            .validate()
            .is_ok());
    }

    #[test]
    fn crash_fires_exactly_once_at_the_scheduled_interval() {
        let plan = ServerFaultPlan::none().with_crash(12, CrashPoint::AfterAppend);
        let clock = ServerFaultClock::new(&plan, MasterSeed::TEST, 0);
        assert_eq!(first_crash(&clock), Some(12));
        let fired: Vec<u64> = (0..50).filter(|&i| clock.crash_at(i).is_some()).collect();
        assert_eq!(fired, vec![12]);
        assert_eq!(clock.crash_at(12), Some(CrashPoint::AfterAppend));
    }

    #[test]
    fn partition_window_is_half_open_on_heal() {
        let plan = ServerFaultPlan::none().with_partition(10, 3);
        let clock = ServerFaultClock::new(&plan, MasterSeed::TEST, 1);
        let windows: Vec<u64> = (0..20).filter(|&i| clock.partitioned_at(i)).collect();
        assert_eq!(windows, vec![10, 11, 12]);
        assert_eq!(clock.crash_at(10), None);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_node() {
        let plan = ServerFaultPlan::none()
            .with_crash(20, CrashPoint::BeforeAppend)
            .with_jitter(8);
        let t = |seed: MasterSeed, node: u32| {
            first_crash(&ServerFaultClock::new(&plan, seed, node)).unwrap()
        };
        // Replayable: same (seed, node) resolves the same trigger.
        assert_eq!(t(MasterSeed(7), 0), t(MasterSeed(7), 0));
        // Within the jitter bound.
        for node in 0..16 {
            let at = t(MasterSeed(7), node);
            assert!((20..=28).contains(&at), "trigger {at} outside bound");
        }
        // Some pair of nodes must differ (that is the point of jitter).
        assert!(
            (1..16).any(|n| t(MasterSeed(7), n) != t(MasterSeed(7), 0)),
            "jitter never separated any nodes"
        );
    }

    #[test]
    fn restart_plan_reports_downtime() {
        let plan = ServerFaultPlan::none().with_crash_restart(6, CrashPoint::AfterAppend, 4);
        let clock = ServerFaultClock::new(&plan, MasterSeed::TEST, 2);
        assert_eq!(clock.crash_at(6), Some(CrashPoint::AfterAppend));
        assert!(matches!(
            plan.fault,
            Some(ServerFault::CrashRestart {
                down_intervals: 4,
                ..
            })
        ));
    }
}
