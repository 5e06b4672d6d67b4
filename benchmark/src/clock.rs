//! Telling a core at its base clock from one in turbo.
//!
//! A vCPU of a shared VM runs at the host core's base clock or in turbo
//! for seconds at a time (here 1.27 times apart), and which share of a
//! run is spent in turbo, 10 to 30 %, is the host's business. Op times
//! then have two modes a quarter apart, and a low quantile of them lands
//! in one or the other depending on whether turbo held more or less than
//! that quantile of the run: over ten seeds the 5th percentile of
//! `at_churn` spread 7.6 % (range 24 %) and the 10th 14.6 %.
//!
//! A chain of dependent multiply-adds takes the core's clock period
//! times its length and nothing else: it touches no memory and keeps one
//! port busy, so neither the caches nor a busy sibling hyperthread move
//! it. On this host it reads 12.35 us at the base clock and 9.72 us in
//! turbo, each within 1 %. The benchmark runs it before and after every
//! op and times the ops that ran at the base clock; the same ten runs
//! then spread 4.9 % (range 9 %). A workload that waits for memory
//! (`workaholic_ts`) is the same with and without.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Links of the chain: about 10 us, under 1 % of the shortest op.
const CHAIN: u64 = 10_000;

/// Microseconds the calling thread's core takes for the chain now.
pub fn probe_us() -> f64 {
    let t = Instant::now();
    let mut a = 1u64;
    for i in 0..CHAIN {
        // `black_box` keeps every link: without it the compiler folds
        // the recurrence.
        a = black_box(a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(a);
    t.elapsed().as_secs_f64() * 1e6
}

/// A probe this far below the run's base-clock reading was in turbo
/// (turbo reads 0.79 of base; an interrupted probe only reads longer).
const TURBO_BELOW: f64 = 0.9;

/// The op times taken at the base clock. `samples` are `(op us, probe
/// us)`, the probe being the shorter of the two around the op, so that
/// an op counts as turbo if either end of it was. The base-clock reading
/// is the run's own: the upper quartile of its probes, which is the base
/// clock unless turbo held three quarters of the run — then nothing is
/// dropped.
pub fn at_base_clock(samples: &[(f64, f64)]) -> Vec<f64> {
    let probes: Vec<f64> = samples.iter().map(|s| s.1).collect();
    if probes.is_empty() {
        return Vec::new();
    }
    let base = stats::quantile(&stats::sorted(&probes), 0.75);
    samples
        .iter()
        .filter(|s| s.1 >= TURBO_BELOW * base)
        .map(|s| s.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbo_ops_are_dropped_and_slow_probes_kept() {
        // 30 % of the ops in turbo (probe 9.7 against 12.3), one probe
        // interrupted (20).
        let mut samples: Vec<(f64, f64)> = (0..7).map(|i| (100.0 + i as f64, 12.3)).collect();
        samples.extend((0..3).map(|i| (80.0 + i as f64, 9.7)));
        samples[0].1 = 20.0;
        assert_eq!(
            at_base_clock(&samples),
            [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0]
        );
    }

    #[test]
    fn a_run_mostly_in_turbo_keeps_everything() {
        let mut samples = vec![(80.0, 9.7); 9];
        samples.push((100.0, 12.3));
        assert_eq!(at_base_clock(&samples).len(), 10);
        assert!(at_base_clock(&[]).is_empty());
    }

    #[test]
    fn the_probe_takes_time() {
        assert!(probe_us() > 0.0);
    }
}
