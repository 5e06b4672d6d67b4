//! Order statistics and `/proc` readers for the runner.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation
/// between the two nearest ranks — the "inclusive" method, so q = 0 is
/// the minimum and q = 1 the maximum.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The median of `samples`, the lower of the middle two when their count
/// is even: with set-ups alternating between a fast and a slow CPU it is
/// a fast CPU's.
///
/// # Panics
/// Panics on an empty slice.
pub fn lower_median(samples: &[f64]) -> f64 {
    sorted(samples)[(samples.len() - 1) / 2]
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, as `(percent, value)`; the maximum-free fallback
/// for short runs is the median, reported as `50.0`.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    // Per mille, so "samples beyond" is whole-number arithmetic.
    for per_mille in [999, 990, 950, 900, 750] {
        if sorted.len() * (1_000 - per_mille) / 1_000 >= 10 {
            return (
                per_mille as f64 / 10.0,
                quantile(sorted, per_mille as f64 / 1e3),
            );
        }
    }
    (50.0, quantile(sorted, 0.5))
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, given
/// the kernel's clock ticks per second. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_cpu_secs(stat: &str, ticks_per_sec: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks_per_sec)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// CPU seconds this process has used (all threads). Linux reports
/// `/proc` times in units of `USER_HZ`, which is 100 on every supported
/// architecture.
pub fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_secs(&s, 100.0))
        .expect("/proc/self/stat is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn lower_median_takes_the_lower_middle() {
        assert_eq!(lower_median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(lower_median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let n = |len: usize| (0..len).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: a quarter is 9 — no tail reaches ten, so the
        // median stands in.
        assert_eq!(tail_percentile(&n(39)).0, 50.0);
        assert_eq!(tail_percentile(&n(40)).0, 75.0);
        // 99 samples: 1 % is 0 samples, 5 % is 4, 10 % is 9.
        assert_eq!(tail_percentile(&n(99)).0, 75.0);
        // 100 samples: 10 % is exactly ten.
        assert_eq!(tail_percentile(&n(100)).0, 90.0);
        assert_eq!(tail_percentile(&n(200)).0, 95.0);
        assert_eq!(tail_percentile(&n(999)).0, 95.0);
        assert_eq!(tail_percentile(&n(1_000)).0, 99.0);
        assert_eq!(tail_percentile(&n(10_000)).0, 99.9);
        let (pct, value) = tail_percentile(&n(1_001));
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
    }

    #[test]
    fn proc_status_parser_reads_vm_hwm() {
        let status =
            "Name:\tsw-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(150.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn proc_stat_parser_survives_spaces_in_the_command() {
        let stat = "4242 (sw bench) (x)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_secs(stat, 100.0), Some(3.0));
        assert_eq!(parse_cpu_secs("garbage", 100.0), None);
    }
}
