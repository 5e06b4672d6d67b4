//! What one run of one workload produced.

use serde_json::{json, Map, Value};

use crate::clock;
use crate::spec::END_TO_END;
use crate::stats;

/// Metrics, correctness checks and notes of one run.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations checked: steps, audited cache entries, compared rows.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// Every correctness check made, with its verdict.
    pub checks: Vec<(String, bool)>,
    /// Free-form lines for the reader (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The timed leg's metrics, in `BENCHMARK.json`'s order; `fresh_share`
    /// is taken from the counts as they stand, so call this last.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        interval_us_p05: f64,
        peak_rss_mib: f64,
        hit_ratio: f64,
        report_bits_per_interval: f64,
    ) {
        let values = [
            stats::lower_median(setups_s),
            interval_us_p05,
            peak_rss_mib,
            hit_ratio,
            report_bits_per_interval,
            self.fresh_share(),
        ];
        for (m, value) in END_TO_END.iter().zip(values) {
            self.metric(m.name, value, m.unit);
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Every check held. `failed` may still be above zero: SIG's false
    /// validations are failed operations, and correct within its
    /// collision bound.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// The share of checked operations that held: the paper's promise
    /// (never a stale read) counted against attempts.
    pub fn fresh_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            metrics.insert(name.clone(), json!({"value": *value, "unit": *unit}));
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("a value serialises")
    }
}

/// Per-op wall times of a run's measured windows, in microseconds.
pub struct OpTimes {
    /// The samples the statistics are over, ascending.
    sorted_us: Vec<f64>,
    /// Ops timed, those dropped for running in turbo included.
    timed: usize,
}

impl OpTimes {
    /// Over every sample.
    pub fn new(samples_us: &[f64]) -> Self {
        OpTimes {
            sorted_us: stats::sorted(samples_us),
            timed: samples_us.len(),
        }
    }

    /// Over the `(op us, clock probe us)` samples taken at the core's
    /// base clock ([`clock::at_base_clock`]).
    pub fn at_base_clock(samples: &[(f64, f64)]) -> Self {
        OpTimes {
            sorted_us: stats::sorted(&clock::at_base_clock(samples)),
            timed: samples.len(),
        }
    }

    /// Ops timed.
    pub fn count(&self) -> usize {
        self.timed
    }

    /// Ops the statistics are over.
    pub fn kept(&self) -> usize {
        self.sorted_us.len()
    }

    /// The 5th percentile: the end-to-end timing metric. A low quantile,
    /// not the median: on a shared VM a busy sibling hyperthread or a
    /// neighbour's memory traffic slows an op by 20 to 60 % for seconds
    /// at a time, the share of a run so disturbed is the host's (a fifth
    /// in one hour, two thirds in the next), and only the undisturbed
    /// level is the same from run to run. Over ten-seed sets taken in a
    /// busy hour the median spread 18 % where p5 spread 5 %.
    pub fn p05(&self) -> f64 {
        stats::quantile(&self.sorted_us, 0.05)
    }

    pub fn p50(&self) -> f64 {
        stats::quantile(&self.sorted_us, 0.5)
    }

    pub fn mean(&self) -> f64 {
        stats::mean(&self.sorted_us)
    }

    /// The highest percentile with at least ten samples beyond it.
    pub fn tail(&self) -> (f64, f64) {
        stats::tail_percentile(&self.sorted_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_contracts_four_keys() {
        let mut out = Outcome::default();
        out.attempted = 200;
        out.failed = 1;
        out.check("a check", true);
        out.end_to_end(&[3.0, 1.0, 2.0, 4.0], 12.5, 7.0, 0.5, 64.0);
        let line: Value = serde_json::from_str(&out.result_line()).expect("one JSON object");
        let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let value = |name: &str| metrics.get(name)?.get("value")?.as_f64();
        assert_eq!(value("setup_s"), Some(2.0));
        assert_eq!(value("fresh_share"), Some(0.995));
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn p05_is_a_quantile_of_all_samples() {
        let samples: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let t = OpTimes::new(&samples);
        assert_eq!((t.count(), t.kept()), (101, 101));
        assert_eq!((t.p05(), t.p50()), (5.0, 50.0));
    }

    #[test]
    fn turbo_ops_count_as_timed_but_not_towards_the_quantiles() {
        let t = OpTimes::at_base_clock(&[(9.0, 9.7), (10.0, 12.3), (12.0, 12.3), (11.0, 12.4)]);
        assert_eq!((t.count(), t.kept(), t.p50()), (4, 3, 11.0));
    }
}
