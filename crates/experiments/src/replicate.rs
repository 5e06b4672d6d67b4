//! Seed replicates of every artifact, and the statistical check that
//! judges a deliberate change of a random stream.
//!
//! Byte identity judges a change that keeps every random stream. A
//! change that re-draws a stream on purpose needs another judge: seed
//! noise. Every catalogue row therefore runs once per *replicate*.
//! Replicate 0 uses the committed artifact's seeds, byte for byte;
//! replicate `r > 0` mixes `r` into each of the row's base seeds through
//! [`replicate_seed`].
//!
//! [`Summary`] reduces [`REPLICATES`] replicate artifacts to one record
//! per JSON leaf: the mean, SD and n of a number that varies, the exact
//! value of a leaf every replicate agrees on, and the path of a leaf
//! whose shape or text varies (unjudged). `sw-exp replicate` commits it
//! as `results/<name>.ci.json`. [`compare`] is `sw-exp check --stat`'s
//! two-sample test of a regenerated summary against the committed one.

use std::collections::{BTreeMap, BTreeSet};

use serde_json::{json, Value};
use sw_sim::runner::cell_seed;

/// Seeds per artifact in a `.ci.json` file: replicates `0..REPLICATES`.
pub const REPLICATES: u64 = 10;

/// The family-wise false-failure rate of one row's `--stat` check,
/// split over its noisy leaves (Bonferroni).
pub const FAMILY_ALPHA: f64 = 0.01;

/// The coordinate word that puts replicate seeds in their own corner of
/// [`cell_seed`]'s domain.
const REPLICATE_TAG: u64 = 0x5EED_4E91_1CA7_E000;

/// The base seed of replicate `replicate` of a row whose committed
/// artifact uses `base`. Replicate 0 is `base` itself, so the committed
/// artifacts keep their seeds; any other replicate is a [`cell_seed`] of
/// `base`. Every row passes every base seed it owns through here.
pub fn replicate_seed(base: u64, replicate: u64) -> u64 {
    if replicate == 0 {
        base
    } else {
        cell_seed(base, &[REPLICATE_TAG, replicate])
    }
}

/// What the replicates say about one JSON leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// Every replicate holds this value.
    Exact(Value),
    /// A number that varies across replicates: its mean, sample SD and
    /// replicate count.
    Noisy {
        /// Mean over the replicates.
        mean: f64,
        /// Sample standard deviation (n − 1 denominator).
        sd: f64,
        /// Replicate count.
        n: u64,
    },
}

/// One artifact summarised over a run of replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The first replicate index; the run is `first..first + count`.
    pub first: u64,
    /// How many replicates were summarised.
    pub count: u64,
    /// Every leaf every replicate has and agrees in kind on, keyed by
    /// JSON pointer.
    pub leaves: BTreeMap<String, Leaf>,
    /// Leaves missing from some replicate, or holding text that varies.
    pub unjudged: Vec<String>,
}

/// Every scalar of `value`, keyed by its JSON pointer.
fn flatten(value: &Value, path: &mut String, out: &mut BTreeMap<String, Value>) {
    let at = path.len();
    match value {
        Value::Object(map) => {
            for (key, v) in map {
                path.push('/');
                path.push_str(&key.replace('~', "~0").replace('/', "~1"));
                flatten(v, path, out);
                path.truncate(at);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                path.push('/');
                path.push_str(&i.to_string());
                flatten(v, path, out);
                path.truncate(at);
            }
        }
        scalar => {
            out.insert(path.clone(), scalar.clone());
        }
    }
}

impl Summary {
    /// Summarises the artifact texts of replicates `first..`, in order.
    ///
    /// # Panics
    /// Panics if an artifact is not JSON.
    pub fn of(first: u64, artifacts: &[String]) -> Summary {
        let flat: Vec<BTreeMap<String, Value>> = artifacts
            .iter()
            .map(|text| {
                let value: Value = serde_json::from_str(text).expect("artifacts are JSON");
                let mut out = BTreeMap::new();
                flatten(&value, &mut String::new(), &mut out);
                out
            })
            .collect();
        let paths: BTreeSet<&String> = flat.iter().flat_map(BTreeMap::keys).collect();
        let mut leaves = BTreeMap::new();
        let mut unjudged = Vec::new();
        for path in paths {
            let values: Option<Vec<&Value>> = flat.iter().map(|f| f.get(path)).collect();
            let leaf = values.and_then(|values| {
                if values.iter().all(|v| *v == values[0]) {
                    return Some(Leaf::Exact(values[0].clone()));
                }
                let xs: Option<Vec<f64>> = values.iter().map(|v| v.as_f64()).collect();
                xs.map(|xs| {
                    let n = xs.len() as f64;
                    let mean = xs.iter().sum::<f64>() / n;
                    let ss: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
                    Leaf::Noisy {
                        mean,
                        sd: (ss / (n - 1.0).max(1.0)).sqrt(),
                        n: xs.len() as u64,
                    }
                })
            });
            match leaf {
                Some(leaf) => {
                    leaves.insert(path.clone(), leaf);
                }
                None => unjudged.push(path.clone()),
            }
        }
        Summary {
            first,
            count: artifacts.len() as u64,
            leaves,
            unjudged,
        }
    }

    /// The committed `.ci.json` text: one leaf per line, so a diff of
    /// two summaries reads leaf by leaf.
    pub fn to_json(&self) -> String {
        let block = |open: char, lines: Vec<String>, close: char| {
            if lines.is_empty() {
                format!("{open}{close}")
            } else {
                format!("{open}\n{}\n  {close}", lines.join(",\n"))
            }
        };
        let leaves = self
            .leaves
            .iter()
            .map(|(path, leaf)| {
                let body = match leaf {
                    Leaf::Exact(v) => json!({ "exact": v }),
                    Leaf::Noisy { mean, sd, n } => json!({ "mean": mean, "sd": sd, "n": n }),
                };
                format!("    {}: {}", text(&json!(path)), text(&body))
            })
            .collect();
        let unjudged = self
            .unjudged
            .iter()
            .map(|p| format!("    {}", text(&json!(p))))
            .collect();
        format!(
            "{{\n  \"replicates\": {{\"first\": {}, \"count\": {}}},\n  \"leaves\": {},\n  \"unjudged\": {}\n}}\n",
            self.first,
            self.count,
            block('{', leaves, '}'),
            block('[', unjudged, ']')
        )
    }

    /// Reads back a [`Summary::to_json`] text.
    pub fn parse(text: &str) -> Result<Summary, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let number = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("missing `{key}`"))
        };
        let replicates = value.get("replicates").ok_or("missing `replicates`")?;
        let leaves = value
            .get("leaves")
            .and_then(Value::as_object)
            .ok_or("missing `leaves`")?
            .iter()
            .map(|(path, body)| {
                let leaf = match body.get("exact") {
                    Some(v) => Leaf::Exact(v.clone()),
                    None => Leaf::Noisy {
                        mean: number(body, "mean")?,
                        sd: number(body, "sd")?,
                        n: number(body, "n")? as u64,
                    },
                };
                Ok((path.clone(), leaf))
            })
            .collect::<Result<_, String>>()?;
        let unjudged = value
            .get("unjudged")
            .and_then(Value::as_array)
            .ok_or("missing `unjudged`")?
            .iter()
            .map(|p| p.as_str().map(str::to_string).ok_or("non-text path"))
            .collect::<Result<_, _>>()?;
        Ok(Summary {
            first: number(replicates, "first")? as u64,
            count: number(replicates, "count")? as u64,
            leaves,
            unjudged,
        })
    }
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Leaves both summaries judge (exact and noisy).
    pub judged: usize,
    /// Of those, leaves noisy on at least one side: the Bonferroni
    /// family.
    pub noisy: usize,
    /// Leaves unjudged on either side.
    pub unjudged: usize,
    /// One line per failing leaf, naming its path.
    pub failures: Vec<String>,
    /// The largest |z| over the noisy leaves, and its path.
    pub max_z: Option<(f64, String)>,
}

/// A leaf as a sample: mean, squared standard error, count.
fn sample(leaf: &Leaf, count: u64) -> Option<(f64, f64, u64)> {
    match leaf {
        Leaf::Exact(v) => v.as_f64().map(|x| (x, 0.0, count)),
        Leaf::Noisy { mean, sd, n } => Some((*mean, sd * sd / *n as f64, *n)),
    }
}

/// Two-sample test of every leaf of `fresh` against `committed`.
///
/// A leaf fails when `|Δmean| > t·√(se₁² + se₂²)`, where `t` is the
/// Student-t critical value at the Welch–Satterthwaite degrees of
/// freedom and two-sided level [`FAMILY_ALPHA`] / (the row's noisy
/// leaves). With ten replicates a normal `z` would fail a true null
/// several times too often, so the t quantile stands in for it. A leaf
/// both sides hold exactly must match exactly, and a leaf only one side
/// has fails as a change of shape.
pub fn compare(committed: &Summary, fresh: &Summary) -> Comparison {
    let unjudged: BTreeSet<&String> = committed.unjudged.iter().chain(&fresh.unjudged).collect();
    let paths: BTreeSet<&String> = committed
        .leaves
        .keys()
        .chain(fresh.leaves.keys())
        .filter(|p| !unjudged.contains(p))
        .collect();
    let mut out = Comparison {
        unjudged: unjudged.len(),
        ..Comparison::default()
    };
    let mut tests = Vec::new();
    for path in paths {
        let (Some(old), Some(new)) = (committed.leaves.get(path), fresh.leaves.get(path)) else {
            let side = if committed.leaves.contains_key(path) {
                "committed"
            } else {
                "regenerated"
            };
            out.failures
                .push(format!("{path}: only the {side} replicates have it"));
            continue;
        };
        out.judged += 1;
        if let (Leaf::Exact(a), Leaf::Exact(b)) = (old, new) {
            if a != b {
                out.failures
                    .push(format!("{path}: exact {} → {}", text(a), text(b)));
            }
            continue;
        }
        out.noisy += 1;
        match (sample(old, committed.count), sample(new, fresh.count)) {
            (Some((m1, v1, n1)), Some((m2, v2, n2))) => {
                let (z, df) = if v1 + v2 > 0.0 {
                    let df = (v1 + v2).powi(2)
                        / (v1 * v1 / (n1.max(2) - 1) as f64 + v2 * v2 / (n2.max(2) - 1) as f64);
                    ((m2 - m1) / (v1 + v2).sqrt(), df)
                } else if m1 == m2 {
                    (0.0, 1.0)
                } else {
                    (f64::INFINITY, 1.0)
                };
                tests.push((path, old, new, z, df));
            }
            _ => out
                .failures
                .push(format!("{path}: {} → {}", describe(old), describe(new))),
        }
    }
    let alpha = FAMILY_ALPHA / out.noisy.max(1) as f64;
    for (path, old, new, z, df) in tests {
        if out.max_z.as_ref().is_none_or(|(m, _)| z.abs() > *m) {
            out.max_z = Some((z.abs(), path.clone()));
        }
        if z == 0.0 {
            continue;
        }
        let critical = t_critical(alpha, df);
        if z.abs() > critical {
            out.failures.push(format!(
                "{path}: {} → {} (z = {z:+.2}, critical {critical:.2} at {df:.1} df)",
                describe(old),
                describe(new)
            ));
        }
    }
    out
}

/// A scalar as its JSON text.
fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("serializable")
}

fn describe(leaf: &Leaf) -> String {
    match leaf {
        Leaf::Exact(v) => text(v),
        Leaf::Noisy { mean, sd, n } => {
            format!("{mean:.6} ± {:.6} (n = {n})", sd / (*n as f64).sqrt())
        }
    }
}

/// The two-sided Student-t critical value: `t` with `P(|T_df| > t) = alpha`.
pub fn t_critical(alpha: f64, df: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while t_tail(hi, df) > alpha {
        hi *= 2.0;
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if t_tail(mid, df) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `P(|T_df| > t)`: the regularised incomplete beta `I_x(df/2, 1/2)` at
/// `x = df / (df + t²)`.
fn t_tail(t: f64, df: f64) -> f64 {
    incomplete_beta(df / (df + t * t), 0.5 * df, 0.5)
}

/// The regularised incomplete beta `I_x(a, b)`, by its continued
/// fraction (modified Lentz).
fn incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - incomplete_beta(1.0 - x, b, a);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    const TINY: f64 = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..300 {
        let m = m as f64;
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            c = if c.abs() < TINY { TINY } else { c };
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(artifacts: &[Value]) -> Summary {
        let texts: Vec<String> = artifacts.iter().map(text).collect();
        Summary::of(0, &texts)
    }

    #[test]
    fn replicate_zero_keeps_the_base_seed() {
        assert_eq!(replicate_seed(0xE13, 0), 0xE13);
        let seeds: BTreeSet<u64> = (0..100).map(|r| replicate_seed(0xE13, r)).collect();
        assert_eq!(seeds.len(), 100, "replicate seeds collide");
        assert_ne!(replicate_seed(0xE13, 1), replicate_seed(0xE14, 1));
    }

    #[test]
    fn t_critical_matches_the_tables() {
        // Two-sided 5 %: t_1 = 12.706, t_10 = 2.228; the normal 1.960.
        for (df, want) in [(1.0, 12.706), (10.0, 2.228), (1e6, 1.960)] {
            let t = t_critical(0.05, df);
            assert!((t - want).abs() < 1e-3, "df {df}: {t} vs {want}");
        }
        // Two-sided 0.1 % at 18 df: 3.922.
        assert!((t_critical(0.001, 18.0) - 3.922).abs() < 1e-3);
    }

    #[test]
    fn leaves_are_exact_noisy_or_unjudged() {
        let s = summary(&[
            json!({"k": 3, "h": 0.5, "name": "TS", "rows": [1], "who": "a"}),
            json!({"k": 3, "h": 0.7, "name": "TS", "rows": [1, 2], "who": "b"}),
        ]);
        assert_eq!(s.leaves["/k"], Leaf::Exact(json!(3)));
        assert_eq!(s.leaves["/name"], Leaf::Exact(json!("TS")));
        let Leaf::Noisy { mean, sd, n } = s.leaves["/h"] else {
            panic!("h varies")
        };
        assert!((mean - 0.6).abs() < 1e-12 && (sd - 0.02f64.sqrt()).abs() < 1e-12 && n == 2);
        assert_eq!(s.unjudged, ["/rows/1", "/who"]);
        assert_eq!(Summary::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn the_same_replicates_pass_and_a_shift_fails_by_name() {
        let run = |shift: f64| -> Vec<Value> {
            (0..10)
                .map(|i| json!({"h": 0.5 + 0.01 * (i % 3) as f64 + shift, "k": 3}))
                .collect()
        };
        let committed = summary(&run(0.0));
        let same = compare(&committed, &summary(&run(0.0)));
        assert!(same.failures.is_empty());
        assert_eq!((same.judged, same.noisy), (2, 1));
        assert_eq!(same.max_z.unwrap().0, 0.0);
        // Half an SD: noise.
        assert!(compare(&committed, &summary(&run(0.004)))
            .failures
            .is_empty());
        // Ten SDs: a finding, named by its path.
        let shifted = compare(&committed, &summary(&run(0.08)));
        assert_eq!(shifted.failures.len(), 1);
        assert!(
            shifted.failures[0].starts_with("/h: "),
            "{:?}",
            shifted.failures
        );
        // An exact leaf must not move at all.
        let moved: Vec<Value> = (0..10)
            .map(|i| json!({"h": 0.5 + 0.01 * (i % 3) as f64, "k": 4}))
            .collect();
        let moved = compare(&committed, &summary(&moved));
        assert_eq!(moved.failures, ["/k: exact 3 → 4"]);
    }
}
