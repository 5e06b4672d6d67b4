//! The experiment catalogue: every committed `results/<name>.json` is
//! one row of [`CATALOGUE`], and `sw-exp` is the one binary that lists,
//! runs and byte-checks them. Beside each artifact sits
//! `results/<name>.ci.json`, the row's [`REPLICATES`] seed replicates
//! summarised leaf by leaf ([`crate::replicate`]); `sw-exp check
//! --stat` judges a re-drawn stream against it. An id, a name or an
//! artifact that is not in this table does not exist;
//! `tests/catalogue.rs` holds the docs and `results/` to it.

use sw_sim::runner::ParallelRunner;

use crate::figures::run_paper_figure;
use crate::replicate::{Summary, REPLICATES};

mod ablations;
mod adaptive_ts;
mod asymptotics;
mod delivery_modes;
mod fig_capacity;
mod fig_loss;
mod fig_mesh;
mod fig_query;
mod handoff;
mod hybrid_sig;
mod mixed_population;
mod quasi_copies;
mod sig_false_alarms;
mod stateful_baseline;
mod validate_hit_ratios;

/// One regenerable artifact.
pub struct Experiment {
    /// Experiment id, as DESIGN.md §3 and EXPERIMENTS.md cite it.
    pub id: &'static str,
    /// The `results/<name>.json` stem, and the name `sw-exp` takes.
    pub name: &'static str,
    /// One line on what the artifact shows.
    pub about: &'static str,
    /// Injects faults: refuses to run unless the `faults` cargo feature
    /// is compiled in.
    pub needs_faults: bool,
    /// Prints the paper-shaped table to stdout and returns the JSON
    /// artifact text; `fast` selects the quick (smoke) settings, and
    /// `replicate` the seeds: 0 is the committed artifact's, any other
    /// mixes into every base seed the row owns through
    /// [`crate::replicate::replicate_seed`].
    pub run: fn(fast: bool, replicate: u64) -> String,
}

impl Experiment {
    /// False for a `needs_faults` row in a build without the injector.
    pub fn runnable(&self) -> bool {
        !self.needs_faults || sleepers::faults::compiled_in()
    }

    /// The artifact's file name under `results/`.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.name)
    }

    /// The file name of its replicate summary under `results/`.
    pub fn ci_file_name(&self) -> String {
        format!("{}.ci.json", self.name)
    }

    /// Runs replicates `first..first + REPLICATES` at full settings
    /// (quick ones when `fast`) across the sweep runner and summarises
    /// them leaf by leaf.
    pub fn replicates(&self, fast: bool, first: u64) -> Summary {
        let seeds: Vec<u64> = (first..first + REPLICATES).collect();
        let texts = ParallelRunner::from_env().run(&seeds, |_, &r| (self.run)(fast, r));
        Summary::of(first, &texts)
    }
}

const fn row(
    id: &'static str,
    name: &'static str,
    about: &'static str,
    run: fn(bool, u64) -> String,
) -> Experiment {
    Experiment {
        id,
        name,
        about,
        needs_faults: false,
        run,
    }
}

/// Every artifact of the reproduction, in id order.
#[rustfmt::skip]
pub const CATALOGUE: &[Experiment] = &[
    row("E1", "fig3", "Figure 3 (Scenario 1): effectiveness vs s, infrequent updates", |fast, r| run_paper_figure(3, fast, r)),
    row("E2", "fig4", "Figure 4 (Scenario 2): big database, wide band", |fast, r| run_paper_figure(4, fast, r)),
    row("E3", "fig5", "Figure 5 (Scenario 3): update-intensive, TS unusable", |fast, r| run_paper_figure(5, fast, r)),
    row("E4", "fig6", "Figure 6 (Scenario 4): update-intensive, big database", |fast, r| run_paper_figure(6, fast, r)),
    row("E5", "fig7", "Figure 7 (Scenario 5): workaholics, effectiveness vs mu", |fast, r| run_paper_figure(7, fast, r)),
    row("E6", "fig8", "Figure 8 (Scenario 6): Scenario 5 at n = 1e6", |fast, r| run_paper_figure(8, fast, r)),
    row("E7/E8", "asymptotics", "the two §5 limit tables and §5's conclusions", asymptotics::run),
    row("E11", "validate_hit_ratios", "simulated hit ratios vs Eq. 41, Eq. 43 and the Appendix-1 bounds", validate_hit_ratios::run),
    row("E12", "quasi_copies", "§7 quasi-copies: report bits saved by delay and ε conditions", quasi_copies::run),
    row("E13", "adaptive_ts", "§8 adaptive per-item windows vs static TS", adaptive_ts::run),
    row("E14", "sig_false_alarms", "SIG diagnosis quality vs the Chernoff bound (Eq. 22)", sig_false_alarms::run),
    row("E15", "delivery_modes", "§9 delivery modes and §10 listening energy per strategy", delivery_modes::run),
    row("E16", "hybrid_sig", "§10 hybrid weighted reports under Zipf(1.0) queries", hybrid_sig::run),
    row("E17", "stateful_baseline", "§2 stateful server vs stateless AT broadcast", stateful_baseline::run),
    row("E18", "ablations", "design knobs one at a time: k, b_T, L, SIG (f, g), group count G", ablations::run),
    row("E19", "mixed_population", "half workaholics, half sleepers under one strategy", mixed_population::run),
    row("E20", "handoff", "inter-cell handoff with replicated servers and synchronized reports", handoff::run),
    row("E21", "fig_mesh", "hit ratio, uplink traffic and handoff drops vs migration rate", fig_mesh::run),
    Experiment { needs_faults: true, ..row("E22", "fig_loss", "hit ratio and uplink traffic vs report loss", fig_loss::run) },
    row("E23", "fig_query", "query-result caching vs sleep probability", fig_query::run),
    row("E24", "fig_capacity", "bounded caches: capacity × replacement × strategy × s, plus coop mesh", fig_capacity::run),
];
