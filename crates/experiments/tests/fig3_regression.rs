//! Figure-artifact regression suite.
//!
//! The mesh layer derives its shard seeds in a separate domain
//! (`mesh_seed`) from the figure sweeps (`cell_seed`). These tests pin
//! that separation from the artifact side: the exact seeds the Figure 3
//! harness derives, the non-aliasing of the two domains, and the
//! analytic half of the committed `results/fig3.json` (`sw-exp check`
//! compares the whole file, and every other artifact, byte for byte).
//! If any of them fail, a seed-derivation change has invalidated every
//! committed `fig<N>.json`; regenerate them all or revert.

use sleepers::prelude::*;
use sw_experiments::figures::{FigureSpec, SimSettings};
use sw_sim::runner::{cell_seed, mesh_seed};

fn committed_fig3() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3.json");
    std::fs::read_to_string(path).expect("results/fig3.json is committed")
}

/// The strategy tag `simulate_point` folds out of a strategy name.
fn strategy_tag(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
}

/// Pins the exact `cell_seed` values the Figure 3 sweep derives for
/// its corner coordinates (default master seed `0xF1650`, the swept
/// sleep probability, the strategy-name tag).
#[test]
fn figure_seed_domain_is_pinned() {
    let master = SimSettings::default().seed;
    assert_eq!(
        cell_seed(master, &[0.0f64.to_bits(), strategy_tag("TS")]),
        0xC951_2002_55E4_5CFE
    );
    assert_eq!(
        cell_seed(master, &[0.2f64.to_bits(), strategy_tag("AT")]),
        0xF96A_5B6B_0FBF_EE38
    );
}

/// Same master seed, same coordinate words, different domain: a mesh
/// shard can never alias onto a figure-sweep cell.
#[test]
fn mesh_seed_never_aliases_the_figure_domain() {
    for master in [0u64, 41, 0xF1650, u64::MAX] {
        for coords in [
            &[][..],
            &[0][..],
            &[0.0f64.to_bits(), strategy_tag("TS")][..],
            &[3, 7][..],
        ] {
            assert_ne!(
                cell_seed(master, coords),
                mesh_seed(master, coords),
                "domains collided at master {master:#x}, coords {coords:?}"
            );
        }
    }
}

/// The analytic half of Figure 3 is pure math and cheap to recompute;
/// it must match the committed artifact exactly.
#[test]
fn fig3_analytic_sweep_matches_the_committed_artifact() {
    let spec = FigureSpec::for_figure(3);
    let fresh = Sweep::run(
        format!("Figure {} / {}", spec.figure, spec.scenario),
        spec.base,
        spec.axis,
    );
    let committed: serde_json::Value =
        serde_json::from_str(&committed_fig3()).expect("committed artifact parses");
    assert_eq!(
        Some(&serde::Serialize::to_value(&fresh)),
        committed.get("analytic"),
        "the analytic sweep drifted from the committed results/fig3.json"
    );
}
