//! The allocation gate of the interval loop: after warm-up, a columnar
//! cell's `step()` makes the same few heap allocations whether it hosts
//! a few hundred clients or four times as many — not one or two per
//! client that invalidates or misses. The sweep appends each client's invalidated ids and uplink
//! requests to lists the cell keeps across intervals, and the awake
//! set, the heard set and the per-client exchange counts are reused the
//! same way (DESIGN §8 item 10). What remains is the server's: the
//! update records, the window walk and the report it builds, sized by
//! the update stream and never by the client count — plus, on a
//! two-worker sweep, the scoped threads.
//!
//! The count is pinned, so a change that adds an allocation to the
//! interval loop fails here and has to say why. It holds with the
//! `observe` and `faults` features compiled in as long as neither is
//! armed, which is how these cells are built.
//!
//! Out of scope: SIG and HYB cells, whose syndrome decoder allocates its
//! diagnosis inside `sw-signature`; boxed units, which return their
//! lists in a public `IntervalReport`. One per-client allocation is left
//! on purpose: a client's pending-query list keeps its capacity, so it
//! grows only when the client poses more queries in one interval than
//! in any interval before. Both cells pose ~30 queries per client per
//! interval (λ·H·L = 0.1 × 30 × 10), so every list reaches its
//! steady capacity during the warm-up.
//!
//! This binary holds its own counting allocator and runs without the
//! test harness (`harness = false`): the harness's own threads and its
//! output capture allocate too, and would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sleepers::prelude::*;

/// The system allocator, counting every allocation and reallocation on
/// any thread (the sweep workers' included).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 200;
const MEASURED: usize = 30;

/// Allocations made by each of `MEASURED` steps after `WARM_UP` steps.
fn allocations_per_step(config: CellConfig, strategy: Strategy) -> Vec<u64> {
    let mut cell = CellSimulation::new(config, strategy).expect("a valid cell");
    assert!(cell.is_columnar(), "the gate measures the columnar store");
    for _ in 0..WARM_UP {
        cell.step().expect("warm-up step");
    }
    (0..MEASURED)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            cell.step().expect("measured step");
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// The channel widened as the benchmark widens it, so no exchange is
/// ever deferred and the uplink queue stays empty.
fn widened(mut params: ScenarioParams, clients: usize) -> ScenarioParams {
    params.bandwidth_bps *= 2_048 * (clients as u64).div_ceil(1_000);
    params
}

/// Every measured step of the cell `config(clients)` builds, at each
/// size in `sizes`, makes exactly `pinned` allocations.
fn assert_pinned(
    name: &str,
    pinned: u64,
    sizes: [usize; 2],
    config: impl Fn(usize) -> CellConfig,
    strategy: Strategy,
) {
    for clients in sizes {
        let counts = allocations_per_step(config(clients), strategy);
        assert!(
            counts.iter().all(|&c| c == pinned),
            "{name} at {clients} clients: allocations per step {counts:?}, pinned at {pinned}"
        );
    }
    println!("{name}: {pinned} allocations per step at {sizes:?} clients: ok");
}

fn main() {
    an_at_churn_cell_allocates_four_times_per_step_at_any_size();
    a_two_worker_ts_cell_allocates_a_fixed_count_per_step_at_any_size();
}

/// Scenario 3's churn (μ = λ = 0.1, AT): each interval invalidates and
/// refetches most of every awake cache, on a one-worker sweep. The four
/// allocations are the server's: the update records, the window walk
/// and its sort scratch, and the report's id list.
fn an_at_churn_cell_allocates_four_times_per_step_at_any_size() {
    assert_pinned(
        "AT",
        4,
        [250, 1_000],
        |clients| {
            CellConfig::new(widened(ScenarioParams::scenario3().with_s(0.2), clients))
                .with_clients(clients)
                .with_hotspot_size(30)
                .with_sweep_threads(1)
        },
        Strategy::AmnesicTerminals,
    );
}

/// Workaholic TS on a two-worker sweep. Nobody sleeps, so every client
/// listens, and at both sizes enough of them listen for the sweep to
/// take its parallel path (it runs on one worker below 256 listeners).
/// The scope and its two threads add seven allocations (the scope's
/// shared state, and each thread's handle, packet and start closure) to
/// the server's four.
fn a_two_worker_ts_cell_allocates_a_fixed_count_per_step_at_any_size() {
    assert_pinned(
        "TS",
        11,
        [300, 1_200],
        |clients| {
            let mut params = ScenarioParams::scenario1().with_s(0.0).with_mu(1e-3);
            params.n_items = 2_000;
            CellConfig::new(widened(params, clients))
                .with_clients(clients)
                .with_hotspot_size(30)
                .with_sweep_threads(2)
        },
        Strategy::BroadcastTimestamps,
    );
}
