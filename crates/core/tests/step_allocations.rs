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
//! The boxed units of `FleetBackend::Units` are held to the same count:
//! each `MobileUnit` is a one-row slot store that hears into the same
//! per-worker lists, so the AT churn cell pins at four on either
//! layout. (The public `MobileUnit::hear_report_and_answer` still
//! returns its lists in an `IntervalReport`; the cell never calls it.)
//! A query-plane cell allocates per materialized result, so its count
//! is not pinned; it is held to the same count on either layout.
//!
//! Out of scope: quasi-delay cells, whose server keeps an
//! obligation deque per item and allocates when one is first touched or
//! reaches a new longest length — 9 to 19 allocations per step at 250
//! clients and 8 to 10 at 1 000 (α = 3L, s = 0.2, μ = 10⁻³, 2 000
//! items), a count that moves with the update stream and does not grow
//! with the client count, so it is not pinned.
//!
//! This binary holds its own counting allocator and runs without the
//! test harness (`harness = false`): the harness's own threads and its
//! output capture allocate too, and would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sleepers::mesh::{CellGraph, MeshConfig};
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
    let boxed = config.fleet == Some(FleetBackend::Units);
    let mut cell = CellSimulation::new(config, strategy).expect("a valid cell");
    assert_eq!(
        cell.is_columnar(),
        !boxed,
        "the gate measures the owner the cell asks for"
    );
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
    an_at_churn_cell_on_boxed_units_allocates_as_the_columns_do();
    a_bounded_at_churn_cell_allocates_nothing_to_evict_or_classify_ghosts();
    a_two_worker_ts_cell_allocates_a_fixed_count_per_step_at_any_size();
    an_adaptive_ts_cell_reads_its_windows_without_allocating();
    a_mesh_shard_pays_only_its_report_digest_log();
    a_sleeper_sig_cell_decodes_without_allocating();
    a_query_cell_allocates_alike_on_either_store();
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

/// The same AT churn cell forced onto `FleetBackend::Units`: one boxed
/// `MobileUnit` per client, each a one-row slot store. Its sweep hears
/// every seat into the worker's lists and its installs write the seat's
/// own columns, sized when the seat was built, so the count is the
/// columnar cell's four, all the server's.
fn an_at_churn_cell_on_boxed_units_allocates_as_the_columns_do() {
    assert_pinned(
        "AT on boxed units",
        4,
        [250, 1_000],
        |clients| {
            CellConfig::new(widened(ScenarioParams::scenario3().with_s(0.2), clients))
                .with_clients(clients)
                .with_hotspot_size(30)
                .with_sweep_threads(1)
                .with_fleet(FleetBackend::Units)
        },
        Strategy::AmnesicTerminals,
    );
}

/// The same churn with every cache bounded at 20 of its 30 hot-spot
/// items under LRU: each refetch past the bound evicts, and each
/// requery of an evicted item classifies its ghost. Both happen in the
/// columns the fleet sized at construction, so the count is the
/// unbounded cell's four.
fn a_bounded_at_churn_cell_allocates_nothing_to_evict_or_classify_ghosts() {
    let config = |clients: usize| {
        CellConfig::new(widened(ScenarioParams::scenario3().with_s(0.2), clients))
            .with_clients(clients)
            .with_hotspot_size(30)
            .with_cache_capacity(20)
            .with_replacement(ReplacementPolicy::Lru)
            .with_sweep_threads(1)
    };
    // The bound bites: refetches evict, and requeries find fresh ghosts.
    let mut cell =
        CellSimulation::new(config(250), Strategy::AmnesicTerminals).expect("a valid cell");
    cell.run(WARM_UP as u64).expect("warm-up");
    let capacity = cell.report().capacity;
    assert!(
        capacity.evictions > 0 && capacity.capacity_misses > 0,
        "{capacity:?}"
    );
    assert_pinned(
        "bounded AT",
        4,
        [250, 1_000],
        config,
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

/// Adaptive TS on uplink-count feedback (Method 2), sleepers among the
/// workers: every listening client looks up each cached item's window
/// in the report it heard. The evaluation period (50 intervals) closes
/// at the end of the warm-up and next after the measured steps, so no
/// window moves while allocations are counted. The six allocations are
/// the server's: the update records, the window walk (its list, sort
/// scratch and output), the report's entries and its copy of the window
/// exceptions.
fn an_adaptive_ts_cell_reads_its_windows_without_allocating() {
    let strategy = Strategy::AdaptiveTs {
        method: FeedbackMethod::Method2,
        eval_period: 50,
        step: 1,
    };
    let config = |clients: usize| {
        let mut params = ScenarioParams::scenario1().with_s(0.2).with_mu(1e-3);
        params.n_items = 2_000;
        CellConfig::new(widened(params, clients))
            .with_clients(clients)
            .with_hotspot_size(30)
            .with_sweep_threads(1)
    };
    // The windows have left the default by the end of the warm-up, so
    // the lookups find exceptions to read.
    let cfg = config(250);
    let (k_0, n) = (cfg.params.k, cfg.params.n_items);
    let mut cell = CellSimulation::new(cfg, strategy).expect("a valid cell");
    cell.run(WARM_UP as u64).expect("warm-up");
    assert!(
        (0..n).any(|item| cell.adaptive_window(item) != Some(k_0)),
        "no window left k_0 = {k_0}"
    );
    assert_pinned("adaptive TS", 6, [250, 1_000], config, strategy);
}

/// The AT churn cell as one shard of a two-cell mesh, stepped on its
/// own (no unit moves): a shard runs on the columnar store too, and
/// makes the standalone cell's four allocations. Its report-digest log
/// adds none: `broadcast` serializes each report to checksum it for the
/// handoff's history-agreement test into a byte buffer the cell keeps
/// (`serialize_payload_into`), which stops growing once it has held the
/// longest report.
fn a_mesh_shard_pays_only_its_report_digest_log() {
    assert_pinned(
        "mesh shard AT",
        4,
        [250, 1_000],
        |clients| {
            let base = CellConfig::new(widened(ScenarioParams::scenario3().with_s(0.2), clients))
                .with_clients(clients)
                .with_hotspot_size(30)
                .with_sweep_threads(1);
            MeshConfig::new(CellGraph::line(2), base, MasterSeed(41)).cell_config(0)
        },
        Strategy::AmnesicTerminals,
    );
}

/// SIG in `sleeper_sig`'s shape — Scenario 1, heap wake, one sweep
/// worker — with sleepers (s = 0.9, so each interval some clients
/// listen). Every listening client builds its syndrome into the sweep
/// worker's scratch and decodes its cache in one walk over the
/// decoder's shared membership masks, so no allocation is per client.
/// The three are the server's: the update records, and the
/// copy-on-write of the signature vector, whose first patch after a
/// report copies the `Arc<Vec<_>>` (its shared block and its buffer)
/// that the clients who heard that report still hold as `last_report`.
///
/// The update rate is raised from Scenario 1's μ = 10⁻⁴ (one update per
/// interval over 1 000 items) to 10⁻²: at 10⁻⁴ a step with no update
/// allocates nothing, and an item's first update fills its subset list
/// (one exact-size allocation, pinned in `sw-signature`'s
/// `subset_list_allocations`), so the count follows the update stream,
/// not the client count. At 10⁻² every step updates and every list is
/// filled in the warm-up.
fn a_sleeper_sig_cell_decodes_without_allocating() {
    assert_pinned(
        "SIG",
        3,
        [250, 1_000],
        |clients| {
            let params = ScenarioParams::scenario1().with_s(0.9).with_mu(1e-2);
            CellConfig::new(widened(params, clients))
                .with_clients(clients)
                .with_hotspot_size(30)
                .with_wake_mode(WakeMode::Heap)
                .with_sweep_threads(1)
        },
        Strategy::Signatures,
    );
}

/// `boxed_query_bounded`'s shape — TS with the query plane armed, every
/// cache bounded at 24 of its 30 hot-spot items under LRU, Zipf 0.8
/// picks — on either store. The plane allocates per materialized entry
/// (`sw-query`'s `settle` builds each entry's result rows) and per
/// footprint check (its fetch list), so the count follows the plane's
/// draws and is not pinned. What holds is that the store adds nothing:
/// each measured step allocates exactly as often on boxed units as on
/// the slot store, at both sizes, since the plane is a fleet column
/// either way and reads its client's cache through the same view.
/// Measured per step: 182 to 249 at 250 clients, 804 to 933 at 1 000.
fn a_query_cell_allocates_alike_on_either_store() {
    let config = |clients: usize, backend: FleetBackend| {
        let mut params = ScenarioParams::scenario1().with_s(0.5);
        params.n_items = 2_000;
        CellConfig::new(widened(params, clients))
            .with_clients(clients)
            .with_hotspot_size(30)
            .with_sweep_threads(1)
            .with_query(QueryPlaneConfig::new())
            .with_cache_capacity(24)
            .with_replacement(ReplacementPolicy::Lru)
            .with_query_zipf(0.8)
            .with_fleet(backend)
    };
    let strategy = Strategy::BroadcastTimestamps;
    for clients in [250, 1_000] {
        let boxed = allocations_per_step(config(clients, FleetBackend::Units), strategy);
        let columnar = allocations_per_step(config(clients, FleetBackend::Columnar), strategy);
        assert_eq!(
            boxed, columnar,
            "query cell at {clients} clients: allocations per step differ between stores"
        );
        let least = columnar.iter().min().expect("measured steps");
        let most = columnar.iter().max().expect("measured steps");
        println!(
            "query plane at {clients} clients: {least} to {most} allocations per step \
             on either store: ok"
        );
    }
}
