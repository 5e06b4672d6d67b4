#!/usr/bin/env sh
# Repo health check: build, full test suite, lints, smokes.
# Everything runs offline against the vendored registry.
set -eu

cd "$(dirname "$0")/.."
repo=$PWD

# The script leaves the tree and the process table as it found them,
# however it ends: every scratch file lives under $tmp, every
# background process is listed in $children, and benchmark/Cargo.lock
# is put back (a PR that changes the crates may not touch benchmark/,
# so when it moves a dependency edge cargo re-resolves that lock file
# on the spot — offline, path dependencies only).
tree_before=$(git status --porcelain)
tmp=$(mktemp -d)
cp benchmark/Cargo.lock "$tmp/benchmark.lock"
children=""
cleanup() {
    status=$?
    trap - EXIT
    # shellcheck disable=SC2086
    kill $children 2>/dev/null || true
    cp "$tmp/benchmark.lock" benchmark/Cargo.lock
    rm -rf "$tmp"
    [ "$(git status --porcelain)" = "$tree_before" ] || {
        echo "check.sh changed the working tree:" >&2
        git status --porcelain >&2
        status=1
    }
    [ "$status" -ne 0 ] || echo "All checks passed."
    exit "$status"
}
trap cleanup EXIT
trap 'exit 129' HUP INT TERM

fail() {
    echo "$1" >&2
    exit 1
}

# Runs "$@" until it succeeds: every 0.1 s, for 10 s at most.
retry() {
    retry_tries=0
    until "$@"; do
        retry_tries=$((retry_tries + 1))
        [ "$retry_tries" -le 100 ] || return 1
        sleep 0.1
    done
}

# Builds an sw-experiments bin, then runs the built binary with quick
# settings from a scratch directory: outside cargo its results_dir() is
# ./results, so a smoke never overwrites the committed full-run
# artifacts under results/.
# Usage: smoke <features, "" for none> <bin> [bin args...]
mkdir "$tmp/smoke"
smoke() {
    smoke_bin=$2
    cargo build --release -q -p sw-experiments --features "$1" --bin "$smoke_bin"
    shift 2
    (cd "$tmp/smoke" && SW_FAST=1 "$repo/target/release/$smoke_bin" "$@" >/dev/null)
}

echo "==> every library crate forbids unsafe code"
# The SIGTERM hook is a private module of the sw-serve binary, so no
# library needs an unsafe block; a crate that drops the attribute fails.
for lib in crates/*/src/lib.rs; do
    grep -qx '#!\[forbid(unsafe_code)\]' "$lib" || fail "$lib lacks #![forbid(unsafe_code)]"
done

echo "==> cargo build --release"
cargo build --release

# Two feature configurations are tested and linted in full: every
# cfg(feature) test in the tree also runs under observe,faults and
# every cfg(not(feature)) test under the default build. Each pass is
# the whole suite for its configuration, so no crate or test filter is
# re-run on its own. The single-feature builds only have to compile.
echo "==> cargo test --workspace (release)"
cargo test --workspace --release -q

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> benchmark smoke (benchmark/: every workload at 1/50 size, all checks on)"
# Its own package and lock file, outside the workspace the legs above
# cover; this is what keeps it compiling against the crates' public API.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> live smoke (sw-serve + metrics plane, one sw-mu round, sw-top --once, clean shutdown)"
./target/release/sw-serve --port 0 --clients 1 --intervals 30 --interval-ms 20 \
    --announce "$tmp/live_addr" \
    --metrics-port 0 --metrics-announce "$tmp/live_metrics" --flight 16 >/dev/null &
live_serve_pid=$!
children="$children $live_serve_pid"
retry [ -s "$tmp/live_addr" ] && retry [ -s "$tmp/live_metrics" ] ||
    fail "sw-serve never announced its addresses"
live_metrics_addr=$(cat "$tmp/live_metrics")
# The ops plane is probed *before* the one client registers: sw-serve
# blocks in wait_for_registration until then, so the session cannot
# have ended under the probes however slow the host (a 30 x 20 ms
# session is over 600 ms after sw-mu connects). Health, a well-formed
# Prometheus page, and one sw-top frame; the pages of a ticking session
# are the live crate's ops_plane and conformance tests' business.
if command -v curl >/dev/null 2>&1; then
    [ "$(curl -sf "http://$live_metrics_addr/healthz")" = "ok" ] ||
        fail "metrics /healthz did not answer ok"
    live_metrics_page() { curl -sf "http://$live_metrics_addr/metrics" | grep -q '^sw_interval'; }
    retry live_metrics_page || fail "metrics /metrics is missing sw_interval"
else
    echo "   curl not found; probing via sw-top only"
fi
live_top_frame() {
    ./target/release/sw-top --metrics "$live_metrics_addr" --once | grep -q 'sw-top'
}
retry live_top_frame || fail "sw-top --once produced no dashboard frame"
./target/release/sw-mu --server "$(cat "$tmp/live_addr")" --index 0 --clients 1 >/dev/null &
live_mu_pid=$!
children="$children $live_mu_pid"
wait "$live_mu_pid"
wait "$live_serve_pid"
children=""

echo "==> failover smoke (two-node sw-serve --ha-node fleet, kill -9 primary mid-run, zero-stale takeover)"
ha_dir=$tmp/ha
mkdir "$ha_dir"
./target/release/sw-serve --port 0 --clients 2 --intervals 120 --interval-ms 25 \
    --ha-node 0 --ha-announce "$ha_dir/node0" --ha-peer "$ha_dir/node1" \
    --announce "$ha_dir/addr0" \
    --metrics-port 0 --metrics-announce "$ha_dir/metrics0" >/dev/null 2>&1 &
ha_pid0=$!
./target/release/sw-serve --port 0 --clients 2 --intervals 120 --interval-ms 25 \
    --ha-node 1 --ha-announce "$ha_dir/node1" --ha-peer "$ha_dir/node0" \
    --metrics-port 0 --metrics-announce "$ha_dir/metrics1" >"$ha_dir/serve1.log" 2>&1 &
ha_pid1=$!
children="$children $ha_pid0 $ha_pid1"
retry [ -s "$ha_dir/addr0" ] && retry [ -s "$ha_dir/metrics0" ] &&
    retry [ -s "$ha_dir/metrics1" ] || fail "HA fleet never announced its addresses"
ha_addr0=$(cat "$ha_dir/addr0")
ha_addr1=$(awk '{print $2}' "$ha_dir/node1")
ha_metrics0=$(cat "$ha_dir/metrics0")
ha_metrics1=$(cat "$ha_dir/metrics1")
./target/release/sw-mu --server "$ha_addr0,$ha_addr1" --index 0 --clients 2 >/dev/null &
ha_mu0=$!
./target/release/sw-mu --server "$ha_addr0,$ha_addr1" --index 1 --clients 2 >/dev/null &
ha_mu1=$!
children="$children $ha_mu0 $ha_mu1"
# Kill the primary the hard way once its own metrics page says it is in
# the middle third of the 120 intervals — mid-run by its clock, not by
# this script's, on a slow host and a fast one alike.
ha_mid_run() {
    ./target/release/sw-top --metrics "$ha_metrics0" --once 2>/dev/null |
        grep -Eq 'interval (4[1-9]|[5-7][0-9]|80)( |$)'
}
retry ha_mid_run || fail "primary never reported an interval in 41..80"
kill -9 "$ha_pid0" 2>/dev/null || true
# The takeover must be observable *during* the run: the replica's
# epoch gauge bumps to 2 and its role flips to PRIMARY.
ha_took_over() {
    ./target/release/sw-top --metrics "$ha_metrics1" --once 2>/dev/null |
        grep -q 'epoch 2 PRIMARY'
}
retry ha_took_over || fail "replica never took over (no epoch-2 PRIMARY on its metrics page)"
# Everyone still standing must complete the session cleanly.
wait "$ha_mu0"
wait "$ha_mu1"
wait "$ha_pid1"
children=""
grep -q 'took over at interval' "$ha_dir/serve1.log" ||
    fail "survivor finished without reporting its takeover"

echo "==> cargo check --workspace --all-targets (--features observe, then --features faults)"
cargo check --workspace --all-targets --features observe
cargo check --workspace --all-targets --features faults

echo "==> cargo test --workspace (release, --features observe,faults)"
# The lockstep crash conformance of crates/live/tests/failover.rs and the
# observe-side SIG counters of the mesh fault soak run here.
cargo test --workspace --release -q --features observe,faults

echo "==> cargo clippy --workspace -D warnings (--features observe,faults)"
cargo clippy --workspace --all-targets --features observe,faults -- -D warnings

echo "==> trace_run smokes (figure 3 at quick settings; a lockstep live session, merged server+client trace; a 2-cell columnar mesh with its per-cell migrations column)"
smoke observe trace_run 3
smoke observe trace_run live
smoke observe trace_run mesh

# sw-exp check runs every catalogue row at full settings, fig_loss (a
# faults row) included; the quick settings are covered by
# crates/experiments/tests/catalogue.rs, which parses every row's run(true).
cargo build --release -q -p sw-experiments --features faults --bin sw-exp

echo "==> sw-exp check (all 21 results/*.json regenerated at full settings and byte-compared; 31 s total on 2 vCPUs, fig6 13 s of it; per-row times on stderr)"
./target/release/sw-exp check >/dev/null

echo "==> sw-exp check --stat (10 seed replicates of every row against results/*.ci.json, two-sample test per leaf; 350-400 s on 2 vCPUs, fig6 ~180-220 s of it)"
./target/release/sw-exp check --stat >/dev/null

echo "==> hot-path zero-cost guard: observe+faults compiled in must stay within 5%"
# Build the probe twice — feature-off, then with observe+faults armed
# at compile time (both disabled at runtime) — and interleave rounds.
# Each round prints the 5th percentile of its 60 timed intervals; the
# best-of-N comparison of those floors makes the A/B a hard guard on
# the zero-cost disabled path instead of an eyeballed smoke.
cargo build --release -q -p sw-experiments --bin hot_guard
cp target/release/hot_guard "$tmp/hot_guard_off"
cargo build --release -q -p sw-experiments --features observe,faults --bin hot_guard
hot_off=""
hot_on=""
for _ in 1 2 3 4 5; do
    hot_off="$hot_off $("$tmp/hot_guard_off")"
    hot_on="$hot_on $(target/release/hot_guard)"
done
echo "   feature-off rounds (p05 interval, us):$hot_off"
echo "   feature-on  rounds (p05 interval, us):$hot_on"
awk -v off="$hot_off" -v on="$hot_on" 'BEGIN {
    split(off, a, " "); split(on, b, " ");
    min_off = a[1]; for (i in a) if (a[i] + 0 < min_off) min_off = a[i] + 0;
    min_on = b[1]; for (i in b) if (b[i] + 0 < min_on) min_on = b[i] + 0;
    ratio = min_on / min_off;
    printf "   best feature-off %.1f us, best feature-on %.1f us (ratio %.3f)\n",
        min_off, min_on, ratio;
    if (ratio > 1.05) {
        printf "HOT-PATH GUARD FAILED: features compiled in cost %.1f%% (> 5%%)\n",
            (ratio - 1) * 100 > "/dev/stderr";
        exit 1;
    }
}'
