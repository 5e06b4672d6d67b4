#!/usr/bin/env sh
# Profiles one benchmark workload: builds the release sw-benchmark,
# runs its timed leg under `gprofng collect app`, and prints the
# functions with the largest exclusive shares of CPU time.
#
# Usage: scripts/profile.sh <workload> [seconds]   (default 6 s)
#        e.g. scripts/profile.sh boxed_query_bounded
#
# The build goes to target/profile/ and the experiment to a temp dir
# that is removed on exit, so nothing is written under benchmark/; a
# build that re-resolves benchmark/Cargo.lock has it put back, as
# scripts/check.sh does.
set -eu

[ $# -ge 1 ] && [ $# -le 2 ] || {
    echo "usage: scripts/profile.sh <workload> [seconds]" >&2
    exit 2
}
command -v gprofng >/dev/null 2>&1 || {
    echo "profile.sh: gprofng not found on PATH (it ships with GNU binutils 2.39 or later)" >&2
    exit 1
}
workload=$1
seconds=${2:-6}

cd "$(dirname "$0")/.."
repo=$PWD
tmp=$(mktemp -d)
cp benchmark/Cargo.lock "$tmp/benchmark.lock"
cleanup() {
    status=$?
    trap - EXIT
    cp "$tmp/benchmark.lock" "$repo/benchmark/Cargo.lock"
    rm -rf "$tmp"
    exit "$status"
}
trap cleanup EXIT
trap 'exit 129' HUP INT TERM

cargo build --release --offline -q --manifest-path benchmark/Cargo.toml \
    --target-dir "$repo/target/profile"
# From the temp dir: gprofng and the run leave their files there.
cd "$tmp"
gprofng collect app -o profile.er "$repo/target/profile/release/sw-benchmark" \
    --workload "$workload" --seconds "$seconds" >run.txt 2>collect.txt || {
    cat collect.txt run.txt >&2
    exit 1
}
grep -E '^(interval_us_p05|setup_s) ' run.txt
gprofng display text -limit 15 -functions profile.er
