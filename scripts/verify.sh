#!/usr/bin/env sh
# One-shot verification: build everything, run the full test suite, and
# regenerate one paper artifact end to end through the lab engine.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> python3 perfbench/smoke.py"
# The repository benchmark at reduced size, both modes: every workload
# must print every named metric, and the small rebuild/hall reference
# episodes must match the digests in perfbench/reference.json, so a
# change that shifts a result bit fails here.
python3 perfbench/smoke.py

echo "==> cargo test -q -p disklab --test lab_determinism"
# Fleet + engine determinism: threads=1 vs threads=8 byte-identical,
# repeat runs served entirely from cache.
cargo test -q -p disklab --test lab_determinism

echo "==> cargo run --release --bin lab -- table1"
cargo run --release --bin lab -- table1

echo "==> cargo run --release --bin lab -- run fleet_routing"
# Full scale, so the regenerated artifact matches the committed
# results/fleet_routing.json byte for byte.
cargo run --release --bin lab -- run fleet_routing --no-cache
git diff --exit-code -- results/fleet_routing.json results/fleet_routing.txt

echo "==> cargo run --release --bin lab -- run scenario_cooling"
# The fleet coordinator's speed-scaling path under a cooling excursion:
# payload, both timeseries and the report must match byte for byte.
cargo run --release --bin lab -- run scenario_cooling --no-cache
git diff --exit-code -- results/scenario_cooling.json results/scenario_cooling.txt \
    results/scenario_cooling_dtm.csv results/scenario_cooling_free.csv

echo "==> cargo run --release --bin lab -- run scenario_rebuild"
# The heaviest committed experiment, regenerated at full scale: its
# payload, timeseries and report must match the committed files byte
# for byte.
cargo run --release --bin lab -- run scenario_rebuild --no-cache
git diff --exit-code -- results/scenario_rebuild.json results/scenario_rebuild.csv \
    results/scenario_rebuild.txt

echo "==> cargo test -q -p disklab --test lab_determinism trace_bytes"
# Trace determinism: the instrumented event stream must be
# byte-identical at any shard count.
cargo test -q -p disklab --test lab_determinism trace_bytes_are_identical_at_any_shard_count

echo "==> cargo run --release --bin lab -- trace figure5"
# The single-drive controller's slack-ramp path: the event stream,
# metrics and timeseries must match the committed files byte for byte.
cargo run --release --bin lab -- trace figure5
git diff --exit-code -- results/trace_figure5.ndjson results/trace_figure5_metrics.json \
    results/trace_figure5_timeseries.csv

echo "==> cargo run --release --bin lab -- trace fleet_routing scenario_rebuild"
# The only committed traces with routing decisions, coordinator
# actions, drive failures and rebuild progress: the NDJSON renderer's
# bytes for those events, plus the metrics and timeseries, must match
# the committed files.
cargo run --release --bin lab -- trace fleet_routing
cargo run --release --bin lab -- trace scenario_rebuild
git diff --exit-code -- results/trace_fleet_routing.ndjson \
    results/trace_fleet_routing_metrics.json results/trace_fleet_routing_timeseries.csv \
    results/trace_scenario_rebuild.ndjson results/trace_scenario_rebuild_metrics.json \
    results/trace_scenario_rebuild_timeseries.csv

echo "==> shard-scaling smoke: 4 shards byte-identical to serial"
# The parallel epoch boundary must be invisible in the results: the
# hall experiment and the raw fleet kernel both have to produce
# byte-identical payloads whether the epoch loop runs on one shard or
# many.
cargo test -q -p disklab --test lab_determinism -- \
    fleet_hall_payload_is_byte_identical_at_any_shard_count \
    fleet_shard_count_does_not_change_results

echo "==> scenario smoke: rebuild storm byte-identical at any shard count"
# Scenario injections fire in the serial stretch of the epoch boundary,
# so a rebuild storm must replay byte-identically however many shards
# the loop runs on.
cargo test -q -p disklab --test lab_determinism -- \
    scenario_rebuild_is_byte_identical_at_any_shard_count

echo "==> cargo run --release --bin lab -- bench scenario --quick"
# Scenario subsystem bench: trace-replay draw throughput plus the
# epoch-cost overhead of a rebuild storm against a clean baseline,
# gated against the committed BENCH_scenario.json.
cargo run --release --bin lab -- bench scenario --quick

echo "==> cargo run --release --bin lab -- bench surrogate --quick"
# Capacity-plan screening bench: the fitted-grid screen against the
# full simulator, with the per-candidate screening cost gated against
# the committed BENCH_surrogate.json.
cargo run --release --bin lab -- bench surrogate --quick

echo "==> cargo run --release --bin lab -- bench --quick"
# Quick bench exercises every suite (thermal kernel, storage event
# core, fleet phase split, obs, twin) and asserts two in-process
# bounds — paired null-sink fleet runs must agree to within the noise
# margin, and the hall workload's measured serial fraction must stay
# under the shard-scaling gate (the committed BENCH_fleet.json pins
# the tighter < 3%) — then diffs its re-measured rates against every
# committed BENCH_*.json baseline and exits non-zero past the
# regression tolerance. Projected shard speedups (hosts without 8
# cores) are excluded from the diff by construction.
cargo run --release --bin lab -- bench --quick

echo "==> twin smoke test (serve, 3 concurrent what-if queries, 2 runs)"
# The digital-twin server must answer concurrent pinned queries
# byte-identically — within a run (racing clients) and across two
# fresh server processes.
LAB=target/release/lab
TWIN_TMP=$(mktemp -d)
trap 'rm -rf "$TWIN_TMP"' EXIT
TWIN_QUERY='{"cmd":"whatif","inlet_delta_c":5.0,"horizon_epochs":2,"at_epoch":2}'
twin_round() {
    round="$1"
    "$LAB" twin serve --enclosures 2 --epoch-ms 1 > "$TWIN_TMP/addr.$round" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^twin listening on //p' "$TWIN_TMP/addr.$round")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "twin server never printed its address"; exit 1; }
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.a" &
    qa=$!
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.b" &
    qb=$!
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.c" &
    qc=$!
    wait "$qa" "$qb" "$qc"
    "$LAB" twin query --addr "$addr" '{"cmd":"shutdown"}' > /dev/null
    wait "$serve_pid"
    cmp -s "$TWIN_TMP/$round.a" "$TWIN_TMP/$round.b" || {
        echo "twin: concurrent queries disagreed in round $round"; exit 1; }
    cmp -s "$TWIN_TMP/$round.b" "$TWIN_TMP/$round.c" || {
        echo "twin: concurrent queries disagreed in round $round"; exit 1; }
    grep -q '"perturbed"' "$TWIN_TMP/$round.a" || {
        echo "twin: round $round returned no report"; cat "$TWIN_TMP/$round.a"; exit 1; }
}
twin_round 1
twin_round 2
cmp -s "$TWIN_TMP/1.a" "$TWIN_TMP/2.a" || {
    echo "twin: answers differ across server runs"; exit 1; }
echo "twin smoke test: OK"

echo "verify: OK"
