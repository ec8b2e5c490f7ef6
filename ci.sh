#!/usr/bin/env sh
# CI entry point: tier-1 build + test, then the parallel-determinism suite
# twice with different harness thread counts — the golden-report guarantee
# must hold regardless of how the test harness itself schedules the runs.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --workspace --all-targets: no warnings"
# Every target (libs, bins, tests, benches, examples) must build without a
# rustc warning. Cargo replays the cached diagnostics of up-to-date units,
# so a warning fails every run, not only the one that compiled it.
BUILD_LOG="$(mktemp)"
if ! cargo build --workspace --all-targets 2> "$BUILD_LOG"; then
    cat "$BUILD_LOG" >&2
    exit 1
fi
if grep -q '^warning' "$BUILD_LOG"; then
    cat "$BUILD_LOG" >&2
    echo "    ERROR: the build printed warnings" >&2
    exit 1
fi
rm -f "$BUILD_LOG"
echo "    all targets build warning-free"

echo "==> cargo test --workspace -q"
# The root manifest is itself a package, so a bare `cargo test` would only
# test openforhire-suite; --workspace also runs every crate's unit tests
# and crates/*/tests suites.
cargo test --workspace -q

echo "==> determinism suite, --test-threads=1 (release, includes standard profile)"
cargo test --release -q --test parallel_determinism --test determinism -- --test-threads=1 --include-ignored

echo "==> determinism suite, --test-threads=4 (release)"
cargo test --release -q --test parallel_determinism --test determinism -- --test-threads=4 --include-ignored

echo "==> observability artifacts: emit (quick preset) + schema validation"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./target/release/openforhire study --summary --preset quick \
    --metrics-out "$OBS_TMP/metrics.json" --trace-out "$OBS_TMP/trace.jsonl" >/dev/null
cargo run --release -q --example obs_validate -- "$OBS_TMP/metrics.json" "$OBS_TMP/trace.jsonl"

echo "==> chaos smoke: hostile schedule, workers 1 vs 8, byte-for-byte"
# Hostile runs are where unserved datagrams meet fault duplicates, so the
# snapshots (event counts included) are compared as well as the reports.
# Injected resets also end honeypot sessions early, so the store's event
# rows and the trace are compared too.
for W in 1 8; do
    ./target/release/openforhire study --preset quick --faults hostile --workers "$W" \
        --metrics-out "$OBS_TMP/chaos_w$W.json" --store-out "$OBS_TMP/chaos_w$W.store" \
        --trace-out "$OBS_TMP/chaos_w$W.trace" > "$OBS_TMP/chaos_w$W.txt"
done
cmp "$OBS_TMP/chaos_w1.txt" "$OBS_TMP/chaos_w8.txt"
cmp "$OBS_TMP/chaos_w1.store" "$OBS_TMP/chaos_w8.store"
cmp "$OBS_TMP/chaos_w1.trace" "$OBS_TMP/chaos_w8.trace"
echo "    reports, stores and traces identical under faults at workers 1 and 8"
./target/release/openforhire obsdiff "$OBS_TMP/chaos_w1.json" "$OBS_TMP/chaos_w8.json"
echo "    snapshots under faults: deterministic sections identical (exit 0)"

echo "==> paper-smoke: report, store, trace, exports and snapshot invariant across workers"
# paper-smoke is the down-sampled twin of paper-scale: the full IPv4 address
# space with a CI-sized population, exercising the indexed target space, the
# timer wheel and the streaming (first-touch) host population end to end.
# One run per worker count emits every artifact; workers 1 vs 4 must give a
# byte-identical report, store and trace, and snapshots whose deterministic
# sections match (`obsdiff` exits 0). The scan export carries every device
# response's raw bytes, so a shared response cache whose contents depended
# on which worker ran which shard would fail its comparison. The events and
# flowtuples exports carry every honeypot event and telescope flow as merged
# from the shards.
for W in 1 4; do
    ./target/release/openforhire study --preset paper-smoke --workers "$W" \
        --store-out "$OBS_TMP/paper_w$W.store" --metrics-out "$OBS_TMP/paper_w$W.json" \
        --trace-out "$OBS_TMP/paper_w$W.trace" > "$OBS_TMP/paper_w$W.txt"
    for D in scan events flowtuples; do
        ./target/release/openforhire export "$D" --preset paper-smoke --workers "$W" \
            > "$OBS_TMP/paper_w$W.$D.jsonl"
    done
done
cmp "$OBS_TMP/paper_w1.txt" "$OBS_TMP/paper_w4.txt"
echo "    paper-smoke reports identical at workers 1 and 4"
cmp "$OBS_TMP/paper_w1.store" "$OBS_TMP/paper_w4.store"
echo "    paper-smoke stores byte-identical at workers 1 and 4"
cmp "$OBS_TMP/paper_w1.trace" "$OBS_TMP/paper_w4.trace"
echo "    paper-smoke traces byte-identical at workers 1 and 4"
for D in scan events flowtuples; do
    cmp "$OBS_TMP/paper_w1.$D.jsonl" "$OBS_TMP/paper_w4.$D.jsonl"
    echo "    paper-smoke $D exports byte-identical at workers 1 and 4"
done
./target/release/openforhire obsdiff "$OBS_TMP/paper_w1.json" "$OBS_TMP/paper_w4.json"
echo "    paper-smoke snapshots: deterministic sections identical (exit 0)"
cargo test --release -q -p ofh-net --test wheel_props --test lazy_hosts --test stateless_probes
cargo test --release -q --test parallel_determinism implicit_population_matches_eager

echo "==> scaling-smoke: report bytes invariant across workers at fixed shard counts"
# Shard count is a semantic knob (1, 16 and 64 are different traces);
# worker count is a pure execution knob. Golden-diff byte-for-byte at each
# count. At 1 shard the extra workers are capped away, so the run is a
# rerun check; at 64 the worker axis {4, 8, 32} runs more threads than the
# host has cores, all taking shards from one shared counter.
for SHARDS in 1 16 64; do
    ./target/release/openforhire study --preset quick --shards "$SHARDS" --workers 1 \
        > "$OBS_TMP/scale_s${SHARDS}_w1.txt"
    WORKERS_AXIS="4"
    [ "$SHARDS" = "64" ] && WORKERS_AXIS="4 8 32"
    for W in $WORKERS_AXIS; do
        ./target/release/openforhire study --preset quick --shards "$SHARDS" --workers "$W" \
            > "$OBS_TMP/scale_s${SHARDS}_w${W}.txt"
        cmp "$OBS_TMP/scale_s${SHARDS}_w1.txt" "$OBS_TMP/scale_s${SHARDS}_w${W}.txt"
    done
    echo "    shards=$SHARDS: reports identical at workers {1, $WORKERS_AXIS}"
done

echo "==> store-smoke: query engine over the paper-smoke store + latency budget"
# The query CLI runs against the store written above. Tables 4, 5 and 7
# re-rendered from it run the live study's folds over rows decoded from the
# store's columns (5 and 7 read the derived `misconfig` and `src_class`
# columns), so they must match the live study's renders byte for byte; a
# mutated store is an `error:` and exit 1 (tests/query_cli.rs, run by
# `cargo test --workspace` above). A 10k-query mini workload must hold a
# (generous) point-lookup p99 budget.
./target/release/openforhire query --store "$OBS_TMP/paper_w1.store" info >/dev/null
for T in 4 5 7; do
    ./target/release/openforhire query --store "$OBS_TMP/paper_w1.store" table "$T" \
        > "$OBS_TMP/store_table$T.txt"
    ./target/release/openforhire table "$T" --preset paper-smoke > "$OBS_TMP/live_table$T.txt"
    cmp "$OBS_TMP/store_table$T.txt" "$OBS_TMP/live_table$T.txt"
done
echo "    store-derived Tables 4, 5 and 7 match the live study renders"
BENCH_QUERY_N=10000 BENCH_QUERY_P99_BUDGET_US=5000 \
    BENCH_QUERY_OUT="$OBS_TMP/query.json" \
    cargo bench -q -p ofh-bench --bench query
grep -q '"class": "point"' "$OBS_TMP/query.json"
echo "    10k-query mini workload within p99 budget"

echo "==> obs-gate: regression sentinel + flight recorder smoke"
# Perturbing one deterministic counter in the paper-smoke snapshot must
# flip `obsdiff` to a nonzero exit. Then a fault-windowed run with the
# flight recorder armed must leave per-shard flight-*.jsonl dumps behind.
sed 's/"net.events_processed":[0-9]*/"net.events_processed":1/' \
    "$OBS_TMP/paper_w1.json" > "$OBS_TMP/obs_perturbed.json"
if ./target/release/openforhire obsdiff "$OBS_TMP/paper_w1.json" "$OBS_TMP/obs_perturbed.json" \
    > /dev/null 2>&1; then
    echo "    ERROR: obsdiff accepted a perturbed deterministic counter" >&2
    exit 1
fi
echo "    perturbed deterministic counter rejected (nonzero exit)"
./target/release/openforhire study --preset quick --faults hostile \
    --flight-dir "$OBS_TMP/flight" --summary >/dev/null 2>&1
ls "$OBS_TMP"/flight/flight-*.jsonl >/dev/null
echo "    fault-window run left flight-recorder dumps in --flight-dir"

echo "==> scaling curve, bounded mini grid (exercises the bench harness)"
BENCH_SCALING_MINI=1 BENCH_SCALING_OUT="$OBS_TMP/scaling.json" \
    cargo bench -q -p ofh-bench --bench scaling
grep -q '"preset": "quick", "shards": 64' "$OBS_TMP/scaling.json"
echo "    mini scaling grid written and well-formed"

echo "==> bench suite, smoke mode (every body runs once, no timing)"
cargo bench -p ofh-bench -- --test

echo "==> e2ebench smoke: BENCHMARK.json contract + every workload for 1 s"
# The end-to-end benchmark is a package of its own, outside the workspace,
# so nothing above builds it. Its tests check BENCHMARK.json against the
# metric tables, then run every workload for one second traced and
# untraced, including the golden, rerun and outside-recompute checks — a
# public-API change that breaks the benchmark fails here.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> ci.sh: all green"
