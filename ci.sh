#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests (single-threaded pipeline) =="
# First pass pins the analysis pool to one worker: any test that only
# passes because of a particular thread count fails here.
ENERGYDX_JOBS=1 RAYON_NUM_THREADS=1 cargo test -q --workspace

echo "== full workspace tests (default parallelism) =="
cargo test -q --workspace

echo "== benchmark budget gates (smoke) =="
# Every BENCH_*.json at the repo root is a checked-in budget that
# regen_results.sh regenerates from the same list, so a budget and
# its gate can never drift apart. Per bin:
#   hotpath — per-instance allocation bytes of the interned Steps 2-5
#             path (e.g. a return to per-instance string cloning),
#             allocations per instance of the serving render
#             (`render_json`; a return to building the report costs
#             ~1 per instance) with its bytes checked equal to the
#             rendered report's, bytes allocated per body byte to
#             encode and to read + decode a 2 MiB Report frame (a
#             return to joined copies), and trace, instance,
#             vocabulary, JSON and frame-body byte counts exactly as
#             stored.
#   ingest  — batch identity of the resident daemon, accepted /
#             quarantined counts and checkpoint bytes exactly as
#             stored, the checkpoint bytes-per-trace budget, and
#             O(upload) commits: a submit into a 2,000-trace
#             two-release epoch costs <= 2x one into a 200-trace epoch.
#   spill   — resident and zero-budget spilling daemons serve
#             byte-identical reports; accepted count and segment
#             count and bytes exactly as stored; peak live-heap
#             growth of the spilling daemon stays under budget and
#             under resident.
#   query   — generation-keyed query cache: warm repeats >= the
#             speedup budget, spilled warm queries keep up with
#             resident ones, a fresh query on a 400-upload state
#             diagnosed after every upload costs <= 1.3x one on a
#             state diagnosed once (no fold state may grow with query
#             history), coordinator NotModified replies stay smaller
#             on the wire than the full partial, and upload, accepted,
#             spilled-segment and wire-byte counts exactly as stored.
#   cluster — the merged 3-worker answer equals one daemon fed the
#             same payloads in shard order; accepted / quarantined
#             counts and replica bytes exactly as stored; replicated
#             checkpoints stay under the bytes-per-trace budget.
#   regress — the release gate: every injected v2 bug (loop,
#             no-sleep, configuration) is flagged regressed, zero
#             bug-free controls are, case, upload and accepted counts
#             match the stored ones exactly, and a warm differential
#             query beats cold by the stored speedup budget.
#   report  — the operator report: daemon and batch surfaces render
#             identical artifacts, warm renders beat cold by the
#             stored speedup budget, the cold render's peak live-heap
#             growth on one thread stays under its stored byte budget
#             (a return to rendering full per-selection reports),
#             both artifacts stay under their KiB weight caps, and
#             upload, accepted and artifact byte counts match the
#             stored ones exactly.
for b in hotpath ingest spill query cluster regress report; do
  echo "-- $b (BENCH_$b.json)"
  cargo run -q --release -p energydx-bench --bin "$b" -- \
    --check "BENCH_$b.json" >/dev/null
done

echo "== metrics-overhead gate (instrumented hot path + ingest) =="
# The same two budgets re-checked with the obsv layer attached: the
# per-stage spans and the submit-latency histogram run on the measured
# path, so instrumentation that stops being ~free fails here.
cargo run -q --release -p energydx-bench --bin hotpath -- \
  --obsv --check BENCH_hotpath.json >/dev/null
cargo run -q --release -p energydx-bench --bin ingest -- \
  --obsv --check BENCH_ingest.json >/dev/null

echo "== fleetd soak (daemon vs batch CLI, crash + restart) =="
# A real `energydx serve` process driven through the retrying
# uploader: 200 uploads (~15% damaged), backpressure against a
# depth-4 queue, an explicit checkpoint, kill -9 mid-stream, restart
# from the checkpoint, and a byte-diff of the served report against
# `energydx analyze --bundles --json` over the same payloads.
cargo test -q --release -p energydx-cli --test soak -- --ignored

echo "== fleetd cluster soak (coordinator + 3 workers over TCP) =="
# A real coordinator process over three worker processes: 120 uploads
# (~15% damaged) routed by shard, a replication sweep, kill -9 one
# worker mid-stream, an explicit Degraded answer, a blank replacement
# seeded by checkpoint handoff, then a byte-diff of the merged cluster
# query against `energydx analyze --bundles --json` over the same
# payloads and a clean whole-cluster shutdown.
cargo test -q --release -p energydx-cli --test cluster_soak -- --ignored

echo "== fleetbench smoke (end-to-end benchmark builds and answers) =="
# fleetbench/ is a workspace of its own that compiles against fleetd's
# public API, so an API break would otherwise first show up when the
# benchmark runs. Two seconds per workload: build, drive real
# `energydx serve` processes, and check every answer. The driver exits
# 0 either way; its last stdout line is the verdict.
for w in rollout-dashboard spill-cluster; do
  echo "-- $w"
  verdict=$(CARGO_TARGET_DIR="$PWD/target" python3 fleetbench/run.py \
    --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  if ! grep -q '"correct": true,' <<<"$verdict" \
    || ! grep -q '"failed": 0,' <<<"$verdict"; then
    echo "fleetbench $w failed: $verdict"
    exit 1
  fi
done

echo "== float text (release, 10^6 cases per class) =="
# Every report float's text is computed by JsonWriter::float's own
# integer kernel and must equal Display's. The edge classes (exact
# ties, the halved gap below a power of two, window edges) are sparse
# in a random draw, so the property runs again at a million cases per
# class.
PROPTEST_CASES=1000000 cargo test -q --release -p energydx \
  --test float_text >/dev/null

echo "== differential harness (release, optimized float paths) =="
# The seq==parallel==sharded byte-identity must also hold under
# release codegen, where float expression fusion would surface.
cargo test -q --release --test diff_harness

echo "== shuffle guard =="
# `cargo test -- --shuffle` is nightly-only; where unsupported we
# fall back on the harness's own built-in shuffles (diff_harness
# permutes trace order and partial merge order with seeded RNG).
if cargo test -q --test diff_harness -- --shuffle --test-threads 1 >/dev/null 2>&1; then
  echo "(nightly --shuffle supported and green)"
else
  echo "(stable toolchain: --shuffle unsupported; relying on the"
  echo " harness's internal seeded permutation and merge-order tests)"
fi

echo "CI green."
