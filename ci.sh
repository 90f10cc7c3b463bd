#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== Cargo.lock and vendor/ =="
# Runs first, before any cargo step can rewrite the lock: --locked
# fails on a Cargo.lock that no longer matches the manifests. Every
# crate under vendor/ must be a package in the lock; one that is not
# has no dependent left in the workspace.
cargo metadata --locked --format-version 1 >/dev/null
for d in vendor/*/; do
  name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$d/Cargo.toml" | head -n 1)
  if ! grep -qx "name = \"$name\"" Cargo.lock; then
    echo "$d: package \"$name\" is not in Cargo.lock (no dependent)"
    exit 1
  fi
done

echo "== unsafe boundary =="
# Every library crate forbids unsafe code except energydx-trace, which
# denies it and allows it in one private module, the hardware CRC
# kernel (DESIGN.md §5d). That module's one `unsafe` block is the call
# into a `#[target_feature]` fold after CPU feature detection. A crate
# that stops forbidding, a second allow, or a second non-comment line
# using `unsafe` in the trace crate fails here.
for lib in crates/*/src/lib.rs; do
  want='#![forbid(unsafe_code)]'
  if [ "$lib" = crates/trace/src/lib.rs ]; then
    want='#![deny(unsafe_code)]'
  fi
  if ! grep -qxF "$want" "$lib"; then
    echo "$lib: lost its $want"
    exit 1
  fi
done
code() { grep -v '^[^:]*:[0-9]*: *//' || true; }
allows=$(grep -rn 'allow(.*unsafe_code' crates/trace/src | code)
uses=$(grep -rnw unsafe crates/trace/src | code)
if [ "$(grep -c . <<<"$allows")" -gt 1 ] \
  || [ "$(grep -c . <<<"$uses")" -gt 1 ] \
  || grep -v 'unsafe {' <<<"$uses" | grep -q .; then
  echo "crates/trace/src may hold one allow(unsafe_code) and one unsafe"
  echo "block; found:"
  printf '%s\n' "$allows" "$uses"
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
# Broken, ambiguous or private intra-doc links fail here, e.g. a
# public item's doc that still links a method made private.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: release build + tests =="
# --locked: a Cargo.lock that no longer matches the manifests fails
# here instead of being rewritten.
cargo build --release --locked
cargo test -q

echo "== full workspace tests (single-threaded pipeline) =="
# First pass pins the analysis pool to one worker: any test that only
# passes because of a particular thread count fails here.
ENERGYDX_JOBS=1 cargo test -q --workspace

echo "== full workspace tests (default parallelism) =="
cargo test -q --workspace

echo "== paper figures (results/<bin>.txt byte for byte) =="
# Every results/<bin>.txt is the checked-in output of the experiment
# bin of the same name; regen_results.sh rewrites the same files. A
# fresh run must reproduce each one exactly, so drift in the
# paper-fidelity figures fails here and names the file.
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
for f in results/*.txt; do
  b=${f#results/}
  b=${b%.txt}
  echo "-- $b"
  if ! cargo run -q --release -p energydx-bench --bin "$b" >"$fresh"; then
    echo "$b failed to run; $f not reproduced"
    exit 1
  fi
  if ! cmp -s "$fresh" "$f"; then
    echo "$f differs from a fresh run of $b:"
    diff "$f" "$fresh" | head -n 20 || true
    exit 1
  fi
done

echo "== benchmark budget gates (smoke) =="
# Every BENCH_<bin>.json at the repo root is a checked-in report whose
# bin re-measures it here under --check; regen_results.sh rewrites the
# same files, so a stored file alone registers its bin with both, and a
# budget and its gate can never drift apart. Each bin's `//!` header
# says what it gates; the shared flags, exact fields and budgets are
# described under "BENCH harness" in DESIGN.md.
for f in BENCH_*.json; do
  b=${f#BENCH_}
  b=${b%.json}
  echo "-- $b ($f)"
  cargo run -q --release -p energydx-bench --bin "$b" -- \
    --check "$f" >/dev/null
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
# 0 either way; its last stdout line is the verdict. Its build rewrites
# fleetbench/Cargo.lock whenever the workspace's dependencies moved
# since the lock was committed, so the committed lock is saved first
# and put back afterwards, failure or not: CI leaves the tree clean.
lock_copy=$(mktemp)
cp fleetbench/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" fleetbench/Cargo.lock; rm -f "$fresh" "$lock_copy"' EXIT
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
cp "$lock_copy" fleetbench/Cargo.lock

echo "== float text (release, 10^6 cases per class) =="
# Every report float's text is computed by JsonWriter::float's own
# integer kernel and must equal Display's. The edge classes (exact
# ties, the halved gap below a power of two, window edges) are sparse
# in a random draw, so the property runs again at a million cases per
# class.
PROPTEST_CASES=1000000 cargo test -q --release -p energydx \
  --test float_text >/dev/null

echo "== partial decoder fuzz (debug, 10^5 cases) =="
# Checkpoints, PartialState frames and spill segments share one
# partial decoder, and every other damage test is stopped by a CRC
# before it reads a field. This property mutates a segment's body,
# frames it again with correct CRCs, and must get a partial or a typed
# SegmentError back. A debug build keeps overflow checks on, so an
# unchecked offset sum panics here instead of wrapping.
PROPTEST_CASES=100000 cargo test -q -p energydx-segment --test corruption \
  body_mutations_behind_valid_crcs >/dev/null

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
