#!/bin/sh
# Regenerates every table/figure output under results/.
set -e
cd "$(dirname "$0")"
# Every checked-in results/<bin>.txt is rewritten by its bin; ci.sh
# re-runs the same bins and fails on any byte difference, so a stored
# file alone registers its bin with both.
for f in results/*.txt; do
  b=${f#results/}
  b=${b%.txt}
  echo "== $b"
  cargo run -q --release -p energydx-bench --bin "$b" > "$f"
done
# Every checked-in BENCH_<bin>.json is rewritten by its bin; ci.sh
# gates the same files, so a stored file alone registers its bin with
# both, and a budget and its gate can never drift apart.
for f in BENCH_*.json; do
  b=${f#BENCH_}
  b=${b%.json}
  echo "== $f"
  cargo run -q --release -p energydx-bench --bin "$b" -- --smoke --write "$f"
done
echo "all results regenerated"
