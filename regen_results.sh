#!/bin/sh
# Regenerates every table/figure output under results/.
set -e
cd "$(dirname "$0")"
for b in fig1_event_distance fig3_k9_power_trace tab2_k9_events tab3_fleet \
         tab_comparison fig9_opengps fig11_breakdown fig12_wallabag \
         fig15_tinfoil fig16_code_reduction fig17_power_reduction overhead \
         ablations user_scaling; do
  echo "== $b"
  cargo run -q --release -p energydx-bench --bin "$b" > "results/$b.txt"
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
