#!/usr/bin/env sh
# Runs every benchmark binary and collects the BENCH_*.json records in one
# place, so the perf trajectory is actually recorded per PR.
#
# Usage:  bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where the bench binaries live      (default: build)
#   OUT_DIR    where the JSON records are copied  (default: bench/results)
#
# Environment knobs pass through (MFT_BENCH_THREADS,
# MFT_SHARD_LANES/STAGES/BITS, ...). Heavy benches honor their own flags;
# set MFT_RUN_ALL_ARGS_<bench> (e.g. MFT_RUN_ALL_ARGS_bench_shard="--lanes 16
# --stages 8") to scale one down. A missing binary is an error (build with
# -DMFT_BUILD_BENCH=ON first); a failing bench stops the run so a broken
# perf gate is never silently skipped. Also reachable as the `run_all_benches`
# CMake target.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench/results}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

BENCHES="
bench_flow_solvers
bench_engine
bench_inner
bench_shard
bench_table1
bench_fig7
bench_convergence
bench_scaling
bench_tilos_bump
bench_ablation_bounds
bench_ablation_scale
bench_ablation_weights
bench_eco
"

for b in $BENCHES; do
  bin="$BUILD_DIR/$b"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built" >&2
    exit 2
  fi
  args_var="MFT_RUN_ALL_ARGS_$b"
  args="$(eval "printf '%s' \"\${$args_var:-}\"")"
  echo "==> $b $args"
  # Benches emit their JSON next to the current working directory.
  (cd "$BUILD_DIR" && "./$b" $args)
done

count=0
for f in "$BUILD_DIR"/BENCH_*.json; do
  [ -e "$f" ] || continue
  cp "$f" "$OUT_DIR/"
  count=$((count + 1))
done
echo "collected $count BENCH_*.json records into $OUT_DIR/"
