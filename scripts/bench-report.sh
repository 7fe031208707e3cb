#!/usr/bin/env bash
# Emits the one measured performance report kept at the repo root:
#
#   BENCH_walk.json — the SIMD × threads scaling table of one batch-8
#     walk of the W4 residual MobileNet: forced-scalar vs auto-detected
#     SIMD at 1, 2 and 4 intra-walk threads, each as samples/sec median
#     [p10–p90] over n sweeps.
#
# It is the only report because the thread sweep is the only measurement
# perfbench/ does not make. End-to-end throughput, per-class traces and
# serve capacity come from perfbench (see BENCHMARK.json), which reports
# spreads and checks every logit; a second copy of those timings here
# would only be a weaker one.
#
# Unlike the deterministic goldens under tests/goldens/ (shape math,
# byte-diffed in CI), this file holds *measured* numbers: commit it after
# an intentional perf change. Never golden-diffed. It stamps the rustc
# host target, detected CPU features and core count so a number is never
# read without its machine context.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
MIXQ_RUSTC_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
export MIXQ_RUSTC_TARGET
cargo bench --bench table_walk_scaling -- \
  --bench-json "$root/BENCH_walk.json"
echo "perf report written:"
cat "$root/BENCH_walk.json"
