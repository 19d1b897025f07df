#!/usr/bin/env bash
# Builds the Release preset, runs the trajectory benchmarks and writes the
# machine-readable BENCH_*.json artifacts at the repo root.
#
# Usage: scripts/bench.sh [workers] [queries-per-worker] [reps]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKERS="${1:-4}"
QUERIES="${2:-4000}"
REPS="${3:-5}"

cmake --preset release
cmake --build --preset release -j"$(nproc)"

# Ingestion throughput: text parse vs binary wire decode vs decode+detect.
# Exits non-zero if binary decode drops below 2x text parse.
./build-release/bench/wire_throughput "$WORKERS" "$QUERIES" "$REPS" \
  BENCH_wire.json

# Chunk-memoized analysis over a repetitive trace: decode vs analyze at
# --memo=off/decode/full. Exits non-zero if memo=full misses the 2x
# (vs off) / 1.2x (vs pure decode) acceptance bars or races drift.
./build-release/bench/memo_throughput 64 16 "$REPS" BENCH_memo.json

# Live multi-producer ingestion: real threads through SPSC rings into the
# collector, across drain/detect/record/drop configurations.
./build-release/bench/ingest_throughput "$WORKERS" 200000 "$REPS" \
  BENCH_ingest.json

# Detection daemon: concurrent sessions over real Unix sockets across a
# sessions x shared-worker-pool sweep.
./build-release/bench/serve_throughput 8 100000 "$REPS" BENCH_serve.json

# Informational detector microbenchmarks; failures here must not mask the
# trajectory artifacts above.
./build-release/bench/micro_detector --benchmark_min_time=0.05 || true

echo "bench artifacts: $(pwd)/BENCH_wire.json $(pwd)/BENCH_memo.json $(pwd)/BENCH_ingest.json $(pwd)/BENCH_serve.json"
