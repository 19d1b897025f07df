#!/usr/bin/env bash
# Reduced-rep benchmark smoke pass for CI (the `bench-smoke` ctest label).
#
# Runs the trajectory benchmarks at a small fixed workload, then diffs the
# emitted JSON against the committed bench/baseline/BENCH_*.json with
# scripts/bench_compare.py: any >15% throughput drop below the (already
# noise-derated) baseline, any race-count drift, or any allocs-per-event
# growth fails the test. A baseline from another host class is diffed on
# its race counts only. Exit 77 (ctest SKIP_RETURN_CODE) when python3 is
# unavailable or when no baseline could be compared at all, so a run that
# checked nothing reports Skipped instead of Passed.
#
# Usage: bench_smoke.sh <build-dir> [repo-root]
set -u

BUILD_DIR="${1:?usage: bench_smoke.sh <build-dir> [repo-root]}"
REPO_ROOT="${2:-$(cd "$(dirname "$0")/.." && pwd)}"

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_smoke: python3 not found; skipping" >&2
  exit 77
fi

# The workload behind the committed baselines. Changing it requires
# regenerating bench/baseline/ (see that directory's README).
WORKERS=4
QUERIES=1000
REPS=5

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

status=0
compared=0
run_and_compare() {
  local tool="$1" json="$2" arg1="${3:-$WORKERS}" arg2="${4:-$QUERIES}"
  echo "== $tool ($arg1, $arg2, $REPS reps) =="
  if ! "$BUILD_DIR/bench/$tool" "$arg1" "$arg2" "$REPS" \
      "$OUT_DIR/$json" >/dev/null; then
    echo "bench_smoke: $tool failed" >&2
    status=1
    return
  fi
  python3 "$REPO_ROOT/scripts/bench_compare.py" \
      "$REPO_ROOT/bench/baseline/$json" "$OUT_DIR/$json"
  local rc=$?
  if [ "$rc" -eq 77 ]; then
    # bench_compare found nothing it may compare against this baseline;
    # that is a skip, not a regression.
    echo "bench_smoke: $tool: nothing comparable in the baseline; skipping diff" >&2
    return
  fi
  compared=$((compared + 1))
  if [ "$rc" -ne 0 ]; then
    status=1
  fi
}

run_and_compare wire_throughput BENCH_wire.json
# Chunk memoization uses the repetitive-trace workload (bodies,
# repetitions); the tool itself enforces the 2x / 1.2x memo bars and
# race equality across modes, the diff guards against drift.
run_and_compare memo_throughput BENCH_memo.json 16 24
# Live ingestion uses its own workload shape (producers, events/producer):
# per-producer volume must be large enough that a rep is not timer noise.
run_and_compare ingest_throughput BENCH_ingest.json 4 50000
# The detection daemon sweep (sessions, events/session): real sockets and
# a fresh server per rep, so per-session volume carries the signal.
run_and_compare serve_throughput BENCH_serve.json 8 25000

if [ "$status" -eq 0 ] && [ "$compared" -eq 0 ]; then
  echo "bench_smoke: no baseline was compared; reporting skip" >&2
  exit 77
fi
exit "$status"
