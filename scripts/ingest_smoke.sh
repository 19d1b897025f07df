#!/usr/bin/env bash
# Reduced-rep live-ingestion stress smoke for CI (the `ingest-stress`
# ctest, RUN_SERIAL).
#
# Drives `crd record --stress` — real producer threads through SPSC rings
# into live sequential detection — and checks the invariants that must
# hold on ANY host:
#
#   * Block backpressure is lossless ("lost 0", "dropped 0");
#   * the recorded wire stream replays to bit-identical races
#     ("replay identical: yes" — the ingestion determinism contract).
#
# The throughput acceptance bar (>= 8 producers sustaining >= 10M
# aggregate events/s into live detection) only means something when the
# producers, the collector, and the detector can actually run in
# parallel, so it is enforced only on hosts with >= 8 CPUs. On a
# single-CPU host the whole test is a skip (exit 77, the ctest
# SKIP_RETURN_CODE convention): every thread timeshares one core and the
# numbers measure scheduling overhead.
#
# Usage: ingest_smoke.sh <build-dir>
set -u

BUILD_DIR="${1:?usage: ingest_smoke.sh <build-dir>}"
CRD="$BUILD_DIR/tools/crd/crd"

CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$CPUS" -lt 2 ]; then
  echo "ingest_smoke: single-CPU host ($CPUS); producers cannot overlap the collector — skipping" >&2
  exit 77
fi

# Scale the stress to the host class: enough producers to exercise the
# merge, small enough per-producer volume to stay a smoke test.
PRODUCERS=8
EVENTS=100000

OUT="$("$CRD" record --stress --producers=$PRODUCERS --events=$EVENTS \
    --ring=4096 --policy=block --detector=seq --verify-replay 2>&1)"
status=$?
echo "$OUT"
if [ "$status" -ne 0 ]; then
  echo "ingest_smoke: crd record --stress failed (exit $status)" >&2
  exit 1
fi
case "$OUT" in
  *"lost 0"*) ;;
  *) echo "ingest_smoke: Block policy lost events" >&2; exit 1 ;;
esac
case "$OUT" in
  *"dropped 0"*) ;;
  *) echo "ingest_smoke: Block policy reported drops" >&2; exit 1 ;;
esac
case "$OUT" in
  *"replay identical: yes"*) ;;
  *) echo "ingest_smoke: live races diverge from wire replay" >&2; exit 1 ;;
esac

if [ "$CPUS" -lt 8 ]; then
  echo "ingest_smoke: $CPUS CPUs < 8; correctness checks passed, throughput bar skipped (needs >= 8 CPUs)"
  exit 0
fi

# >= 10M aggregate events/s into live detection, parsed from the summary
# line ("... (12.34M events/s aggregate)").
RATE_M="$(printf '%s\n' "$OUT" | sed -n 's/.*(\([0-9.]*\)M events\/s aggregate).*/\1/p')"
if [ -z "$RATE_M" ]; then
  echo "ingest_smoke: below 1M events/s — throughput bar (10M) missed" >&2
  exit 1
fi
if ! awk -v r="$RATE_M" 'BEGIN { exit !(r >= 10.0) }'; then
  echo "ingest_smoke: ${RATE_M}M events/s < 10M events/s throughput bar" >&2
  exit 1
fi
echo "ingest_smoke: ${RATE_M}M events/s aggregate — throughput bar met"
exit 0
