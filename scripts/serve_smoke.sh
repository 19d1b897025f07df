#!/usr/bin/env bash
# Detection-daemon soak smoke for CI (the `serve-stress` ctest,
# RUN_SERIAL).
#
# Boots a real `crd serve` daemon process on a Unix socket, then drives
# hundreds of concurrent sessions against it with the `--stress` client
# across several waves, checking the invariants that must hold on ANY
# host:
#
#   * zero cross-session interference — every session's reply stream is
#     byte-identical ("identical: yes" from the stress client);
#   * bounded memory — the daemon's VmRSS after the last wave stays
#     within 35% of its post-first-wave plateau (per-session state is
#     actually reclaimed when sessions close, it does not accrete);
#   * graceful drain — a real SIGTERM makes the daemon exit 0 with its
#     "drained:" summary.
#
# The sessions analyze the seeded 3 x 20,000-event stress trace that
# crd_stress_trace (tests/StressTrace.h) writes.
#
# Concurrency only means something when the daemon, its workers, and the
# clients can overlap: on a single-CPU host the whole test is a skip
# (exit 77, the ctest SKIP_RETURN_CODE convention).
#
# Usage: serve_smoke.sh <build-dir>
set -u

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir>}"
CRD="$BUILD_DIR/tools/crd/crd"
GEN="$BUILD_DIR/tests/crd_stress_trace"

CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$CPUS" -lt 2 ]; then
  echo "serve_smoke: single-CPU host ($CPUS); daemon and clients cannot overlap — skipping" >&2
  exit 77
fi

# Scale the soak to the host class: the full 200-concurrent-session bar
# needs enough CPUs that client threads are not pure scheduling overhead.
if [ "$CPUS" -ge 4 ]; then
  SESSIONS=200
else
  SESSIONS=64
fi
WAVES=4

WORK_DIR="$(mktemp -d)"
SOCK="$WORK_DIR/serve.sock"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# A racy stress trace for the sessions to analyze.
if ! "$GEN" "$WORK_DIR/trace.crdb" 3 20000 >/dev/null 2>"$WORK_DIR/gen.err" ||
   [ ! -s "$WORK_DIR/trace.crdb" ]; then
  echo "serve_smoke: could not generate the stress trace:" >&2
  cat "$WORK_DIR/gen.err" >&2
  exit 1
fi

"$CRD" serve --socket="$SOCK" >"$WORK_DIR/daemon.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "serve_smoke: daemon did not come up" >&2
  cat "$WORK_DIR/daemon.log" >&2
  exit 1
fi

rss_kb() {
  awk '/^VmRSS:/ { print $2 }' "/proc/$DPID/status" 2>/dev/null || echo 0
}

FIRST_RSS=0
for wave in $(seq 1 $WAVES); do
  OUT="$("$CRD" serve --connect="$SOCK" --trace="$WORK_DIR/trace.crdb" \
      --stress --sessions=$SESSIONS --waves=1 2>&1)"
  status=$?
  case "$OUT" in
    *"identical: yes"*) ;;
    *)
      echo "serve_smoke: wave $wave sessions diverged (exit $status):" >&2
      echo "$OUT" >&2
      exit 1
      ;;
  esac
  RSS="$(rss_kb)"
  echo "serve_smoke: wave $wave/$WAVES: $SESSIONS sessions identical, daemon RSS ${RSS} kB"
  [ "$wave" -eq 1 ] && FIRST_RSS="$RSS"
done

FINAL_RSS="$(rss_kb)"
if [ "$FIRST_RSS" -gt 0 ] && \
   ! awk -v a="$FIRST_RSS" -v b="$FINAL_RSS" 'BEGIN { exit !(b <= a * 1.35) }'; then
  echo "serve_smoke: daemon RSS grew ${FIRST_RSS} kB -> ${FINAL_RSS} kB across $WAVES waves (per-session state accreting)" >&2
  exit 1
fi

# Graceful drain: SIGTERM must produce the drain summary and exit 0.
kill -TERM "$DPID"
DRAIN_OK=no
for i in $(seq 1 100); do
  if ! kill -0 "$DPID" 2>/dev/null; then
    DRAIN_OK=yes
    break
  fi
  sleep 0.1
done
if [ "$DRAIN_OK" != yes ]; then
  echo "serve_smoke: daemon did not exit within 10s of SIGTERM" >&2
  exit 1
fi
wait "$DPID"
DEXIT=$?
DPID=""
if [ "$DEXIT" -ne 0 ]; then
  echo "serve_smoke: daemon exited $DEXIT after SIGTERM" >&2
  exit 1
fi
case "$(cat "$WORK_DIR/daemon.log")" in
  *"drained:"*) ;;
  *)
    echo "serve_smoke: no drain summary in daemon log:" >&2
    cat "$WORK_DIR/daemon.log" >&2
    exit 1
    ;;
esac

TOTAL=$((SESSIONS * WAVES))
echo "serve_smoke: $TOTAL sessions across $WAVES waves, RSS ${FIRST_RSS} -> ${FINAL_RSS} kB, clean SIGTERM drain"
exit 0
