#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectory artifacts and fail on regressions.

Compares the events_per_sec of every benchmark present in both files
(matched by name) and exits 1 when any configuration regressed by more
than the threshold (default 15%), or when a configuration disappeared,
or when the race counts (the correctness anchor) diverge. Intended for
CI and for PR authors:

    scripts/bench_compare.py old/BENCH_wire.json BENCH_wire.json

Benchmarks only present in the new file are reported as additions and
never fail the comparison.

Artifacts record provenance (host_cpus, git_rev — bench/report.h). When
both files carry host_cpus and the values differ, throughput and
allocation ratios across host classes are noise, not signal: only the
host-independent race counts are compared, and when no configuration
carries them in both files nothing is comparable and the script exits
77 (the ctest SKIP convention). Pass --allow-host-mismatch to compare
everything anyway (e.g. for manual inspection).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    marks = doc.get("benchmarks")
    if not isinstance(marks, list):
        sys.exit(f"error: {path}: no 'benchmarks' array")
    out = {}
    for b in marks:
        name = b.get("name")
        if not name:
            sys.exit(f"error: {path}: benchmark entry without a name")
        out[name] = b
    return doc, out


def main():
    ap = argparse.ArgumentParser(
        description="Fail when the new bench artifact regresses vs the old one."
    )
    ap.add_argument("old", help="baseline BENCH_*.json")
    ap.add_argument("new", help="candidate BENCH_*.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional throughput drop per config (default 0.15)",
    )
    ap.add_argument(
        "--alloc-slack",
        type=float,
        default=0.01,
        help="allowed absolute allocs_per_event growth when both artifacts "
        "carry the allocation counter (default 0.01; the whole hot path "
        "sits at ~0.05-0.10, so 0.01 already flags one new allocation per "
        "ten races)",
    )
    ap.add_argument(
        "--alloc-ceiling",
        type=float,
        default=0.15,
        help="absolute allocs_per_event any configuration may reach "
        "(default 0.15 — the detectors run span/SSO-based reporting and "
        "epoch escalation only, so every config sits well below this; "
        "crossing it means per-event heap traffic came back)",
    )
    ap.add_argument(
        "--allow-host-mismatch",
        action="store_true",
        help="compare throughput and allocations across host classes too "
        "(the diff is noise; by default only race counts are compared)",
    )
    args = ap.parse_args()

    old_doc, old = load(args.old)
    new_doc, new = load(args.new)
    if old_doc.get("tool") != new_doc.get("tool"):
        print(
            f"warning: comparing different tools "
            f"({old_doc.get('tool')} vs {new_doc.get('tool')})",
            file=sys.stderr,
        )

    # Host-class gate: a 1-CPU run and a 16-CPU run of the same benchmark
    # are different experiments, and diffing their timings reports phantom
    # regressions (or hides real ones). Race counts do not depend on the
    # host, so they are still compared unless explicitly overridden.
    old_cpus = old_doc.get("host_cpus")
    new_cpus = new_doc.get("host_cpus")
    races_only = False
    if old_cpus is not None and new_cpus is not None and old_cpus != new_cpus:
        msg = (
            f"host class mismatch: {args.old} recorded host_cpus={old_cpus}, "
            f"{args.new} recorded host_cpus={new_cpus}"
        )
        if args.allow_host_mismatch:
            print(f"warning: {msg}; comparing anyway", file=sys.stderr)
        else:
            races_only = True
            print(f"{msg}; comparing race counts only", file=sys.stderr)
            print("(pass --allow-host-mismatch to compare throughput too)",
                  file=sys.stderr)
            if not any("races" in b and "races" in new.get(n, {})
                       for n, b in old.items()):
                print("nothing comparable across host classes", file=sys.stderr)
                return 77

    failures = []
    width = max((len(n) for n in old), default=10)
    for name, ob in sorted(old.items()):
        nb = new.get(name)
        if nb is None:
            failures.append(f"{name}: missing from {args.new}")
            continue
        race_drift = "races" in ob and "races" in nb and ob["races"] != nb["races"]
        if race_drift:
            failures.append(
                f"{name}: race count changed {ob['races']} -> {nb['races']}"
            )
        if races_only:
            line = f"{name:<{width}}  races {ob.get('races')} -> {nb.get('races')}"
            print(line + ("  RACE COUNT MISMATCH" if race_drift else ""))
            continue
        old_eps = float(ob.get("events_per_sec", 0))
        new_eps = float(nb.get("events_per_sec", 0))
        ratio = new_eps / old_eps if old_eps > 0 else float("inf")
        line = f"{name:<{width}}  {old_eps:>12,.0f} -> {new_eps:>12,.0f}  {ratio:6.2f}x"
        if race_drift:
            line += "  RACE COUNT MISMATCH"
        elif old_eps > 0 and ratio < 1.0 - args.threshold:
            failures.append(
                f"{name}: throughput regressed {1.0 - ratio:.1%} "
                f"(> {args.threshold:.0%} allowed)"
            )
            line += "  REGRESSED"
        # The allocation counter is optional (bench-only define); compare it
        # when both sides carry it so new per-event heap traffic in the hot
        # path fails the diff even if throughput noise hides it.
        if "allocs_per_event" in ob and "allocs_per_event" in nb:
            old_alloc = float(ob["allocs_per_event"])
            new_alloc = float(nb["allocs_per_event"])
            if new_alloc > old_alloc + args.alloc_slack:
                failures.append(
                    f"{name}: allocs_per_event grew "
                    f"{old_alloc:.4f} -> {new_alloc:.4f} "
                    f"(> {args.alloc_slack} slack)"
                )
                line += "  ALLOC GROWTH"
            elif old_alloc <= args.alloc_ceiling < new_alloc:
                # Ceiling only polices configurations that lived below it:
                # text parsing legitimately allocates per line and is
                # covered by the growth check alone.
                failures.append(
                    f"{name}: allocs_per_event {new_alloc:.4f} exceeds "
                    f"the absolute ceiling {args.alloc_ceiling}"
                )
                line += "  ALLOC CEILING"
        print(line)

    for name in sorted(set(new) - set(old)):
        print(f"{name:<{width}}  (new configuration)")

    # Memo-mode anchor, judged on the new artifact alone: chunk
    # memoization is an optimization, never an approximation, so every
    # analyze/memo=* configuration in BENCH_memo.json must report the
    # exact same races.
    memo_races = {
        name: b.get("races")
        for name, b in new.items()
        if name.startswith("analyze/memo=") and "races" in b
    }
    if len(set(memo_races.values())) > 1:
        failures.append(
            "races diverge across memo modes: "
            + ", ".join(f"{n}={r}" for n, r in sorted(memo_races.items()))
        )

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if races_only:
        print("\nrace counts unchanged (throughput not compared)")
    else:
        print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
