#!/usr/bin/env python3
"""The crd end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload racy-check --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the crd libraries,
the `crd` tool and the crd_perfbench driver) in Release mode under the build
directory, then runs the driver. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; builds of concurrent runs are serialized by a
lock file there. Build output goes to stderr, so the last line of stdout is
always the driver's result object. Exits non-zero without a result when the
build fails, e.g. when the crd sources are not next to the benchmark.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["h2-check", "racy-check", "repeat-memo", "serve-racy"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds the package; returns the build directory."""
    os.makedirs(out, exist_ok=True)
    # Compiler temporaries stay inside the checkout as well.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, env=env)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", "crd", "crd_perfbench"],
                       stdout=sys.stderr, check=True, env=env)
    return out


def git_rev():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="test hook: every reference check must fail")
    p.add_argument("--dump-input", metavar="FILE",
                   help="write the workload's wire input for --seed and exit")
    args = p.parse_args()

    for src in ("src/CMakeLists.txt", "tools/crd/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, src)):
            print(f"perfbench: {src} is missing; run from a crd checkout",
                  file=sys.stderr)
            return 1
    try:
        out = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Sockets and trace files live in a per-run directory inside the
    # checkout, named relative to it so the socket path stays short.
    work = os.path.join(out, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "crd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--crd", os.path.join(out, "crd_tool", "crd"),
           "--git-rev", git_rev()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.dump_input:
        cmd += ["--dump-input", os.path.abspath(args.dump_input)]
    os.chdir(ROOT)
    code = subprocess.run(cmd).returncode
    if not args.trace:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
