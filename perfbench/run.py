#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload traffic-dense --seed 1 --seconds 30 --trace 0

The harness (perfbench/harness.cpp) is compiled together with the library
in ../src into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on the first run; later runs rebuild only what changed. The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, and the recorded spans are written to
$CARGO_TARGET_DIR/traces/<workload>-seed<seed>.json.

The exit status is 0 when every output check passed and non-zero when a
check failed, the build failed, the sources are missing or the run
overran its time limit.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("traffic-dense", "traffic-sparse", "query-serve", "analysis")
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 3)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                if step is steps[0] and len(steps) == 2:
                    os.remove(os.path.join(out, "CMakeCache.txt"))
                fail("build failed; see " + log_path, 3)
    return os.path.join(out, "perfbench_harness")


def commit():
    """The checked-out commit, or "none" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, path by path."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--corrupt", choices=("none", "route", "reply"),
                        default="none",
                        help="damage one route or reply before it is checked")
    args = parser.parse_args()
    start = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    harness = build()

    command = [harness, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--corrupt", args.corrupt, "--commit", commit(),
               "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The first run of a checkout may spend its time building; the limit
    # applies to the run itself.
    limit = RUN_LIMIT_S - min(time.monotonic() - start, 60)
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload overran %.0f s" % limit, 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("a check failed (exit %d)" % proc.returncode, proc.returncode)


if __name__ == "__main__":
    main()
