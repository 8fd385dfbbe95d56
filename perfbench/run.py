#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload hit_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
ccov libraries, the `ccov` CLI and the `perfbench` runner (Release) under
.bench_build/perfbench; later runs rebuild incrementally. The runner's
last stdout line is the JSON result; a human-readable report, with the
machine fingerprint and sample counts, goes to stderr and to
.bench_build/perfbench/report-<workload>-<seed>.json. With --trace 1 the
spans are written next to it as a Chrome trace-event file.

Exits 2 without a result when the sources are missing or do not build.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hit_mix", "solve_cold", "batch_churn")
RUN_TIMEOUT_S = 175


def sources_present():
    return all(
        os.path.exists(os.path.join(ROOT, p))
        for p in ("CMakeLists.txt", "src", "tools", "cmake"))


def build():
    """Configure once, then build incrementally. Returns an error or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "ccov"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    return "build failed:\n" + "".join(f.readlines()[-30:])
    return None


def source_digest():
    """SHA-256 over the program's sources, for the fingerprint."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return os.environ.get("PERFBENCH_COMMIT", "unknown")
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not sources_present():
        print("perfbench: the program's sources are not here (run from the "
              "repository root)", file=sys.stderr)
        return 2
    err = build()
    if err:
        print("perfbench: " + err, file=sys.stderr)
        return 2

    stem = "%s-%d%s" % (args.workload, args.seed, "-trace" if args.trace else "")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--ccov", os.path.join(BUILD, "ccov", "tools", "ccov"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", os.path.join(BUILD, "report-%s.json" % stem)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % stem)]
    env = dict(os.environ, PERFBENCH_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
