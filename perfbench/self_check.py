#!/usr/bin/env python3
"""Sensitivity self-check: a known delay in one layer must be caught there.

    python3 perfbench/self_check.py [--seed 1]

Builds like run.py, then runs `perfbench --self-check`, which injects
two fixed delays through shims on the benchmark's side of a layer and
switches each on and off in alternating windows of one run (so both
sides see the same stretches of a shared machine):

  transport  the client spins 25 us before every send, inside the timed
             round trip: p50_us.<t> and transport.overhead_us.<t> must
             rise by about 25 us on every transport;
  framing    the in-memory stream spins 5 us before each line reaches
             LineReader::next: serve.frame_us and the in-process round
             trip must rise by about 5 us, every other per-layer time
             must stay within 25%, and the layer that rose most must be
             serve.frame_us.

Run from the repository root; exits 0 when every check passes.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    err = run.build()
    if err:
        print("self-check: " + err, file=sys.stderr)
        return 2
    return subprocess.run(
        [os.path.join(run.BUILD, "perfbench"), "--self-check",
         "--ccov", os.path.join(run.BUILD, "ccov", "tools", "ccov"),
         "--seed", str(args.seed)], cwd=run.ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
