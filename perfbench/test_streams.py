#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_streams.py

Checks that one seed yields byte-identical request streams, that other
seeds yield other streams, that the seed-1 streams still match the
digests recorded when the benchmark was defined (a generator change
alters every later comparison, so it must be deliberate), and that
workloads.json still records what the runner runs. Run from the
repository root; builds like run.py.
"""

import hashlib
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# sha256 of `perfbench --dump-streams --workload W --seed 1`, first 16 hex.
SEED1_DIGESTS = {
    "hit_mix": "cb90864f40206abf",
    "solve_cold": "db0edf2ec5aa5e39",
    "batch_churn": "2ead25d4ac492c45",
}


def perfbench(*args):
    return subprocess.run([os.path.join(run.BUILD, "perfbench"), *args],
                          capture_output=True, check=True).stdout


def dump(workload, seed):
    return perfbench("--dump-streams", "--workload", workload, "--seed",
                     str(seed))


class Streams(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        err = run.build()
        if err:
            raise RuntimeError(err)

    def test_same_seed_same_bytes(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(dump(w, 7), dump(w, 7))

    def test_other_seed_other_bytes(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(dump(w, 7), dump(w, 8))

    def test_seed1_digests_unchanged(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                digest = hashlib.sha256(dump(w, 1)).hexdigest()[:16]
                self.assertEqual(digest, SEED1_DIGESTS[w])

    def test_workloads_json_is_current(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            recorded = json.load(f)
        self.assertEqual(json.loads(perfbench("--describe")), recorded)


if __name__ == "__main__":
    unittest.main()
