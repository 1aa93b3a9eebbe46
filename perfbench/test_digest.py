#!/usr/bin/env python3
"""Determinism test of the benchmark's inputs and outputs.

For every workload, one seed must reproduce the op sequence (the input
digest) and the outputs (the output digest plus the rounds, bits, records,
advice bits and service answers over the fixed op prefix) exactly, and
another seed must change both digests. Run from the root of a checkout:

    python3 perfbench/test_digest.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def digest(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed), "--digest",
         "--scratch", os.path.join(run.BUILD, "run")],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class SeedDigest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload):
        first, again, other = (digest(workload, 1), digest(workload, 1),
                               digest(workload, 2))
        self.assertEqual(first, again)
        self.assertEqual(first["failed"], 0)
        self.assertGreater(first["ops"], 0)
        self.assertNotEqual(first["inputs"], other["inputs"])
        self.assertNotEqual(first["outputs"], other["outputs"])

    def test_elect(self):
        self.check("elect")

    def test_meter(self):
        self.check("meter")

    def test_sweep(self):
        self.check("sweep")

    def test_serve(self):
        self.check("serve")


if __name__ == "__main__":
    unittest.main()
