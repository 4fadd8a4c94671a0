"""Self-tests of the benchmark's own logic; they do not run the library.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import judge  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import check, digest  # noqa: E402


class FakeClock:
    """A clock that each function under test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def work(seconds):
            clock.now += seconds

        leaf = tracer.wrap("leaf", lambda: work(0.5))

        def mid_body():
            work(1.0)
            leaf()
            leaf()

        mid = tracer.wrap("mid", mid_body)

        def outer_body():
            work(2.0)
            mid()
            work(0.25)
            mid()

        tracer.wrap("outer", outer_body)()
        m = tracer.metrics()
        self.assertEqual(m["leaf.calls"], 4)
        self.assertAlmostEqual(m["leaf.s"], 2.0)
        self.assertAlmostEqual(m["leaf.self_s"], 2.0)
        self.assertEqual(m["mid.calls"], 2)
        self.assertAlmostEqual(m["mid.s"], 4.0)
        self.assertAlmostEqual(m["mid.self_s"], 2.0)  # its leaves excluded
        self.assertAlmostEqual(m["outer.s"], 6.25)
        # only direct children are subtracted: leaves sit inside mid's span
        self.assertAlmostEqual(m["outer.self_s"], 2.25)
        self.assertLessEqual(m["mid.s"], m["outer.s"])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def fail():
            clock.now += 1.0
            raise ValueError("boom")

        failing = tracer.wrap("fail", fail)

        def outer_body():
            with self.assertRaises(ValueError):
                failing()
            clock.now += 3.0

        tracer.wrap("outer", outer_body)()
        m = tracer.metrics()
        self.assertAlmostEqual(m["fail.s"], 1.0)
        self.assertAlmostEqual(m["outer.self_s"], 3.0)

    def test_counter_sees_bound_arguments(self):
        tracer = Tracer(FakeClock())
        f = tracer.wrap("f", lambda a, b=2: a + b, lambda t, args, res: t.add("f.n", args["a"] * res))
        f(3, b=4)
        f(a=1)
        self.assertEqual(tracer.metrics()["f.n"], 3 * 7 + 1 * 3)


RESULTS = (
    "problem,drift,estimator,basis_count,samples,trial,mean_rae,runtime_ms,seed\r\n"
    "cartpole_lqr,suboptimal,taylor_noiseless,70,1024,0,3e-08,{ms},77\r\n"
    "cartpole_lqr,suboptimal,em_noisy,70,1024,0,{rae},{ms},77\r\n"
)


class DigestTest(unittest.TestCase):
    def test_ignores_only_runtime(self):
        base = digest("results.csv", RESULTS.format(ms="12.5", rae="0.4"))
        self.assertEqual(base, digest("results.csv", RESULTS.format(ms="9.75", rae="0.4")))
        self.assertNotEqual(base, digest("results.csv", RESULTS.format(ms="12.5", rae="0.41")))
        other_seed = RESULTS.format(ms="12.5", rae="0.4").replace(",77\r\n", ",78\r\n", 1)
        self.assertNotEqual(base, digest("results.csv", other_seed))
        renamed = RESULTS.format(ms="12.5", rae="0.4").replace("trial", "trials", 1)
        self.assertNotEqual(base, digest("results.csv", renamed))

    def test_diagnostics_hashed_whole(self):
        text = "step,kind,cell\r\n50,em_noisy,0\r\n"
        self.assertEqual(digest("diagnostics.csv", text), hashlib.sha256(text.encode()).hexdigest())


class CheckTest(unittest.TestCase):
    def test_cartpole_criteria(self):
        self.assertEqual(check("cartpole_sweep", RESULTS.format(ms="1", rae="0.4")), [])
        self.assertEqual(len(check("cartpole_sweep", RESULTS.format(ms="1", rae="0.05"))), 1)
        self.assertEqual(len(check("cartpole_sweep", RESULTS.format(ms="1", rae="inf"))), 1)


class CompareRuleTest(unittest.TestCase):
    OLD = {s: 10.0 + 0.1 * ((s * 7) % 5) for s in range(10)}  # 10.0 .. 10.4

    def test_clear_gain(self):
        new = {s: v * 0.8 for s, v in self.OLD.items()}
        v = judge(self.OLD, new, 0.1, "lower")
        self.assertEqual((v["verdict"], v["wins"], v["pairs"]), ("better", 10, 10))

    def test_gain_needs_nine_tenths_of_pairs(self):
        new = {s: v * 0.8 for s, v in self.OLD.items()}
        new[0] = new[1] = 11.0  # two losses: 8/10 wins
        self.assertNotEqual(judge(self.OLD, new, 0.25, "lower")["verdict"], "better")

    def test_gain_must_exceed_parent_spread(self):
        new = {s: v - 0.01 for s, v in self.OLD.items()}  # wins every pair, by a hair
        self.assertEqual(judge(self.OLD, new, 0.1, "lower")["verdict"], "same")

    def test_regression_beyond_bound(self):
        new = {s: v * 1.3 for s, v in self.OLD.items()}
        self.assertEqual(judge(self.OLD, new, 0.1, "lower")["verdict"], "worse")
        self.assertEqual(judge(self.OLD, new, 0.25, "higher")["verdict"], "better")

    def test_wide_spread_is_unresolved(self):
        noisy = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
        shifted = {s: v * 1.05 for s, v in noisy.items()}
        self.assertEqual(judge(noisy, shifted, 0.1, "lower")["verdict"], "unresolved")

    def test_wide_spread_resolved_when_every_new_run_is_better(self):
        noisy = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
        faster = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
        self.assertEqual(judge(noisy, faster, 0.1, "lower")["verdict"], "better")


if __name__ == "__main__":
    unittest.main()
