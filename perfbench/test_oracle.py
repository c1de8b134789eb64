"""Tests of the perfbench answer oracle.

Run from the repository root:  python3 -m unittest perfbench/test_oracle.py

The fixtures are two real `unveil analyze` reports of the 307,200-burst
wavesim trace (256 ranks x 400 iterations, seed 1): the one the default
stratified-sampled clustering prints (1,317 clusters, period 0) and the
correct one (3 clusters, period 3).
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import Answer, ReportError, Truth, judge, parse_report, report_table  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
WAVESIM_TRUTH = Truth(phases=frozenset({0, 1, 2}), period=3)


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


class ParseReportTest(unittest.TestCase):
    def test_sampled_report(self):
        answer = parse_report(fixture("wavesim-307k-seed1-sampled.txt"))
        self.assertEqual(answer.period, 0)
        self.assertEqual(len(answer.clusters), 1317)
        self.assertEqual(answer.noise, 68678)
        self.assertEqual(answer.bursts, 307200)

    def test_correct_report(self):
        answer = parse_report(fixture("wavesim-307k-seed1-correct.txt"))
        self.assertEqual(answer.period, 3)
        self.assertEqual(
            answer.clusters, ((98758, 0, True), (97849, 2, True), (96565, 1, True))
        )
        self.assertEqual(answer.noise, 14028)
        self.assertEqual(answer.bursts, 307200)

    def test_table_block_stops_at_blank_line(self):
        table = report_table(fixture("wavesim-307k-seed1-correct.txt"))
        self.assertTrue(table.startswith("== detected computation phases ==\n"))
        self.assertEqual(len(table.splitlines()), 7)

    def test_rejects_non_report(self):
        with self.assertRaises(ReportError):
            parse_report("error: analyze requires --trace\n")


class JudgeTest(unittest.TestCase):
    def test_seed_sampled_report_fails(self):
        verdict = judge(parse_report(fixture("wavesim-307k-seed1-sampled.txt")), WAVESIM_TRUTH)
        self.assertFalse(verdict.ok)
        self.assertEqual(len(verdict.reasons), 2)
        self.assertIn("period 0", verdict.reasons[0])

    def test_correct_report_passes(self):
        verdict = judge(parse_report(fixture("wavesim-307k-seed1-correct.txt")), WAVESIM_TRUTH)
        self.assertTrue(verdict.ok, verdict.reasons)

    def test_unfolded_satellites_do_not_count(self):
        answer = Answer(period=4, bursts=100, noise=3,
                        clusters=((50, 2, True), (25, 0, True), (20, 1, True), (2, 2, False)))
        self.assertTrue(judge(answer, Truth(frozenset({0, 1, 2}), 4)).ok)

    def test_split_phase_fails(self):
        answer = Answer(period=3, bursts=100, noise=0,
                        clusters=((40, 0, True), (30, 1, True), (20, 2, True), (10, 2, True)))
        self.assertFalse(judge(answer, WAVESIM_TRUTH).ok)

    def test_missing_phase_fails(self):
        answer = Answer(period=3, bursts=100, noise=0, clusters=((60, 0, True), (40, 1, True)))
        self.assertFalse(judge(answer, WAVESIM_TRUTH).ok)

    def test_wrong_period_alone_fails(self):
        answer = Answer(period=6, bursts=100, noise=0,
                        clusters=((40, 0, True), (30, 1, True), (30, 2, True)))
        verdict = judge(answer, WAVESIM_TRUTH)
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.reasons, ["period 6, true period 3"])


if __name__ == "__main__":
    unittest.main()
