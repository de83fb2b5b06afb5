#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

They need no build: they exercise the percentile rule, the q-value
recompute, the mass table and the output checker on crafted rows.
"""

import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402


def program_qvalues(floats, decoy):
    """The program's rule (search/fdr.cpp) on unprinted float scores:
    best first, decoys first at an exactly equal score, then the running
    minimum of decoys / max(1, targets) from the bottom."""
    order = sorted(range(len(floats)),
                   key=lambda i: (-floats[i], not decoy[i], i))
    fdr, t, d = [], 0, 0
    for i in order:
        d += decoy[i]
        t += not decoy[i]
        fdr.append(d / max(1, t))
    q, run = [0.0] * len(floats), math.inf
    for k in range(len(order) - 1, -1, -1):
        run = min(run, fdr[k])
        q[order[k]] = run
    return q


def fdr_rows(floats, decoy, qvalues):
    return [{"query_id": str(i), "score": f"{s:.6g}",
             "is_decoy": "1" if d else "0", "qvalue": f"{q:.6g}"}
            for i, (s, d, q) in enumerate(zip(floats, decoy, qvalues))]


class PercentileTest(unittest.TestCase):
    def test_median_by_nearest_rank(self):
        self.assertEqual(checks.percentile([5, 1, 3, 2, 4], 0.5), 3)

    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(ValueError):
            checks.percentile(list(range(99)), 0.9)
        self.assertEqual(checks.percentile(list(range(100)), 0.9), 89)

    def test_p99_needs_a_thousand(self):
        with self.assertRaises(ValueError):
            checks.percentile(list(range(999)), 0.99)
        checks.percentile(list(range(1000)), 0.99)


class QvalueTest(unittest.TestCase):
    # A target and a decoy whose scores print alike (8.68623) although the
    # target's float is the larger one, as in a real +-5 Da run.
    FLOATS = [9.5, 8.686234, 8.686226, 8.2, 7.1, 6.0, 5.0]
    DECOY = [False, False, True, False, False, True, False]

    def test_tie_group_brackets_the_program(self):
        for floats in (self.FLOATS,
                       [9.5, 8.686226, 8.686234, 8.2, 7.1, 6.0, 5.0]):
            rows = fdr_rows(floats, self.DECOY,
                            program_qvalues(floats, self.DECOY))
            self.assertEqual(rows[1]["score"], rows[2]["score"])
            checks.check_qvalues(rows, 0.02, None)

    def test_naive_recompute_would_differ(self):
        truth = program_qvalues(self.FLOATS, self.DECOY)
        printed = [float(f"{s:.6g}") for s in self.FLOATS]
        naive = program_qvalues(printed, self.DECOY)
        self.assertNotEqual(truth[1], naive[1])

    def test_accepted_count_must_match(self):
        q = program_qvalues(self.FLOATS, self.DECOY)
        rows = fdr_rows(self.FLOATS, self.DECOY, q)
        accepted = sum(1 for r in rows
                       if r["is_decoy"] == "0" and float(r["qvalue"]) <= 0.02)
        checks.check_qvalues(rows, 0.02, accepted)
        with self.assertRaises(checks.CheckError):
            checks.check_qvalues(rows, 0.02, accepted + 1)

    def test_wrong_qvalue_is_rejected(self):
        q = program_qvalues(self.FLOATS, self.DECOY)
        q[4] = q[4] / 2 + 0.01
        with self.assertRaises(checks.CheckError):
            checks.check_qvalues(fdr_rows(self.FLOATS, self.DECOY, q), 0.02,
                                 None)


class MassTest(unittest.TestCase):
    def test_known_peptide(self):
        # PEPTIDE, monoisotopic neutral mass 799.35996 Da.
        self.assertAlmostEqual(gen.peptide_mass("PEPTIDE"), 799.35996,
                               places=5)

    def test_modified_forms(self):
        seq, sites = gen.parse_annotated("M(Oxidation)PEPTIDEK(GlyGly)")
        self.assertEqual(seq, "MPEPTIDEK")
        self.assertEqual(sites, [(0, "Oxidation"), (8, "GlyGly")])
        self.assertAlmostEqual(
            gen.peptide_mass(seq, sites) - gen.peptide_mass(seq),
            15.99491462 + 114.04292744, places=8)

    def test_tryptic_rule(self):
        peps = gen.tryptic_peptides("AAAAAAKPAAAAAARGGG")
        self.assertIn("AAAAAAKPAAAAAAR", peps)      # K before P: no cut
        self.assertNotIn("AAAAAAK", peps)


class CheckerTest(unittest.TestCase):
    TARGET = "LLGAVDSEKR"

    def row(self, **overrides):
        base = {"query_id": "0", "psm_rank": "1", "peptide": self.TARGET,
                "base_sequence": self.TARGET,
                "neutral_mass": f"{gen.peptide_mass(self.TARGET):.5f}",
                "shared_peaks": "9", "score": "20.0000", "source_rank": "0",
                "is_decoy": "0"}
        base.update(overrides)
        return base

    def check(self, row, window=5.0):
        precursor = [gen.peptide_mass(self.TARGET)]
        checks.check_psm_rows([row], precursor, {self.TARGET}, window)

    def test_good_row_passes(self):
        self.check(self.row())

    def test_planted_wrong_rows_are_rejected(self):
        wrong = [
            self.row(neutral_mass=f"{gen.peptide_mass(self.TARGET) + 0.01:.5f}"),
            self.row(is_decoy="1"),
            self.row(peptide="LLGAVDSEKK", base_sequence="LLGAVDSEKK",
                     neutral_mass=f"{gen.peptide_mass('LLGAVDSEKK'):.5f}"),
            self.row(peptide="LLGAVDSEK(GlyGly)R",
                     neutral_mass=f"{gen.peptide_mass(self.TARGET) + 114.04292744:.5f}"),
            self.row(peptide="L(Oxidation)LGAVDSEKR",
                     neutral_mass=f"{gen.peptide_mass(self.TARGET) + 15.99491462:.5f}"),
        ]
        for row in wrong:
            with self.subTest(row=row), self.assertRaises(checks.CheckError):
                self.check(row)

    def test_window_only_on_narrow_searches(self):
        shifted = self.row(peptide="LLGAVDSEK(GlyGly)R",
                           neutral_mass=f"{gen.peptide_mass(self.TARGET) + 114.04292744:.5f}")
        self.check(shifted, window=None)

    def test_daemon_rows_must_match(self):
        header = "query_id\tpsm_rank\tpeptide"
        oneshot = [header, "0\t1\tA", "1\t1\tB", "2\t1\tC"]
        with tempfile.TemporaryDirectory() as tmp:
            def write(name, lines):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    f.write("\n".join(lines) + "\n")
                return path
            ref = write("oneshot.tsv", oneshot)
            checks.check_daemon_rows(write("ok.tsv", oneshot[:3]), ref, 2)
            for bad in ([header, "0\t1\tA", "1\t1\tX"], oneshot[:2]):
                with self.assertRaises(checks.CheckError):
                    checks.check_daemon_rows(write("bad.tsv", bad), ref, 2)


if __name__ == "__main__":
    unittest.main()
