"""Each independent check passes on real rbx output and fails on broken output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
from check import CheckFailed  # noqa: E402


def rbx_output(argv: list[str]) -> tuple[int, str]:
    import rbx.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rbx.cli.main(argv)
    return code, out.getvalue()


def replace_line(text: str, index: int, new: str) -> str:
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def drop_line(text: str, index: int) -> str:
    lines = text.splitlines()
    del lines[index]
    return "\n".join(lines) + "\n"


class EnumerationChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.gr2 = check.load_algebra("gr2_f3.alg")
        cls.gr2_autos = check.MatrixGroup(check.automorphisms(cls.gr2), 4, 3)
        cls.k3 = check.load_algebra("k3_f3.alg")
        cls.k3_autos = check.MatrixGroup(check.automorphisms(cls.k3), 3, 3)
        _, cls.derivations = rbx_output(
            ["enumerate", "--algebra", run._input("gr2_f3.alg"), "--kind", "derivation", "--weight", "1"]
        )
        _, cls.operators = rbx_output(
            ["enumerate", "--algebra", run._input("k3_f3.alg"), "--weight", "1"]
        )

    def check_derivations(self, text):
        check.check_enumeration(
            text, self.gr2, "derivation", 1, check.FIGURES["Gr2-F3-derivations-w1"], self.gr2_autos
        )

    def check_operators(self, text):
        check.check_enumeration(text, self.k3, "rb", 1, check.FIGURES["K3-F3-w1"], self.k3_autos)

    def test_real_output_passes(self):
        self.check_derivations(self.derivations)
        self.check_operators(self.operators)

    def test_automorphism_counts(self):
        # 730 multiplicative maps of Gr2 over F3, of which 432 are invertible
        self.assertEqual(len(self.gr2_autos.elements), 432)
        self.assertEqual(len(check.automorphisms(check.load_algebra("tp4_f2.alg"))), 24)

    def test_corrupted_entry(self):
        lines = self.operators.splitlines()
        row = lines[5].split()
        row[0] = str((int(row[0]) + 1) % 3)
        with self.assertRaises(CheckFailed):
            self.check_operators(replace_line(self.operators, 5, " ".join(row)))
        # still sorted, so only the identity check can catch it
        last = len(self.operators.splitlines()) - 1
        with self.assertRaisesRegex(CheckFailed, "fails the rb identity"):
            self.check_operators(replace_line(self.operators, last, " ".join(["2"] * 9)))
        row = self.derivations.splitlines()[100].split()
        row[-1] = str((int(row[-1]) + 1) % 3)
        with self.assertRaises(CheckFailed):
            self.check_derivations(replace_line(self.derivations, 100, " ".join(row)))

    def test_dropped_operator(self):
        dropped = drop_line(self.operators, 10)
        with self.assertRaises(CheckFailed):
            self.check_operators(dropped)
        # the header's count fixed up to match: the pinned figure still fails it
        header = self.operators.splitlines()[0].replace("count=74", "count=73")
        with self.assertRaises(CheckFailed):
            self.check_operators(replace_line(dropped, 0, header))

    def test_dropped_operator_breaks_closure(self):
        # with the expected count lowered as well, closure still catches it
        dropped = drop_line(self.operators, 10)
        header = self.operators.splitlines()[0].replace("count=74", "count=73")
        with self.assertRaises(CheckFailed):
            check.check_enumeration(replace_line(dropped, 0, header), self.k3, "rb", 1, 73, self.k3_autos)

    def test_repeated_or_unsorted_rows(self):
        lines = self.operators.splitlines()
        swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
        with self.assertRaises(CheckFailed):
            self.check_operators("\n".join(swapped) + "\n")
        repeated = lines[:4] + [lines[3]] + lines[5:]
        with self.assertRaises(CheckFailed):
            self.check_operators("\n".join(repeated) + "\n")


class OrbitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.gr2 = check.load_algebra("gr2_f3.alg")
        cls.gr2_autos = check.MatrixGroup(check.automorphisms(cls.gr2), 4, 3)
        _, cls.classify = rbx_output(
            ["classify", "--algebra", run._input("gr2_f3.alg"), "--weight", "1"]
        )

    def check_classify(self, text):
        check.check_classify(text, self.gr2, 1, check.FIGURES["Gr2-F3-w1"], self.gr2_autos)

    def test_real_output_passes(self):
        self.check_classify(self.classify)

    def test_two_merged_orbits(self):
        lines = self.classify.splitlines()
        orbit = [check._ORBIT.fullmatch(ln) for ln in lines[1:-1]]
        # merge the last orbit into the one before it and renumber the total
        last, before = orbit[-1], orbit[-2]
        merged = (
            f"orbit {before.group(1)}: size={int(before.group(2)) + int(last.group(2))} "
            f"rep={before.group(3)} tags={before.group(4)}"
        )
        total = check._TOTAL.fullmatch(lines[-1])
        new = lines[:-3] + [merged, f"total={total.group(1)} orbits={int(total.group(2)) - 1}"]
        with self.assertRaises(CheckFailed):
            self.check_classify("\n".join(new) + "\n")

    def test_wrong_orbit_size(self):
        lines = self.classify.splitlines()
        m = check._ORBIT.fullmatch(lines[1])
        bad = f"orbit 0: size={int(m.group(2)) + 1} rep={m.group(3)} tags={m.group(4)}"
        with self.assertRaises(CheckFailed):
            self.check_classify(replace_line(self.classify, 1, bad))

    def test_wrong_tag(self):
        lines = self.classify.splitlines()
        m = check._ORBIT.fullmatch(lines[1])
        tags = m.group(4).replace("splitting", "nonsplitting")
        bad = f"orbit 0: size={m.group(2)} rep={m.group(3)} tags={tags}"
        with self.assertRaises(CheckFailed):
            self.check_classify(replace_line(self.classify, 1, bad))


class ClaimChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        m2 = check.load_algebra("m2_f3.alg")
        cls.m2 = (m2, check.m2_group(m2))
        cls.outputs = {}
        for cid in ("T2-even-splitting", "T6-soundness"):
            c = check.CLAIMS[cid]
            cls.outputs[cid] = rbx_output(
                ["verify", "--claim", cid, "--p", str(c.p), "--weight", str(c.weight)]
            )

    def test_real_output_passes(self):
        for cid, (code, text) in self.outputs.items():
            check.check_claim(cid, text, code, self.m2)

    def test_failed_claim_line(self):
        code, text = self.outputs["T2-even-splitting"]
        failed = text.replace("pass: all splitting", "fail: all splitting")
        with self.assertRaises(CheckFailed):
            check.check_claim("T2-even-splitting", failed, 1, self.m2)
        with self.assertRaises(CheckFailed):
            check.check_claim("T2-even-splitting", failed, 0, self.m2)
        not_all = text.replace("splitting=all", "splitting=NOT all", 1)
        with self.assertRaises(CheckFailed):
            check.check_claim("T2-even-splitting", not_all, code, self.m2)

    def test_wrong_figure(self):
        code, text = self.outputs["T2-even-splitting"]
        with self.assertRaises(CheckFailed):
            check.check_claim("T2-even-splitting", text.replace("26 operators", "25 operators"), code, self.m2)

    def test_merged_orbits_in_claim(self):
        code, text = self.outputs["T6-soundness"]
        lines = text.splitlines()
        idx = [k for k, ln in enumerate(lines) if check._ORBIT.fullmatch(ln)]
        a, b = (check._ORBIT.fullmatch(lines[k]) for k in idx[-2:])
        lines[idx[-2]] = f"orbit {a.group(1)}: size={int(a.group(2)) + int(b.group(2))} rep={a.group(3)} tags={a.group(4)}"
        del lines[idx[-1]]
        lines = [ln.replace("orbits=5", "orbits=4") for ln in lines]
        with self.assertRaises(CheckFailed):
            check.check_claim("T6-soundness", "\n".join(lines) + "\n", code, self.m2)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        path = HERE.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
