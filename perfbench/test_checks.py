"""Each checker passes the program's real output and fails a corrupted copy.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The real outputs come from projchar itself (package sources under src/);
each is then corrupted once, by a changed coefficient, a wrong weight or a
dropped entry, and the checker must report it.
"""

import contextlib
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from projchar import cli, surfalg  # noqa: E402

DOC = "n = 3\nd = 1\ng = 1\npoint = x\nmultiplicities = 1 2\nweights = 0 1/3\n"
PARAMS = {"n": 3, "d": 1, "g": 1, "points": [["x", [1, 2], ["0", "1/3"]]]}
ROOTS = [Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(-3)]


def result(*argv: str, document: str = "") -> object:
    """The "result" field of the CLI's JSON output; `document` is read as stdin."""
    buf, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--json"])
    finally:
        sys.stdin = stdin
    if code != 0:
        raise RuntimeError(f"projchar {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())["result"]


def bump(text: str, names: list[str]) -> str:
    """The same polynomial with its leading coefficient raised by one."""
    poly = checks.read_poly(text, names)
    lead = max(poly)
    poly[lead] += 1
    return checks.write_poly(poly, names)


class PolynomialCheckers(unittest.TestCase):
    def test_zbasis(self) -> None:
        at = checks.Roots(ROOTS)
        text = result("zbasis", "4", "3")
        self.assertIsNone(checks.check_zbasis(3, text, at))
        self.assertIsNotNone(checks.check_zbasis(3, bump(text, checks.c_names(4)), at))

    def test_lambda_p(self) -> None:
        at = checks.Roots(ROOTS)
        good = result("lambda-p", "4", "3")
        self.assertIsNone(checks.check_lambda_p(3, good, at))
        self.assertIsNotNone(checks.check_lambda_p(3, {**good, "lambda": "63"}, at))
        wrong_p = bump(good["P"], ["c1", "a2"])
        self.assertIsNotNone(checks.check_lambda_p(3, {**good, "P": wrong_p}, at))

    def test_end_chern_and_end_in_a(self) -> None:
        at = checks.Roots(ROOTS[:3])
        text = result("end-chern", "3", "4")
        self.assertIsNone(checks.check_end_chern(4, text, at))
        self.assertIsNotNone(checks.check_end_chern(4, bump(text, checks.c_names(3)), at))
        text = result("end-in-a", "3", "4")
        self.assertIsNone(checks.check_end_in_a(4, text, at))
        self.assertIsNotNone(checks.check_end_in_a(4, bump(text, checks.z_names(3)), at))

    def test_hom_flag(self) -> None:
        sub, target = ROOTS[:2], ROOTS[2:]
        text = result("hom-flag", "2", "2", "3")
        self.assertIsNone(checks.check_hom_flag(3, text, sub, target))
        names = ["s1", "s2", "t1", "t2"]
        self.assertIsNotNone(checks.check_hom_flag(3, bump(text, names), sub, target))

    def test_rewrite_and_reject(self) -> None:
        z_coeffs = {(2, 0, 0): Fraction(2), (0, 0, 1): Fraction(-1)}  # 2*z2^2 - z4 at rank 4
        c_text = checks.write_poly(checks.z_poly_in_c(4, z_coeffs), checks.c_names(4))
        good = result("invariance-check", "4", c_text)
        self.assertIsNone(checks.check_rewrite(good, 4, z_coeffs))
        wrong = {**good, "z_expression": bump(good["z_expression"], checks.z_names(4))}
        self.assertIsNotNone(checks.check_rewrite(wrong, 4, z_coeffs))
        rejected = result("invariance-check", "4", c_text + " + 1*c1^4")
        self.assertIsNone(checks.check_reject(rejected, 4))
        self.assertIsNotNone(checks.check_reject(good, 4))
        self.assertIsNotNone(checks.check_rewrite(rejected, 4, z_coeffs))


class WordCheckers(unittest.TestCase):
    def test_universal_bundle(self) -> None:
        good = result("universal-bundle", "-", document=DOC)
        self.assertIsNone(checks.check_universal_bundle(PARAMS, good))
        heavier = good["word"].replace("^", "^1", 1)  # first exponent times ten
        self.assertIsNotNone(checks.check_universal_bundle(PARAMS, {**good, "word": heavier}))
        fewer = {**good, "satisfied": ["C1"]}
        self.assertIsNotNone(checks.check_universal_bundle(PARAMS, fewer))

    def test_words(self) -> None:
        words = ["detU[x,2]^2 ⊗ DetU^1 ⊗ DetU(1)^-1"]  # 2*2 + 1 - 4 = 1
        self.assertIsNone(checks.check_words(PARAMS, ["C1", "C2", "C3"], words))
        self.assertIsNotNone(checks.check_words(PARAMS, ["C1", "C2", "C3"], ["detU[x]^1"]))
        self.assertIsNotNone(checks.check_words(PARAMS, ["C1", "C3"], words))

    def test_catalog(self) -> None:
        good = result("catalog", "-", document=DOC)
        self.assertIsNone(checks.check_catalog(PARAMS, False, good))
        self.assertIsNotNone(checks.check_catalog(PARAMS, False, good[1:]))
        self.assertIsNotNone(checks.check_catalog(PARAMS, True, good))


class TwistCheckers(unittest.TestCase):
    def test_canonicality_and_twist_back(self) -> None:
        algebra = surfalg.ParameterAlgebra((("v1", 1), ("u1", 2)), 6)
        ring = surfalg.SurfaceRing(1)
        u1 = algebra.gen("u1")
        c1 = surfalg.KunnethClass.tensor(algebra.gen("v1"), surfalg.SurfaceClass.alpha(ring, 1))
        c1 = c1 + surfalg.KunnethClass.from_param(u1, ring)
        c2 = surfalg.KunnethClass.from_param(3 * u1 * u1, ring)
        f = 2 * u1
        report = surfalg.canonicality_check(2, [c1, c2], f)
        h0 = dict(report.h0_shift.terms)
        self.assertIsNone(checks.check_canonicality(report.passed, 2, f.terms, h0))
        self.assertIsNotNone(checks.check_canonicality(False, 2, f.terms, h0))
        self.assertIsNotNone(checks.check_canonicality(True, 3, f.terms, h0))

        def plain(classes):
            return [{key: dict(elt.terms) for key, elt in c.parts.items()} for c in classes]

        back = surfalg.twist_chern(2, surfalg.twist_chern(2, [c1, c2], f), -f)
        self.assertIsNone(checks.check_twist_back(2, plain([c1, c2]), plain(back)))
        once = surfalg.twist_chern(2, [c1, c2], f)
        self.assertIsNotNone(checks.check_twist_back(2, plain([c1, c2]), plain(once)))


if __name__ == "__main__":
    unittest.main()
