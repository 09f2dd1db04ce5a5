"""Golden CLI sweep: every subcommand, text and --json, byte for byte.

Each line of tests/golden/cli_sweep.txt holds one invocation's argv (as a
JSON list), its exit code and the sha256 of its stdout and of its stderr.
The sweep covers every subcommand in text and --json, including rank-0,
out-of-range and malformed inputs.  The parameter documents named in the
argv are written to a scratch directory that is the working directory
while the sweep runs, so their relative names appear verbatim in --json
inputs and error messages.

Regenerate the file after an intended output change with

    PYTHONPATH=src python3 tests/test_cli_golden.py > tests/golden/cli_sweep.txt

and check that `git diff` touches only the lines of the invocations whose
output was meant to change.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from projchar.cli import main
from projchar.projclass import chern_ring, z_basis

GOLDEN = Path(__file__).parent / "golden" / "cli_sweep.txt"

DOCUMENTS = {
    "newstead.txt": "n = 2\nd = 1\ng = 2\n",
    "parabolic.txt": (
        "n = 2\nd = 0\ng = 0\npoint = x\nmultiplicities = 1 1\nweights = 0 1/2\n"
    ),
    "two_points.txt": (
        "n = 3\nd = 0\ng = 1\n"
        "point = x\nmultiplicities = 1 2\nweights = 0 1/3\n"
        "point = y\nmultiplicities = 2 1\nweights = 0 1/2\n"
    ),
    "no_condition.txt": (
        "n = 4\nd = 2\ng = 0\npoint = x\nmultiplicities = 2 2\nweights = 0 1/2\n"
    ),
    "rank_three.txt": "n = 3\nd = 1\ng = 2\n",
    "malformed.txt": "n = 2\nthis line has no equals sign\n",
}

# z2*z4 - 2*z3^2 + z2^3 at rank 5, and the same plus z6 at rank 6, in the c_i
INVARIANT_WEIGHT_6 = {
    5: (
        "-1650*c1^6 + 12375*c1^4*c2 + -7500*c1^3*c3 + -28125*c1^2*c2^2"
        " + -6250*c1^2*c4 + 31250*c1*c2*c3 + 15625*c2^3 + 15625*c2*c4"
        " + -31250*c3^2"
    ),
    6: (
        "-5905*c1^6 + 42516*c1^4*c2 + -25056*c1^3*c3 + -92016*c1^2*c2^2"
        " + -18144*c1^2*c4 + 101088*c1*c2*c3 + -7776*c1*c5 + 46656*c2^3"
        " + 46656*c2*c4 + -93312*c3^2 + 46656*c6"
    ),
}



def _z2_power_in_c(e: int) -> str:
    """z2^e at rank 2 in the c_i, from z2 = 4*c2 - c1^2 and the binomial theorem."""
    terms = []
    for k in range(e + 1):
        factors = [str(math.comb(e, k) * 4**k * (-1) ** (e - k))]
        if e - k:
            factors.append(f"c1^{2 * (e - k)}")
        if k:
            factors.append("c2" if k == 1 else f"c2^{k}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _rank_6_weight_20_in_c() -> str:
    """z2^10 + 2*z4^5 - z5^4 + z2*z3^6 + z4^2*z6^2 at rank 6, in the c_i."""
    ring = chern_ring(6)
    z2, z3, z4, z5, z6 = (z_basis(ring, k) for k in range(2, 7))
    return (z2**10 + 2 * z4**5 - z5**4 + z2 * z3**6 + z4**2 * z6**2).to_text()


# each entry runs once as written and once with --json appended
INVOCATIONS = [
    ["zbasis", "2", "2"],
    ["zbasis", "3", "3"],
    ["zbasis", "4", "3"],
    ["zbasis", "5", "5"],
    ["zbasis", "0", "2"],
    ["zbasis", "-1", "2"],
    ["zbasis", "2", "1"],
    ["zbasis", "2", "3"],
    ["zbasis", "12", "7"],
    ["lambda-p", "2", "2"],
    ["lambda-p", "3", "2"],
    ["lambda-p", "3", "3"],
    ["lambda-p", "4", "4"],
    ["lambda-p", "0", "2"],
    ["lambda-p", "3", "1"],
    ["lambda-p", "2", "3"],
    ["aclass", "1"],
    ["aclass", "2"],
    ["aclass", "3"],
    ["aclass", "6"],
    ["aclass", "3", "--set", "c1=0", "--set", "c2=0"],
    ["aclass", "3", "--set", "c2=1/2*c1^2", "--set", "c3=1*c1*c2"],
    ["aclass", "3", "--set", "c2=1*c1^2 + 1/2*c3"],
    ["aclass", "2", "--set", "c1=2"],
    ["aclass", "2", "--set", "c5=1"],
    ["aclass", "2", "--set", "bad"],
    ["aclass", "0"],
    [
        "aclass", "5", "--set", "c1=-2*c1",
        "--set", "c3=1*c1*c2 + 1/3*c3", "--set", "c5=1*c1^2*c3",
    ],
    [
        "aclass", "4", "--set", "c1=-1*c1", "--set", "c2=1*c1^2 + 1*c2",
        "--set", "c3=1/2*c1*c2 + 1*c3", "--set", "c4=1*c2^2 + -1*c1*c3 + 2*c4",
    ],
    # p/q coefficients, unreduced, repeated and summing to an integer
    [
        "aclass", "3", "--set", "c2=-3/4*c1*c1 + 2/4*c2",
        "--set", "c3=1/3*c3*3 + 1/2*c1*c2 + 1/2*c2*c1",
    ],
    ["end-chern", "2", "2"],
    ["end-chern", "3", "2"],
    ["end-chern", "3", "3"],
    ["end-chern", "3", "6"],
    ["end-chern", "4", "4"],
    ["end-chern", "5", "10"],
    ["end-chern", "6", "30"],
    ["end-chern", "6", "20"],
    ["end-chern", "0", "1"],
    ["end-chern", "2", "0"],
    ["end-chern", "2", "5"],
    ["end-in-a", "2", "2"],
    ["end-in-a", "3", "4"],
    ["end-in-a", "3", "6"],
    ["end-in-a", "4", "6"],
    ["end-in-a", "5", "12"],
    ["end-in-a", "6", "30"],
    ["end-in-a", "0", "1"],
    ["end-in-a", "2", "0"],
    ["end-in-a", "3", "10"],
    ["invariance-check", "2", "1*c2 + -1/4*c1^2"],
    ["invariance-check", "2", "1*c1"],
    ["invariance-check", "2", "1*c2 + -1/4*c1^2 + 3"],
    ["invariance-check", "3", "1*c1^40"],
    ["invariance-check", "3", "-1*c1^2 + 3*c2"],
    ["invariance-check", "3", "0"],
    ["invariance-check", "2", "1*c3"],
    ["invariance-check", "2", "("],
    ["invariance-check", "0", "1"],
    # an invariant weight-6 class at ranks 5 and 6, then perturbed by c2^3
    ["invariance-check", "5", INVARIANT_WEIGHT_6[5]],
    ["invariance-check", "5", INVARIANT_WEIGHT_6[5] + " + 1*c2^3"],
    ["invariance-check", "6", INVARIANT_WEIGHT_6[6]],
    ["invariance-check", "6", INVARIANT_WEIGHT_6[6] + " + 1*c2^3"],
    ["invariance-check", "2", "1*c2^30"],
    # weights on both sides of 255, 65535 and 2^64 - 1
    ["invariance-check", "2", _z2_power_in_c(150)],
    ["invariance-check", "2", "1*c2^200 + 1*c1^400"],
    ["invariance-check", "2", "1*c1^256 + 1*c2^127"],
    ["invariance-check", "2", "1*c1^65535 + 1*c2"],
    ["invariance-check", "2", "1*c1^65536 + 1*c2"],
    ["invariance-check", "1", "1*c1^18446744073709551617"],
    # c1-free terms only, not invariant
    ["invariance-check", "4", "1*c2^2 + 3*c4"],
    # an invariant weight-2 component (z2) and a non-invariant weight-3 one
    ["invariance-check", "3", "-3*c1^2 + 9*c2 + 1*c3"],
    ["invariance-check", "6", _rank_6_weight_20_in_c()],
    ["invariance-check", "6", _rank_6_weight_20_in_c() + " + 1*c2^10"],
    # repeated coefficient and variable factors: -6*z2 at rank 2
    ["invariance-check", "2", "2*3*c1*c1 + -24*c2"],
    ["invariance-check", "2", "1/2*c1*c1*2 + -4*c2*1 + 0*c1"],
    ["hom-flag", "1", "2", "2"],
    ["hom-flag", "2", "2", "3"],
    ["hom-flag", "3", "4", "6"],
    ["hom-flag", "2", "3", "1"],
    ["hom-flag", "1", "1", "1"],
    ["hom-flag", "0", "2", "1"],
    ["hom-flag", "-1", "3", "1"],
    ["hom-flag", "2", "-3", "1"],
    ["hom-flag", "2", "0", "1"],
    ["hom-flag", "2", "2", "0"],
    ["hom-flag", "1", "1", "2"],
    ["catalog", "newstead.txt"],
    ["catalog", "newstead.txt", "--fixed-det"],
    ["catalog", "parabolic.txt", "--fixed-det"],
    ["catalog", "two_points.txt"],
    ["catalog", "malformed.txt"],
    ["catalog", "missing.txt"],
    ["canonicality", "2", "1", "--count", "3"],
    ["canonicality", "2", "2", "--seed", "9", "--count", "2"],
    ["canonicality", "3", "1", "--seed", "4", "--count", "1"],
    ["canonicality", "4", "3", "--seed", "2", "--count", "3"],
    ["canonicality", "2", "0", "--count", "2"],
    ["canonicality", "2", "1", "--count", "0"],
    ["canonicality", "0", "1"],
    ["canonicality", "4", "3", "--seed", "5", "--count", "40"],
    ["canonicality", "3", "2", "--seed", "7", "--count", "40"],
    ["canonicality", "-3", "1"],
    ["canonicality", "0", "-1"],
    ["universal-bundle", "newstead.txt"],
    ["universal-bundle", "parabolic.txt", "--condition", "C2", "--witness", "x,2"],
    ["universal-bundle", "two_points.txt"],
    ["universal-bundle", "two_points.txt", "--condition", "C3"],
    ["universal-bundle", "no_condition.txt"],
    ["universal-bundle", "no_condition.txt", "--condition", "C2"],
    ["universal-bundle", "no_condition.txt", "--witness", "x,1"],
    ["universal-bundle", "rank_three.txt", "--witness", "nosuch,1"],
    ["universal-bundle", "parabolic.txt", "--witness", "x"],
    ["universal-bundle", "parabolic.txt", "--condition", "C2", "--witness", "x,y"],
    ["universal-bundle", "malformed.txt"],
    ["universal-bundle", "missing.txt"],
    ["selftest"],
    # usage errors (exit 2) and alternate spellings that argparse reads
    [],
    ["no-such-command"],
    ["zbasis", "2"],
    ["zbasis", "x", "2"],
    ["zbasis", "2", "2", "3"],
    ["zbasis", " 3", "0_3"],
    ["zbasis", "--js", "2", "2"],
    ["selftest", "extra"],
    ["invariance-check", "2", "-1*c2"],
    ["invariance-check", "2", "--json", "--", "-1*c2"],
    ["canonicality", "2", "1", "--count=3"],
    ["canonicality", "2", "1", "--seed"],
    ["universal-bundle", "newstead.txt", "--condition", "C9"],
    ["universal-bundle", "parabolic.txt", "--witness", "--json"],
    ["aclass", "2", "--set=c1=0"],
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (
        f"{json.dumps(argv, ensure_ascii=False)} exit={code}"
        f" stdout={_digest(out.getvalue())} stderr={_digest(err.getvalue())}"
    )


def sweep_lines() -> list[str]:
    """Run the whole sweep inside a scratch directory holding DOCUMENTS."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in DOCUMENTS.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        os.chdir(scratch)
        try:
            return [
                _run(argv + extra) for argv in INVOCATIONS for extra in ([], ["--json"])
            ]
        finally:
            os.chdir(previous)


def test_cli_sweep_matches_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = sweep_lines()
    for want, got in zip(expected, actual):
        assert got == want, f"first differing invocation:\n  want {want}\n  got  {got}"
    assert len(actual) == len(expected), (
        f"sweep has {len(actual)} invocations, golden file {len(expected)};"
        " regenerate it (see the module docstring)"
    )


if __name__ == "__main__":
    sys.stdout.write("\n".join(sweep_lines()) + "\n")
