"""Command-line behavior: golden outputs, JSON schema, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projchar import projclass
from projchar.cli import _COMMANDS, _JSON, _build_parser, _read_canonical, main

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

NEWSTEAD_DOC = "n = 2\nd = 1\ng = 2\n"
PARABOLIC_DOC = (
    "n = 2\nd = 0\ng = 0\npoint = x\nmultiplicities = 1 1\nweights = 0 1/2\n"
)
EMPTY_CONDITIONS_DOC = (
    "n = 4\nd = 2\ng = 0\npoint = x\nmultiplicities = 2 2\nweights = 0 1/2\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_zbasis(self, capsys):
        code, out, _ = run(capsys, "zbasis", "2", "2")
        assert code == 0
        assert out == "-1*c1^2 + 4*c2\n"

    def test_lambda_p(self, capsys):
        code, out, _ = run(capsys, "lambda-p", "2", "2")
        assert code == 0
        assert out == "lambda = 4, P = -1*c1^2\n"

    def test_end_in_a(self, capsys):
        code, out, _ = run(capsys, "end-in-a", "2", "2")
        assert code == 0
        assert out == "1*z2\n"

    def test_end_chern_odd_is_zero(self, capsys):
        code, out, _ = run(capsys, "end-chern", "3", "3")
        assert code == 0
        assert out == "0\n"

    def test_hom_flag(self, capsys):
        code, out, _ = run(capsys, "hom-flag", "1", "2", "2")
        assert code == 0
        assert out == "1*s1^2 + -1*s1*t1 + -1*s1*t2 + 1*t1*t2\n"

    def test_catalog_against_golden_file(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(NEWSTEAD_DOC)
        code, out, _ = run(capsys, "catalog", str(doc), "--fixed-det")
        assert code == 0
        assert out == (GOLDEN / "catalog_newstead_g2.txt").read_text()


class TestAClass:
    def test_generic_rank_three(self, capsys):
        code, out, _ = run(capsys, "aclass", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a2 = -3*c1^2 + 9*c2"
        assert lines[1] == "a3 = 2*c1^3 + -9*c1*c2 + 27*c3"

    def test_assignments(self, capsys):
        code, out, _ = run(capsys, "aclass", "3", "--set", "c1=0", "--set", "c2=0")
        assert code == 0
        assert out == "a2 = 0\na3 = 27*c3\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_repeated_assignment_is_refused(self, capsys, json_flag):
        argv = ("aclass", "2", "--set", "c1=1*c1", "--set", "c1=2*c1", *json_flag)
        assert run(capsys, *argv) == (1, "", "error: c1 is assigned twice\n")

    def test_rank_one(self, capsys):
        code, out, _ = run(capsys, "aclass", "1")
        assert code == 0
        assert out == "rank 1 has no canonical classes\n"

    def test_bad_assignment_is_domain_error(self, capsys):
        code, _, err = run(capsys, "aclass", "2", "--set", "c5=1")
        assert code == 1
        assert "c5" in err

    def test_mixed_weight_value_names_its_class(self, capsys):
        code, out, err = run(capsys, "aclass", "3", "--set", "c2=1*c1^2 + 1/2*c3")
        assert (code, out) == (1, "")
        assert err == "error: value for c2 is not homogeneous: term weights [2, 3]\n"


class TestInvarianceCheck:
    def test_invariant_polynomial(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "2", "1*c2 + -1/4*c1^2")
        assert code == 0
        assert out == "invariant: yes\nz-expression: 1/4*z2\n"
        # a zero exponent parses, and the factor reads as 1
        assert run(capsys, "invariance-check", "2", "1*c1^0") == (
            0,
            "invariant: yes\nz-expression: 1\n",
            "",
        )

    def test_non_invariant_polynomial(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "2", "1*c1")
        assert code == 0
        assert out == "invariant: no\n"

    def test_high_power_of_c1_rejected_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "invariance-check", "3", "1*c1^40")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == "invariant: no\n"
        assert elapsed < 5.0

    def test_mixed_weights_report_each_component(self, capsys):
        code, out, _ = run(
            capsys, "invariance-check", "2", "1*c2 + -1/4*c1^2 + 3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {"invariant": True, "z_expression": "1/4*z2 + 3"}
        assert doc["audit"] == [
            "weight 0 component: invariant",
            "weight 2 component: invariant",
        ]

    def test_json_reports_null_expression(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "2", "1*c1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {"invariant": False, "z_expression": None}

    def test_leading_minus_follows_double_dash(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "2", "--json", "--", "-1*c2")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == {"n": 2, "polynomial": "-1*c2"}
        assert doc["result"]["invariant"] is False


class TestJsonSchema:
    def test_document_shape(self, capsys):
        code, out, _ = run(capsys, "zbasis", "3", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["subcommand", "inputs", "result", "audit"]
        assert doc["subcommand"] == "zbasis"
        assert doc["result"] == "2*c1^3 + -9*c1*c2 + 27*c3"
        assert isinstance(doc["audit"], list)

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (("zbasis", "3", "3"), {"n": 3, "k": 3}),
            (("lambda-p", "3", "2"), {"n": 3, "k": 2}),
            (("aclass", "2"), {"n": 2, "assignments": []}),
            (
                ("aclass", "3", "--set", "c2=0", "--set", "c1=1*c1"),
                {"n": 3, "assignments": ["c2=0", "c1=1*c1"]},
            ),
            (("end-chern", "2", "2"), {"n": 2, "j": 2}),
            (("end-in-a", "2", "2"), {"n": 2, "j": 2}),
            (("invariance-check", "2", "1*c2"), {"n": 2, "polynomial": "1*c2"}),
            (("hom-flag", "1", "2", "2"), {"sub_rank": 1, "target_rank": 2, "j": 2}),
            (("catalog", "params.txt"), {"params": "params.txt", "fixed_det": False}),
            (
                ("canonicality", "2", "1", "--count", "1"),
                {"rank": 2, "genus": 1, "seed": 0, "count": 1},
            ),
            (
                ("universal-bundle", "params.txt", "--witness", "x,2"),
                {"params": "params.txt", "condition": None, "witness": "x,2"},
            ),
            (
                ("universal-bundle", "params.txt", "--witness=x,2", "--condition=C2"),
                {"params": "params.txt", "condition": "C2", "witness": "x,2"},
            ),
            (("selftest",), {}),
        ],
    )
    def test_inputs_echo_every_parsed_argument(
        self, capsys, tmp_path, monkeypatch, argv, inputs
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.txt").write_text(PARABOLIC_DOC)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["subcommand"] == argv[0]
        assert list(doc["inputs"].items()) == list(inputs.items())

    def test_rationals_are_strings(self, capsys):
        _, out, _ = run(capsys, "lambda-p", "2", "2", "--json")
        doc = json.loads(out)
        assert doc["result"]["lambda"] == "4"
        assert doc["result"]["P"] == "-1*c1^2"

    def test_lambda_p_audit_names_the_chern_ring_check(self, capsys):
        _, out, _ = run(capsys, "lambda-p", "4", "4", "--json")
        assert json.loads(out)["audit"] == [
            "identity: a4 = P + lambda*c4",
            "P involves only c1 and a2..a3",
            "verified in the Chern-class ring: P(c1, z2(c)..z3(c)) + lambda*c4 == z4(c)",
        ]
        _, out, _ = run(capsys, "lambda-p", "2", "2", "--json")
        assert json.loads(out)["audit"][-1] == (
            "verified in the Chern-class ring: P(c1) + lambda*c2 == z2(c)"
        )

    def test_lambda_p_audit_names_a_single_class_without_a_range(self, capsys):
        _, out, _ = run(capsys, "lambda-p", "3", "3", "--json")
        assert json.loads(out)["audit"][1:] == [
            "P involves only c1 and a2",
            "verified in the Chern-class ring: P(c1, z2(c)) + lambda*c3 == z3(c)",
        ]

    def test_structural_integers_stay_integers(self, capsys, tmp_path):
        doc_path = tmp_path / "params.txt"
        doc_path.write_text(NEWSTEAD_DOC)
        _, out, _ = run(capsys, "universal-bundle", str(doc_path), "--json")
        doc = json.loads(out)
        assert doc["result"]["weight"] == 1
        assert doc["result"]["satisfied"] == ["C1"]

    def test_catalog_entries(self, capsys, tmp_path):
        doc_path = tmp_path / "params.txt"
        doc_path.write_text(PARABOLIC_DOC)
        _, out, _ = run(capsys, "catalog", str(doc_path), "--fixed-det", "--json")
        doc = json.loads(out)
        assert doc["result"][0] == {"name": "c1(Hom(U[x,2],U[x,1]))", "degree": 2}


class TestUniversalBundle:
    def test_weight_line(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(NEWSTEAD_DOC)
        code, out, _ = run(capsys, "universal-bundle", str(doc))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "satisfied: C1"
        assert lines[1] == "condition: C1"
        assert lines[2] == "word: DetU(1)^0 ⊗ DetU^-1"
        assert lines[3] == "weight: 1"

    def test_no_condition_satisfied(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(EMPTY_CONDITIONS_DOC)
        code, out, _ = run(capsys, "universal-bundle", str(doc))
        assert code == 0
        assert out == "satisfied: none\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--condition", "C2"],
                "error: condition C2 is not satisfied by these parameters\n",
            ),
            (
                ["--condition", "C1", "--witness", "x,1"],
                "error: condition C1 is not satisfied by these parameters\n",
            ),
            (
                ["--witness", "x,1"],
                "error: --witness x,1: no condition is satisfied\n",
            ),
        ],
    )
    def test_flags_without_a_satisfied_condition_are_refused(
        self, capsys, tmp_path, flags, message, json_flag
    ):
        doc = tmp_path / "params.txt"
        doc.write_text(EMPTY_CONDITIONS_DOC)
        code, out, err = run(capsys, "universal-bundle", str(doc), *flags, *json_flag)
        assert (code, out, err) == (1, "", message)

    def test_explicit_condition_and_witness(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(PARABOLIC_DOC)
        code, out, _ = run(
            capsys,
            "universal-bundle",
            str(doc),
            "--condition",
            "C2",
            "--witness",
            "x,2",
        )
        assert code == 0
        assert "word: detU[x,2]^1 ⊗ DetU^0 ⊗ DetU(1)^0" in out
        assert "weight: 1" in out

    def test_witness_under_c1_is_domain_error(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text("n = 3\nd = 1\ng = 2\n")
        code, out, err = run(
            capsys, "universal-bundle", str(doc), "--witness", "nosuch,1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "C1" in err

    def test_malformed_witness(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(PARABOLIC_DOC)
        code, _, err = run(capsys, "universal-bundle", str(doc), "--witness", "x")
        assert code == 1
        assert "LABEL,J" in err

    def test_non_integer_witness_index_names_the_option(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(PARABOLIC_DOC)
        code, out, err = run(
            capsys, "universal-bundle", str(doc), "--condition", "C2", "--witness", "x,y"
        )
        assert code == 1
        assert out == ""
        assert err == "error: witness must be LABEL,J with an integer J, got 'x,y'\n"

    def test_stdin_document(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(NEWSTEAD_DOC))
        code, out, _ = run(capsys, "universal-bundle", "-")
        assert code == 0
        assert "weight: 1" in out


class TestCanonicality:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "canonicality", "2", "1", "--count", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "instances: 3, passed: 3, failed: 0"
        assert lines[1] == "h0 shift equals rank*f on every instance: yes"

    def test_seeded_rerun_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "canonicality", "2", "2", "--seed", "9", "--count", "4")
        _, second, _ = run(capsys, "canonicality", "2", "2", "--seed", "9", "--count", "4")
        assert first == second

    def test_bad_count(self, capsys):
        code, _, err = run(capsys, "canonicality", "2", "1", "--count", "0")
        assert code == 1
        assert "count" in err


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "zbasis", "2", "7")
        assert code == 1
        assert err.startswith("error: ")

    def test_usage_error_is_two(self, capsys):
        assert run(capsys, "zbasis", "2")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys)[0] == 2

    def test_rank_zero_end_classes_report_the_rank(self, capsys):
        for command in ("end-chern", "end-in-a"):
            code, out, err = run(capsys, command, "0", "1")
            assert code == 1
            assert out == ""
            assert err == "error: rank must be positive, got 0\n"

    def test_rank_zero_lambda_p_reports_the_rank(self, capsys):
        code, out, err = run(capsys, "lambda-p", "0", "2")
        assert code == 1
        assert out == ""
        assert err == "error: rank must be positive, got 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("-1", "3", "1"), "sub_rank must be positive, got -1"),
            (("2", "-3", "1"), "target_rank must be positive, got -3"),
            (("0", "0", "5"), "sub_rank must be positive, got 0"),
        ],
    )
    def test_hom_flag_non_positive_rank_is_reported_before_j(
        self, capsys, argv, message
    ):
        code, out, err = run(capsys, "hom-flag", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("-3", "1"), "rank must be positive, got -3"),
            (("0", "-1"), "rank must be positive, got 0"),
        ],
    )
    def test_canonicality_reports_a_bad_rank_before_the_genus(
        self, capsys, argv, message
    ):
        code, out, err = run(capsys, "canonicality", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_rank_five_end_classes_are_bounded(self, capsys):
        projclass._end_classes.cache_clear()
        for command in ("end-in-a", "end-chern"):
            start = time.perf_counter()
            code, out, _ = run(capsys, command, "5", "4")
            elapsed = time.perf_counter() - start
            assert code == 0
            assert out.strip() not in ("", "0")
            assert elapsed < 5.0

    def test_repeated_document_key_is_domain_error(self, capsys, tmp_path):
        doc = tmp_path / "params.txt"
        doc.write_text(NEWSTEAD_DOC + "n = 3\n")
        code, out, err = run(capsys, "catalog", str(doc))
        assert (code, out, err) == (1, "", "error: line 4: duplicate key 'n'\n")

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "catalog", "/nonexistent/params.txt")
        assert code == 1
        assert "error: " in err

    @pytest.mark.parametrize("command", ["catalog", "universal-bundle"])
    @pytest.mark.parametrize(
        "weights, message",
        [
            ("0 1/0", "line 6: zero denominator in '0 1/0'"),
            ("0 nan", "line 6: Invalid literal for Fraction: 'nan'"),
            ("0 1e300000", "line 6: exponent too large in '1e300000'"),
        ],
    )
    def test_unreadable_weight_is_domain_error(
        self, capsys, tmp_path, command, weights, message
    ):
        doc = tmp_path / "params.txt"
        doc.write_text(PARABOLIC_DOC.replace("0 1/2", weights))
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(doc))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_reruns_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "zbasis", "4", "3")
        _, second, _ = run(capsys, "zbasis", "4", "3")
        assert first == second

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        assert _build_parser() is _build_parser()
        for assignment, code in (("c1=2", 1), ("c1=0", 0)):
            assert run(capsys, "aclass", "2", "--set", assignment)[0] == code
            assert run(capsys, "aclass", "2") == (0, "a2 = -1*c1^2 + 4*c2\n", "")
        code, out, err = run(capsys, "zbasis", "x")
        assert code == 2 and out == "" and "invalid int value: 'x'" in err
        assert run(capsys, "zbasis", "2", "2") == (0, "-1*c1^2 + 4*c2\n", "")

    def test_assignments_default_is_not_shared_between_calls(self, capsys):
        for options, assignments in ((("--set", "c1=0"), ["c1=0"]), ((), [])):
            _, out, _ = run(capsys, "aclass", "2", *options, "--json")
            assert json.loads(out)["inputs"] == {"n": 2, "assignments": assignments}


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all suites passed"
        assert any(line.startswith("qpoly:") for line in lines)
        assert all(", 0 failed" in line for line in lines[:-1])


# argv tokens: every option string, the spellings argparse reads in its own
# way ('-', '--', prefixes, --opt=value, negative numbers, -h), values that
# convert and values that do not, and classes led by '-' with and without
# spaces (argparse reads one with a space as a value unless it has '=' or
# starts with -h)
VALUES = [
    "-", "--", "", " 3", "3_0", "-3", "-1 ", "2", "3", "0", "x", "C1", "C2",
    "C9", "x,2", "c1=0", "-1*c2", "-1*c1^2 + 4*c2", "-h 1*c2", "-1*c1 = 2",
    "--x y", "-- 1", "1*c2 + -1/4*c1^2", "params.txt",
]
ARGV_TOKENS = [
    *VALUES,
    *(flag for _, _, arguments in _COMMANDS.values() for flag, _ in arguments),
    "--json", "-h", "--help", "--js", "--json=1", "--seed=3", "--set=c1=0", "--fix",
]
COMMAND_NAMES = [*_COMMANDS, "no-such-command", "zbas", "", "-", "--json", "-h"]
# half the values convert to int, so that most argv reach the reader's end
VALUE_ST = st.one_of(st.sampled_from(["2", "3", " 3", "3_0", "-1 "]), st.sampled_from(VALUES))


@st.composite
def argv_st(draw):
    """A subcommand's arguments in any order; in half the draws, then up to
    three tokens inserted, deleted or replaced: extra and missing tokens."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    _, _, arguments = _COMMANDS.get(command, (None, None, ()))
    groups = []
    for name, keywords in (_JSON, *arguments):
        if name[0] != "-":
            groups.append([draw(VALUE_ST)])
        elif keywords.get("action") == "store_true":
            groups += [[name]] * draw(st.integers(0, 2))
        else:
            for _ in range(draw(st.integers(0, 2))):
                groups.append([name, draw(VALUE_ST)])
    tokens = [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert":
            del tokens[at:at + 1]
        if edit != "delete":
            tokens.insert(at, draw(st.sampled_from(ARGV_TOKENS)))
    return [command, *tokens] if draw(st.integers(0, 50)) else []


def _argparse_reads(argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return _build_parser().parse_args(argv)
        except SystemExit:
            return None


def _benchmark_argv(seeds):
    """Every argv the derive and classify benchmark workloads run, per seed.

    The workloads are built with their warm-up child and warm-up round
    replaced by no-ops, so nothing is timed or spawned.
    """
    path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("_bench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        bench.Derive._spawn = lambda self, commands, trace=False: {}
        bench.Classify.round = lambda self, tracer: None
        argvs = []
        for seed in seeds:
            argvs += [argv for _, argv, _ in bench.Derive(Random(seed)).commands]
            argvs += [argv for _, argv, _, _ in bench.Classify(Random(seed)).queries]
        return argvs
    finally:
        # perfbench's flat module names (checks, meter, ...) must not stay
        sys.path[:] = path
        for name, module in list(sys.modules.items()):
            if PERFBENCH in Path(getattr(module, "__file__", None) or "/").parents:
                del sys.modules[name]


class TestCanonicalReader:
    @settings(deadline=None, max_examples=1500)
    @given(argv_st())
    def test_agrees_with_argparse(self, argv):
        ours = _read_canonical(argv)
        if ours is None:
            return
        theirs = _argparse_reads(argv)
        assert theirs is not None, argv
        assert list(vars(ours).items()) == list(vars(theirs).items()), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariance-check", "3", "-123*c1^2 + 456*c2", "--json"],
            ["aclass", "3", "--set", "c1=0", "--json", "--set", "c2=-1*c1^2"],
            ["canonicality", "2", "--seed", " 3", "1", "--count", "3_0"],
            ["universal-bundle", "-", "--condition", "C2", "--witness", "x,2"],
            ["catalog", "--fixed-det", "params.txt"],
            ["hom-flag", "1", "2", "-1 "],
            ["selftest", "--json"],
        ],
    )
    def test_reads_canonical_spellings_like_argparse(self, argv):
        ours = _read_canonical(argv)
        assert ours is not None
        assert list(vars(ours).items()) == list(vars(_argparse_reads(argv)).items())

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["zbasis", "2"],
            ["zbasis", "2", "2", "3"],
            ["zbasis", "-1", "2"],
            ["zbasis", "x", "2"],
            ["zbasis", "--js", "2", "2"],
            ["zbasis", "2", "2", "-h"],
            ["invariance-check", "2", "-1*c2"],
            ["invariance-check", "2", "--", "-1*c2"],
            ["invariance-check", "2", "-h 1*c2"],
            ["invariance-check", "2", "-1*c1 = 2"],
            ["aclass", "2", "--set=c1=0"],
            ["aclass", "2", "--set"],
            ["universal-bundle", "-", "--condition", "C9"],
            ["universal-bundle", "-", "--witness", "--json"],
        ],
    )
    def test_leaves_other_argv_to_argparse(self, argv):
        assert _read_canonical(argv) is None

    def test_reads_every_benchmark_argv(self):
        argvs = _benchmark_argv(range(1, 6))
        classes = [argv[2] for argv in argvs if argv[0] == "invariance-check"]
        assert any(text.startswith("-") for text in classes)
        assert [argv for argv in argvs if _read_canonical(argv) is None] == []
