"""Command-line behavior: golden outputs, JSON schema, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest

from projchar import projclass
from projchar.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"

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


class TestJsonSchema:
    def test_document_shape(self, capsys):
        code, out, _ = run(capsys, "zbasis", "3", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["subcommand", "inputs", "result", "audit"]
        assert doc["subcommand"] == "zbasis"
        assert doc["inputs"] == {"n": 3, "k": 3}
        assert doc["result"] == "2*c1^3 + -9*c1*c2 + 27*c3"
        assert isinstance(doc["audit"], list)

    def test_rationals_are_strings(self, capsys):
        _, out, _ = run(capsys, "lambda-p", "2", "2", "--json")
        doc = json.loads(out)
        assert doc["result"]["lambda"] == "4"
        assert doc["result"]["P"] == "-1*c1^2"

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

    def test_rank_five_end_classes_are_bounded(self, capsys):
        projclass._end_classes.cache_clear()
        projclass._end_c_poly.cache_clear()
        for command in ("end-in-a", "end-chern"):
            start = time.perf_counter()
            code, out, _ = run(capsys, command, "5", "4")
            elapsed = time.perf_counter() - start
            assert code == 0
            assert out.strip() not in ("", "0")
            assert elapsed < 5.0

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


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all suites passed"
        assert any(line.startswith("qpoly:") for line in lines)
        assert all(", 0 failed" in line for line in lines[:-1])
