"""Determinant line bundles: weights, coprimality conditions, weight-one words."""

import io
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from projchar.cli import main
from projchar.selftest import random_moduli_params
from projchar.univdet import (
    ConditionWitness,
    LineBundleWord,
    ModuliParams,
    ParabolicDatum,
    ParabolicPoint,
    bezout_min_nonneg,
    check_conditions,
    construct_xi,
    det_flag,
    det_point,
    det_u,
    parse_moduli_params,
    weight_audit,
    weight_of,
)


def point(label="x", ms=(1, 1), ws=("0", "1/2")):
    return ParabolicPoint(label, tuple(ms), tuple(Fraction(w) for w in ws))


def params(n, d, g=0, points=()):
    return ModuliParams(n, d, g, ParabolicDatum(tuple(points)))


class TestParabolicData:
    def test_tail_rank(self):
        p = point(ms=(2, 1, 3), ws=("0", "1/4", "1/2"))
        assert p.tail_rank(1) == 6
        assert p.tail_rank(2) == 4
        assert p.tail_rank(3) == 3
        with pytest.raises(ValueError):
            p.tail_rank(0)
        with pytest.raises(ValueError):
            p.tail_rank(4)

    def test_validate_accepts_good_datum(self):
        params(2, 1, points=[point()]).validate()

    def test_multiplicities_must_sum_to_rank(self):
        with pytest.raises(ValueError, match="sum to"):
            params(3, 1, points=[point()]).validate()

    def test_multiplicities_must_be_non_empty(self):
        with pytest.raises(ValueError, match="empty multiplicity sequence"):
            ParabolicDatum((point(ms=(), ws=()),)).validate(2)

    def test_multiplicities_must_be_positive(self):
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            ParabolicDatum((point(ms=(0, 2)),)).validate(2)

    def test_blocks_sum_to_the_rank(self):
        with pytest.raises(ValueError, match="sum to 3, expected 2"):
            ParabolicDatum((point(ms=(1, 2)),)).validate(2)
        ParabolicDatum((point(ms=(1, 1)),)).validate(2)

    def test_weights_strictly_increasing(self):
        bad = point(ws=("1/2", "1/2"))
        with pytest.raises(ValueError, match="increasing"):
            params(2, 1, points=[bad]).validate()

    def test_weights_inside_unit_interval(self):
        bad = point(ws=("0", "1"))
        with pytest.raises(ValueError, match="outside"):
            params(2, 1, points=[bad]).validate()

    @pytest.mark.parametrize(
        "ws, message",
        [
            (("1/2", "1/4", "1"), "'x': weight 1 outside [0, 1)"),
            (("0", "1", "2"), "'x': weight 1 outside [0, 1)"),
            (("-1/2", "1/2", "3/4"), "'x': weight -1/2 outside [0, 1)"),
            (("1/2", "1/4", "3/4"), "'x': weights must be strictly increasing"),
        ],
    )
    def test_a_weight_outside_is_reported_before_the_order(self, ws, message):
        bad = point(ms=(1, 1, 1), ws=ws)
        with pytest.raises(ValueError) as info:
            params(3, 1, points=[bad])
        assert str(info.value) == message

    def test_weight_count_matches_blocks(self):
        bad = point(ws=("0",))
        with pytest.raises(ValueError, match="one weight per"):
            params(2, 1, points=[bad]).validate()

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            params(2, 1, points=[point("x"), point("x")]).validate()

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            params(0, 1).validate()
        with pytest.raises(ValueError):
            ModuliParams(2, 0, -1).validate()

    def test_point_lookup(self):
        ps = params(2, 1, points=[point("y")])
        assert ps.point("y").label == "y"
        with pytest.raises(ValueError):
            ps.point("z")


# one case per ModuliParams/ParabolicDatum rejection: (n, d, g), points, message
REJECTIONS = [
    ((0, 1, 0), [], "rank must be positive, got 0"),
    ((2, 1, -1), [], "genus must be non-negative, got -1"),
    ((2, 1, 0), [("x", (), ())], "'x': empty multiplicity sequence"),
    (
        (2, 1, 0),
        [("x", (0, 2), ("0", "1/2"))],
        "'x': multiplicities must be positive",
    ),
    (
        (2, 1, 0),
        [("x", (1, 2), ("0", "1/2"))],
        "'x': multiplicities sum to 3, expected 2",
    ),
    (
        (2, 1, 0),
        [("x", (1, 1), ("0",))],
        "'x': need one weight per multiplicity block",
    ),
    ((2, 1, 0), [("x", (1, 1), ("0", "1"))], "'x': weight 1 outside [0, 1)"),
    (
        (2, 1, 0),
        [("x", (1, 1), ("1/2", "1/2"))],
        "'x': weights must be strictly increasing",
    ),
    (
        (2, 1, 0),
        [("x", (1, 1), ("0", "1/2"))] * 2,
        "duplicate point labels: ['x', 'x']",
    ),
]


def rejection_document(scalars, points):
    lines = [f"{key} = {value}" for key, value in zip("ndg", scalars)]
    for label, ms, ws in points:
        lines += [
            f"point = {label}",
            "multiplicities = " + " ".join(map(str, ms)),
            "weights = " + " ".join(ws),
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scalars, points, message", REJECTIONS)
class TestRejectionMessages:
    """Each rejection reads the same whether built, parsed or given to the CLI."""

    def test_constructed(self, scalars, points, message):
        with pytest.raises(ValueError) as info:
            params(*scalars, points=[point(*p) for p in points]).validate()
        assert str(info.value) == message

    def test_parsed(self, scalars, points, message):
        with pytest.raises(ValueError) as info:
            parse_moduli_params(rejection_document(scalars, points))
        assert str(info.value) == message

    @pytest.mark.parametrize("command", ["catalog", "universal-bundle"])
    def test_cli_document_on_stdin(
        self, capsys, monkeypatch, command, scalars, points, message
    ):
        document = rejection_document(scalars, points)
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        code = main([command, "-"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_replaced_copy(self, scalars, points, message):
        # a copy with other field values is built through the constructor
        datum = ParabolicDatum(tuple(point(*p) for p in points))
        with pytest.raises(ValueError) as info:
            ModuliParams(n=scalars[0], d=scalars[1], g=scalars[2], datum=datum)
        assert str(info.value) == message


def test_dataclasses_replace_builds_no_unvalidated_copy():
    with pytest.raises(TypeError):
        replace(params(2, 1), n=0)


class TestWeights:
    def test_det_weight_formula(self):
        ps = params(3, 1, g=2)
        # N = d + n*(1-g) = 1 + 3*(1-2) = -2
        assert ps.det_weight(0) == -2
        assert ps.det_weight(1) == 1
        assert ps.det_weight(-1) == -5

    def test_empty_word_is_weightless(self):
        assert weight_of(LineBundleWord(()), params(2, 1)) == 0
        assert LineBundleWord(()).text() == "1"

    def test_unit_weights(self):
        ps = params(2, 0, g=0, points=[point()])
        word = LineBundleWord(((det_u(0), 1),))
        assert weight_of(word, ps) == 2  # N = 0 + 2*1
        word = LineBundleWord(((det_flag("x", 2), 1),))
        assert weight_of(word, ps) == 1
        word = LineBundleWord(((det_point("x"), 1),))
        assert weight_of(word, ps) == 2  # fibre rank n

    def test_composite_weight(self):
        ps = params(3, 1, g=2, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        word = LineBundleWord(((det_u(1), 2), (det_flag("x", 2), -3)))
        # 2*(N + n) - 3*tail = 2*1 - 3*2
        assert weight_of(word, ps) == -4

    def test_unresolvable_point_errors(self):
        word = LineBundleWord(((det_point("nope"), 1),))
        with pytest.raises(ValueError):
            weight_of(word, params(2, 1))

    def test_word_text(self):
        word = LineBundleWord(((det_u(1), 0), (det_u(0), -1)))
        assert word.text() == "DetU(1)^0 ⊗ DetU^-1"
        assert LineBundleWord(((det_flag("x", 2), 1),)).text() == "detU[x,2]^1"
        assert LineBundleWord(((det_point("x"), 3),)).text() == "detU[x]^3"

    def test_audit_lines(self):
        ps = params(3, 1, g=0, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        word = LineBundleWord(((det_flag("x", 1), 3), (det_u(1), -2)))
        lines = weight_audit(word, ps)
        assert lines[0] == "N = d + n*(1-g) = 1 + 3*(1-0) = 4"
        assert lines[1] == "detU[x,1]: unit weight 3, exponent 3, contribution 9"
        assert lines[2] == "DetU(1): unit weight 7, exponent -2, contribution -14"
        assert lines[-1] == "total weight = -5"


class TestConditions:
    def test_coprime_rank_degree(self):
        report = check_conditions(params(2, 1))
        assert "C1" in report.satisfied
        assert report.witness_for("C1") == ConditionWitness("C1")

    def test_flag_witness_for_c2(self):
        report = check_conditions(params(2, 0, points=[point()]))
        assert "C1" not in report.satisfied
        w = report.witness_for("C2")
        assert (w.point, w.flag_index, w.tail_rank) == ("x", 2, 1)

    def test_nothing_satisfied(self):
        ps = params(4, 2, points=[point(ms=(2, 2), ws=("0", "1/2"))])
        assert check_conditions(ps).satisfied == ()

    def test_scan_order_fixes_witness(self):
        first = point("p", (2, 1), ("0", "1/2"))
        second = point("q", (1, 2), ("0", "1/2"))
        report = check_conditions(params(3, 0, points=[first, second]))
        w = report.witness_for("C2")
        # p tail ranks are 3, 1: flag index 2 wins before q is reached
        assert (w.point, w.flag_index, w.tail_rank) == ("p", 2, 1)

    def test_c3_uses_shifted_modulus(self):
        ps = params(2, 2, points=[point(ms=(2,), ws=("0",))])
        report = check_conditions(ps)
        # tail rank 2 vs n = 2 fails C2; vs n + d = 4 fails C3 as well
        assert report.satisfied == ()
        ps = params(2, 1, points=[point(ms=(2,), ws=("0",))])
        report = check_conditions(ps)
        # tail rank 2 is coprime to n + d = 3
        w = report.witness_for("C3")
        assert w is not None and w.tail_rank == 2


class TestBezout:
    def test_minimal_nonnegative_solution(self):
        a, b = bezout_min_nonneg(3, 5)
        assert a * 3 + b * 5 == 1
        assert 0 <= a < 5
        assert a == 2 and b == -1

    def test_zero_second_argument(self):
        assert bezout_min_nonneg(1, 0) == (1, 0)
        assert bezout_min_nonneg(-1, 0) == (-1, 0)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            bezout_min_nonneg(4, 6)

    def test_bad_certificate_raises_with_inputs(self, monkeypatch):
        import projchar.univdet as ud

        # a = 1 for (3, 5) gives b = -1 and a*u + b*v = -2
        monkeypatch.setattr(ud, "pow", lambda u, e, m: 1, raising=False)
        with pytest.raises(RuntimeError, match=r"u=3, v=5, a=1, b=-1"):
            bezout_min_nonneg(3, 5)

    def test_grid_matches_a_scan_for_the_least_a(self):
        import math

        for u in range(-30, 31):
            for v in range(-30, 31):
                if math.gcd(u, v) != 1:
                    continue
                if v == 0:
                    expected = (u, 0)
                else:
                    a = next(a for a in range(abs(v)) if (1 - a * u) % v == 0)
                    expected = (a, (1 - a * u) // v)
                assert bezout_min_nonneg(u, v) == expected, (u, v)

    def test_seeded_identities(self):
        import math

        rng = random.Random(5)
        done = 0
        while done < 200:
            u = rng.randint(-30, 30)
            v = rng.randint(-30, 30)
            if math.gcd(u, v) != 1:
                continue
            a, b = bezout_min_nonneg(u, v)
            assert a * u + b * v == 1
            if v != 0:
                assert 0 <= a < abs(v)
            done += 1


class TestConstructXi:
    def test_c1_word(self):
        ps = params(2, 1, g=2)
        word = construct_xi(ps, "C1")
        assert word.text() == "DetU(1)^0 ⊗ DetU^-1"
        assert weight_of(word, ps) == 1

    def test_c2_word(self):
        ps = params(2, 0, points=[point()])
        word = construct_xi(ps, "C2")
        assert word.text() == "detU[x,2]^1 ⊗ DetU^0 ⊗ DetU(1)^0"
        assert weight_of(word, ps) == 1

    def test_c3_word_with_genus_factor(self):
        ps = params(3, 1, g=0, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        word = construct_xi(ps, "C3")
        assert word.text() == "detU[x,1]^3 ⊗ DetU(1)^-2 ⊗ detU[x]^2"
        assert weight_of(word, ps) == 1

    def test_unsatisfied_condition_rejected(self):
        with pytest.raises(ValueError, match="not satisfied"):
            construct_xi(params(2, 0), "C1")

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError, match="unknown condition"):
            construct_xi(params(2, 1), "C4")

    def test_witness_override(self):
        first = point("p", (2, 1), ("0", "1/2"))
        second = point("q", (1, 2), ("0", "1/2"))
        ps = params(3, 0, points=[first, second])
        word = construct_xi(ps, "C2", witness=("q", 2))
        assert "detU[q,2]" in word.text()
        assert weight_of(word, ps) == 1

    def test_witness_under_c1_rejected(self):
        ps = params(3, 1, g=2)
        with pytest.raises(ValueError, match="not C1"):
            construct_xi(ps, "C1", witness=("nosuch", 1))

    def test_bad_witness_rejected(self):
        ps = params(3, 1, g=0, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        with pytest.raises(ValueError, match="not a witness for C3"):
            construct_xi(ps, "C3", witness=("x", 2))

    def test_witness_at_unknown_point_or_flag_rejected(self):
        ps = params(3, 1, g=0, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        with pytest.raises(ValueError, match="no marked point labelled 'y'"):
            construct_xi(ps, "C3", witness=("y", 1))
        with pytest.raises(ValueError, match="flag index 3 out of range"):
            construct_xi(ps, "C3", witness=("x", 3))

    def test_unsatisfied_condition_wins_over_a_witness(self):
        ps = params(4, 2, points=[point(ms=(2, 2), ws=("0", "1/2"))])
        with pytest.raises(ValueError, match="C2 is not satisfied"):
            construct_xi(ps, "C2", witness=("x", 1))

    @pytest.mark.parametrize("condition", ["C1", "C2", "C3"])
    def test_word_is_weighed_by_weight_of(self, condition, monkeypatch):
        import projchar.univdet as ud

        ps = params(3, 1, g=2, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        monkeypatch.setattr(ud, "weight_of", lambda word, params: 2)
        with pytest.raises(RuntimeError) as info:
            construct_xi(ps, condition)
        assert str(info.value) == "constructed word has weight 2, expected 1"

    @pytest.mark.parametrize("condition", ["C1", "C2", "C3"])
    def test_parameters_are_validated_once(self, condition, monkeypatch):
        calls = []
        check = ModuliParams.validate
        monkeypatch.setattr(
            ModuliParams, "validate", lambda self: calls.append(1) or check(self)
        )
        ps = params(3, 1, g=2, points=[point(ms=(1, 2), ws=("0", "1/3"))])
        assert len(calls) == 1  # when it is built
        calls.clear()
        report = check_conditions(ps)
        assert report.satisfied == ("C1", "C2", "C3")
        word = construct_xi(ps, condition)
        if condition == "C1":
            with pytest.raises(ValueError, match="not C1"):
                construct_xi(ps, condition, witness=("x", 1))
        else:
            found = report.witness_for(condition)
            witness = (found.point, found.flag_index)
            assert construct_xi(ps, condition, witness=witness) == word
        assert weight_of(word, ps) == 1
        assert weight_audit(word, ps)[-1] == "total weight = 1"
        assert calls == []

    def test_seeded_constructions_have_weight_one(self):
        rng = random.Random(77)
        built = 0
        for _ in range(240):
            ps = random_moduli_params(rng)
            for condition in check_conditions(ps).satisfied:
                word = construct_xi(ps, condition)
                assert weight_of(word, ps) == 1
                built += 1
        assert built > 50


class TestParseDocument:
    DOC = """
    # moduli parameters
    n = 2
    d = 0
    g = 1

    point = x
    multiplicities = 1, 1
    weights = 0, 1/2

    point = y
    multiplicities = 1 1
    weights = 1/4 3/4
    """
    WEIGHTS_DOC = "n = 2\nd = 0\ng = 0\npoint = x\nmultiplicities = 1 1\nweights = 0 {}\n"

    def test_full_document(self):
        ps = parse_moduli_params(self.DOC)
        assert (ps.n, ps.d, ps.g) == (2, 0, 1)
        assert [p.label for p in ps.datum.points] == ["x", "y"]
        assert ps.point("y").weights == (Fraction(1, 4), Fraction(3, 4))

    def test_missing_scalars(self):
        with pytest.raises(ValueError, match="must set n, d and g"):
            parse_moduli_params("n = 2\nd = 1\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_moduli_params("n = 2\nrank = 2\nd = 1\ng = 0\n")

    def test_multiplicities_need_a_point(self):
        with pytest.raises(ValueError, match="before any point"):
            parse_moduli_params("n = 2\nd = 1\ng = 0\nmultiplicities = 1 1\n")

    def test_point_needs_both_groups(self):
        doc = "n = 2\nd = 1\ng = 0\npoint = x\nmultiplicities = 1 1\n"
        with pytest.raises(ValueError, match="no weights"):
            parse_moduli_params(doc)

    POINT_X = "point = x\nmultiplicities = 1 1\nweights = 0 1/2\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("n = 2\nn = 3\nd = 1\ng = 0\n", "line 2: duplicate key 'n'"),
            ("n = 2\nd = 1\ng = 0\nG = 1\n", "line 4: duplicate key 'g'"),
            (
                "n = 2\nd = 0\ng = 0\n" + POINT_X + "weights = 0 1/3\n",
                "line 7: duplicate key 'weights'",
            ),
            (
                "n = 2\nd = 0\ng = 0\n" + POINT_X + "multiplicities = 2\n",
                "line 7: duplicate key 'multiplicities'",
            ),
        ],
    )
    def test_repeated_key_is_refused(self, doc, message):
        with pytest.raises(ValueError) as info:
            parse_moduli_params(doc)
        assert str(info.value) == message

    def test_repeated_label_keeps_its_message(self):
        doc = "n = 2\nd = 0\ng = 0\n" + self.POINT_X * 2
        with pytest.raises(ValueError) as info:
            parse_moduli_params(doc)
        assert str(info.value) == "duplicate point labels: ['x', 'x']"

    def test_bad_integer(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_moduli_params("n = two\nd = 1\ng = 0\n")

    def test_zero_denominator_weight(self):
        doc = "n = 2\nd = 0\ng = 0\npoint = x\nmultiplicities = 1 1\nweights = 0 1/0\n"
        with pytest.raises(ValueError, match="^line 6: zero denominator in '0 1/0'$"):
            parse_moduli_params(doc)

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("1e300000", "exponent too large in '1e300000'"),
            ("1e3000000", "exponent too large in '1e3000000'"),
            ("1E-300000", "exponent too large in '1E-300000'"),
            ("-2.5e+300000", "exponent too large in '-2.5e+300000'"),
            ("1e3_000_000", "exponent too large in '1e3_000_000'"),
            ("xe300000", "Invalid literal for Fraction: 'xe300000'"),
        ],
    )
    def test_huge_exponent_weight_is_refused_before_fraction(self, literal, message):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            parse_moduli_params(self.WEIGHTS_DOC.format(literal))
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"line 6: {message}"

    def test_exponent_at_the_int_string_limit_is_read(self):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        doc = self.WEIGHTS_DOC
        ps = parse_moduli_params(doc.format(f"1e-{limit:_}"))
        assert ps.point("x").weights == (0, Fraction(1, 10**limit))
        with pytest.raises(ValueError, match="^line 6: exponent too large in"):
            parse_moduli_params(doc.format(f"1e-{limit + 1}"))
        assert parse_moduli_params(doc.format("1e-1")).point("x").weights == (
            0,
            Fraction(1, 10),
        )

    def test_validation_applies(self):
        doc = "n = 3\nd = 1\ng = 0\npoint = x\nmultiplicities = 1 1\nweights = 0 1/2\n"
        with pytest.raises(ValueError, match="sum to"):
            parse_moduli_params(doc)

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_moduli_params("n 2\n")
