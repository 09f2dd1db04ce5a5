"""Command-line front end.

Every subcommand wraps one library operation family and emits deterministic
output: plain text by default, or with --json a stable document of the form
{"subcommand", "inputs", "result", "audit"}.  Rational values are rendered
as exact "p/q" strings, never floats.  Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import Any, Optional

from . import projclass, selftest, surfalg, univdet
from .qpoly import RationalPoly, Variable, format_fraction, parse_poly

_CVAR_RE = re.compile(r"c([1-9]\d*)")


@dataclass
class CommandOutput:
    subcommand: str
    inputs: dict[str, Any]
    result: Any
    audit: list[str]
    text: str


def _emit(out: CommandOutput, as_json: bool) -> None:
    if as_json:
        doc = {
            "subcommand": out.subcommand,
            "inputs": out.inputs,
            "result": out.result,
            "audit": out.audit,
        }
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print(out.text)


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _parse_params(path: str) -> univdet.ModuliParams:
    return univdet.parse_moduli_params(_read_document(path))


# -- subcommand handlers -----------------------------------------------------


def _cmd_zbasis(args: argparse.Namespace) -> int:
    ring = projclass.chern_ring(args.n)
    expr = projclass.z_basis(ring, args.k)
    text = expr.poly.to_text()
    out = CommandOutput(
        "zbasis",
        {"n": args.n, "k": args.k},
        text,
        [
            f"generators c1..c{args.n} with weight(ci) = i",
            f"weight: {args.k} (cohomological degree {2 * args.k})",
        ],
        text,
    )
    _emit(out, args.json)
    return 0


def _cmd_lambda_p(args: argparse.Namespace) -> int:
    data = projclass.lambda_p(args.n, args.k)
    lam = format_fraction(data.lam)
    p_text = data.P.to_text()
    lower = "c1" if args.k == 2 else f"c1 and a2..a{args.k - 1}"
    out = CommandOutput(
        "lambda-p",
        {"n": args.n, "k": args.k},
        {"lambda": lam, "P": p_text},
        [
            f"identity: a{args.k} = P + lambda*c{args.k}",
            f"P involves only {lower}",
            "verified by expansion to Chern roots",
        ],
        f"lambda = {lam}, P = {p_text}",
    )
    _emit(out, args.json)
    return 0


def _parse_assignments(
    rank: int, ring: projclass.ChernRing, raw: list[str]
) -> tuple[list[RationalPoly], list[str]]:
    values = [RationalPoly.gen(ring.c_ring, v) for v in ring.chern_vars]
    echo = []
    for item in raw:
        if "=" not in item:
            raise ValueError(f"assignment {item!r} is not of the form ci=POLY")
        name, text = (s.strip() for s in item.split("=", 1))
        m = _CVAR_RE.fullmatch(name)
        if not m or not 1 <= int(m.group(1)) <= rank:
            raise ValueError(f"{name!r} is not one of c1..c{rank}")
        i = int(m.group(1))
        values[i - 1] = parse_poly(text, ring.c_ring)
        echo.append(f"c{i} = {values[i - 1].to_text()}")
    return values, echo


def _cmd_aclass(args: argparse.Namespace) -> int:
    ring = projclass.chern_ring(args.n)
    values, echo = _parse_assignments(args.n, ring, args.set or [])
    results = projclass.a_classes(args.n, values, zero=RationalPoly.zero(ring.c_ring))
    named = {f"a{k}": poly.to_text() for k, poly in enumerate(results, start=2)}
    lines = [f"{name} = {text}" for name, text in named.items()]
    out = CommandOutput(
        "aclass",
        {"n": args.n, "assignments": args.set or []},
        named,
        echo or ["generic Chern classes"],
        "\n".join(lines) if lines else "rank 1 has no canonical classes",
    )
    _emit(out, args.json)
    return 0


def _cmd_end_chern(args: argparse.Namespace) -> int:
    expr = projclass.end_chern(args.n, args.j)
    text = expr.poly.to_text()
    out = CommandOutput(
        "end-chern",
        {"n": args.n, "j": args.j},
        text,
        [
            f"roots: the {args.n * args.n} ordered differences xa - xb"
            f" ({args.n} of them zero)",
            "odd classes vanish because the root set is closed under negation",
        ],
        text,
    )
    _emit(out, args.json)
    return 0


def _cmd_end_in_a(args: argparse.Namespace) -> int:
    expr = projclass.end_in_a(args.n, args.j)
    text = expr.poly.to_text()
    out = CommandOutput(
        "end-in-a",
        {"n": args.n, "j": args.j},
        text,
        [f"generators z2..z{args.n} with weight(zk) = k"],
        text,
    )
    _emit(out, args.json)
    return 0


def _cmd_invariance_check(args: argparse.Namespace) -> int:
    ring = projclass.chern_ring(args.n)
    poly = parse_poly(args.polynomial, ring.c_ring)
    audit = []
    rewrites = []
    for w, comp in poly.homogeneous_components().items():
        rewrite = projclass.rewrite_in_z(projclass.ChernExpression(ring, comp, w))
        ok = rewrite is not None
        audit.append(f"weight {w} component: {'invariant' if ok else 'not invariant'}")
        rewrites.append(rewrite)
    if poly.is_zero():
        audit.append("zero polynomial is trivially invariant")
    invariant = all(r is not None for r in rewrites)
    z_text: Optional[str] = None
    if invariant:
        z_poly = RationalPoly.zero(ring.z_ring)
        for r in rewrites:
            z_poly = z_poly + r.poly
        z_text = z_poly.to_text()
    lines = [f"invariant: {'yes' if invariant else 'no'}"]
    if z_text is not None:
        lines.append(f"z-expression: {z_text}")
    out = CommandOutput(
        "invariance-check",
        {"n": args.n, "polynomial": args.polynomial},
        {"invariant": invariant, "z_expression": z_text},
        audit,
        "\n".join(lines),
    )
    _emit(out, args.json)
    return 0


def _cmd_hom_flag(args: argparse.Namespace) -> int:
    sub = [Variable(f"s{i}") for i in range(1, args.sub_rank + 1)]
    target = [Variable(f"t{i}") for i in range(1, args.target_rank + 1)]
    poly = projclass.hom_flag_chern(sub, target, args.j)
    text = poly.to_text()
    out = CommandOutput(
        "hom-flag",
        {"sub_rank": args.sub_rank, "target_rank": args.target_rank, "j": args.j},
        text,
        [
            f"subbundle roots s1..s{args.sub_rank},"
            f" target roots t1..t{args.target_rank}",
            f"roots of the Hom bundle: the {args.sub_rank * args.target_rank}"
            " differences tb - sa",
        ],
        text,
    )
    _emit(out, args.json)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    entries = projclass.generator_catalog(
        params.n, params.g, params.datum, args.fixed_det
    )
    by_degree: dict[int, int] = {}
    for _, deg in entries:
        by_degree[deg] = by_degree.get(deg, 0) + 1
    audit = [
        f"rank {params.n}, genus {params.g},"
        f" marked points: {len(params.datum.points)}",
        f"fixed determinant: {'yes' if args.fixed_det else 'no'}",
        f"total: {len(entries)} generators",
    ]
    audit += [f"degree {d}: {c} generator(s)" for d, c in sorted(by_degree.items())]
    out = CommandOutput(
        "catalog",
        {"params": args.params, "fixed_det": args.fixed_det},
        [{"name": name, "degree": deg} for name, deg in entries],
        audit,
        "\n".join(f"{name} degree={deg}" for name, deg in entries),
    )
    _emit(out, args.json)
    return 0


_CANON_GENERATORS = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))


def _cmd_canonicality(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    algebra = surfalg.ParameterAlgebra(
        _CANON_GENERATORS, max_degree=2 * args.rank + 2
    )
    ring = surfalg.SurfaceRing(args.genus)
    rng = Random(args.seed)
    failures = []
    shift_ok = True
    for idx in range(args.count):
        chern = [
            surfalg.random_kunneth(rng, algebra, ring, 2 * i)
            for i in range(1, args.rank + 1)
        ]
        f = surfalg.random_param_element(rng, algebra, 2)
        report = surfalg.canonicality_check(args.rank, chern, f)
        if not report.passed:
            failures.append(f"instance {idx}: {report.first_failure}")
        if report.h0_shift != args.rank * f:
            shift_ok = False
    passed = args.count - len(failures)
    lines = [
        f"instances: {args.count}, passed: {passed}, failed: {len(failures)}",
        f"h0 shift equals rank*f on every instance: {'yes' if shift_ok else 'no'}",
    ]
    lines += failures
    out = CommandOutput(
        "canonicality",
        {
            "rank": args.rank,
            "genus": args.genus,
            "seed": args.seed,
            "count": args.count,
        },
        {
            "instances": args.count,
            "passed": passed,
            "failures": failures,
            "h0_shift_matches": shift_ok,
        },
        [
            f"parameter algebra generators: {', '.join(n for n, _ in _CANON_GENERATORS)}",
            f"truncation degree: {2 * args.rank + 2}",
            f"checks per instance: {2 * args.genus} slants, {args.rank - 1} a-classes",
        ],
        "\n".join(lines),
    )
    _emit(out, args.json)
    return 0 if not failures and shift_ok else 1


def _cmd_universal_bundle(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    report = univdet.check_conditions(params)
    satisfied = list(report.satisfied)
    inputs = {
        "params": args.params,
        "condition": args.condition,
        "witness": args.witness,
    }
    if not satisfied:
        out = CommandOutput(
            "universal-bundle",
            inputs,
            {"satisfied": [], "condition": None, "word": None, "weight": None},
            ["no coprimality condition holds; no weight-1 word exists here"],
            "satisfied: none",
        )
        _emit(out, args.json)
        return 0
    condition = args.condition or satisfied[0]
    witness = None
    if args.witness:
        label, _, j_text = args.witness.partition(",")
        if not j_text:
            raise ValueError("witness must be LABEL,J")
        witness = (label.strip(), int(j_text))
    word = univdet.construct_xi(params, condition, witness)
    weight = univdet.weight_of(word, params)
    audit = univdet.weight_audit(word, params)
    lines = [
        f"satisfied: {', '.join(satisfied)}",
        f"condition: {condition}",
        f"word: {word.text()}",
        f"weight: {weight}",
    ]
    out = CommandOutput(
        "universal-bundle",
        inputs,
        {
            "satisfied": satisfied,
            "condition": condition,
            "word": word.text(),
            "weight": weight,
        },
        audit,
        "\n".join(lines),
    )
    _emit(out, args.json)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run()
    failed = sum(r.failed for r in results)
    lines = [
        f"{r.name}: {r.passed} passed, {r.failed} failed" for r in results
    ]
    for r in results:
        lines += [f"  FAIL {r.name}: {label}" for label in r.failures]
    lines.append("all suites passed" if failed == 0 else f"{failed} check(s) failed")
    out = CommandOutput(
        "selftest",
        {},
        [
            {
                "suite": r.name,
                "passed": r.passed,
                "failed": r.failed,
                "failures": list(r.failures),
            }
            for r in results
        ],
        [],
        "\n".join(lines),
    )
    _emit(out, args.json)
    return 0 if failed == 0 else 1


# -- parser ------------------------------------------------------------------


# built once per process: parse_args leaves the parser unchanged, and
# in-process callers would otherwise pay for every add_argument on each call
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projchar",
        description="Exact characteristic-class calculator for projectivized"
        " bundles: canonical generators, reduction identities, endomorphism"
        " classes, twist canonicality and universal-bundle weights.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit the JSON document")
        p.set_defaults(handler=handler)
        return p

    p = add("zbasis", _cmd_zbasis, "canonical generator z_k in Chern classes")
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument("k", type=int, help="generator index, 2 <= k <= n")

    p = add("lambda-p", _cmd_lambda_p, "reduction identity a_k = P + lambda*c_k")
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument("k", type=int, help="class index, 2 <= k <= n")

    p = add("aclass", _cmd_aclass, "evaluate a_2..a_n at Chern values")
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument(
        "--set",
        action="append",
        metavar="ci=POLY",
        help="assign a polynomial in c1..cn to one Chern class (repeatable)",
    )

    p = add("end-chern", _cmd_end_chern, "Chern class c_j of the endomorphism bundle")
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument("j", type=int, help="class index, 1 <= j <= n^2")

    p = add("end-in-a", _cmd_end_in_a, "endomorphism class in the z-generators")
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument("j", type=int, help="class index, 1 <= j <= n^2")

    p = add(
        "invariance-check",
        _cmd_invariance_check,
        "test a Chern-class polynomial for twist invariance",
    )
    p.add_argument("n", type=int, help="bundle rank")
    p.add_argument("polynomial", help="polynomial in c1..cn, e.g. '-1*c1^2 + 4*c2'")

    p = add("hom-flag", _cmd_hom_flag, "Chern class of a Hom bundle between flags")
    p.add_argument("sub_rank", type=int, help="rank of the subbundle")
    p.add_argument("target_rank", type=int, help="rank of the target bundle")
    p.add_argument("j", type=int, help="class index")

    p = add("catalog", _cmd_catalog, "generator catalog for a parameter document")
    p.add_argument("params", help="ModuliParams document path, or - for stdin")
    p.add_argument(
        "--fixed-det",
        action="store_true",
        help="fixed determinant: drop the degree-1 slants of c1",
    )

    p = add("canonicality", _cmd_canonicality, "randomized twist-invariance check")
    p.add_argument("rank", type=int, help="bundle rank")
    p.add_argument("genus", type=int, help="surface genus")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--count", type=int, default=10, help="instances (default 10)")

    p = add(
        "universal-bundle",
        _cmd_universal_bundle,
        "decide coprimality conditions and build a weight-1 word",
    )
    p.add_argument("params", help="ModuliParams document path, or - for stdin")
    p.add_argument(
        "--condition",
        choices=univdet.CONDITIONS,
        help="which condition to use (default: first satisfied)",
    )
    p.add_argument(
        "--witness",
        metavar="LABEL,J",
        help="marked point and flag index for C2/C3",
    )

    add("selftest", _cmd_selftest, "run the deterministic invariant suites")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
