#!/usr/bin/env python3
"""projchar benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload derive|classify|twist \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed
before any timing starts; set-up (imports, input generation, warm-up) is
timed once from the first line of this file.  Each workload then runs
whole rounds of the same operations, closed loop, one caller, one thread,
and starts another round only while it fits in --seconds.  Every output is
checked by perfbench/checks.py, which computes the expected values on its
own.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(traced and untraced rounds alternate; their difference is the overhead).
See perfbench/README.md for the workloads and the meaning of each metric.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

import checks
from layers import COUNTERS, Tracer
from meter import Meter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 150


# -- generated inputs ------------------------------------------------------------------


def random_rationals(rng: Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(count)]


def random_coefficient(rng: Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(100, 999))


def random_params(rng: Random, n: int, d: int, g: int) -> dict:
    """Parameter set as plain data; up to three points with random flags."""
    points = []
    for idx in range(rng.randint(0, 3)):
        mults, remaining = [], n
        while remaining:
            mults.append(rng.randint(1, remaining))
            remaining -= mults[-1]
        numerators = sorted(rng.sample(range(4 * len(mults)), len(mults)))
        weights = [f"{num}/{4 * len(mults)}" for num in numerators]
        points.append([f"x{idx}", mults, weights])
    return {"n": n, "d": d, "g": g, "points": points}


def params_document(params: dict) -> str:
    lines = [f"n = {params['n']}", f"d = {params['d']}", f"g = {params['g']}"]
    for label, mults, weights in params["points"]:
        lines += [
            f"point = {label}",
            "multiplicities = " + " ".join(map(str, mults)),
            "weights = " + " ".join(weights),
        ]
    return "\n".join(lines) + "\n"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- workloads ---------------------------------------------------------------------------
#
# A workload's round(tracer) runs one round and returns (meter summary,
# failed checks, failed operations); ops_per_round counts its operations.
# Kinds "main" and "side" are the workload's two operation streams, and
# NAMES name the round and the two streams on the line before the result.


class Derive:
    """Cold one-shot CLI derivations, each set in a fresh interpreter."""

    NAMES = ("derive", "zbasis_lambda", "end_hom_docs")

    def __init__(self, rng: Random) -> None:
        self.commands: list[list] = []  # [kind, argv, stdin document]
        self.checkers = []  # one function of the JSON result per command
        for n in range(2, 8):
            at = checks.Roots(random_rationals(rng, n))
            for k in range(2, n + 1):
                self._add("main", ["zbasis", n, k], partial(checks.check_zbasis, k, at=at))
        for n in range(2, 7):
            at = checks.Roots(random_rationals(rng, n))
            for k in range(2, n + 1):
                self._add("main", ["lambda-p", n, k], partial(checks.check_lambda_p, k, at=at))
        at = checks.Roots(random_rationals(rng, 4))
        for j in range(1, 17):
            self._add("side", ["end-chern", 4, j], partial(checks.check_end_chern, j, at=at))
        for j in range(1, 17):
            self._add("side", ["end-in-a", 4, j], partial(checks.check_end_in_a, j, at=at))
        sub, target = random_rationals(rng, 3), random_rationals(rng, 3)
        for j in range(1, 10):
            check = partial(checks.check_hom_flag, j, sub=sub, target=target)
            self._add("side", ["hom-flag", 3, 3, j], check)
        cat = random_params(rng, rng.randint(2, 5), rng.randint(-9, 9), rng.randint(0, 3))
        check = partial(checks.check_catalog, cat, True)
        self._add("side", ["catalog", "-", "--fixed-det"], check, params_document(cat))
        bundle = random_params(rng, rng.randint(2, 12), rng.randint(-20, 20), rng.randint(0, 5))
        check = partial(checks.check_universal_bundle, bundle)
        self._add("side", ["universal-bundle", "-"], check, params_document(bundle))
        self.ops_per_round = len(self.commands)
        self.peak_rss_mb = 0.0
        self._spawn([])  # warm-up: start an interpreter and import projchar

    def _add(self, kind: str, argv: list, checker, document: str | None = None) -> None:
        self.commands.append([kind, [str(a) for a in argv] + ["--json"], document])
        self.checkers.append(checker)

    def _spawn(self, commands: list, trace: bool = False) -> dict:
        job = json.dumps({"src": str(SRC), "commands": commands, "trace": trace})
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=job,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            detail = proc.stderr[-2000:]
            raise RuntimeError(f"derivation child exited {proc.returncode}: {detail}")
        result = json.loads(proc.stdout)
        self.peak_rss_mb = max(self.peak_rss_mb, result["maxrss_kb"] / 1024)
        return result

    def round(self, tracer: Tracer | None) -> tuple[dict, list[str], int]:
        result = self._spawn(self.commands, trace=tracer is not None)
        if tracer is not None:
            for name, value in result["layers"].items():
                tracer.totals[name] += value
        errors, failed = [], 0
        for code, out, checker in zip(result["codes"], result["outputs"], self.checkers):
            if code != 0:
                failed += 1
                continue
            error = checker(json.loads(out)["result"])
            if error:
                errors.append(error)
        return result["round"], errors, failed


class Classify:
    """Warm invariance-check queries: invariant classes and perturbed copies."""

    # ranks 3..6, weights 2..6, n + w <= 10: the three heavier cells would
    # take 12 s of a 15 s round between them (5 s for one rank-6 weight-6
    # query), leaving one round per run
    CELLS = [(n, w) for n in range(3, 7) for w in range(2, 7) if n + w <= 10]
    NAMES = ("round", "rewrite", "reject")

    def __init__(self, rng: Random) -> None:
        self.queries = []  # (kind, argv, n, z-coefficients or None)
        for n, w in self.CELLS:
            # three-digit coefficients: a small pool makes special ratios (such as
            # the power sum 2*z2^2 - 4*z4) likely, whose root expansions are
            # several times cheaper, so the cost would depend on the seed
            z_coeffs = {m: random_coefficient(rng) for m in checks.z_monomials(n, w)}
            c_poly = checks.z_poly_in_c(n, z_coeffs)
            c1w = (w,) + (0,) * (n - 1)
            shift = random_coefficient(rng)
            while shift + c_poly.get(c1w, 0) == 0:
                shift = random_coefficient(rng)
            perturbed = checks.poly_add(c_poly, {c1w: shift})
            for kind, poly, expected in (("main", c_poly, z_coeffs), ("side", perturbed, None)):
                argv = ["invariance-check", str(n), checks.write_poly(poly, checks.c_names(n))]
                self.queries.append((kind, argv + ["--json"], n, expected))
        self.ops_per_round = len(self.queries)
        self.peak_rss_mb = 0.0
        self.round(None)  # warm-up: fills the z-generator caches

    def round(self, tracer: Tracer | None) -> tuple[dict, list[str], int]:
        from projchar import cli

        meter = Meter()
        outputs = []
        with tracer or contextlib.nullcontext():
            for kind, argv, _, _ in self.queries:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    outputs.append((meter.time(kind, cli.main, argv), buf.getvalue()))
        errors, failed = [], 0
        for (code, out), (kind, _, n, expected) in zip(outputs, self.queries):
            if code != 0:
                failed += 1
                continue
            result = json.loads(out)["result"]
            if kind == "main":
                error = checks.check_rewrite(result, n, expected)
            else:
                error = checks.check_reject(result, n)
            if error:
                errors.append(error)
        self.peak_rss_mb = peak_rss_mb()
        return meter.summary(), errors, failed


class Twist:
    """Surface twists through canonicality_check, interleaved with parameter sets."""

    NAMES = ("round", "twist", "words")
    GENERATORS = (("v1", 1), ("v2", 1), ("u1", 2), ("u2", 2))
    PER_CELL = 10  # instances per (rank, genus) cell
    PARAMS_PER_TWIST = 12
    # Which terms each class has decides how many products survive the
    # truncation, and so the cost.  With terms drawn from the seed the twist
    # rate spread 4.2% over five seeds; with terms from this fixed stream and
    # only the three-digit coefficients from the seed, 1-2% over ten.
    SHAPE_SEED = 0

    def __init__(self, rng: Random) -> None:
        from projchar import surfalg, univdet

        shape = Random(self.SHAPE_SEED)
        self.instances = []  # (rank, chern list, f)
        for rank in range(1, 5):
            algebra = surfalg.ParameterAlgebra(self.GENERATORS, 2 * rank + 2)
            for genus in range(4):
                ring = surfalg.SurfaceRing(genus)
                for _ in range(self.PER_CELL):
                    chern = [
                        self._kunneth(shape, rng, algebra, ring, 2 * i)
                        for i in range(1, rank + 1)
                    ]
                    monos = shape.sample(algebra.monomials_of_degree(2), 2)
                    f_terms = {m: random_coefficient(rng) for m in monos}
                    f = surfalg.ParamElement(algebra, f_terms)
                    self.instances.append((rank, chern, f))
        self.params = []  # (plain data, univdet.ModuliParams)
        for _ in range(self.PARAMS_PER_TWIST * len(self.instances)):
            n, d, g = rng.randint(1, 12), rng.randint(-20, 20), rng.randint(0, 5)
            plain = random_params(rng, n, d, g)
            points = tuple(
                univdet.ParabolicPoint(label, tuple(mults), tuple(map(Fraction, weights)))
                for label, mults, weights in plain["points"]
            )
            datum = univdet.ParabolicDatum(points)
            self.params.append((plain, univdet.ModuliParams(n, d, g, datum)))
        self.ops_per_round = len(self.instances) + len(self.params)
        self.peak_rss_mb = 0.0
        # warm-up: one instance per (rank, genus) cell fills the a-class caches
        for rank, chern, f in self.instances[:: self.PER_CELL]:
            surfalg.canonicality_check(rank, chern, f)
        self._decide(self.params[0][1])

    @staticmethod
    def _kunneth(shape: Random, rng: Random, algebra, ring, degree: int):
        """Homogeneous Kunneth class with four distinct terms (fewer if fewer exist)."""
        from projchar import surfalg

        options = [
            (key, m) for key in ring.basis for m in algebra.monomials_of_degree(degree - key[0])
        ]
        parts: dict = {}
        for key, m in shape.sample(options, min(4, len(options))):
            parts.setdefault(key, {})[m] = random_coefficient(rng)
        terms = {key: surfalg.ParamElement(algebra, t) for key, t in parts.items()}
        return surfalg.KunnethClass(algebra, ring, terms)

    @staticmethod
    def _decide(model) -> tuple[tuple, list[str]]:
        from projchar import univdet

        report = univdet.check_conditions(model)
        words = [univdet.construct_xi(model, c).text() for c in report.satisfied]
        return report.satisfied, words

    def round(self, tracer: Tracer | None) -> tuple[dict, list[str], int]:
        from projchar import surfalg

        meter = Meter()
        reports, decisions = [], []
        params = iter(self.params)
        with tracer or contextlib.nullcontext():
            for rank, chern, f in self.instances:
                reports.append(meter.time("main", surfalg.canonicality_check, rank, chern, f))
                # timed as one batch: a timer around each 0.1 ms decision read noisier
                batch = [model for _, model in itertools.islice(params, self.PARAMS_PER_TWIST)]
                start = time.perf_counter()
                decisions += [self._decide(model) for model in batch]
                meter.add("side", time.perf_counter() - start, ops=len(batch))
        errors = []
        for (rank, _, f), report in zip(self.instances, reports):
            h0 = report.h0_shift.terms
            error = checks.check_canonicality(report.passed, rank, f.terms, h0)
            if error:
                errors.append(error)
        for (plain, _), (satisfied, words) in zip(self.params, decisions):
            error = checks.check_words(plain, list(satisfied), words)
            if error:
                errors.append(error)
        self.peak_rss_mb = peak_rss_mb()
        return meter.summary(), errors, 0

    def final_checks(self) -> list[str]:
        from projchar import surfalg

        def plain(classes) -> list[dict]:
            return [{key: dict(elt.terms) for key, elt in c.parts.items()} for c in classes]

        errors = []
        for rank, chern, f in self.instances:
            back = surfalg.twist_chern(rank, surfalg.twist_chern(rank, chern, f), -f)
            error = checks.check_twist_back(rank, plain(chern), plain(back))
            if error:
                errors.append(error)
        return errors


WORKLOADS = {"derive": Derive, "classify": Classify, "twist": Twist}


# -- measurement -------------------------------------------------------------------------


def round_metrics(summary: dict) -> dict[str, float]:
    """One round in ref units: whole-round work and the rate of each stream."""
    work, count = summary["work_ref"], summary["count"]
    return {
        "round_ref": sum(work.values()),
        "main_per_ref": count["main"] / work["main"],
        "side_per_ref": count["side"] / work["side"],
    }


def named_line(name: str, labels: tuple[str, ...], summaries: list[dict], tag: str = "") -> str:
    """The result's figures under the workload's own names, in seconds and in ref."""
    ref = [round_metrics(s) for s in summaries]
    figures = {
        f"{labels[0]}_s": statistics.median(sum(s["work_s"].values()) for s in summaries),
        f"{labels[0]}_ref": statistics.median(r["round_ref"] for r in ref),
    }
    for label, kind in zip(labels[1:], ("main", "side")):
        rates = (s["count"][kind] / s["work_s"][kind] for s in summaries)
        figures[f"{label}_per_s"] = statistics.median(rates)
        figures[f"{label}_per_ref"] = statistics.median(r[f"{kind}_per_ref"] for r in ref)
    figures["ref_unit_s"] = statistics.median(s["ref_unit_s"] for s in summaries)
    text = " ".join(f"{key}={value:.6g}" for key, value in figures.items())
    return f"# {name}{tag}: {text} rounds={len(summaries)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projchar" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](Random(args.seed))
    setup_s = time.perf_counter() - _START

    tracer = Tracer() if args.trace else None
    plain, traced, errors = [], [], []
    attempted = failed = 0
    start, last = time.perf_counter(), 0.0
    # a traced run alternates untraced and traced rounds, starting untraced
    while len(plain) + len(traced) < 1 + args.trace or (
        time.perf_counter() - start + last <= args.seconds
    ):
        use_trace = tracer is not None and len(plain) > len(traced)
        began = time.perf_counter()
        summary, round_errors, round_failed = workload.round(tracer if use_trace else None)
        last = time.perf_counter() - began
        (traced if use_trace else plain).append(summary)
        errors += round_errors
        attempted += workload.ops_per_round
        failed += round_failed
    if hasattr(workload, "final_checks"):
        errors += workload.final_checks()

    for error in errors[:20]:
        print(f"# check failed: {error}", file=sys.stderr)
    print(named_line(args.workload, workload.NAMES, plain))
    if tracer is None:
        per_round = [round_metrics(s) for s in plain]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": workload.peak_rss_mb, "unit": "MB"},
        }
        units = {"round_ref": "ref", "main_per_ref": "1/ref", "side_per_ref": "1/ref"}
        for name, unit in units.items():
            value = statistics.median(r[name] for r in per_round)
            metrics[name] = {"value": value, "unit": unit}
    else:
        print(named_line(args.workload, workload.NAMES, traced, " traced"))
        metrics = {
            name: {
                "value": tracer.totals[name] / len(traced),
                "unit": "s/round" if name.endswith("_s") else "count/round",
            }
            for name in COUNTERS
        }
        with_trace, without = (
            statistics.median(round_metrics(s)["round_ref"] for s in rounds)
            for rounds in (traced, plain)
        )
        metrics["trace.overhead_pct"] = {"value": 100 * (with_trace / without - 1), "unit": "%"}
    result = {"correct": not errors, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
