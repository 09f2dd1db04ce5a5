"""Per-layer tracing by wrapping projchar's public functions from outside.

Each traced function is replaced at every module attribute through which
the program calls it, so calls made inside the library (express_in_z
calling is_shift_invariant, surfalg calling a_classes) are seen too.  A
wrapper records calls and self time: its own duration minus the part its
traced children covered.  Size hooks count terms returned by substitute
and matrix cells given to linear_solve.  Nothing is wrapped until
`install` is called (or the tracer is entered as a context manager), and
`uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable

# layer name -> module attributes that hold it ("module:attribute" or
# "module:Class.attribute")
SITES = {
    "qpoly.substitute": ["qpoly:RationalPoly.substitute"],
    "qpoly.linear_solve": ["qpoly:linear_solve", "projclass:linear_solve"],
    "qpoly.express_in_elementary": [
        "qpoly:express_in_elementary",
        "projclass:express_in_elementary",
    ],
    "qpoly.elementary_symmetric_all": [
        "qpoly:elementary_symmetric_all",
        "projclass:elementary_symmetric_all",
    ],
    "projclass.z_basis": ["projclass:z_basis"],
    "projclass.lambda_p": ["projclass:lambda_p"],
    "projclass.end_chern": ["projclass:end_chern"],
    "projclass.end_in_a": ["projclass:end_in_a"],
    "projclass.hom_flag_chern": ["projclass:hom_flag_chern"],
    "projclass.is_shift_invariant": ["projclass:is_shift_invariant"],
    "projclass.express_in_z": ["projclass:express_in_z"],
    "projclass.a_classes": ["projclass:a_classes", "surfalg:a_classes"],
    "surfalg.twist_chern": ["surfalg:twist_chern"],
    "surfalg.canonicality_check": ["surfalg:canonicality_check"],
    "univdet.check_conditions": ["univdet:check_conditions"],
    "univdet.construct_xi": ["univdet:construct_xi"],
    "univdet.weight_of": ["univdet:weight_of"],
    "cli.main": ["cli:main"],
}

# layer name -> (size counter name, function of (args, result))
SIZES: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "qpoly.substitute": ("terms_out", lambda args, out: len(out.terms)),
    "qpoly.linear_solve": (
        "cells",
        lambda args, out: len(args[0]) * (len(args[0][0]) if args[0] else 0),
    ),
}

# the per-layer metrics reported, in BENCHMARK.json order
COUNTERS = [
    "qpoly.substitute.self_s",
    "qpoly.substitute.calls",
    "qpoly.substitute.terms_out",
    "qpoly.linear_solve.self_s",
    "qpoly.linear_solve.calls",
    "qpoly.linear_solve.cells",
    "qpoly.express_in_elementary.self_s",
    "qpoly.express_in_elementary.calls",
    "qpoly.elementary_symmetric_all.self_s",
    "projclass.z_basis.self_s",
    "projclass.lambda_p.self_s",
    "projclass.end_chern.self_s",
    "projclass.end_in_a.self_s",
    "projclass.hom_flag_chern.self_s",
    "projclass.is_shift_invariant.self_s",
    "projclass.express_in_z.self_s",
    "projclass.a_classes.self_s",
    "surfalg.twist_chern.self_s",
    "surfalg.canonicality_check.self_s",
    "univdet.check_conditions.self_s",
    "univdet.construct_xi.self_s",
    "univdet.weight_of.self_s",
    "cli.main.self_s",
]


def _resolve(site: str) -> tuple[Any, str]:
    module, path = site.split(":")
    owner: Any = importlib.import_module(f"projchar.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Counts calls, self time and sizes per layer while installed."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack, totals = self._stack, self.totals
        size = SIZES.get(layer)
        clock = time.perf_counter
        self_key, calls_key = layer + ".self_s", layer + ".calls"

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[self_key] = totals.get(self_key, 0.0) + elapsed - children
                totals[calls_key] = totals.get(calls_key, 0.0) + 1
            if size is not None:
                totals[f"{layer}.{size[0]}"] += size[1](args, result)
            return result

        return traced

    def install(self) -> None:
        for layer, sites in SITES.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        return {name: self.totals.get(name, 0.0) for name in COUNTERS}
