"""Every site the per-layer tracer wraps still exists in the library.

`perfbench/layers.py` replaces each traced function at the module
attributes listed in its `SITES`, reading each one from the owner's
`__dict__`.  A helper that leaves a module, or stops being imported into
it, makes `perfbench/run.py --trace 1` fail with a `KeyError`.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(layers):
    """site -> the function now bound there, or None when the name is gone."""
    out = {}
    for sites in layers.SITES.values():
        for site in sites:
            owner, attr = layers._resolve(site)
            out[site] = owner.__dict__.get(attr)
    return out


def test_every_site_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    before = _current(layers)
    missing = [site for site, fn in before.items() if fn is None]
    assert missing == [], f"tracer sites missing from the library: {missing}"
    tracer = layers.Tracer()
    try:
        tracer.install()
        during = _current(layers)
    finally:
        tracer.uninstall()
    assert [site for site in before if during[site] is before[site]] == []
    assert _current(layers) == before
