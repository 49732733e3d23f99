"""The traced bench wraps names of the real package, and puts every one back.

``bench/layers.py`` wraps library functions and methods by name; a name it
wraps that the library no longer has makes ``install`` raise.  This test
imports the bench modules without changing them and installs them on the
package the other tests use.
"""

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("errors", "fields", "linalg", "quiver", "rep", "hom", "weyl", "reflection", "stability", "verify", "cli")


def bench_module(name):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def bindings():
    """Every attribute of every loaded ppalg module and of every class defined in one, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ppalg" or mod_name.startswith("ppalg.")):
            continue
        for key, value in vars(mod).items():
            out[mod_name, key] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for attr, raw in vars(value).items():
                    out[mod_name, key, attr] = raw
    return out


def test_the_traced_bench_wraps_real_names_and_restores_every_binding():
    layers, tracing = bench_module("layers"), bench_module("tracing")
    P = SimpleNamespace(**{m: importlib.import_module(f"ppalg.{m}") for m in MODULES})
    before = bindings()
    dq, _ = P.quiver.standard_extended_dynkin("A", 2)
    s = P.rep.Representation.simple(dq, P.fields.GF(3), 1)
    tracer = tracing.Tracer()
    try:
        with layers.installed(tracer, P):
            assert P.rep.hom_dim is not before["ppalg.rep", "hom_dim"]
            assert P.hom.hom_dim is P.rep.hom_dim  # a second binding of the same function
            assert P.rep.hom_dim(s, s) == 1
    finally:
        tracer.uninstall()  # a failed install leaves no wrapper behind for the later tests
    assert tracer.aggregate()["rep.hom_dim"]["calls"] == 1
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
