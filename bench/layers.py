"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the library's modules.  Spans wrap public functions only; field
arithmetic and matrix construction are counted without spans, because they
run millions of times and a span each would swamp what they measure.
"""

from __future__ import annotations

import contextlib

from tracing import FIELD_OPS, Tracer, busy_of_layer

PACKAGE = "ppalg"

SUITE_FUNCTIONS = {
    "figure2": "figure2_report",
    "chs": "check_stability_characterization",
    "zerogen": "zerogen_suite",
    "roundtrip": "roundtrip_suite",
    "coxeter": "coxeter_suite",
    "dimlaw": "dimlaw_suite",
    "cbform": "cbform_suite",
    "walls": "walls_suite",
    "rootlaw": "rootlaw_suite",
    "Lseq": "check_L_sequences",
}

FIELD_KINDS = ("rationals", "prime", "prime-power")

TIMED_FUNCTIONS = {
    "stability": ("stability_verdict", "thin_canonical_values", "moduli_scan"),
    "hom": ("ext1_space", "ext1_dim_via_complex", "extension_from_cocycle"),
    "rep": ("hom_dim", "hom_basis"),
    "reflection": ("reflect_plus", "reflect_minus", "apply_word", "compute_siw"),
    "weyl": ("finite_root_system", "chamber_of", "is_generic", "apply_word_to_theta"),
    "quiver": ("standard_extended_dynkin", "build_double"),
}

ENUMERATE = "stability.enumerate_thin_reps"

# layers whose set-up share is reported apart from the unit
SETUP_LAYERS = ("quiver", "weyl", "hom")


def _per_layer_table():
    rows = [
        ("linalg.rref.calls", "count", "lower"),
        ("linalg.rref.busy_s", "s", "lower"),
        ("linalg.rref.max_cells", "count", "lower"),
    ]
    rows += [(f"linalg.rref.busy_s.{kind}", "s", "lower") for kind in FIELD_KINDS]
    rows += [
        ("linalg.mul.calls", "count", "lower"),
        ("linalg.mul.busy_s", "s", "lower"),
        ("linalg.matrix_new.calls", "count", "lower"),
    ]
    rows += [(f"fields.{kind}.ops", "count", "lower") for kind in FIELD_KINDS]
    rows += [
        (f"{ENUMERATE}.calls", "count", "lower"),
        (f"{ENUMERATE}.busy_s", "s", "lower"),
        (f"{ENUMERATE}.yielded", "count", "lower"),
        (f"{ENUMERATE}.accept_ratio", "ratio", "higher"),
        ("stability.stability_verdict.calls", "count", "lower"),
        ("stability.stability_verdict.busy_s", "s", "lower"),
        ("stability.thin_canonical_values.busy_s", "s", "lower"),
        ("stability.moduli_scan.busy_s", "s", "lower"),
        ("hom.ext1_space.calls", "count", "lower"),
        ("hom.ext1_space.busy_s", "s", "lower"),
        ("hom.ext1_dim_via_complex.calls", "count", "lower"),
        ("hom.ext1_dim_via_complex.busy_s", "s", "lower"),
        ("hom.extension_from_cocycle.busy_s", "s", "lower"),
        ("rep.hom_dim.calls", "count", "lower"),
        ("rep.hom_dim.busy_s", "s", "lower"),
        ("rep.hom_basis.busy_s", "s", "lower"),
        ("rep.check_relations.calls", "count", "lower"),
        ("rep.check_relations.busy_s", "s", "lower"),
        ("rep.is_isomorphic.calls", "count", "lower"),
        ("rep.is_isomorphic.busy_s", "s", "lower"),
        ("rep.is_isomorphic.true", "count", "higher"),
        ("rep.is_isomorphic.false", "count", "lower"),
        ("rep.is_isomorphic.inconclusive", "count", "lower"),
    ]
    for fn in TIMED_FUNCTIONS["reflection"]:
        rows += [(f"reflection.{fn}.calls", "count", "lower"), (f"reflection.{fn}.busy_s", "s", "lower")]
    rows += [("weyl.busy_s", "s", "lower"), ("quiver.busy_s", "s", "lower")]
    rows += [(f"setup.{layer}.busy_s", "s", "lower") for layer in SETUP_LAYERS]
    for suite in SUITE_FUNCTIONS:
        rows += [(f"verify.{suite}.busy_s", "s", "lower"), (f"verify.{suite}.self_s", "s", "lower")]
    rows += [
        ("cli.main.busy_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return rows


PER_LAYER = _per_layer_table()


@contextlib.contextmanager
def installed(tracer: Tracer, P):
    """Trace the library's layers inside the block."""
    install(tracer, P)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def install(tracer: Tracer, P) -> None:
    """Wrap the public functions of every layer; undo with tracer.uninstall()."""
    t = tracer

    def span(name):
        return lambda fn: t.timed(fn, name)

    t.patch_function(PACKAGE, P.cli, "main", span("cli.main"))
    for suite, attr in SUITE_FUNCTIONS.items():
        t.patch_function(PACKAGE, P.verify, attr, span(f"verify.{suite}"))
    t.patch_function(PACKAGE, P.stability, "enumerate_thin_reps", lambda fn: t.timed_generator(fn, ENUMERATE))
    for layer, attrs in TIMED_FUNCTIONS.items():
        module = getattr(P, layer)
        for attr in attrs:
            t.patch_function(PACKAGE, module, attr, span(f"{layer}.{attr}"))
    t.patch_function(PACKAGE, P.rep, "is_isomorphic", lambda fn: _isomorphic_wrapper(t, P, fn))

    Rep = P.rep.Representation
    t.patch_method(Rep, "check_relations", span("rep.check_relations"))
    t.patch_method(Rep, "build", lambda fn: _build_counter(t, fn))
    WeylGroup = P.weyl.WeylGroup
    t.patch_method(WeylGroup, "__init__", span("weyl.WeylGroup"))
    t.patch_method(WeylGroup, "all_elements", span("weyl.WeylGroup.all_elements"))

    Matrix = P.linalg.Matrix
    t.patch_method(Matrix, "rref", lambda fn: _rref_wrapper(t, fn))
    t.patch_method(Matrix, "mul", span("linalg.mul"))
    t.patch_method(Matrix, "__init__", lambda fn: t.counted(fn, "linalg.matrix_new.calls"))

    for cls in (P.fields.Rationals, P.fields.PrimeField, P.fields.GaloisField):
        for op in FIELD_OPS:
            t.replace(cls, op, t.counted(getattr(cls, op), f"fields.{cls.kind}.ops"))


def _isomorphic_wrapper(t: Tracer, P, fn):
    inconclusive = P.errors.Inconclusive

    def wrapper(*args, **kwargs):
        idx = t.begin("rep.is_isomorphic")
        try:
            out = fn(*args, **kwargs)
        except inconclusive:
            t.count("rep.is_isomorphic.inconclusive")
            raise
        finally:
            t.end(idx)
        t.count("rep.is_isomorphic.true" if out else "rep.is_isomorphic.false")
        return out

    return wrapper


def _build_counter(t: Tracer, fn):
    def wrapper(*args, **kwargs):
        if t.is_open(ENUMERATE):
            t.count(f"{ENUMERATE}.built")
        return fn(*args, **kwargs)

    return wrapper


def _rref_wrapper(t: Tracer, fn):
    def wrapper(self):
        t.peak("linalg.rref.max_cells", self.rows * self.cols)
        idx = t.begin("linalg.rref." + self.field.kind)
        try:
            return fn(self)
        finally:
            t.end(idx)

    return wrapper


def per_layer_metrics(setup: Tracer, t: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every metric of PER_LAYER: the unit's from ``t``, the set-up's from ``setup``."""
    agg = t.aggregate()
    c = t.counters

    def busy(name):
        return agg.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    values = {
        "linalg.rref.calls": sum(calls(f"linalg.rref.{k}") for k in FIELD_KINDS),
        "linalg.rref.busy_s": sum(busy(f"linalg.rref.{k}") for k in FIELD_KINDS),
        "linalg.rref.max_cells": c.get("linalg.rref.max_cells", 0),
        "linalg.mul.calls": calls("linalg.mul"),
        "linalg.mul.busy_s": busy("linalg.mul"),
        "linalg.matrix_new.calls": c.get("linalg.matrix_new.calls", 0),
        f"{ENUMERATE}.calls": c.get(f"{ENUMERATE}.calls", 0),
        f"{ENUMERATE}.busy_s": busy(ENUMERATE),
        f"{ENUMERATE}.yielded": c.get(f"{ENUMERATE}.yielded", 0),
        f"{ENUMERATE}.accept_ratio": (
            c.get(f"{ENUMERATE}.yielded", 0) / c[f"{ENUMERATE}.built"]
            if c.get(f"{ENUMERATE}.built")
            else 0.0
        ),
        "rep.is_isomorphic.calls": calls("rep.is_isomorphic"),
        "rep.is_isomorphic.busy_s": busy("rep.is_isomorphic"),
        "weyl.busy_s": busy_of_layer(t, "weyl."),
        "quiver.busy_s": busy_of_layer(t, "quiver."),
        "cli.main.busy_s": busy("cli.main"),
        "trace.spans": len(t.span_name),
        "trace.traced_wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}.busy_s"] = busy_of_layer(setup, layer + ".")
    for kind in FIELD_KINDS:
        values[f"linalg.rref.busy_s.{kind}"] = busy(f"linalg.rref.{kind}")
        values[f"fields.{kind}.ops"] = c.get(f"fields.{kind}.ops", 0)
    for outcome in ("true", "false", "inconclusive"):
        values[f"rep.is_isomorphic.{outcome}"] = c.get(f"rep.is_isomorphic.{outcome}", 0)
    for suite in SUITE_FUNCTIONS:
        values[f"verify.{suite}.busy_s"] = busy(f"verify.{suite}")
        values[f"verify.{suite}.self_s"] = agg.get(f"verify.{suite}", {}).get("self_s", 0.0)
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        values[name] = calls(base) if stat == "calls" else busy(base)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
